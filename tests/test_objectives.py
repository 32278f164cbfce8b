"""Objective families against the plain-Python per-agent reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from helpers import absolute_value
from incsub import (Ball, Box, LinearUtility, LogUtility, QuadraticFamily,
                    RegressionFamily, Simplex, SqrtUtility, UtilityFamily)

BOX = Box([-1.0, -0.5], [2.0, 1.5])
BALL = Ball([0.0, 0.0], 2.0)
SIMPLEX = Simplex(1.0, 3)


def regression_of(features, samples, fset):
    """RegressionFamily of per-sensor sample lists."""
    samples = [np.asarray(r, dtype=float) for r in samples]
    rbar = [r.mean() for r in samples]
    var = [np.mean((r - rb) ** 2) for r, rb in zip(samples, rbar)]
    return RegressionFamily(features, rbar, var, fset)


def shipped_components():
    utilities = UtilityFamily([LogUtility(), SqrtUtility(1e-4), LinearUtility(2.0)],
                              SIMPLEX)
    return [
        pytest.param(QuadraticFamily([[0.5, -0.5]], BOX), 0, BOX,
                     id="quadratic-Box"),
        pytest.param(QuadraticFamily([[1.0, 1.0]], BALL), 0, BALL,
                     id="quadratic-Ball"),
        pytest.param(regression_of([[1.0, -2.0]], [[0.5, 1.5, -0.25]], BOX), 0,
                     BOX, id="regression-Box"),
    ] + [pytest.param(utilities, j, SIMPLEX, id=f"-U(x_{j})-Simplex")
         for j in range(3)]


def shipped_families():
    """One multi-agent family per fixture, with the set it was built for."""
    rng = np.random.default_rng(3)
    cube = Box([-2.0, -2.0, -2.0], [2.0, 2.0, 2.0])
    return {
        "quadratic": (QuadraticFamily(rng.normal(size=(6, 2)), BOX), BOX),
        "regression": (regression_of(rng.normal(size=(50, 3)),
                                     rng.normal(size=(50, 4)), cube), cube),
        "allocation": (UtilityFamily([LogUtility(2.0), SqrtUtility(1e-4),
                                      LinearUtility(2.0, cap=1.5)], SIMPLEX),
                       SIMPLEX),
    }


FAMILIES = shipped_families()


@pytest.mark.parametrize("family,agent,fset", shipped_components())
def test_subgradient_inequality(family, agent, fset):
    # g_i(x)^T (y - x) <= f_i(y) - f_i(x) at every sampled pair in the set
    f_i, _ = reference.component(family, agent)
    rng = np.random.default_rng(17)
    xs = fset.sample(rng, 500)
    ys = fset.sample(rng, 500)
    gx = reference.subgradients(family, xs, agent)
    fx = np.array([f_i(x) for x in xs.tolist()])
    fy = np.array([f_i(y) for y in ys.tolist()])
    lhs = np.einsum("ij,ij->i", gx, ys - xs)
    assert np.all(lhs <= fy - fx + 1e-9)


@pytest.mark.parametrize("family,agent,fset", shipped_components())
def test_bound_validity(family, agent, fset):
    rng = np.random.default_rng(23)
    xs = fset.sample(rng, 10_000)
    norms = np.linalg.norm(reference.subgradients(family, xs, agent), axis=1)
    assert np.all(norms <= family.bounds[agent] + 1e-9)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_sum_matches_reference_components(name):
    family, fset = FAMILIES[name]
    xs = fset.sample(np.random.default_rng(5), 64)
    direct = [reference.total(family, x) for x in xs.tolist()]
    assert np.allclose(family.evaluate_many(xs), direct, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_agent_subgradients_match_reference(name):
    family, fset = FAMILIES[name]
    rng = np.random.default_rng(6)
    xs = fset.sample(rng, 32)
    agents = rng.integers(0, family.m, size=32)
    rows = reference.subgradients(family, xs, agents)
    for r, x in enumerate(xs.tolist()):
        _, g = reference.component(family, agents[r])
        assert np.array_equal(rows[r], g(x))
    # one int serves every row
    for a in range(family.m):
        _, g = reference.component(family, a)
        assert np.array_equal(reference.subgradients(family, xs[:3], a),
                              [g(x) for x in xs[:3].tolist()])


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(FAMILIES)), rows=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1), one_agent=st.booleans())
def test_scalar_and_batch_paths_agree(name, rows, seed, one_agent):
    # a row's value and subgradient are bit-equal alone, in the whole batch
    # and in any sub-batch: replications do not depend on batching
    family, fset = FAMILIES[name]
    rng = np.random.default_rng(seed)
    xs = fset.sample(rng, rows)
    agents = (int(rng.integers(family.m)) if one_agent
              else rng.integers(0, family.m, size=rows))
    f_all = family.evaluate_many(xs)
    g_all = reference.subgradients(family, xs, agents)
    lo, hi = sorted(rng.integers(0, rows + 1, size=2))
    cuts = [(r, r + 1) for r in range(rows)] + [(lo, hi)]
    for a, b in cuts:
        part = agents if one_agent else agents[a:b]
        assert family.evaluate_many(xs[a:b]).tobytes() == f_all[a:b].tobytes()
        assert (reference.subgradients(family, xs[a:b], part).tobytes()
                == g_all[a:b].tobytes())


def test_abs_value_convention_at_kink():
    obj = absolute_value()
    assert reference.subgradients(obj, np.array([[0.0]]), 0)[0, 0] == 0.0
    assert reference.subgradients(obj, np.array([[-3.0]]), 0)[0, 0] == -1.0
    assert obj.evaluate_many(np.array([[-3.0]]))[0] == 3.0


def test_quadratic_bound_is_exact_on_box():
    family = QuadraticFamily([[2.0]], Box([0.0], [10.0]))
    # farthest point is x = 10, so the bound is 2 * 8
    assert family.bounds[0] == pytest.approx(16.0)


def test_sqrt_utility_is_concave_increasing_bounded():
    u = SqrtUtility(1e-4)
    t = np.linspace(0.0, 1.0, 2001)
    vals = np.asarray(u.value(t))
    assert np.all(np.diff(vals) > 0)
    mid = np.asarray(u.value((t[:-2] + t[2:]) / 2))
    assert np.all(mid + 1e-12 >= (vals[:-2] + vals[2:]) / 2)
    assert np.max(np.asarray(u.slope(t))) <= u.max_slope(0.0, 1.0) + 1e-12
    # matches the plain square root away from the smoothing window
    assert u.value(0.25) == pytest.approx(0.5)
