import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from incsub import Ball, Box, DimensionMismatchError, Simplex


def brute_force_simplex_projection(x, scale, resolution):
    """Independent oracle: grid-minimize ||y - x|| over the 2-d simplex."""
    t = np.arange(0.0, scale + resolution / 2, resolution)
    pts = np.column_stack([t, scale - t])
    d = np.linalg.norm(pts - x, axis=1)
    return pts[np.argmin(d)]


def test_box_clamps_coordinates():
    assert np.allclose(Box([0, 0], [1, 1]).project_many([1.5, -0.3]), [1.0, 0.0])


def test_ball_scales_radially():
    assert np.allclose(Ball([0, 0], 1.0).project_many([3.0, 4.0]), [0.6, 0.8])


def test_simplex_matches_brute_force_oracle():
    x = np.array([0.8, 0.8])
    oracle = brute_force_simplex_projection(x, 1.0, 1e-4)
    got = Simplex(1.0, 2).project_many(x)
    assert np.allclose(got, [0.5, 0.5], atol=1e-12)
    assert np.linalg.norm(got - oracle) <= 2e-4


@pytest.mark.parametrize("x", [[0.3, 0.3], [-5.0, 2.0], [2.0, -1.0]])
def test_simplex_agrees_with_oracle_at_random_points(x):
    x = np.array(x, dtype=float)
    oracle = brute_force_simplex_projection(x, 1.0, 1e-4)
    got = Simplex(1.0, 2).project_many(x)
    # the oracle is lattice-limited; distances must agree to lattice accuracy
    assert np.linalg.norm(got - x) <= np.linalg.norm(oracle - x) + 1e-12
    assert np.linalg.norm(got - oracle) <= 2e-4


def make_sets():
    return [
        Box([-1.0, 0.5], [2.0, 3.0]),
        Ball([0.5, -0.25], 1.5),
        Simplex(2.0, 2),
        Simplex(1.0, 4),
    ]


def sample_around(fset, rng, size, span=4.0):
    return rng.uniform(-span, span, size=(size, fset.dim))


@pytest.mark.parametrize("fset", make_sets(), ids=lambda s: type(s).__name__)
def test_projection_is_nonexpansive(fset):
    rng = np.random.default_rng(7)
    x = sample_around(fset, rng, 1000)
    y = sample_around(fset, rng, 1000)
    px = fset.project_many(x)
    py = fset.project_many(y)
    lhs = np.linalg.norm(px - py, axis=1)
    rhs = np.linalg.norm(x - y, axis=1)
    assert np.all(lhs <= rhs + 1e-9)


@pytest.mark.parametrize("fset", make_sets(), ids=lambda s: type(s).__name__)
def test_projection_is_optimal_and_idempotent(fset):
    rng = np.random.default_rng(11)
    x = sample_around(fset, rng, 300)
    z = fset.sample(rng, 300)
    px = fset.project_many(x)
    assert np.all(np.linalg.norm(px - x, axis=1)
                  <= np.linalg.norm(z - x, axis=1) + 1e-8)
    # projecting again moves nothing
    assert np.allclose(fset.project_many(px), px, atol=1e-9)
    # feasible points pass through
    pz = fset.project_many(z)
    assert np.allclose(pz, z, atol=1e-8)


def test_membership_and_dimension_checks():
    box = Box([0, 0], [1, 1])
    assert box.contains([0.5, 0.5])
    assert not box.contains([1.5, 0.5])
    with pytest.raises(DimensionMismatchError):
        box.project_many([0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        Ball([0.0], 0.0)
    with pytest.raises(ValueError):
        Simplex(0.0, 2)


def test_diameters():
    assert Box([0, 0], [3, 4]).diameter() == 5.0
    assert Ball([1, 1], 2.0).diameter() == 4.0
    assert Simplex(1.0, 2).diameter() == pytest.approx(np.sqrt(2.0))


def _vectors(dim, bound=5.0):
    return st.lists(st.floats(-bound, bound), min_size=dim, max_size=dim).map(np.array)


@st.composite
def boxes(draw, dim=None):
    dim = draw(st.integers(1, 3)) if dim is None else dim
    lower = draw(_vectors(dim))
    return Box(lower, lower + draw(_vectors(dim).map(np.abs)))


@st.composite
def feasible_sets(draw):
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["box", "ball", "simplex"]))
    if kind == "box":
        return draw(boxes(dim))
    if kind == "ball":
        return Ball(draw(_vectors(dim)), draw(st.floats(0.1, 5.0)))
    return Simplex(draw(st.floats(0.1, 5.0)), dim)


def _within(values, lo, hi):
    tol = 1e-9 * (1.0 + max(abs(lo), abs(hi)))
    return bool(np.all((lo - tol <= values) & (values <= hi + tol)))


@settings(max_examples=150, deadline=None)
@given(fset=feasible_sets(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_samples_stay_within_the_sets_geometry(fset, seed, data):
    x = fset.sample(np.random.default_rng(seed), 64)
    for j in range(fset.dim):
        assert _within(x[:, j], *fset.coordinate_range(j))
    a = data.draw(_vectors(fset.dim))
    assert _within(x @ a, *fset.linear_range(a))
    point = data.draw(_vectors(fset.dim, 10.0))
    assert _within(np.linalg.norm(x - point, axis=1), 0.0,
                   fset.farthest_distance(point))


@settings(max_examples=150, deadline=None)
@given(fset=feasible_sets(), resolution=st.floats(0.25, 1.0))
def test_every_lattice_point_lies_in_the_set(fset, resolution):
    assert all(len(chunk) and fset.contains(chunk)
               for chunk in reference.lattice(fset, resolution))


@settings(max_examples=150, deadline=None)
@given(box=boxes(), data=st.data())
def test_box_geometry_is_attained_at_a_vertex(box, data):
    vertices = np.array(list(itertools.product(*zip(box.lower, box.upper))))
    for j in range(box.dim):
        assert box.coordinate_range(j) == (vertices[:, j].min(), vertices[:, j].max())
    a = data.draw(_vectors(box.dim))
    values = np.array([v @ a for v in vertices])
    assert box.linear_range(a) == pytest.approx((values.min(), values.max()),
                                                rel=1e-12, abs=1e-12)
    point = data.draw(_vectors(box.dim, 10.0))
    assert box.farthest_distance(point) == pytest.approx(
        np.linalg.norm(vertices - point, axis=1).max(), rel=1e-12)
