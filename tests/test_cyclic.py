import itertools

import numpy as np
import pytest

import incsub as isb
from helpers import (STEP_NOISES, STEP_SETS, CallbackFamily, absolute_value,
                     logging_problem, run_one)
from incsub.errors import NonFiniteError
from reference import (CyclicState, cyclic_cycle, make_cyclic_noise_stream,
                       subgradients)


class ZeroStep:
    """Degenerate schedule used only to exercise the zero-step edge case."""

    def step(self, k):
        return 0.0

    def steps(self, start, count):
        return np.zeros(count)


def reference_two_agent_cycle(x0, centers, box, alpha):
    """Straight-line reimplementation of one ring cycle, no shared code."""
    lo, hi = box
    z = x0
    for c in centers:
        z = z - alpha * 2.0 * (z - c)
        z = min(max(z, lo), hi)
    return z


def reference_one_agent_subgradient(x0, alpha_fn, steps, lo, hi):
    """Classical projected subgradient on f(x) = |x|, independent loop."""
    x = x0
    out = [x]
    for k in range(1, steps + 1):
        g = 0.0 if x == 0 else (1.0 if x > 0 else -1.0)
        x = x - alpha_fn(k) * g
        x = min(max(x, lo), hi)
        out.append(x)
    return out


def test_single_subgradient_step_on_abs():
    prob = isb.ProblemInstance(absolute_value(), isb.Box([-1.0], [1.0]),
                               isb.OptimumCertificate(0.0, np.array([0.0]),
                                                      "closed_form"))
    tr = run_one(prob, isb.NoNoise(), isb.Constant(0.5), isb.RingOrder(prob.m),
                 np.array([1.0]), 1, 0)
    assert tr.final_x == [0.5]


def test_two_agent_cycle_matches_reference(quad_m2_line):
    tr = run_one(quad_m2_line, isb.NoNoise(), isb.Constant(0.25),
                 isb.RingOrder(quad_m2_line.m), np.array([0.0]), 1, 0)
    ref = reference_two_agent_cycle(0.0, [0.0, 2.0], (0.0, 10.0), 0.25)
    assert tr.final_x[0] == ref == 1.0  # lands on the optimum


def test_many_cycles_match_reference_on_abs():
    prob = isb.ProblemInstance(absolute_value(), isb.Box([-1.0], [1.0]),
                               isb.OptimumCertificate(0.0, np.array([0.0]),
                                                      "closed_form"))
    sched = isb.PowerLaw(0.3, 1.0)
    tr = run_one(prob, isb.NoNoise(), sched, isb.RingOrder(prob.m), np.array([1.0]), 50,
                 0, stride=1)
    ref = reference_one_agent_subgradient(1.0, lambda k: 0.3 / k, 50, -1.0, 1.0)
    assert np.allclose(tr.f_vals, np.abs(ref), atol=1e-15)


def test_zero_step_freezes_iterate(quad_m2_line):
    tr = run_one(quad_m2_line, isb.GaussianNoise(1.0), ZeroStep(),
                 isb.RingOrder(quad_m2_line.m), np.array([3.0]), 25, 4)
    assert tr.final_x == [3.0]
    assert np.all(tr.f_vals == tr.f_vals[0])


def test_zero_cycles_gives_initial_row_only(quad_m2_line):
    tr = run_one(quad_m2_line, isb.NoNoise(), isb.Constant(0.1),
                 isb.RingOrder(quad_m2_line.m), np.array([5.0]), 0, 0)
    assert list(tr.ks) == [0]
    assert tr.f_vals[0] == quad_m2_line.f(np.array([5.0]))


def test_diminishing_steps_converge(quad_m2_line):
    tr = run_one(quad_m2_line, isb.NoNoise(), isb.PowerLaw(1.0, 1.0),
                 isb.RingOrder(quad_m2_line.m), np.array([9.0]), 10_000, 0, stride=1000)
    assert tr.f_vals[-1] - quad_m2_line.optimum.f_star <= 1e-3


def test_traces_are_deterministic(quad_m5_box):
    kwargs = dict(stride=64, tail_fraction=0.2)
    a = isb.run_batch(quad_m5_box, isb.GaussianNoise(0.4), isb.PowerLaw(1.0, 1.0),
                      isb.RingOrder(quad_m5_box.m), np.array([1.0, -1.0]), 500, [3, 4],
                      **kwargs)
    b = isb.run_batch(quad_m5_box, isb.GaussianNoise(0.4), isb.PowerLaw(1.0, 1.0),
                      isb.RingOrder(quad_m5_box.m), np.array([1.0, -1.0]), 500, [3, 4],
                      **kwargs)
    for ta, tb in zip(a, b):
        assert ta.to_csv() == tb.to_csv()
        assert ta.final_x == tb.final_x


def test_batch_lane_equals_solo_run(quad_m5_box, regr_m5_box):
    for prob in (quad_m5_box, regr_m5_box):
        x0 = np.full(prob.n, 0.5)
        batch = isb.run_batch(prob, isb.GaussianNoise(0.3), isb.PowerLaw(1.0, 0.8),
                              isb.RingOrder(prob.m), x0, 300, [11, 12, 13], stride=30)
        solo = run_one(prob, isb.GaussianNoise(0.3), isb.PowerLaw(1.0, 0.8),
                       isb.RingOrder(prob.m), x0, 300, 12, stride=30)
        assert batch[1].to_csv() == solo.to_csv(), prob.name


def test_every_subiterate_is_feasible(quad_m5_box):
    stream = make_cyclic_noise_stream(isb.GaussianNoise(0.5), quad_m5_box, 21)
    state = CyclicState.initial(np.array([1.0, 1.0]))
    fset = quad_m5_box.feasible_set
    for _ in range(100):
        state = cyclic_cycle(state, quad_m5_box, stream, isb.PowerLaw(1.0, 1.0))
        assert fset.contains(state.x)
        for z in state.sub_iterates:
            assert fset.contains(z)
    # boundary identities: row 0 is the previous outer iterate, row m the new one
    assert np.array_equal(state.sub_iterates[-1], state.x)


def test_ring_order_is_respected(quad_m5_box):
    calls = []
    inner = quad_m5_box.family

    def recorded(xs, agent):
        calls.append(agent)
        return subgradients(inner, xs, agent)

    prob = isb.ProblemInstance(
        CallbackFamily(inner.n, inner.bounds, inner.evaluate_many, recorded),
        quad_m5_box.feasible_set, quad_m5_box.optimum)
    run_one(prob, isb.NoNoise(), isb.Constant(0.05), isb.RingOrder(prob.m),
            np.array([0.0, 0.0]), 7, 0)
    assert calls == list(range(5)) * 7


def test_hand_off_points_feed_next_agent(quad_m2_line):
    # agent i's subgradient is evaluated exactly at the previous hand-off
    seen = []
    inner = quad_m2_line.family

    def recorded(xs, agent):
        seen.append(xs[0].copy())
        return subgradients(inner, xs, agent)

    prob = isb.ProblemInstance(
        CallbackFamily(inner.n, inner.bounds, inner.evaluate_many, recorded),
        quad_m2_line.feasible_set, quad_m2_line.optimum)
    stream = make_cyclic_noise_stream(isb.NoNoise(), prob, 0)
    state = CyclicState.initial(np.array([0.0]))
    state = cyclic_cycle(state, prob, stream, isb.Constant(0.25))
    assert np.array_equal(seen[0], state.sub_iterates[0])
    assert np.array_equal(seen[1], state.sub_iterates[1])


def test_x0_outside_set_is_projected_with_warning(quad_m2_line, caplog):
    with caplog.at_level("WARNING"):
        tr = run_one(quad_m2_line, isb.NoNoise(), isb.Constant(0.01),
                     isb.RingOrder(quad_m2_line.m), np.array([-5.0]), 0, 0)
    assert tr.f_vals[0] == quad_m2_line.f(np.array([0.0]))
    assert any("projecting" in rec.message for rec in caplog.records)


def test_nonfinite_iterate_aborts_with_diagnostic():
    def bad_grad(xs, agents):
        return np.full_like(xs, np.nan)

    family = CallbackFamily(1, [1.0], lambda xs: np.zeros(len(xs)), bad_grad)
    prob = isb.ProblemInstance(family, isb.Box([-1.0], [1.0]),
                               isb.OptimumCertificate(0.0, np.array([0.0]),
                                                      "closed_form"))
    with pytest.raises(NonFiniteError, match="cycle 1") as info:
        run_one(prob, isb.NoNoise(), isb.Constant(0.1), isb.RingOrder(prob.m),
                np.array([0.0]), 5, 0)
    # the abort carries the finite prefix: here only the initial row
    partial = info.value.partial_traces
    assert len(partial) == 1
    assert list(partial[0].ks) == [0]
    assert partial[0].aborted_at == 1
    assert partial[0].final_x == [0.0]


def test_partial_trace_keeps_finite_prefix():
    state = {"calls": 0}

    def flaky_grad_many(xs, agents):
        state["calls"] += 1
        if state["calls"] > 3:
            return np.full_like(xs, np.nan)
        return np.zeros_like(xs)

    family = CallbackFamily(1, [1.0], lambda xs: np.zeros(len(xs)),
                            flaky_grad_many)
    prob = isb.ProblemInstance(family, isb.Box([-1.0], [1.0]),
                               isb.OptimumCertificate(0.0, np.array([0.0]),
                                                      "closed_form"))
    with pytest.raises(NonFiniteError, match="cycle 4") as info:
        run_one(prob, isb.NoNoise(), isb.Constant(0.1), isb.RingOrder(prob.m),
                np.array([0.5]), 10, 0, stride=1)
    partial = info.value.partial_traces[0]
    assert list(partial.ks) == [0, 1, 2, 3]
    assert np.all(np.isfinite(partial.f_vals))


def test_squared_distance_drifts_down_across_seeds(quad_m2_line):
    # with square-summable diminishing steps the seed-averaged squared
    # distance to the optimum decays past a short burn-in
    traces = isb.run_batch(quad_m2_line, isb.GaussianNoise(0.01),
                           isb.PowerLaw(1.0, 1.0), isb.RingOrder(quad_m2_line.m),
                           np.array([9.0]), 300, list(range(20)), stride=1)
    dists = np.stack([tr.dists for tr in traces])
    mean_sq = (dists**2).mean(axis=0)
    burn = 30
    slack = 0.02 * mean_sq[burn]
    assert np.all(np.diff(mean_sq[burn:]) <= slack)
    assert mean_sq[-1] <= 0.05 * mean_sq[burn]


def assert_cycles_match_reference(problem, noise, cycles=6, seed=6):
    """Sub-step by sub-step, the engine's iterates are bit for bit those of
    the one-sub-step-at-a-time reference, and so are its recorded f and
    distances."""
    sched, x0 = isb.PowerLaw(1.0, 1.0), np.array([1.0, 1.0])
    log = []
    tr = run_one(logging_problem(problem, log), noise, sched,
                 isb.RingOrder(problem.m), x0, cycles, seed, stride=1)
    stream = make_cyclic_noise_stream(noise, problem, seed)
    state = CyclicState.initial(problem.feasible_set.project_many(x0))
    expected = []
    for k in range(1, cycles + 1):
        state = cyclic_cycle(state, problem, stream, sched)
        expected.extend(state.sub_iterates[:-1])
        assert tr.f_vals[k] == problem.f(state.x)
        assert tr.dists[k] == np.linalg.norm(state.x[None, :] - problem.optimum.witness,
                                             axis=1)[0]
    expected.append(state.x)
    engine = [xs[0] for xs, _ in log] + [np.array(tr.final_x)]
    assert [x.tobytes() for x in engine] == [x.tobytes() for x in expected], \
        (problem.feasible_set, noise)


def test_cycles_match_reference_draw_for_draw():
    for fset, noise in itertools.product(STEP_SETS.values(), STEP_NOISES.values()):
        problem = isb.make_quadratic_suite(5, 2, 1.0, fset, seed=42)
        assert_cycles_match_reference(problem, noise)


@pytest.mark.parametrize("noise", sorted(STEP_NOISES))
def test_steps_never_write_into_a_family_array(noise):
    # the family returns the same cached array on every call, so a write into
    # one would change every later step of that agent
    grads = [np.array([[0.5, -1.0]]), np.array([[-2.0, 0.25]]), np.array([[1.0, 1.0]])]
    kept = [g.copy() for g in grads]
    total = np.sum(grads, axis=0)[0]
    family = CallbackFamily(2, [float(np.linalg.norm(g)) for g in grads],
                            lambda xs: xs @ total, lambda xs, agent: grads[agent])
    corner = np.array([1.0, -1.0])  # minimizes x @ total = -0.5 x_0 + 0.25 x_1
    problem = isb.ProblemInstance(family, isb.Box([-1.0, -1.0], [1.0, 1.0]),
                                  isb.OptimumCertificate(float(corner @ total), corner,
                                                         "closed_form"))
    assert_cycles_match_reference(problem, STEP_NOISES[noise])
    assert all(np.array_equal(g, k) for g, k in zip(grads, kept))


def test_trace_row_count_and_running_inf(quad_m2_line):
    tr = run_one(quad_m2_line, isb.GaussianNoise(0.2), isb.PowerLaw(1.0, 1.0),
                 isb.RingOrder(quad_m2_line.m), np.array([8.0]), 103, 5, stride=10)
    assert list(tr.ks) == list(range(0, 104, 10)) + [103]
    assert np.all(np.diff(tr.running_inf) <= 0)
    assert np.all(tr.running_inf <= tr.f_vals + 1e-15)
