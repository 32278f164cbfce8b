"""The recorder against a per-step recomputation from the engines' own iterates.

A logging family records every iterate an engine passes to the subgradient
oracle.  From that log each test recomputes, one step at a time, what the
traces must hold: f, the running and tail minima, witness distances, agents,
visit counts and the final point, and for aborts the message, the abort
step and the finite prefix.  The horizons span several flushes and several
noise blocks.
"""

import numpy as np
import pytest

import incsub as isb
from helpers import CallbackFamily
from incsub.streams import init_generator
from incsub.trace import record_indices

SEEDS = [3, 4, 5, 6]
STEPS = 2500
TAIL = 0.3
X0 = np.array([1.0, -1.0])
UNIT = {"markov": "tick", "cyclic": "cycle"}


def instrumented(problem, log, evaluate=None, subgradient=None):
    """``problem`` with every subgradient call's (xs, agents) appended to log."""
    inner = problem.family
    grad = subgradient or inner.subgradient_many

    def logged(xs, agents):
        log.append((xs.copy(), np.array(agents, copy=True)))
        return grad(xs, agents)

    return isb.ProblemInstance(
        CallbackFamily(inner.n, inner.bounds, evaluate or inner.evaluate_many,
                       logged),
        problem.feasible_set, problem.optimum, problem.name)


def run(engine, problem, stride, ring5, steps=STEPS):
    noise, sched = isb.GaussianNoise(0.4), isb.Constant(0.05)
    if engine == "markov":
        return isb.run_markov_batch(problem, noise, sched, ring5,
                                    isb.EqualProbability(), X0, steps, SEEDS,
                                    stride=stride, tail_fraction=TAIL)
    return isb.run_cyclic_batch(problem, noise, sched, X0, steps, SEEDS,
                                stride=stride, tail_fraction=TAIL)


def iterates(engine, log, traces, m):
    """(steps + 1, R, n) iterates and, for markov, (steps + 1, R) agents."""
    calls = log if engine == "markov" else log[::m]
    xs = np.stack([x for x, _ in calls]
                  + [np.array([tr.meta["final_x"] for tr in traces])])
    if engine == "cyclic":
        return xs, None
    first = [min(int(init_generator(s).random() * m), m - 1) for s in SEEDS]
    return xs, np.stack([first] + [a for _, a in log])


def clean_run(engine, problem, ring5):
    log = []
    traces = run(engine, instrumented(problem, log), 1, ring5)
    return iterates(engine, log, traces, problem.m)


def per_step(problem, xs):
    """f, running minimum and witness distance of every step, one at a time."""
    f = np.stack([problem.f_many(x) for x in xs])
    running = f.copy()
    for k in range(1, len(f)):
        running[k] = np.minimum(running[k - 1], f[k])
    dist = np.stack([np.linalg.norm(x - problem.optimum.witness, axis=1)
                     for x in xs])
    return f, running, dist


def visit_counts(agents, m):
    return [np.bincount(agents[:, r], minlength=m).tolist()
            for r in range(agents.shape[1])]


def assert_rows(traces, problem, xs, agents, ks):
    f, running, dist = per_step(problem, xs)
    for r, tr in enumerate(traces):
        assert tr.ks.tolist() == ks
        assert np.array_equal(tr.f_vals, f[ks, r])
        assert np.array_equal(tr.running_inf, running[ks, r])
        assert np.array_equal(tr.dists, dist[ks, r])
        if agents is None:
            assert tr.agents is None
        else:
            assert np.array_equal(tr.agents, agents[ks, r])


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("engine", ["markov", "cyclic"])
def test_traces_match_per_step_recomputation(engine, stride, quad_m5_box, ring5):
    log = []
    traces = run(engine, instrumented(quad_m5_box, log), stride, ring5)
    xs, agents = iterates(engine, log, traces, quad_m5_box.m)
    assert len(xs) == STEPS + 1
    ks = record_indices(STEPS, stride)
    assert_rows(traces, quad_m5_box, xs, agents, ks)
    f, _, _ = per_step(quad_m5_box, xs)
    tail_start = STEPS - int(np.floor(STEPS * TAIL))
    for r, tr in enumerate(traces):
        assert tr.meta["final_x"] == xs[-1, r].tolist()
        assert tr.meta["tail_start"] == tail_start
        tail_min = f[tail_start, r]
        for k in range(tail_start + 1, STEPS + 1):
            tail_min = np.minimum(tail_min, f[k, r])
        assert tr.meta["tail_min"] == tail_min
        assert "aborted_at" not in tr.meta
    if engine == "markov":
        assert [tr.meta["visit_counts"] for tr in traces] == visit_counts(agents, 5)
    else:
        assert all("visit_counts" not in tr.meta for tr in traces)


@pytest.mark.parametrize("engine", ["markov", "cyclic"])
def test_tail_minimum_edges_and_flush_starts(engine, quad_m5_box, ring5):
    # dips in f at the step before the tail (counted by the running minimum
    # only) and at the first step of a flush inside the tail
    xs, _ = clean_run(engine, quad_m5_box, ring5)
    flush = 2**14 // (len(SEEDS) * quad_m5_box.m)
    tail_start = STEPS - int(np.floor(STEPS * TAIL))
    before, at_flush = tail_start - 1, 3 * flush
    assert tail_start < at_flush <= STEPS
    dips = {before: 2e3, at_flush: 1e3}

    def evaluate(rows):
        vals = quad_m5_box.family.evaluate_many(rows)
        for k, depth in dips.items():
            vals = np.where((rows[:, None, :] == xs[k]).all(axis=-1).any(axis=1),
                            vals - depth, vals)
        return vals

    traces = run(engine, instrumented(quad_m5_box, [], evaluate=evaluate), 7,
                 ring5)
    f, _, _ = per_step(quad_m5_box, xs)
    for r, tr in enumerate(traces):
        assert tr.running_inf[-1] == f[before, r] - dips[before]
        assert tr.meta["tail_min"] == f[at_flush, r] - dips[at_flush]


def assert_abort(info, engine, at, reason, problem, xs, agents, stride):
    unit = UNIT[engine]
    assert str(info.value) == (f"{unit} {at}: {reason}; "
                               f"last finite state at {unit} {at - 1}")
    partial = info.value.partial_traces
    ks = [k for k in record_indices(STEPS, stride) if k < at]
    assert_rows(partial, problem, xs, agents, ks)
    for r, tr in enumerate(partial):
        assert tr.meta["aborted_at"] == at
        assert tr.meta["final_x"] == xs[at - 1, r].tolist()
        assert "tail_min" not in tr.meta
    if engine == "markov":  # the failing step's agent is a visit too
        assert ([tr.meta["visit_counts"] for tr in partial]
                == visit_counts(agents[:at + 1], problem.m))


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("engine", ["markov", "cyclic"])
def test_infinite_objective_inside_a_flush_aborts_there(engine, stride,
                                                        quad_m5_box, ring5):
    xs, agents = clean_run(engine, quad_m5_box, ring5)
    flush = 2**14 // (len(SEEDS) * quad_m5_box.m)
    at, bad_rep = flush + 100, 1  # in the middle of the second flush
    bad = xs[at, bad_rep]
    assert not (xs[:at] == bad).all(axis=-1).any()

    def evaluate(rows):
        vals = quad_m5_box.family.evaluate_many(rows)
        return np.where((rows == bad).all(axis=1), np.inf, vals)

    with pytest.raises(isb.NonFiniteError) as info:
        run(engine, instrumented(quad_m5_box, [], evaluate=evaluate), stride, ring5)
    assert_abort(info, engine, at,
                 f"non-finite objective in replication {bad_rep} "
                 f"(seed {SEEDS[bad_rep]})", quad_m5_box, xs, agents, stride)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("engine", ["markov", "cyclic"])
def test_nan_subgradient_aborts_at_its_step(engine, stride, quad_m5_box, ring5):
    xs, agents = clean_run(engine, quad_m5_box, ring5)
    at = 1300
    m = quad_m5_box.m
    fatal = at - 1 if engine == "markov" else (at - 1) * m + 2  # agent 2
    calls = []

    def subgradient(rows, agents_):
        calls.append(None)
        g = quad_m5_box.family.subgradient_many(rows, agents_)
        if len(calls) - 1 == fatal:
            g[2] = np.nan
        return g

    with pytest.raises(isb.NonFiniteError) as info:
        run(engine, instrumented(quad_m5_box, [], subgradient=subgradient),
            stride, ring5)
    assert_abort(info, engine, at,
                 "Box.project: input contains NaN or infinity",
                 quad_m5_box, xs, agents, stride)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("engine", ["markov", "cyclic"])
def test_nonfinite_objective_at_the_initial_point(engine, stride, quad_m5_box,
                                                  ring5):
    # the run aborts at step 0: no rows, final_x is x0, the initial agent
    # is the only visit
    start = quad_m5_box.feasible_set.project_many(X0)

    def evaluate(rows):
        vals = quad_m5_box.family.evaluate_many(rows)
        return np.where((rows == start).all(axis=1), np.nan, vals)

    with pytest.raises(isb.NonFiniteError) as info:
        run(engine, instrumented(quad_m5_box, [], evaluate=evaluate), stride,
            ring5, steps=50)
    unit = UNIT[engine]
    assert str(info.value) == (f"{unit} 0: non-finite objective in replication 0 "
                               f"(seed {SEEDS[0]}) at the initial point")
    for seed, tr in zip(SEEDS, info.value.partial_traces):
        assert len(tr.ks) == len(tr.f_vals) == 0
        assert tr.meta["aborted_at"] == 0
        assert tr.meta["final_x"] == start.tolist()
        if engine == "markov":
            first = min(int(init_generator(seed).random() * 5), 4)
            assert tr.meta["visit_counts"] == np.eye(5, dtype=int)[first].tolist()
