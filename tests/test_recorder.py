"""The recorder against a per-step recomputation from the engines' own iterates.

A logging family records every iterate an engine passes to the subgradient
oracle.  From that log each test recomputes, one step at a time, what the
traces must hold: f, the running and tail minima, witness distances, agents,
visit counts and the final point, and for aborts the message, the abort
step and the finite prefix.  The horizons span several flushes and several
noise blocks.
"""

import functools

import numpy as np
import pytest

import incsub as isb
from helpers import CallbackFamily, trace_state
from reference import subgradients, trace_csv
from incsub import trace
from incsub.streams import init_generator
from incsub.trace import record_indices

SEEDS = [3, 4, 5, 6]
STEPS = 2500
TAIL = 0.3
X0 = np.array([1.0, -1.0])
UNIT = {"markov": "tick", "cyclic": "cycle"}
NAN_AT = 1300  # the step whose subgradient is NaN in the abort cases


def instrumented(problem, log, evaluate=None, subgradient=None):
    """``problem`` with every subgradient call's (xs, agents) appended to log."""
    inner = problem.family
    grad = subgradient or functools.partial(subgradients, inner)

    def logged(xs, agents):
        log.append((xs.copy(), np.array(agents, copy=True)))
        return grad(xs, agents)

    return isb.ProblemInstance(
        CallbackFamily(inner.n, inner.bounds, evaluate or inner.evaluate_many,
                       logged, inner.eval_width),
        problem.feasible_set, problem.optimum, problem.name)


def nan_at_step(problem, engine, at):
    """A subgradient oracle whose result for agent 2 is NaN at step ``at``."""
    fatal = at - 1 if engine == "markov" else (at - 1) * problem.m + 2
    calls = []

    def subgradient(rows, agents_):
        calls.append(None)
        g = subgradients(problem.family, rows, agents_)
        if len(calls) - 1 == fatal:
            g[2] = np.nan
        return g

    return subgradient


@pytest.fixture
def short_flushes(monkeypatch):
    """A flush budget that puts several flushes inside the horizon."""
    monkeypatch.setattr(trace, "_FLUSH_ROWS", 1 << 12)


def flush_length(problem):
    return trace.flush_steps(len(SEEDS), problem.family)


def run(engine, problem, stride, ring5, steps=STEPS):
    noise, sched = isb.GaussianNoise(0.4), isb.Constant(0.05)
    order = (isb.ChainOrder(ring5, isb.EqualProbability()) if engine == "markov"
             else isb.RingOrder(problem.m))
    return isb.run_batch(problem, noise, sched, order, X0, steps, SEEDS,
                         stride=stride, tail_fraction=TAIL)


def iterates(engine, log, traces, m):
    """(steps + 1, R, n) iterates and, for markov, (steps + 1, R) agents."""
    calls = log if engine == "markov" else log[::m]
    xs = np.stack([x for x, _ in calls]
                  + [np.array([tr.final_x for tr in traces])])
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
        assert tr.final_x == xs[-1, r].tolist()
        tail_min = f[tail_start, r]
        for k in range(tail_start + 1, STEPS + 1):
            tail_min = np.minimum(tail_min, f[k, r])
        assert tr.tail_min == tail_min
        assert tr.aborted_at is None
    if engine == "markov":
        assert [tr.visit_counts for tr in traces] == visit_counts(agents, 5)
    else:
        assert all(tr.visit_counts is None for tr in traces)


@pytest.mark.parametrize("engine", ["markov", "cyclic"])
def test_tail_minimum_edges_and_flush_starts(engine, quad_m5_box, ring5,
                                             short_flushes):
    # dips in f at the step before the tail (counted by the running minimum
    # only) and at the first step of a flush inside the tail
    xs, _ = clean_run(engine, quad_m5_box, ring5)
    flush = flush_length(quad_m5_box)
    tail_start = STEPS - int(np.floor(STEPS * TAIL))
    before, at_flush = tail_start - 1, flush * (tail_start // flush + 1)
    assert at_flush >= 3 * flush and tail_start < at_flush <= STEPS
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
        assert tr.tail_min == f[at_flush, r] - dips[at_flush]


def assert_abort(info, engine, at, reason, problem, xs, agents, stride):
    unit = UNIT[engine]
    assert str(info.value) == (f"{unit} {at}: {reason}; "
                               f"last finite state at {unit} {at - 1}")
    partial = info.value.partial_traces
    ks = [k for k in record_indices(STEPS, stride) if k < at]
    assert_rows(partial, problem, xs, agents, ks)
    for r, tr in enumerate(partial):
        assert tr.aborted_at == at
        assert tr.final_x == xs[at - 1, r].tolist()
        assert tr.tail_min is None
    if engine == "markov":  # the failing step's agent is a visit too
        assert ([tr.visit_counts for tr in partial]
                == visit_counts(agents[:at + 1], problem.m))


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("engine", ["markov", "cyclic"])
def test_infinite_objective_inside_a_flush_aborts_there(engine, stride,
                                                        quad_m5_box, ring5,
                                                        short_flushes):
    xs, agents = clean_run(engine, quad_m5_box, ring5)
    flush = flush_length(quad_m5_box)
    at, bad_rep = flush + 100, 1  # in the middle of the second flush
    assert at < 2 * flush and 3 * flush <= STEPS
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
    at = NAN_AT
    subgradient = nan_at_step(quad_m5_box, engine, at)
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
        assert tr.aborted_at == 0
        assert tr.final_x == start.tolist()
        if engine == "markov":
            first = min(int(init_generator(seed).random() * 5), 4)
            assert tr.visit_counts == np.eye(5, dtype=int)[first].tolist()


@pytest.mark.parametrize("engine", ["markov", "cyclic"])
def test_traces_share_read_only_columns(engine, quad_m5_box, ring5, tmp_path):
    # one ks and one alphas for the whole batch, and every column a
    # read-only view, in a completed run and in an aborted run's partial
    # traces; the partial traces' 1,300 rows cross a chunk of CSV text and
    # are written as csv.writer writes them
    subgradient = nan_at_step(quad_m5_box, engine, NAN_AT)
    with pytest.raises(isb.NonFiniteError) as info:
        run(engine, instrumented(quad_m5_box, [], subgradient=subgradient), 1,
            ring5)
    partial = info.value.partial_traces
    assert NAN_AT > trace.CSV_ROWS
    for traces in (run(engine, quad_m5_box, 1, ring5), partial):
        for tr in traces:
            assert np.shares_memory(tr.ks, traces[0].ks)
            assert np.shares_memory(tr.alphas, traces[0].alphas)
            cols = [tr.ks, tr.f_vals, tr.running_inf, tr.alphas, tr.dists]
            if engine == "markov":
                cols.append(tr.agents)
            for col in cols:
                assert not col.flags.writeable
                with pytest.raises(ValueError):
                    col[0] = 0
    for r, tr in enumerate(partial):
        path = tmp_path / f"trace_{r}.csv"
        tr.write_csv(path)
        assert path.read_bytes() == trace_csv(tr).encode()


def outcome(engine, problem, stride, ring5, evaluate=None, subgradient=None):
    """The traces, the abort message or None, and the rows per f call."""
    rows = []
    inner = evaluate or problem.family.evaluate_many

    def counted(xs):
        rows.append(len(xs))
        return inner(xs)

    instr = instrumented(problem, [], evaluate=counted, subgradient=subgradient)
    try:
        return run(engine, instr, stride, ring5), None, rows
    except isb.NonFiniteError as err:
        return err.partial_traces, str(err), rows


@pytest.mark.parametrize("abort", [None, "subgradient", "objective"])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("engine", ["markov", "cyclic"])
def test_traces_do_not_depend_on_the_flush_length(engine, stride, abort,
                                                  quad_m5_box, ring5,
                                                  monkeypatch):
    # 1 step, 7 steps and the family's default per flush; an infinite
    # objective at the first step of a 7-step flush, a NaN subgradient at
    # NAN_AT, both inside a default flush
    inf_at = 7 * 186
    evaluate = None
    if abort == "objective":
        xs, _ = clean_run(engine, quad_m5_box, ring5)
        bad = xs[inf_at, 1]

        def evaluate(rows):
            vals = quad_m5_box.family.evaluate_many(rows)
            return np.where((rows == bad).all(axis=1), np.inf, vals)

    width = len(SEEDS) * quad_m5_box.family.eval_width
    default = trace._FLUSH_ROWS
    last = NAN_AT if abort == "subgradient" else STEPS  # last step flushed
    results = []
    for budget, steps in ((width, 1), (7 * width, 7), (default, default // width)):
        monkeypatch.setattr(trace, "_FLUSH_ROWS", budget)
        subgradient = (nan_at_step(quad_m5_box, engine, NAN_AT)
                       if abort == "subgradient" else None)
        traces, message, rows = outcome(engine, quad_m5_box, stride, ring5,
                                        evaluate, subgradient)
        assert max(rows) == min(steps, last) * len(SEEDS)
        assert (message is None) == (abort is None)
        results.append((message, [trace_state(tr) for tr in traces]))
    assert results[0] == results[1] == results[2]
    if abort is None:
        assert all(tr.tail_min is not None for tr in traces)
    else:
        assert {tr.aborted_at for tr in traces} == {
            inf_at if abort == "objective" else NAN_AT}
