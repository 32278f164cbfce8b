"""The step loop's block kernel against the one-step references, across a
block boundary, and its aborts inside and at the start of a block.

Each run crosses from block 0 into block 1 (``BLOCK`` steps per block), so
the per-block noise draw and chain walk, the gather of the family's rows
and the recorder's hand-off of a run of slots all start over at least
once.
"""

import functools

import numpy as np
import pytest

import incsub as isb
from helpers import (STEP_FAMILIES, STEP_NOISES, STEP_SETS, CallbackFamily, logging_problem,
                     trace_state)
from incsub.errors import NonFiniteError
from incsub.streams import BLOCK
from reference import (CyclicState, NoiseStream, cyclic_cycle, make_cyclic_noise_stream,
                       sub_step, subgradients)

STEPS = BLOCK + 6
SEEDS = [11, 12]
X0 = np.array([0.5, 0.5])  # outside the ball and the simplex: projected first
UNIT = {"markov": "tick", "cyclic": "cycle"}


@functools.lru_cache(maxsize=None)
def step_problem(family, fset):
    return STEP_FAMILIES[family](STEP_SETS[fset])


def chain(m):
    return isb.ChainOrder(isb.PeriodicTopology(m, [isb.ring_edges(m)], 1),
                          isb.EqualProbability())


def as_bytes(points):
    return [np.asarray(x).tobytes() for x in points]


@pytest.mark.parametrize("fset", sorted(STEP_SETS))
@pytest.mark.parametrize("family", sorted(STEP_FAMILIES))
def test_ticks_match_reference_across_a_block(family, fset):
    # tick by tick and replication by replication, given the agents the
    # engine drew, the engine's iterates, f values and agents are the
    # one-step reference's, bit for bit
    problem = step_problem(family, fset)
    noise, sched, log = STEP_NOISES["gaussian"], isb.PowerLaw(1.0, 1.0), []
    traces = isb.run_batch(logging_problem(problem, log), noise, sched,
                           chain(problem.m), X0, STEPS, SEEDS, stride=1)
    assert len(log) == STEPS
    for r, (seed, tr) in enumerate(zip(SEEDS, traces)):
        stream = NoiseStream(noise, seed, 1, problem.n)
        z = problem.feasible_set.project_many(X0[None, :])
        expected = [z[0]]
        for k, (_, agents) in enumerate(log, start=1):
            z = sub_step(problem, z, int(agents[r]), sched.step(k), stream.draw(k))
            expected.append(z[0])
        engine = [xs[r] for xs, _ in log] + [np.array(tr.final_x)]
        assert as_bytes(engine) == as_bytes(expected)
        assert tr.f_vals.tolist() == [problem.f(x) for x in expected]
        assert tr.agents[1:].tolist() == [int(agents[r]) for _, agents in log]


@pytest.mark.parametrize("fset", sorted(STEP_SETS))
@pytest.mark.parametrize("family", sorted(STEP_FAMILIES))
def test_cycles_match_reference_across_a_block(family, fset):
    # sub-step by sub-step, the engine's hand-off points and cycle ends are
    # those of the one-cycle reference, bit for bit
    problem = step_problem(family, fset)
    noise, sched, log = STEP_NOISES["gaussian"], isb.PowerLaw(1.0, 1.0), []
    m = problem.m
    traces = isb.run_batch(logging_problem(problem, log), noise, sched,
                           isb.RingOrder(m), X0, STEPS, SEEDS, stride=1)
    assert len(log) == STEPS * m
    assert [int(agents) for _, agents in log] == list(range(m)) * STEPS
    for r, (seed, tr) in enumerate(zip(SEEDS, traces)):
        stream = make_cyclic_noise_stream(noise, problem, seed)
        state = CyclicState.initial(problem.feasible_set.project_many(X0))
        expected, ends = [], [state.x]
        for _ in range(STEPS):
            state = cyclic_cycle(state, problem, stream, sched)
            expected.extend(state.sub_iterates[:-1])
            ends.append(state.x)
        expected.append(state.x)
        engine = [xs[r] for xs, _ in log] + [np.array(tr.final_x)]
        assert as_bytes(engine) == as_bytes(expected)
        assert tr.f_vals.tolist() == [problem.f(x) for x in ends]


def failing(problem, engine, at, bad):
    """``problem`` whose subgradient for replication 1 is ``bad`` at step
    ``at`` (the ring order's third sub-step of that cycle)."""
    fatal = at - 1 if engine == "markov" else (at - 1) * problem.m + 2
    calls = []

    def subgradient(xs, agents):
        calls.append(None)
        g = subgradients(problem.family, xs, agents)
        if len(calls) - 1 == fatal:
            g[1] = bad
        return g

    family = problem.family
    return isb.ProblemInstance(
        CallbackFamily(family.n, family.bounds, family.evaluate_many, subgradient,
                       family.eval_width),
        problem.feasible_set, problem.optimum, problem.name)


def run(problem, engine, steps):
    order = chain(problem.m) if engine == "markov" else isb.RingOrder(problem.m)
    return isb.run_batch(problem, isb.GaussianNoise(0.3), isb.Constant(0.05), order,
                         X0, steps, SEEDS, stride=1, tail_fraction=0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("at", [700, BLOCK + 1])  # inside block 0, first of block 1
@pytest.mark.parametrize("fset", sorted(STEP_SETS))
@pytest.mark.parametrize("engine", ["markov", "cyclic"])
def test_nonfinite_step_aborts_at_its_step(engine, fset, at, bad):
    # the point is checked before its projection, so an infinite one never
    # reaches the ball's scaling (inf * 0 would warn, and warnings are
    # errors here); the steps before it are recorded, and the failing
    # step's agent is a visit
    problem = step_problem("quadratic", fset)
    with pytest.raises(NonFiniteError) as info:
        run(failing(problem, engine, at, bad), engine, STEPS)
    unit, name = UNIT[engine], type(problem.feasible_set).__name__
    assert str(info.value) == (f"{unit} {at}: {name}.project: input contains NaN "
                               f"or infinity; last finite state at {unit} {at - 1}")
    before, through = run(problem, engine, at - 1), run(problem, engine, at)
    for tr, clean, visits in zip(info.value.partial_traces, before, through):
        assert tr.aborted_at == at
        assert tr.tail_min is None
        assert trace_state(tr)[0] == trace_state(clean)[0]  # every column
        assert tr.final_x == clean.final_x
        assert tr.visit_counts == visits.visit_counts
