"""The one step loop of both methods.

Both methods take the same projected noisy subgradient step and differ
only in which agent computes next, which an order decides: ring order
(:class:`incsub.cyclic.RingOrder`) or Markov chain
(:class:`incsub.markov.ChainOrder`).  An order has ``engine`` (the trace's
engine name), ``width`` (sub-steps per step, the noise draw's agent axis)
and ``start(m, seeds)``: the initial agents, or None when it records none.
An order that records agents has one sub-step per step and draws them with
``block(b, count, seeds, agents)``: block b's agents as one (count, R)
array, and the agents the block ends on.  The ring order records none: its
sub-step j is agent j's, in every cycle.

The loop runs one kernel per block of ``BLOCK`` steps.  It draws the
block's noise and agents once, and takes the block's steps in runs of the
recorder's slots, at most one flush long (see
:class:`incsub.trace.Recorder`).  Per run it gathers the family's rows
(see :mod:`incsub.objectives`) of the run's agents once; the ring's rows
are gathered once per call.  Per sub-step it computes the subgradient
from the rows, adds the noise, scales by the step-size and subtracts, all
into one scratch buffer, checks that the point is finite, and projects it
unchecked into the step's slot (a ring cycle's hand-off points into a
second scratch buffer).

Noise and chain draws are keyed per replication seed on counter-based
streams, and every array operation is row-independent, so each
replication's iterates are bit-identical whether it runs alone, inside a
batch, or split across processes.
"""

from __future__ import annotations

import logging
from itertools import repeat

import numpy as np

from .sets import nonfinite_input
from .streams import BLOCK
from .trace import Recorder

log = logging.getLogger(__name__)


def run_batch(problem, noise, schedule, order, x0, steps, seeds, *, stride=1,
              tail_fraction=None):
    """Run ``len(seeds)`` independent replications for ``steps`` steps.

    A step is one cycle of the ring order or one tick of the chain; its
    step-size is ``schedule.step`` of its 1-based index, shared by all of
    its sub-steps.  Returns one :class:`RunTrace` per seed, recording every
    ``stride``-th step plus the final one, and, when the order has agents,
    the updating agent of each recorded step and each agent's visit count.
    The running minimum of f covers every step regardless of the stride;
    when ``tail_fraction`` is set the minimum over the trailing window
    is each trace's ``tail_min`` (see :class:`incsub.trace.Recorder`).

    The initial point is projected onto the feasible set if it is outside
    (with a logged warning).  The run aborts with a diagnostic if a point
    is non-finite before its projection (the set's own
    :class:`NonFiniteError`) or an objective value is non-finite.
    """
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    fset, family = problem.feasible_set, problem.family
    x0 = np.asarray(x0, dtype=float)
    if not fset.contains(x0):
        log.warning("initial point outside the feasible set; projecting")
        x0 = fset.project_many(x0)
    reps, n = len(seeds), problem.n
    agents = order.start(problem.m, seeds)
    track = agents is not None
    recorder = Recorder(order.engine, problem, schedule, seeds, steps,
                        np.tile(x0, (reps, 1)), agents=agents, stride=stride,
                        tail_fraction=tail_fraction)

    eps = None  # each block's (BLOCK, width, R, n) noise, drawn in place
    if not getattr(noise, "is_zero", False):
        eps = np.empty((BLOCK, order.width, reps, n))
    cycle = None if track else list(zip(*family.gather(np.arange(order.width))))
    subgradient, project = family.subgradient_rows, fset.project_into
    # a sub-step's point before projection, a cycle's hand-off point, and
    # the finiteness of the first
    point, hand_off = np.empty((reps, n)), np.empty((reps, n))
    finite, all_of = np.empty((reps, n), dtype=bool), np.logical_and.reduce
    with recorder:
        for b in range((steps + BLOCK - 1) // BLOCK):
            count = min(BLOCK, steps - b * BLOCK)
            alphas = schedule.steps(b * BLOCK + 1, count).tolist()
            if track:
                plan, agents = order.block(b, count, seeds, agents)
                recorder.walked(plan)  # before the steps, so an abort counts its agents
            if eps is not None:
                for r, s in enumerate(seeds):
                    noise.sample_block(s, b, order.width, n, out=eps[:, :, r])
            first = 0  # the block's steps are taken in runs of the recorder's slots
            while first < count:
                xs = recorder.slots(count - first)
                stop = first + len(xs) - 1
                if track:  # one sub-step per tick, its rows viewed as it comes
                    subs_of = ((rows,) for rows in zip(*family.gather(plan[first:stop])))
                else:
                    subs_of = repeat(cycle)
                for off, (alpha, subs) in enumerate(zip(alphas[first:stop], subs_of)):
                    x, last = xs[off], len(subs) - 1
                    for j, rows in enumerate(subs):
                        g = subgradient(x, *rows)
                        # never in place on g: a family may hand back an
                        # array it still holds
                        if eps is None:
                            np.multiply(g, alpha, out=point)
                        else:
                            np.add(g, eps[first + off, j], out=point)
                            np.multiply(point, alpha, out=point)
                        np.subtract(x, point, out=point)
                        if not all_of(np.isfinite(point, out=finite), axis=None):
                            recorder.filled(off)
                            raise nonfinite_input(f"{type(fset).__name__}.project")
                        x = xs[off + 1] if j == last else hand_off
                        project(point, x)
                recorder.filled(stop - first)
                first = stop
    return recorder.traces()
