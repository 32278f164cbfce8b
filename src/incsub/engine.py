"""The one step loop of both methods.

Both methods take the same projected noisy subgradient step and differ
only in which agent computes next, which an order decides: ring order
(:class:`incsub.cyclic.RingOrder`) or Markov chain
(:class:`incsub.markov.ChainOrder`).  An order has ``engine`` (the trace's
engine name), ``width`` (sub-steps per step, the noise draw's agent axis),
``start(m, seeds)`` (the initial agents, or None when it records none) and
``block(b, count, seeds, agents)``: block b's agents and the agents the
block ends on.  An order that records agents has one sub-step per step and
gives them as one (count, R) array; the ring order gives one tuple of
sub-step agents per step.

Noise and chain draws are keyed per replication seed on counter-based
streams, and every array operation is row-independent, so each
replication's iterates are bit-identical whether it runs alone, inside a
batch, or split across processes.
"""

from __future__ import annotations

import logging

import numpy as np

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
    (with a logged warning); the run aborts with a diagnostic if an iterate
    or its objective value ever goes non-finite.
    """
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    fset = problem.feasible_set
    x0 = np.asarray(x0, dtype=float)
    if not fset.contains(x0):
        log.warning("initial point outside the feasible set; projecting")
        x0 = fset.project_many(x0)
    x_batch = np.tile(x0, (len(seeds), 1))
    agents = order.start(problem.m, seeds)
    track = agents is not None
    recorder = Recorder(order.engine, problem, schedule, seeds, steps, x_batch,
                        agents=agents, stride=stride, tail_fraction=tail_fraction)

    eps = None  # each block's (BLOCK, width, R, n) noise, drawn in place
    if not getattr(noise, "is_zero", False):
        eps = np.empty((BLOCK, order.width, len(seeds), problem.n))
    subgradient, project = problem.subgradient_for_agents, fset.project_many
    push = recorder.push
    with recorder:
        for b in range((steps + BLOCK - 1) // BLOCK):
            count = min(BLOCK, steps - b * BLOCK)
            alphas = schedule.steps(b * BLOCK + 1, count).tolist()
            plan, agents = order.block(b, count, seeds, agents)
            if track:  # before the steps, so an abort counts its agents
                recorder.walked(plan)
                plan = [(tick,) for tick in plan]  # one sub-step per tick
            if eps is not None:
                for r, s in enumerate(seeds):
                    noise.sample_block(s, b, order.width, problem.n, out=eps[:, :, r])
            for off, alpha in enumerate(alphas):
                for j, agent in enumerate(plan[off]):
                    g = subgradient(x_batch, agent)
                    # in place only on arrays allocated here: a family may
                    # hand back an array it still holds
                    if eps is None:
                        step = alpha * g
                    else:
                        step = g + eps[off, j]
                        step *= alpha
                    x_batch = project(np.subtract(x_batch, step, out=step))
                push(x_batch)
    return recorder.traces()
