"""Ring-order incremental engine.

One cycle visits agents 0..m-1 in fixed order; agent i applies a projected
step along a noisy subgradient of its own component, evaluated at the
previous agent's hand-off point.  The step-size is indexed by the cycle:
all m sub-steps of cycle k+1 share alpha_{k+1}.

The batch runner advances R replications in lockstep on (R, n) arrays.
Noise is keyed per replication seed on a counter-based stream, and every
array operation is row-independent, so each replication's iterates are
bit-identical whether it runs alone, inside a batch, or split across
processes.
"""

from __future__ import annotations

import logging

import numpy as np

from .streams import BLOCK
from .trace import Recorder

log = logging.getLogger(__name__)


def run_cyclic(problem, noise, schedule, x0, cycles, seed, *, stride=1,
               tail_fraction=None, config_hash=None):
    """Run one replication; see :func:`run_cyclic_batch`."""
    return run_cyclic_batch(problem, noise, schedule, x0, cycles, [seed],
                            stride=stride, tail_fraction=tail_fraction,
                            config_hash=config_hash)[0]


def run_cyclic_batch(problem, noise, schedule, x0, cycles, seeds, *, stride=1,
                     tail_fraction=None, config_hash=None):
    """Run ``len(seeds)`` independent replications for ``cycles`` cycles.

    Returns one :class:`RunTrace` per seed, recording every ``stride``-th
    cycle plus the final one.  The running minimum of f covers every cycle
    regardless of the stride; when ``tail_fraction`` is set the minimum over
    the trailing window lands in the trace metadata as well (see
    :class:`incsub.trace.Recorder`).

    The initial point is projected onto the feasible set if it is outside
    (with a logged warning); the run aborts with a diagnostic if an iterate
    or its objective value ever goes non-finite.
    """
    if cycles < 0:
        raise ValueError(f"cycle count must be >= 0, got {cycles}")
    m, n = problem.m, problem.n
    fset = problem.feasible_set

    x0 = np.asarray(x0, dtype=float)
    if not fset.contains(x0):
        log.warning("initial point outside the feasible set; projecting")
        x0 = fset.project_many(x0)
    x_batch = np.tile(x0, (len(seeds), 1))
    recorder = Recorder("cyclic", problem, schedule, seeds, cycles, x_batch,
                        stride=stride, tail_fraction=tail_fraction,
                        config_hash=config_hash)

    skip_noise = getattr(noise, "is_zero", False)
    with recorder:
        for b in range((cycles + BLOCK - 1) // BLOCK):
            count = min(BLOCK, cycles - b * BLOCK)
            alphas = schedule.steps(b * BLOCK + 1, count)
            eps = None
            if not skip_noise:
                eps = np.stack([noise.sample_block(s, b, m, n) for s in seeds])
            for off in range(count):
                for i in range(m):
                    g = problem.subgradient_for_agents(x_batch, i)
                    if eps is not None:
                        g = g + eps[:, off, i, :]
                    x_batch = fset.project_many(x_batch - alphas[off] * g)
                recorder.push(x_batch)
    return recorder.traces()
