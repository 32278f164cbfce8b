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
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .noise import NoiseStream
from .streams import BLOCK
from .trace import RunTrace, record_indices
from .version import __version__

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CyclicState:
    """State at the end of cycle k.

    ``sub_iterates`` holds the m+1 hand-off points of the most recent
    cycle: row 0 is x_{k-1} (the cycle's entry point) and row m is x_k.
    Older cycles are not retained.
    """

    k: int
    x: np.ndarray
    sub_iterates: np.ndarray

    @classmethod
    def initial(cls, x0):
        x0 = np.asarray(x0, dtype=float)
        return cls(0, x0, np.tile(x0, (1, 1)))


def cyclic_cycle(state, problem, noise_stream, schedule):
    """Advance one full cycle: m projected sub-steps in ring order.

    ``noise_stream`` must be a :class:`incsub.noise.NoiseStream` over m
    agent lanes; the error added at sub-step i of cycle k+1 is the stream's
    (k+1, i) draw, matching the batch runner draw-for-draw.
    """
    it = state.k + 1
    alpha = schedule.step(it)
    fset = problem.feasible_set
    z = state.x[None, :].copy()
    subs = [z[0].copy()]
    skip_noise = getattr(noise_stream.model, "is_zero", False)
    for i in range(problem.m):
        g = problem.subgradient_for_agents(z, i)
        if not skip_noise:
            g = g + noise_stream.draw(it, i)[None, :]
        z = fset.project_many(z - alpha * g)
        subs.append(z[0].copy())
    if not np.isfinite(z).all():
        raise NonFiniteError(f"non-finite iterate during cycle {it}")
    return CyclicState(it, z[0], np.stack(subs))


def run_cyclic(problem, noise, schedule, x0, cycles, seed, *, stride=1,
               tail_fraction=None, config_hash=None,
               record_subiterates=False):
    """Run one replication; see :func:`run_cyclic_batch`."""
    return run_cyclic_batch(problem, noise, schedule, x0, cycles, [seed],
                            stride=stride, tail_fraction=tail_fraction,
                            config_hash=config_hash,
                            record_subiterates=record_subiterates)[0]


def run_cyclic_batch(problem, noise, schedule, x0, cycles, seeds, *, stride=1,
                     tail_fraction=None, config_hash=None,
                     record_subiterates=False):
    """Run ``len(seeds)`` independent replications for ``cycles`` cycles.

    Returns one :class:`RunTrace` per seed, recording every ``stride``-th
    cycle plus the final one.  The running minimum of f is tracked at every
    cycle regardless of the stride; when ``tail_fraction`` is set the
    minimum over the trailing window is tracked as well and lands in the
    trace metadata.

    The initial point is projected onto the feasible set if it is outside
    (with a logged warning); the run aborts with a diagnostic if an iterate
    ever goes non-finite.

    ``record_subiterates`` additionally stores the m+1 hand-off points of
    every *recorded* cycle in trace metadata (use stride=1 for a full
    dump); memory stays O(m * n) per cycle otherwise.
    """
    if cycles < 0:
        raise ValueError(f"cycle count must be >= 0, got {cycles}")
    m, n = problem.m, problem.n
    fset = problem.feasible_set
    reps = len(seeds)

    x0 = np.asarray(x0, dtype=float)
    if not fset.contains(x0):
        log.warning("initial point outside the feasible set; projecting")
        x0 = fset.project_many(x0)
    x_batch = np.tile(x0, (reps, 1))

    recs = record_indices(cycles, stride)
    rec_positions = {k: j for j, k in enumerate(recs)}
    nrows = len(recs)
    row_f = np.empty((reps, nrows))
    row_inf = np.empty((reps, nrows))
    row_dist = None
    witness = problem.optimum.witness
    if witness is not None:
        row_dist = np.empty((reps, nrows))

    fv = problem.f_many(x_batch)
    run_min = fv.copy()
    tail_start = None
    tail_min = None
    if tail_fraction is not None:
        tail_start = cycles - int(np.floor(cycles * tail_fraction))
        tail_min = np.full(reps, np.inf)
        if tail_start == 0:
            tail_min = fv.copy()

    filled = 0

    def record(k, j):
        nonlocal filled
        row_f[:, j] = fv
        row_inf[:, j] = run_min
        if row_dist is not None:
            row_dist[:, j] = np.linalg.norm(x_batch - witness, axis=1)
        filled = j + 1

    record(0, 0)

    f_star = problem.optimum.f_star
    sub_dumps = {}  # recorded k -> (m+1, reps, n) hand-off points

    def build_traces(final_x, aborted_at=None):
        used = recs[:filled]
        alphas_col = np.array(
            [np.nan if k == 0 else schedule.step(k) for k in used])
        traces = []
        for r, seed in enumerate(seeds):
            meta = {
                "engine": "cyclic",
                "engine_version": __version__,
                "seed": int(seed),
                "horizon": int(cycles),
                "stride": int(stride),
                "m": m,
                "n": n,
                "problem": problem.name,
                "f_star": None if f_star is None else float(f_star),
                "final_x": [float(v) for v in final_x[r]],
                "config_hash": config_hash,
            }
            if aborted_at is not None:
                meta["aborted_at"] = int(aborted_at)
            if tail_start is not None and aborted_at is None:
                meta["tail_start"] = int(tail_start)
                meta["tail_min"] = float(tail_min[r])
            if record_subiterates:
                meta["sub_iterates"] = {k: z[:, r, :].copy()
                                        for k, z in sub_dumps.items()}
            traces.append(RunTrace(
                np.array(used), row_f[r, :filled].copy(),
                row_inf[r, :filled].copy(), alphas_col.copy(), None,
                None if row_dist is None else row_dist[r, :filled].copy(),
                meta))
        return traces

    skip_noise = getattr(noise, "is_zero", False)
    nblocks = (cycles + BLOCK - 1) // BLOCK
    for b in range(nblocks):
        start_it = b * BLOCK + 1
        count = min(BLOCK, cycles - b * BLOCK)
        alphas = schedule.steps(start_it, count)
        eps = None
        if not skip_noise:
            eps = np.stack([noise.sample_block(s, b, m, n) for s in seeds])
        for off in range(count):
            alpha = alphas[off]
            it = start_it + off
            x_prev = x_batch  # retained as the last finite state on abort
            dump = record_subiterates and it in rec_positions
            if dump:
                handoffs = [x_batch.copy()]
            try:
                for i in range(m):
                    g = problem.subgradient_for_agents(x_batch, i)
                    if eps is not None:
                        g = g + eps[:, off, i, :]
                    x_batch = fset.project_many(x_batch - alpha * g)
                    if dump:
                        handoffs.append(x_batch.copy())
                fv = problem.f_many(x_batch)
                if not np.isfinite(fv).all():
                    bad = int(np.flatnonzero(~np.isfinite(fv))[0])
                    raise NonFiniteError(
                        f"non-finite objective in replication {bad} "
                        f"(seed {seeds[bad]})")
            except NonFiniteError as exc:
                wrapped = NonFiniteError(
                    f"cycle {it}: {exc}; last finite state at cycle {it - 1}")
                wrapped.partial_traces = build_traces(x_prev, aborted_at=it)
                raise wrapped from exc
            np.minimum(run_min, fv, out=run_min)
            if tail_start is not None and it >= tail_start:
                np.minimum(tail_min, fv, out=tail_min)
            j = rec_positions.get(it)
            if j is not None:
                record(it, j)
                if dump:
                    sub_dumps[it] = np.stack(handoffs)

    return build_traces(x_batch)


def make_cyclic_noise_stream(noise, problem, seed):
    """Stream matching the batch runner's draws for one replication."""
    return NoiseStream(noise, seed, problem.m, problem.n)
