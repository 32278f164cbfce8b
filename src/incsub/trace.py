"""Run traces, their CSV form, and the recorder that fills them.

One trace records per-iteration summaries of a single replication: the
iteration index, the updating agent (randomized order only), the objective
value, distance to the certified witness when one exists, the running
minimum of the objective over *all* iterations so far (not just at
recorded rows), and the step-size that produced the iterate.

The engines only iterate; a :class:`Recorder` observes.  Each step's
iterate batch is pushed to it, and it evaluates f, the minima, distances
and visit counts in flushes over the buffered steps, builds the traces,
and turns a non-finite step into a :class:`NonFiniteError`.

The CSV schema is fixed: header row, RFC-4180 quoting, '.' decimal
separator, floats at 17 significant digits so that values round-trip.
"""

from __future__ import annotations

import bisect
import csv
import io
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonFiniteError
from .version import __version__

COLUMNS = ("k", "agent", "f", "dist_to_witness", "running_inf_f", "alpha")


def fmt_float(x):
    """Round-trip-safe decimal rendering of a float."""
    return format(float(x), ".17g")


@dataclass
class RunTrace:
    """Thinned per-iteration record of one replication."""

    ks: np.ndarray
    f_vals: np.ndarray
    running_inf: np.ndarray
    alphas: np.ndarray            # NaN at k = 0 (no step produced x_0)
    agents: Optional[np.ndarray]  # None for the cyclic engine
    dists: Optional[np.ndarray]   # None when the problem has no witness
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        rows = len(self.ks)
        for name in ("f_vals", "running_inf", "alphas"):
            if len(getattr(self, name)) != rows:
                raise ValueError(f"trace column {name} has wrong length")
        for name in ("agents", "dists"):
            col = getattr(self, name)
            if col is not None and len(col) != rows:
                raise ValueError(f"trace column {name} has wrong length")
        if np.any(np.diff(self.running_inf) > 0):
            raise ValueError("running inf must be non-increasing")

    @property
    def final_gap(self):
        f_star = self.meta.get("f_star")
        return None if f_star is None else float(self.f_vals[-1] - f_star)

    @property
    def inf_gap(self):
        f_star = self.meta.get("f_star")
        return None if f_star is None else float(self.running_inf[-1] - f_star)

    def to_csv(self):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for i, k in enumerate(self.ks):
            agent = "" if self.agents is None else str(int(self.agents[i]))
            dist = "" if self.dists is None else fmt_float(self.dists[i])
            alpha = "" if np.isnan(self.alphas[i]) else fmt_float(self.alphas[i])
            writer.writerow([str(int(k)), agent, fmt_float(self.f_vals[i]),
                             dist, fmt_float(self.running_inf[i]), alpha])
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, text, meta=None):
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if tuple(header) != COLUMNS:
            raise ValueError(f"unexpected trace header {header!r}")
        ks, agents, fs, dists, infs, alphas = [], [], [], [], [], []
        for row in reader:
            ks.append(int(row[0]))
            agents.append(int(row[1]) if row[1] else -1)
            fs.append(float(row[2]))
            dists.append(float(row[3]) if row[3] else np.nan)
            infs.append(float(row[4]))
            alphas.append(float(row[5]) if row[5] else np.nan)
        has_agents = any(a >= 0 for a in agents)
        has_dists = any(not np.isnan(d) for d in dists)
        return cls(np.array(ks), np.array(fs), np.array(infs), np.array(alphas),
                   np.array(agents) if has_agents else None,
                   np.array(dists) if has_dists else None,
                   meta=dict(meta or {}))


def record_indices(horizon, stride):
    """Iteration indices recorded in a trace: 0, stride, ..., plus the end."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    ks = list(range(0, horizon + 1, stride))
    if ks[-1] != horizon:
        ks.append(horizon)
    return ks


# A flush evaluates f on (steps * R) rows with O(rows * m) temporaries, so
# it buffers max(1, _FLUSH_ROWS // (R * m)) steps.
_FLUSH_ROWS = 1 << 14

_UNITS = {"cyclic": "cycle", "markov": "tick"}


class Recorder:
    """Observation side of a batch run of ``len(seeds)`` replications.

    ``x0`` is the run's ``(R, n)`` start batch and ``agents`` the initial
    agents of a markov run (None for the ring order, which has no agent
    column and no visit counts).  The engine steps; after each step it
    pushes the ``(R, n)`` iterate batch with :meth:`push`, and a markov
    engine first reports the step's updating agents with :meth:`visit`.
    The engine's loop runs inside ``with recorder:``; on exit the recorder
    flushes the last steps, and a :class:`NonFiniteError` raised by a step
    (the projection of a non-finite point) becomes the run's abort there.

    A flush evaluates f once over all buffered rows, updates the running
    minimum and the minimum over the tail ``k >= tail_start`` step by step,
    fills the recorded rows (f, running minimum, agent, distance to the
    witness) and counts visits.  The first step whose f is not finite aborts
    the run.  An abort at step k raises :class:`NonFiniteError` with
    ``partial_traces``: the rows recorded before k, ``aborted_at = k``,
    ``final_x`` the iterate of step k - 1, and visit counts that include
    step k's agents.  A non-finite f(x_0) aborts at step 0 with no rows and
    ``final_x = x_0``.
    """

    def __init__(self, engine, problem, schedule, seeds, horizon, x0, *,
                 agents=None, stride=1, tail_fraction=None, config_hash=None):
        self.engine = engine
        self.unit = _UNITS[engine]
        self.problem = problem
        self.schedule = schedule
        self.seeds = list(seeds)
        self.horizon = int(horizon)
        self.stride = int(stride)
        self.config_hash = config_hash
        reps, m = len(self.seeds), problem.m
        self.flush_steps = max(1, _FLUSH_ROWS // (reps * m))
        self.recs = record_indices(self.horizon, self.stride)
        self.rows_f = np.empty((reps, len(self.recs)))
        self.rows_inf = np.empty_like(self.rows_f)
        self.witness = problem.optimum.witness
        self.rows_dist = None if self.witness is None else np.empty_like(self.rows_f)
        self.rows_agent = None if agents is None else np.empty(self.rows_f.shape, dtype=int)
        self.visits = None if agents is None else np.zeros((reps, m), dtype=np.int64)
        self.filled = 0
        self.tail_start = None
        if tail_fraction is not None:
            self.tail_start = self.horizon - int(np.floor(self.horizon * tail_fraction))
        self.run_min = np.full(reps, np.inf)
        self.tail_min = np.full(reps, np.inf)
        self.done = -1        # last step whose f has been evaluated
        self.last_x = x0      # iterate of step `done`, or x0
        self.xs = [x0]        # iterates of steps done + 1, done + 2, ...
        self.agents = [] if agents is None else [agents]  # their agents
        self.abort = None

    def visit(self, agents):
        self.agents.append(agents)

    def push(self, x):
        self.xs.append(x)
        if len(self.xs) >= self.flush_steps:
            self._flush()

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if exc is not None and (exc is self.abort or not isinstance(exc, Exception)):
            return False
        self._flush()  # a buffered step with non-finite f aborts first
        if isinstance(exc, NonFiniteError):
            self._count(len(self.agents))  # the failing step's agents
            raise self._abort(str(exc)) from exc
        return False

    def traces(self):
        """One :class:`RunTrace` per seed for the completed run."""
        return self._traces()

    def _flush(self):
        if not self.xs:
            return
        xs = np.stack(self.xs)
        self.xs = []
        steps, reps, n = xs.shape
        f = self.problem.f_many(xs.reshape(steps * reps, n)).reshape(steps, reps)
        bad = ~np.isfinite(f)
        if bad.any():
            t = int(np.argmax(bad.any(axis=1)))
            r = int(np.argmax(bad[t]))
            self._record(xs[:t], f[:t])
            self._count(1)
            raise self._abort(f"non-finite objective in replication {r} "
                              f"(seed {self.seeds[r]})")
        self._record(xs, f)

    def _record(self, xs, f):
        """Record the next ``len(f)`` steps, whose f is finite."""
        steps = len(f)
        if not steps:
            return
        first = self.done + 1
        run = np.minimum.accumulate(np.vstack([self.run_min, f]), axis=0)[1:]
        self.run_min = run[-1]
        if self.tail_start is not None:
            tail = f[max(self.tail_start - first, 0):]
            self.tail_min = np.minimum.accumulate(
                np.vstack([self.tail_min, tail]), axis=0)[-1]
        stop = bisect.bisect_left(self.recs, first + steps)
        cols = slice(self.filled, stop)
        at = np.array(self.recs[cols], dtype=int) - first
        self.rows_f[:, cols] = f[at].T
        self.rows_inf[:, cols] = run[at].T
        if self.rows_dist is not None:
            kept = xs[at]
            dist = np.linalg.norm(kept.reshape(-1, kept.shape[-1]) - self.witness, axis=1)
            self.rows_dist[:, cols] = dist.reshape(kept.shape[:2]).T
        if self.rows_agent is not None:
            self.rows_agent[:, cols] = np.stack(self.agents[:steps])[at].T
        self._count(steps)
        self.filled = stop
        self.done += steps
        self.last_x = xs[-1]

    def _count(self, steps):
        """Count the visits of the next ``steps`` buffered agent batches."""
        if self.visits is None or not steps:
            return
        reps, m = self.visits.shape
        cells = np.stack(self.agents[:steps]) + m * np.arange(reps)
        self.visits += np.bincount(cells.ravel(), minlength=reps * m).reshape(reps, m)
        del self.agents[:steps]

    def _abort(self, reason):
        """The abort at the first unrecorded step, ending at its predecessor."""
        k = self.done + 1
        if k:
            message = f"{self.unit} {k}: {reason}; last finite state at {self.unit} {k - 1}"
        else:
            message = f"{self.unit} 0: {reason} at the initial point"
        self.abort = NonFiniteError(message)
        self.abort.partial_traces = self._traces(aborted_at=k)
        return self.abort

    def _traces(self, aborted_at=None):
        """Traces of the recorded rows; ``final_x`` is the last recorded step."""
        ks = np.array(self.recs[:self.filled], dtype=int)
        alphas = np.array([np.nan if k == 0 else self.schedule.step(k)
                           for k in self.recs[:self.filled]])
        f_star = self.problem.optimum.f_star

        def row(cols, r):
            return None if cols is None else cols[r, :self.filled].copy()

        traces = []
        for r, seed in enumerate(self.seeds):
            meta = {
                "engine": self.engine,
                "engine_version": __version__,
                "seed": int(seed),
                "horizon": self.horizon,
                "stride": self.stride,
                "m": self.problem.m,
                "n": self.problem.n,
                "problem": self.problem.name,
                "f_star": None if f_star is None else float(f_star),
                "final_x": [float(v) for v in self.last_x[r]],
                "config_hash": self.config_hash,
            }
            if self.visits is not None:
                meta["visit_counts"] = [int(v) for v in self.visits[r]]
            if aborted_at is not None:
                meta["aborted_at"] = int(aborted_at)
            elif self.tail_start is not None:
                meta["tail_start"] = int(self.tail_start)
                meta["tail_min"] = float(self.tail_min[r])
            traces.append(RunTrace(ks.copy(), row(self.rows_f, r),
                                   row(self.rows_inf, r), alphas.copy(),
                                   row(self.rows_agent, r), row(self.rows_dist, r),
                                   meta))
        return traces
