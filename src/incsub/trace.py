"""Run traces, their CSV form, and the recorder that fills them.

One trace records per-iteration summaries of a single replication: the
iteration index, the updating agent (randomized order only), the objective
value, distance to the certified witness, the running
minimum of the objective over *all* iterations so far (not just at
recorded rows), and the step-size that produced the iterate.

The engines only iterate; a :class:`Recorder` observes.  The engine
writes the iterates straight into the recorder's buffer and hands them
over a run of steps at a time, and the recorder evaluates f, the minima,
distances and visit counts in flushes over the buffered steps, builds the
traces, and turns a non-finite step into a :class:`NonFiniteError`.

The CSV schema is fixed: header row, RFC-4180 quoting, '.' decimal
separator, floats at 17 significant digits so that values round-trip.
Each row is rendered with one ``%`` format (``%d`` for the iteration and
the agent, ``%.17g`` for the floats; an absent agent or distance column
and a NaN step-size are empty fields); the running minimum and the
step-size are formatted once per run of bit-equal values.  Every field is
a number or empty, so none needs quoting, and the bytes are those the csv
module writes.
Rows are rendered ``CSV_ROWS`` at a time, so writing a trace holds one
chunk of its text, however long the trace.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteError

COLUMNS = ("k", "agent", "f", "dist_to_witness", "running_inf_f", "alpha")
CSV_ROWS = 1 << 10  # rows rendered per chunk of CSV text


def fmt_float(x):
    """Round-trip-safe decimal rendering of a float."""
    return format(float(x), ".17g")


def _runs_formatted(col, nan=None):
    """``%.17g`` of each value of the non-empty float column ``col``, or
    ``nan`` for a NaN when given.  A run of bit-equal values is formatted
    once: the running minimum and the step-size repeat for long stretches."""
    col = np.asarray(col, dtype=float)
    bits = col.view(np.uint64)
    ends = [*((bits[1:] != bits[:-1]).nonzero()[0] + 1).tolist(), len(col)]
    texts, start = [], 0
    for end, v in zip(ends, col[[0, *ends[:-1]]].tolist()):
        texts += [nan if nan is not None and v != v else "%.17g" % v] * (end - start)
        start = end
    return texts


@dataclass
class RunTrace:
    """Thinned per-iteration record of one replication.

    Besides the CSV columns a trace holds the replication's ``seed``, its
    last finite iterate ``final_x``, the agents' ``visit_counts`` (None for
    the ring order), the minimum of f over the tail window ``tail_min``
    (None without a tail window or after an abort) and ``aborted_at``, the
    step at which the run aborted (None unless it did).
    """

    ks: np.ndarray
    f_vals: np.ndarray
    running_inf: np.ndarray
    alphas: np.ndarray            # NaN at k = 0 (no step produced x_0)
    agents: Optional[np.ndarray]  # None for the cyclic engine
    dists: Optional[np.ndarray]   # None when not recorded
    seed: Optional[int] = None
    final_x: Optional[list] = None
    visit_counts: Optional[list] = None
    tail_min: Optional[float] = None
    aborted_at: Optional[int] = None

    def __post_init__(self):
        rows = len(self.ks)
        for name in ("f_vals", "running_inf", "alphas"):
            if len(getattr(self, name)) != rows:
                raise ValueError(f"trace column {name} has wrong length")
        for name in ("agents", "dists"):
            col = getattr(self, name)
            if col is not None and len(col) != rows:
                raise ValueError(f"trace column {name} has wrong length")
        if np.any(self.running_inf[1:] > self.running_inf[:-1]):  # diff can overflow
            raise ValueError("running inf must be non-increasing")

    def _csv_chunks(self):
        """The CSV text: the header, then ``CSV_ROWS`` rows per string."""
        cols = (self.ks, self.agents, self.f_vals, self.dists)
        specs = ("%d", "%d", "%.17g", "%.17g")
        fmt = ",".join("" if col is None else spec for col, spec in zip(cols, specs))
        fmt += ",%s,%s\n"
        cols = [col for col in cols if col is not None]
        yield ",".join(COLUMNS) + "\n"
        for lo in range(0, len(self.ks), CSV_ROWS):
            part = slice(lo, lo + CSV_ROWS)
            rows = zip(*(col[part].tolist() for col in cols),
                       _runs_formatted(self.running_inf[part]),
                       _runs_formatted(self.alphas[part], nan=""))
            yield "".join([fmt % row for row in rows])

    def to_csv(self):
        return "".join(self._csv_chunks())

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.writelines(self._csv_chunks())


def record_indices(horizon, stride):
    """Iteration indices recorded in a trace: 0, stride, ..., plus the end."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    ks = list(range(0, horizon + 1, stride))
    if ks[-1] != horizon:
        ks.append(horizon)
    return ks


# A flush evaluates f on (steps * R) rows, and each row's temporaries are
# as wide as its family's ``eval_width`` (n for the quadratic family, m for
# regression and allocation), so it buffers
# max(1, _FLUSH_ROWS // (R * eval_width)) steps.
_FLUSH_ROWS = 1 << 14


def flush_steps(reps, family):
    """Steps per flush of a run of ``reps`` replications of ``family``."""
    return max(1, _FLUSH_ROWS // (reps * family.eval_width))


_UNITS = {"cyclic": "cycle", "markov": "tick"}


def _read_only(a):
    a.flags.writeable = False
    return a


class Recorder:
    """Observation side of a batch run of ``len(seeds)`` replications.

    ``x0`` is the run's ``(R, n)`` start batch and ``agents`` the initial
    agents of a markov run (None for the ring order, which has no agent
    column and no visit counts).  The recorder holds the run's one iterate
    buffer, ``flush_steps + 1`` steps long.  The engine asks for
    :meth:`slots`, a view of the buffer whose row 0 is the iterate before
    the next steps, projects each step straight into the next row, and
    hands the finished steps over with :meth:`filled`; a markov engine
    first hands over each block's ``(count, R)`` updating agents with
    :meth:`walked`.  The engine's loop runs inside ``with recorder:``; on
    exit the recorder flushes the last steps, and a
    :class:`NonFiniteError` raised by a step (a non-finite point before its
    projection) becomes the run's abort there.  The engine hands over the
    steps finished before such a step first.

    A flush evaluates f once over ``flush_steps`` steps, a view of the
    buffer, updates the running minimum and the minimum over the tail
    ``k >= tail_start`` step by step, fills the recorded rows (f, running
    minimum, agent, distance to the witness) and counts visits.  When the
    buffer is full, the steps not yet flushed and the one before them move
    to its front.  The first step whose f is not finite aborts the run.
    An abort at step k raises :class:`NonFiniteError` with
    ``partial_traces``: the rows recorded before k, ``aborted_at = k``,
    ``final_x`` the iterate of step k - 1, and visit counts that include
    step k's agents.  A non-finite f(x_0) aborts at step 0 with no rows and
    ``final_x = x_0``.  An objective that overflows aborts the same way,
    without a numpy warning.
    """

    def __init__(self, engine, problem, schedule, seeds, horizon, x0, *,
                 agents=None, stride=1, tail_fraction=None):
        self.unit = _UNITS[engine]
        self.problem = problem
        self.schedule = schedule
        self.seeds = list(seeds)
        horizon = int(horizon)
        reps, m = len(self.seeds), problem.m
        self.flush_steps = flush_steps(reps, problem.family)
        self.recs = record_indices(horizon, int(stride))
        self.rows_f = np.empty((reps, len(self.recs)))
        self.rows_inf = np.empty_like(self.rows_f)
        self.witness = problem.optimum.witness
        self.rows_dist = np.empty_like(self.rows_f)
        self.rows_agent = None if agents is None else np.empty(self.rows_f.shape, dtype=int)
        self.visits = None if agents is None else np.zeros((reps, m), dtype=np.int64)
        self.recorded = 0  # trace rows filled
        self.tail_start = None
        if tail_fraction is not None:
            self.tail_start = horizon - int(np.floor(horizon * tail_fraction))
        self.run_min = np.full(reps, np.inf)
        self.tail_min = np.full(reps, np.inf)
        self.done = -1        # last step whose f has been evaluated
        self.last_x = x0      # iterate of step `done`, or x0
        # the iterates of steps done + 1, ... are xs[start:end]; the one
        # before them is xs[start - 1] once start > 0
        self.xs = np.empty((min(self.flush_steps, horizon) + 1,) + x0.shape)
        self.xs[0] = x0
        self.start, self.end = 0, 1
        # the agents of steps done + 1, ... up to the last one handed over
        self.agents = None if agents is None else np.asarray(agents)[None]
        self.abort = None

    def walked(self, agents):
        """Take the ``(count, R)`` agents of the next ``count`` steps."""
        self.agents = np.concatenate([self.agents, agents])

    def slots(self, count):
        """A ``(k + 1, R, n)`` view of the buffer, 1 <= k <= ``count``: row
        0 holds the iterate before the next k steps, which go into rows
        1 to k."""
        if self.end == len(self.xs):
            # move the unevaluated steps and the one before them to the front
            keep = self.end - self.start + 1
            self.xs[:keep] = self.xs[self.start - 1:self.end]
            self.start, self.end = 1, keep
        return self.xs[self.end - 1:self.end + count]

    def filled(self, steps):
        """Take the next ``steps`` steps, written into :meth:`slots`, and
        flush every whole ``flush_steps`` of them."""
        self.end += steps
        while self.end - self.start >= self.flush_steps:
            self._flush(self.start + self.flush_steps)

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if exc is not None and (exc is self.abort or not isinstance(exc, Exception)):
            return False
        self._flush(self.end)  # a buffered step with non-finite f aborts first
        if isinstance(exc, NonFiniteError):
            self._count(1)  # the failing step's agents
            raise self._abort(str(exc)) from exc
        return False

    def traces(self):
        """One :class:`RunTrace` per seed for the completed run."""
        return self._traces()

    def _flush(self, stop):
        """Evaluate the buffered steps up to buffer row ``stop``."""
        if stop == self.start:
            return
        xs = self.xs[self.start:stop]
        self.start = stop
        steps, reps, n = xs.shape
        with np.errstate(over="ignore", invalid="ignore"):  # aborts below
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
        cols = slice(self.recorded, stop)
        at = np.array(self.recs[cols], dtype=int) - first
        self.rows_f[:, cols] = f[at].T
        self.rows_inf[:, cols] = run[at].T
        kept = xs[at]
        dist = np.linalg.norm(kept.reshape(-1, kept.shape[-1]) - self.witness, axis=1)
        self.rows_dist[:, cols] = dist.reshape(kept.shape[:2]).T
        if self.rows_agent is not None:
            self.rows_agent[:, cols] = self.agents[at].T
        self._count(steps)
        self.recorded = stop
        self.done += steps
        self.last_x = xs[-1].copy()  # the buffer is refilled

    def _count(self, steps):
        """Count the visits of the next ``steps`` steps' agents and drop
        them."""
        if self.visits is None or not steps:
            return
        reps, m = self.visits.shape
        cells = self.agents[:steps] + m * np.arange(reps)
        self.visits += np.bincount(cells.ravel(), minlength=reps * m).reshape(reps, m)
        self.agents = self.agents[steps:]

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
        """Traces of the recorded rows; ``final_x`` is the last recorded step.
        Every column is a read-only view: one ``ks`` and one ``alphas`` for
        the batch, and each trace's row of the recorder's columns."""
        ks = _read_only(np.array(self.recs[:self.recorded], dtype=int))
        alphas = _read_only(np.array([np.nan if k == 0 else self.schedule.step(k)
                                      for k in self.recs[:self.recorded]]))
        tail = aborted_at is None and self.tail_start is not None

        def row(cols, r):
            return None if cols is None else _read_only(cols[r, :self.recorded])

        return [RunTrace(ks, row(self.rows_f, r), row(self.rows_inf, r),
                         alphas, row(self.rows_agent, r),
                         row(self.rows_dist, r), seed=int(seed),
                         final_x=[float(v) for v in self.last_x[r]],
                         visit_counts=(None if self.visits is None else
                                       [int(v) for v in self.visits[r]]),
                         tail_min=float(self.tail_min[r]) if tail else None,
                         aborted_at=aborted_at)
                for r, seed in enumerate(self.seeds)]
