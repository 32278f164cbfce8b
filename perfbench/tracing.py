"""Traced `incsub` run and the per-layer table built from its spans.

Run as a script, this file is the traced child process::

    python3 perfbench/tracing.py SPANS.npz run --config exp.cfg --jobs 1

It wraps the public functions and methods of the ``incsub`` modules in
spans, under the names the callers look them up by (module globals such as
``incsub.harness.run_markov_batch``, and methods on the classes), then runs
``incsub.cli.main`` with the remaining arguments.  No timer is added inside
``incsub``.  Each span keeps (name, parent, start, end) in memory; the
spans and the counters are written to SPANS.npz when the run ends, and
the child exits with the CLI's exit code.

:func:`layer_table` turns a spans file into calls, total time and self
time (span minus its child spans) per span name.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

# (span, module, names): module-level names, patched where callers find them
FUNCTIONS = (
    ("config.load", "cli", ("load_config_file",)),
    ("harness.run_experiment", "cli", ("run_experiment",)),
    ("problems.build", "harness", ("build_problem",)),
    ("markov.engine", "harness", ("run_markov_batch",)),
    ("cyclic.engine", "harness", ("run_cyclic_batch",)),
    ("analysis.bounds", "harness", ("cyclic_bound", "markov_bound",
                                    "simple_delta_bound", "optimal_window",
                                    "delta_window", "rate_constants")),
    ("analysis.verify", "harness", ("verify_bound_empirically",
                                    "aggregate_verdicts")),
    ("markov.transition", "markov", ("build_transition",)),
    ("markov.validate", "markov", ("validate_transition", "_check_symmetric")),
    ("streams.chain_block", "markov", ("chain_uniform_block",)),
)

# (span, module, method): the method on every class of the module defining it
METHODS = (
    ("config.load", "config", "from_flat"),
    ("problems.f_many", "problems", "f_many"),
    ("problems.subgrad", "problems", "subgradient_for_agents"),
    ("objectives.evaluate", "objectives", "evaluate_many"),
    ("objectives.subgrad", "objectives", "subgradient_many"),
    ("sets.project", "sets", "project_many"),
    ("markov.neighbors", "markov", "neighbors"),
    ("markov.validate", "markov", "validate"),
    ("noise.sample_block", "noise", "sample_block"),
    ("trace.write", "trace", "write_csv"),
)

MODULES = ("cli", "config", "harness", "markov", "noise", "objectives",
           "problems", "sets", "trace")


class Tracer:
    """Spans in flat arrays: name id, parent index, start and end time."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counts = {}

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` runs after
        the span closes, inside a ``bench.counters`` span of its own so that
        counting is not charged to the caller's self time."""
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter
        tracer = self
        if after is not None:
            after = self.wrap("bench.counters", after)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            idx = len(starts)
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            tracer.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parent
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def save(self, path):
        import numpy as np

        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 meta=np.array(json.dumps({"names": self.names,
                                           "counts": self.counts})))


def _count_moved_rows(tracer):
    import numpy as np

    def after(args, out):
        x = np.asarray(args[1], dtype=float)
        moved = np.asarray(out) != x
        if x.ndim == 1:
            tracer.count("sets.project.rows", 1)
            tracer.count("sets.project.moved", int(moved.any()))
        else:
            tracer.count("sets.project.rows", x.shape[0])
            tracer.count("sets.project.moved", int(moved.any(axis=1).sum()))
    return after


def _count_trace_output(tracer):
    def after(args, _):
        trace, path = args[0], args[1]
        tracer.count("trace.rows", len(trace.ks))
        tracer.count("trace.bytes", os.path.getsize(path))
    return after


def _import_modules():
    import importlib

    return {m: importlib.import_module(f"incsub.{m}") for m in MODULES}


def install(tracer, modules):
    """Wrap every target that exists; returns the targets that were missing."""
    hooks = {"sets.project": _count_moved_rows(tracer),
             "trace.write": _count_trace_output(tracer)}
    missing = []
    for span, mod, attrs in FUNCTIONS:
        module = modules[mod]
        for attr in attrs:
            if hasattr(module, attr):
                setattr(module, attr,
                        tracer.wrap(span, getattr(module, attr), hooks.get(span)))
            else:
                missing.append(f"{mod}.{attr}")
    for span, mod, meth in METHODS:
        module = modules[mod]
        classes = [c for c in vars(module).values()
                   if isinstance(c, type) and c.__module__ == module.__name__
                   and meth in vars(c)]
        if not classes:
            missing.append(f"{mod}.*.{meth}")
        for cls in classes:
            raw = vars(cls)[meth]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(tracer.wrap(span, raw.__func__, hooks.get(span)))
            else:
                wrapped = tracer.wrap(span, raw, hooks.get(span))
            setattr(cls, meth, wrapped)
    return missing


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    modules = tracer.wrap("bench.import", _import_modules)()
    missing = tracer.wrap("bench.install", install)(tracer, modules)
    if missing:
        print("not traced (missing): " + ", ".join(missing), file=sys.stderr)
    try:
        code = tracer.wrap("cli.main", modules["cli"].main)(cli_args)
    finally:
        tracer.save(spans_path)
    return code


def layer_table(path):
    """{span name: {"calls", "s", "self_s"}} and the counters of a spans file.

    ``s`` sums only the outermost span of each name on a call path, so a
    name that nests inside itself is not counted twice; ``self_s`` is each
    span's duration minus its children's, summed over all spans.
    """
    import numpy as np

    with np.load(path) as data:
        nid, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
        meta = json.loads(str(data["meta"]))
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child
    outer = np.ones(len(dur), dtype=bool)
    anc = parent.copy()
    while (live := anc >= 0).any():
        outer[live] &= nid[anc[live]] != nid[live]
        anc[live] = parent[anc[live]]
    table = {}
    for i, name in enumerate(meta["names"]):
        mine = nid == i
        table[name] = {"calls": int(mine.sum()),
                       "s": float(dur[mine & outer].sum()),
                       "self_s": float(self_time[mine].sum())}
    return table, meta["counts"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
