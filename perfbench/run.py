"""End-to-end benchmark of `incsub run`, with an optional traced run.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload ring_quad_m5 --seed 1 --seconds 20 --trace 0

The workload's config is generated from ``--seed`` (see workloads.py) and
run as the user runs it, ``python3 -m incsub.cli run --config ... --jobs 1``
on the checkout's ``src``, one fresh process per run, one process at a
time, with BLAS/OpenMP threads pinned to 1.

``--trace 0`` alternates set-up runs (the same config with horizon 0: no
ticks) and full runs for ``--seconds`` seconds and reports the medians:
``run_s`` (spawn to exit of a full run), ``setup_s``, ``step_us`` =
(run_s - setup_s) / steps, and ``peak_rss_mb`` (the full run's
``ru_maxrss``).  ``--trace 1`` alternates untraced and traced full runs
(tracing.py) and reports the per-layer split of the traced runs.

Every run is checked: exit code 0, a certified (finite) ``f_star``, and
for full runs ``bounds_all_pass`` and per-seed final gaps that match the
naive reference (reference.py) within ``GAP_TOL * (1 + |f*|)``.  Reruns
must also be byte-identical: every full run (traced or not) must give the
same digest of ``summary.json`` and the trace CSVs.  The last line of
stdout is the result, one JSON object.  The line before it is another JSON
object: the machine, the environment the children get, and the digests of
the config and the outputs.  The lines before those say it for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import (REPLICATIONS, WORKLOADS, config_text, make_config,  # noqa: E402
                       steps)

GAP_TOL = 1e-9
REFERENCE_REPS = (0, REPLICATIONS - 1)  # replications re-derived by the reference
MIN_RUNS = 3                # full runs per measurement, even past --seconds
SETUPS_PER_RUN = 2          # set-up runs per full run
DEADLINE_S = 170.0          # whole invocation, child timeouts included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# per-layer metric -> (span or counter it is read from, field); the units
# of all metrics come from BENCHMARK.json
SPAN_METRICS = {
    "problems.f_many.calls": ("problems.f_many", "calls"),
    "problems.f_many.s": ("problems.f_many", "s"),
    "sets.project.calls": ("sets.project", "calls"),
    "sets.project.s": ("sets.project", "s"),
    "markov.engine.self_s": ("markov.engine", "self_s"),
    "objectives.evaluate.calls": ("objectives.evaluate", "calls"),
    "objectives.evaluate.s": ("objectives.evaluate", "s"),
    "objectives.subgrad.calls": ("objectives.subgrad", "calls"),
    "objectives.subgrad.s": ("objectives.subgrad", "s"),
    "problems.subgrad.calls": ("problems.subgrad", "calls"),
    "problems.subgrad.s": ("problems.subgrad", "s"),
    "markov.neighbors.calls": ("markov.neighbors", "calls"),
    "markov.neighbors.s": ("markov.neighbors", "s"),
    "markov.transition.builds": ("markov.transition", "calls"),
    "markov.transition.s": ("markov.transition", "s"),
    "markov.validate.s": ("markov.validate", "s"),
    "cyclic.engine.self_s": ("cyclic.engine", "self_s"),
    "trace.write.s": ("trace.write", "s"),
    "noise.sample_block.calls": ("noise.sample_block", "calls"),
    "noise.sample_block.s": ("noise.sample_block", "s"),
    "streams.chain_block.calls": ("streams.chain_block", "calls"),
    "streams.chain_block.s": ("streams.chain_block", "s"),
    "config.load.s": ("config.load", "s"),
    "problems.build.s": ("problems.build", "s"),
    "analysis.bounds.s": ("analysis.bounds", "s"),
    "analysis.verify.s": ("analysis.verify", "s"),
    "harness.run_experiment.s": ("harness.run_experiment", "s"),
}
DERIVED_METRICS = ("sets.project.active_frac", "markov.transition.builds_per_tick",
                   "trace.rows", "trace.bytes", "trace_overhead_frac",
                   "trace.self_cover_frac")
END_TO_END_METRICS = ("run_s", "setup_s", "step_us", "peak_rss_mb")


def load_units(root):
    """{metric: unit} of both metric lists in BENCHMARK.json, checked against
    the metrics this file computes."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {}
    for key, ours in (("end_to_end", set(END_TO_END_METRICS)),
                      ("per_layer", set(SPAN_METRICS) | set(DERIVED_METRICS))):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if set(listed) != ours:
            raise SystemExit(f"BENCHMARK.json {key} names differ from run.py's: "
                             f"{sorted(set(listed) ^ ours)}")
        units.update(listed)
    return units


@dataclass
class Run:
    """One child process: wall time, peak RSS and the output check's findings."""

    kind: str
    wall_s: float
    rss_mb: float
    problems: list
    layers: tuple = None  # (span table, counters) of a traced run


class Bench:
    def __init__(self, workload, seed, root):
        self.flat = make_config(workload, seed)
        self.steps = steps(self.flat)
        self.work = os.path.join(HERE, "_work", f"{workload}-{seed}-{os.getpid()}")
        self.env = {k: v for k, v in os.environ.items() if k != "INCSUB_OUT"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env.update({var: "1" for var in THREAD_VARS})
        self.deadline = time.perf_counter() + DEADLINE_S
        self.runs = []
        self.digests = {}
        self.reference = [(r, *reference.final_gap(self.flat, self.flat["seed"] + r))
                          for r in REFERENCE_REPS]
        os.makedirs(self.work)
        for name, horizon in (("full.cfg", self.flat["horizon"]), ("setup.cfg", 0)):
            with open(os.path.join(self.work, name), "w") as fh:
                fh.write(config_text(dict(self.flat, horizon=horizon)))

    def _spawn(self, argv, timeout):
        """(wall seconds, peak RSS in MB, exit code) of one child process."""
        with open(os.path.join(self.work, "stdout"), "wb") as out, \
                open(os.path.join(self.work, "stderr"), "wb") as err:
            lock, reaped = threading.Lock(), []
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)

            def kill():
                with lock:
                    if not reaped:
                        proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            with lock:
                reaped.append(True)
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def run(self, kind):
        """Run ``kind`` in {"setup", "full", "traced"} and check its outputs."""
        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        cfg = "setup.cfg" if kind == "setup" else "full.cfg"
        cli = ["run", "--config", cfg, "--jobs", "1"]
        if kind == "traced":
            argv = [sys.executable, os.path.join(HERE, "tracing.py"),
                    "spans.npz"] + cli
        else:
            argv = [sys.executable, "-m", "incsub.cli"] + cli
        timeout = max(1.0, self.deadline - time.perf_counter())
        wall, rss, code = self._spawn(argv, timeout)
        run = Run(kind, wall, rss, [])
        if code != 0:
            run.problems.append(f"exit code {code}")
        else:
            run.problems = self._check(out, full=kind != "setup")
            digest = _digest(out)
            first = self.digests.setdefault("setup" if kind == "setup" else "full",
                                            digest)
            if digest != first:
                run.problems.append("outputs differ from the first run of this config")
            if kind == "traced":
                run.layers = tracing.layer_table(os.path.join(self.work, "spans.npz"))
        if run.problems:
            with open(os.path.join(self.work, "stderr"), errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"FAILED {kind} run: {'; '.join(run.problems)}\n{tail}",
                  file=sys.stderr)
        self.runs.append(run)
        return run

    def _check(self, out, full):
        try:
            with open(os.path.join(out, "summary.json")) as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            return [f"no readable summary.json ({exc})"]
        f_star = summary.get("f_star")
        if not isinstance(f_star, float) or not math.isfinite(f_star):
            return [f"f_star not certified: {f_star!r}"]
        if not full:
            return []
        problems = []
        if summary.get("bounds_all_pass") is not True:
            problems.append(f"bounds_all_pass is {summary.get('bounds_all_pass')!r}")
        tol = GAP_TOL * (1.0 + abs(f_star))
        for r, gap, ref_f_star in self.reference:
            got = summary["per_seed"][r]["final_gap"]
            if not abs(got - gap) <= tol:
                problems.append(f"replication {r}: final gap {got!r}, "
                                f"reference {gap!r} (tolerance {tol:.3g})")
        if not abs(f_star - ref_f_star) <= tol:
            problems.append(f"f_star {f_star!r}, reference {ref_f_star!r}")
        return problems

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _digest(out):
    """sha256 over summary.json and the trace CSVs, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def measure(bench, seconds, kinds):
    """Repeat the run kinds in ``kinds`` for ``seconds`` (at least MIN_RUNS
    rounds); returns {kind: [Run]} of the measured runs."""
    runs = {kind: [] for kind in kinds}
    start = time.perf_counter()
    while True:
        for kind in kinds:
            runs[kind].append(bench.run(kind))
        rounds = len(runs[kinds[-1]])
        now = time.perf_counter()
        next_end = now + (now - start) / rounds
        if (rounds >= MIN_RUNS and next_end > start + seconds) or next_end > bench.deadline:
            return runs


def machine(env):
    """The machine and the environment the children get."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "child_threads": {var: env[var] for var in THREAD_VARS}}


def _median(values):
    return float(statistics.median(values))


def _describe(name, unit, values):
    return (f"{name} = {_median(values):.6g} {unit} (median of {len(values)}; "
            f"min {min(values):.6g}, max {max(values):.6g})")


def end_to_end(bench, seconds):
    runs = measure(bench, seconds, ["setup"] * SETUPS_PER_RUN + ["full"])
    full = [r.wall_s for r in runs["full"]]
    setup = [r.wall_s for r in runs["setup"]]
    run_s, setup_s = _median(full), _median(setup)
    metrics = {"run_s": run_s, "setup_s": setup_s,
               "step_us": (run_s - setup_s) / bench.steps * 1e6,
               "peak_rss_mb": _median([r.rss_mb for r in runs["full"]])}
    print(_describe("run_s", "s", full))
    print(_describe("setup_s", "s", setup))
    print(f"step_us = {metrics['step_us']:.6g} us ({bench.steps} steps)")
    print(_describe("peak_rss_mb", "MB", [r.rss_mb for r in runs["full"]]))
    return metrics


def _layer_values(bench, table, counts, traced_s):
    values = {name: table.get(span, {}).get(field, 0)
              for name, (span, field) in SPAN_METRICS.items()}
    rows = counts.get("sets.project.rows", 0)
    markov = bench.flat["algorithm"] == "markov"
    values.update({
        "sets.project.active_frac":
            counts.get("sets.project.moved", 0) / rows if rows else 0.0,
        "markov.transition.builds_per_tick":
            values["markov.transition.builds"] / bench.steps if markov else 0.0,
        "trace.rows": counts.get("trace.rows", 0),
        "trace.bytes": counts.get("trace.bytes", 0),
        "trace.self_cover_frac": sum(v["self_s"] for v in table.values()) / traced_s,
    })
    return values


def per_layer(bench, seconds):
    runs = measure(bench, seconds, ["full", "traced"])
    traced = [r for r in runs["traced"] if r.layers is not None]
    if not traced:
        return {}
    per_run = [_layer_values(bench, *r.layers, r.wall_s) for r in traced]
    values = {name: _median([v[name] for v in per_run]) for name in per_run[0]}
    # each round's traced run over the untraced run just before it, so that
    # drift in machine speed between rounds cancels
    values["trace_overhead_frac"] = _median(
        [t.wall_s / u.wall_s for u, t in zip(runs["full"], runs["traced"])]) - 1.0

    print(_describe("run_s untraced", "s", [r.wall_s for r in runs["full"]]))
    print(_describe("run_s traced", "s", [r.wall_s for r in traced]))
    table, counts = traced[-1].layers
    print(f"last traced run: {'span':26s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{'':17s}{name:26s} {row['calls']:9d} {row['s']:10.4f} {row['self_s']:10.4f}")
    self_sum = sum(v["self_s"] for v in table.values())
    print(f"{'':17s}{'(startup, exit, dump)':26s} {'':9s} {'':10s} "
          f"{traced[-1].wall_s - self_sum:10.4f}")
    print("counters: " + json.dumps(counts, sort_keys=True))
    name, row = max(((n, r) for n, r in table.items() if not n.startswith("bench.")),
                    key=lambda kv: kv[1]["self_s"])
    print(f"dominant layer: {name} ({row['self_s'] / traced[-1].wall_s:.0%} "
          f"of the traced run_s as self time)")
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "incsub", "cli.py")):
        print("error: run from the root of an incsub checkout "
              "(src/incsub/cli.py not found)", file=sys.stderr)
        return 2
    units = load_units(root)
    bench = Bench(args.workload, args.seed, root)
    config_sha256 = hashlib.sha256(config_text(bench.flat).encode()).hexdigest()
    try:
        print(f"workload {args.workload} seed {args.seed}: "
              f"{WORKLOADS[args.workload][1]}")
        bench.run("setup")  # warm-up: bytecode compiled, files cached
        if args.trace:
            metrics = per_layer(bench, args.seconds)
        else:
            metrics = end_to_end(bench, args.seconds)
    finally:
        bench.close()

    failed = sum(1 for r in bench.runs if r.problems)
    attempted = len(bench.runs)
    print(f"fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} runs failed)")
    # the run's context, one JSON line; the result line's keys are fixed
    print(json.dumps({"machine": machine(bench.env), "config_sha256": config_sha256,
                      "outputs_sha256": bench.digests.get("full"),
                      "setup_sha256": bench.digests.get("setup"),
                      "fail_frac": failed / attempted}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
