"""Experiment driver: seeded replications, bound checks, file outputs.

``run_experiment`` executes R replications with seeds base..base+R-1 and
writes one ``trace_<r>.csv`` per replication plus one ``summary.json``.
For constant-step runs it also computes the matching analytic gap reports
and verifies each replication's best value against them.  All outputs are
byte-deterministic in the config and base seed: no timestamps, sorted JSON
keys, fixed float rendering, and per-replication results independent of
whether they ran serially, batched, or across processes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .analysis import (RateConstants, aggregate_verdicts, cyclic_bound,
                       markov_bound, optimal_window, delta_window,
                       rate_constants, simple_delta_bound,
                       verify_bound_empirically)
from .config import (_number, build_noise, build_problem, build_schedule,
                     build_scheme, build_topology, initial_state)
from .cyclic import RingOrder
from .engine import run_batch
from .errors import ConfigError, NonFiniteError
from .markov import ChainOrder, build_transition, topology_eta
from .schedules import Constant
from .trace import fmt_float
from .version import __version__


_SUP_CHUNK = 1 << 10  # iterations per call of a moment sequence


def _supremum(fn, horizon):
    """sup over 1 <= k <= max(horizon, 1) of a declared moment sequence.

    ``fn`` is called with arrays of consecutive k that cover the horizon;
    the noise models answer with one value per k for a callable sequence
    and with a single number for a constant one, so non-monotone sequences
    get their true sup.
    """
    last = max(horizon, 1)
    return max(float(np.max(fn(np.arange(k, min(k + _SUP_CHUNK, last + 1)))))
               for k in range(1, last + 1, _SUP_CHUNK))


@dataclass(frozen=True)
class Run:
    """A configuration built into its runnable parts, once; ``--jobs``
    workers receive it pickled, with their seeds."""

    config: object
    problem: object
    schedule: object
    noise: object
    order: object
    x0: np.ndarray


def build_run(config):
    """The :class:`Run` of ``config``.  Every builder check runs here, and
    the topology validates itself when it is built, before any tick."""
    problem = build_problem(config.problem)
    schedule = build_schedule(config.schedule)
    noise = build_noise(config.noise)
    x0, s0 = initial_state(config, problem)
    if config.algorithm == "cyclic":
        order = RingOrder(problem.m)
    else:
        order = ChainOrder(build_topology(config.topology, problem.m),
                           build_scheme(config.scheme), s0)
    return Run(config, problem, schedule, noise, order, x0)


def _run_seeds(run, seeds):
    """Worker entry: the traces of ``seeds`` under ``run``."""
    config = run.config
    return run_batch(run.problem, run.noise, run.schedule, run.order, run.x0,
                     config.horizon, seeds, stride=config.stride,
                     tail_fraction=config.tail_fraction)


def _run_all(run, seeds, jobs):
    """The traces of ``seeds`` under ``run``, on up to ``jobs`` processes.
    When a worker aborts, the seeds run again serially, so the abort raised
    and its partial traces are the serial run's."""
    if jobs <= 1 or len(seeds) <= 1:
        return _run_seeds(run, seeds)
    chunks = np.array_split(np.asarray(seeds), min(jobs, len(seeds)))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_run_seeds, run, [int(s) for s in chunk])
                   for chunk in chunks if len(chunk)]
        try:  # submission order == replication order
            return [tr for fut in futures for tr in fut.result()]
        except NonFiniteError:
            pass
    return _run_seeds(run, seeds)


def _effective_rate(order):
    """Envelope constants; an exactly uniform static chain (every entry
    within 1e-12 of 1/m) mixes in one step."""
    topology = order.topology
    if topology.period == 1 and np.allclose(order.matrices[0], 1.0 / topology.m,
                                            rtol=0, atol=1e-12):
        return RateConstants.uniform()
    return rate_constants(topology_eta(order.scheme, topology), topology.m,
                          topology.window)


def _check_finite(terms, field="problem.set",
                  reason="the set is too large for the bounds"):
    """A ConfigError on ``field`` for named bound terms that overflowed."""
    bad = [f"{name} = {v!r}" for name, v in terms if not math.isfinite(v)]
    if bad:
        raise ConfigError(f"{reason}: " + ", ".join(bad), field=field)


def _finite(report, field):
    _check_finite([(f"{report.kind} gap", report.gap)], field,
                  "the bounds overflow at this step size")
    return report


@dataclass(frozen=True)
class BoundInputs:
    """What the analytic bounds read from a configuration, built once: the
    noise suprema ``mu`` and ``nu`` over the horizon, the C_i and the
    diameter; for markov runs also the chain's envelope ``rate`` and the
    window/mixing coefficients ``c0 = b C_sum diameter`` and
    ``c_eff = sqrt(C_max (C_max + nu))``."""

    mu: float
    nu: float
    c_bounds: np.ndarray
    diameter: float
    rate: Optional[RateConstants] = None
    c0: Optional[float] = None
    c_eff: Optional[float] = None

    def windows(self, alpha):
        """The labeled windows T every markov report set covers at ``alpha``."""
        return [("T0", 0),
                ("optimal", optimal_window(alpha, self.c_eff, self.c0,
                                           self.rate.beta).T),
                ("delta", delta_window(alpha, self.rate.beta))]

    def markov_report(self, alpha, T, field):
        return _finite(markov_bound(alpha, self.c_bounds, self.mu, self.nu,
                                    self.diameter, self.rate, T), field)


def bound_inputs(run):
    """The :class:`BoundInputs` of a built run.  Each bound squares
    ``C_max + nu`` (markov) or ``C_sum + m nu`` (cyclic), and the markov
    windows read ``c0``; any of them that overflows is a ConfigError on
    ``problem.set``.  A report gap that overflows after these checks is
    the step size's doing."""
    problem, horizon = run.problem, run.config.horizon
    mu = _supremum(run.noise.mean_bound, horizon)
    nu = _supremum(lambda k: run.noise.rms_bound(k, problem.n), horizon)
    c_bounds = problem.bounds
    with np.errstate(over="ignore"):  # checked below
        c_max, c_sum = float(c_bounds.max()), float(c_bounds.sum())
    diameter = problem.feasible_set.diameter()
    if isinstance(run.order, RingOrder):
        wide = c_sum + problem.m * nu
        _check_finite([("(C_sum + m nu)^2", wide * wide)])
        return BoundInputs(mu, nu, c_bounds, diameter)
    rate = _effective_rate(run.order)
    c0 = rate.b * c_sum * diameter
    _check_finite([("(C_max + nu)^2", (c_max + nu) * (c_max + nu)), ("c0", c0)])
    return BoundInputs(mu, nu, c_bounds, diameter, rate, c0,
                       math.sqrt(c_max * (c_max + nu)))


def bound_reports(run):
    """Analytic gap reports applicable to a built run, made before any
    simulation; a non-constant step has none.  A gap that overflows is a
    ConfigError on ``schedule.alpha``."""
    if not isinstance(run.schedule, Constant):
        return []
    inputs = bound_inputs(run)
    alpha, field = run.schedule.alpha, "schedule.alpha"
    if isinstance(run.order, RingOrder):
        return [_finite(cyclic_bound(alpha, inputs.c_bounds, inputs.mu,
                                     inputs.nu, inputs.diameter), field)]
    reports = []
    for label, t in inputs.windows(alpha):
        report = inputs.markov_report(alpha, t, field)
        report.params["label"] = label
        reports.append(report)
    reports.append(_finite(simple_delta_bound(alpha, inputs.c_bounds, inputs.mu,
                                              inputs.nu, inputs.diameter,
                                              inputs.rate), field))
    return reports


def _summarize(run, traces, reports):
    config, f_star = run.config, run.problem.optimum.f_star
    f_star = None if f_star is None else float(f_star)
    per_seed = []
    for tr in traces:
        entry = {
            "seed": tr.seed,
            "final_f": float(tr.f_vals[-1]),
            "inf_f": float(tr.running_inf[-1]),
        }
        if tr.tail_min is not None:
            entry["tail_min_f"] = tr.tail_min
        if f_star is not None:
            entry["final_gap"] = float(tr.f_vals[-1] - f_star)
            entry["inf_gap"] = float(tr.running_inf[-1] - f_star)
            if tr.tail_min is not None:
                entry["tail_min_gap"] = tr.tail_min - f_star
        if tr.visit_counts is not None:
            entry["visit_counts"] = tr.visit_counts
        per_seed.append(entry)

    verify = config.verify
    slack_rel, slack_abs = verify["slack_rel"], verify["slack_abs"]
    bound_rows = []
    all_pass = True
    for report in reports:
        if f_star is None:
            break
        verdicts = [verify_bound_empirically(tr, report, f_star,
                                             slack_rel=slack_rel,
                                             slack_abs=slack_abs)
                    for tr in traces]
        agg = aggregate_verdicts(verdicts)
        ok = (agg["fraction"] is not None
              and agg["fraction"] >= verify["min_pass_fraction"])
        all_pass = all_pass and ok
        bound_rows.append({"report": report.to_json_dict(),
                           "verdicts": agg, "pass": ok})
    summary = {
        "engine_version": __version__,
        "config": config.flat,
        "config_hash": config.hash(),
        "algorithm": config.algorithm,
        "horizon": config.horizon,
        "replications": config.replications,
        "seeds": [tr.seed for tr in traces],
        "f_star": f_star,
        "per_seed": per_seed,
        "bounds": bound_rows,
        "verify": dict(verify),
        "bounds_all_pass": all_pass if bound_rows else None,
    }
    return summary


def _atomic_write(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def run_experiment(config, *, jobs=1, write=True):
    """Execute a configured experiment; returns (summary, traces).

    Writes per-replication ``trace_<r>.csv`` files and an atomically
    replaced ``summary.json`` under the config's output directory unless
    ``write`` is false.  A non-finite abort still writes the partial trace
    of every replication, then re-raises.
    """
    run = build_run(config)
    reports = bound_reports(run)
    seeds = [config.seed + r for r in range(config.replications)]
    try:
        traces = _run_all(run, seeds, jobs)
    except NonFiniteError as exc:
        # best-effort partial outputs, then propagate the abort
        partial = getattr(exc, "partial_traces", None)
        if write and partial:
            os.makedirs(config.out_dir, exist_ok=True)
            for r, tr in enumerate(partial):  # one per replication, in order
                tr.write_csv(os.path.join(config.out_dir, f"trace_{r}.csv"))
        raise
    summary = _summarize(run, traces, reports)
    if write:
        os.makedirs(config.out_dir, exist_ok=True)
        for r, tr in enumerate(traces):
            tr.write_csv(os.path.join(config.out_dir, f"trace_{r}.csv"))
        _atomic_write(os.path.join(config.out_dir, "summary.json"),
                      json.dumps(summary, sort_keys=True, indent=1) + "\n")
    return summary, traces


def validate_only(config):
    """Run every pre-flight check without simulating (CLI verb 'validate'):
    the build, the bound reports, and, for a topology without a period, the
    transitions of its first ticks."""
    run = build_run(config)
    bound_reports(run)
    order = run.order
    if isinstance(order, ChainOrder) and order.topology.period is None:
        ticks = min(max(config.horizon, 1), 4 * order.topology.window)
        build_transition(order.scheme, order.topology.adjacencies(0, ticks))
    return run.problem


def compare_bounds(config, *, jobs=1, write=True):
    """Analytic-vs-empirical gap table over an (alpha, T) grid.

    The config must describe a markov constant-step run and carry a
    ``compare.alphas`` list; the T columns are 0, the optimal window, the
    delta window, plus the windows in ``compare.Ts`` (nonnegative integers,
    checked before any run).  Every alpha's analytic gaps are computed
    before the first simulation, so a bad alpha fails before any tick.  One
    simulation of R replications runs per alpha; every T cell of that row
    shares its empirical tail-minimum gap (T is an analysis knob, not a run
    knob).
    """
    if config.algorithm != "markov":
        raise ConfigError("bound comparison tables are markov-only",
                          field="algorithm")
    grid = config.compare or {}
    alphas = grid.get("alphas")
    if not alphas:
        raise ConfigError("missing compare.alphas list", field="compare.alphas")
    ts = grid.get("Ts", [])
    if not isinstance(ts, list):
        raise ConfigError(f"expected a list, got {ts!r}", field="compare.Ts")
    extra_ts = [_number({"Ts": t}, "compare", "Ts", kind=int, minimum=0) for t in ts]
    try:
        schedules = [Constant(float(alpha)) for alpha in alphas]
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field="compare.alphas") from None

    run = build_run(config)
    inputs = bound_inputs(run)
    f_star = run.problem.optimum.f_star

    extra_cols = [(f"T{t}", t) for t in extra_ts]
    analytic = [[(label, t, inputs.markov_report(s.alpha, t, "compare.alphas").gap)
                 for label, t in inputs.windows(s.alpha) + extra_cols]
                for s in schedules]  # (label, T, gap) of each row, before any run

    seeds = [config.seed + r for r in range(config.replications)]
    rows = []
    for schedule, gaps in zip(schedules, analytic):
        traces = _run_all(replace(run, schedule=schedule), seeds, jobs)
        tail_gaps = np.array([tr.tail_min - f_star for tr in traces])
        inf_gaps = np.array([tr.running_inf[-1] - f_star for tr in traces])
        for label, t, gap in gaps:
            rows.append({
                "alpha": schedule.alpha, "T_label": label, "T": int(t),
                "analytic_gap": gap,
                "empirical_tail_gap_median": float(np.median(tail_gaps)),
                "empirical_tail_gap_max": float(np.max(tail_gaps)),
                "empirical_inf_gap_max": float(np.max(inf_gaps)),
            })

    if write:
        os.makedirs(config.out_dir, exist_ok=True)
        path = os.path.join(config.out_dir, "bounds.csv")
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\n")
        header = ["alpha", "T_label", "T", "analytic_gap",
                  "empirical_tail_gap_median", "empirical_tail_gap_max",
                  "empirical_inf_gap_max"]
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_float(row["alpha"]), row["T_label"], row["T"],
                             fmt_float(row["analytic_gap"]),
                             fmt_float(row["empirical_tail_gap_median"]),
                             fmt_float(row["empirical_tail_gap_max"]),
                             fmt_float(row["empirical_inf_gap_max"])])
        _atomic_write(path, buf.getvalue())
    return rows
