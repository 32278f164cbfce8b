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

import numpy as np

from .analysis import (RateConstants, aggregate_verdicts, cyclic_bound,
                       markov_bound, optimal_window, delta_window,
                       rate_constants, simple_delta_bound,
                       verify_bound_empirically)
from .config import (ExperimentConfig, build_noise, build_problem,
                     build_schedule, build_scheme, build_topology,
                     initial_state)
from .cyclic import run_cyclic_batch
from .errors import ConfigError, NonFiniteError
from .markov import run_markov_batch
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


def _run_chunk(flat_config, seeds):
    """Worker entry: rebuild everything from the flat config and run."""
    config = ExperimentConfig.from_flat(flat_config)
    problem = build_problem(config.problem)
    schedule = build_schedule(config.schedule)
    noise = build_noise(config.noise)
    x0, s0 = initial_state(config, problem)
    chash = config.hash()
    if config.algorithm == "cyclic":
        return run_cyclic_batch(problem, noise, schedule, x0, config.horizon,
                                seeds, stride=config.stride,
                                tail_fraction=config.tail_fraction,
                                config_hash=chash)
    topology = build_topology(config.topology, problem.m)
    scheme = build_scheme(config.scheme)
    return run_markov_batch(problem, noise, schedule, topology, scheme, x0,
                            config.horizon, seeds, s0=s0,
                            stride=config.stride,
                            tail_fraction=config.tail_fraction,
                            config_hash=chash)


def _run_all(config, seeds, jobs):
    if jobs <= 1 or len(seeds) <= 1:
        return _run_chunk(config.flat, seeds)
    chunks = np.array_split(np.asarray(seeds), min(jobs, len(seeds)))
    traces = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_run_chunk, config.flat, [int(s) for s in chunk])
                   for chunk in chunks if len(chunk)]
        for fut in futures:  # submission order == replication order
            traces.extend(fut.result())
    return traces


def _effective_rate(topology, scheme, m):
    """Envelope constants; an exactly uniform static chain mixes in one step."""
    if topology.is_static:
        adj = topology.adjacency(0)
        p = scheme.matrix(adj, adj.sum(axis=1))
        if np.allclose(p, 1.0 / m, atol=1e-12):
            return RateConstants.uniform()
    return rate_constants(scheme.uniform_eta(topology), m, topology.window)


def _bound_reports(config, problem, schedule, noise):
    """Analytic gap reports applicable to this configuration."""
    if not isinstance(schedule, Constant):
        return []
    alpha = schedule.alpha
    horizon = max(config.horizon, 1)
    mu = _supremum(noise.mean_bound, horizon)
    nu = _supremum(lambda k: noise.rms_bound(k, problem.n), horizon)
    c_bounds = problem.bounds
    diameter = problem.feasible_set.diameter()
    reports = []
    if config.algorithm == "cyclic":
        diam = diameter if math.isfinite(diameter) else None
        reports.append(cyclic_bound(alpha, c_bounds, mu, nu, diam))
        return reports
    topology = build_topology(config.topology, problem.m)
    scheme = build_scheme(config.scheme)
    rate = _effective_rate(topology, scheme, problem.m)
    c_max = float(c_bounds.max())
    c_sum = float(c_bounds.sum())
    c0 = rate.b * c_sum * diameter
    c_eff = math.sqrt(c_max * (c_max + nu))
    t_star = optimal_window(alpha, c_eff, c0, rate.beta).T
    for label, t in (("T0", 0), ("optimal", t_star),
                     ("delta", delta_window(alpha, rate.beta))):
        report = markov_bound(alpha, c_bounds, mu, nu, diameter, rate, t)
        report.params["label"] = label
        reports.append(report)
    reports.append(simple_delta_bound(alpha, c_bounds, mu, nu, diameter, rate))
    return reports


def _summarize(config, traces, reports):
    f_star = traces[0].meta.get("f_star")
    per_seed = []
    for tr in traces:
        entry = {
            "seed": tr.meta["seed"],
            "final_f": float(tr.f_vals[-1]),
            "inf_f": float(tr.running_inf[-1]),
        }
        if "tail_min" in tr.meta:
            entry["tail_min_f"] = tr.meta["tail_min"]
        if f_star is not None:
            entry["final_gap"] = float(tr.f_vals[-1] - f_star)
            entry["inf_gap"] = float(tr.running_inf[-1] - f_star)
            if "tail_min" in tr.meta:
                entry["tail_min_gap"] = tr.meta["tail_min"] - f_star
        if "visit_counts" in tr.meta:
            entry["visit_counts"] = tr.meta["visit_counts"]
        per_seed.append(entry)

    verify_cfg = config.verify
    slack_rel = float(verify_cfg.get("slack_rel", 0.02))
    slack_abs = float(verify_cfg.get("slack_abs", 0.0))
    min_fraction = float(verify_cfg.get("min_pass_fraction", 1.0))
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
        ok = agg["fraction"] is not None and agg["fraction"] >= min_fraction
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
        "seeds": [tr.meta["seed"] for tr in traces],
        "f_star": f_star,
        "per_seed": per_seed,
        "bounds": bound_rows,
        "verify": {"slack_rel": slack_rel, "slack_abs": slack_abs,
                   "min_pass_fraction": min_fraction},
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
    ``write`` is false.  A non-finite abort still writes whatever traces
    completed, then re-raises.
    """
    problem = build_problem(config.problem)
    schedule = build_schedule(config.schedule)
    noise = build_noise(config.noise)
    seeds = [config.seed + r for r in range(config.replications)]
    try:
        traces = _run_all(config, seeds, jobs)
    except NonFiniteError as exc:
        # best-effort partial outputs, then propagate the abort
        partial = getattr(exc, "partial_traces", None)
        if write and partial:
            os.makedirs(config.out_dir, exist_ok=True)
            for r, tr in enumerate(partial):
                tr.write_csv(os.path.join(config.out_dir, f"trace_{r}.csv"))
        raise
    reports = _bound_reports(config, problem, schedule, noise)
    summary = _summarize(config, traces, reports)
    if write:
        os.makedirs(config.out_dir, exist_ok=True)
        for r, tr in enumerate(traces):
            tr.write_csv(os.path.join(config.out_dir, f"trace_{r}.csv"))
        _atomic_write(os.path.join(config.out_dir, "summary.json"),
                      json.dumps(summary, sort_keys=True, indent=1) + "\n")
    return summary, traces


def validate_only(config):
    """Run every pre-flight check without simulating (CLI verb 'validate')."""
    from .markov import PeriodicTopology, build_transition

    problem = build_problem(config.problem)
    build_schedule(config.schedule)
    build_noise(config.noise)
    initial_state(config, problem)
    if config.algorithm == "markov":
        topology = build_topology(config.topology, problem.m)
        scheme = build_scheme(config.scheme)
        topology.validate()
        if topology.is_static:
            ticks = [0]
        elif isinstance(topology, PeriodicTopology):
            ticks = range(topology.period)
        else:
            ticks = range(min(max(config.horizon, 1), 4 * topology.window))
        for k in ticks:
            build_transition(scheme, topology.adjacency(k))
    return problem


def compare_bounds(config, *, jobs=1, write=True):
    """Analytic-vs-empirical gap table over an (alpha, T) grid.

    The config must describe a markov constant-step run and carry a
    ``compare.alphas`` list; the T columns are 0, the optimal window, the
    delta window, plus any integers in ``compare.Ts``.  One simulation of
    R replications runs per alpha; every T cell of that row shares its
    empirical tail-minimum gap (T is an analysis knob, not a run knob).
    """
    if config.algorithm != "markov":
        raise ConfigError("bound comparison tables are markov-only",
                          field="algorithm")
    grid = config.compare or {}
    alphas = grid.get("alphas")
    if not alphas:
        raise ConfigError("missing compare.alphas list", field="compare.alphas")
    extra_ts = [int(t) for t in grid.get("Ts", [])]

    problem = build_problem(config.problem)
    noise = build_noise(config.noise)
    topology = build_topology(config.topology, problem.m)
    scheme = build_scheme(config.scheme)
    rate = _effective_rate(topology, scheme, problem.m)
    horizon = max(config.horizon, 1)
    mu = _supremum(noise.mean_bound, horizon)
    nu = _supremum(lambda k: noise.rms_bound(k, problem.n), horizon)
    c_bounds = problem.bounds
    c_max = float(c_bounds.max())
    c_sum = float(c_bounds.sum())
    diameter = problem.feasible_set.diameter()
    f_star = problem.optimum.f_star

    rows = []
    for alpha in alphas:
        alpha = float(alpha)
        flat = dict(config.flat)
        flat["schedule.kind"] = "constant"
        flat["schedule.alpha"] = alpha
        flat.pop("schedule.a", None)
        flat.pop("schedule.p", None)
        run_cfg = ExperimentConfig.from_flat(flat)
        traces = _run_all(run_cfg, [config.seed + r
                                    for r in range(config.replications)], jobs)
        tail_gaps = np.array([tr.meta["tail_min"] - f_star for tr in traces])
        inf_gaps = np.array([tr.running_inf[-1] - f_star for tr in traces])
        c0 = rate.b * c_sum * diameter
        c_eff = math.sqrt(c_max * (c_max + nu))
        t_cols = [("T0", 0), ("optimal", optimal_window(alpha, c_eff, c0, rate.beta).T),
                  ("delta", delta_window(alpha, rate.beta))]
        t_cols += [(f"T{t}", t) for t in extra_ts]
        for label, t in t_cols:
            report = markov_bound(alpha, c_bounds, mu, nu, diameter, rate, t)
            rows.append({
                "alpha": alpha, "T_label": label, "T": int(t),
                "analytic_gap": report.gap,
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
