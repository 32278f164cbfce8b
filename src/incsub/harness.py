"""Experiment driver: seeded replications, bound checks, file outputs.

``run_experiment`` executes R replications with seeds base..base+R-1 and
writes one ``trace_<r>.csv`` per replication plus one ``summary.json``.
For constant-step runs it also computes the matching analytic gap reports
and verifies each replication's best value against them.  All outputs are
byte-deterministic in the config and base seed: no timestamps, sorted JSON
keys, fixed float rendering, and per-replication results independent of
whether they ran serially, batched, or across processes.
``compare_bounds`` is a loop of such experiments, one per step size.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from dataclasses import replace

import numpy as np

from .analysis import BoundInputs, RateConstants, rate_constants
from .engine import run_batch
from .errors import ConfigError, NonFiniteError
from .markov import _CHUNK_ENTRIES, build_transition, topology_eta
from .schedules import Constant
from .trace import fmt_float
from .version import __version__


_SUP_CHUNK = 1 << 10  # iterations per call of a moment sequence


def _supremum(fn, horizon):
    """sup over 1 <= k <= max(horizon, 1) of a declared moment sequence.

    ``fn`` is called with arrays of consecutive k that cover the horizon;
    the noise models answer with one value per k for a callable sequence,
    so non-monotone sequences get their true sup, and with a single number,
    the sup itself, for a constant one.
    """
    last = max(horizon, 1)
    values = (fn(np.arange(k, min(k + _SUP_CHUNK, last + 1)))
              for k in range(1, last + 1, _SUP_CHUNK))
    first = next(values)
    if np.ndim(first) == 0:
        return float(first)
    return max(float(np.max(v)) for v in itertools.chain([first], values))


def _run_seeds(config, seeds):
    """Worker entry: the traces of ``seeds`` under ``config``."""
    return run_batch(config.problem, config.noise, config.schedule, config.order,
                     config.x0, config.horizon, seeds, stride=config.stride,
                     tail_fraction=config.tail_fraction)


def _run_all(config, seeds, jobs):
    """The traces of ``seeds`` under ``config``, on up to ``jobs`` processes.
    When a worker aborts, the seeds run again serially, so the abort raised
    and its partial traces are the serial run's."""
    if jobs <= 1 or len(seeds) <= 1:
        return _run_seeds(config, seeds)
    from concurrent.futures import ProcessPoolExecutor  # here: it loads multiprocessing

    # split by position: an array of seeds straddling 2^63 would be float64
    n = min(jobs, len(seeds))
    chunks = [seeds[len(seeds) * i // n:len(seeds) * (i + 1) // n] for i in range(n)]
    # a forked pool starts all its workers at the first submit
    with ProcessPoolExecutor(max_workers=n) as pool:
        futures = [pool.submit(_run_seeds, config, chunk) for chunk in chunks]
        try:  # submission order == replication order
            return [tr for fut in futures for tr in fut.result()]
        except NonFiniteError:
            pass
    return _run_seeds(config, seeds)


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


def bound_inputs(config):
    """The :class:`BoundInputs` of a config, with the noise suprema over
    the horizon.  Each bound squares ``C_max + nu`` (markov) or ``C_sum +
    m nu`` (cyclic), and the markov windows read ``c0``; any of them that
    overflows is a ConfigError on ``problem.set``.  A report gap that
    overflows after these checks is the step size's doing."""
    problem, noise, horizon = config.problem, config.noise, config.horizon
    mu = _supremum(noise.mean_bound, horizon)
    nu = _supremum(lambda k: noise.rms_bound(k, problem.n), horizon)
    ring = config.algorithm == "cyclic"
    inputs = BoundInputs(problem.bounds, mu, nu, problem.feasible_set.diameter(),
                         None if ring else _effective_rate(config.order))
    if ring:
        wide = inputs.c_sum + inputs.m * nu
        _check_finite([("(C_sum + m nu)^2", wide * wide)])
    else:
        narrow = inputs.c_max + nu
        _check_finite([("(C_max + nu)^2", narrow * narrow), ("c0", inputs.c0)])
    return inputs


def bound_reports(config, field="schedule.alpha"):
    """Analytic gap reports applicable to a config, made before any
    simulation; a non-constant step has none.  A gap that overflows is a
    ConfigError on ``field``, the step's entry, naming the first such
    report."""
    if not isinstance(config.schedule, Constant):
        return []
    reports = []
    for report in bound_inputs(config).reports(config.schedule.alpha):
        _check_finite([(f"{report.kind} gap", report.gap)], field,
                      "the bounds overflow at this step size")
        reports.append(report)
    return reports


def _summarize(config, traces, reports):
    f_star = float(config.problem.optimum.f_star)
    per_seed = []
    for tr in traces:
        entry = {
            "seed": tr.seed,
            "final_f": float(tr.f_vals[-1]),
            "inf_f": float(tr.running_inf[-1]),
            "final_gap": float(tr.f_vals[-1] - f_star),
            "inf_gap": float(tr.running_inf[-1] - f_star),
        }
        if tr.tail_min is not None:
            entry["tail_min_f"] = tr.tail_min
            entry["tail_min_gap"] = tr.tail_min - f_star
        if tr.visit_counts is not None:
            entry["visit_counts"] = tr.visit_counts
        per_seed.append(entry)

    verify = config.verify
    inf_f = [tr.running_inf[-1] for tr in traces]
    bound_rows = []
    all_pass = True
    for report in reports:
        agg = report.verdicts(inf_f, f_star, verify["slack_rel"],
                              verify["slack_abs"])
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
    reports = bound_reports(config)
    seeds = [config.seed + r for r in range(config.replications)]
    try:
        traces = _run_all(config, seeds, jobs)
    except NonFiniteError as exc:
        # best-effort partial outputs, then propagate the abort
        partial = getattr(exc, "partial_traces", None)
        if write and partial:
            os.makedirs(config.out_dir, exist_ok=True)
            for r, tr in enumerate(partial):  # one per replication, in order
                tr.write_csv(os.path.join(config.out_dir, f"trace_{r}.csv"))
        raise
    summary = _summarize(config, traces, reports)
    if write:
        os.makedirs(config.out_dir, exist_ok=True)
        for r, tr in enumerate(traces):
            tr.write_csv(os.path.join(config.out_dir, f"trace_{r}.csv"))
        _atomic_write(os.path.join(config.out_dir, "summary.json"),
                      json.dumps(summary, sort_keys=True, indent=1) + "\n")
    return summary, traces


def validate_only(config):
    """The pre-flight checks that loading the config leaves (CLI verb
    'validate'), without simulating: the bound reports and, for a topology
    without a period, the transitions of its first ticks, in order and in
    the chain order's chunks of ``max(1, 2**16 // m**2)`` ticks."""
    bound_reports(config)
    order = config.order
    if config.algorithm == "markov" and order.topology.period is None:
        topology = order.topology
        ticks = min(max(config.horizon, 1), 4 * topology.window)
        chunk = max(1, _CHUNK_ENTRIES // topology.m**2)
        for lo in range(0, ticks, chunk):
            build_transition(order.scheme,
                             topology.adjacencies(lo, min(chunk, ticks - lo)))


def _cell(config, i, alpha):
    """Cell ``i`` of a compare: ``config`` at the constant step ``alpha``,
    writing under ``<out>/alpha_<i>``.  Its flat is the base flat with the
    schedule replaced, so ``incsub run`` on that flat writes the same files;
    the built problem and order are shared, not rebuilt."""
    out = os.path.join(config.out_dir, f"alpha_{i}")
    flat = {k: v for k, v in config.flat.items() if k.split(".")[0] != "schedule"}
    flat.update({"schedule.kind": "constant", "schedule.alpha": alpha, "out": out})
    return replace(config, schedule=Constant(alpha), out_dir=out, flat=flat)


def compare_bounds(config, *, jobs=1, write=True):
    """The step-size study (CLI verb 'compare'): one ordinary run per
    ``compare.alphas[i]``, its cell (see :func:`_cell`), then a
    ``bounds.csv`` index with one row per bound report of each cell's
    summary, in cell order, every value read from the summary.  Every
    cell's reports are made before the first cell runs, so a bad alpha
    fails before any tick.  Returns the rows."""
    if not config.compare_alphas:
        raise ConfigError("missing compare.alphas list", field="compare.alphas")
    cells = [_cell(config, i, alpha) for i, alpha in enumerate(config.compare_alphas)]
    for cell in cells:
        bound_reports(cell, field="compare.alphas")

    rows = []
    for cell in cells:
        summary, _ = run_experiment(cell, jobs=jobs, write=write)
        tail = [seed["tail_min_gap"] for seed in summary["per_seed"]]
        empirical = {"empirical_tail_gap_median": float(np.median(tail)),
                     "empirical_tail_gap_max": max(tail),
                     "empirical_inf_gap_max": max(seed["inf_gap"]
                                                  for seed in summary["per_seed"])}
        for bound in summary["bounds"]:
            report, params = bound["report"], bound["report"]["params"]
            rows.append({"alpha": params["alpha"], "kind": report["kind"],
                         "T_label": params.get("label", ""),
                         "T": params.get("T", params.get("delta", "")),
                         "analytic_gap": report["gap"], "pass": bound["pass"],
                         **empirical})

    if write:
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])  # the column names
        for row in rows:  # as summary.json spells them, floats as in the traces
            writer.writerow([fmt_float(v) if isinstance(v, float) else
                             v if isinstance(v, str) else json.dumps(v)
                             for v in row.values()])
        _atomic_write(os.path.join(config.out_dir, "bounds.csv"), buf.getvalue())
    return rows
