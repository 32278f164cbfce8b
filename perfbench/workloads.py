"""Benchmark workloads: workload seed -> `incsub run` config text.

Every random quantity of a workload (fixture data, ``centers_seed``, the
topology seed, the replication base seed) is drawn from a generator keyed
by the workload seed and the workload name, so the same seed always gives
byte-identical config files.  The program under test receives only the
generated config.

All workloads run R = 20 replications with a constant step, so the run
computes the paper's constant-step bound reports and verifies every
replication against them.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

REPLICATIONS = 20
# 0.5 / sqrt(2): Gaussian noise whose rms norm in two dimensions is 0.5,
# the noise level of the acceptance configurations.
SIGMA_HALF_RMS = 0.5 / 2 ** 0.5


def _ring_quad_m5(rng):
    return {
        "algorithm": "markov",
        "problem.fixture": "quadratic", "problem.m": 5, "problem.n": 2,
        "problem.spread": 1.0,
        "problem.centers_seed": int(rng.integers(2 ** 31)),
        "problem.set": {"kind": "box", "lower": -1.0, "upper": 1.0},
        "schedule.kind": "constant", "schedule.alpha": 0.005,
        "noise.kind": "gaussian", "noise.sigma": SIGMA_HALF_RMS,
        "topology.kind": "ring", "scheme.kind": "equal",
        "horizon": 40_000, "stride": 5_000,
    }


def _ring_regr_m50(rng):
    m, n, samples = 50, 3, 8
    features = rng.normal(size=(m, n))
    x_true = rng.uniform(-1.0, 1.0, size=n)
    rows = features @ x_true
    data = rows[:, None] + 0.1 * rng.normal(size=(m, samples))
    return {
        "algorithm": "markov",
        "problem.fixture": "regression",
        "problem.features": features.tolist(),
        "problem.samples": data.tolist(),
        # +-5 holds the least-squares solution (|x_true| <= 1), so the
        # optimum certificate is closed-form, not a lattice search.
        "problem.set": {"kind": "box", "lower": -5.0, "upper": 5.0},
        "schedule.kind": "constant", "schedule.alpha": 0.002,
        "noise.kind": "gaussian", "noise.sigma": SIGMA_HALF_RMS,
        "topology.kind": "ring", "scheme.kind": "min_equal",
        "horizon": 3_000, "stride": 500,
    }


def _randedge_quad_m50(rng):
    return {
        "algorithm": "markov",
        "problem.fixture": "quadratic", "problem.m": 50, "problem.n": 2,
        "problem.spread": 1.0,
        "problem.centers_seed": int(rng.integers(2 ** 31)),
        "problem.set": {"kind": "box", "lower": -1.0, "upper": 1.0},
        "schedule.kind": "constant", "schedule.alpha": 0.005,
        "noise.kind": "gaussian", "noise.sigma": SIGMA_HALF_RMS,
        "topology.kind": "random_edges", "topology.graph": "complete",
        "topology.inclusion_prob": 0.1, "topology.window": 2,
        "topology.seed": int(rng.integers(2 ** 31)),
        "scheme.kind": "weighted_mh", "scheme.weight": 0.5,
        "horizon": 1_200, "stride": 200,
    }


def _cyclic_quad_m5(rng):
    return {
        "algorithm": "cyclic",
        "problem.fixture": "quadratic", "problem.m": 5, "problem.n": 2,
        "problem.spread": 1.0,
        "problem.centers_seed": int(rng.integers(2 ** 31)),
        "problem.set": {"kind": "box", "lower": -1.0, "upper": 1.0},
        "schedule.kind": "constant", "schedule.alpha": 0.01,
        "noise.kind": "bounded_uniform", "noise.radius": 0.5,
        "horizon": 6_000, "stride": 1,
    }


# name -> (config builder, why it is in the benchmark)
WORKLOADS = {
    "ring_quad_m5": (_ring_quad_m5,
        "markov, quadratic m=5 on a static ring: cached transition and fused "
        "objective, so per-call overhead of the tick loop dominates"),
    "ring_regr_m50": (_ring_regr_m50,
        "markov, regression m=50 on a static ring: no fused evaluator, so "
        "per-component objective calls dominate"),
    "randedge_quad_m50": (_randedge_quad_m50,
        "markov, quadratic m=50 on random edges: a transition is built and "
        "validated every tick, so topology and transition code dominate"),
    "cyclic_quad_m5": (_cyclic_quad_m5,
        "cyclic engine with stride 1: the only ring-order workload and the "
        "only one whose trace CSV writing is large"),
}


def steps(flat):
    """Engine steps of a run: markov ticks, or cyclic cycles times m."""
    if flat["algorithm"] == "cyclic":
        return flat["horizon"] * flat["problem.m"]
    return flat["horizon"]


def make_config(name, seed):
    """Flat config dict of workload ``name`` for workload seed ``seed``."""
    builder, _ = WORKLOADS[name]
    rng = np.random.default_rng([int(seed), zlib.crc32(name.encode())])
    flat = builder(rng)
    flat["replications"] = REPLICATIONS
    flat["seed"] = int(rng.integers(2 ** 31))
    flat["out"] = "out"
    return flat


def config_text(flat):
    """Canonical `key = value` text: sorted keys, JSON values."""
    return "".join(f"{key} = {json.dumps(flat[key])}\n" for key in sorted(flat))
