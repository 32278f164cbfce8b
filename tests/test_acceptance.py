"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to stream them).
The heavy simulations are module-scoped fixtures so reruns for the
determinism criterion reuse the same configurations.
"""

import os
import time

import numpy as np
import pytest

import incsub as isb
from helpers import (brute_force_window, criterion_8_fixtures,
                     geometric_envelope_holds, random_symmetric_topology,
                     run_one)
from incsub.config import ExperimentConfig
from incsub.harness import run_experiment
from incsub.markov import adjacency_from_edges

SIGMA_FOR_HALF_RMS = 0.5 / np.sqrt(2.0)  # nu = sigma * sqrt(n) = 0.5 at n = 2

BASE_PROBLEM = {
    "problem.fixture": "quadratic",
    "problem.m": 5,
    "problem.n": 2,
    "problem.spread": 1.0,
    "problem.centers_seed": 42,
    "problem.set": {"kind": "box", "lower": -1.0, "upper": 1.0},
}


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def make_config(out_dir, **entries):
    flat = dict(BASE_PROBLEM)
    flat["out"] = str(out_dir)
    flat.update(entries)
    return ExperimentConfig.from_flat(flat)


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def fixture_problem():
    return isb.make_quadratic_suite(5, 2, 1.0, isb.Box([-1, -1], [1, 1]), seed=42)


@pytest.fixture(scope="module")
def crit2_run(out_root):
    config = make_config(
        out_root / "crit2", **{
            "algorithm": "cyclic",
            "schedule.kind": "constant", "schedule.alpha": 0.01,
            "noise.kind": "gaussian", "noise.sigma": SIGMA_FOR_HALF_RMS,
            "horizon": 100_000, "replications": 20, "seed": 2000,
            "stride": 10_000, "verify.slack_rel": 0.0,
        })
    summary, traces = run_experiment(config)
    return config, summary, traces


@pytest.fixture(scope="module")
def crit5_run(out_root):
    config = make_config(
        out_root / "crit5", **{
            "algorithm": "markov",
            "topology.kind": "ring", "scheme.kind": "equal",
            "schedule.kind": "constant", "schedule.alpha": 0.005,
            "noise.kind": "gaussian", "noise.sigma": SIGMA_FOR_HALF_RMS,
            "horizon": 1_000_000, "replications": 20, "seed": 3000,
            "stride": 100_000, "verify.slack_rel": 0.0,
            "verify.min_pass_fraction": 0.95,
        })
    summary, traces = run_experiment(config)
    return config, summary, traces


CRIT4_TICKS = 1_000_000


@pytest.fixture(scope="module")
def crit4_traces(fixture_problem):
    topo = isb.PeriodicTopology(5, [isb.ring_edges(5)], 1)
    return isb.run_batch(fixture_problem, isb.GaussianNoise(SIGMA_FOR_HALF_RMS),
                         isb.PowerLaw(1.0, 0.8),
                         isb.ChainOrder(topo, isb.EqualProbability()),
                         np.array([0.0, 0.0]), CRIT4_TICKS, list(range(4000, 4020)),
                         stride=100_000, tail_fraction=0.1)


def test_criterion_1_cyclic_diminishing_convergence(out_root):
    config = make_config(
        out_root / "crit1", **{
            "algorithm": "cyclic",
            "schedule.kind": "powerlaw", "schedule.a": 1.0, "schedule.p": 1.0,
            "noise.kind": "gaussian", "noise.sigma": SIGMA_FOR_HALF_RMS,
            "horizon": 100_000, "replications": 20, "seed": 1000,
            "stride": 10_000,
        })
    start = time.perf_counter()
    summary, _ = run_experiment(config)
    elapsed = time.perf_counter() - start
    gaps = [row["final_gap"] for row in summary["per_seed"]]
    hits = sum(g <= 1e-2 for g in gaps)
    ok = hits >= 19 and elapsed <= 60.0
    report(1, ok, f"final gap <= 1e-2 in {hits}/20 seeds "
                  f"(max gap {max(gaps):.2e}), runtime {elapsed:.1f}s <= 60s")


def test_criterion_2_cyclic_constant_step_bound(crit2_run, out_root,
                                                fixture_problem):
    _, summary, _ = crit2_run
    rows = [b for b in summary["bounds"]
            if b["report"]["kind"] == "cyclic_constant_step"]
    assert len(rows) == 1
    fraction = rows[0]["verdicts"]["fraction"]
    gap = rows[0]["report"]["gap"]

    error_free = make_config(
        out_root / "crit2_error_free", **{
            "algorithm": "cyclic",
            "schedule.kind": "constant", "schedule.alpha": 0.01,
            "noise.kind": "none",
            "horizon": 100_000, "replications": 1, "seed": 2100,
            "stride": 10_000, "verify.slack_rel": 0.0,
        })
    ef_summary, _ = run_experiment(error_free)
    ef_row = ef_summary["bounds"][0]
    c_sum = float(fixture_problem.bounds.sum())
    expected_ef_gap = 0.005 * c_sum**2
    ef_ok = (ef_row["verdicts"]["fraction"] == 1.0
             and abs(ef_row["report"]["gap"] - expected_ef_gap) <= 1e-12)
    ok = fraction == 1.0 and ef_ok
    report(2, ok, f"noisy bound (gap {gap:.3f}) held in 20/20 seeds; "
                  f"error-free bound equals (alpha/2)(sum C_i)^2 = "
                  f"{expected_ef_gap:.3f} and held")


def test_criterion_3_geometric_mixing_envelope():
    topologies = [
        ("ring m=4", isb.PeriodicTopology(4, [isb.ring_edges(4)], 1)),
        ("path m=5", isb.PeriodicTopology(5, [isb.path_edges(5)], 1)),
        ("matchings m=4 Q=2", isb.PeriodicTopology(
            4, [[(0, 1), (2, 3)], [(1, 2), (0, 3)]], 2)),
    ]
    schemes = [("equal", isb.EqualProbability()),
               ("min_equal", isb.MinEqualNeighbor()),
               ("weighted_mh", isb.WeightedMetropolisHastings(0.5))]
    failures = []
    for tname, topo in topologies:
        for sname, scheme in schemes:
            ok, k, dev = geometric_envelope_holds(scheme, topo, horizon=200,
                                                  tol=1e-10)
            if not ok:
                failures.append(f"{sname} on {tname} at k={k} (dev {dev:.3e})")
    report(3, not failures,
           "|product - 1/m| <= b*beta^k for k <= 200 on all 9 scheme/topology "
           "pairs" if not failures else "; ".join(failures))


def test_criterion_4_markov_diminishing_convergence(crit4_traces,
                                                    fixture_problem):
    f_star = fixture_problem.optimum.f_star
    tail_gaps = [tr.tail_min - f_star for tr in crit4_traces]
    hits = sum(g <= 1e-2 for g in tail_gaps)
    freqs = np.array([tr.visit_counts for tr in crit4_traces],
                     dtype=float)
    freqs /= CRIT4_TICKS + 1
    freq_ok = bool(np.all(np.abs(freqs - 0.2) <= 0.01))
    ok = hits >= 19 and freq_ok
    report(4, ok, f"tail-min gap <= 1e-2 in {hits}/20 seeds "
                  f"(max {max(tail_gaps):.2e}); visit frequencies within "
                  f"1/m +- 0.01 (max dev {np.abs(freqs - 0.2).max():.4f})")


def test_criterion_5_markov_constant_step_bounds(crit5_run, fixture_problem):
    _, summary, _ = crit5_run
    rows = {b["report"]["params"].get("label"): b for b in summary["bounds"]
            if b["report"]["kind"] == "markov_constant_step"}
    assert set(rows) == {"T0", "optimal", "delta"}
    fractions = {label: row["verdicts"]["fraction"]
                 for label, row in rows.items()}
    per_seed_ok = all(f >= 19 / 20 for f in fractions.values())

    # brute-force optimality of the chosen window over T in [0, 2000]
    alpha = 0.005
    rate = isb.rate_constants(1.0 / 5.0, 5, 1)
    c_bounds = fixture_problem.bounds
    diam = fixture_problem.feasible_set.diameter()
    nu = 0.5
    t_star = rows["optimal"]["report"]["params"]["T"]
    inputs = isb.BoundInputs(c_bounds, 0.0, nu, diam, rate)
    gaps = np.array([inputs.markov(alpha, t).gap for t in range(2001)])
    brute_ok = np.all(gaps[t_star] <= gaps + 1e-12)
    ok = per_seed_ok and bool(brute_ok)
    report(5, ok, f"per-seed bound held for T in {{0, {t_star}, "
                  f"{rows['delta']['report']['params']['T']}}} with fractions "
                  f"{fractions}; gap(T*) minimal over T in [0, 2000]")


def test_criterion_6_optimal_window_matches_brute_force():
    rng = np.random.default_rng(12345)
    mismatches = 0
    for _ in range(1000):
        alpha = 10.0 ** rng.uniform(-6, 0)
        c = rng.uniform(0.1, 10.0)
        c0 = rng.uniform(0.1, 100.0)
        beta = rng.uniform(0.01, 0.999)
        if isb.optimal_window(alpha, c, c0, beta) != \
                brute_force_window(alpha, c, c0, beta):
            mismatches += 1
    report(6, mismatches == 0,
           f"closed form + convex local search matched exhaustive "
           f"minimization in {1000 - mismatches}/1000 random tuples")


def test_criterion_7_scheme_validity_on_random_topologies():
    rng = np.random.default_rng(777)
    built = 0
    for _ in range(1000):
        m, edges = random_symmetric_topology(rng)
        adj = adjacency_from_edges(m, edges)
        weight = rng.uniform(0.05, 0.95)
        for scheme in (isb.EqualProbability(), isb.MinEqualNeighbor(),
                       isb.WeightedMetropolisHastings(weight)):
            isb.build_transition(scheme, adj)  # validates internally
            built += 1
    report(7, built == 3000,
           f"{built}/3000 scheme matrices passed doubly-stochastic, "
           f"positive-diagonal, entry-floor and sparsity checks")


def test_criterion_8_both_engines_agree_with_grid_oracle():
    # f* is bracketed to within 1e-9 (1 + |f*|) on the allocation and the
    # clipped regression and is a closed form on the quadratic; the lattice
    # oracle holds each bracket (test_bracket_holds_the_lattice_minimum)
    details = []
    ok = True
    for name, build, _ in criterion_8_fixtures():
        prob = build()
        assert prob.optimum.method == (
            "closed_form" if name == "quadratic on ball" else "duality")
        f_star = prob.optimum.f_star
        x0 = prob.feasible_set.project_many(np.zeros(prob.n))
        cy = run_one(prob, isb.NoNoise(), isb.PowerLaw(1.0, 1.0),
                     isb.RingOrder(prob.m), x0, 20_000, 0, stride=2000)
        topo = isb.PeriodicTopology(prob.m, [isb.ring_edges(prob.m)], 1)
        mk = run_one(prob, isb.NoNoise(), isb.PowerLaw(1.0, 0.8),
                     isb.ChainOrder(topo, isb.EqualProbability()), x0, 60_000, 0,
                     stride=6000)
        cy_gap = abs(cy.running_inf[-1] - f_star)
        mk_gap = abs(mk.running_inf[-1] - f_star)
        ok = ok and cy_gap <= 5e-3 and mk_gap <= 5e-3
        details.append(f"{name}: ring-order {cy_gap:.1e}, randomized {mk_gap:.1e}")
    report(8, ok, "best visited f within 5e-3 of the certified f* on every "
                  "lattice-checked fixture (" + "; ".join(details) + ")")


def snapshot(out_dir):
    return {name: (out_dir / name).read_bytes()
            for name in sorted(os.listdir(out_dir))}


def test_criterion_9_reruns_are_byte_identical(crit2_run, crit5_run, out_root):
    mismatched = []
    for config, _, _ in (crit2_run, crit5_run):
        out_dir = out_root / os.path.basename(config.out_dir)
        before = snapshot(out_dir)
        run_experiment(config)  # same config, same output directory
        after = snapshot(out_dir)
        if before.keys() != after.keys() or any(
                before[k] != after[k] for k in before):
            mismatched.append(config.out_dir)
    report(9, not mismatched,
           "re-running the cyclic and markov acceptance configurations "
           "reproduced every trace CSV and summary JSON byte-for-byte")
