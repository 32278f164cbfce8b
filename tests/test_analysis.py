import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import incsub as isb
import reference
from helpers import (brute_force_window, formula_window, geometric_envelope_holds,
                     max_uniform_deviation, phi_product, run_one)
from incsub.markov import adjacency_from_edges, ring_edges


class TestRateConstants:
    def test_half_eta_two_agents(self):
        rc = isb.rate_constants(0.5, 2, 1)
        assert rc.beta == pytest.approx(31 / 32)
        assert rc.b == pytest.approx((31 / 32) ** -2)
        assert rc.b == pytest.approx(1.06556, abs=1e-5)

    def test_single_agent(self):
        rc = isb.rate_constants(1.0, 1, 1)
        assert rc.b == pytest.approx(16 / 9)
        assert rc.beta == pytest.approx(0.75)

    def test_beta_increases_with_window(self):
        betas = [isb.rate_constants(0.3, 3, q).beta for q in (1, 2, 5, 20)]
        assert all(b1 < b2 for b1, b2 in zip(betas, betas[1:]))
        assert all(0 < b < 1 for b in betas)

    def test_out_of_range_inputs(self):
        for bad in [dict(eta=0.0, m=2, Q=1), dict(eta=1.2, m=2, Q=1),
                    dict(eta=0.5, m=0, Q=1), dict(eta=0.5, m=2, Q=0)]:
            with pytest.raises(ValueError):
                isb.rate_constants(**bad)


class TestPhiProduct:
    def test_single_matrix_is_itself(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.array_equal(phi_product([p]), p)

    def test_uniform_matrix_is_idempotent(self):
        u = np.full((4, 4), 0.25)
        prod = phi_product([u] * 7)
        assert np.allclose(prod, u, atol=1e-14)
        assert max_uniform_deviation(prod) <= 1e-14

    def test_product_of_scheme_matrices_meets_envelope(self):
        rng = np.random.default_rng(14)
        m = 4
        scheme = isb.MinEqualNeighbor()
        topo_edges = ring_edges(m)
        adj = adjacency_from_edges(m, topo_edges)
        rc = isb.rate_constants(scheme.eta(adj.sum(axis=1)), m, 1)
        mats = [isb.build_transition(scheme, adj) for _ in range(50)]
        prod = phi_product(mats)
        assert max_uniform_deviation(prod) <= rc.b * rc.beta**50 + 1e-12
        # double stochasticity survives the product up to rounding
        assert np.allclose(prod.sum(axis=0), 1.0, atol=50 * 1e-12)
        assert np.allclose(prod.sum(axis=1), 1.0, atol=50 * 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(isb.DimensionMismatchError):
            phi_product([np.eye(2), np.eye(3)])


class TestGeometricEnvelope:
    @pytest.mark.parametrize("scheme", [isb.EqualProbability(),
                                        isb.MinEqualNeighbor(),
                                        isb.WeightedMetropolisHastings(0.5)])
    def test_ring_and_path(self, scheme):
        for topo in (isb.PeriodicTopology(4, [isb.ring_edges(4)], 1),
                     isb.PeriodicTopology(5, [isb.path_edges(5)], 1)):
            ok, k, dev = geometric_envelope_holds(scheme, topo)
            assert ok, f"envelope violated at k={k}: deviation {dev}"

    def test_periodic_matchings(self):
        topo = isb.PeriodicTopology(4, [[(0, 1), (2, 3)], [(1, 2), (0, 3)]], 2)
        for scheme in (isb.EqualProbability(), isb.MinEqualNeighbor(),
                       isb.WeightedMetropolisHastings(0.5)):
            ok, k, dev = geometric_envelope_holds(scheme, topo)
            assert ok, f"envelope violated at k={k}: deviation {dev}"


class TestBoundInputs:
    def test_derived_values(self):
        rate = isb.rate_constants(0.2, 3, 2)
        inputs = isb.BoundInputs([1.0, 2.0, 1.5], 0.1, 0.3, 2.0, rate)
        assert (inputs.m, inputs.c_max, inputs.c_sum) == (3, 2.0, 4.5)
        assert inputs.c0 == rate.b * 4.5 * 2.0
        assert inputs.c_eff == np.sqrt(2.0 * 2.3)
        assert isb.BoundInputs([1.0], 0.0, 0.3).c0 is None

    def test_invalid_inputs(self):
        rate = isb.RateConstants.uniform()
        for args in [([], 0.0, 0.0), ([1.0, -1.0], 0.0, 0.0),
                     ([[1.0]], 0.0, 0.0), ([1.0], -0.1, 0.0),
                     ([1.0], 0.5, 0.2), ([1.0], 0.0, 0.0, None, rate),
                     ([1.0], 0.0, 0.0, float("inf"), rate)]:
            with pytest.raises(ValueError):
                isb.BoundInputs(*args)
        inputs = isb.BoundInputs([1.0], 0.0, 0.0, 1.0, rate)
        for report in (inputs.cyclic, inputs.simple_delta,
                       lambda alpha: inputs.markov(alpha, 0)):
            with pytest.raises(ValueError):
                report(0.0)

    def test_overflow_stays_infinite(self):
        # no numpy warning either: the suite turns warnings into errors
        inputs = isb.BoundInputs([1e308, 1e308], 0.0, 0.0, 1e10,
                                 isb.rate_constants(0.5, 2, 1))
        assert inputs.c_sum == inputs.c0 == np.inf
        assert np.isfinite(inputs.c_max)

    def test_reports_on_criterion_5_fixture(self, quad_m5_box):
        inputs = isb.BoundInputs(quad_m5_box.bounds, 0.0, 0.5,
                                 quad_m5_box.feasible_set.diameter(),
                                 isb.rate_constants(1.0 / 5.0, 5, 1))
        reports = list(inputs.reports(0.005))
        assert [(r.kind, r.params.get("label")) for r in reports] == [
            ("markov_constant_step", "T0"), ("markov_constant_step", "optimal"),
            ("markov_constant_step", "delta"), ("markov_simple_delta", None)]
        windows = inputs.windows(0.005)
        assert [r.params["T"] for r in reports[:3]] == [t for _, t in windows]
        for report, (_, t) in zip(reports, windows):
            assert report.gap == inputs.markov(0.005, t).gap
        assert reports[3].gap == inputs.simple_delta(0.005).gap

    def test_ring_order_has_one_report(self):
        inputs = isb.BoundInputs([1.0, 1.0], 0.0, 1.0)
        assert [r.kind for r in inputs.reports(0.1)] == ["cyclic_constant_step"]


class TestCyclicBound:
    def test_worked_example(self):
        report = isb.BoundInputs([1.0, 1.0], mu=0.0, nu=1.0).cyclic(0.1)
        assert report.gap == pytest.approx(0.05 * (2 + 2) ** 2) == pytest.approx(0.8)

    def test_error_free_form_is_exact(self):
        report = isb.BoundInputs([1.5, 2.5, 1.0], mu=0.0, nu=0.0).cyclic(0.02)
        assert report.gap == 0.01 * 5.0**2
        assert report.terms["bias"] == 0.0

    def test_bias_term_needs_finite_diameter(self):
        with pytest.raises(ValueError):
            isb.BoundInputs([1.0], mu=0.5, nu=1.0, diameter=float("inf"))
        report = isb.BoundInputs([1.0], mu=0.5, nu=1.0, diameter=2.0).cyclic(0.1)
        assert report.terms["bias"] == pytest.approx(1 * 0.5 * 2.0)

    def test_small_step_limit_leaves_bias_only(self):
        inputs = isb.BoundInputs([1.0, 1.0], mu=0.1, nu=0.2, diameter=1.0)
        gaps = [inputs.cyclic(a).gap for a in (1e-2, 1e-4, 1e-6)]
        assert gaps[-1] == pytest.approx(2 * 0.1 * 1.0, rel=1e-3)
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


class TestMarkovBound:
    def test_worked_example_itemization(self):
        rate = isb.RateConstants(1.0656, 0.96875)
        report = isb.BoundInputs([1.0, 1.0], mu=0.0, nu=0.0, diameter=1.0,
                                 rate=rate).markov(0.01, 3)
        assert report.terms["step"] == pytest.approx(0.005)
        assert report.terms["window"] == pytest.approx(0.03)
        assert report.terms["mixing"] == pytest.approx(1.0656 * 2 * 0.96875**4)
        assert report.gap == pytest.approx(sum(report.terms.values()))

    def test_uniform_chain_at_zero_window(self):
        report = isb.BoundInputs([2.0, 1.0], mu=0.1, nu=0.3, diameter=1.5,
                                 rate=isb.RateConstants.uniform()).markov(0.04, 0)
        assert report.terms["mixing"] == 0.0
        assert report.gap == pytest.approx(0.1 * 1.5 + 0.02 * (0.3 + 2.0) ** 2)

    def test_error_free_reduction(self):
        rate = isb.rate_constants(0.25, 4, 1)
        report = isb.BoundInputs([1.0] * 4, mu=0.0, nu=0.0, diameter=2.0,
                                 rate=rate).markov(0.01, 5)
        expect = 0.005 * 1.0 + 0.01 * 5 * 1.0 + rate.b * 4.0 * rate.beta**6 * 2.0
        assert report.gap == pytest.approx(expect)

    def test_negative_window_rejected(self):
        inputs = isb.BoundInputs([1.0], 0.0, 0.0, 1.0, isb.RateConstants.uniform())
        with pytest.raises(ValueError):
            inputs.markov(0.01, -1)

    @given(alpha=st.floats(min_value=1e-4, max_value=1.0),
           mu=st.floats(min_value=0.0, max_value=0.5),
           extra_nu=st.floats(min_value=0.0, max_value=1.0),
           diam=st.floats(min_value=0.1, max_value=10.0),
           T=st.integers(min_value=0, max_value=50))
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_each_argument(self, alpha, mu, extra_nu, diam, T):
        rate = isb.rate_constants(0.2, 3, 2)
        nu = mu + extra_nu

        def gap(alpha, mu, nu, diam):
            return isb.BoundInputs([1.0, 2.0, 1.5], mu, nu, diam,
                                   rate).markov(alpha, T).gap

        base = gap(alpha, mu, nu, diam)
        assert gap(alpha * 1.5, mu, nu, diam) >= base - 1e-12
        assert gap(alpha, mu, nu + 0.1, diam) >= base - 1e-12
        assert gap(alpha, mu, nu, diam * 1.1) >= base - 1e-12
        if mu + 0.1 <= nu:
            assert gap(alpha, mu + 0.1, nu, diam) >= base - 1e-12


class TestOptimalWindow:
    def test_large_ratio_gives_zero(self):
        assert isb.optimal_window(1.0, 10.0, 0.1, 0.9) == 0

    def test_uniform_chain_convention(self):
        assert isb.optimal_window(0.01, 1.0, 5.0, 0.0) == 0

    @pytest.mark.parametrize("c", [1.0, 0.0])
    def test_no_mixing_term_gives_zero(self, c):
        # c0 = 0 (a one-point set, or C = 0) leaves alpha C^2 T, least at T = 0
        assert isb.optimal_window(0.01, c, 0.0, 0.9) == 0
        assert brute_force_window(0.01, c, 0.0, 0.9) == 0

    def test_worked_example_against_brute_force(self):
        alpha, c, c0, beta = 1e-6, 1.0, 10.0, 0.9
        expect = brute_force_window(alpha, c, c0, beta)
        t = isb.optimal_window(alpha, c, c0, beta)
        assert t == expect
        # the closed form lands within one step of the exact minimizer
        assert abs(formula_window(alpha, c, c0, beta) - t) <= 1

    def test_formula_overshoot_is_flagged_and_corrected(self):
        # small beta separates the continuous and integer minimizers
        alpha, c, c0, beta = 1.0, 1.0, 10279.0, 0.95
        t = isb.optimal_window(alpha, c, c0, beta)
        assert t == brute_force_window(alpha, c, c0, beta)
        # the closed form overshoots here, and the search corrects it
        assert formula_window(alpha, c, c0, beta) == t + 1

    @given(alpha=st.floats(min_value=1e-6, max_value=1.0),
           c=st.floats(min_value=0.1, max_value=10.0),
           c0=st.floats(min_value=0.1, max_value=100.0),
           beta=st.floats(min_value=0.01, max_value=0.999))
    @settings(max_examples=300, deadline=None)
    def test_local_optimality_everywhere(self, alpha, c, c0, beta):
        t = isb.optimal_window(alpha, c, c0, beta)
        g = lambda T: alpha * c * c * T + c0 * beta ** (T + 1)
        assert g(t) <= g(t + 1)
        if t > 0:
            assert g(t) < g(t - 1)  # ties resolve toward smaller T

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            isb.optimal_window(0.01, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            isb.optimal_window(-0.01, 1.0, 1.0, 0.5)


class TestDeltaWindow:
    def test_zero_when_step_dominates(self):
        assert isb.delta_window(0.5, 0.3) == 0
        assert isb.delta_window(0.3, 0.3) == 0

    def test_square_gives_one(self):
        beta = 0.7
        assert isb.delta_window(beta**2, beta) == 1

    def test_bound_vanishes_with_step_except_bias(self):
        inputs = isb.BoundInputs([1.0] * 5, mu=0.05, nu=0.2, diameter=2.0,
                                 rate=isb.rate_constants(0.2, 5, 1))
        gaps = [inputs.simple_delta(a).gap for a in (1e-2, 1e-4, 1e-6, 1e-8)]
        # the window piece decays like alpha * ln(alpha), so convergence to
        # the bias term is slow; 2e-3 relative at alpha = 1e-8 matches it
        assert gaps[-1] == pytest.approx(0.05 * 2.0, rel=2e-3)
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))

    def test_delta_recorded_in_report(self):
        rate = isb.rate_constants(0.2, 5, 1)
        report = isb.BoundInputs([1.0] * 5, mu=0.0, nu=0.5, diameter=2.0,
                                 rate=rate).simple_delta(1e-3)
        assert report.params["delta"] == isb.delta_window(1e-3, rate.beta)
        assert report.terms["mixing"] == pytest.approx(
            1e-3 * rate.b * 5.0 * 2.0)


class TestEmpiricalVerification:
    def test_inflated_gap_always_passes(self, quad_m2_line):
        tr = run_one(quad_m2_line, isb.NoNoise(), isb.Constant(0.01),
                     isb.RingOrder(quad_m2_line.m), np.array([9.0]), 2000, 0,
                     stride=100)
        report = isb.BoundInputs(quad_m2_line.bounds, 0.0, 0.0).cyclic(0.01)
        fat = isb.BoundReport(report.gap * 10, {"all": report.gap * 10}, {},
                              "inflated")
        verdicts = fat.verdicts([tr.running_inf[-1]],
                                quad_m2_line.optimum.f_star, 0.02, 0.0)
        assert verdicts["passed"] == verdicts["total"] == 1

    def test_adversarial_trace_fails(self):
        report = isb.BoundReport(1.0, {"all": 1.0}, {}, "test")
        # a run pinned at f* + 2 * gap can never satisfy the bound
        verdicts = report.verdicts([2.0], 0.0, 0.02, 0.0)
        assert verdicts["passed"] == 0
        assert verdicts["worst_margin"] < 0

    def test_verdict_arithmetic(self):
        report = isb.BoundReport(1.0, {"all": 1.0}, {}, "test")
        # threshold 1.02 = f* + gap (1 + slack_rel)
        assert report.verdicts([1.015, 1.015], 0.0, 0.02, 0.0) == {
            "passed": 2, "total": 2, "fraction": 1.0,
            "worst_margin": pytest.approx(0.005)}
        assert report.verdicts([], 0.0, 0.02, 0.0) == {
            "passed": 0, "total": 0, "fraction": None, "worst_margin": None}

    @given(gap=st.floats(min_value=0.0, max_value=1e6),
           f_star=st.floats(min_value=-1e6, max_value=1e6),
           slack_rel=st.floats(min_value=0.0, max_value=1.0),
           slack_abs=st.floats(min_value=0.0, max_value=1.0),
           offsets=st.lists(st.one_of(
               st.sampled_from(["at", "above", "below"]),
               st.floats(min_value=-10.0, max_value=10.0)), max_size=8))
    @settings(max_examples=300, deadline=None)
    @example(gap=1.0, f_star=0.0, slack_rel=0.02, slack_abs=0.0,
             offsets=["at", "at"])
    @example(gap=1.0, f_star=-3.0, slack_rel=0.0, slack_abs=0.5,
             offsets=["above", 1.0, 5.0])
    @example(gap=2.0, f_star=1.0, slack_rel=0.1, slack_abs=0.1,
             offsets=["below", "at", "above", -1.0, 1.0])
    def test_matches_per_replication_loop(self, gap, f_star, slack_rel,
                                          slack_abs, offsets):
        threshold = f_star + gap * (1.0 + slack_rel) + slack_abs
        step = {"at": 0.0, "above": np.inf, "below": -np.inf}
        inf_f = [float(np.nextafter(threshold, step[o])) if isinstance(o, str)
                 else threshold + o for o in offsets]
        report = isb.BoundReport(gap, {"all": gap}, {}, "test")
        assert report.verdicts(inf_f, f_star, slack_rel, slack_abs) == \
            reference.bound_verdicts(inf_f, gap, f_star, slack_rel, slack_abs)
