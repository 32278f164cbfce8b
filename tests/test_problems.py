import numpy as np
import pytest

import reference
from helpers import criterion_8_fixtures
from incsub import (Ball, Box, LinearUtility, LogUtility, Simplex, SqrtUtility,
                    make_allocation, make_quadratic_suite, make_regression)
from incsub.problems import BRACKET_RTOL


class TestRegression:
    def test_single_agent_two_samples(self):
        # f(x) = ((x-1)^2 + (x-3)^2) / 2 on [0, 10]: f* = 1 at x* = 2
        prob = make_regression([[1.0]], [[1.0, 3.0]], Box([0.0], [10.0]))
        assert prob.f(np.array([2.0])) == pytest.approx(1.0)
        assert prob.optimum.f_star == pytest.approx(1.0)
        assert prob.optimum.witness[0] == pytest.approx(2.0)
        assert prob.f(np.array([0.0])) == pytest.approx((1.0 + 9.0) / 2)

    def test_three_agents_closed_form_cross_checked_by_grid(self):
        # per-agent sample means {1, 2, 3} with unit sample variance
        samples = [[0.0, 2.0], [1.0, 3.0], [2.0, 4.0]]
        prob = make_regression([[1.0]] * 3, samples, Box([0.0], [10.0]))
        assert prob.optimum.method == "closed_form"
        assert prob.optimum.witness[0] == pytest.approx(2.0)
        grid_val, grid_x, tol = reference.lattice_minimum(prob, 1e-4)
        assert abs(grid_val - prob.optimum.f_star) <= tol
        assert abs(grid_x[0] - 2.0) <= 1e-4

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            make_regression([[1.0]], [[]], Box([0.0], [1.0]))

    def test_constrained_optimum_certified_by_grid(self):
        # unconstrained least squares at x = 2 is infeasible on [0, 1]
        prob = make_regression([[1.0]], [[1.0, 3.0]], Box([0.0], [1.0]))
        assert prob.optimum.method == "duality"
        assert prob.optimum.witness[0] == pytest.approx(1.0, abs=1e-4)
        grid_val, _, tol = reference.lattice_minimum(prob, 1e-4)
        assert prob.optimum.f_star <= grid_val + prob.optimum.tolerance + 1e-12
        assert grid_val - prob.optimum.f_star <= tol

    def test_first_order_optimality_at_witness(self):
        samples = [[0.0, 2.0], [1.0, 3.0], [2.0, 4.0]]
        prob = make_regression([[1.0]] * 3, samples, Box([0.0], [10.0]))
        x_star = prob.optimum.witness
        total = sum(reference.subgradients(prob.family, x_star[None, :], i)[0]
                    for i in range(prob.m))
        ys = np.linspace(0.0, 10.0, 101)[:, None]
        inner = (ys - x_star) @ total
        assert np.all(inner >= -1e-9)

    def test_rank_deficient_basis_reported_and_grid_certified(self):
        # both sensors see the same feature direction: the normal matrix is
        # singular, so the optimum is bracketed, and the lattice oracle
        # agrees (test_bracket_holds_the_lattice_minimum)
        prob = make_regression([[1.0, 1.0]] * 2, [[0.5], [0.7]],
                               Box([0.0, 0.0], [1.0, 1.0]))
        assert prob.optimum.method == "duality"
        assert prob.optimum.notes.get("rank_deficient") is True
        # any point with x1 + x2 = 0.6 is optimal; check the value instead
        assert prob.optimum.f_star == pytest.approx(2 * 0.01, abs=1e-3)


# fixtures certified by the lattice before the duality bracket (criterion
# 8's allocation is also test_mixed_utilities_grid_certificate's), each with
# that lattice's resolution and the bracket's width: BRACKET_RTOL (1 + |f*|)
# where the bracket closes, its measured width (0.0112) at the capped
# linear utility's kink, where it stops at BRACKET_STEPS
BRACKETED = [
    *((name, build, resolution, None)
      for name, build, resolution in criterion_8_fixtures()),
    ("rank-deficient regression",
     lambda: make_regression([[1.0, 1.0]] * 2, [[0.5], [0.7]],
                             Box([0.0, 0.0], [1.0, 1.0])), 1e-2, None),
    ("log allocation",
     lambda: make_allocation([LogUtility(), LogUtility()], Simplex(1.0, 2)),
     1e-4, None),
    ("capped linear kink",
     lambda: make_allocation([LinearUtility(2.0, cap=0.5), LogUtility(),
                              SqrtUtility()], Simplex(1.0, 3)), 1e-3, 2e-2),
]


@pytest.mark.parametrize("name, build, resolution, width", BRACKETED,
                         ids=[case[0].replace(" ", "_") for case in BRACKETED])
def test_bracket_holds_the_lattice_minimum(name, build, resolution, width):
    prob = build()
    cert = prob.optimum
    if width is None:
        width = BRACKET_RTOL * (1.0 + abs(cert.f_star))
    assert 0.0 <= cert.tolerance <= width
    grid_val, _, _ = reference.lattice_minimum(prob, resolution)
    # the bracket [f_star - tolerance, f_star] holds f*, and f* <= grid_val
    assert cert.f_star - cert.tolerance <= grid_val + 1e-12
    assert cert.f_star <= grid_val + cert.tolerance + 1e-12


class TestAllocation:
    def test_linear_utilities_on_simplex(self):
        # any feasible point is optimal: f = -(x1 + x2) = -1 on the simplex
        prob = make_allocation([LinearUtility(1.0), LinearUtility(1.0)],
                               Simplex(1.0, 2))
        assert prob.optimum.f_star == pytest.approx(-1.0, abs=1e-9)
        assert prob.optimum.tolerance == 0.0  # the first minorant is exact

    def test_log_utilities_split_evenly(self):
        prob = make_allocation([LogUtility(), LogUtility()], Simplex(1.0, 2))
        assert prob.optimum.f_star == pytest.approx(-2 * np.log(1.5), abs=1e-6)
        assert prob.optimum.tolerance <= BRACKET_RTOL * (1.0 + abs(prob.optimum.f_star))
        assert np.allclose(prob.optimum.witness, [0.5, 0.5], atol=1e-3)

    def test_mixed_utilities_grid_certificate(self):
        prob = make_allocation([LogUtility(), SqrtUtility(), LinearUtility(2.0)],
                               Simplex(1.0, 3))
        assert prob.optimum.method == "duality"
        # certificate self-consistency
        assert prob.f(prob.optimum.witness) <= prob.optimum.f_star + 1e-12
        prob.check_certificate()

    def test_non_concave_utility_rejected(self):
        class Convex:
            def value(self, t):
                return np.asarray(t) ** 2

            def slope(self, t):
                return 2 * np.asarray(t)

            def max_slope(self, lo, hi):
                return 2 * hi

        with pytest.raises(ValueError):
            make_allocation([Convex(), LogUtility()], Simplex(1.0, 2))

    def test_decreasing_utility_rejected(self):
        class Decreasing:
            def value(self, t):
                return -np.asarray(t)

            def slope(self, t):
                return -np.ones_like(np.asarray(t))

            def max_slope(self, lo, hi):
                return 1.0

        with pytest.raises(ValueError):
            make_allocation([Decreasing(), LogUtility()], Simplex(1.0, 2))


class TestQuadraticSuite:
    def test_two_centers_on_line(self, quad_m2_line):
        prob = quad_m2_line
        assert prob.optimum.witness[0] == pytest.approx(1.0)
        assert prob.optimum.f_star == pytest.approx(2.0)

    def test_triangle_centroid(self):
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        prob = make_quadratic_suite(3, 2, 0.0, Box([-5, -5], [5, 5]),
                                    centers=centers)
        assert np.allclose(prob.optimum.witness, centers.mean(axis=0))

    def test_ball_constrained_matches_grid(self):
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        fset = Ball([0.0, 0.0], 0.1)
        prob = make_quadratic_suite(3, 2, 0.0, fset, centers=centers)
        grid_val, _, tol = reference.lattice_minimum(prob, 1e-4)
        assert prob.optimum.f_star <= grid_val + 1e-12
        assert grid_val - prob.optimum.f_star <= tol

    def test_fused_sum_matches_component_sum(self, quad_m5_box):
        prob = quad_m5_box
        rng = np.random.default_rng(5)
        xs = prob.feasible_set.sample(rng, 64)
        direct = [reference.total(prob.family, x) for x in xs.tolist()]
        assert np.allclose(prob.f_many(xs), direct, rtol=1e-12, atol=1e-12)

    def test_agent_subgradients_match_components(self, quad_m5_box):
        prob = quad_m5_box
        rng = np.random.default_rng(6)
        xs = prob.feasible_set.sample(rng, 32)
        agents = rng.integers(0, prob.m, size=32)
        fused = reference.subgradients(prob.family, xs, agents)
        for r in range(32):
            _, g = reference.component(prob.family, agents[r])
            assert np.array_equal(fused[r], g(xs[r].tolist()))

    def test_instances_pass_core_suites(self, quad_m5_box):
        # every fixture must satisfy the subgradient inequality and C_i bound
        prob = quad_m5_box
        rng = np.random.default_rng(8)
        xs = prob.feasible_set.sample(rng, 2000)
        ys = prob.feasible_set.sample(rng, 2000)
        for i in range(prob.m):
            f_i, _ = reference.component(prob.family, i)
            g = reference.subgradients(prob.family, xs, i)
            lhs = np.einsum("ij,ij->i", g, ys - xs)
            fx = np.array([f_i(x) for x in xs.tolist()])
            fy = np.array([f_i(y) for y in ys.tolist()])
            assert np.all(lhs <= fy - fx + 1e-9)
            assert np.all(np.linalg.norm(g, axis=1) <= prob.bounds[i] + 1e-9)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            make_quadratic_suite(0, 1, 1.0, Box([0.0], [1.0]))
