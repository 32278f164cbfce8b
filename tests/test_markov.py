import numpy as np
import pytest

import incsub as isb
from helpers import (STEP_NOISES, STEP_SETS, logging_problem,
                     random_symmetric_topology, run_one)
from incsub.errors import SchemeViolationError, TopologyError
from incsub.markov import (adjacency_from_edges, complete_edges,
                           path_edges, ring_edges)
from incsub.streams import init_generator
from reference import NoiseStream, next_from_uniform, sample_next_agent, sub_step


class ZeroStep:
    def step(self, k):
        return 0.0

    def steps(self, start, count):
        return np.zeros(count)




class TestTransitionSchemes:
    def test_equal_probability_complete_graph(self):
        nb = adjacency_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        scheme = isb.EqualProbability()
        p = isb.build_transition(scheme, nb)
        assert np.allclose(p, np.full((3, 3), 1 / 3))
        assert scheme.eta(nb.sum(axis=1)) == pytest.approx(1 / 3)

    def test_min_equal_two_agents(self):
        nb = adjacency_from_edges(2, [(0, 1)])
        p = isb.build_transition(isb.MinEqualNeighbor(), nb)
        assert np.allclose(p, [[0.5, 0.5], [0.5, 0.5]])

    def test_equal_probability_path(self):
        nb = adjacency_from_edges(3, path_edges(3))
        p = isb.build_transition(isb.EqualProbability(), nb)
        expect = np.array([[2 / 3, 1 / 3, 0.0],
                           [1 / 3, 1 / 3, 1 / 3],
                           [0.0, 1 / 3, 2 / 3]])
        assert np.allclose(p, expect)
        assert np.allclose(p.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_weighted_mh_ring(self):
        nb = adjacency_from_edges(4, ring_edges(4))
        scheme = isb.WeightedMetropolisHastings(0.5)
        p = isb.build_transition(scheme, nb)
        assert np.allclose(p.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(np.diag(p), 0.5)
        assert scheme.eta(nb.sum(axis=1)) == pytest.approx(0.25)

    @pytest.mark.parametrize("scheme", [isb.EqualProbability(),
                                        isb.MinEqualNeighbor(),
                                        isb.WeightedMetropolisHastings(0.37)])
    def test_schemes_valid_on_random_topologies(self, scheme):
        rng = np.random.default_rng(99)
        for _ in range(200):
            m, edges = random_symmetric_topology(rng)
            adj = adjacency_from_edges(m, edges)
            p = isb.build_transition(scheme, adj)
            # build_transition already validates; re-assert the key facts
            assert np.allclose(p.sum(axis=0), 1.0, atol=1e-12)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(np.diag(p) > 0)
            assert np.all(p[p > 0] >= scheme.eta(adj.sum(axis=1)) - 1e-15)

    def test_unequal_mh_weights_break_double_stochasticity(self):
        nb = adjacency_from_edges(2, [(0, 1)])
        with pytest.raises(SchemeViolationError, match="doubly stochastic"):
            isb.build_transition(isb.WeightedMetropolisHastings([0.3, 0.7]), nb)

    def test_asymmetric_neighbors_rejected(self):
        nb = np.array([[False, True], [False, False]])  # 1 in N_0, 0 not in N_1
        with pytest.raises(SchemeViolationError, match="asymmetric"):
            isb.build_transition(isb.EqualProbability(), nb)

    def test_validate_transition_catches_bad_matrices(self):
        nb = adjacency_from_edges(2, [(0, 1)])
        with pytest.raises(SchemeViolationError, match="row"):
            isb.validate_transition(np.array([[0.4, 0.5], [0.5, 0.5]]), nb, 0.1)
        with pytest.raises(SchemeViolationError, match="self probability"):
            isb.validate_transition(np.array([[0.0, 1.0], [1.0, 0.0]]), nb, 0.1)
        sparse_nb = adjacency_from_edges(3, [(0, 1)])
        hop = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
        with pytest.raises(SchemeViolationError, match="not a neighbor"):
            isb.validate_transition(hop, sparse_nb, 0.1)


class TestAgentSampling:
    def test_identity_row_always_stays(self):
        rng = np.random.default_rng(0)
        assert all(sample_next_agent(np.eye(3), 1, rng) == 1 for _ in range(100))

    def test_half_half_frequencies(self):
        # binomial concentration: 1e5 draws land within the 0.49/0.51 band
        cum = np.cumsum(np.array([0.5, 0.5]))
        u = np.random.default_rng(12).random(100_000)
        draws = np.searchsorted(cum, u, side="right")
        freq = np.mean(draws == 0)
        assert 0.49 <= freq <= 0.51

    def test_zero_probability_target_never_sampled(self):
        cum = np.cumsum(np.array([0.5, 0.0, 0.5]))
        u = np.random.default_rng(3).random(1_000_000)
        draws = np.minimum(np.searchsorted(cum, u, side="right"), 2)
        assert not np.any(draws == 1)

    def test_scalar_matches_vector_convention(self):
        cum = np.cumsum(np.array([0.25, 0.5, 0.25]))
        for u in (0.0, 0.2, 0.25, 0.5, 0.74999, 0.75, 0.999999):
            scalar = next_from_uniform(cum, u)
            vector = min(int((u >= cum).sum()), 2)
            assert scalar == vector


class TestTopologies:
    def test_static_ring_is_valid(self):
        topo = isb.StaticTopology(4, ring_edges(4))  # validated when built
        assert topo.window == 1

    def test_disconnected_static_rejected(self):
        with pytest.raises(TopologyError):
            isb.StaticTopology(4, [(0, 1), (2, 3)])

    def test_periodic_matchings_connect_over_window(self):
        phases = [[(0, 1), (2, 3)], [(1, 2), (0, 3)]]
        isb.PeriodicTopology(4, phases, 2)  # validated when built

    def test_periodic_disconnected_union_rejected(self):
        phases = [[(0, 1), (2, 3)], [(0, 1), (2, 3)]]
        with pytest.raises(TopologyError):
            isb.PeriodicTopology(4, phases, 2)

    def test_periodic_needs_a_phase_and_a_window(self):
        with pytest.raises(TopologyError, match="at least one phase"):
            isb.PeriodicTopology(4, [], 1)
        with pytest.raises(TopologyError, match="window must be >= 1"):
            isb.PeriodicTopology(4, [ring_edges(4)], 0)

    def test_random_edges_deterministic_and_ring_guaranteed(self):
        topo = isb.RandomEdgeTopology(5, complete_edges(5), 0.3, 2, 7)
        again = isb.RandomEdgeTopology(5, complete_edges(5), 0.3, 2, 7)
        for k in range(20):
            assert np.array_equal(topo.adjacency(k), again.adjacency(k))
        ring = adjacency_from_edges(5, ring_edges(5))
        for k in range(10):
            union = np.zeros((5, 5), dtype=bool)
            for j in range(topo.window):
                union |= topo.adjacency(k + j)
            assert np.all(union[ring])

    def test_random_edges_require_ring_in_base(self):
        with pytest.raises(TopologyError):
            isb.RandomEdgeTopology(4, ((0, 1), (1, 2)), 0.5, 1)


class TestMarkovEngine:
    def test_single_agent_reduces_to_cyclic(self):
        prob = isb.make_quadratic_suite(1, 2, 0.0, isb.Box([-1, -1], [1, 1]),
                                        centers=[[0.3, -0.2]])
        topo = isb.StaticTopology(1, ())
        sched = isb.PowerLaw(0.5, 1.0)
        noise = isb.GaussianNoise(0.2)
        x0 = np.array([1.0, 1.0])
        mk = run_one(prob, noise, sched, isb.ChainOrder(topo, isb.EqualProbability()),
                     x0, 200, 8, stride=20)
        cy = run_one(prob, noise, sched, isb.RingOrder(prob.m), x0, 200, 8, stride=20)
        assert mk.final_x == cy.final_x
        assert np.array_equal(mk.f_vals, cy.f_vals)

    def test_zero_step_decouples_chain_from_iterate(self, quad_m5_box, ring5):
        tr = run_one(quad_m5_box, isb.GaussianNoise(0.5), ZeroStep(),
                     isb.ChainOrder(ring5, isb.EqualProbability()),
                     np.array([0.5, 0.5]), 300, 3, stride=1)
        assert tr.final_x == [0.5, 0.5]
        assert len(np.unique(tr.agents)) > 1  # the chain still moves

    def test_zero_ticks_gives_initial_row_only(self, quad_m5_box, ring5):
        tr = run_one(quad_m5_box, isb.NoNoise(), isb.Constant(0.1),
                     isb.ChainOrder(ring5, isb.EqualProbability()),
                     np.array([0.0, 0.0]), 0, 1)
        assert list(tr.ks) == [0]
        assert tr.agents.shape == (1,)

    def test_fixed_initial_agent(self, quad_m5_box, ring5):
        tr = run_one(quad_m5_box, isb.NoNoise(), isb.Constant(0.01),
                     isb.ChainOrder(ring5, isb.EqualProbability(), 3),
                     np.array([0.0, 0.0]), 0, 1)
        assert tr.agents[0] == 3

    def test_chain_sampled_before_gradient_at_current_iterate(self, quad_m5_box,
                                                              ring5):
        # instrumented order check: the subgradient call sees the pre-step
        # iterate, and the active agent matches the chain replayed offline
        seen = []
        tr = run_one(logging_problem(quad_m5_box, seen), isb.NoNoise(),
                     isb.Constant(0.05),
                     isb.ChainOrder(ring5, isb.EqualProbability()),
                     np.array([1.0, -0.5]), 50, 17, stride=1)
        # replay the chain: uniforms and transition rows are deterministic
        cum = np.cumsum(isb.ChainOrder(ring5, isb.EqualProbability()).matrices[0], axis=1)
        u0 = init_generator(17).random()
        agent = min(int(u0 * 5), 4)
        assert tr.agents[0] == agent
        from incsub.streams import chain_uniform_block
        xs_prev = quad_m5_box.feasible_set.project_many(np.array([[1.0, -0.5]]))
        for step, (xs_seen, agents_seen) in enumerate(seen):
            u = chain_uniform_block(17, step // 1024)[step % 1024]
            agent = next_from_uniform(cum[agent], u)
            assert agents_seen[0] == agent == tr.agents[step + 1]
            assert np.array_equal(xs_seen, xs_prev)  # gradient at x_k
            g = quad_m5_box.subgradient_for_agents(xs_prev, agents_seen)
            xs_prev = quad_m5_box.feasible_set.project_many(xs_prev - 0.05 * g)

    @pytest.mark.parametrize("noise", sorted(STEP_NOISES))
    @pytest.mark.parametrize("fset", sorted(STEP_SETS))
    def test_ticks_match_reference_draw_for_draw(self, ring5, fset, noise):
        # tick by tick and replication by replication, the batch engine's
        # iterates are bit for bit those of the one-step reference, given the
        # agents the engine drew
        problem = isb.make_quadratic_suite(5, 2, 1.0, STEP_SETS[fset], seed=42)
        noise, sched, seeds = STEP_NOISES[noise], isb.PowerLaw(1.0, 1.0), [11, 12]
        x0, ticks, log = np.array([1.0, 1.0]), 30, []
        traces = isb.run_batch(logging_problem(problem, log), noise, sched,
                               isb.ChainOrder(ring5, isb.EqualProbability()), x0,
                               ticks, seeds, stride=1)
        assert len(log) == ticks
        for r, (seed, tr) in enumerate(zip(seeds, traces)):
            stream = NoiseStream(noise, seed, 1, problem.n)
            z = problem.feasible_set.project_many(x0[None, :])
            expected = [z[0]]
            for k, (_, agents) in enumerate(log, start=1):
                eps = None if noise.is_zero else stream.draw(k)
                z = sub_step(problem, z, int(agents[r]), sched.step(k), eps)
                expected.append(z[0])
            engine = [xs[r] for xs, _ in log] + [np.array(tr.final_x)]
            assert [x.tobytes() for x in engine] == [x.tobytes() for x in expected]

    def test_visit_frequencies_near_uniform(self, quad_m5_box, ring5):
        # reduced-horizon version; the stated 1e6-tick +-0.01 band runs in
        # the acceptance suite on the shared heavy run
        ticks = 100_000
        tr = run_one(quad_m5_box, isb.NoNoise(), isb.Constant(0.01),
                     isb.ChainOrder(ring5, isb.EqualProbability()),
                     np.array([0.0, 0.0]), ticks, 5, stride=10_000)
        freq = np.array(tr.visit_counts) / (ticks + 1)
        assert np.all(np.abs(freq - 0.2) <= 0.02)

    def test_uniform_chain_converges_statistically(self):
        # complete graph + equal weights: every row is uniform; the method
        # becomes the randomized single-agent order and still converges
        prob = isb.make_quadratic_suite(4, 2, 0.5, isb.Box([-1, -1], [1, 1]),
                                        seed=3)
        topo = isb.StaticTopology(4, complete_edges(4))
        p = isb.ChainOrder(topo, isb.EqualProbability()).matrices[0]
        assert np.allclose(p, 0.25)
        traces = isb.run_batch(prob, isb.NoNoise(), isb.PowerLaw(1.0, 0.8),
                               isb.ChainOrder(topo, isb.EqualProbability()),
                               np.array([1.0, 1.0]), 20_000, list(range(10)),
                               stride=2000)
        gaps = [tr.running_inf[-1] - prob.optimum.f_star for tr in traces]
        assert np.median(gaps) <= 1e-3
        assert max(gaps) <= 1e-2

    def test_determinism_and_batch_lane_equality(self, quad_m5_box, regr_m5_box,
                                                 ring5):
        kwargs = dict(stride=25, tail_fraction=0.1)
        for prob in (quad_m5_box, regr_m5_box):
            x0 = np.resize([0.5, -0.5], prob.n)
            a = isb.run_batch(prob, isb.GaussianNoise(0.3), isb.PowerLaw(1.0, 0.8),
                              isb.ChainOrder(ring5, isb.MinEqualNeighbor()), x0, 250,
                              [31, 32], **kwargs)
            b = isb.run_batch(prob, isb.GaussianNoise(0.3), isb.PowerLaw(1.0, 0.8),
                              isb.ChainOrder(ring5, isb.MinEqualNeighbor()), x0, 250,
                              [31, 32], **kwargs)
            solo = run_one(prob, isb.GaussianNoise(0.3), isb.PowerLaw(1.0, 0.8),
                           isb.ChainOrder(ring5, isb.MinEqualNeighbor()), x0, 250, 32,
                           **kwargs)
            assert all(x.to_csv() == y.to_csv() for x, y in zip(a, b))
            assert a[1].to_csv() == solo.to_csv(), prob.name

    def test_every_iterate_feasible(self, quad_m5_box, ring5):
        tr = run_one(quad_m5_box, isb.GaussianNoise(1.0), isb.Constant(0.5),
                     isb.ChainOrder(ring5, isb.EqualProbability()),
                     np.array([1.0, 1.0]), 500, 9, stride=1)
        fset = quad_m5_box.feasible_set
        assert fset.contains(np.array(tr.final_x))
        # recorded objective values never undercut the constrained optimum
        assert np.all(tr.f_vals >= quad_m5_box.optimum.f_star - 1e-12)

    def test_validation_failure_aborts_before_running(self):
        # a topology validates itself when built, and the chain order every
        # distinct matrix of a periodic one, before any tick can run
        with pytest.raises(TopologyError):
            isb.StaticTopology(5, [(0, 1), (2, 3)])
        ring = isb.StaticTopology(5, ring_edges(5))
        with pytest.raises(SchemeViolationError, match="doubly stochastic"):
            isb.ChainOrder(ring, isb.WeightedMetropolisHastings([0.3, 0.7] * 2 + [0.5]))

    def test_time_varying_topology_runs(self, quad_m5_box):
        topo = isb.RandomEdgeTopology(5, complete_edges(5), 0.4, 2, 11)
        tr = run_one(quad_m5_box, isb.NoNoise(), isb.PowerLaw(1.0, 0.8),
                     isb.ChainOrder(topo, isb.MinEqualNeighbor()), np.array([1.0, 1.0]),
                     2000, 2, stride=200)
        assert tr.running_inf[-1] - quad_m5_box.optimum.f_star <= 1e-2
