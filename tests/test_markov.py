import numpy as np
import pytest

import incsub as isb
from helpers import CallbackFamily, random_symmetric_topology
from incsub.errors import SchemeViolationError, TopologyError
from incsub.markov import (_TransitionProvider, adjacency_from_edges,
                           path_edges, ring_edges)
from incsub.streams import init_generator
from reference import next_from_uniform, sample_next_agent


class ZeroStep:
    def step(self, k):
        return 0.0

    def steps(self, start, count):
        return np.zeros(count)




class TestTransitionSchemes:
    def test_equal_probability_complete_graph(self):
        nb = adjacency_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        tm = isb.build_transition(isb.EqualProbability(), nb)
        assert np.allclose(tm.entries, np.full((3, 3), 1 / 3))
        assert tm.eta == pytest.approx(1 / 3)

    def test_min_equal_two_agents(self):
        nb = adjacency_from_edges(2, [(0, 1)])
        tm = isb.build_transition(isb.MinEqualNeighbor(), nb)
        assert np.allclose(tm.entries, [[0.5, 0.5], [0.5, 0.5]])

    def test_equal_probability_path(self):
        nb = adjacency_from_edges(3, path_edges(3))
        tm = isb.build_transition(isb.EqualProbability(), nb)
        expect = np.array([[2 / 3, 1 / 3, 0.0],
                           [1 / 3, 1 / 3, 1 / 3],
                           [0.0, 1 / 3, 2 / 3]])
        assert np.allclose(tm.entries, expect)
        assert np.allclose(tm.entries.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(tm.entries.sum(axis=1), 1.0, atol=1e-12)

    def test_weighted_mh_ring(self):
        nb = adjacency_from_edges(4, ring_edges(4))
        tm = isb.build_transition(isb.WeightedMetropolisHastings(0.5), nb)
        assert np.allclose(tm.entries.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(np.diag(tm.entries), 0.5)
        assert tm.eta == pytest.approx(0.25)

    @pytest.mark.parametrize("scheme", [isb.EqualProbability(),
                                        isb.MinEqualNeighbor(),
                                        isb.WeightedMetropolisHastings(0.37)])
    def test_schemes_valid_on_random_topologies(self, scheme):
        rng = np.random.default_rng(99)
        for _ in range(200):
            m, edges = random_symmetric_topology(rng)
            tm = isb.build_transition(scheme, adjacency_from_edges(m, edges))
            # build_transition already validates; re-assert the key facts
            p = tm.entries
            assert np.allclose(p.sum(axis=0), 1.0, atol=1e-12)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(np.diag(p) > 0)
            assert np.all(p[p > 0] >= tm.eta - 1e-15)

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
        tm = isb.TransitionMatrix(np.eye(3), 1.0)
        rng = np.random.default_rng(0)
        assert all(sample_next_agent(tm, 1, rng) == 1 for _ in range(100))

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
        topo = isb.make_topology("static", 4, graph="ring")
        topo.validate()
        assert topo.window == 1

    def test_disconnected_static_rejected(self):
        with pytest.raises(TopologyError):
            isb.make_topology("static", 4, edges=[(0, 1), (2, 3)])

    def test_periodic_matchings_connect_over_window(self):
        phases = [[(0, 1), (2, 3)], [(1, 2), (0, 3)]]
        topo = isb.make_topology("periodic", 4, phases=phases, window=2)
        topo.validate()

    def test_periodic_disconnected_union_rejected(self):
        phases = [[(0, 1), (2, 3)], [(0, 1), (2, 3)]]
        with pytest.raises(TopologyError):
            isb.make_topology("periodic", 4, phases=phases, window=2)

    def test_random_edges_deterministic_and_ring_guaranteed(self):
        topo = isb.make_topology("random_edges", 5, base="complete",
                                 inclusion_prob=0.3, window=2, seed=7)
        again = isb.make_topology("random_edges", 5, base="complete",
                                  inclusion_prob=0.3, window=2, seed=7)
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
        mk = isb.run_markov(prob, noise, sched, topo, isb.EqualProbability(),
                            x0, 200, seed=8, stride=20)
        cy = isb.run_cyclic(prob, noise, sched, x0, 200, seed=8, stride=20)
        assert mk.meta["final_x"] == cy.meta["final_x"]
        assert np.array_equal(mk.f_vals, cy.f_vals)

    def test_zero_step_decouples_chain_from_iterate(self, quad_m5_box, ring5):
        tr = isb.run_markov(quad_m5_box, isb.GaussianNoise(0.5), ZeroStep(),
                            ring5, isb.EqualProbability(),
                            np.array([0.5, 0.5]), 300, seed=3, stride=1)
        assert tr.meta["final_x"] == [0.5, 0.5]
        assert len(np.unique(tr.agents)) > 1  # the chain still moves

    def test_zero_ticks_gives_initial_row_only(self, quad_m5_box, ring5):
        tr = isb.run_markov(quad_m5_box, isb.NoNoise(), isb.Constant(0.1),
                            ring5, isb.EqualProbability(),
                            np.array([0.0, 0.0]), 0, seed=1)
        assert list(tr.ks) == [0]
        assert tr.agents.shape == (1,)

    def test_fixed_initial_agent(self, quad_m5_box, ring5):
        tr = isb.run_markov(quad_m5_box, isb.NoNoise(), isb.Constant(0.01),
                            ring5, isb.EqualProbability(),
                            np.array([0.0, 0.0]), 0, seed=1, s0=3)
        assert tr.agents[0] == 3

    def test_chain_sampled_before_gradient_at_current_iterate(self, quad_m5_box,
                                                              ring5):
        # instrumented order check: the subgradient call sees the pre-step
        # iterate, and the active agent matches the chain replayed offline
        seen = []
        inner = quad_m5_box.family

        def recording(xs, agents):
            seen.append((xs.copy(), np.array(agents, copy=True)))
            return inner.subgradient_many(xs, agents)

        prob = isb.ProblemInstance(
            CallbackFamily(inner.n, inner.bounds, inner.evaluate_many, recording),
            quad_m5_box.feasible_set, quad_m5_box.optimum)
        tr = isb.run_markov(prob, isb.NoNoise(), isb.Constant(0.05), ring5,
                            isb.EqualProbability(), np.array([1.0, -0.5]),
                            50, seed=17, stride=1)
        # replay the chain: uniforms and transition rows are deterministic
        provider = _TransitionProvider(ring5, isb.EqualProbability())
        _, cum = provider.at(0)
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

    def test_visit_frequencies_near_uniform(self, quad_m5_box, ring5):
        # reduced-horizon version; the stated 1e6-tick +-0.01 band runs in
        # the acceptance suite on the shared heavy run
        tr = isb.run_markov(quad_m5_box, isb.NoNoise(), isb.Constant(0.01),
                            ring5, isb.EqualProbability(),
                            np.array([0.0, 0.0]), 100_000, seed=5, stride=10_000)
        freq = np.array(tr.meta["visit_counts"]) / (tr.meta["horizon"] + 1)
        assert np.all(np.abs(freq - 0.2) <= 0.02)

    def test_uniform_chain_converges_statistically(self):
        # complete graph + equal weights: every row is uniform; the method
        # becomes the randomized single-agent order and still converges
        prob = isb.make_quadratic_suite(4, 2, 0.5, isb.Box([-1, -1], [1, 1]),
                                        seed=3)
        topo = isb.make_topology("static", 4, graph="complete")
        provider = _TransitionProvider(topo, isb.EqualProbability())
        p, _ = provider.at(0)
        assert np.allclose(p, 0.25)
        traces = isb.run_markov_batch(prob, isb.NoNoise(), isb.PowerLaw(1.0, 0.8),
                                      topo, isb.EqualProbability(),
                                      np.array([1.0, 1.0]), 20_000,
                                      list(range(10)), stride=2000)
        gaps = [tr.running_inf[-1] - prob.optimum.f_star for tr in traces]
        assert np.median(gaps) <= 1e-3
        assert max(gaps) <= 1e-2

    def test_determinism_and_batch_lane_equality(self, quad_m5_box, regr_m5_box,
                                                 ring5):
        kwargs = dict(stride=25, tail_fraction=0.1)
        for prob in (quad_m5_box, regr_m5_box):
            x0 = np.resize([0.5, -0.5], prob.n)
            a = isb.run_markov_batch(prob, isb.GaussianNoise(0.3),
                                     isb.PowerLaw(1.0, 0.8), ring5,
                                     isb.MinEqualNeighbor(), x0,
                                     250, [31, 32], **kwargs)
            b = isb.run_markov_batch(prob, isb.GaussianNoise(0.3),
                                     isb.PowerLaw(1.0, 0.8), ring5,
                                     isb.MinEqualNeighbor(), x0,
                                     250, [31, 32], **kwargs)
            solo = isb.run_markov(prob, isb.GaussianNoise(0.3),
                                  isb.PowerLaw(1.0, 0.8), ring5,
                                  isb.MinEqualNeighbor(), x0, 250, 32, **kwargs)
            assert all(x.to_csv() == y.to_csv() for x, y in zip(a, b))
            assert a[1].to_csv() == solo.to_csv(), prob.name

    def test_every_iterate_feasible(self, quad_m5_box, ring5):
        tr = isb.run_markov(quad_m5_box, isb.GaussianNoise(1.0),
                            isb.Constant(0.5), ring5, isb.EqualProbability(),
                            np.array([1.0, 1.0]), 500, seed=9, stride=1)
        fset = quad_m5_box.feasible_set
        assert fset.contains(np.array(tr.meta["final_x"]))
        # recorded objective values never undercut the constrained optimum
        assert np.all(tr.f_vals >= quad_m5_box.optimum.f_star - 1e-12)

    def test_validation_failure_aborts_before_running(self, quad_m5_box):
        disconnected = isb.StaticTopology(5, ((0, 1), (2, 3)))
        with pytest.raises(TopologyError):
            isb.run_markov(quad_m5_box, isb.NoNoise(), isb.Constant(0.1),
                           disconnected, isb.EqualProbability(),
                           np.array([0.0, 0.0]), 10, seed=0)

    def test_time_varying_topology_runs(self, quad_m5_box):
        topo = isb.make_topology("random_edges", 5, base="complete",
                                 inclusion_prob=0.4, window=2, seed=11)
        tr = isb.run_markov(quad_m5_box, isb.NoNoise(), isb.PowerLaw(1.0, 0.8),
                            topo, isb.MinEqualNeighbor(), np.array([1.0, 1.0]),
                            2000, seed=2, stride=200)
        assert tr.running_inf[-1] - quad_m5_box.optimum.f_star <= 1e-2
