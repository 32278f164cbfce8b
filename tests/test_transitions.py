"""The adjacency-array transition path against the naive per-neighbor
reference, draw for draw, and the transition contract on that path."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incsub as isb
import reference
from incsub.errors import SchemeViolationError
from incsub.markov import adjacency_from_edges, complete_edges, ring_edges
from incsub.streams import BLOCK, chain_uniform_block

TICKS = 40  # consecutive ticks compared per example


@st.composite
def schemes(draw):
    kind = draw(st.sampled_from(["equal", "min_equal", "weighted_mh"]))
    if kind == "weighted_mh":
        return isb.WeightedMetropolisHastings(draw(st.floats(0.05, 0.95)))
    return isb.make_scheme(kind)


@st.composite
def topologies(draw):
    m = draw(st.integers(2, 9))
    chords = [e for e in complete_edges(m) if e not in set(ring_edges(m))]
    picked = draw(st.lists(st.sampled_from(chords), unique=True) if chords
                  else st.just([]))
    kind = draw(st.sampled_from(["static", "periodic", "random_edges"]))
    if kind == "static":
        return isb.make_topology("static", m, edges=ring_edges(m) + picked)
    if kind == "periodic":
        period = draw(st.integers(1, 3))
        # ring edges round-robin over the phases keep every window connected
        phases = [[e for i, e in enumerate(ring_edges(m)) if i % period == p]
                  + picked[p::period] for p in range(period)]
        return isb.make_topology("periodic", m, phases=phases, window=period)
    base = draw(st.sampled_from(["complete", "ring_and_chords"]))
    return isb.make_topology(
        "random_edges", m,
        base="complete" if base == "complete" else ring_edges(m) + picked,
        inclusion_prob=draw(st.floats(0.0, 1.0)),
        window=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32)))


def _diagonal_slack(ref_p):
    """How far the diagonal 1 - s may move when the row's hand-off mass s,
    a sum of d positive entries, is added up in another order: each order
    is off by at most (d - 1) unit roundoffs of s, so the two differ by at
    most 2 (d - 1) ulps of s; the final subtraction adds one ulp of the
    diagonal."""
    hand_off = ref_p * ~np.eye(len(ref_p), dtype=bool)
    s = hand_off.sum(axis=1)
    d = np.count_nonzero(hand_off, axis=1)
    return 2 * np.maximum(d - 1, 0) * np.spacing(s) + np.spacing(np.diag(ref_p))


@settings(max_examples=150, deadline=None)
@given(topology=topologies(), scheme=schemes(),
       start=st.integers(0, 3 * BLOCK), chain_seed=st.integers(0, 2**32))
def test_adjacency_path_matches_neighbor_list_reference(topology, scheme, start,
                                                        chain_seed):
    m = topology.m
    order = isb.ChainOrder(topology, scheme)
    uniforms = chain_uniform_block(chain_seed, 0)
    off = ~np.eye(m, dtype=bool)
    agents = ref_agents = np.arange(m)  # one chain started at every agent
    for t, k in enumerate(range(start, start + TICKS)):
        nb = reference.neighbors_at(topology, k)
        ref_p, ref_eta = reference.build(scheme, nb)
        adj = topology.adjacency(k)
        assert np.array_equal(adj, adjacency_from_edges(
            m, [(i, j) for i in range(m) for j in nb[i]]))
        tm = isb.build_transition(scheme, adj)
        assert tm.eta == ref_eta
        assert np.array_equal(tm.entries[off], ref_p[off])
        assert np.all(np.abs(np.diag(tm.entries) - np.diag(ref_p))
                      <= _diagonal_slack(ref_p))

        p, cum = order.transition(k)
        assert np.array_equal(p, tm.entries)
        u = uniforms[t]
        agents = np.minimum((u >= cum[agents]).sum(axis=1), m - 1)
        ref_cum = np.cumsum(ref_p, axis=1)
        ref_agents = np.minimum((u >= ref_cum[ref_agents]).sum(axis=1), m - 1)
        assert np.array_equal(agents, ref_agents)


@settings(max_examples=150, deadline=None)
@given(topology=topologies(), scheme=schemes(), k=st.integers(0, 3 * BLOCK))
def test_exact_rule_meets_the_contract(topology, scheme, k):
    """The float path's re-check trusts each rule evaluated in Fractions to
    be doubly stochastic with every positive entry at its floor or above."""
    adj = topology.adjacency(k)
    one = Fraction(1)
    deg = np.array([Fraction(int(d)) for d in adj.sum(axis=1)], dtype=object)
    p, eta = scheme.matrix(adj, deg, one), scheme.eta(deg, one)
    assert all(row.sum() == 1 for row in p)
    assert all(col.sum() == 1 for col in p.T)
    assert all(d > 0 for d in np.diag(p))
    assert not np.any((p != 0) & ~adj & ~np.eye(topology.m, dtype=bool))
    assert all(x >= eta for x in p[p != 0])
    assert isb.build_transition(scheme, adj).eta == float(eta)


def test_period_counts_distinct_adjacencies():
    ring = ring_edges(4)
    assert isb.make_topology("static", 4, edges=ring).period == 1
    assert isb.make_topology("periodic", 4, phases=[ring[:2], ring[2:]],
                             window=2).period == 2
    assert isb.make_topology("random_edges", 4, base="complete",
                             inclusion_prob=0.5).period is None


class TestContractOnAdjacencyPath:
    """Each violation is still raised when the input is an adjacency array."""

    @pytest.mark.parametrize("scheme", [isb.EqualProbability(),
                                        isb.MinEqualNeighbor(),
                                        isb.WeightedMetropolisHastings(0.4)])
    def test_self_loop(self, scheme):
        adj = adjacency_from_edges(4, ring_edges(4))
        adj[2, 2] = True
        with pytest.raises(SchemeViolationError, match="agent 2 lists itself"):
            isb.build_transition(scheme, adj)

    @pytest.mark.parametrize("scheme", [isb.EqualProbability(),
                                        isb.MinEqualNeighbor(),
                                        isb.WeightedMetropolisHastings(0.4)])
    def test_asymmetric_adjacency(self, scheme):
        adj = adjacency_from_edges(5, ring_edges(5))
        adj[1, 3] = True  # 3 in N_1 but 1 not in N_3
        with pytest.raises(SchemeViolationError,
                           match="asymmetric neighbors: 3 in N_1 but 1 not in N_3"):
            isb.build_transition(scheme, adj)

    def test_mismatched_weighted_mh_factors(self):
        adj = adjacency_from_edges(4, ring_edges(4))
        scheme = isb.WeightedMetropolisHastings([0.3, 0.3, 0.5, 0.5])
        with pytest.raises(SchemeViolationError, match="column .* doubly stochastic"):
            isb.build_transition(scheme, adj)

    def test_weight_count_must_match_agents(self):
        adj = adjacency_from_edges(4, ring_edges(4))
        with pytest.raises(SchemeViolationError, match="one weight per agent"):
            isb.build_transition(isb.WeightedMetropolisHastings([0.5] * 3), adj)

    def test_weights_checked_at_construction(self):
        with pytest.raises(SchemeViolationError, match=r"strictly in \(0, 1\)"):
            isb.WeightedMetropolisHastings([0.5, 1.0])

    def test_sub_floor_entry(self):
        adj = adjacency_from_edges(3, ring_edges(3))
        scheme = isb.EqualProbability()
        p = scheme.matrix(adj, adj.sum(axis=1))
        with pytest.raises(SchemeViolationError, match="below the scheme floor"):
            isb.validate_transition(p, adj, 0.5, scheme)

    def test_borderline_entry_accepted_by_exact_check(self):
        # complete graph on 5 agents: the float diagonal 1 - 4/5 rounds to
        # just below the floor 1/5, while the exact diagonal equals it
        adj = adjacency_from_edges(5, complete_edges(5))
        tm = isb.build_transition(isb.EqualProbability(), adj)
        assert tm.eta == 0.2
        assert np.diag(tm.entries).max() < tm.eta
        assert np.all(np.diag(tm.entries) > tm.eta - 1e-9)

    def test_nan_entry(self):
        adj = adjacency_from_edges(2, [(0, 1)])
        p = np.array([[0.5, np.nan], [0.5, 0.5]])
        with pytest.raises(SchemeViolationError, match=r"\[0, 1\]"):
            isb.validate_transition(p, adj, 0.1)

    def test_positive_entry_off_the_pattern(self):
        adj = adjacency_from_edges(3, [(0, 1), (1, 2)])
        p = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        with pytest.raises(SchemeViolationError,
                           match=r"\(0, 2\) is positive but 2 is not a neighbor of 0"):
            isb.validate_transition(p, adj, 0.1)
