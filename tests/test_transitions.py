"""The adjacency-array transition path against the naive per-neighbor
reference, draw for draw, the chunked (T, m, m) stacks against per-tick
builds, and the transition contract on both."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incsub as isb
import reference
from helpers import PerAgentFactors
from incsub.errors import SchemeViolationError
from incsub import markov
from incsub.markov import adjacency_from_edges, complete_edges, ring_edges
from incsub.streams import BLOCK, chain_uniform_block

TICKS = 40  # consecutive ticks compared per example


@st.composite
def schemes(draw):
    kind = draw(st.sampled_from(["equal", "min_equal", "weighted_mh"]))
    if kind == "weighted_mh":
        return isb.WeightedMetropolisHastings(draw(st.floats(0.05, 0.95)))
    return {"equal": isb.EqualProbability, "min_equal": isb.MinEqualNeighbor}[kind]()


def _chords(draw, m):
    chords = [e for e in complete_edges(m) if e not in set(ring_edges(m))]
    return draw(st.lists(st.sampled_from(chords), unique=True) if chords
                else st.just([]))


@st.composite
def random_edge_topologies(draw, m=None):
    m = draw(st.integers(2, 9)) if m is None else m
    base = draw(st.sampled_from(["complete", "ring_and_chords"]))
    edges = (complete_edges(m) if base == "complete"
             else ring_edges(m) + _chords(draw, m))
    return isb.RandomEdgeTopology(m, edges, draw(st.floats(0.0, 1.0)),
                                  draw(st.integers(1, 3)), draw(st.integers(0, 2**32)))


@st.composite
def topologies(draw):
    kind = draw(st.sampled_from(["static", "periodic", "random_edges"]))
    if kind == "random_edges":
        return draw(random_edge_topologies())
    m = draw(st.integers(2, 9))
    picked = _chords(draw, m)
    if kind == "static":
        return isb.PeriodicTopology(m, [ring_edges(m) + picked], 1)
    period = draw(st.integers(1, 3))
    # ring edges round-robin over the phases keep every window connected
    phases = [[e for i, e in enumerate(ring_edges(m)) if i % period == p]
              + picked[p::period] for p in range(period)]
    return isb.PeriodicTopology(m, phases, period)


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


def _matrix(order, k):
    """Tick k's matrix as the order holds it, or one build of that tick."""
    if order.matrices is not None:
        return order.matrices[k % order.topology.period]
    return isb.build_transition(order.scheme, order.topology.adjacencies(k, 1)[0])


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
        adj = topology.adjacencies(k, 1)[0]
        assert np.array_equal(adj, adjacency_from_edges(
            m, [(i, j) for i in range(m) for j in nb[i]]))
        built = isb.build_transition(scheme, adj)
        assert scheme.eta(adj.sum(axis=1)) == ref_eta
        assert np.array_equal(built[off], ref_p[off])
        assert np.all(np.abs(np.diag(built) - np.diag(ref_p))
                      <= _diagonal_slack(ref_p))

        p = _matrix(order, k)
        assert np.array_equal(p, built)
        cum = np.cumsum(p, axis=1)
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
    adj = topology.adjacencies(k, 1)[0]
    one = Fraction(1)
    deg = np.array([Fraction(int(d)) for d in adj.sum(axis=1)], dtype=object)
    p, eta = scheme.matrix(adj, deg, one), scheme.eta(deg, one)
    assert all(row.sum() == 1 for row in p)
    assert all(col.sum() == 1 for col in p.T)
    assert all(d > 0 for d in np.diag(p))
    assert not np.any((p != 0) & ~adj & ~np.eye(topology.m, dtype=bool))
    assert all(x >= eta for x in p[p != 0])
    assert scheme.eta(adj.sum(axis=1)) == float(eta)


@settings(max_examples=100, deadline=None)
@given(topology=topologies(), scheme=schemes(), k=st.integers(0, 3 * BLOCK),
       data=st.data())
def test_exact_rule_on_a_block_is_the_full_rules_block(topology, scheme, k, data):
    """The re-check evaluates the rule on the block of some rows and of
    their neighbours' columns only; there it equals the whole matrix."""
    adj = topology.adjacencies(k, 1)[0]
    m, one = topology.m, Fraction(1)
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1))))
    near = adj[rows].any(axis=0)
    near[rows] = True
    cols = np.flatnonzero(near)
    deg = adj.sum(axis=1)
    full = scheme.matrix(adj, np.array([Fraction(int(d)) for d in deg], dtype=object),
                         one)
    block = np.ix_(rows, cols)
    part = scheme.matrix(adj[block], deg.astype(object), one, rows, cols)
    assert part.tolist() == full[block].tolist()
    assert scheme.eta(deg.astype(object), one) == scheme.eta(
        np.array([Fraction(int(d)) for d in deg], dtype=object), one)


@settings(max_examples=150, deadline=None)
@given(topology=topologies().filter(lambda t: t.period is not None),
       start=st.integers(0, 3 * BLOCK), count=st.integers(1, 8))
def test_periodic_adjacencies_cycle_through_the_phases(topology, start, count):
    """Every tick of a run, across period boundaries too, and of a one-phase
    topology, is the graph of its phase."""
    m = topology.m
    adj = topology.adjacencies(start, count)
    assert adj.shape == (count, m, m) and adj.dtype == bool
    for t, k in enumerate(range(start, start + count)):
        phase = np.zeros((m, m), dtype=bool)
        for i, j in topology.phases[k % topology.period]:
            phase[i, j] = phase[j, i] = True
        assert np.array_equal(adj[t], phase)
        nb = reference.neighbors_at(topology, k)
        assert all(np.array_equal(np.flatnonzero(adj[t, i]), nb[i]) for i in range(m))


def test_period_counts_distinct_adjacencies():
    ring = ring_edges(4)
    assert isb.PeriodicTopology(4, [ring], 1).period == 1
    assert isb.PeriodicTopology(4, [ring[:2], ring[2:]], 2).period == 2
    assert isb.RandomEdgeTopology(4, complete_edges(4), 0.5, 1).period is None


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
        scheme = PerAgentFactors([0.3, 0.3, 0.5, 0.5])
        with pytest.raises(SchemeViolationError, match="column .* doubly stochastic"):
            isb.build_transition(scheme, adj)

    def test_weights_checked_at_construction(self):
        for weight in (0.0, 1.0, float("nan"), -0.5, 1.5):
            with pytest.raises(SchemeViolationError, match=r"strictly in \(0, 1\)"):
                isb.WeightedMetropolisHastings(weight)

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
        scheme = isb.EqualProbability()
        p, eta = isb.build_transition(scheme, adj), scheme.eta(adj.sum(axis=1))
        assert eta == 0.2
        assert np.diag(p).max() < eta
        assert np.all(np.diag(p) > eta - 1e-9)

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


# -- chunked stacks -----------------------------------------------------------

def _bits(a):
    return np.asarray(a).tobytes()


@settings(max_examples=100, deadline=None)
@given(topology=random_edge_topologies(), block=st.integers(0, 2),
       back=st.integers(0, 40), count=st.integers(1, 80))
def test_adjacencies_match_full_block_draws(topology, block, back, count):
    # the range starts up to 40 ticks before a block boundary, so it often
    # crosses one; the reference draws each tick's whole block
    start = max(block * BLOCK - back, 0)
    adj = topology.adjacencies(start, count)
    assert adj.shape == (count, topology.m, topology.m)
    assert np.array_equal(adj, reference.random_adjacencies(topology, start, count))
    assert all(np.array_equal(adj[t], topology.adjacencies(start + t, 1)[0])
               for t in range(count))


@settings(max_examples=100, deadline=None)
@given(topology=random_edge_topologies(), scheme=schemes(),
       start=st.integers(0, 3 * BLOCK), count=st.integers(1, 60))
def test_stacked_build_matches_per_tick_builds(topology, scheme, start, count):
    adj = topology.adjacencies(start, count)
    stack = isb.build_transition(scheme, adj)
    cum = np.cumsum(stack, axis=-1)
    floors = scheme.eta(adj.sum(axis=-1))  # one per tick, or one for all
    assert np.shape(floors) in ((count,), ())
    for t in range(count):
        tick = topology.adjacencies(start + t, 1)[0]
        p = isb.build_transition(scheme, tick)
        assert _bits(stack[t]) == _bits(p)
        assert np.broadcast_to(floors, count)[t] == scheme.eta(tick.sum(axis=1))
        assert _bits(cum[t]) == _bits(np.cumsum(p, axis=-1))


def _per_tick_walk(order, b, count, seeds, agents):
    """The agents of ``order.block``, from one build per tick."""
    uniforms = np.stack([chain_uniform_block(s, b) for s in seeds])
    m, walked = order.topology.m, []
    for off in range(count):
        cum = np.cumsum(isb.build_transition(
            order.scheme, order.topology.adjacencies(b * BLOCK + off, 1)[0]), axis=1)
        agents = np.minimum((uniforms[:, off, None] >= cum[agents]).sum(axis=1), m - 1)
        walked.append(agents)
    return walked


def _chunked_walk(order, counts, seeds):
    """The agents of consecutive blocks of ``counts`` ticks, walked by the
    order itself and tick by tick."""
    agents = ref_agents = order.start(order.topology.m, seeds)
    for b, count in enumerate(counts):
        plan, agents = order.block(b, count, seeds, agents)
        walked = _per_tick_walk(order, b, count, seeds, ref_agents)
        ref_agents = walked[-1]
        assert plan.shape == (count, len(seeds))
        assert all(np.array_equal(step, ref) for step, ref in zip(plan, walked))
    assert np.array_equal(agents, ref_agents)


@settings(max_examples=15, deadline=None)
@given(topology=random_edge_topologies(), scheme=schemes(),
       chunk=st.integers(1, 40), tail=st.integers(1, 100),
       seed=st.integers(0, 2**32))
def test_chunked_walk_matches_per_tick_walk(topology, scheme, chunk, tail, seed):
    # a small entry budget gives chunks of 1..40 ticks: a full block ends in
    # a partial chunk, and the run ends in a partial block
    m = topology.m
    with mock.patch.object(markov, "_CHUNK_ENTRIES", chunk * m * m):
        _chunked_walk(isb.ChainOrder(topology, scheme), [BLOCK, tail],
                      [seed, seed + 1, seed + 2])


@pytest.mark.parametrize("scheme", [isb.EqualProbability(), isb.MinEqualNeighbor(),
                                    isb.WeightedMetropolisHastings(0.5)])
def test_default_chunks_walk_like_per_tick_builds(scheme):
    # m = 50: chunks of 2**16 // 50**2 = 26 ticks, five of them and a
    # 10-tick one
    topology = isb.RandomEdgeTopology(50, complete_edges(50), 0.1, 2, 3)
    _chunked_walk(isb.ChainOrder(topology, scheme), [140], list(range(5)))


@pytest.mark.parametrize("kind", ["static", "periodic", "random_edges",
                                  "static_counted"])
def test_walk_clamps_above_a_row_total_below_one(kind):
    # `equal` on the complete graph with m = 10 has rows whose cumulative
    # sum ends at 1 - 2**-53; a uniform of 1 - 2**-53 lies at or above every
    # cumulative entry of such a row, and the walk still hands off to agent
    # 9, as the reference does.  Static and periodic chains look the agents
    # up in their table; random edges, and a static chain without a table
    # budget, count.
    m, u = 10, 1.0 - 2.0**-53
    complete = complete_edges(m)
    topology = {"static": isb.PeriodicTopology(m, [complete], 1),
                "static_counted": isb.PeriodicTopology(m, [complete], 1),
                "periodic": isb.PeriodicTopology(m, [complete] * 2, 2),
                "random_edges": isb.RandomEdgeTopology(m, complete, 1.0, 1, 2)}[kind]
    budget = 0 if kind == "static_counted" else markov._CHUNK_ENTRIES
    with mock.patch.object(markov, "_CHUNK_ENTRIES", budget):
        order = isb.ChainOrder(topology, isb.EqualProbability())
    assert (order._table is not None) == (kind in ("static", "periodic"))
    ticks = 3
    for k in range(ticks):
        cum = np.cumsum(_matrix(order, k), axis=1)
        assert (cum[:, -1] == u).any()
        assert [reference.next_from_uniform(row, u) for row in cum] == [m - 1] * m
    with mock.patch.object(markov, "chain_uniform_block",
                           lambda seed, block: np.full(BLOCK, u)):
        plan, agents = order.block(0, ticks, list(range(m)), np.arange(m))
    assert plan.tolist() == [[m - 1] * m] * ticks
    assert agents.tolist() == [m - 1] * m


def _period_walks(topology, scheme, uniforms, b, count):
    """The agents of block b's first ``count`` ticks from every start agent,
    replication r starting at agent r with ``uniforms[r]`` as its chain
    uniforms: the order's table walk, its count walk (no table budget), and
    the reference's per-tick search."""
    m = topology.m
    tabulated = isb.ChainOrder(topology, scheme)
    with mock.patch.object(markov, "_CHUNK_ENTRIES", 0):
        counted = isb.ChainOrder(topology, scheme)
    assert tabulated._table is not None and counted._table is None
    seeds, start = list(range(m)), np.arange(m)
    with mock.patch.object(markov, "chain_uniform_block",
                           lambda seed, block: uniforms[seed]):
        walks = [order.block(b, count, seeds, start) for order in (tabulated, counted)]
    agents, expected = list(range(m)), []
    for off in range(count):
        p = isb.build_transition(scheme, topology.adjacencies(b * BLOCK + off, 1)[0])
        cum = np.cumsum(p, axis=1)
        agents = [reference.next_from_uniform(cum[a], uniforms[r][off])
                  for r, a in enumerate(agents)]
        expected.append(agents)
    return walks, expected


@settings(max_examples=60, deadline=None)
@given(topology=topologies().filter(lambda t: t.period is not None),
       scheme=schemes(), b=st.integers(0, 3), count=st.integers(1, 12),
       data=st.data())
def test_table_walk_matches_count_walk_and_reference(topology, scheme, b, count,
                                                     data):
    # block b starts at tick 1024 b, so with periods 2 and 3 its ticks start
    # in every phase and cross phase boundaries; the uniforms include 0, the
    # breakpoints themselves and the largest uniform below 1
    m = topology.m
    breaks = np.cumsum(isb.ChainOrder(topology, scheme).matrices[..., :-1], axis=-1)
    special = st.sampled_from([0.0, 1.0 - 2.0**-53, *breaks.ravel().tolist()])
    draws = data.draw(st.lists(
        st.one_of(special, st.floats(0.0, 1.0, exclude_max=True)),
        min_size=m * count, max_size=m * count))
    uniforms = np.full((m, BLOCK), 0.5)
    uniforms[:, :count] = np.reshape(draws, (m, count))
    walks, expected = _period_walks(topology, scheme, uniforms, b, count)
    for plan, agents in walks:
        assert plan.tolist() == expected
        assert agents.tolist() == expected[-1]


def test_period_chain_over_the_table_budget_counts():
    # min_equal on a ring plus a third of the chords at m = 100 has
    # thousands of distinct cumulative values: its table would exceed the
    # entry budget, so the chain counts, and gives the table's agents
    m = 100
    rng = np.random.default_rng(0)
    chords = [e for e in complete_edges(m) if e not in set(ring_edges(m))]
    picked = [chords[i] for i in rng.choice(len(chords), len(chords) // 3,
                                            replace=False)]
    topology = isb.PeriodicTopology(m, [ring_edges(m) + picked], 1)
    scheme = isb.MinEqualNeighbor()
    order = isb.ChainOrder(topology, scheme)
    values = np.unique(np.cumsum(order.matrices[..., :-1], axis=-1))
    size = m * (len(values) + 1)
    assert size > markov._CHUNK_ENTRIES and order._table is None
    with mock.patch.object(markov, "_CHUNK_ENTRIES", size - 1):
        assert isb.ChainOrder(topology, scheme)._table is None
    with mock.patch.object(markov, "_CHUNK_ENTRIES", size):
        tabulated = isb.ChainOrder(topology, scheme)
    assert tabulated._table is not None
    seeds = [5, 6, 7]
    agents = table_agents = order.start(m, seeds)
    for b, count in enumerate([BLOCK, 300]):
        plan, agents = order.block(b, count, seeds, agents)
        table_plan, table_agents = tabulated.block(b, count, seeds, table_agents)
        assert np.array_equal(plan, table_plan)
    assert np.array_equal(agents, table_agents)
    uniforms = np.random.default_rng(1).random((m, BLOCK))
    with mock.patch.object(markov, "_CHUNK_ENTRIES", size):
        walks, expected = _period_walks(topology, scheme, uniforms, 0, 20)
    assert [plan.tolist() for plan, _ in walks] == [expected, expected]


class TestStackedValidation:
    """A stack raises the message of its first failing tick's first failing
    check, the same message that tick raises alone."""

    M = 4
    # (name, corruption of one tick's (p, adj, eta), that tick's message)
    CORRUPTIONS = [
        ("self_loop", lambda p, adj: adj.__setitem__((2, 2), True),
         "agent 2 lists itself as a neighbor"),
        ("asymmetric", lambda p, adj: adj.__setitem__((3, 1), False),
         "asymmetric neighbors: 3 in N_1 but 1 not in N_3"),
        ("nan", lambda p, adj: p.__setitem__((0, 1), np.nan),
         "entries must lie in [0, 1]"),
        ("row_sum", lambda p, adj: p.__setitem__((1, 1), 0.35),
         "row 1 sums to 1.1, not 1"),
        ("column_sum", lambda p, adj: p.__setitem__((2, slice(2, 4)), [0.35, 0.15]),
         "column 2 sums to 1.1, not 1 (matrix is not doubly stochastic)"),
        ("diagonal", lambda p, adj: p.__setitem__(..., (1 - np.eye(4)) / 3),
         "agent 0 has non-positive self probability"),
        ("stray", lambda p, adj: adj.__setitem__(([0, 2], [2, 0]), False),
         "entry (0, 2) is positive but 2 is not a neighbor of 0"),
    ]

    def _base(self, ticks):
        """``ticks`` copies of the uniform chain on the complete graph."""
        adj = np.repeat(adjacency_from_edges(self.M, complete_edges(self.M))[None],
                        ticks, axis=0)
        return np.full((ticks, self.M, self.M), 0.25), adj, np.full(ticks, 0.25)

    @pytest.mark.parametrize("name, corrupt, message", CORRUPTIONS,
                             ids=[c[0] for c in CORRUPTIONS])
    def test_a_tick_raises_its_own_message(self, name, corrupt, message):
        p, adj, eta = self._base(9)
        corrupt(p[5], adj[5])
        with pytest.raises(SchemeViolationError) as alone:
            isb.validate_transition(p[5], adj[5], 0.25)
        assert str(alone.value) == message
        with pytest.raises(SchemeViolationError) as stacked:
            isb.validate_transition(p, adj, eta)
        assert str(stacked.value) == message

    @pytest.mark.parametrize("early", range(len(CORRUPTIONS)),
                             ids=[c[0] for c in CORRUPTIONS])
    @pytest.mark.parametrize("late", range(len(CORRUPTIONS)),
                             ids=[c[0] for c in CORRUPTIONS])
    def test_first_failing_tick_wins(self, early, late):
        # tick 3 fails check ``early``, tick 7 fails check ``late``: tick
        # 3's message is raised whichever check comes first in the contract
        p, adj, eta = self._base(10)
        self.CORRUPTIONS[early][1](p[3], adj[3])
        self.CORRUPTIONS[late][1](p[7], adj[7])
        with pytest.raises(SchemeViolationError) as exc:
            isb.validate_transition(p, adj, eta)
        assert str(exc.value) == self.CORRUPTIONS[early][2]

    def test_a_ticks_first_failing_check_wins(self):
        p, adj, eta = self._base(4)
        adj[2, [0, 2], [2, 0]] = False  # stray entry (0, 2)
        adj[2, 1, 1] = True  # and a self-loop, an earlier check
        eta[1] = 0.3  # tick 1: every entry below its floor
        with pytest.raises(SchemeViolationError,
                           match=r"^entry \(0,0\) = 0.25 is below the scheme floor 0.3$"):
            isb.validate_transition(p, adj, eta)
        eta[1] = 0.25
        with pytest.raises(SchemeViolationError,
                           match="^agent 1 lists itself as a neighbor$"):
            isb.validate_transition(p, adj, eta)

    def test_borderline_tick_in_a_stack_passes_the_exact_check(self):
        # tick 1 is the complete graph on 5 agents: its float diagonal
        # 1 - 4/5 rounds to just below the floor 1/5, the exact one equals it
        ring = adjacency_from_edges(5, ring_edges(5))
        adj = np.array([ring, adjacency_from_edges(5, complete_edges(5)), ring])
        scheme = isb.EqualProbability()
        p, eta = isb.build_transition(scheme, adj), scheme.eta(adj.sum(axis=-1))
        assert list(np.broadcast_to(eta, 3)) == [0.2, 0.2, 0.2]
        assert np.diag(p[1]).max() < 0.2
        # without the scheme there is no exact re-check, and tick 1 fails
        with pytest.raises(SchemeViolationError,
                           match=r"^entry \(0,0\) = 0.19999999999999996 is below "
                                 r"the scheme floor 0.2$"):
            isb.validate_transition(p, adj, eta)
        # a later tick's failure is still found past the re-checked tick
        bad = adj.copy()
        bad[2, 0, 0] = True
        with pytest.raises(SchemeViolationError,
                           match="^agent 0 lists itself as a neighbor$"):
            isb.validate_transition(p, bad, eta, scheme)

    def test_stack_shapes_must_match(self):
        p, adj, eta = self._base(3)
        with pytest.raises(SchemeViolationError, match="does not match adjacency shape"):
            isb.validate_transition(p[:2], adj, eta)
