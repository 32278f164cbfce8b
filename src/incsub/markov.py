"""Randomized order over time-varying topologies, and its transition matrices.

At each tick one agent holds the iterate; it applies a projected noisy
subgradient step on its own component and hands the iterate to a neighbor
drawn from the current transition matrix row.  The agent sequence is a
time-varying Markov chain whose matrices are built from the instantaneous
neighbor structure by one of three weight schemes, all of which produce
doubly stochastic matrices with positive diagonals and entries bounded
away from zero.  :class:`ChainOrder` draws that sequence for the shared
step loop, :func:`incsub.engine.run_batch`.

Conventions: agents are 0-indexed; entry (i, j) of a transition matrix is
the probability of handing off from agent i to agent j.  Neighbor sets
never contain the agent itself (staying put is the diagonal mass).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatchError, SchemeViolationError, TopologyError
from .streams import (BLOCK, DOMAIN_TOPOLOGY, block_generator,
                      chain_uniform_block, init_generator)

_STOCHASTIC_TOL = 1e-12


# -- graphs ------------------------------------------------------------------

def ring_edges(m):
    if m < 2:
        return []
    edges = [(i, i + 1) for i in range(m - 1)]
    edges.append((0, m - 1))
    return sorted(set(edges))


def path_edges(m):
    return [(i, i + 1) for i in range(m - 1)]


def complete_edges(m):
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def adjacency_from_edges(m, edges):
    """Symmetric ``(m, m)`` boolean adjacency of an undirected edge list."""
    e = np.asarray(edges, dtype=int).reshape(-1, 2)
    bad = (e[:, 0] == e[:, 1]) | ((e < 0) | (e >= m)).any(axis=1)
    if bad.any():
        i, j = e[np.argmax(bad)]
        if i == j:
            raise TopologyError(f"self-loop ({i},{i}) not allowed in a neighbor graph")
        raise TopologyError(f"edge ({i},{j}) outside agent range [0, {m})")
    adj = np.zeros((m, m), dtype=bool)
    adj[e[:, 0], e[:, 1]] = True
    adj[e[:, 1], e[:, 0]] = True
    return adj


def _connected(adj):
    seen = np.zeros(len(adj), dtype=bool)
    seen[:1] = True
    frontier = seen
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def _frozen(adj):
    adj.flags.writeable = False
    return adj


def _max_degree(adj):
    return int(adj.sum(axis=-1).max(initial=0))


# -- topology sequences -------------------------------------------------------
#
# Every topology serves each instant k as an (m, m) boolean adjacency
# matrix: entry (i, j) is true when j is a neighbor of i.  The matrix is
# symmetric with a false diagonal (staying put is the diagonal mass of the
# transition matrix, not an edge).  Its ``period`` is the number of distinct
# adjacencies it serves, repeating every ``period`` ticks, or None when each
# tick may differ.

@dataclass(frozen=True)
class StaticTopology:
    """Fixed neighbor structure; the union over any window is the graph itself."""

    m: int
    edges: tuple
    window: int = 1
    period = 1

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(set(map(tuple, self.edges)))))
        object.__setattr__(self, "_adjacency",
                           _frozen(adjacency_from_edges(self.m, self.edges)))

    def adjacency(self, k):
        return self._adjacency

    def max_degree(self):
        return _max_degree(self._adjacency)

    def validate(self):
        if not _connected(self._adjacency):
            raise TopologyError("static topology must be a connected graph")


@dataclass(frozen=True)
class PeriodicTopology:
    """Cycles through a fixed list of graphs; window Q must connect every
    union of Q consecutive phases."""

    m: int
    phases: tuple  # tuple of edge tuples
    window: int

    def __post_init__(self):
        phases = tuple(tuple(sorted(set(map(tuple, p)))) for p in self.phases)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "_adjacency", _frozen(np.array(
            [adjacency_from_edges(self.m, p) for p in phases], dtype=bool)))

    @property
    def period(self):
        return len(self.phases)

    def adjacency(self, k):
        return self._adjacency[k % self.period]

    def max_degree(self):
        return _max_degree(self._adjacency)

    def validate(self):
        if self.window < 1:
            raise TopologyError("window must be >= 1")
        for k in range(self.period):
            phases = [(k + j) % self.period for j in range(self.window)]
            if not _connected(self._adjacency[phases].any(axis=0)):
                raise TopologyError(
                    f"union of phases over window starting at {k} is not connected")


@dataclass(frozen=True)
class RandomEdgeTopology:
    """Random subgraphs of a base graph with a structural connectivity floor.

    The base graph must contain a Hamiltonian ring over 0..m-1; the ring's
    edges are partitioned round-robin into ``window`` groups and group
    (k mod window) is always present at tick k, so every window's union
    contains the full ring and is connected by construction.  Every other
    base edge is included independently with ``inclusion_prob``, realized
    deterministically from ``seed`` and the tick index: optional edge j (in
    sorted order) is present at tick k when column j of the tick's row of
    topology-domain uniforms is below ``inclusion_prob``.
    """

    m: int
    base_edges: tuple
    inclusion_prob: float
    window: int
    seed: int = 0
    period = None  # every tick may differ

    def __post_init__(self):
        base = tuple(sorted(set(map(tuple, self.base_edges))))
        ring = set(ring_edges(self.m))
        if not ring <= set(base):
            raise TopologyError("base graph must contain the agent ring 0-1-...-0")
        if not 0.0 <= self.inclusion_prob <= 1.0:
            raise TopologyError("inclusion probability must be in [0, 1]")
        if self.window < 1:
            raise TopologyError("window must be >= 1")
        object.__setattr__(self, "base_edges", base)
        groups = np.zeros((self.window, self.m, self.m), dtype=bool)
        for idx, (i, j) in enumerate(sorted(ring)):
            groups[idx % self.window, [i, j], [j, i]] = True
        optional = np.array([e for e in base if e not in ring], dtype=int).reshape(-1, 2)
        object.__setattr__(self, "_base_degree",
                           _max_degree(adjacency_from_edges(self.m, base)))
        object.__setattr__(self, "_ring_groups", _frozen(groups))
        # flat cell indices of (i, j) and (j, i) for each optional edge
        object.__setattr__(self, "_optional_cells",
                           (optional @ [self.m, 1], optional @ [1, self.m]))
        object.__setattr__(self, "_mask_cache", {})

    def _inclusion_row(self, k):
        """Which optional edges are present at tick k; the block's masks are
        cached as booleans, not as the draws they come from."""
        block, off = k // BLOCK, k % BLOCK
        included = self._mask_cache.get(block)
        if included is None:
            self._mask_cache.clear()  # keep only the active block
            gen = block_generator(self.seed, DOMAIN_TOPOLOGY, block)
            included = (gen.random((BLOCK, max(len(self._optional_cells[0]), 1)))
                        < self.inclusion_prob)
            self._mask_cache[block] = included
        return included[off]

    def adjacency(self, k):
        adj = self._ring_groups[k % self.window].copy()
        ij, ji = self._optional_cells
        if len(ij) and self.inclusion_prob > 0:
            on = self._inclusion_row(k)
            cells = adj.reshape(-1)
            cells[ij[on]] = True
            cells[ji[on]] = True
        return adj

    def max_degree(self):
        return self._base_degree

    def validate(self):
        # Connectivity is structural: each window's union contains the ring.
        if not _connected(self._ring_groups.any(axis=0)):
            raise TopologyError("agent ring must be connected")


def make_topology(kind, m, **params):
    """Build a topology sequence by name.

    kind: "static" (params: edges or graph in {"ring","path","complete"}),
    "periodic" (params: phases, window), or "random_edges" (params:
    base_edges or graph, inclusion_prob, window, seed).
    """
    named = {"ring": ring_edges, "path": path_edges, "complete": complete_edges}

    def edge_list(spec):
        if isinstance(spec, str):
            return named[spec](m)
        return [tuple(e) for e in spec]

    if kind == "static":
        topo = StaticTopology(m, edge_list(params.get("graph", params.get("edges"))))
    elif kind == "periodic":
        phases = [edge_list(p) for p in params["phases"]]
        topo = PeriodicTopology(m, tuple(map(tuple, phases)),
                                int(params.get("window", len(phases))))
    elif kind == "random_edges":
        base = edge_list(params.get("base", params.get("graph", "complete")))
        topo = RandomEdgeTopology(m, tuple(base),
                                  float(params.get("inclusion_prob", 0.5)),
                                  int(params.get("window", 1)),
                                  int(params.get("seed", 0)))
    else:
        raise TopologyError(f"unknown topology kind {kind!r}")
    topo.validate()
    return topo


# -- transition matrices ------------------------------------------------------
#
# Each scheme writes its weight rule once: ``matrix`` maps an adjacency
# matrix ``adj`` and its degree vector ``deg`` to a full matrix, and ``eta``
# maps ``deg`` to the analytic entry floor, in a few array expressions over
# the number type of ``one``.  With ``one = 1.0`` they build the float matrix
# and its floor.  Validation evaluates the same rule in ``Fraction``s, with
# ``deg`` an object array of them, for the rare entries that sit within float
# rounding of the floor.

@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic hand-off probabilities with its scheme's entry floor."""

    entries: np.ndarray
    eta: float

    @property
    def m(self):
        return self.entries.shape[0]

    def cumulative(self):
        return np.cumsum(self.entries, axis=1)


def _like(one, a):
    """The numbers ``a`` in the number type of ``one``."""
    return a if isinstance(one, float) else np.frompyfunc(type(one), 1, 1)(a)


def _stay_put(p, one):
    """Fill the diagonal with what each row's hand-offs leave over."""
    np.fill_diagonal(p, one - p.sum(axis=1))
    return p


class EqualProbability:
    """Hand off to each current neighbor with probability 1/m."""

    name = "equal"

    def matrix(self, adj, deg, one=1.0):
        m = len(deg)
        p = np.where(adj, one / m, 0)
        np.fill_diagonal(p, one - deg / m)
        return p

    def eta(self, deg, one=1.0):
        return one / len(deg)


class MinEqualNeighbor:
    """Pairwise-minimum degree weights: min(1/(|N_i|+1), 1/(|N_j|+1))."""

    name = "min_equal"

    def matrix(self, adj, deg, one=1.0):
        inv = one / (deg + one)
        return _stay_put(np.where(adj, np.minimum.outer(inv, inv), 0), one)

    def eta(self, deg, one=1.0):
        return one / (deg.max(initial=0) + one)


class WeightedMetropolisHastings:
    """Metropolis-Hastings-style weights scaled by a per-agent factor.

    Each agent i scales the pairwise weight min(1/|N_i|, 1/|N_j|) by its
    own factor in (0, 1).  Double stochasticity requires the factors of
    neighboring agents to match; building a matrix from mismatched factors
    raises a scheme violation.  A scalar weight applies to all agents.
    The factors are checked once, here; their count is checked against the
    agent count of each matrix.
    """

    name = "weighted_mh"

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim > 1 or w.size == 0:
            raise SchemeViolationError(
                f"need a scalar weight or one weight per agent, got shape {w.shape}")
        if np.any(w <= 0) or np.any(w >= 1):
            raise SchemeViolationError("weights must lie strictly in (0, 1)")
        self.weights = weights
        self._w = w
        self._floors = {}  # min_i min(w_i, 1 - w_i) by number type

    def _row_factors(self, m, one):
        """The factors as a column (one per row) or a scalar."""
        if self._w.ndim and self._w.shape != (m,):
            raise SchemeViolationError(
                f"need one weight per agent ({m}), got shape {self._w.shape}")
        return _like(one, self._w[:, None] if self._w.ndim else self._w)

    def matrix(self, adj, deg, one=1.0):
        inv = one / np.maximum(deg, one)
        pair = self._row_factors(len(deg), one) * np.minimum.outer(inv, inv)
        return _stay_put(np.where(adj, pair, 0), one)

    def eta(self, deg, one=1.0):
        w = self._row_factors(len(deg), one)
        floor = self._floors.get(type(one))
        if floor is None:
            floor = self._floors[type(one)] = np.min(np.minimum(w, one - w))
        return floor / max(deg.max(initial=0), one)


SCHEMES = {
    "equal": EqualProbability,
    "min_equal": MinEqualNeighbor,
    "weighted_mh": WeightedMetropolisHastings,
}


def topology_eta(scheme, topology):
    """The scheme's entry floor over every instant of ``topology``: its
    ``eta`` rule at the topology's worst-case degree."""
    return float(scheme.eta(np.full(topology.m, topology.max_degree())))


def make_scheme(kind, **params):
    if kind == "weighted_mh":
        return WeightedMetropolisHastings(params.get("weights", params.get("weight", 0.5)))
    if kind in SCHEMES:
        return SCHEMES[kind]()
    raise SchemeViolationError(f"unknown scheme kind {kind!r}")


def _check_symmetric(adj):
    """Neighbor-relation contract: no agent is its own neighbor, and
    j in N_i exactly when i in N_j."""
    if adj.diagonal().any():
        i = int(np.argmax(adj.diagonal()))
        raise SchemeViolationError(f"agent {i} lists itself as a neighbor")
    if (adj != adj.T).any():
        i, j = np.argwhere(adj & ~adj.T)[0]
        raise SchemeViolationError(
            f"asymmetric neighbors: {j} in N_{i} but {i} not in N_{j}")


def validate_transition(p, adj, eta, scheme=None):
    """Assert the probability-matrix contract; raises SchemeViolationError.

    ``adj`` is the instant's ``(m, m)`` boolean adjacency.  Checks: the
    adjacency is symmetric with no self-loops; entries in [0,1]; rows and
    columns sum to 1 within 1e-12; strictly positive diagonal; every
    positive entry at least ``eta``; zeros off the adjacency pattern.
    Entries within float rounding of the eta floor are re-checked against
    the scheme's own rule and floor evaluated in exact rational arithmetic
    when ``scheme`` is given.
    """
    adj = np.asarray(adj, dtype=bool)
    m = len(adj)
    if adj.shape != (m, m) or p.shape != (m, m):
        raise SchemeViolationError(
            f"matrix shape {p.shape} does not match adjacency shape {adj.shape}")
    _check_symmetric(adj)
    if not (p.min() >= 0 and p.max() <= 1):  # false for NaN entries too
        raise SchemeViolationError("entries must lie in [0, 1]")
    rows = p.sum(axis=1)
    cols = p.sum(axis=0)
    if abs(rows - 1.0).max() > _STOCHASTIC_TOL:
        i = int(np.argmax(abs(rows - 1.0)))
        raise SchemeViolationError(f"row {i} sums to {float(rows[i])!r}, not 1")
    if abs(cols - 1.0).max() > _STOCHASTIC_TOL:
        j = int(np.argmax(abs(cols - 1.0)))
        raise SchemeViolationError(
            f"column {j} sums to {float(cols[j])!r}, not 1 (matrix is not doubly stochastic)")
    diag = p.diagonal()
    if (diag <= 0).any():
        i = int(np.flatnonzero(diag <= 0)[0])
        raise SchemeViolationError(f"agent {i} has non-positive self probability")
    positive = p > 0
    stray = positive & ~adj
    if np.count_nonzero(stray) > m:  # beyond the (positive) diagonal
        np.fill_diagonal(stray, False)
        i, j = np.argwhere(stray)[0]
        raise SchemeViolationError(
            f"entry ({i}, {j}) is positive but {j} is not a neighbor of {i}")
    short = positive & (p < eta)
    if short.any():
        borderline = short & (p > eta - 1e-9)
        if scheme is not None and np.array_equal(short, borderline):
            one = Fraction(1)
            deg = _like(one, adj.sum(axis=1))
            below = short & (scheme.matrix(adj, deg, one) < scheme.eta(deg, one))
            if below.any():
                i, j = np.argwhere(below)[0]
                raise SchemeViolationError(
                    f"entry ({i},{j}) = {float(p[i, j])!r} is below the scheme floor")
        else:
            i, j = np.argwhere(short)[0]
            raise SchemeViolationError(
                f"entry ({i},{j}) = {float(p[i, j])!r} is below the scheme floor {float(eta)!r}")


def build_transition(scheme, adj):
    """Validated :class:`TransitionMatrix` for one instant's adjacency.

    ``adj`` is the ``(m, m)`` boolean adjacency matrix (symmetric, false
    diagonal).  The result carries the scheme's analytic entry floor for
    that structure.
    """
    adj = np.asarray(adj, dtype=bool)
    deg = adj.sum(axis=1)
    p = scheme.matrix(adj, deg)
    eta = scheme.eta(deg)
    validate_transition(p, adj, eta, scheme)
    return TransitionMatrix(p, float(eta))


# -- chain order --------------------------------------------------------------

class ChainOrder:
    """One agent per tick, handed off along the chain ``scheme`` builds on
    ``topology``, from agent ``s0`` or, for ``"uniform"``, one drawn per
    replication.  A topology with a period has every distinct matrix built,
    validated and cached here, before any tick; a random one validates each
    tick's matrix as it is built."""

    engine = "markov"
    width = 1

    def __init__(self, topology, scheme, s0="uniform"):
        if s0 != "uniform":
            s0 = int(s0)
            if not 0 <= s0 < topology.m:
                raise ValueError(
                    f"fixed initial agent {s0} outside [0, {topology.m})")
        self.topology = topology
        self.scheme = scheme
        self.s0 = s0
        self._cache = {}
        for k in range(topology.period or 0):
            self.transition(k)

    def transition(self, k):
        """The validated (P, cumP) of tick k."""
        period = self.topology.period
        key = None if period is None else k % period
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        tm = build_transition(self.scheme, self.topology.adjacency(k))
        value = (tm.entries, tm.cumulative())
        if key is not None:
            self._cache[key] = value
        return value

    def start(self, m, seeds):
        if self.topology.m != m:
            raise DimensionMismatchError(
                f"topology has {self.topology.m} agents but problem has {m}")
        if self.s0 == "uniform":
            return np.array([min(int(init_generator(s).random() * m), m - 1)
                             for s in seeds], dtype=int)
        return np.full(len(seeds), self.s0, dtype=int)

    def block(self, b, count, seeds, agents):
        """Each tick's agent: how many of its row's cumulative sums are at
        or below the tick's uniform, at most m - 1."""
        uniforms = np.stack([chain_uniform_block(s, b) for s in seeds])
        last = self.topology.m - 1
        plan = []
        for off in range(count):
            _, cum = self.transition(b * BLOCK + off)
            agents = np.minimum((uniforms[:, off, None] >= cum[agents]).sum(axis=1),
                                last)
            plan.append((agents,))
        return plan, agents
