"""Randomized order over time-varying topologies, and its transition matrices.

At each tick one agent holds the iterate; it applies a projected noisy
subgradient step on its own component and hands the iterate to a neighbor
drawn from the current transition matrix row.  The agent sequence is a
time-varying Markov chain whose matrices are built from the instantaneous
neighbor structure by one of three weight schemes, all of which produce
doubly stochastic matrices with positive diagonals and entries bounded
away from zero.  :class:`ChainOrder` draws that sequence for the shared
step loop, :func:`incsub.engine.run_batch`; without a period, it builds
them as (T, m, m) stacks, a chunk of ticks at a time.

Conventions: agents are 0-indexed; entry (i, j) of a transition matrix is
the probability of handing off from agent i to agent j.  Neighbor sets
never contain the agent itself (staying put is the diagonal mass).
"""

from __future__ import annotations

from dataclasses import dataclass

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
# Every topology serves a run of ticks start, ..., start + count - 1 as a
# (count, m, m) stack of boolean adjacency matrices, ``adjacencies(start,
# count)``: entry (i, j) of a tick's matrix is true when j is a neighbor of
# i.  Each matrix is symmetric with a false diagonal (staying put is the
# diagonal mass of the transition matrix, not an edge).  Its ``period`` is
# the number of distinct adjacencies it serves, repeating every ``period``
# ticks, or None when each tick may differ.  A fixed graph is the one-phase
# periodic topology.  Each topology checks its connectivity requirement when
# it is built, so a built topology is a valid one.

@dataclass(frozen=True)
class PeriodicTopology:
    """Cycles through a fixed list of graphs; window Q must connect every
    union of Q consecutive phases.  One phase with window 1 is a fixed
    graph."""

    m: int
    phases: tuple  # tuple of edge tuples
    window: int

    def __post_init__(self):
        phases = tuple(tuple(sorted(set(map(tuple, p)))) for p in self.phases)
        if not phases:
            raise TopologyError("need at least one phase")
        if self.window < 1:
            raise TopologyError("window must be >= 1")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "_adjacency", _frozen(np.array(
            [adjacency_from_edges(self.m, p) for p in phases], dtype=bool)))
        for k in range(self.period):
            span = [(k + j) % self.period for j in range(self.window)]
            if not _connected(self._adjacency[span].any(axis=0)):
                raise TopologyError(
                    f"union of phases over window starting at {k} is not connected")

    @property
    def period(self):
        return len(self.phases)

    def adjacencies(self, start, count):
        return self._adjacency[np.arange(start, start + count) % self.period]

    def max_degree(self):
        return _max_degree(self._adjacency)


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

    def adjacencies(self, start, count):
        """The ``(count, m, m)`` adjacencies of ticks start..start+count-1.
        Tick k's uniforms are row k mod BLOCK of block k // BLOCK; only the
        requested rows are drawn, after advancing each block's generator
        past the rows before them (Philox yields 4 doubles per step)."""
        adj = self._ring_groups[np.arange(start, start + count) % self.window]
        ij, ji = self._optional_cells
        if len(ij) and self.inclusion_prob > 0:
            # the optional cells are off the ring, so they are only assigned
            cells = adj.reshape(count, self.m * self.m)
            for block in range(start // BLOCK, (start + count - 1) // BLOCK + 1):
                lo = max(start, block * BLOCK)
                hi = min(start + count, (block + 1) * BLOCK)
                gen = block_generator(self.seed, DOMAIN_TOPOLOGY, block)
                steps, partial = divmod((lo - block * BLOCK) * len(ij), 4)
                gen.bit_generator.advance(steps)
                gen.random(partial)
                on = gen.random((hi - lo, len(ij))) < self.inclusion_prob
                cells[lo - start:hi - start, ij] = on
                cells[lo - start:hi - start, ji] = on
        return adj

    def max_degree(self):
        return self._base_degree


# -- transition matrices ------------------------------------------------------
#
# Each scheme writes its weight rule once: ``matrix`` maps adjacency ``adj``
# and its degrees ``deg`` to full matrices, and ``eta`` maps ``deg`` to the
# analytic entry floor, in a few array expressions over the number type of
# ``one``.  The rules reduce over the last axis, so ``adj`` is one (m, m)
# instant with ``deg`` of shape (m,), or a (T, m, m) stack of T ticks with
# ``deg`` of shape (T, m) and one floor per tick.  The rules take ``deg`` in
# any number type and use it in the type of ``one``: with ``one = 1.0``
# they build the float matrices and their floors.  Validation evaluates the
# same rule in ``Fraction``s for the rare ticks whose entries sit within
# float rounding of the floor, and only on the block of the rows holding
# such entries and of their neighbours' columns: ``matrix`` then gives the
# block of one instant whose rows are the agents ``rows`` and whose columns
# are the agents ``cols`` (sorted, holding ``rows``), and ``adj`` holds
# just that block, while ``deg`` still holds every agent's degree.

def _like(one, a):
    """The numbers ``a`` in the number type of ``one``."""
    return a if isinstance(one, float) else np.frompyfunc(type(one), 1, 1)(a)


def _of(one, a, agents):
    """The per-agent numbers ``a`` of ``agents`` (all for None) in the
    number type of ``one``."""
    return _like(one, a if agents is None else a[..., agents])


def _set_diagonal(p, d, rows=None, cols=None):
    """Set each row's cell of its own agent, in the block of agents ``rows``
    by ``cols`` (the whole matrix for None)."""
    if rows is None:
        i = j = np.arange(p.shape[-1])
    else:
        i, j = np.arange(len(rows)), np.searchsorted(cols, rows)
    p[..., i, j] = d
    return p


def _stay_put(p, one, rows=None, cols=None):
    """Fill the diagonal with what each row's hand-offs leave over."""
    return _set_diagonal(p, one - p.sum(axis=-1), rows, cols)


class EqualProbability:
    """Hand off to each current neighbor with probability 1/m."""

    name = "equal"

    def matrix(self, adj, deg, one=1.0, rows=None, cols=None):
        m = deg.shape[-1]
        return _set_diagonal(np.where(adj, one / m, 0),
                             one - _of(one, deg, rows) / m, rows, cols)

    def eta(self, deg, one=1.0):
        return one / deg.shape[-1]


class MinEqualNeighbor:
    """Pairwise-minimum degree weights: min(1/(|N_i|+1), 1/(|N_j|+1))."""

    name = "min_equal"

    def matrix(self, adj, deg, one=1.0, rows=None, cols=None):
        def inv(agents):
            return one / (_of(one, deg, agents) + one)
        pair = np.minimum(inv(rows)[..., :, None], inv(cols)[..., None, :])
        return _stay_put(np.where(adj, pair, 0), one, rows, cols)

    def eta(self, deg, one=1.0):
        return one / (deg.max(axis=-1, initial=0) + one)


class WeightedMetropolisHastings:
    """Metropolis-Hastings weights ``weight * min(1/|N_i|, 1/|N_j|)`` with one
    ``weight`` in (0, 1) for every agent: per-agent factors w_i would leave
    column j summing to 1 + sum over i in N_j of (w_i - w_j) min(1/|N_i|,
    1/|N_j|), which holds them equal on a connected union of graphs."""

    name = "weighted_mh"

    def __init__(self, weight):
        if not 0 < weight < 1:  # NaN too
            raise SchemeViolationError(
                f"weight must lie strictly in (0, 1), got {weight!r}")
        self.weight = weight

    def matrix(self, adj, deg, one=1.0, rows=None, cols=None):
        def inv(agents):
            return one / np.maximum(_of(one, deg, agents), one)
        pair = (_like(one, self.weight)
                * np.minimum(inv(rows)[..., :, None], inv(cols)[..., None, :]))
        return _stay_put(np.where(adj, pair, 0), one, rows, cols)

    def eta(self, deg, one=1.0):
        w = _like(one, self.weight)
        return min(w, one - w) / np.maximum(deg.max(axis=-1, initial=0), one)


def topology_eta(scheme, topology):
    """The scheme's entry floor over every instant of ``topology``: its
    ``eta`` rule at the topology's worst-case degree."""
    return float(scheme.eta(np.full(topology.m, topology.max_degree())))


def validate_transition(p, adj, eta, scheme=None):
    """Assert the probability-matrix contract; raises SchemeViolationError.

    ``p`` and ``adj`` are one instant's ``(m, m)`` matrix and boolean
    adjacency with a float ``eta``, or ``(T, m, m)`` stacks of T ticks
    with one ``eta`` per tick.  Every check runs on every matrix: the
    adjacency is symmetric with no self-loops; entries in [0,1]; rows and
    columns sum to 1 within 1e-12; strictly positive diagonal; zeros off
    the adjacency pattern; every positive entry at least ``eta``.  On the
    ticks whose short entries all sit within float rounding of the floor,
    the rows holding them are re-checked, over their neighbours' columns,
    against the scheme's own rule and floor evaluated in exact rational
    arithmetic when ``scheme`` is given.  The first failing tick's first
    failing check is raised.
    """
    adj = np.asarray(adj, dtype=bool)
    m = adj.shape[-1] if adj.ndim else 0
    if adj.ndim not in (2, 3) or adj.shape[-2:] != (m, m) or p.shape != adj.shape:
        raise SchemeViolationError(
            f"matrix shape {p.shape} does not match adjacency shape {adj.shape}")
    p, adj = p.reshape(-1, m, m), adj.reshape(-1, m, m)
    floor = np.broadcast_to(np.asarray(eta, dtype=float), len(p))[:, None, None]
    i = np.arange(m)
    rows, cols = p.sum(axis=2), p.sum(axis=1)
    positive = p > 0
    stray = positive & ~adj
    stray[:, i, i] = False
    short = positive & (p < floor)
    exact = np.zeros(len(p), dtype=bool)  # ticks re-checked in Fractions
    if scheme is not None and short.any():
        far = (short & ~(p > floor - 1e-9)).any(axis=(1, 2))
        from fractions import Fraction  # here: it loads decimal, and few runs get here

        one = Fraction(1)
        for t in np.flatnonzero(short.any(axis=(1, 2)) & ~far):
            held = np.flatnonzero(short[t].any(axis=1))  # rows holding them
            near = adj[t, held].any(axis=0)
            near[held] = True
            near = np.flatnonzero(near)  # the rows' only cells that are not 0
            block = np.ix_(held, near)
            deg = adj[t].sum(axis=1).astype(object)  # Python ints
            short[t][block] &= (scheme.matrix(adj[t][block], deg, one, held, near)
                                < scheme.eta(deg, one))
            exact[t] = True

    def at(cells):  # the first failing cell of one tick
        return tuple(int(x) for x in np.argwhere(cells)[0])

    def worst(sums, t):
        j = int(np.argmax(abs(sums[t] - 1.0)))
        return j, float(sums[t, j])

    def below(t):
        a, b = at(short[t])
        bound = "" if exact[t] else f" {float(floor[t, 0, 0])!r}"
        return f"entry ({a},{b}) = {float(p[t, a, b])!r} is below the scheme floor{bound}"

    checks = (  # (failing cells, tick axis first; message of tick t), in order
        (adj[:, i, i], lambda t: "agent {} lists itself as a neighbor".format(
            *at(adj[t, i, i]))),
        (adj != adj.transpose(0, 2, 1),
         lambda t: "asymmetric neighbors: {1} in N_{0} but {0} not in N_{1}".format(
             *at(adj[t] & ~adj[t].T))),
        # false for NaN entries too
        (~((p.min(axis=(1, 2)) >= 0) & (p.max(axis=(1, 2)) <= 1)),
         lambda t: "entries must lie in [0, 1]"),
        (abs(rows - 1.0) > _STOCHASTIC_TOL,
         lambda t: "row {} sums to {!r}, not 1".format(*worst(rows, t))),
        (abs(cols - 1.0) > _STOCHASTIC_TOL,
         lambda t: "column {} sums to {!r}, not 1 (matrix is not doubly "
                   "stochastic)".format(*worst(cols, t))),
        (p[:, i, i] <= 0, lambda t: "agent {} has non-positive self probability".format(
            *at(p[t, i, i] <= 0))),
        (stray, lambda t: "entry ({0}, {1}) is positive but {1} is not a neighbor "
                          "of {0}".format(*at(stray[t]))),
        (short, below),
    )
    failed = [(cells.reshape(len(p), -1).any(axis=1), message)
              for cells, message in checks if cells.any()]
    if failed:
        t = min(int(np.argmax(ticks)) for ticks, _ in failed)
        raise SchemeViolationError(next(msg for ticks, msg in failed if ticks[t])(t))


def build_transition(scheme, adj):
    """The validated transition matrix of one instant's ``(m, m)`` boolean
    adjacency (symmetric, false diagonal), or the ``(T, m, m)`` stack of a
    stack of T ticks' adjacencies, checked against the scheme's entry
    floor ``scheme.eta(adj.sum(axis=-1))``."""
    adj = np.asarray(adj, dtype=bool)
    deg = adj.sum(axis=-1)
    p = scheme.matrix(adj, deg)
    validate_transition(p, adj, scheme.eta(deg), scheme)
    return p


# -- chain order --------------------------------------------------------------

# Entry budget of the walk: a random-edge chunk's (T, m, m) stacks, and the
# lookup table of a chain with a period, hold about 2**16 entries whatever
# m is.
_CHUNK_ENTRIES = 1 << 16


def _cumulative_columns(p):
    """The first m - 1 cumulative columns of each row of the matrices ``p``,
    as a new C-contiguous array."""
    return np.cumsum(p[..., :-1], axis=-1)


def _lookup_table(cumw):
    """The walk over the (period, m, m - 1) cumulative columns ``cumw`` as a
    table, or None when it would exceed the entry budget.

    ``U`` is the sorted set of the distinct values in ``cumw``, and
    ``table[t, j, a]`` is how many columns of row a of matrix t are at or
    below ``U[j - 1]`` (none for j = 0).  Every column is one of the ``U``,
    so for a uniform u with ``j = np.searchsorted(U, u, side="right")``, it
    is how many of them are at or below u: the count walk's agent."""
    period, m, _ = cumw.shape
    # np.unique or np.sort would page in numpy's sort kernels, about 0.25 MB
    # of peak RSS
    values = np.array(sorted(set(cumw.ravel().tolist())))
    width = len(values) + 1
    if period * width * m > _CHUNK_ENTRIES:
        return None
    # a column at U[i] counts from j = i + 1 on
    first = np.searchsorted(values, cumw) + 1
    cells = (np.arange(period)[:, None, None] * width + first) * m \
        + np.arange(m)[:, None]
    table = np.bincount(cells.ravel(), minlength=period * width * m)
    return values, _frozen(table.reshape(period, width, m).cumsum(axis=1).ravel())


class ChainOrder:
    """One agent per tick, handed off along the chain ``scheme`` builds on
    ``topology``, from agent ``s0`` or, for ``"uniform"``, one drawn per
    replication.  A topology with a period has its distinct matrices built
    and validated before any tick, kept read-only as the (period, m, m)
    stack ``matrices`` (None without a period).  A random one has each
    block's matrices built, validated and cumulated as (T, m, m) stacks, one
    chunk of ``max(1, 2**16 // m**2)`` ticks at a time.

    The walk reads only the first m - 1 cumulative columns of each matrix:
    the next agent is how many of them are at or below the tick's uniform.
    Rows never decrease, so that is the count over all m columns clamped to
    m - 1, bit for bit, also when a row's total rounds below 1 and the
    uniform lies above it.  A chain with a period whose lookup table (see
    :func:`_lookup_table`) fits the entry budget walks by one table lookup
    per tick; any other counts over C-contiguous columns: a read-only
    (period, m, m - 1) stack for a period, one new stack per random chunk."""

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
        self.matrices = None
        self._columns = None  # the count walk's (period, m, m - 1) columns
        self._table = None  # (U, flat lookup table) of a tabulated period
        if topology.period:
            self.matrices = _frozen(build_transition(
                scheme, topology.adjacencies(0, topology.period)))
            cumw = _cumulative_columns(self.matrices)
            self._table = _lookup_table(cumw)
            if self._table is None:
                self._columns = _frozen(cumw)

    def _walk_columns(self, start, count):
        """The walk's columns of each tick start, ..., start + count - 1."""
        if self._columns is not None:
            period = self.topology.period
            return [self._columns[k % period] for k in range(start, start + count)]
        return _cumulative_columns(build_transition(
            self.scheme, self.topology.adjacencies(start, count)))

    def start(self, m, seeds):
        if self.topology.m != m:
            raise DimensionMismatchError(
                f"topology has {self.topology.m} agents but problem has {m}")
        if self.s0 == "uniform":
            return np.array([min(int(init_generator(s).random() * m), m - 1)
                             for s in seeds], dtype=int)
        return np.full(len(seeds), self.s0, dtype=int)

    def block(self, b, count, seeds, agents):
        """Block b's agents as a (count, R) array, and the agents it ends
        on: each tick's are how many of the walk's columns in its row are
        at or below the tick's uniform."""
        uniforms = np.stack([chain_uniform_block(s, b) for s in seeds], axis=1)
        if self._table is not None:
            values, table = self._table
            m, period = self.topology.m, self.topology.period
            phase = (b * BLOCK + np.arange(count)) % period
            # each tick's offset in the table; plus an agent, the cell that
            # holds the agent's next one
            walk = np.searchsorted(values, uniforms[:count], side="right")
            walk += phase[:, None] * (len(values) + 1)
            walk *= m
            for row in walk:  # in place: take buffers ``out`` in mode "raise"
                row += agents
                agents = table.take(row, out=row)
            return walk, agents
        walk = np.empty((count, len(seeds)), dtype=int)
        chunk = max(1, _CHUNK_ENTRIES // self.topology.m**2)
        count_at_or_below, at_or_below = np.add.reduce, np.greater_equal
        for lo in range(0, count, chunk):
            walks = self._walk_columns(b * BLOCK + lo, min(chunk, count - lo))
            for off, cumw in enumerate(walks, start=lo):
                agents = count_at_or_below(
                    at_or_below(uniforms[off, :, None], cumw.take(agents, axis=0)),
                    axis=1, out=walk[off])
        return walk, agents
