"""Randomized-order incremental engine over time-varying topologies.

At each tick one agent holds the iterate; it applies a projected noisy
subgradient step on its own component and hands the iterate to a neighbor
drawn from the current transition matrix row.  The agent sequence is a
time-varying Markov chain whose matrices are built from the instantaneous
neighbor structure by one of three weight schemes, all of which produce
doubly stochastic matrices with positive diagonals and entries bounded
away from zero.

Conventions: agents are 0-indexed; entry (i, j) of a transition matrix is
the probability of handing off from agent i to agent j.  Neighbor sets
never contain the agent itself (staying put is the diagonal mass).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DimensionMismatchError, NonFiniteError,
                     SchemeViolationError, TopologyError)
from .streams import (BLOCK, DOMAIN_TOPOLOGY, block_generator,
                      chain_uniform_block, init_generator)
from .trace import RunTrace, record_indices
from .version import __version__

log = logging.getLogger(__name__)

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
# transition matrix, not an edge).

@dataclass(frozen=True)
class StaticTopology:
    """Fixed neighbor structure; the union over any window is the graph itself."""

    m: int
    edges: tuple
    window: int = 1

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

    @property
    def is_static(self):
        return True


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

    @property
    def is_static(self):
        return False


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
        object.__setattr__(self, "_draw_cache", {})

    def _inclusion_row(self, k):
        block, off = k // BLOCK, k % BLOCK
        draws = self._draw_cache.get(block)
        if draws is None:
            gen = block_generator(self.seed, DOMAIN_TOPOLOGY, block)
            draws = gen.random((BLOCK, max(len(self._optional_cells[0]), 1)))
            self._draw_cache.clear()  # keep only the active block
            self._draw_cache[block] = draws
        return draws[off]

    def adjacency(self, k):
        adj = self._ring_groups[k % self.window].copy()
        ij, ji = self._optional_cells
        if len(ij) and self.inclusion_prob > 0:
            on = self._inclusion_row(k) < self.inclusion_prob
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

    @property
    def is_static(self):
        return False


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
# Each scheme maps an adjacency matrix ``adj`` and its degree vector
# ``deg = adj.sum(axis=1)`` to a full matrix in a few array expressions, and
# its analytic entry floor ``eta`` to a function of ``deg`` alone.  The
# ``_exact_entries`` methods restate each rule in rational arithmetic over
# neighbor lists; validation derives those lists only for the rare entries
# that sit within float rounding of the floor.

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


def _stay_put(p):
    """Fill the diagonal with what each row's hand-offs leave over."""
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    return p


class EqualProbability:
    """Hand off to each current neighbor with probability 1/m."""

    name = "equal"

    def matrix(self, adj, deg):
        m = len(deg)
        p = np.where(adj, 1.0 / m, 0.0)
        np.fill_diagonal(p, 1.0 - deg / m)
        return p

    def eta(self, deg):
        return 1.0 / len(deg)

    def uniform_eta(self, topology):
        return 1.0 / topology.m

    def _exact_entries(self, neighbors):
        m = len(neighbors)
        inv = Fraction(1, m)
        ent = {}
        for i, nb in enumerate(neighbors):
            for j in nb:
                ent[(i, int(j))] = inv
            ent[(i, i)] = 1 - len(nb) * inv
        return ent, inv


class MinEqualNeighbor:
    """Pairwise-minimum degree weights: min(1/(|N_i|+1), 1/(|N_j|+1))."""

    name = "min_equal"

    def matrix(self, adj, deg):
        inv = 1.0 / (deg + 1.0)
        return _stay_put(np.where(adj, np.minimum.outer(inv, inv), 0.0))

    def eta(self, deg):
        return 1.0 / (deg.max(initial=0) + 1.0)

    def uniform_eta(self, topology):
        return 1.0 / (topology.max_degree() + 1.0)

    def _exact_entries(self, neighbors):
        deg = [len(nb) for nb in neighbors]
        ent = {}
        for i, nb in enumerate(neighbors):
            total = Fraction(0)
            for j in nb:
                w = min(Fraction(1, deg[i] + 1), Fraction(1, deg[int(j)] + 1))
                ent[(i, int(j))] = w
                total += w
            ent[(i, i)] = 1 - total
        eta = Fraction(1, max(deg, default=0) + 1)
        return ent, eta


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
        self._floor = float(np.min(np.minimum(w, 1.0 - w)))

    def _row_factors(self, m):
        """The factors as a column (one per row) or a scalar."""
        if not self._w.ndim:
            return self._w
        if self._w.shape != (m,):
            raise SchemeViolationError(
                f"need one weight per agent ({m}), got shape {self._w.shape}")
        return self._w[:, None]

    def matrix(self, adj, deg):
        inv = 1.0 / np.maximum(deg, 1.0)
        pair = self._row_factors(len(deg)) * np.minimum.outer(inv, inv)
        return _stay_put(np.where(adj, pair, 0.0))

    def eta(self, deg):
        return self._floor / max(int(deg.max(initial=0)), 1)

    def uniform_eta(self, topology):
        self._row_factors(topology.m)
        return self._floor / max(topology.max_degree(), 1)

    def _exact_entries(self, neighbors):
        m = len(neighbors)
        self._row_factors(m)  # one factor per agent, or a scalar
        wf = [Fraction(x) for x in np.broadcast_to(self._w, (m,))]
        deg = [len(nb) for nb in neighbors]
        ent = {}
        for i, nb in enumerate(neighbors):
            total = Fraction(0)
            for j in nb:
                pair = min(Fraction(1, max(deg[i], 1)), Fraction(1, max(deg[int(j)], 1)))
                ent[(i, int(j))] = wf[i] * pair
                total += wf[i] * pair
            ent[(i, i)] = 1 - total
        degs = [d for d in deg if d]
        eta = min(min(x, 1 - x) for x in wf)
        if degs:
            eta = eta * Fraction(1, max(degs))
        return ent, eta


SCHEMES = {
    "equal": EqualProbability,
    "min_equal": MinEqualNeighbor,
    "weighted_mh": WeightedMetropolisHastings,
}


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
    Entries within float rounding of the eta floor are re-checked in exact
    rational arithmetic when the scheme provides it.
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
            ent, eta_exact = scheme._exact_entries([np.flatnonzero(r) for r in adj])
            for i, j in np.argwhere(short):
                if ent.get((int(i), int(j)), Fraction(0)) < eta_exact:
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


def sample_next_agent(transition, current, rng):
    """Draw the next agent from row ``current``; deterministic given rng state."""
    cum = transition.cumulative()[current]
    return _next_from_uniform(cum, rng.random())


def _next_from_uniform(cum_row, u):
    j = int(np.searchsorted(cum_row, u, side="right"))
    return min(j, len(cum_row) - 1)


# -- engine -------------------------------------------------------------------

class _TransitionProvider:
    """Per-tick (P, cumP), cached for static and periodic sequences."""

    def __init__(self, topology, scheme, validate=True):
        self.topology = topology
        self.scheme = scheme
        self.validate = validate
        self._cache = {}
        if topology.is_static:
            self._phases = 1
        elif isinstance(topology, PeriodicTopology):
            self._phases = topology.period
        else:
            self._phases = None

    def at(self, k):
        key = 0 if self._phases == 1 else (
            k % self._phases if self._phases else k)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        adj = self.topology.adjacency(k)
        if self.validate:
            tm = build_transition(self.scheme, adj)
        else:
            deg = adj.sum(axis=1)
            tm = TransitionMatrix(self.scheme.matrix(adj, deg),
                                  self.scheme.eta(deg))
        value = (tm.entries, tm.cumulative())
        if self._phases is not None:
            self._cache[key] = value
        return value


def run_markov(problem, noise, schedule, topology, scheme, x0, ticks, seed, *,
               s0="uniform", stride=1, tail_fraction=None, config_hash=None,
               validate=True):
    """Run one replication; see :func:`run_markov_batch`."""
    return run_markov_batch(problem, noise, schedule, topology, scheme, x0,
                            ticks, [seed], s0=s0, stride=stride,
                            tail_fraction=tail_fraction,
                            config_hash=config_hash, validate=validate)[0]


def run_markov_batch(problem, noise, schedule, topology, scheme, x0, ticks,
                     seeds, *, s0="uniform", stride=1, tail_fraction=None,
                     config_hash=None, validate=True):
    """Run ``len(seeds)`` independent replications for ``ticks`` ticks.

    The topology and scheme are validated before any tick runs: structural
    window-connectivity checks on the topology, and the full transition
    contract on every distinct matrix the run will use (static and periodic
    sequences cache these; random sequences validate each tick's matrix as
    it is built).  Validation failure aborts before the first step.

    Per-trace metadata records each agent's visit count over s(0..N).
    """
    if ticks < 0:
        raise ValueError(f"tick count must be >= 0, got {ticks}")
    m, n = problem.m, problem.n
    if topology.m != m:
        raise DimensionMismatchError(
            f"topology has {topology.m} agents but problem has {m}")
    fset = problem.feasible_set
    reps = len(seeds)

    if validate:
        topology.validate()
    provider = _TransitionProvider(topology, scheme, validate=validate)
    if validate and isinstance(topology, (StaticTopology, PeriodicTopology)):
        for k in range(1 if topology.is_static else topology.period):
            provider.at(k)

    x0 = np.asarray(x0, dtype=float)
    if not fset.contains(x0):
        log.warning("initial point outside the feasible set; projecting")
        x0 = fset.project_many(x0)
    x_batch = np.tile(x0, (reps, 1))

    if s0 == "uniform":
        agents = np.array([min(int(init_generator(s).random() * m), m - 1)
                           for s in seeds], dtype=int)
    else:
        s0 = int(s0)
        if not 0 <= s0 < m:
            raise ValueError(f"fixed initial agent {s0} outside [0, {m})")
        agents = np.full(reps, s0, dtype=int)

    recs = record_indices(ticks, stride)
    rec_positions = {k: j for j, k in enumerate(recs)}
    nrows = len(recs)
    row_f = np.empty((reps, nrows))
    row_inf = np.empty((reps, nrows))
    row_agent = np.empty((reps, nrows), dtype=int)
    witness = problem.optimum.witness
    row_dist = np.empty((reps, nrows)) if witness is not None else None

    fv = problem.f_many(x_batch)
    run_min = fv.copy()
    tail_start = None
    tail_min = None
    if tail_fraction is not None:
        tail_start = ticks - int(np.floor(ticks * tail_fraction))
        tail_min = np.full(reps, np.inf)
        if tail_start == 0:
            tail_min = fv.copy()

    visits = np.zeros((reps, m), dtype=np.int64)
    visits[np.arange(reps), agents] += 1
    filled = 0

    def record(j):
        nonlocal filled
        row_f[:, j] = fv
        row_inf[:, j] = run_min
        row_agent[:, j] = agents
        if row_dist is not None:
            row_dist[:, j] = np.linalg.norm(x_batch - witness, axis=1)
        filled = j + 1

    record(0)

    f_star = problem.optimum.f_star

    def build_traces(final_x, aborted_at=None):
        used = recs[:filled]
        alphas_col = np.array(
            [np.nan if k == 0 else schedule.step(k) for k in used])
        traces = []
        for r, seed in enumerate(seeds):
            meta = {
                "engine": "markov",
                "engine_version": __version__,
                "seed": int(seed),
                "horizon": int(ticks),
                "stride": int(stride),
                "m": m,
                "n": n,
                "problem": problem.name,
                "f_star": None if f_star is None else float(f_star),
                "final_x": [float(v) for v in final_x[r]],
                "config_hash": config_hash,
                "visit_counts": [int(v) for v in visits[r]],
            }
            if aborted_at is not None:
                meta["aborted_at"] = int(aborted_at)
            if tail_start is not None and aborted_at is None:
                meta["tail_start"] = int(tail_start)
                meta["tail_min"] = float(tail_min[r])
            traces.append(RunTrace(
                np.array(used), row_f[r, :filled].copy(),
                row_inf[r, :filled].copy(), alphas_col.copy(),
                row_agent[r, :filled].copy(),
                None if row_dist is None else row_dist[r, :filled].copy(),
                meta))
        return traces

    skip_noise = getattr(noise, "is_zero", False)
    nblocks = (ticks + BLOCK - 1) // BLOCK
    for b in range(nblocks):
        start_it = b * BLOCK + 1
        count = min(BLOCK, ticks - b * BLOCK)
        alphas = schedule.steps(start_it, count)
        uniforms = np.stack([chain_uniform_block(s, b) for s in seeds])
        eps = None
        if not skip_noise:
            eps = np.stack([noise.sample_block(s, b, 1, n) for s in seeds])
        agent_buf = np.empty((reps, count), dtype=int)
        for off in range(count):
            it = start_it + off
            k = it - 1
            _, cum = provider.at(k)
            rows = cum[agents]
            u = uniforms[:, off]
            agents = np.minimum((u[:, None] >= rows).sum(axis=1), m - 1)
            agent_buf[:, off] = agents
            x_prev = x_batch  # retained as the last finite state on abort
            try:
                g = problem.subgradient_for_agents(x_batch, agents)
                if eps is not None:
                    g = g + eps[:, off, 0, :]
                x_batch = fset.project_many(x_batch - alphas[off] * g)
                fv = problem.f_many(x_batch)
                if not np.isfinite(fv).all():
                    bad = int(np.flatnonzero(~np.isfinite(fv))[0])
                    raise NonFiniteError(
                        f"non-finite objective in replication {bad} "
                        f"(seed {seeds[bad]})")
            except NonFiniteError as exc:
                visits[:, :] += np.stack(
                    [np.bincount(agent_buf[r, :off + 1], minlength=m)
                     for r in range(reps)])
                wrapped = NonFiniteError(
                    f"tick {it}: {exc}; last finite state at tick {it - 1}")
                wrapped.partial_traces = build_traces(x_prev, aborted_at=it)
                raise wrapped from exc
            np.minimum(run_min, fv, out=run_min)
            if tail_start is not None and it >= tail_start:
                np.minimum(tail_min, fv, out=tail_min)
            j = rec_positions.get(it)
            if j is not None:
                record(j)
        for r in range(reps):
            visits[r] += np.bincount(agent_buf[r], minlength=m)

    return build_traces(x_batch)
