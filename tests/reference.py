"""Naive references for the engines: single steps, per-neighbor transitions,
per-agent objectives.

``sub_step`` is one projected noisy subgradient step of one replication;
``cyclic_cycle`` advances one replication by one ring cycle, one sub-step
at a time, drawing its noise through ``NoiseStream`` one (iteration,
agent) cell at a time; ``sample_next_agent`` draws one hand-off of the
agent chain.  The engines batch all of this and are checked against it
draw for draw.

The engine builds each instant's transition matrix from a boolean
adjacency matrix in a few array expressions.  This module keeps the
straightforward form of the same rules: neighbor index lists built edge by
edge, a set-based symmetry check, and one Python loop per matrix row.  The
random-edge sequence is re-derived here from the topology's parameters and
its own draws from the topology stream: each tick's whole block is drawn in
one call and the tick's row taken from it, where the engine draws only the
rows it needs.

The objective families evaluate all agents at once on stacked parameters;
``component`` writes each agent's f_i and g_i as plain Python over one
point, from the same parameters.

``trace_csv`` renders a trace through ``csv.writer``, one cell at a time;
``RunTrace.to_csv`` must give the same bytes.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from incsub.errors import NonFiniteError, SchemeViolationError, TopologyError
from incsub.markov import PeriodicTopology, RandomEdgeTopology, ring_edges
from incsub.objectives import QuadraticFamily, RegressionFamily, UtilityFamily
from incsub.streams import BLOCK, DOMAIN_TOPOLOGY, block_generator
from incsub.trace import COLUMNS, fmt_float


class NoiseStream:
    """Per-run view of a noise model: one draw per (iteration, agent).

    Caches the current block so sequential access costs one generator
    construction per BLOCK iterations.  The draw for a given (k, agent)
    is a pure function of (seed, k, agent), not of access order.
    """

    def __init__(self, model, seed, agents, dim):
        self.model = model
        self.seed = seed
        self.agents = int(agents)
        self.dim = int(dim)
        self._block = -1
        self._data = None

    def block(self, block):
        if block != self._block:
            self._data = self.model.sample_block(self.seed, block, self.agents, self.dim)
            self._block = block
        return self._data

    def draw(self, k, agent=0):
        if k < 1:
            raise ValueError(f"iteration index must be >= 1, got {k}")
        if not 0 <= agent < self.agents:
            raise ValueError(f"agent index {agent} out of range [0, {self.agents})")
        data = self.block((k - 1) // BLOCK)
        if data is None:
            return np.zeros(self.dim)
        return data[(k - 1) % BLOCK, agent, :]


@dataclass(frozen=True)
class CyclicState:
    """State at the end of cycle k.

    ``sub_iterates`` holds the m+1 hand-off points of the most recent
    cycle: row 0 is x_{k-1} (the cycle's entry point) and row m is x_k.
    Older cycles are not retained.
    """

    k: int
    x: np.ndarray
    sub_iterates: np.ndarray

    @classmethod
    def initial(cls, x0):
        x0 = np.asarray(x0, dtype=float)
        return cls(0, x0, np.tile(x0, (1, 1)))


def make_cyclic_noise_stream(noise, problem, seed):
    """Stream matching the ring-order engine's draws for one replication."""
    return NoiseStream(noise, seed, problem.m, problem.n)


def sub_step(problem, z, agent, alpha, eps):
    """One projected noisy subgradient step of the (1, n) point ``z`` by
    ``agent``; ``eps`` is the (n,) error, or None for error-free steps."""
    g = problem.subgradient_for_agents(z, agent)
    if eps is not None:
        g = g + eps[None, :]
    return problem.feasible_set.project_many(z - alpha * g)


def cyclic_cycle(state, problem, noise_stream, schedule):
    """Advance one full cycle: m projected sub-steps in ring order.

    The error added at sub-step i of cycle k+1 is ``noise_stream``'s
    (k+1, i) draw, matching the batch engine draw for draw.
    """
    it = state.k + 1
    alpha = schedule.step(it)
    z = state.x[None, :].copy()
    subs = [z[0].copy()]
    skip_noise = getattr(noise_stream.model, "is_zero", False)
    for i in range(problem.m):
        eps = None if skip_noise else noise_stream.draw(it, i)
        z = sub_step(problem, z, i, alpha, eps)
        subs.append(z[0].copy())
    if not np.isfinite(z).all():
        raise NonFiniteError(f"non-finite iterate during cycle {it}")
    return CyclicState(it, z[0], np.stack(subs))


def next_from_uniform(cum_row, u):
    """The agent whose cumulative-probability cell holds uniform ``u``."""
    j = int(np.searchsorted(cum_row, u, side="right"))
    return min(j, len(cum_row) - 1)


def sample_next_agent(transition, current, rng):
    """Draw the next agent from row ``current`` of the matrix ``transition``;
    deterministic given rng state."""
    return next_from_uniform(np.cumsum(transition, axis=-1)[current], rng.random())


def neighbors_from_edges(m, edges):
    """Symmetric neighbor sets (sorted index arrays) from an undirected edge list."""
    sets = [set() for _ in range(m)]
    for i, j in edges:
        if i == j:
            raise TopologyError(f"self-loop ({i},{i}) not allowed in a neighbor graph")
        if not (0 <= i < m and 0 <= j < m):
            raise TopologyError(f"edge ({i},{j}) outside agent range [0, {m})")
        sets[i].add(j)
        sets[j].add(i)
    return [np.array(sorted(s), dtype=int) for s in sets]


def check_symmetric(neighbors):
    m = len(neighbors)
    sets = [set(int(j) for j in nb) for nb in neighbors]
    for i in range(m):
        if i in sets[i]:
            raise SchemeViolationError(f"agent {i} lists itself as a neighbor")
        for j in sets[i]:
            if i not in sets[j]:
                raise SchemeViolationError(
                    f"asymmetric neighbors: {j} in N_{i} but {i} not in N_{j}")


def random_edges_at(topology, k):
    """Edge list of a :class:`RandomEdgeTopology` at tick ``k``."""
    ring = ring_edges(topology.m)
    edges = [e for idx, e in enumerate(ring) if idx % topology.window == k % topology.window]
    optional = [e for e in topology.base_edges if e not in set(ring)]
    if optional and topology.inclusion_prob > 0:
        gen = block_generator(topology.seed, DOMAIN_TOPOLOGY, k // BLOCK)
        row = gen.random((BLOCK, len(optional)))[k % BLOCK]
        edges.extend(e for j, e in enumerate(optional) if row[j] < topology.inclusion_prob)
    return edges


def random_adjacencies(topology, start, count):
    """``(count, m, m)`` adjacencies of a :class:`RandomEdgeTopology` at
    ticks start..start+count-1, one full-block draw per tick."""
    adj = np.zeros((count, topology.m, topology.m), dtype=bool)
    for t in range(count):
        for i, j in random_edges_at(topology, start + t):
            adj[t, i, j] = adj[t, j, i] = True
    return adj


def neighbors_at(topology, k):
    """Neighbor lists of any topology sequence at tick ``k``."""
    if isinstance(topology, RandomEdgeTopology):
        edges = random_edges_at(topology, k)
    elif isinstance(topology, PeriodicTopology):
        edges = topology.phases[k % topology.period]
    else:
        edges = topology.edges
    return neighbors_from_edges(topology.m, edges)


def _weight_array(weights, m):
    w = np.asarray(weights, dtype=float)
    return np.full(m, float(w)) if w.ndim == 0 else w


def matrix(scheme, neighbors):
    """Transition matrix of ``scheme`` for neighbor lists, one row at a time."""
    m = len(neighbors)
    deg = np.array([len(nb) for nb in neighbors], dtype=float)
    p = np.zeros((m, m))
    for i, nb in enumerate(neighbors):
        if scheme.name == "equal":
            p[i, nb] = 1.0 / m
            p[i, i] = 1.0 - len(nb) / m
            continue
        if not len(nb):
            p[i, i] = 1.0
            continue
        if scheme.name == "min_equal":
            w = np.minimum(1.0 / (deg[i] + 1.0), 1.0 / (deg[nb] + 1.0))
        else:
            safe_deg = np.maximum(deg, 1.0)
            pair = np.minimum(1.0 / safe_deg[i], 1.0 / safe_deg[nb])
            w = _weight_array(scheme.weights, m)[i] * pair
        p[i, nb] = w
        p[i, i] = 1.0 - w.sum()
    return p


def eta(scheme, neighbors):
    """The scheme's analytic entry floor for neighbor lists."""
    m = len(neighbors)
    degs = [len(nb) for nb in neighbors]
    if scheme.name == "equal":
        return 1.0 / m
    if scheme.name == "min_equal":
        return 1.0 / (max(degs, default=0) + 1.0)
    w = _weight_array(scheme.weights, m)
    floor = float(np.min(np.minimum(w, 1.0 - w)))
    return floor / max(degs) if any(degs) else floor


def build(scheme, neighbors):
    """(matrix, eta) after the neighbor-list symmetry check."""
    check_symmetric(neighbors)
    return matrix(scheme, neighbors), eta(scheme, neighbors)


def component(family, i):
    """(f_i, g_i) of agent ``i`` of a shipped family, as plain-Python
    functions of one point; g_i returns a list."""
    if isinstance(family, QuadraticFamily):
        c = family.centers[i].tolist()

        def f(x):
            return sum((xd - cd) ** 2 for xd, cd in zip(x, c))

        def g(x):
            return [2.0 * (xd - cd) for xd, cd in zip(x, c)]
    elif isinstance(family, RegressionFamily):
        p = family.features[i].tolist()
        rbar, var = float(family.rbar[i]), float(family.var[i])

        def residual(x):
            return sum(xd * pd for xd, pd in zip(x, p)) - rbar

        def f(x):
            return residual(x) ** 2 + var

        def g(x):
            t = residual(x)
            return [2.0 * t * pd for pd in p]
    elif isinstance(family, UtilityFamily):
        u = family.utilities[i]

        def f(x):
            return -float(u.value(x[i]))

        def g(x):
            return [-float(u.slope(x[i])) if j == i else 0.0
                    for j in range(family.n)]
    else:
        raise TypeError(f"no reference for {type(family).__name__}")
    return f, g


def total(family, x):
    """sum_i f_i(x), one agent at a time."""
    return sum(component(family, i)[0](x) for i in range(family.m))


def trace_csv(trace):
    """CSV text of a :class:`incsub.RunTrace`, row by row through csv.writer."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for i, k in enumerate(trace.ks):
        agent = "" if trace.agents is None else str(int(trace.agents[i]))
        dist = "" if trace.dists is None else fmt_float(trace.dists[i])
        alpha = "" if np.isnan(trace.alphas[i]) else fmt_float(trace.alphas[i])
        writer.writerow([str(int(k)), agent, fmt_float(trace.f_vals[i]),
                         dist, fmt_float(trace.running_inf[i]), alpha])
    return buf.getvalue()
