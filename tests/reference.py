"""Naive references for the engine: per-neighbor transitions, per-agent objectives.

The engine builds each instant's transition matrix from a boolean
adjacency matrix in a few array expressions.  This module keeps the
straightforward form of the same rules: neighbor index lists built edge by
edge, a set-based symmetry check, and one Python loop per matrix row.  The
random-edge sequence is re-derived here from the topology's parameters and
its own draws from the topology stream, not from the engine's cache.

The objective families evaluate all agents at once on stacked parameters;
``component`` writes each agent's f_i and g_i as plain Python over one
point, from the same parameters.
"""

import numpy as np

from incsub.errors import SchemeViolationError, TopologyError
from incsub.markov import PeriodicTopology, RandomEdgeTopology, ring_edges
from incsub.objectives import QuadraticFamily, RegressionFamily, UtilityFamily
from incsub.streams import BLOCK, DOMAIN_TOPOLOGY, block_generator


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
