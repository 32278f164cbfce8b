"""Naive one-replication reference for the benchmark's output check.

Re-derives a replication's final iterate from the flat config alone, with
a plain Python tick loop, and returns its final gap f(x_N) - f*.  It shares
no code with ``incsub``: it follows the documented stream contract (Philox
blocks of ``BLOCK`` draws keyed by (seed, domain, block)) and the fixture,
topology and scheme definitions, and performs each engine step with the
same float operations in the same order.  Only the objective value at the
end is computed by another formula, which the check's tolerance absorbs.
"""

from __future__ import annotations

import bisect

import numpy as np

BLOCK = 1024
DOMAIN_NOISE, DOMAIN_CHAIN, DOMAIN_INIT, DOMAIN_TOPOLOGY = 0, 1, 2, 3


def _gen(seed, domain, block):
    bg = np.random.Philox(counter=[0, 0, int(block), int(domain)],
                          key=[int(seed), 0])
    return np.random.Generator(bg)


class _Problem:
    """Per-agent gradients, total objective, box and optimum of a config."""

    def __init__(self, flat):
        spec = flat["problem.set"]
        if spec["kind"] != "box":
            raise ValueError("the reference covers box sets only")
        fixture = flat["problem.fixture"]
        if fixture == "quadratic":
            m, n = flat["problem.m"], flat["problem.n"]
            rng = np.random.default_rng(flat["problem.centers_seed"])
            v = rng.standard_normal((m, n))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            radii = flat["problem.spread"] * rng.random(m) ** (1.0 / n)
            self.centers = (v * radii[:, None]).tolist()
            self.grad = self._quad_grad
            x_opt = np.mean(self.centers, axis=0)
        elif fixture == "regression":
            phi = np.asarray(flat["problem.features"], float)
            samples = [np.asarray(r, float) for r in flat["problem.samples"]]
            m, n = phi.shape
            rbar = np.array([r.mean() for r in samples])
            self.phi = phi.tolist()
            self.rbar = rbar.tolist()
            self.var = [float(np.mean((r - r.mean()) ** 2)) for r in samples]
            self.grad = self._regr_grad
            x_opt = np.linalg.solve(phi.T @ phi, phi.T @ rbar)
        else:
            raise ValueError(f"no reference for fixture {fixture!r}")
        self.fixture, self.m, self.n = fixture, m, n
        self.lower = [float(spec["lower"])] * n
        self.upper = [float(spec["upper"])] * n
        self.x_opt = self.project(x_opt.tolist())
        self.f_star = self.f(self.x_opt)

    def _quad_grad(self, x, i):
        c = self.centers[i]
        return [2.0 * (x[d] - c[d]) for d in range(self.n)]

    def _regr_grad(self, x, i):
        p = self.phi[i]
        t = sum(x[d] * p[d] for d in range(self.n)) - self.rbar[i]
        return [2.0 * t * p[d] for d in range(self.n)]

    def f(self, x):
        if self.fixture == "quadratic":
            return sum((x[d] - c[d]) ** 2 for c in self.centers
                       for d in range(self.n))
        total = 0.0
        for p, rb, var in zip(self.phi, self.rbar, self.var):
            t = sum(x[d] * p[d] for d in range(self.n)) - rb
            total += t * t + var
        return total

    def project(self, x):
        return [min(max(v, lo), hi)
                for v, lo, hi in zip(x, self.lower, self.upper)]

    def step(self, x, i, alpha, eps):
        g = self.grad(x, i)
        return self.project([x[d] - alpha * (g[d] + eps[d])
                             for d in range(self.n)])


def _noise_block(flat, seed, block, agents, dim):
    kind = flat["noise.kind"]
    gen = _gen(seed, DOMAIN_NOISE, block)
    if kind == "gaussian":
        return gen.standard_normal((BLOCK, agents, dim)) * float(flat["noise.sigma"])
    if kind == "bounded_uniform":
        v = gen.standard_normal((BLOCK, agents, dim))
        u = gen.random((BLOCK, agents))
        norms = np.linalg.norm(v, axis=2)
        norms[norms == 0.0] = 1.0
        r = u ** (1.0 / dim)
        r = r * np.full(BLOCK, float(flat["noise.radius"]))[:, None]
        return v * (r / norms)[:, :, None]
    raise ValueError(f"no reference for noise {kind!r}")


def _ring(m):
    return sorted({(i, i + 1) for i in range(m - 1)} | {(0, m - 1)})


def _transition_row(flat, neighbors, i):
    """Row i of the scheme's hand-off matrix, as the scheme builds it."""
    m = len(neighbors)
    kind = flat["scheme.kind"]
    nb = neighbors[i]
    deg = np.array([len(a) for a in neighbors], dtype=float)
    row = np.zeros(m)
    if kind == "equal":
        row[nb] = 1.0 / m
        row[i] = 1.0 - len(nb) / m
    elif kind == "min_equal":
        w = np.minimum(1.0 / (deg[i] + 1.0), 1.0 / (deg[nb] + 1.0))
        row[nb] = w
        row[i] = 1.0 - w.sum()
    elif kind == "weighted_mh":
        weight = np.float64(flat["scheme.weight"])
        safe = np.maximum(deg, 1.0)
        pair = np.minimum(1.0 / safe[i], 1.0 / safe[nb])
        row[nb] = weight * pair
        row[i] = 1.0 - (weight * pair).sum()
    else:
        raise ValueError(f"no reference for scheme {kind!r}")
    return np.cumsum(row).tolist()


def _neighbors(m, edges):
    sets = [set() for _ in range(m)]
    for i, j in edges:
        sets[i].add(j)
        sets[j].add(i)
    return [np.array(sorted(s), dtype=int) for s in sets]


class _Topology:
    """Cumulative hand-off row of agent i at tick k."""

    def __init__(self, flat, m):
        self.flat, self.m = flat, m
        kind = flat["topology.kind"]
        if kind == "ring":
            nbs = _neighbors(m, _ring(m))
            rows = [_transition_row(flat, nbs, i) for i in range(m)]
            self.row = lambda k, i: rows[i]
        elif kind == "random_edges" and flat["topology.graph"] == "complete":
            ring = _ring(m)
            window = int(flat["topology.window"])
            self.groups = [ring[g::window] for g in range(window)]
            ring_set = set(ring)
            self.optional = [(i, j) for i in range(m) for j in range(i + 1, m)
                             if (i, j) not in ring_set]
            self.prob = float(flat["topology.inclusion_prob"])
            self.seed = int(flat["topology.seed"])
            self.window = window
            self._block, self._draws = -1, None
            self.row = self._random_row
        else:
            raise ValueError(f"no reference for topology {kind!r}")

    def _random_row(self, k, i):
        block, off = divmod(k, BLOCK)
        if block != self._block:
            gen = _gen(self.seed, DOMAIN_TOPOLOGY, block)
            self._draws = gen.random((BLOCK, len(self.optional)))
            self._block = block
        keep = np.flatnonzero(self._draws[off] < self.prob)
        edges = list(self.groups[k % self.window])
        edges += [self.optional[j] for j in keep]
        return _transition_row(self.flat, _neighbors(self.m, edges), i)


def final_gap(flat, seed):
    """(final gap, f*) of replication ``seed`` of the config ``flat``."""
    prob = _Problem(flat)
    m, n = prob.m, prob.n
    alpha = float(flat["schedule.alpha"])
    horizon = int(flat["horizon"])
    x = prob.project([0.0] * n)
    if flat["algorithm"] == "cyclic":
        for it in range(1, horizon + 1):
            block, off = divmod(it - 1, BLOCK)
            if off == 0:
                eps = _noise_block(flat, seed, block, m, n).tolist()
            for i in range(m):
                x = prob.step(x, i, alpha, eps[off][i])
        return prob.f(x) - prob.f_star, prob.f_star

    topology = _Topology(flat, m)
    agent = min(int(_gen(seed, DOMAIN_INIT, 0).random() * m), m - 1)
    for it in range(1, horizon + 1):
        block, off = divmod(it - 1, BLOCK)
        if off == 0:
            uniforms = _gen(seed, DOMAIN_CHAIN, block).random(BLOCK).tolist()
            eps = _noise_block(flat, seed, block, 1, n).tolist()
        cum = topology.row(it - 1, agent)
        agent = min(bisect.bisect_right(cum, uniforms[off]), m - 1)
        x = prob.step(x, agent, alpha, eps[off][0])
    return prob.f(x) - prob.f_star, prob.f_star
