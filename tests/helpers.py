"""Independent oracles shared by the unit and acceptance suites."""

import math

import numpy as np

import incsub as isb


def brute_force_window(alpha, c_eff, c0, beta, horizon=None):
    """Exhaustive minimization of alpha C^2 T + C_0 beta^(T+1) over T >= 0.

    Kept deliberately separate from the analysis module: this is the oracle
    the closed-form-plus-local-search implementation is judged against.
    """
    if horizon is None:
        # far enough out that the geometric term is numerically dead
        horizon = int(math.log(1e-18 / max(c0, 1e-300)) / math.log(beta)) + 2
        horizon = min(max(horizon, 4), 2_000_000)
    ts = np.arange(horizon + 1)
    g = alpha * c_eff * c_eff * ts + c0 * beta ** (ts + 1.0)
    return int(np.argmin(g))  # argmin takes the first (smallest) minimizer


def geometric_envelope_holds(scheme, topology, horizon=200, tol=1e-10):
    """Exhaustive check of the product-mixing envelope up to ``horizon``."""
    m = topology.m
    rc = isb.rate_constants(isb.topology_eta(scheme, topology), m, topology.window)
    prod = None
    for k in range(horizon + 1):
        p = isb.build_transition(scheme, topology.adjacency(k))
        prod = p if prod is None else prod @ p
        dev = isb.max_uniform_deviation(prod)
        if dev > rc.b * rc.beta**k + tol:
            return False, k, dev
    return True, None, None


def random_symmetric_topology(rng, max_m=8):
    """Connected random undirected graph (ring floor plus random chords)."""
    from incsub.markov import ring_edges

    m = int(rng.integers(2, max_m + 1))
    edges = set(ring_edges(m))
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.4:
                edges.add((i, j))
    return m, sorted(edges)


class CallbackFamily:
    """Test-only objective family built from plain callables.

    ``evaluate(xs)`` gives f at each row of ``xs``; ``subgradient(xs,
    agents)`` gives row r's subgradient of f_{agents[r]}, as the shipped
    families' ``evaluate_many``/``subgradient_many`` do.  ``eval_width``
    is the width of ``evaluate``'s per-row temporaries, n unless given.
    """

    def __init__(self, n, bounds, evaluate, subgradient, eval_width=None):
        self.n = n
        self.bounds = np.asarray(bounds, dtype=float)
        self.m = len(self.bounds)
        self.eval_width = n if eval_width is None else eval_width
        self.evaluate_many = evaluate
        self.subgradient_many = subgradient


def absolute_value():
    """One agent with f(x) = |x| in one dimension; subgradient sign(x), 0 at 0."""
    return CallbackFamily(1, [1.0], lambda xs: np.abs(xs[:, 0]),
                          lambda xs, agents: np.sign(xs))


def run_one(problem, noise, schedule, order, x0, steps, seed, **kwargs):
    """The trace of one replication, from a batch of one."""
    return isb.run_batch(problem, noise, schedule, order, x0, steps, [seed],
                         **kwargs)[0]


# feasible sets and noise kinds the engines' steps are checked on, draw for
# draw, against the one-step reference
STEP_SETS = {
    "box": isb.Box([-1.0, -1.0], [1.0, 1.0]),
    "ball": isb.Ball([0.2, -0.1], 0.6),
    "simplex": isb.Simplex(1.0, 2),
}
STEP_NOISES = {
    "none": isb.NoNoise(),
    "gaussian": isb.GaussianNoise(0.3),
    "biased": isb.BiasedGaussianNoise(0.2, 0.3),
    "uniform": isb.BoundedUniformNoise(0.5),
}


def logging_problem(problem, log):
    """``problem`` with a copy of every subgradient call's (xs, agents)
    appended to ``log``; the family's own arrays are returned as they are."""
    inner = problem.family

    def logged(xs, agents):
        log.append((xs.copy(), np.array(agents, copy=True)))
        return inner.subgradient_many(xs, agents)

    return isb.ProblemInstance(
        CallbackFamily(inner.n, inner.bounds, inner.evaluate_many, logged,
                       inner.eval_width),
        problem.feasible_set, problem.optimum, problem.name)


def trace_state(tr):
    """Everything a trace holds, comparable with ``==``: each column's bytes
    (None for an absent one) and the typed fields."""
    cols = (tr.ks, tr.agents, tr.f_vals, tr.dists, tr.running_inf, tr.alphas)
    return ([None if col is None else col.tobytes() for col in cols],
            tr.seed, tr.final_x, tr.visit_counts, tr.tail_min, tr.aborted_at)
