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


def formula_window(alpha, c_eff, c0, beta):
    """The closed-form window: the ceiling of the continuous minimizer of
    alpha C^2 T + C_0 beta^(T+1), less one and clamped at zero.  It can
    overshoot the integer minimizer by one."""
    ratio = alpha * c_eff * c_eff / (c0 * (-math.log(beta)))
    if ratio >= 1.0:
        return 0
    return max(math.ceil(math.log(ratio) / math.log(beta)) - 1, 0)


def criterion_8_fixtures():
    """Criterion 8's fixtures as (name, builder, resolution): each builder
    makes the problem, and the lattice oracle checks its f* at that
    resolution."""
    return [
        ("allocation m=3",
         lambda: isb.make_allocation(
             [isb.LogUtility(), isb.SqrtUtility(), isb.LinearUtility(2.0)],
             isb.Simplex(1.0, 3)), 1e-4),
        ("quadratic on ball",
         lambda: isb.make_quadratic_suite(
             3, 2, 0.0, isb.Ball([0.0, 0.0], 0.1),
             centers=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 1e-4),
        ("clipped regression",
         lambda: isb.make_regression([[1.0]], [[1.0, 3.0]],
                                     isb.Box([0.0], [1.0])), 1e-4),
    ]


def phi_product(matrices):
    """Ordered product M_0 @ M_1 @ ... of transition matrices.

    The result of multiplying doubly stochastic factors stays doubly
    stochastic up to accumulated rounding (about count * 1e-12).
    """
    mats = [np.asarray(m, dtype=float) for m in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    shape = mats[0].shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise isb.DimensionMismatchError(f"matrices must be square, got {shape}")
    out = mats[0]
    for m in mats[1:]:
        if m.shape != shape:
            raise isb.DimensionMismatchError(
                f"matrix shapes differ: {shape} vs {m.shape}")
        out = out @ m
    return out


def max_uniform_deviation(matrix):
    """max_ij |entry - 1/m| of a square matrix, the mixing residual."""
    m = matrix.shape[0]
    return float(np.max(np.abs(matrix - 1.0 / m)))


def geometric_envelope_holds(scheme, topology, horizon=200, tol=1e-10):
    """Exhaustive check of the product-mixing envelope up to ``horizon``."""
    m = topology.m
    rc = isb.rate_constants(isb.topology_eta(scheme, topology), m, topology.window)
    prod = None
    for k in range(horizon + 1):
        p = isb.build_transition(scheme, topology.adjacencies(k, 1)[0])
        prod = p if prod is None else prod @ p
        dev = max_uniform_deviation(prod)
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


class PerAgentFactors(isb.WeightedMetropolisHastings):
    """A deliberately broken weighted Metropolis-Hastings scheme: agent i
    scales its hand-offs by its own ``factors[i]``.  Neighbors with unequal
    factors leave a column that does not sum to 1.  It builds full matrices
    only: its short entries lie far below the floor, so validation never
    asks it for a block in exact arithmetic."""

    def __init__(self, factors):
        super().__init__(0.5)
        self.factors = np.asarray(factors, dtype=float)

    def matrix(self, adj, deg, one=1.0, rows=None, cols=None):
        p = super().matrix(adj, deg, one, rows, cols)
        p *= self.factors[:, None] / self.weight
        i = np.arange(len(self.factors))
        p[..., i, i] = 0.0
        p[..., i, i] = 1.0 - p.sum(axis=-1)
        return p


class CallbackFamily:
    """Test-only objective family built from plain callables.

    ``evaluate(xs)`` gives f at each row of ``xs``; ``subgradient(xs,
    agents)`` gives row r's subgradient of f_{agents[r]}, as the shipped
    families' ``evaluate_many`` and row protocol do.  Its rows are the
    agents themselves, so the step loop calls ``subgradient`` once per
    sub-step with that sub-step's agents: a (R,) index array for a chain, a
    numpy integer for the ring order.  ``eval_width`` is the width of
    ``evaluate``'s per-row temporaries, n unless given.
    """

    def __init__(self, n, bounds, evaluate, subgradient, eval_width=None):
        self.n = n
        self.bounds = np.asarray(bounds, dtype=float)
        self.m = len(self.bounds)
        self.eval_width = n if eval_width is None else eval_width
        self.evaluate_many = evaluate
        self.subgradient = subgradient

    def gather(self, agents):
        return (agents,)

    def subgradient_rows(self, xs, agents):
        return self.subgradient(xs, agents)


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
# one problem of each family on a step set, for the engines' draw-for-draw
# checks across a block boundary
STEP_FAMILIES = {
    "quadratic": lambda fset: isb.make_quadratic_suite(5, 2, 1.0, fset, seed=42),
    "regression": lambda fset: isb.make_regression(
        [[1.0, 0.5], [-0.3, 1.2], [0.8, -0.7]], [[0.2, 0.4], [1.0], [-0.5, 0.1, 0.3]],
        fset),
    "allocation": lambda fset: isb.make_allocation(
        [isb.LinearUtility(1.0), isb.SqrtUtility(0.04)], fset),
}
STEP_NOISES = {
    "none": isb.NoNoise(),
    "gaussian": isb.GaussianNoise(0.3),
    "biased": isb.BiasedGaussianNoise(0.2, 0.3),
    "uniform": isb.BoundedUniformNoise(0.5),
}


class _LoggingFamily(CallbackFamily):
    """``inner``'s rows behind the agents that gathered them; each
    sub-step appends a copy of its (xs, agents) to ``log``, then calls
    ``inner.subgradient_rows``."""

    def __init__(self, inner, log):
        super().__init__(inner.n, inner.bounds, inner.evaluate_many, None,
                         inner.eval_width)
        self.inner, self.log = inner, log

    def gather(self, agents):
        return (agents,) + tuple(self.inner.gather(agents))

    def subgradient_rows(self, xs, agents, *rows):
        self.log.append((xs.copy(), np.array(agents, copy=True)))
        return self.inner.subgradient_rows(xs, *rows)


def logging_problem(problem, log):
    """``problem`` with a copy of every sub-step's (xs, agents) appended to
    ``log``.  It runs the family's own row protocol, a gather per block and
    ``subgradient_rows`` per sub-step, and the family's own arrays are
    returned as they are."""
    return isb.ProblemInstance(_LoggingFamily(problem.family, log),
                               problem.feasible_set, problem.optimum, problem.name)


def trace_state(tr):
    """Everything a trace holds, comparable with ``==``: each column's bytes
    (None for an absent one) and the typed fields."""
    cols = (tr.ks, tr.agents, tr.f_vals, tr.dists, tr.running_inf, tr.alphas)
    return ([None if col is None else col.tobytes() for col in cols],
            tr.seed, tr.final_x, tr.visit_counts, tr.tail_min, tr.aborted_at)
