"""Chain-product rate constants and closed-form performance bounds.

The mixing envelope for products of the shipped doubly stochastic matrices
is geometric: every entry of P(l)...P(k) is within b * beta^(k-l) of 1/m,
with b and beta exact functions of (eta, m, Q).  The bound calculators
return itemized reports whose total is by construction the sum of the
listed terms, and an empirical verifier turns a report plus a run trace
into a pass/fail verdict with configurable statistical slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError


@dataclass(frozen=True)
class RateConstants:
    """Geometric envelope constants: |[product]_ij - 1/m| <= b * beta^(k-l).

    Produced by :func:`rate_constants` from (eta, m, Q); the special value
    beta = 0 (with b = 1) models the exactly uniform chain, for which the
    envelope term vanishes for any window.
    """

    b: float
    beta: float

    def __post_init__(self):
        if not (self.b >= 1.0 and 0.0 <= self.beta < 1.0):
            raise ValueError(f"need b >= 1 and beta in [0, 1), got {self!r}")

    @classmethod
    def uniform(cls):
        return cls(1.0, 0.0)


def rate_constants(eta, m, Q):
    """Exact envelope constants for entry floor eta, m agents, window Q.

    b = (1 - eta/(4 m^2))^-2 and beta = (1 - eta/(4 m^2))^(1/Q).
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if m < 1 or int(m) != m:
        raise ValueError(f"m must be a positive integer, got {m}")
    if Q < 1 or int(Q) != Q:
        raise ValueError(f"Q must be a positive integer, got {Q}")
    base = 1.0 - eta / (4.0 * m * m)
    return RateConstants(base**-2, base ** (1.0 / Q))


def phi_product(matrices):
    """Ordered product M_0 @ M_1 @ ... of transition matrices.

    Accepts :class:`TransitionMatrix` objects or plain arrays.  The result
    of multiplying doubly stochastic factors stays doubly stochastic up to
    accumulated rounding (about count * 1e-12).
    """
    mats = [m.entries if hasattr(m, "entries") else np.asarray(m, dtype=float)
            for m in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    shape = mats[0].shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatchError(f"matrices must be square, got {shape}")
    out = mats[0]
    for m in mats[1:]:
        if m.shape != shape:
            raise DimensionMismatchError(
                f"matrix shapes differ: {shape} vs {m.shape}")
        out = out @ m
    return out


def max_uniform_deviation(matrix):
    """max_ij |entry - 1/m| of a square matrix, the mixing residual."""
    m = matrix.shape[0]
    return float(np.max(np.abs(matrix - 1.0 / m)))


@dataclass(frozen=True)
class BoundReport:
    """Additive gap above f*, itemized into its constituent terms."""

    gap: float
    terms: dict
    params: dict
    kind: str

    def __post_init__(self):
        if abs(self.gap - sum(self.terms.values())) > 1e-12 * max(1.0, abs(self.gap)):
            raise ValueError("bound total does not match the sum of its terms")

    def to_json_dict(self):
        return {"kind": self.kind, "gap": self.gap,
                "terms": dict(self.terms), "params": dict(self.params)}


def _common_checks(alpha, c_bounds, mu, nu, diameter, bounded=True):
    """The agent count, max C_i and sum C_i, after the checks every bound
    shares; ``bounded`` requires a finite diameter."""
    c_bounds = np.asarray(c_bounds, dtype=float)
    if c_bounds.ndim != 1 or c_bounds.size == 0 or np.any(c_bounds < 0):
        raise ValueError("need a nonempty list of nonnegative subgradient bounds")
    if not alpha > 0:
        raise ValueError(f"step-size must be positive, got {alpha}")
    if mu < 0 or nu < 0 or mu > nu:
        raise ValueError(f"need 0 <= mu <= nu, got mu={mu}, nu={nu}")
    if bounded and (diameter is None or not math.isfinite(diameter)):
        raise ValueError("this bound needs a bounded set: finite diameter required")
    return len(c_bounds), float(c_bounds.max()), float(c_bounds.sum())


def cyclic_bound(alpha, c_bounds, mu, nu, diameter=None):
    """Constant-step gap for the ring-order method.

    gap = m * mu * diameter + (alpha / 2) (sum C_i + m nu)^2.  The bias
    term requires a finite diameter; with mu = 0 it vanishes exactly and
    no diameter is needed (the zero-mean form of the bound).
    """
    m, _, c_sum = _common_checks(alpha, c_bounds, mu, nu, diameter, bounded=mu > 0)
    bias = m * mu * diameter if mu > 0 else 0.0
    step = 0.5 * alpha * (c_sum + m * nu) ** 2
    terms = {"bias": bias, "step": step}
    return BoundReport(bias + step, terms,
                       {"alpha": alpha, "m": m, "mu": mu, "nu": nu,
                        "diameter": diameter, "c_sum": c_sum},
                       "cyclic_constant_step")


def markov_bound(alpha, c_bounds, mu, nu, diameter, rate, T):
    """Constant-step gap for the randomized-order method at window T.

    gap = mu * diam + (alpha/2)(nu + C)^2 + alpha T C (C + nu)
          + b (sum C_i) beta^(T+1) diam,  with C = max_i C_i.

    The window term grows linearly in T while the mixing term decays
    geometrically; :func:`optimal_window` trades them off.
    """
    m, c_max, c_sum = _common_checks(alpha, c_bounds, mu, nu, diameter)
    if T < 0 or int(T) != T:
        raise ValueError(f"window T must be a nonnegative integer, got {T}")
    bias = mu * diameter
    step = 0.5 * alpha * (nu + c_max) ** 2
    window = alpha * T * c_max * (c_max + nu)
    mixing = rate.b * c_sum * rate.beta ** (T + 1) * diameter
    terms = {"bias": bias, "step": step, "window": window, "mixing": mixing}
    return BoundReport(bias + step + window + mixing, terms,
                       {"alpha": alpha, "m": m, "mu": mu, "nu": nu,
                        "diameter": diameter, "T": int(T), "b": rate.b,
                        "beta": rate.beta, "c_max": c_max, "c_sum": c_sum},
                       "markov_constant_step")


@dataclass(frozen=True)
class OptimalWindow:
    """Result of minimizing the window/mixing trade-off over integers T >= 0.

    ``T`` is the exact integer minimizer (ties resolved toward smaller T).
    ``formula_T`` is the closed-form value (ceiling of the continuous
    minimizer, clamped at zero); it can overshoot the exact minimizer by
    one, in which case ``discrepancy`` is set.
    """

    T: int
    formula_T: int
    discrepancy: bool


def _window_terms(alpha, c_effective, c0, beta, T):
    return alpha * c_effective * c_effective * T + c0 * beta ** (T + 1)


def optimal_window(alpha, c_effective, c0, beta):
    """Minimize alpha C^2 T + C_0 beta^(T+1) over integers T >= 0.

    ``c0`` is the mixing coefficient b * (sum C_i) * diameter.  Pass
    ``c_effective = sqrt(C (C + nu))`` to optimize the noisy window term
    alpha T C (C + nu) instead of the error-free alpha T C^2.

    beta = 0 is the uniform chain: the mixing term vanishes and T = 0.
    """
    if beta == 0.0:
        return OptimalWindow(0, 0, False)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be 0 or in (0, 1), got {beta}")
    if not (alpha > 0 and c_effective > 0 and c0 > 0):
        raise ValueError("alpha, C and C_0 must be positive")

    ratio = alpha * c_effective * c_effective / (c0 * (-math.log(beta)))
    if ratio >= 1.0:
        raw = 0
    else:
        raw = math.ceil(math.log(ratio) / math.log(beta)) - 1
    formula = max(raw, 0)

    t = formula
    g = lambda T: _window_terms(alpha, c_effective, c0, beta, T)
    while t > 0 and g(t - 1) <= g(t):
        t -= 1
    while g(t + 1) < g(t):
        t += 1
    return OptimalWindow(t, formula, t != formula)


def delta_window(alpha, beta):
    """Step-size-driven window: 0 if alpha >= beta, else ceil(ln a/ln b) - 1."""
    if not alpha > 0:
        raise ValueError(f"step-size must be positive, got {alpha}")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    if alpha >= beta:
        return 0
    return math.ceil(math.log(alpha) / math.log(beta)) - 1


def simple_delta_bound(alpha, c_bounds, mu, nu, diameter, rate):
    """Topology-light gap using the window delta(alpha, beta).

    Choosing T = delta(alpha, beta) makes beta^(T+1) <= alpha, which turns
    the mixing term into alpha * b * (sum C_i) * diam; the whole gap beyond
    the bias term is then proportional to alpha:

    gap = mu * diam + alpha [ (1/2)(nu+C)^2 + C(C+nu) delta + b (sum C_i) diam ].
    """
    m, c_max, c_sum = _common_checks(alpha, c_bounds, mu, nu, diameter)
    delta = delta_window(alpha, rate.beta)
    bias = mu * diameter
    step = 0.5 * alpha * (nu + c_max) ** 2
    window = alpha * c_max * (c_max + nu) * delta
    mixing = alpha * rate.b * c_sum * diameter
    terms = {"bias": bias, "step": step, "window": window, "mixing": mixing}
    return BoundReport(bias + step + window + mixing, terms,
                       {"alpha": alpha, "m": m, "mu": mu, "nu": nu,
                        "diameter": diameter, "delta": int(delta),
                        "b": rate.b, "beta": rate.beta,
                        "c_max": c_max, "c_sum": c_sum},
                       "markov_simple_delta")


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of checking a run's best value against an analytic gap."""

    passed: bool
    inf_f: float
    f_star: float
    gap: float
    threshold: float
    margin: float  # threshold - inf_f; negative means violation
    slack_rel: float
    slack_abs: float


def verify_bound_empirically(trace, report, f_star, *, slack_rel=0.02,
                             slack_abs=0.0):
    """Check running inf f <= f* + gap + slack for one replication.

    ``trace`` may be a RunTrace (its final running-inf entry is used) or a
    plain float.  Slack is relative to the gap plus an absolute allowance;
    both are echoed in the verdict so thresholds stay visible in outputs.
    """
    inf_f = trace if isinstance(trace, (int, float)) else float(trace.running_inf[-1])
    gap = report.gap if hasattr(report, "gap") else float(report)
    threshold = f_star + gap * (1.0 + slack_rel) + slack_abs
    margin = threshold - inf_f
    return BoundVerdict(bool(inf_f <= threshold), float(inf_f), float(f_star),
                        float(gap), float(threshold), float(margin),
                        float(slack_rel), float(slack_abs))


def aggregate_verdicts(verdicts):
    """Pass-fraction summary across replications."""
    total = len(verdicts)
    passed = sum(1 for v in verdicts if v.passed)
    return {"passed": passed, "total": total,
            "fraction": passed / total if total else None,
            "worst_margin": min((v.margin for v in verdicts), default=None)}
