"""Chain-product rate constants and closed-form performance bounds.

The mixing envelope for products of the shipped doubly stochastic matrices
is geometric: every entry of P(l)...P(k) is within b * beta^(k-l) of 1/m,
with b and beta exact functions of (eta, m, Q).  :class:`BoundInputs`
checks what the constant-step bounds read once and returns itemized
reports whose total is by construction the sum of the listed terms; a
report checks the replications' best values against its gap with
configurable statistical slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


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

    def verdicts(self, inf_f, f_star, slack_rel, slack_abs):
        """How many of the replications' best values ``inf_f`` lie at or
        below f* + gap (1 + slack_rel) + slack_abs, of how many, their
        fraction and the smallest margin threshold - inf f (negative is a
        violation); the last two are None for no replication."""
        inf_f = np.asarray(inf_f, dtype=float)
        threshold = f_star + self.gap * (1.0 + slack_rel) + slack_abs
        passed, total = int(np.count_nonzero(inf_f <= threshold)), inf_f.size
        return {"passed": passed, "total": total,
                "fraction": passed / total if total else None,
                "worst_margin": float(np.min(threshold - inf_f)) if total else None}


def _window_terms(alpha, c_effective, c0, beta, T):
    return alpha * c_effective * c_effective * T + c0 * beta ** (T + 1)


def optimal_window(alpha, c_effective, c0, beta):
    """Minimize alpha C^2 T + C_0 beta^(T+1) over integers T >= 0.

    ``c0`` is the mixing coefficient b * (sum C_i) * diameter.  Pass
    ``c_effective = sqrt(C (C + nu))`` to optimize the noisy window term
    alpha T C (C + nu) instead of the error-free alpha T C^2.

    The exact integer minimizer is returned, ties resolved toward smaller
    T; the closed-form continuous minimizer is only where the search starts.
    beta = 0 is the uniform chain, and c0 = 0 a one-point set (c_effective
    = 0 implies c0 = 0): either way the mixing term vanishes and T = 0.
    """
    if beta == 0.0 or c0 == 0.0:
        return 0
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be 0 or in (0, 1), got {beta}")
    if not (alpha > 0 and c_effective > 0 and c0 > 0):
        raise ValueError("alpha, C and C_0 must be positive")

    ratio = alpha * c_effective * c_effective / (c0 * (-math.log(beta)))
    if ratio >= 1.0:
        raw = 0
    else:
        raw = math.ceil(math.log(ratio) / math.log(beta)) - 1
    t = max(raw, 0)
    g = lambda T: _window_terms(alpha, c_effective, c0, beta, T)
    while t > 0 and g(t - 1) <= g(t):
        t -= 1
    while g(t + 1) < g(t):
        t += 1
    return t


def delta_window(alpha, beta):
    """Step-size-driven window: 0 if alpha >= beta, else ceil(ln a/ln b) - 1."""
    if not alpha > 0:
        raise ValueError(f"step-size must be positive, got {alpha}")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    if alpha >= beta:
        return 0
    return math.ceil(math.log(alpha) / math.log(beta)) - 1


@dataclass(frozen=True)
class BoundInputs:
    """What the constant-step bounds read, checked once: the subgradient
    bounds C_i, the noise suprema 0 <= mu <= nu, the feasible set's
    diameter (finite for a bias term or a randomized-order bound) and, for
    the randomized order, the chain's envelope ``rate``.  Derived: ``m``,
    ``c_max = max C_i``, ``c_sum = sum C_i`` and the optimal-window
    coefficients ``c0 = b C_sum diameter`` (None without a rate) and
    ``c_eff = sqrt(C_max (C_max + nu))``; one that overflows is inf.
    """

    c_bounds: np.ndarray
    mu: float
    nu: float
    diameter: Optional[float] = None
    rate: Optional[RateConstants] = None
    m: int = field(init=False)
    c_max: float = field(init=False)
    c_sum: float = field(init=False)
    c0: Optional[float] = field(init=False)
    c_eff: float = field(init=False)

    def __post_init__(self):
        c_bounds = np.asarray(self.c_bounds, dtype=float)
        if c_bounds.ndim != 1 or c_bounds.size == 0 or np.any(c_bounds < 0):
            raise ValueError("need a nonempty list of nonnegative subgradient bounds")
        mu, nu, diameter = self.mu, self.nu, self.diameter
        if mu < 0 or nu < 0 or mu > nu:
            raise ValueError(f"need 0 <= mu <= nu, got mu={mu}, nu={nu}")
        if ((mu > 0 or self.rate is not None)
                and (diameter is None or not math.isfinite(diameter))):
            raise ValueError("this bound needs a bounded set: finite diameter required")
        with np.errstate(over="ignore"):  # an overflow stays inf
            c_max, c_sum = float(c_bounds.max()), float(c_bounds.sum())
        derived = {"c_bounds": c_bounds, "m": len(c_bounds), "c_max": c_max,
                   "c_sum": c_sum,
                   "c0": None if self.rate is None else self.rate.b * c_sum * diameter,
                   "c_eff": math.sqrt(c_max * (c_max + nu))}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def _report(self, kind, alpha, terms, **params):
        if not alpha > 0:
            raise ValueError(f"step-size must be positive, got {alpha}")
        return BoundReport(sum(terms.values()), terms,
                           {"alpha": alpha, "m": self.m, "mu": self.mu,
                            "nu": self.nu, "diameter": self.diameter, **params},
                           kind)

    def _markov_report(self, kind, alpha, window, mixing, **params):
        """The randomized-order gap: bias mu * diam, step (alpha/2)(nu + C)^2
        with C = max_i C_i, and the given window and mixing terms."""
        rate = self.rate
        terms = {"bias": self.mu * self.diameter,
                 "step": 0.5 * alpha * (self.nu + self.c_max) ** 2,
                 "window": window, "mixing": mixing}
        return self._report(kind, alpha, terms, **params, b=rate.b,
                            beta=rate.beta, c_max=self.c_max, c_sum=self.c_sum)

    def cyclic(self, alpha):
        """Constant-step gap for the ring-order method.

        gap = m * mu * diameter + (alpha / 2) (sum C_i + m nu)^2.  With
        mu = 0 the bias term vanishes exactly and no diameter is needed
        (the zero-mean form of the bound).
        """
        m = self.m
        bias = m * self.mu * self.diameter if self.mu > 0 else 0.0
        step = 0.5 * alpha * (self.c_sum + m * self.nu) ** 2
        return self._report("cyclic_constant_step", alpha,
                            {"bias": bias, "step": step}, c_sum=self.c_sum)

    def markov(self, alpha, T):
        """Constant-step gap for the randomized-order method at window T.

        gap = mu * diam + (alpha/2)(nu + C)^2 + alpha T C (C + nu)
              + b (sum C_i) beta^(T+1) diam,  with C = max_i C_i.

        The window term grows linearly in T while the mixing term decays
        geometrically; :meth:`windows` picks the T that trades them off.
        """
        if T < 0 or int(T) != T:
            raise ValueError(f"window T must be a nonnegative integer, got {T}")
        rate, c_max = self.rate, self.c_max
        return self._markov_report(
            "markov_constant_step", alpha, alpha * T * c_max * (c_max + self.nu),
            rate.b * self.c_sum * rate.beta ** (T + 1) * self.diameter, T=int(T))

    def simple_delta(self, alpha):
        """Topology-light gap using the window delta(alpha, beta).

        Choosing T = delta(alpha, beta) makes beta^(T+1) <= alpha, which
        turns the mixing term into alpha * b * (sum C_i) * diam; the whole
        gap beyond the bias term is then proportional to alpha:

        gap = mu * diam + alpha [ (1/2)(nu+C)^2 + C(C+nu) delta + b (sum C_i) diam ].
        """
        delta = delta_window(alpha, self.rate.beta)
        c_max = self.c_max
        return self._markov_report(
            "markov_simple_delta", alpha, alpha * c_max * (c_max + self.nu) * delta,
            alpha * self.rate.b * self.c_sum * self.diameter, delta=int(delta))

    def windows(self, alpha):
        """The labeled windows T every randomized-order report set covers
        at ``alpha``: zero, the optimal window and the delta window."""
        beta = self.rate.beta
        return [("T0", 0),
                ("optimal", optimal_window(alpha, self.c_eff, self.c0, beta)),
                ("delta", delta_window(alpha, beta))]

    def reports(self, alpha):
        """The reports that apply at ``alpha``, one at a time: the ring
        order's one, or a randomized-order report for each labeled window
        and then the delta-window report."""
        if self.rate is None:
            yield self.cyclic(alpha)
            return
        for label, t in self.windows(alpha):
            report = self.markov(alpha, t)
            report.params["label"] = label
            yield report
        yield self.simple_delta(alpha)
