"""Objective families: all m agents' convex components as stacked parameters.

The problem is min_x f(x) = f_1(x) + ... + f_m(x) over a convex set, where
agent i knows only f_i.  The engines need two operations on that sum, and
each fixture's family provides them for every agent at once:

- ``evaluate_many(X)``: f at each row of an ``(N, n)`` batch;
- ``subgradient_many(X, agents)``: row r is a subgradient of
  f_{agents[r]} at X[r]; ``agents`` is an index array of length N, or one
  int for all rows.

Each family also has ``m``, ``n``, ``bounds``, the array of
C_i >= sup_{x in X} ||g_i(x)|| over the feasible set it was built for,
exact on the bounded set variants, and ``eval_width``, how many floats wide
the per-row temporaries of ``evaluate_many`` are (the recorder sizes its
flushes by it).

Every row's result depends on that row alone: the families use elementwise
products and sums along an axis, never a BLAS matrix-vector product, whose
rounding can change with the number of rows.  A replication's iterates are
therefore the same alone, in a batch or in a worker process, and a grid
search finds the same point whatever its chunk size.  Temporaries are
O(N m), never O(N m n).

Shipped families: ``QuadraticFamily`` (distances to centers),
``RegressionFamily`` (per-sensor mean squared residuals of a linear model)
and ``UtilityFamily`` (negated concave per-coordinate utilities).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .sets import coordinate_range, farthest_distance, linear_range


def _dot(xs, p):
    """sum_j xs[..., j] * p[..., j] with broadcasting, added in coordinate order."""
    total = xs[..., 0] * p[..., 0]
    for j in range(1, xs.shape[-1]):
        total += xs[..., j] * p[..., j]
    return total


class QuadraticFamily:
    """f_i(x) = ||x - c_i||^2 with gradient 2 (x - c_i); centers stacked (m, n).

    The sum is evaluated in closed form, m ||x - cbar||^2 plus the centers'
    spread around their centroid cbar.  C_i = 2 max_{x in X} ||x - c_i||.
    """

    def __init__(self, centers, feasible_set):
        self.centers = np.array(centers, dtype=float, ndmin=2)
        self.m, self.n = self.centers.shape
        self.eval_width = self.n
        self.centroid = self.centers.mean(axis=0)
        d = self.centers - self.centroid
        self.offset = float(np.einsum("ij,ij->", d, d))
        self.bounds = np.array([2.0 * farthest_distance(feasible_set, c)
                                for c in self.centers])

    def evaluate_many(self, xs):
        d = xs - self.centroid
        return self.m * np.einsum("ij,ij->i", d, d) + self.offset

    def subgradient_many(self, xs, agents):
        return 2.0 * (xs - self.centers[agents])


class RegressionFamily:
    """f_i(x) = (phi_i @ x - rbar_i)^2 + var_i, sensor i's mean squared residual.

    ``features`` stacks the rows phi_i (m, n); ``rbar`` and ``var`` are the
    mean and population variance of sensor i's samples r_ik, since
    mean_k (r_ik - phi_i @ x)^2 = (phi_i @ x - rbar_i)^2 + var_i.
    C_i = 2 ||phi_i|| max_{x in X} |phi_i @ x - rbar_i|.
    """

    def __init__(self, features, rbar, var, feasible_set):
        self.features = np.array(features, dtype=float, ndmin=2)
        self.m, self.n = self.features.shape
        self.eval_width = self.m
        self.rbar = np.asarray(rbar, dtype=float).reshape(self.m)
        self.var = np.asarray(var, dtype=float).reshape(self.m)
        bounds = []
        for phi, rb in zip(self.features, self.rbar):
            lo, hi = linear_range(feasible_set, phi)
            span = max(abs(lo - rb), abs(hi - rb))
            bounds.append(2.0 * float(np.linalg.norm(phi)) * span)
        self.bounds = np.array(bounds)

    def evaluate_many(self, xs):
        t = _dot(xs[:, None, :], self.features) - self.rbar
        return (t * t + self.var).sum(axis=1)

    def subgradient_many(self, xs, agents):
        phi = self.features[agents]
        t = _dot(xs, phi) - self.rbar[agents]
        return 2.0 * t[:, None] * phi


# -- concave utilities for allocation problems ------------------------------

@dataclass(frozen=True)
class LogUtility:
    """U(t) = weight * log(1 + t), concave and increasing for t > -1."""

    weight: float = 1.0

    def value(self, t):
        return self.weight * np.log1p(t)

    def slope(self, t):
        return self.weight / (1.0 + t)

    def max_slope(self, lo, hi):
        if not lo > -1.0:
            raise ValueError(f"log utility needs a coordinate range above -1, "
                             f"got lower end {lo!r}")
        return self.slope(lo)


@dataclass(frozen=True)
class SqrtUtility:
    """U(t) = sqrt(t) for t >= floor, extended linearly below.

    The raw square root has unbounded slope at 0, which breaks the bounded
    subgradient requirement on sets touching t = 0.  Below ``floor`` we use
    the tangent continuation sqrt(floor) + (t - floor) / (2 sqrt(floor)),
    which keeps the utility concave, increasing, and Lipschitz with
    constant 1 / (2 sqrt(floor)).
    """

    floor: float = 1e-4

    def __post_init__(self):
        if not self.floor > 0:
            raise ValueError("sqrt utility needs a positive smoothing floor")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        root = np.sqrt(np.maximum(t, self.floor))
        low = np.sqrt(self.floor) + (t - self.floor) / (2.0 * np.sqrt(self.floor))
        out = np.where(t >= self.floor, root, low)
        return out if out.ndim else float(out)

    def slope(self, t):
        t = np.asarray(t, dtype=float)
        out = 1.0 / (2.0 * np.sqrt(np.maximum(t, self.floor)))
        return out if out.ndim else float(out)

    def max_slope(self, lo, hi):
        return float(self.slope(lo))


@dataclass(frozen=True)
class LinearUtility:
    """U(t) = slope * t, optionally capped at a ceiling value."""

    slope_value: float
    cap: Optional[float] = None

    def __post_init__(self):
        if not self.slope_value >= 0:
            raise ValueError("linear utility slope must be nonnegative")

    def value(self, t):
        v = self.slope_value * np.asarray(t, dtype=float)
        if self.cap is not None:
            v = np.minimum(v, self.cap)
        return v if np.ndim(v) else float(v)

    def slope(self, t):
        t = np.asarray(t, dtype=float)
        s = np.full_like(t, self.slope_value, dtype=float)
        if self.cap is not None:
            s = np.where(self.slope_value * t >= self.cap, 0.0, s)
        return s if s.ndim else float(s)

    def max_slope(self, lo, hi):
        return float(self.slope_value)


class UtilityFamily:
    """f_i(x) = -U_i(x_i) for a concave utility U_i of coordinate i (n = m).

    C_i is the largest slope of U_i over coordinate i's range on the set.
    Each utility is its own function, so the sum and the slopes take one
    call per agent.
    """

    def __init__(self, utilities, feasible_set):
        self.utilities = tuple(utilities)
        self.m = self.n = self.eval_width = len(self.utilities)
        self.bounds = np.array(
            [float(u.max_slope(*coordinate_range(feasible_set, j)))
             for j, u in enumerate(self.utilities)])
        self._basis = np.eye(self.n)

    def evaluate_many(self, xs):
        total = -np.asarray(self.utilities[0].value(xs[:, 0]), dtype=float)
        for j in range(1, self.m):
            total -= np.asarray(self.utilities[j].value(xs[:, j]), dtype=float)
        return total

    def subgradient_many(self, xs, agents):
        agents = np.asarray(agents)
        if agents.ndim == 0:
            a = int(agents)
            slopes = self.utilities[a].slope(xs[:, a])
        else:
            every = np.stack([np.asarray(u.slope(xs[:, j]), dtype=float)
                              for j, u in enumerate(self.utilities)], axis=1)
            slopes = every[np.arange(len(xs)), agents]
        return -np.asarray(slopes, dtype=float)[:, None] * self._basis[agents]
