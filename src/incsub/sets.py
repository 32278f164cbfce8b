"""Closed convex feasible sets with exact Euclidean projections.

Three set families are shipped: axis-aligned boxes, Euclidean balls and
scaled probability simplices.  All three project in closed form and have a
finite diameter, which the error bounds need.

All projection code is written row-wise on ``(N, n)`` arrays so that
projecting a batch gives bit-identical results to projecting each row
alone; the engines rely on this for reproducibility across batched and
serial execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError

CONTAINS_TOL = 1e-9

# the clip ufunc itself: np.clip reaches it through three wrappers, and
# np.minimum/np.maximum would differ from it on signed zeros
try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip


def _as_batch(x, dim, who):
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise DimensionMismatchError(
            f"{who}: expected points of dimension {dim}, got array of shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteError(f"{who}: input contains NaN or infinity")
    return x, squeeze


@dataclass(frozen=True)
class Box:
    """Axis-aligned box { x : lower <= x <= upper } (componentwise)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        up = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != up.shape or lo.ndim != 1:
            raise DimensionMismatchError("box bounds must be 1-d arrays of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(up).all()):
            raise NonFiniteError("box bounds must be finite")
        if np.any(lo > up):
            raise ValueError("box is empty: some lower bound exceeds its upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def dim(self):
        return self.lower.shape[0]

    def project_many(self, x):
        x, squeeze = _as_batch(x, self.dim, "Box.project")
        out = _clip(x, self.lower, self.upper)
        return out[0] if squeeze else out

    def contains(self, x, tol=CONTAINS_TOL):
        x, _ = _as_batch(x, self.dim, "Box.contains")
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def diameter(self):
        return float(np.linalg.norm(self.upper - self.lower))

    def sample(self, rng, size):
        return rng.uniform(self.lower, self.upper, size=(size, self.dim))


@dataclass(frozen=True)
class Ball:
    """Euclidean ball { x : ||x - center|| <= radius }."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if not np.isfinite(c).all():
            raise NonFiniteError("ball center must be finite")
        if not self.radius > 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self):
        return self.center.shape[0]

    def project_many(self, x):
        x, squeeze = _as_batch(x, self.dim, "Ball.project")
        d = x - self.center
        norms = np.linalg.norm(d, axis=1)
        # Scale only rows strictly outside; interior rows pass through exactly.
        scale = np.ones_like(norms)
        outside = norms > self.radius
        scale[outside] = self.radius / norms[outside]
        out = self.center + d * scale[:, None]
        return out[0] if squeeze else out

    def contains(self, x, tol=CONTAINS_TOL):
        x, _ = _as_batch(x, self.dim, "Ball.contains")
        return bool(np.all(np.linalg.norm(x - self.center, axis=1) <= self.radius + tol))

    def diameter(self):
        return 2.0 * self.radius

    def sample(self, rng, size):
        v = rng.standard_normal((size, self.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        r = self.radius * rng.random(size) ** (1.0 / self.dim)
        return self.center + v * r[:, None]


@dataclass(frozen=True)
class Simplex:
    """Scaled probability simplex { x : x >= 0, sum(x) = scale }."""

    scale: float
    dim: int

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"simplex scale must be positive, got {self.scale}")
        if self.dim < 1:
            raise ValueError(f"simplex dimension must be >= 1, got {self.dim}")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "dim", int(self.dim))

    def project_many(self, x):
        # Sort-and-threshold projection onto the scaled simplex (exact).
        x, squeeze = _as_batch(x, self.dim, "Simplex.project")
        n = self.dim
        u = np.sort(x, axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1) - self.scale
        scope = np.arange(1, n + 1, dtype=float)
        cond = u * scope > css
        rho = n - 1 - np.argmax(cond[:, ::-1], axis=1)
        theta = css[np.arange(x.shape[0]), rho] / (rho + 1.0)
        out = np.maximum(x - theta[:, None], 0.0)
        return out[0] if squeeze else out

    def contains(self, x, tol=CONTAINS_TOL):
        x, _ = _as_batch(x, self.dim, "Simplex.contains")
        return bool(np.all(x >= -tol)
                    and np.all(np.abs(x.sum(axis=1) - self.scale) <= tol * self.dim))

    def diameter(self):
        # Farthest pair of points is a pair of vertices scale * e_i, scale * e_j.
        if self.dim == 1:
            return 0.0
        return float(self.scale * np.sqrt(2.0))

    def sample(self, rng, size):
        g = rng.standard_exponential((size, self.dim))
        return self.scale * g / g.sum(axis=1, keepdims=True)


def coordinate_range(feasible_set, j):
    """Range [lo, hi] of coordinate j over the set (used for 1-d utilities)."""
    if isinstance(feasible_set, Box):
        return float(feasible_set.lower[j]), float(feasible_set.upper[j])
    if isinstance(feasible_set, Ball):
        c = feasible_set.center[j]
        return float(c - feasible_set.radius), float(c + feasible_set.radius)
    if isinstance(feasible_set, Simplex):
        return 0.0, float(feasible_set.scale)
    raise NotImplementedError(
        f"coordinate ranges not available for {type(feasible_set).__name__}")


def linear_range(feasible_set, a):
    """Range of the linear form a @ x over the set (exact per variant)."""
    a = np.asarray(a, dtype=float)
    if isinstance(feasible_set, Box):
        lo = np.where(a >= 0, feasible_set.lower, feasible_set.upper) @ a
        hi = np.where(a >= 0, feasible_set.upper, feasible_set.lower) @ a
        return float(lo), float(hi)
    if isinstance(feasible_set, Ball):
        mid = float(a @ feasible_set.center)
        half = feasible_set.radius * float(np.linalg.norm(a))
        return mid - half, mid + half
    if isinstance(feasible_set, Simplex):
        vals = feasible_set.scale * a
        return float(vals.min()), float(vals.max())
    raise NotImplementedError(
        f"linear ranges not available for {type(feasible_set).__name__}")


def farthest_distance(feasible_set, point):
    """max_{x in set} ||x - point||, exact for the bounded variants."""
    point = np.asarray(point, dtype=float)
    if isinstance(feasible_set, Box):
        gaps = np.maximum(np.abs(feasible_set.lower - point),
                          np.abs(feasible_set.upper - point))
        return float(np.linalg.norm(gaps))
    if isinstance(feasible_set, Ball):
        return float(np.linalg.norm(feasible_set.center - point) + feasible_set.radius)
    if isinstance(feasible_set, Simplex):
        # Max of a convex function over a polytope is attained at a vertex.
        verts = feasible_set.scale * np.eye(feasible_set.dim)
        return float(np.linalg.norm(verts - point, axis=1).max())
    raise NotImplementedError(
        f"farthest distance not available for {type(feasible_set).__name__}")
