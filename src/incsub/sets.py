"""Closed convex feasible sets with exact Euclidean projections.

Three set families are shipped: axis-aligned boxes, Euclidean balls and
scaled probability simplices.  All three project in closed form and have a
finite diameter, which the error bounds need.  Each also computes the
geometry that the subgradient bounds C_i and the duality bracket read.

All projection code is written row-wise on ``(N, n)`` arrays so that
projecting a batch gives bit-identical results to projecting each row
alone; the engines rely on this for reproducibility across batched and
serial execution.

Each set projects in two ways.  ``project_into(x, out)`` writes the
projection of the finite ``(N, n)`` float batch ``x`` into ``out`` and
checks nothing: it is the step loop's, which checks each point's
finiteness itself and raises :func:`nonfinite_input` for a bad one.
``project_many(x)`` takes one point or a batch of anything array-like,
checks its shape and finiteness, and returns a new array.
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


def nonfinite_input(who):
    """The error for a NaN or infinite point handed to ``who``."""
    return NonFiniteError(f"{who}: input contains NaN or infinity")


def _as_batch(x, dim, who):
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise DimensionMismatchError(
            f"{who}: expected points of dimension {dim}, got array of shape {x.shape}")
    if not np.isfinite(x).all():
        raise nonfinite_input(who)
    return x, squeeze


class _Projection:
    """``project_many`` of every set: the checked form of ``project_into``."""

    def project_many(self, x):
        x, squeeze = _as_batch(x, self.dim, f"{type(self).__name__}.project")
        out = np.empty_like(x)
        self.project_into(x, out)
        return out[0] if squeeze else out


@dataclass(frozen=True)
class Box(_Projection):
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
        object.__setattr__(self, "_batch_bounds", (lo, up))

    @property
    def dim(self):
        return self.lower.shape[0]

    def project_into(self, x, out):
        # clip is fastest on bounds of the batch's own shape, so the bounds
        # of the last batch shape are kept
        if self._batch_bounds[0].shape != x.shape:
            object.__setattr__(self, "_batch_bounds", tuple(
                np.broadcast_to(b, x.shape).copy() for b in (self.lower, self.upper)))
        _clip(x, *self._batch_bounds, out=out)

    def contains(self, x):
        x, _ = _as_batch(x, self.dim, "Box.contains")
        return bool(np.all(x >= self.lower - CONTAINS_TOL)
                    and np.all(x <= self.upper + CONTAINS_TOL))

    def diameter(self):
        return float(np.linalg.norm(self.upper - self.lower))

    def sample(self, rng, size):
        return rng.uniform(self.lower, self.upper, size=(size, self.dim))

    def coordinate_range(self, j):
        """Range [lo, hi] of coordinate j over the set (used for 1-d utilities)."""
        return float(self.lower[j]), float(self.upper[j])

    def linear_range(self, a):
        """Range of the linear form a @ x over the set."""
        a = np.asarray(a, dtype=float)
        lo = np.where(a >= 0, self.lower, self.upper) @ a
        hi = np.where(a >= 0, self.upper, self.lower) @ a
        return float(lo), float(hi)

    def farthest_distance(self, point):
        """max_{x in set} ||x - point||."""
        point = np.asarray(point, dtype=float)
        gaps = np.maximum(np.abs(self.lower - point), np.abs(self.upper - point))
        return float(np.linalg.norm(gaps))


@dataclass(frozen=True)
class Ball(_Projection):
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

    def project_into(self, x, out):
        d = x - self.center
        norms = np.linalg.norm(d, axis=1)
        # Scale only rows strictly outside; interior rows pass through exactly.
        scale = np.ones_like(norms)
        outside = norms > self.radius
        scale[outside] = self.radius / norms[outside]
        d *= scale[:, None]
        np.add(self.center, d, out=out)

    def contains(self, x):
        x, _ = _as_batch(x, self.dim, "Ball.contains")
        return bool(np.all(np.linalg.norm(x - self.center, axis=1)
                           <= self.radius + CONTAINS_TOL))

    def diameter(self):
        return 2.0 * self.radius

    def sample(self, rng, size):
        v = rng.standard_normal((size, self.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        r = self.radius * rng.random(size) ** (1.0 / self.dim)
        return self.center + v * r[:, None]

    def coordinate_range(self, j):
        c = self.center[j]
        return float(c - self.radius), float(c + self.radius)

    def linear_range(self, a):
        a = np.asarray(a, dtype=float)
        mid = float(a @ self.center)
        half = self.radius * float(np.linalg.norm(a))
        return mid - half, mid + half

    def farthest_distance(self, point):
        point = np.asarray(point, dtype=float)
        return float(np.linalg.norm(self.center - point) + self.radius)


@dataclass(frozen=True)
class Simplex(_Projection):
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

    def project_into(self, x, out):
        # Sort-and-threshold projection onto the scaled simplex (exact).
        n = self.dim
        u = np.sort(x, axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1) - self.scale
        scope = np.arange(1, n + 1, dtype=float)
        cond = u * scope > css
        rho = n - 1 - np.argmax(cond[:, ::-1], axis=1)
        theta = css[np.arange(x.shape[0]), rho] / (rho + 1.0)
        np.subtract(x, theta[:, None], out=out)
        np.maximum(out, 0.0, out=out)

    def contains(self, x):
        x, _ = _as_batch(x, self.dim, "Simplex.contains")
        return bool(np.all(x >= -CONTAINS_TOL)
                    and np.all(np.abs(x.sum(axis=1) - self.scale)
                               <= CONTAINS_TOL * self.dim))

    def diameter(self):
        # Farthest pair of points is a pair of vertices scale * e_i, scale * e_j.
        if self.dim == 1:
            return 0.0
        return float(self.scale * np.sqrt(2.0))

    def sample(self, rng, size):
        g = rng.standard_exponential((size, self.dim))
        return self.scale * g / g.sum(axis=1, keepdims=True)

    def coordinate_range(self, j):
        return 0.0, float(self.scale)

    def linear_range(self, a):
        vals = self.scale * np.asarray(a, dtype=float)
        return float(vals.min()), float(vals.max())

    def farthest_distance(self, point):
        # Max of a convex function over a polytope is attained at a vertex.
        verts = self.scale * np.eye(self.dim)
        return float(np.linalg.norm(verts - np.asarray(point, dtype=float),
                                    axis=1).max())
