"""Sum-structured problem fixtures with certified optima.

Every fixture is a sum f = f_1 + ... + f_m of convex components, given as
one objective family (see ``objectives``), over a feasible set, together
with an ``OptimumCertificate`` that records how the optimal value was
obtained: a closed form, a brute-force lattice search at a stated
resolution, or unknown.  Grid certificates are the desk-scale oracle of
record, so they are only offered for dimension <= 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import CertificateError, DimensionMismatchError
from .objectives import QuadraticFamily, RegressionFamily, UtilityFamily

GRID_MAX_DIM = 3


@dataclass(frozen=True)
class OptimumCertificate:
    """How f* was established, with a witness point when available.

    ``tolerance`` bounds f(witness) - f_star for grid certificates (derived
    from the lattice resolution and the components' subgradient bounds) and
    is a pure float-arithmetic allowance for closed forms.
    """

    f_star: Optional[float]
    witness: Optional[np.ndarray]
    method: str  # "closed_form" | "grid" | "unknown"
    tolerance: float = 0.0
    resolution: Optional[float] = None
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in ("closed_form", "grid", "unknown"):
            raise CertificateError(f"unknown certificate method {self.method!r}")
        if self.method != "unknown" and self.f_star is None:
            raise CertificateError(f"{self.method} certificate needs f_star")


@dataclass(frozen=True)
class ProblemInstance:
    """An objective family's sum over a feasible set, plus an optimum certificate.

    ``f_many`` and ``subgradient_for_agents`` are the engines' two entry
    points; both delegate to the family.
    """

    family: object
    feasible_set: object
    optimum: OptimumCertificate
    name: str = "problem"

    def __post_init__(self):
        if self.family.m < 1:
            raise ValueError("a problem needs at least one component")
        if self.feasible_set.dim != self.n:
            raise DimensionMismatchError(
                f"feasible set dimension {self.feasible_set.dim} != component "
                f"dimension {self.n}")

    @property
    def m(self):
        return self.family.m

    @property
    def n(self):
        return self.family.n

    @property
    def bounds(self):
        return self.family.bounds

    def f_many(self, xs):
        xs = np.asarray(xs, dtype=float)
        squeeze = xs.ndim == 1
        if squeeze:
            xs = xs[None, :]
        vals = self.family.evaluate_many(xs)
        return float(vals[0]) if squeeze else vals

    def f(self, x):
        return self.f_many(x)

    def subgradient_for_agents(self, xs, agents):
        """Row r is a subgradient of f_{agents[r]} at xs[r]; one int ``agents``
        serves every row."""
        return self.family.subgradient_many(xs, agents)

    def check_certificate(self):
        """Re-verify f(witness) ~ f_star; raises CertificateError on drift."""
        cert = self.optimum
        if cert.method == "unknown" or cert.witness is None:
            return
        val = self.f(cert.witness)
        tol = max(cert.tolerance, 1e-9 * (1.0 + abs(cert.f_star)))
        if not val - cert.f_star <= tol:
            raise CertificateError(
                f"{self.name}: f(witness)={val!r} exceeds f_star={cert.f_star!r} "
                f"by more than {tol!r}")


# -- brute-force lattice search (the desk-scale optimum oracle) --------------

def grid_search(f_many, feasible_set, resolution):
    """Minimize ``f_many`` over a lattice of mesh ``resolution`` on the set.

    Returns (best value, best point).  Only supported up to dimension
    GRID_MAX_DIM; the lattice covers the set so that every feasible point
    has a feasible lattice point within resolution * dim.
    """
    dim = feasible_set.dim
    if dim > GRID_MAX_DIM:
        raise ValueError(f"grid search limited to dim <= {GRID_MAX_DIM}, got {dim}")
    best_val = np.inf
    best_x = None
    for chunk in feasible_set.lattice(resolution):
        vals = f_many(chunk)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_x = chunk[j].copy()
    if best_x is None:
        raise ValueError("lattice produced no feasible points")
    return best_val, best_x


def _grid_certificate(family, feasible_set, resolution, notes=None):
    val, x = grid_search(family.evaluate_many, feasible_set, resolution)
    tol = float(sum(family.bounds)) * resolution * feasible_set.dim
    return OptimumCertificate(val, x, "grid", tolerance=tol,
                              resolution=resolution, notes=notes or {})


def _uncertified(family, feasible_set, name):
    """The instance before its certificate (see :func:`_certified`)."""
    return ProblemInstance(family, feasible_set,
                           OptimumCertificate(None, None, "unknown"), name=name)


def _certified(prob, cert):
    """``prob`` with the optimum certificate ``cert``, re-verified."""
    prob = replace(prob, optimum=cert)
    prob.check_certificate()
    return prob


# -- fixtures -----------------------------------------------------------------

def make_quadratic_suite(m, n, spread, feasible_set, *, centers=None, seed=0,
                         grid_resolution=None):
    """m quadratic components ||x - c_i||^2 with centers in a ball of radius spread.

    The sum is m ||x - cbar||^2 plus a constant, so the constrained optimum
    is exactly the projection of the centroid for any convex set; Box and
    Ball (and Simplex) project in closed form.  Pass ``grid_resolution`` to
    certify by lattice search instead (dimension <= 3).
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 components and dimension n >= 1")
    if centers is None:
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((m, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        radii = spread * rng.random(m) ** (1.0 / n)
        centers = v * radii[:, None]
    family = QuadraticFamily(np.asarray(centers, dtype=float).reshape(m, n),
                             feasible_set)
    prob = _uncertified(family, feasible_set, f"quadratic_m{m}_n{n}")

    witness = feasible_set.project_many(family.centroid)
    f_witness = prob.f(witness)
    if grid_resolution is None:
        cert = OptimumCertificate(f_witness, witness, "closed_form",
                                  tolerance=1e-9 * (1.0 + abs(f_witness)))
    else:
        cert = _grid_certificate(family, feasible_set, grid_resolution)
        # The projected centroid is exact; keep whichever point is better.
        if f_witness <= cert.f_star:
            cert = OptimumCertificate(f_witness, witness, "grid",
                                      tolerance=cert.tolerance,
                                      resolution=grid_resolution,
                                      notes={"refined_by": "projected centroid"})
    return _certified(prob, cert)


def make_regression(features, samples, feasible_set, *, grid_resolution=1e-3):
    """Least-squares model-fitting instance over m sensors.

    Sensor i has the feature row phi_i = ``features[i]`` and the samples
    r_{i,k} = ``samples[i]`` of the field, and contributes
    f_i(x) = mean_k (r_{i,k} - phi_i @ x)^2.

    The certificate is the closed-form least-squares solution when it is
    feasible; otherwise (or when the normal matrix is rank-deficient) the
    optimum is certified by lattice search.
    """
    feats = np.array(features, dtype=float)
    if feats.ndim != 2 or len(feats) < 1:
        raise ValueError(f"need an (m, n) array of sensor features with m >= 1, "
                         f"got shape {feats.shape}")
    m, n = feats.shape
    samples = [np.atleast_1d(np.asarray(r, dtype=float)) for r in samples]
    if len(samples) != m:
        raise ValueError(f"got {len(samples)} sample arrays for {m} sensors")
    for i, r in enumerate(samples):
        if r.size == 0:
            raise ValueError(f"sensor {i} has zero samples")

    rbar = [float(r.mean()) for r in samples]
    var = [float(np.mean((r - rb) ** 2)) for r, rb in zip(samples, rbar)]
    family = RegressionFamily(feats, rbar, var, feasible_set)
    prob = _uncertified(family, feasible_set, f"regression_m{m}_n{n}")

    normal = sum(np.outer(p, p) for p in feats)
    rhs = sum(rb * p for p, rb in zip(feats, rbar))
    sol, _, rank, _ = np.linalg.lstsq(normal, rhs, rcond=None)
    rank_deficient = rank < n

    notes = {"rank_deficient": True} if rank_deficient else {}
    if not rank_deficient and feasible_set.contains(sol):
        f_star = prob.f(sol)
        cert = OptimumCertificate(f_star, sol, "closed_form",
                                  tolerance=1e-9 * (1.0 + abs(f_star)), notes=notes)
    else:
        if n > GRID_MAX_DIM:
            raise ValueError(
                "closed form unavailable (infeasible or rank-deficient) and the "
                f"grid oracle is limited to dim <= {GRID_MAX_DIM}")
        cert = _grid_certificate(family, feasible_set, grid_resolution, notes=notes)
    return _certified(prob, cert)


def _check_concave_increasing(utility, lo, hi, rng, trials=200, tol=1e-9):
    a = rng.uniform(lo, hi, trials)
    b = rng.uniform(lo, hi, trials)
    mid = 0.5 * (a + b)
    ua = np.asarray(utility.value(a), dtype=float)
    ub = np.asarray(utility.value(b), dtype=float)
    um = np.asarray(utility.value(mid), dtype=float)
    if np.any(um + tol < 0.5 * (ua + ub)):
        raise ValueError("utility fails the midpoint concavity check")
    lo_pts = np.minimum(a, b)
    hi_pts = np.maximum(a, b)
    if np.any(np.asarray(utility.value(hi_pts), dtype=float)
              + tol < np.asarray(utility.value(lo_pts), dtype=float)):
        raise ValueError("utility fails the monotonicity check")


def make_allocation(utilities, feasible_set, *, grid_resolution=1e-3):
    """Total-utility maximization over per-coordinate concave rewards.

    Utility i depends only on coordinate i; the returned instance is the
    equivalent minimization with f_i(x) = -U_i(x_i).  Each utility is
    screened by random midpoint concavity and monotonicity checks on its
    coordinate range.  The optimum is certified by lattice search
    (dimension <= 3); larger instances get an "unknown" certificate.
    """
    m = len(utilities)
    if m < 1:
        raise ValueError("need at least one utility")
    if feasible_set.dim != m:
        raise DimensionMismatchError(
            f"allocation couples agent i to coordinate i: need set dimension "
            f"{m}, got {feasible_set.dim}")

    # the slope bounds reject a range a utility is undefined on, before the
    # screening evaluates it there
    family = UtilityFamily(utilities, feasible_set)
    rng = np.random.default_rng(0)
    for j, u in enumerate(utilities):
        lo, hi = feasible_set.coordinate_range(j)
        _check_concave_increasing(u, lo, hi, rng)

    prob = _uncertified(family, feasible_set, f"allocation_m{m}")
    if m > GRID_MAX_DIM:
        return prob
    return _certified(prob, _grid_certificate(family, feasible_set,
                                              grid_resolution))
