"""Sum-structured problem fixtures with certified optima.

Every fixture is a sum f = f_1 + ... + f_m of convex components, given as
one objective family (see ``objectives``), over a feasible set, together
with an ``OptimumCertificate`` that records how the optimal value was
obtained: a closed form, or a first-order bracket of f* (the duality
certificate, in any dimension).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateError, DimensionMismatchError, NonFiniteError
from .objectives import QuadraticFamily, RegressionFamily, UtilityFamily

# The duality bracket stops once its width is at most BRACKET_RTOL * (1 + |f|),
# or after BRACKET_STEPS subgradient steps.
BRACKET_RTOL = 1e-9
BRACKET_STEPS = 20_000


@dataclass(frozen=True)
class OptimumCertificate:
    """How f* was established, with a witness point.

    ``tolerance`` bounds f(witness) - f*: for a duality certificate it is
    the width of the bracket [f_star - tolerance, f_star] that holds f*,
    and for a closed form it is a pure float-arithmetic allowance.  A
    non-finite ``f_star`` is a ValueError.
    """

    f_star: float
    witness: np.ndarray
    method: str  # "closed_form" | "duality"
    tolerance: float = 0.0
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in ("closed_form", "duality"):
            raise CertificateError(f"unknown certificate method {self.method!r}")
        if not np.isfinite(self.f_star):
            raise ValueError(f"the optimal value f* = {self.f_star!r} is not finite")


@dataclass(frozen=True)
class ProblemInstance:
    """An objective family's sum over a feasible set, plus an optimum certificate.

    ``f_many`` delegates to the family's ``evaluate_many``; the recorder
    evaluates through it.  The step loop calls the family's row protocol
    directly (see :mod:`incsub.objectives`).
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

    def check_certificate(self):
        """Re-verify f(witness) ~ f_star; raises CertificateError on drift."""
        cert = self.optimum
        val = self.f(cert.witness)
        tol = max(cert.tolerance, 1e-9 * (1.0 + abs(cert.f_star)))
        if not val - cert.f_star <= tol:
            raise CertificateError(
                f"{self.name}: f(witness)={val!r} exceeds f_star={cert.f_star!r} "
                f"by more than {tol!r}")


def _check_geometry(family, feasible_set):
    """Every bound reads the set's diameter and the C_i, and the bracket
    steps by them: a non-finite one is a NonFiniteError, raised before any
    certificate is sought."""
    diameter = feasible_set.diameter()
    if not (np.isfinite(diameter) and np.isfinite(family.bounds).all()):
        raise NonFiniteError(f"the diameter ({diameter!r}) and the largest "
                             f"subgradient bound ({float(family.bounds.max())!r}) "
                             f"must be finite")


def _bracket(family, feasible_set, start, notes=None):
    """A duality certificate: f* bracketed by projected subgradient steps
    from ``start`` projected onto the set.

    Step t moves x_t by -alpha_t g_t, with g_t = sum_i g_i(x_t) and
    alpha_t = diameter / (sum C_i sqrt(t)); the best iterate is the witness
    and f_star = f(witness) the upper end.  Each step's affine minorant
    f(x_t) + <g_t, x - x_t> lies below f on the set, and so does any
    weighted average of them; the lower end is the largest of the
    minorants' and of their alpha-weighted average's minimum over the set,
    which ``linear_range`` gives.  The average closes the bracket at a kink,
    where each single minorant stays below f* by a fixed amount.  The steps
    stop once the width is at most BRACKET_RTOL (1 + |f_star|), or after
    BRACKET_STEPS; ``tolerance`` is the width either way.
    """
    rows = family.gather(np.arange(family.m))
    diameter, c_sum = feasible_set.diameter(), float(family.bounds.sum())
    x = feasible_set.project_many(start)
    best_f, best_x, lower = np.inf, x, -np.inf
    weight, offset, slope = 0.0, 0.0, np.zeros(family.n)
    for t in range(1, BRACKET_STEPS + 1):
        f = float(family.evaluate_many(x[None, :])[0])
        g = family.subgradient_rows(np.broadcast_to(x, (family.m, family.n)),
                                    *rows).sum(axis=0)
        if f < best_f:
            best_f, best_x = f, x
        intercept = f - float(g @ x)  # the minorant is intercept + <g, .>
        w = 1.0 / np.sqrt(t)  # alpha_t up to a constant factor
        weight, offset, slope = weight + w, offset + w * intercept, slope + w * g
        lower = max(lower, intercept + feasible_set.linear_range(g)[0],
                    (offset + feasible_set.linear_range(slope)[0]) / weight)
        if best_f - lower <= BRACKET_RTOL * (1.0 + abs(best_f)):
            break
        x = feasible_set.project_many(x - (w * diameter / c_sum) * g)
    return OptimumCertificate(best_f, best_x, "duality",
                              tolerance=max(best_f - lower, 0.0),
                              notes=notes or {})


def _certified(family, feasible_set, name, cert):
    """The instance of ``family`` over the set with the optimum certificate
    ``cert``, re-verified."""
    prob = ProblemInstance(family, feasible_set, cert, name=name)
    prob.check_certificate()
    return prob


# -- fixtures -----------------------------------------------------------------

def make_quadratic_suite(m, n, spread, feasible_set, *, centers=None, seed=0):
    """m quadratic components ||x - c_i||^2 with centers in a ball of radius spread.

    The sum is m ||x - cbar||^2 plus a constant, so the constrained optimum
    is exactly the projection of the centroid for any convex set; Box and
    Ball (and Simplex) project in closed form.
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
    _check_geometry(family, feasible_set)
    witness = feasible_set.project_many(family.centroid)
    f_star = float(family.evaluate_many(witness[None, :])[0])
    cert = OptimumCertificate(f_star, witness, "closed_form",
                              tolerance=1e-9 * (1.0 + abs(f_star)))
    return _certified(family, feasible_set, f"quadratic_m{m}_n{n}", cert)


def make_regression(features, samples, feasible_set):
    """Least-squares model-fitting instance over m sensors.

    Sensor i has the feature row phi_i = ``features[i]`` and the samples
    r_{i,k} = ``samples[i]`` of the field, and contributes
    f_i(x) = mean_k (r_{i,k} - phi_i @ x)^2.

    The certificate is the closed-form least-squares solution when it is
    feasible; otherwise (or when the normal matrix is rank-deficient) the
    optimum is bracketed from the projected least-squares solution.
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
    _check_geometry(family, feasible_set)

    normal = sum(np.outer(p, p) for p in feats)
    rhs = sum(rb * p for p, rb in zip(feats, rbar))
    sol, _, rank, _ = np.linalg.lstsq(normal, rhs, rcond=None)
    rank_deficient = rank < n

    notes = {"rank_deficient": True} if rank_deficient else {}
    if not rank_deficient and feasible_set.contains(sol):
        f_star = float(family.evaluate_many(sol[None, :])[0])
        cert = OptimumCertificate(f_star, sol, "closed_form",
                                  tolerance=1e-9 * (1.0 + abs(f_star)), notes=notes)
    else:
        cert = _bracket(family, feasible_set, sol, notes)
    return _certified(family, feasible_set, f"regression_m{m}_n{n}", cert)


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


def make_allocation(utilities, feasible_set):
    """Total-utility maximization over per-coordinate concave rewards.

    Utility i depends only on coordinate i; the returned instance is the
    equivalent minimization with f_i(x) = -U_i(x_i).  Each utility is
    screened by random midpoint concavity and monotonicity checks on its
    coordinate range.  The optimum is bracketed from the projected origin.
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
    _check_geometry(family, feasible_set)
    rng = np.random.default_rng(0)
    for j, u in enumerate(utilities):
        lo, hi = feasible_set.coordinate_range(j)
        _check_concave_increasing(u, lo, hi, rng)
    return _certified(family, feasible_set, f"allocation_m{m}",
                      _bracket(family, feasible_set, np.zeros(m)))
