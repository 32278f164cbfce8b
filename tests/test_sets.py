import numpy as np
import pytest

from incsub import Ball, Box, DimensionMismatchError, Simplex


def brute_force_simplex_projection(x, scale, resolution):
    """Independent oracle: grid-minimize ||y - x|| over the 2-d simplex."""
    t = np.arange(0.0, scale + resolution / 2, resolution)
    pts = np.column_stack([t, scale - t])
    d = np.linalg.norm(pts - x, axis=1)
    return pts[np.argmin(d)]


def test_box_clamps_coordinates():
    assert np.allclose(Box([0, 0], [1, 1]).project_many([1.5, -0.3]), [1.0, 0.0])


def test_ball_scales_radially():
    assert np.allclose(Ball([0, 0], 1.0).project_many([3.0, 4.0]), [0.6, 0.8])


def test_simplex_matches_brute_force_oracle():
    x = np.array([0.8, 0.8])
    oracle = brute_force_simplex_projection(x, 1.0, 1e-4)
    got = Simplex(1.0, 2).project_many(x)
    assert np.allclose(got, [0.5, 0.5], atol=1e-12)
    assert np.linalg.norm(got - oracle) <= 2e-4


@pytest.mark.parametrize("x", [[0.3, 0.3], [-5.0, 2.0], [2.0, -1.0]])
def test_simplex_agrees_with_oracle_at_random_points(x):
    x = np.array(x, dtype=float)
    oracle = brute_force_simplex_projection(x, 1.0, 1e-4)
    got = Simplex(1.0, 2).project_many(x)
    # the oracle is lattice-limited; distances must agree to lattice accuracy
    assert np.linalg.norm(got - x) <= np.linalg.norm(oracle - x) + 1e-12
    assert np.linalg.norm(got - oracle) <= 2e-4


def make_sets():
    return [
        Box([-1.0, 0.5], [2.0, 3.0]),
        Ball([0.5, -0.25], 1.5),
        Simplex(2.0, 2),
        Simplex(1.0, 4),
    ]


def sample_around(fset, rng, size, span=4.0):
    return rng.uniform(-span, span, size=(size, fset.dim))


@pytest.mark.parametrize("fset", make_sets(), ids=lambda s: type(s).__name__)
def test_projection_is_nonexpansive(fset):
    rng = np.random.default_rng(7)
    x = sample_around(fset, rng, 1000)
    y = sample_around(fset, rng, 1000)
    px = fset.project_many(x)
    py = fset.project_many(y)
    lhs = np.linalg.norm(px - py, axis=1)
    rhs = np.linalg.norm(x - y, axis=1)
    assert np.all(lhs <= rhs + 1e-9)


@pytest.mark.parametrize("fset", make_sets(), ids=lambda s: type(s).__name__)
def test_projection_is_optimal_and_idempotent(fset):
    rng = np.random.default_rng(11)
    x = sample_around(fset, rng, 300)
    z = fset.sample(rng, 300)
    px = fset.project_many(x)
    assert np.all(np.linalg.norm(px - x, axis=1)
                  <= np.linalg.norm(z - x, axis=1) + 1e-8)
    # projecting again moves nothing
    assert np.allclose(fset.project_many(px), px, atol=1e-9)
    # feasible points pass through
    pz = fset.project_many(z)
    assert np.allclose(pz, z, atol=1e-8)


def test_membership_and_dimension_checks():
    box = Box([0, 0], [1, 1])
    assert box.contains([0.5, 0.5])
    assert not box.contains([1.5, 0.5])
    with pytest.raises(DimensionMismatchError):
        box.project_many([0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        Ball([0.0], 0.0)
    with pytest.raises(ValueError):
        Simplex(0.0, 2)


def test_diameters():
    assert Box([0, 0], [3, 4]).diameter() == 5.0
    assert Ball([1, 1], 2.0).diameter() == 4.0
    assert Simplex(1.0, 2).diameter() == pytest.approx(np.sqrt(2.0))
