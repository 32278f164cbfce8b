import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incsub import (BiasedGaussianNoise, BoundedUniformNoise, GaussianNoise,
                    NoNoise)
from incsub.streams import BLOCK
from reference import NoiseStream


def collect_draws(model, seed, count, dim):
    """All draws for iterations 1..count on one agent lane, via the block API."""
    out = np.empty((count, dim))
    done = 0
    block = 0
    while done < count:
        data = model.sample_block(seed, block, 1, dim)
        take = min(BLOCK, count - done)
        out[done:done + take] = data[:take, 0, :]
        done += take
        block += 1
    return out


def test_gaussian_mean_is_centered():
    # empirical mean of 1e5 draws within 3 sigma / sqrt(N) per coordinate
    sigma, n, count = 0.1, 2, 100_000
    draws = collect_draws(GaussianNoise(sigma), seed=5, count=count, dim=n)
    tol = 3 * sigma / np.sqrt(count)
    assert np.all(np.abs(draws.mean(axis=0)) <= tol)


@pytest.mark.parametrize("model,dim", [
    (GaussianNoise(0.2), 3),
    (BiasedGaussianNoise(0.05, 0.2), 3),
    (BoundedUniformNoise(0.4), 3),
    (GaussianNoise(lambda k: 0.2 / np.sqrt(k)), 2),
])
def test_declared_moments_hold_empirically(model, dim):
    count = 100_000
    draws = collect_draws(model, seed=9, count=count, dim=dim)
    ks = np.arange(1, count + 1)
    mu = np.array([model.mean_bound(int(k)) for k in [1]])[0]
    nu1 = model.rms_bound(1, dim)
    # per-iteration scaling: normalize decaying sequences back to k = 1 scale
    scales = np.array([model.rms_bound(int(k), dim) for k in ks])
    scales[scales == 0.0] = 1.0
    unit = draws / scales[:, None] * nu1
    se = nu1 / np.sqrt(count)
    assert np.linalg.norm(unit.mean(axis=0)) <= mu + 4 * se
    second = np.mean(np.sum(unit**2, axis=1))
    assert second <= nu1**2 * 1.05


def test_declared_moment_formulas():
    g = GaussianNoise(0.1)
    assert g.mean_bound(7) == 0.0
    assert g.rms_bound(7, 4) == pytest.approx(0.1 * 2.0)
    b = BiasedGaussianNoise(0.3, 0.1)
    assert b.mean_bound(2) == pytest.approx(0.3)
    assert b.rms_bound(2, 4) == pytest.approx(np.sqrt(0.09 + 4 * 0.01))
    u = BoundedUniformNoise(0.5)
    assert u.mean_bound(1) == 0.0
    assert u.rms_bound(1, 3) == 0.5


def test_bounded_uniform_never_exceeds_radius():
    draws = collect_draws(BoundedUniformNoise(0.4), seed=2, count=20_000, dim=3)
    assert np.max(np.linalg.norm(draws, axis=1)) <= 0.4 + 1e-12


@given(k=st.integers(min_value=1, max_value=10**6),
       bias=st.floats(min_value=0.0, max_value=5.0),
       sigma=st.floats(min_value=0.0, max_value=5.0),
       dim=st.integers(min_value=1, max_value=8))
@settings(max_examples=200, deadline=None)
def test_mean_bound_never_exceeds_rms_bound(k, bias, sigma, dim):
    for model in (GaussianNoise(sigma), BiasedGaussianNoise(bias, sigma),
                  BoundedUniformNoise(sigma), NoNoise()):
        assert 0.0 <= model.mean_bound(k) <= model.rms_bound(k, dim) + 1e-15


def test_draws_replayable_and_distinct_across_iterations():
    stream_a = NoiseStream(GaussianNoise(0.5), seed=13, agents=3, dim=2)
    stream_b = NoiseStream(GaussianNoise(0.5), seed=13, agents=3, dim=2)
    a = [stream_a.draw(k, agent) for k in (1, 2, BLOCK, BLOCK + 1) for agent in (0, 2)]
    b = [stream_b.draw(k, agent) for k in (1, 2, BLOCK, BLOCK + 1) for agent in (0, 2)]
    for u, v in zip(a, b):
        assert np.array_equal(u, v)
    # access order does not matter
    assert np.array_equal(stream_b.draw(2, 1), stream_a.draw(2, 1))
    # distinct (iteration, agent) cells get distinct draws
    flat = np.array([stream_a.draw(k, i) for k in (1, 2, 3) for i in (0, 1, 2)])
    assert len(np.unique(flat.round(12), axis=0)) == len(flat)
