import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incsub import (BiasedGaussianNoise, BoundedUniformNoise, GaussianNoise,
                    NoNoise)
from incsub.streams import BLOCK, block_generator, check_seed
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


@pytest.mark.parametrize("model", [
    GaussianNoise(0.2), BiasedGaussianNoise(0.05, 0.2), BoundedUniformNoise(0.4),
    GaussianNoise(lambda k: 0.2 / np.sqrt(k)),
])
def test_block_written_into_a_strided_lane(model):
    # the engine's (BLOCK, width, R, n) buffer takes each seed's block in
    # lane r: the same bits as a block drawn on its own
    buf = np.full((BLOCK, 3, 4, 2), np.nan)
    got = model.sample_block(11, 1, 3, 2, out=buf[:, :, 2])
    assert np.shares_memory(got, buf)
    assert np.array_equal(buf[:, :, 2], model.sample_block(11, 1, 3, 2))
    assert np.isnan(np.delete(buf, 2, axis=2)).all()


def test_seeds_from_2_63_get_distinct_keys():
    # numpy reads a key given as the list [seed, 0] as float64 from 2^63
    # on, where 2^63 and 2^63 + 1 are one value
    for domain in range(4):
        a = block_generator(2**63, domain, 0).random(4)
        b = block_generator(2**63 + 1, domain, 0).random(4)
        assert not np.array_equal(a, b)


def test_seeds_below_2_63_keep_their_draws():
    # below 2^63 the list key [seed, 0] is read exactly
    rng = np.random.default_rng(0)
    seeds = [0, 1, 2**32, 2**63 - 1,
             *rng.integers(0, 2**63, 20, dtype=np.uint64).tolist()]
    for seed in seeds:
        for domain in range(4):
            listed = np.random.Philox(counter=[0, 0, 3, domain], key=[seed, 0])
            assert np.array_equal(block_generator(seed, domain, 3).random(8),
                                  np.random.Generator(listed).random(8))


def test_seed_range():
    assert check_seed(2**64 - 1) == 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            check_seed(seed)
