"""Subgradient-noise models with declared moment bounds.

Each model declares two deterministic sequences: ``mean_bound(k)``, an upper
bound on the norm of the conditional mean of the error at iteration k, and
``rms_bound(k, dim)``, an upper bound on the root second moment.  The
declared bounds always satisfy mean_bound <= rms_bound (equality only in
the error-free case), and they are what the error-bound calculators in
:mod:`incsub.analysis` consume.  Both also take an array of
iterations and then give one value per entry (a single float when the
sequence is constant), so a supremum over a horizon sees every k.

Draws are organized in iteration-indexed blocks on a counter-based stream
(see :mod:`incsub.streams`): the error for (iteration k, agent i) is a fixed
slice of block ``(k-1) // BLOCK``, independent across agents and iterations
and replayable from the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .streams import BLOCK, DOMAIN_NOISE, block_generator, block_index, block_offset

Sequence = Union[float, Callable[[int], float]]


def _seq_at(value: Sequence, k):
    """The sequence at iteration k (an int), or at each entry of an array
    of iterations; a constant sequence gives one float either way."""
    if not callable(value):
        return float(value)
    if np.ndim(k) == 0:
        return float(value(k))
    return np.array([float(value(int(i))) for i in k])


def _seq_block(value: Sequence, start: int, count: int) -> np.ndarray:
    if callable(value):
        return np.array([float(value(k)) for k in range(start, start + count)])
    return np.full(count, float(value))


class NoNoise:
    """Error-free oracle: epsilon is identically zero."""

    def mean_bound(self, k):
        return 0.0

    def rms_bound(self, k, dim):
        return 0.0

    @property
    def is_zero(self):
        return True

    def sample_block(self, seed, block, agents, dim):
        return None  # engines skip the add entirely


@dataclass(frozen=True)
class GaussianNoise:
    """Zero-mean Gaussian error, i.i.d. N(0, sigma_k^2) per coordinate.

    Unbounded pointwise, but its moments satisfy the declared bounds:
    mean_bound = 0 and rms_bound = sigma_k * sqrt(dim) exactly.
    """

    sigma: Sequence

    def mean_bound(self, k):
        return 0.0

    def rms_bound(self, k, dim):
        return _seq_at(self.sigma, k) * float(np.sqrt(dim))

    @property
    def is_zero(self):
        return False

    def sample_block(self, seed, block, agents, dim):
        gen = block_generator(seed, DOMAIN_NOISE, block)
        eps = gen.standard_normal((BLOCK, agents, dim))
        start = block * BLOCK + 1
        if callable(self.sigma):
            eps *= _seq_block(self.sigma, start, BLOCK)[:, None, None]
        else:
            eps *= float(self.sigma)
        return eps


@dataclass(frozen=True)
class BiasedGaussianNoise:
    """Gaussian error with a deterministic bias of magnitude bias_k.

    The bias points along a fixed unit direction (default: the normalized
    all-ones vector).  Declared moments: mean_bound = bias_k and
    rms_bound = sqrt(bias_k^2 + dim * sigma_k^2).
    """

    bias: Sequence
    sigma: Sequence

    def mean_bound(self, k):
        return _seq_at(self.bias, k)

    def rms_bound(self, k, dim):
        b = _seq_at(self.bias, k)
        s = _seq_at(self.sigma, k)
        rms = np.sqrt(b * b + dim * s * s)
        return rms if np.ndim(rms) else float(rms)

    @property
    def is_zero(self):
        return False

    def _direction(self, dim):
        return np.full(dim, 1.0 / np.sqrt(dim))

    def sample_block(self, seed, block, agents, dim):
        gen = block_generator(seed, DOMAIN_NOISE, block)
        eps = gen.standard_normal((BLOCK, agents, dim))
        start = block * BLOCK + 1
        if callable(self.sigma):
            eps *= _seq_block(self.sigma, start, BLOCK)[:, None, None]
        else:
            eps *= float(self.sigma)
        shift = _seq_block(self.bias, start, BLOCK)[:, None, None] * self._direction(dim)
        eps += shift
        return eps


@dataclass(frozen=True)
class BoundedUniformNoise:
    """Error drawn uniformly from the ball of radius radius_k.

    Symmetric, hence mean_bound = 0; rms_bound = radius_k (the norm never
    exceeds the radius, so the second moment is below radius_k^2).
    """

    radius: Sequence

    def mean_bound(self, k):
        return 0.0

    def rms_bound(self, k, dim):
        return _seq_at(self.radius, k)

    @property
    def is_zero(self):
        return False

    def sample_block(self, seed, block, agents, dim):
        gen = block_generator(seed, DOMAIN_NOISE, block)
        v = gen.standard_normal((BLOCK, agents, dim))
        u = gen.random((BLOCK, agents))
        norms = np.linalg.norm(v, axis=2)
        norms[norms == 0.0] = 1.0
        r = u ** (1.0 / dim)
        start = block * BLOCK + 1
        r = r * _seq_block(self.radius, start, BLOCK)[:, None]
        return v * (r / norms)[:, :, None]


class NoiseStream:
    """Per-run view of a noise model: one draw per (iteration, agent).

    Caches the current block so sequential access costs one generator
    construction per BLOCK iterations.  The draw for a given (k, agent)
    is a pure function of (seed, k, agent), not of access order.
    """

    def __init__(self, model, seed, agents, dim):
        self.model = model
        self.seed = seed
        self.agents = int(agents)
        self.dim = int(dim)
        self._block = -1
        self._data = None

    def block(self, block):
        if block != self._block:
            self._data = self.model.sample_block(self.seed, block, self.agents, self.dim)
            self._block = block
        return self._data

    def draw(self, k, agent=0):
        if not 0 <= agent < self.agents:
            raise ValueError(f"agent index {agent} out of range [0, {self.agents})")
        data = self.block(block_index(k))
        if data is None:
            return np.zeros(self.dim)
        return data[block_offset(k), agent, :]

