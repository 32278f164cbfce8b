"""Step-size schedules for both iteration orders."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _check_index(k):
    if k < 1:
        raise ValueError(f"step index must be >= 1, got {k}")


@dataclass(frozen=True)
class Constant:
    """Fixed step-size alpha_k = alpha."""

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:  # false for NaN too
            raise ValueError(
                f"constant step-size must be positive and finite, got {self.alpha}")

    def step(self, k):
        _check_index(k)
        return self.alpha

    def steps(self, start, count):
        _check_index(start)
        return np.full(count, self.alpha, dtype=float)

    @property
    def is_square_summable(self):
        return False

    @property
    def is_markov_diminishing(self):
        return False


@dataclass(frozen=True)
class PowerLaw:
    """Diminishing step-size alpha_k = a / k**p with a > 0 and 0 < p <= 1.

    ``is_square_summable`` is true iff p > 1/2 (sum of alpha_k^2 finite).
    ``is_markov_diminishing`` is true iff 2/3 < p <= 1, the window in which
    the randomized-order method's diminishing-step convergence guarantee
    applies.
    """

    a: float
    p: float

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise ValueError(f"power-law scale must be positive and finite, got {self.a}")
        if not 0 < self.p <= 1:
            raise ValueError(f"power-law exponent must be in (0, 1], got {self.p}")

    def step(self, k):
        _check_index(k)
        return self.a / k**self.p

    def steps(self, start, count):
        # built from the scalar rule: vectorized pow can differ by 1 ulp,
        # and the batch and single-replication engines must agree bit-for-bit
        _check_index(start)
        return np.array([self.step(k) for k in range(start, start + count)])

    @property
    def is_square_summable(self):
        return self.p > 0.5

    @property
    def is_markov_diminishing(self):
        return 2.0 / 3.0 < self.p <= 1.0
