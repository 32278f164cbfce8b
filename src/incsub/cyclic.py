"""Ring order for the shared step loop (:func:`incsub.engine.run_batch`).

One cycle visits agents 0..m-1 in fixed order; agent i applies a projected
step along a noisy subgradient of its own component, evaluated at the
previous agent's hand-off point.  The step-size is indexed by the cycle:
all m sub-steps of cycle k+1 share alpha_{k+1}, and the cycle's noise
block has one draw per agent.
"""

from __future__ import annotations

from .errors import DimensionMismatchError


class RingOrder:
    """m sub-steps per cycle, sub-step i by agent i; no agents are drawn
    or recorded."""

    engine = "cyclic"

    def __init__(self, m):
        self.m = self.width = int(m)

    def start(self, m, seeds):
        if m != self.m:
            raise DimensionMismatchError(
                f"ring has {self.m} agents but problem has {m}")
        return None  # no agent column, no visit counts
