"""Cooling schedules for the simulated-annealing reducer.

Algorithm 1 supports two schedules (paper Sec. 4.4):

- **constant**: ``T <- alpha * T`` with a fixed factor;
- **adaptive**: the factor itself is a function of the current state --
  cooling slows while moves are being rejected (to keep exploring) and
  accelerates while moves are accepted (to exploit).  The paper found the
  adaptive schedule both better and cheaper (Sec. 4.5), and Red-QAOA uses
  it by default.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["AdaptiveCooling", "ConstantCooling", "CoolingSchedule"]


class CoolingSchedule:
    """Interface: map (temperature, recent acceptance) -> new temperature."""

    def next_temperature(self, temperature: float, accepted: bool) -> float:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear internal state before a fresh annealing run."""


@dataclass
class ConstantCooling(CoolingSchedule):
    """Geometric cooling ``T <- alpha * T`` with constant ``alpha``."""

    alpha: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    def next_temperature(self, temperature: float, accepted: bool) -> float:
        return self.alpha * temperature


@dataclass
class AdaptiveCooling(CoolingSchedule):
    """Acceptance-driven cooling.

    Tracks a window of recent accept/reject outcomes.  When the acceptance
    rate is high the schedule cools aggressively (``fast_alpha``); when
    moves are mostly rejected it cools gently (``slow_alpha``), giving the
    search more time to escape before freezing.  This is the
    ``alpha(T) * T`` update of Algorithm 1 line 18.
    """

    slow_alpha: float = 0.99
    fast_alpha: float = 0.90
    window: int = 20

    def __post_init__(self) -> None:
        for name in ("slow_alpha", "fast_alpha"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        if self.fast_alpha > self.slow_alpha:
            raise ValueError("fast_alpha must cool at least as fast as slow_alpha")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        self.reset()

    def reset(self) -> None:
        self._history: deque[bool] = deque(maxlen=self.window)
        self._accepted = 0  # accepts in the window, kept beside it

    def next_temperature(self, temperature: float, accepted: bool) -> float:
        history = self._history
        if len(history) == self.window:
            self._accepted -= history[0]  # the append below evicts it
        history.append(accepted)
        self._accepted += accepted
        acceptance_rate = self._accepted / len(history)
        alpha = self.slow_alpha + (self.fast_alpha - self.slow_alpha) * acceptance_rate
        return alpha * temperature
