"""Time-weighted statistics for piecewise-constant levels.

Counters, gauges and histograms live in :mod:`repro.obs.registry`; this
module keeps only the time integral behind CPU-utilisation accounting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["TimeWeightedStat"]


class TimeWeightedStat:
    """Tracks the time integral of a piecewise-constant quantity.

    Used for e.g. queue occupancy and CPU busy fraction: call
    :meth:`update` whenever the level changes, then read
    :meth:`time_average` over an interval.
    """

    __slots__ = ("engine", "_level", "_last_time", "_integral", "_epoch")

    def __init__(self, engine: "Engine", initial: float = 0.0) -> None:
        self.engine = engine
        self._level = float(initial)
        self._last_time = engine._now
        self._integral = 0.0
        self._epoch = engine._now

    @property
    def level(self) -> float:
        return self._level

    def update(self, level: float) -> None:
        """Set a new level, accumulating the integral so far."""
        now = self.engine._now
        self._integral += self._level * (now - self._last_time)
        self._last_time = now
        self._level = float(level)

    def add(self, delta: float) -> None:
        """Shift the level by ``delta``: :meth:`update` inlined, since
        CPU accounting calls this on every chunk of work."""
        level = self._level
        now = self.engine._now
        self._integral += level * (now - self._last_time)
        self._last_time = now
        self._level = float(level + delta)

    def integral(self) -> float:
        """Time integral of the level from the epoch until now."""
        now = self.engine._now
        return self._integral + self._level * (now - self._last_time)

    def time_average(self) -> float:
        """Average level from the epoch until now."""
        span = self.engine._now - self._epoch
        if span <= 0:
            return self._level
        return self.integral() / span

    def reset(self) -> None:
        """Restart integration from the current instant."""
        self._integral = 0.0
        self._last_time = self._epoch = self.engine._now

