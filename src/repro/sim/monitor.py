"""Statistics collection for simulations and benchmarks.

Small, allocation-light accumulators.  ``Tally`` uses Welford's online
algorithm so long benchmark runs do not lose precision; ``TimeWeighted``
integrates a piecewise-constant signal (queue length, resident agents)
over virtual time.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = ["Counter", "Tally", "TimeWeighted", "Series"]


class Counter:
    """Named monotonically increasing counters (a name -> int map)."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def __getitem__(self, name: str) -> int:
        return self.get(name)


class Tally:
    """Streaming mean/variance/min/max of observed samples (Welford)."""

    __slots__ = ("count", "_mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        var = self.variance
        return math.sqrt(var) if not math.isnan(var) else math.nan

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
            "total": self.total,
        }


class TimeWeighted:
    """Time-weighted average of a piecewise-constant signal."""

    def __init__(self, start_time: float = 0.0, initial: float = 0.0) -> None:
        self._last_time = start_time
        self._value = initial
        self._area = 0.0
        self._start = start_time

    def update(self, time: float, value: float) -> None:
        """Record that the signal changed to ``value`` at ``time``."""
        if time < self._last_time:
            raise ValueError("time moved backwards")
        self._area += self._value * (time - self._last_time)
        self._last_time = time
        self._value = value

    def average(self, now: float | None = None) -> float:
        """Time-weighted mean from start to ``now`` (default: last update)."""
        end = self._last_time if now is None else now
        if end < self._last_time:
            raise ValueError("now precedes last update")
        area = self._area + self._value * (end - self._last_time)
        span = end - self._start
        return area / span if span > 0 else self._value

    @property
    def current(self) -> float:
        return self._value


class Series:
    """A recorded (time, value) series, with light analysis helpers."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[Any] = []

    def record(self, time: float, value: Any) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("series times must be non-decreasing")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def last(self) -> tuple[float, Any]:
        if not self.times:
            raise IndexError("empty series")
        return self.times[-1], self.values[-1]
