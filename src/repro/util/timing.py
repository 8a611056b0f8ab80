"""Wall-clock measurement helpers.

The performance-model results in :mod:`repro.core` are analytic, but the
proxy applications are also genuinely timed (pytest-benchmark and the
example scripts).  :class:`TimerRegistry` accumulates named phase
timings on the monotonic ``perf_counter`` clock, mirroring how the
paper breaks runs into phases (Fig 2, Fig 8).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List


@dataclass
class _PhaseStats:
    total: float = 0.0
    count: int = 0

    def add(self, dt: float) -> None:
        self.total += dt
        self.count += 1


class TimerRegistry:
    """Accumulates named phase timings.

    >>> timers = TimerRegistry()
    >>> with timers.phase("solve"):
    ...     _ = sum(range(100))
    >>> timers.total("solve") >= 0.0
    True
    """

    def __init__(self) -> None:
        self._phases: Dict[str, _PhaseStats] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._phases.setdefault(name, _PhaseStats()).add(dt)

    def add(self, name: str, seconds: float) -> None:
        """Record an externally measured (or modeled) duration."""
        self._phases.setdefault(name, _PhaseStats()).add(seconds)

    def total(self, name: str) -> float:
        return self._phases[name].total if name in self._phases else 0.0

    def count(self, name: str) -> int:
        return self._phases[name].count if name in self._phases else 0

    def names(self) -> List[str]:
        return list(self._phases)

    def as_dict(self) -> Dict[str, float]:
        return {name: stats.total for name, stats in self._phases.items()}

    def merge(self, other: "TimerRegistry") -> None:
        for name, stats in other._phases.items():
            mine = self._phases.setdefault(name, _PhaseStats())
            mine.total += stats.total
            mine.count += stats.count
