"""Process-wide counter/gauge registry with dotted namespaces.

Names follow ``subsystem.component.metric`` (``sched.events_processed``,
``solvers.amg.vcycles``, ``md.neighbor.rebuilds``,
``jit.cache.disk_hit``, ...).  The registry is always on; the cost
contract is that *hot loops batch*: a subsystem counts locally inside
its loop and lands one :meth:`Counter.add` at the loop boundary, so
the per-event overhead of observability is a plain integer increment
the code already performs.

:func:`snapshot` returns plain ``{name: value}`` dicts, which is what
``benchmarks/harness.py`` embeds into ``BENCH_<n>.json`` so the perf
gate can diff semantic counters (a fusion pass that stops firing shows
up as a counter diff, not just a wall-time blip).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Union

Number = Union[int, float]


class Counter:
    """Monotonic counter; ``add`` is thread-safe."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0
        self._lock = threading.Lock()

    def add(self, n: Number = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r}: negative increment")
        # explicit acquire/release: on CPython 3.11 a ``with`` block
        # costs about as much again as the rest of this call, and
        # sheds count on this path once per decision
        lock = self._lock
        lock.acquire()
        try:
            self.value += n
        finally:
            lock.release()

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """Last-written value (queue depth, pair count, cache size)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self.value = value

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name!r}, {self.value})"


class MetricsRegistry:
    """Create-on-first-use registry of named counters and gauges."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)  # lock-free fast path (GIL-safe read)
        if c is not None:
            return c
        with self._lock:
            return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is not None:
            return g
        with self._lock:
            return self._gauges.setdefault(name, Gauge(name))

    def snapshot(self) -> Dict[str, Dict[str, Number]]:
        """``{"counters": {name: value}, "gauges": {name: value}}``."""
        with self._lock:
            return {
                "counters": {
                    k: v.value for k, v in sorted(self._counters.items())
                },
                "gauges": {
                    k: v.value for k, v in sorted(self._gauges.items())
                },
            }

    def snapshot_prefix(self, prefix: str) -> Dict[str, Number]:
        """Counter values under *prefix* only (``{name: value}``).

        The cheap variant the delta-takers want (traffic fingerprints,
        the incident flight recorder): no gauge walk, no allocation for
        the thousands of counters outside the namespace of interest.
        """
        with self._lock:
            return {
                k: v.value for k, v in sorted(self._counters.items())
                if k.startswith(prefix)
            }

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero (and forget) metrics; *prefix* limits the purge."""
        with self._lock:
            if prefix is None:
                self._counters.clear()
                self._gauges.clear()
            else:
                for d in (self._counters, self._gauges):
                    for k in [k for k in d if k.startswith(prefix)]:
                        del d[k]


#: Process-wide registry used by all instrumented subsystems.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def snapshot() -> Dict[str, Dict[str, Number]]:
    return REGISTRY.snapshot()


def snapshot_prefix(prefix: str) -> Dict[str, Number]:
    return REGISTRY.snapshot_prefix(prefix)


def reset_metrics(prefix: Optional[str] = None) -> None:
    REGISTRY.reset(prefix)
