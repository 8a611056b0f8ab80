"""Shared utilities: deterministic RNG, timing, text tables, reporting.

These helpers keep the proxy applications free of boilerplate while
enforcing the reproducibility conventions used across the package:
every stochastic component takes an explicit seed, every benchmark
renders results through the same table formatter, and wall-clock
measurement goes through a single monotonic timer.
"""

from repro.util.rng import make_rng, spawn_rngs, spawn_seqs
from repro.util.tables import Table, format_seconds
from repro.util.timing import TimerRegistry

__all__ = [
    "make_rng",
    "spawn_rngs",
    "spawn_seqs",
    "Table",
    "format_seconds",
    "TimerRegistry",
]
