"""Synthetic arrival processes for open-loop traffic.

Three models cover the offered-load shapes the paper's scheduling
study (§4.7) and the workflow-mini-app literature care about:

- :class:`PoissonArrivals` — the memoryless baseline; offered load on
  an ``n``-GPU cluster is ``rate * mean_service / n``.
- :class:`MMPPArrivals` — a 2-state Markov-modulated Poisson process:
  exponentially-distributed dwell times alternate between a quiet rate
  and a burst rate.  Same mean rate as a Poisson stream can carry, but
  the bursts are what drive queues, deadline misses, and the guard
  layer's shed paths.
- :class:`DiurnalArrivals` — a nonhomogeneous Poisson process whose
  rate follows a raised-cosine day curve (trough at t=0, peak half a
  period later), sampled by Lewis-Shedler thinning.

Every process is a pure function of its parameters and a seeded
generator: the same seed yields the same arrival times bit-for-bit,
which is what makes a recorded traffic trace redundant with — and
verifiable against — regeneration.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Tuple

import numpy as np

from repro.util.rng import SeedLike, make_rng


class ArrivalProcess:
    """Base interface: ``times_iter(rng)`` -> sorted arrival instants."""

    #: short tag recorded in trace headers
    kind = "base"

    def times_iter(self, rng: np.random.Generator) -> Iterator[float]:
        """Unbounded arrival-time generator: the one definition of the
        process's draws.  A horizon-bounded streamed session pulls from
        it directly, so it replays bit-exactly against the materialized
        list a trace stores."""
        raise NotImplementedError

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The first *n* values of :meth:`times_iter` on *rng*.

        The generator is left suspended after its *n*-th yield, so
        *rng* ends in the state a loop that stops there would leave —
        callers that draw repeated blocks from one ``Generator`` (see
        :func:`~repro.traffic.driver.drive_campaign`) depend on it.
        """
        return np.fromiter(itertools.islice(self.times_iter(rng), n),
                           dtype=float, count=n)

    def sample(self, n: int, seed: SeedLike = 0) -> np.ndarray:
        """Seed-or-generator convenience wrapper around :meth:`times`."""
        if n < 1:
            raise ValueError("need at least one arrival")
        return self.times(n, make_rng(seed))

    def stream(self, seed: SeedLike = 0) -> Iterator[float]:
        """Seed-or-generator wrapper around :meth:`times_iter`
        (the lazy twin of :meth:`sample`)."""
        return self.times_iter(make_rng(seed))

    def describe(self) -> dict:
        """JSON-able parameter record for trace headers."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at *rate* jobs per time unit."""

    kind = "poisson"

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # vectorized override of the base class's generator path
        return np.cumsum(rng.exponential(1.0 / self.rate, n))

    def times_iter(self, rng: np.random.Generator) -> Iterator[float]:
        scale = 1.0 / self.rate
        t = 0.0
        while True:
            # scalar draws + running sum == cumsum of the block draw
            t += float(rng.exponential(scale))
            yield t

    def describe(self) -> dict:
        return {"kind": self.kind, "rate": self.rate}


class MMPPArrivals(ArrivalProcess):
    """2-state Markov-modulated Poisson process (quiet / burst).

    The process dwells in each state for an exponential time
    (``mean_dwell``), emitting Poisson arrivals at that state's rate.
    The long-run mean rate is the dwell-weighted average
    ``(q*dq + b*db) / (dq + db)``; burstiness shows up as an
    interarrival coefficient of variation above 1 (Poisson's is
    exactly 1).
    """

    kind = "mmpp"

    def __init__(
        self,
        quiet_rate: float,
        burst_rate: float,
        mean_dwell: Tuple[float, float] = (10.0, 2.0),
    ):
        if quiet_rate <= 0 or burst_rate <= 0:
            raise ValueError("rates must be positive")
        if burst_rate <= quiet_rate:
            raise ValueError("burst_rate must exceed quiet_rate")
        if len(mean_dwell) != 2 or min(mean_dwell) <= 0:
            raise ValueError("mean_dwell is two positive dwell times")
        self.quiet_rate = quiet_rate
        self.burst_rate = burst_rate
        self.mean_dwell = (float(mean_dwell[0]), float(mean_dwell[1]))

    @property
    def mean_rate(self) -> float:
        dq, db = self.mean_dwell
        return (self.quiet_rate * dq + self.burst_rate * db) / (dq + db)

    def times_iter(self, rng: np.random.Generator) -> Iterator[float]:
        rates = (self.quiet_rate, self.burst_rate)
        t = 0.0
        state = 0  # start quiet
        while True:
            dwell = float(rng.exponential(self.mean_dwell[state]))
            seg_end = t + dwell
            rate = rates[state]
            # emit this segment's Poisson arrivals gap by gap; the
            # first gap past seg_end hands over to the next state
            while True:
                gap = float(rng.exponential(1.0 / rate))
                if t + gap > seg_end:
                    break
                t += gap
                yield t
            t = seg_end
            state = 1 - state

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "quiet_rate": self.quiet_rate,
            "burst_rate": self.burst_rate,
            "mean_dwell": list(self.mean_dwell),
        }


class DiurnalArrivals(ArrivalProcess):
    """Nonhomogeneous Poisson arrivals on a raised-cosine day curve.

    ``rate(t) = base_rate * (1 + (peak_ratio - 1) *
    (1 - cos(2 pi t / period)) / 2)`` — trough ``base_rate`` at t=0,
    peak ``base_rate * peak_ratio`` at ``period / 2``.  Sampled by
    Lewis-Shedler thinning against the peak rate, so the draws (and
    therefore the trace) are bit-reproducible for a given seed.
    """

    kind = "diurnal"

    def __init__(self, base_rate: float, peak_ratio: float = 4.0,
                 period: float = 1440.0):
        if base_rate <= 0 or period <= 0:
            raise ValueError("base_rate and period must be positive")
        if peak_ratio < 1.0:
            raise ValueError("peak_ratio must be >= 1")
        self.base_rate = base_rate
        self.peak_ratio = peak_ratio
        self.period = period

    def rate_at(self, t: float) -> float:
        swing = (self.peak_ratio - 1.0) * 0.5 * (
            1.0 - math.cos(2.0 * math.pi * t / self.period)
        )
        return self.base_rate * (1.0 + swing)

    def times_iter(self, rng: np.random.Generator) -> Iterator[float]:
        peak = self.base_rate * self.peak_ratio
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / peak))
            if rng.random() < self.rate_at(t) / peak:
                yield t

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "base_rate": self.base_rate,
            "peak_ratio": self.peak_ratio,
            "period": self.period,
        }


#: trace-header kind -> constructor (for replay-side reconstruction)
def process_from_description(desc: dict) -> ArrivalProcess:
    """Rebuild an arrival process from its :meth:`describe` record."""
    kind = desc.get("kind")
    if kind == PoissonArrivals.kind:
        return PoissonArrivals(rate=desc["rate"])
    if kind == MMPPArrivals.kind:
        return MMPPArrivals(
            quiet_rate=desc["quiet_rate"], burst_rate=desc["burst_rate"],
            mean_dwell=tuple(desc["mean_dwell"]),
        )
    if kind == DiurnalArrivals.kind:
        return DiurnalArrivals(
            base_rate=desc["base_rate"], peak_ratio=desc["peak_ratio"],
            period=desc["period"],
        )
    raise ValueError(f"unknown arrival process kind {kind!r}")
