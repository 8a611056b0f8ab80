"""Retry policies for fault-killed jobs.

A policy answers one question: after a job's ``attempt``-th failure
(1-based), how long should the scheduler wait before re-queuing it —
or should it give up (``None``)?  The three shapes below are the ones
production resource managers actually ship: retry-now, retry a bounded
number of times, and exponential backoff (which keeps a flapping node
from monopolizing the queue with instant re-submissions).

Hardening notes: ``attempt`` is validated strictly (``bool`` and other
non-``int`` types are rejected — a ``True`` slipping in where an
attempt count belongs is a bug worth typed feedback, not a 1-attempt
retry); :class:`ExponentialBackoff` clamps its exponent so
``factor ** (attempt - 1)`` can never raise ``OverflowError`` no
matter how many retries a pathological campaign racks up; and jitter
is available only with an *injected* RNG, so jittered schedules stay
replayable under checkpoint/restart.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

from repro.util.state import RNG, Field, Stateful


def _check_attempt(attempt: int) -> None:
    """Shared validation: attempts are 1-based real integers."""
    if isinstance(attempt, bool) or not isinstance(attempt, int):
        raise TypeError(
            f"attempt must be an int, got {type(attempt).__name__}"
        )
    if attempt < 1:
        raise ValueError("attempt is 1-based")


class ImmediateRetry:
    """Re-queue the killed job right away, forever."""

    def requeue_delay(self, attempt: int) -> Optional[float]:
        _check_attempt(attempt)
        return 0.0


class CappedRetry:
    """Re-queue after a fixed *delay*, at most *max_retries* times."""

    def __init__(self, max_retries: int = 3, delay: float = 0.0):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self.max_retries = max_retries
        self.delay = delay

    def requeue_delay(self, attempt: int) -> Optional[float]:
        _check_attempt(attempt)
        if attempt > self.max_retries:
            return None
        return self.delay


class ExponentialBackoff(Stateful):
    """Re-queue after ``base * factor**(attempt-1)``, capped and bounded.

    The delay saturates at *max_delay* (or, with an infinite
    *max_delay*, at the largest finite float) instead of letting the
    power overflow: ``2.0 ** 1100`` raises ``OverflowError`` in pure
    Python, and a retry policy must never be the thing that crashes a
    resilience layer.

    *jitter* spreads re-submissions by up to ``±jitter`` (a fraction of
    the computed delay) so killed jobs don't stampede back in lockstep;
    it requires an injected ``rng`` (a ``numpy.random.Generator`` or
    anything with ``uniform(lo, hi)``) so schedules are deterministic
    and checkpoint/restart replays bit-identically.  A jittered policy
    draws on every re-queue, so its RNG is event-loop state:
    :meth:`checkpoint_state`/:meth:`restore_state` save and rewind a
    Generator's state in place (the caller's Generator sees the
    rewind) for the steppers that checkpoint a schedule.  A policy
    without jitter never draws: it names no state, and its
    :meth:`checkpoint_state` is ``None``, so checkpoints carry no
    entry for it.
    """

    def __init__(
        self,
        base: float = 1.0,
        factor: float = 2.0,
        max_delay: float = float("inf"),
        max_retries: int = 16,
        jitter: float = 0.0,
        rng=None,
    ):
        if base < 0 or max_delay < 0:
            raise ValueError("delays must be >= 0")
        if factor < 1.0:
            raise ValueError("factor must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if jitter > 0.0 and rng is None:
            raise ValueError(
                "jitter requires an injected rng (determinism: the "
                "scheduler owns no hidden randomness)"
            )
        self.base = base
        self.factor = factor
        self.max_delay = max_delay
        self.max_retries = max_retries
        self.jitter = jitter
        self.rng = rng
        if jitter > 0.0:
            self._STATE = (Field("rng", RNG),)
        # largest exponent for which base * factor**e stays finite;
        # beyond it the delay has long since saturated anyway
        if base > 0 and factor > 1.0:
            self._exp_cap = (
                math.log(sys.float_info.max) - math.log(base)
            ) / math.log(factor)
        else:
            self._exp_cap = float("inf")

    def requeue_delay(self, attempt: int) -> Optional[float]:
        _check_attempt(attempt)
        if attempt > self.max_retries:
            return None
        exponent = attempt - 1
        if exponent >= self._exp_cap:
            delay = (
                self.max_delay if math.isfinite(self.max_delay)
                else sys.float_info.max
            )
        else:
            delay = min(self.base * self.factor ** exponent, self.max_delay)
        if self.jitter > 0.0:
            delay *= 1.0 + self.jitter * float(
                self.rng.uniform(-1.0, 1.0)
            )
        return delay
