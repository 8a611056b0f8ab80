"""Numerical health sentinels: cheap detectors for silent trouble.

Two detector shapes cover everything the instrumented subsystems
need:

- :class:`HealthMonitor` — point-in-time NaN/Inf/overflow checks on
  arrays and scalars (solver inputs, iterates, forces, voltages).
- :class:`WrmsTrendProbe` — watches a BDF integrator's local-error
  WRMS series: repeated error-test failures and step-size collapse
  mean the integrator is stuck, not converging.

Every trip is counted (``guard.sentinel.trips`` plus a per-kind
counter) before the typed :class:`NumericalHealthError` is raised, so
a chaos run can be audited from the metrics snapshot alone.  The
monitors only exist when the guard mode is on — disabled code paths
never construct one, so the disabled cost is a single ``is None``
test at each instrumented site.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.guard.config import guard_enabled
from repro.guard.errors import (
    DivergedError,
    NonFiniteError,
    OverflowHealthError,
    StagnationError,
)
from repro.obs import metrics as _metrics


def _trip(kind: str, where: str) -> None:
    _metrics.counter("guard.sentinel.trips").add()
    _metrics.counter(f"guard.sentinel.trips.{kind}").add()
    _metrics.counter(f"guard.sentinel.trips_at.{where}").add()


class HealthMonitor:
    """Point-in-time NaN/Inf/overflow sentinel.

    ``magnitude_bound`` is the largest plausible magnitude for the
    state being watched; anything beyond it (while still finite) trips
    :class:`OverflowHealthError` — the "ion model went non-physical"
    case, where values overflow *eventually* but garbage shows up as
    absurd magnitudes first.
    """

    __slots__ = ("where", "magnitude_bound", "checks")

    def __init__(self, where: str = "guard",
                 magnitude_bound: float = 1e100):
        if magnitude_bound <= 0:
            raise ValueError("magnitude_bound must be positive")
        self.where = where
        self.magnitude_bound = magnitude_bound
        self.checks = 0

    def check_array(self, arr: np.ndarray, what: str = "state",
                    context: Optional[Dict[str, Any]] = None) -> None:
        """Raise if *arr* contains NaN/Inf or implausible magnitudes."""
        self.checks += 1
        arr = np.asarray(arr)
        if arr.size == 0:
            return
        peak = float(np.max(np.abs(arr)))
        if not np.isfinite(peak):
            # distinguish NaN (max propagates NaN) from Inf
            n_bad = int(np.count_nonzero(~np.isfinite(arr)))
            _trip("nonfinite", self.where)
            raise NonFiniteError(
                f"non-finite values in {what}", where=self.where,
                context={"what": what, "n_bad": n_bad, **(context or {})},
            )
        if peak > self.magnitude_bound:
            _trip("overflow", self.where)
            raise OverflowHealthError(
                f"{what} magnitude {peak:.3e} exceeds plausible bound "
                f"{self.magnitude_bound:.3e}",
                where=self.where,
                context={"what": what, "peak": peak, **(context or {})},
            )

    def check_value(self, value: float, what: str = "value",
                    context: Optional[Dict[str, Any]] = None) -> None:
        """Scalar version of :meth:`check_array`."""
        self.checks += 1
        v = float(value)
        if not np.isfinite(v):
            _trip("nonfinite", self.where)
            raise NonFiniteError(
                f"non-finite {what}: {v!r}", where=self.where,
                context={"what": what, "value": v, **(context or {})},
            )
        if abs(v) > self.magnitude_bound:
            _trip("overflow", self.where)
            raise OverflowHealthError(
                f"{what} magnitude {abs(v):.3e} exceeds plausible bound "
                f"{self.magnitude_bound:.3e}",
                where=self.where,
                context={"what": what, "value": v, **(context or {})},
            )


def default_monitor(where: str,
                    magnitude_bound: float = 1e100
                    ) -> Optional[HealthMonitor]:
    """A :class:`HealthMonitor` when guards are on, else ``None``.

    The construction-time decision is what keeps the disabled path at
    pre-guard cost: instrumented loops test ``monitor is None`` and
    nothing else.
    """
    if not guard_enabled():
        return None
    return HealthMonitor(where=where, magnitude_bound=magnitude_bound)


class WrmsTrendProbe:
    """Stuck-integrator detector for WRMS-controlled steppers.

    BDF accepts a step when the local-error WRMS norm is <= 1; a
    healthy integrator fails that test occasionally, an unhealthy one
    fails it over and over while the step size collapses.  The probe
    trips :class:`StagnationError` after ``max_consecutive_rejects``
    rejected steps in a row, :class:`DivergedError` when the error
    estimate keeps exploding, and :class:`NonFiniteError` on NaN/Inf.

    The default reject budget leaves room for a healthy startup
    transient: with the heuristic initial step and a 0.2x shrink
    floor, an integrator can legitimately reject ~10 steps in a row
    while walking ``h`` down to the accuracy-limited value, and only a
    genuinely stuck one rejects tens of times.
    """

    __slots__ = ("where", "max_consecutive_rejects", "diverge_err",
                 "consecutive_rejects", "observations")

    def __init__(self, where: str = "ode",
                 max_consecutive_rejects: int = 30,
                 diverge_err: float = 1e6):
        if max_consecutive_rejects < 1:
            raise ValueError("max_consecutive_rejects must be >= 1")
        if diverge_err <= 1:
            raise ValueError("diverge_err must exceed 1")
        self.where = where
        self.max_consecutive_rejects = max_consecutive_rejects
        self.diverge_err = diverge_err
        self.consecutive_rejects = 0
        self.observations = 0

    def observe(self, err: float, h: float, t: float,
                accepted: bool) -> None:
        """Feed one error-test outcome; raise on an unhealthy trend."""
        self.observations += 1
        e = float(err)
        if not np.isfinite(e):
            _trip("nonfinite", self.where)
            raise NonFiniteError(
                "non-finite local-error estimate", where=self.where,
                context={"t": t, "h": h},
            )
        if accepted:
            self.consecutive_rejects = 0
            return
        if e > self.diverge_err and self.consecutive_rejects >= 1:
            # a single huge first-step error is a normal startup
            # transient (the controller just cuts h); repeated ones
            # mean the estimate is genuinely exploding
            _trip("divergence", self.where)
            raise DivergedError(
                f"local-error estimate {e:.3e} exploded", where=self.where,
                context={"t": t, "h": h, "err": e},
            )
        self.consecutive_rejects += 1
        if self.consecutive_rejects >= self.max_consecutive_rejects:
            _trip("stagnation", self.where)
            raise StagnationError(
                f"{self.consecutive_rejects} consecutive error-test "
                f"failures (h={h:.3e} at t={t:.6g})",
                where=self.where,
                context={"t": t, "h": h, "err": e,
                         "rejects": self.consecutive_rejects},
            )
