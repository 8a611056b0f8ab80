"""Numerical health sentinels and deadline shedding.

The *soft*-failure half of the reproduction's robustness story (the
hard-fault half — kill/requeue/checkpoint — lives in
:mod:`repro.resilience`).  The paper's iCoE teams spent much of their
port effort on failures that never crash: solvers that stagnate after
retargeting, ion models drifting non-physical, campaign cycles blowing
their throughput budget.  This package detects the first and degrades
around the last:

- :mod:`repro.guard.sentinels` — cheap NaN/Inf/overflow and
  stuck-integrator detectors raising typed
  :class:`NumericalHealthError`\\ s to the caller instead of silently
  looping.
- :mod:`repro.guard.deadline` — the :class:`CircuitBreaker` and the
  :class:`AdmissionController` that lets a campaign under a fault
  storm shed its lowest-priority candidates, and any job that can no
  longer meet its deadline, instead of collapsing.  An open breaker
  degrades its consumer: admission sheds, and a MuMMI campaign serves
  the cycle from its macro surrogate.

``REPRO_GUARD`` arms the sentinels (any value but ``off``, ``0``,
``false``, ``no``, ``none`` or empty); with guards off every
instrumented path is bit-exact with its pre-guard behavior and pays
one ``is None`` test.  The package imports only :mod:`repro.obs` and
:mod:`repro.util`, never the solvers it instruments.
"""

from __future__ import annotations

from repro.guard.config import GUARD_ENV, guard_enabled, guard_override
from repro.guard.deadline import AdmissionController, CircuitBreaker
from repro.guard.errors import (
    BreakdownError,
    DivergedError,
    GuardError,
    NonFiniteError,
    NumericalHealthError,
    OverflowHealthError,
    StagnationError,
)
from repro.guard.sentinels import (
    HealthMonitor,
    WrmsTrendProbe,
    default_monitor,
)

__all__ = [
    "GUARD_ENV",
    "guard_enabled",
    "guard_override",
    "AdmissionController",
    "CircuitBreaker",
    "BreakdownError",
    "DivergedError",
    "GuardError",
    "NonFiniteError",
    "NumericalHealthError",
    "OverflowHealthError",
    "StagnationError",
    "HealthMonitor",
    "WrmsTrendProbe",
    "default_monitor",
]
