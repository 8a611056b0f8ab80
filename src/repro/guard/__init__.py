"""Numerical health sentinels, fallback chains, deadline shedding.

The *soft*-failure half of the reproduction's robustness story (the
hard-fault half — kill/retry/checkpoint — lives in
:mod:`repro.resilience`).  The paper's iCoE teams spent much of their
port effort on failures that never crash: solvers that stagnate after
retargeting, ion models drifting non-physical, campaign cycles blowing
their throughput budget.  This package packages the same
detect-and-degrade strategy:

- :mod:`repro.guard.sentinels` — cheap NaN/Inf/overflow and
  stagnation/divergence detectors raising typed
  :class:`NumericalHealthError`\\ s instead of silently looping.
- :mod:`repro.guard.fallback` — declarative :class:`FallbackChain`
  escalation (AMG → stronger smoother → PCG/Jacobi → dense direct;
  BDF → order drop → step halving → ERK rescue; MD → step rejection +
  neighbor rebuild), recording which rung served each request.
- :mod:`repro.guard.deadline` — the :class:`CircuitBreaker` and the
  :class:`AdmissionController` that lets a campaign under a fault
  storm shed its lowest-priority candidates, and any job that can no
  longer meet its deadline, instead of collapsing.

Guard mode comes from ``REPRO_GUARD`` (``off`` default / ``on`` /
``strict``); with guards off every instrumented path is bit-exact
with its pre-guard behavior and pays one ``is None`` test.
"""

from __future__ import annotations

from repro.guard.config import (
    GUARD_ENV,
    guard_enabled,
    guard_mode,
    guard_override,
    guard_strict,
)
from repro.guard.deadline import AdmissionController, CircuitBreaker
from repro.guard.errors import (
    BreakdownError,
    CircuitOpenError,
    DeadlineExceededError,
    DivergedError,
    FallbackExhaustedError,
    GuardError,
    NonFiniteError,
    NumericalHealthError,
    OverflowHealthError,
    StagnationError,
)
from repro.guard.fallback import (
    FallbackChain,
    FallbackOutcome,
    FallbackRung,
    amg_fallback_chain,
    bdf_fallback_chain,
    guarded_md_step,
)
from repro.guard.sentinels import (
    HealthMonitor,
    ResidualTrendProbe,
    WrmsTrendProbe,
    default_monitor,
)

__all__ = [
    "GUARD_ENV",
    "guard_enabled",
    "guard_mode",
    "guard_override",
    "guard_strict",
    "AdmissionController",
    "CircuitBreaker",
    "BreakdownError",
    "CircuitOpenError",
    "DeadlineExceededError",
    "DivergedError",
    "FallbackExhaustedError",
    "GuardError",
    "NonFiniteError",
    "NumericalHealthError",
    "OverflowHealthError",
    "StagnationError",
    "FallbackChain",
    "FallbackOutcome",
    "FallbackRung",
    "amg_fallback_chain",
    "bdf_fallback_chain",
    "guarded_md_step",
    "HealthMonitor",
    "ResidualTrendProbe",
    "WrmsTrendProbe",
    "default_monitor",
]
