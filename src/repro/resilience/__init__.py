"""Fault injection, retry policies, and checkpoint/restart.

The resilience layer of the reproduction: a calibrated per-machine
fault model (:mod:`repro.resilience.faults`), scheduler-level retry
policies (:mod:`repro.resilience.retry`), a generic checkpoint
protocol with an in-memory store (:mod:`repro.resilience.checkpoint`),
and a driver that runs any checkpointable stepper to completion under
injected faults (:mod:`repro.resilience.driver`).
"""

from repro.resilience.checkpoint import (
    CheckpointStore,
    snapshot,
    state_nbytes,
)
from repro.resilience.driver import ResilienceReport, ResilientDriver
from repro.resilience.faults import FaultInjector, fault_spec_for
from repro.resilience.retry import (
    CappedRetry,
    ExponentialBackoff,
    ImmediateRetry,
)

__all__ = [
    "CappedRetry",
    "CheckpointStore",
    "ExponentialBackoff",
    "FaultInjector",
    "ImmediateRetry",
    "ResilienceReport",
    "ResilientDriver",
    "fault_spec_for",
    "snapshot",
    "state_nbytes",
]
