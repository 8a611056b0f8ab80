"""Fault injection and checkpoint/restart.

The resilience layer of the reproduction: a calibrated per-machine
fault model (:mod:`repro.resilience.faults`), a generic checkpoint
protocol with an in-memory store (:mod:`repro.resilience.checkpoint`),
and a driver that runs any checkpointable stepper to completion under
injected faults (:mod:`repro.resilience.driver`).  The scheduler
re-queues every fault-killed job at the fault time
(:class:`~repro.sched.simulator.SimulatorSession`).
"""

from repro.resilience.checkpoint import (
    CheckpointStore,
    snapshot,
    state_nbytes,
)
from repro.resilience.driver import ResilienceReport, ResilientDriver
from repro.resilience.faults import FaultInjector, fault_spec_for

__all__ = [
    "CheckpointStore",
    "FaultInjector",
    "ResilienceReport",
    "ResilientDriver",
    "fault_spec_for",
    "snapshot",
    "state_nbytes",
]
