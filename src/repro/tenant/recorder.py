"""Incident flight recorder: bounded transition ring + WAL'd dumps.

During a run the recorder keeps a bounded ring buffer of guard-layer
transitions — shed decisions, breaker trips, brownout ladder moves.
On an SLO breach or overload trip
(:meth:`TenantRegistry.incident_worthy`) the driver dumps an
**incident trace**: the complete job stream plus a header carrying
the driver description (tenancy included), the ring contents, the
run's ``guard.*`` counter deltas (the fingerprint's
``guard_counters``, which the driver measures around the run), and
the run's replay fingerprint.  The file is a plain
:class:`~repro.traffic.trace.TrafficTrace` in
:class:`~repro.durable.wal.WriteAheadLog` framing, written with
``sync=True`` because incidents must survive the machine, not just
the process: the whole job stream goes out as one fsynced group
commit, then the sealed trailer with its own fsync.  So

- ``python -m repro.traffic`` replays it bit-exactly for post-mortem
  A/B against alternate tenant configs,
- a recorder killed mid-dump leaves a torn tail that strict loading
  rejects and lenient loading truncates to the committed prefix, and
- :func:`verify_incident` can demand the replayed fingerprint match
  the one recorded at dump time, bit for bit, through the same
  :func:`~repro.traffic.driver.verify` every other trace goes
  through.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Union

from repro.obs import metrics as _metrics
from repro.traffic.driver import verify
from repro.traffic.trace import TrafficTrace

__all__ = [
    "FlightRecorder",
    "incident_paths",
    "record_incident",
    "verify_incident",
]


class FlightRecorder:
    """Bounded ring of admission/breaker/ladder transitions."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        #: transitions rotated out of the bounded ring
        self.dropped = 0

    def note(self, kind: str, t: float, **detail: Any) -> None:
        """Record one transition (oldest entries rotate out)."""
        if len(self.events) == self.capacity:
            self.dropped += 1
        # the kwargs dict is already a fresh allocation owned by this
        # call — claim it as the event record instead of copying it
        detail["kind"] = kind
        detail["t"] = t
        self.events.append(detail)

    def dump_incident(
        self,
        path: Union[str, Path],
        jobs,
        driver_description: Dict[str, Any],
        fingerprint: Dict[str, Any],
        reason: str = "overload",
        extra: Optional[Dict[str, Any]] = None,
    ) -> TrafficTrace:
        """Write the WAL-framed incident trace: the jobs in one fsynced
        group commit, then the sealed trailer with its own fsync.

        The header's ``guard_deltas`` are *fingerprint*'s
        ``guard_counters``: the run's one measurement of its
        ``guard.*`` counter movement."""
        incident = {
            "reason": reason,
            "events": [dict(e) for e in self.events],
            "events_dropped": self.dropped,
            "guard_deltas": dict(fingerprint["guard_counters"]),
        }
        if extra:
            incident.update(extra)
        meta = {
            "driver": driver_description,
            "n_jobs": len(jobs),
            "incident": incident,
            # kept in the header for pre-trailer readers; the same
            # fingerprint is sealed into the v2 trailer below
            "fingerprint": fingerprint,
        }
        trace = TrafficTrace.record(path, list(jobs), meta=meta,
                                    sync=True, fingerprint=fingerprint)
        _metrics.counter("tenant.incidents_dumped").add()
        return trace

    # -- checkpoint protocol -------------------------------------------

    def checkpoint_state(self) -> Dict[str, Any]:
        return {
            "events": [dict(e) for e in self.events],
            "dropped": self.dropped,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        self.events = deque(
            (dict(e) for e in state["events"]), maxlen=self.capacity
        )
        self.dropped = state["dropped"]


def record_incident(
    path: Union[str, Path], jobs, driver, reason: Optional[str] = None
):
    """Run *jobs* under a tenancy-mode driver; dump an incident when
    one is worth dumping.

    Returns ``(trace_or_None, report)``: the trace is ``None`` when
    the run finished healthy (no breaker trip, no tenant at the
    degrade rung, no goodput-floor breach) and *reason* was not
    forced.  Pass an explicit *reason* to dump unconditionally
    (drills, bench gates).
    """
    jobs = list(jobs)
    report = driver.run(jobs)
    registry = report.registry
    if registry is None:
        raise ValueError(
            "incident recording requires a tenancy-mode driver"
        )
    worthy = registry.incident_worthy(
        driver.n_gpus, report.result.makespan
    )
    if reason is None and not worthy:
        return None, report
    trace = registry.recorder.dump_incident(
        path, jobs, driver.describe(), report.fingerprint(),
        reason=reason or "overload",
        extra={"tenant_summary": registry.tenant_summary()},
    )
    return trace, report


def verify_incident(path: Union[str, Path]):
    """Load *path* once and :func:`~repro.traffic.driver.verify` it:
    two replays, each through a fresh driver, must match each other
    **and** the fingerprint recorded at dump time.  Returns the replay
    report; raises ``AssertionError`` on any divergence."""
    verdict = verify(TrafficTrace.load(path))
    _metrics.counter("tenant.incidents_replayed").add(2)
    return verdict.require(path)


def incident_paths(directory: Union[str, Path]) -> List[Path]:
    """Every incident trace under *directory*, sorted by name."""
    return sorted(Path(directory).glob("incident-*.trace"))
