"""Live trace capture: record a run *while* it is in flight.

:func:`record_experiment` generates a job list, writes it, then runs
it — fine for synthetic experiments, useless for the case the paper's
workload-characterization line actually needs: recording what a live
system served so the same offered load can be replayed against other
configurations.  This module closes that gap:

- :class:`CaptureTap` implements the
  :class:`~repro.sched.simulator.SimulatorSession` tap protocol and
  streams every offered job (plus shed/completion/fault decisions)
  into a :class:`~repro.traffic.trace.TraceWriter` **incrementally**,
  as the simulation offers them: the writer packs every
  ``flush_every`` records into one WAL-framed batch frame.  Killing
  the process at any instant leaves a loadable committed prefix; a run
  that completes seals the trace with the final
  :meth:`~repro.traffic.driver.TrafficReport.fingerprint`, making
  replay-vs-original divergence detectable.
- :func:`capture_experiment` wires a tap into an
  :class:`~repro.traffic.driver.OpenLoopDriver` run — materialized
  (``n_jobs``) or horizon-bounded streamed (``n_jobs=None``, jobs
  pulled lazily from ``population.stream_jobs(process.stream(...))``
  and never materialized).

The captured job sequence is the *offered* sequence in offer order:
re-queued retry copies are session-internal (they are deterministic
replays of the chaos spec) and are not re-recorded, so a captured
trace replays through the normal :func:`~repro.traffic.driver.replay`
path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.traffic.arrivals import ArrivalProcess
from repro.traffic.driver import OpenLoopDriver, TrafficReport
from repro.traffic.population import UserPopulation
from repro.traffic.trace import TraceWriter, TrafficTrace


class CaptureTap:
    """Session observer that records a live run into a trace file.

    ``on_job`` / ``on_decision`` are called from the simulator's hot
    loop, so the tap stays cheap there: each hands its record to the
    :class:`~repro.traffic.trace.TraceWriter`, which queues it and
    packs (``struct``, no JSON) and writes one frame per
    ``flush_every`` records — the same bytes the batch write-then-run
    path produces for the same records, and the ``ab_replay`` bench
    case gates the streaming tax < 3% over that path.  With
    ``sync=True`` every record is written and fsynced in a frame of
    its own before the hook returns: per-record durability, because a
    live run's jobs are not known in advance.
    (Writers that hold the whole job list — ``TrafficTrace.record``,
    incident dumps — group-commit it with one fsync instead.)
    ``decisions=False`` records only the job stream — the instance
    publishes ``on_decision = None`` so the session's hoisted hooks
    skip it entirely instead of paying a no-op call per event.
    """

    def __init__(
        self,
        path: Union[str, Path],
        meta: Optional[Dict[str, Any]] = None,
        n_jobs: Optional[int] = None,
        sync: bool = False,
        decisions: bool = True,
        flush_every: int = 64,
    ):
        self._writer = TraceWriter(path, meta=meta, n_jobs=n_jobs,
                                   sync=sync, flush_every=flush_every)
        self.path = Path(path)
        self.decisions = decisions
        if not decisions:
            self.on_decision = None

    # -- tap protocol (called by SimulatorSession) ----------------------

    def on_job(self, job) -> None:
        self._writer.append_job(job)

    def on_decision(self, kind: str, t: float, job_id: int) -> None:
        self._writer.append_decision(kind, t, job_id)

    # -- lifecycle ------------------------------------------------------

    @property
    def jobs_captured(self) -> int:
        return self._writer.n_jobs

    @property
    def sealed(self) -> bool:
        return self._writer.sealed

    def seal(self, fingerprint: Optional[Dict[str, Any]] = None) -> None:
        """Commit the trailer: the capture is complete and verifiable."""
        self._writer.seal(fingerprint)
        _metrics.counter("traffic.captures_sealed").add()
        _metrics.counter("traffic.capture_jobs").add(self.jobs_captured)

    def close(self) -> None:
        """Write the open batch and close (without sealing)."""
        self._writer.close()

    def __enter__(self) -> "CaptureTap":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def capture_experiment(
    path: Union[str, Path],
    process: ArrivalProcess,
    population: UserPopulation,
    driver: OpenLoopDriver,
    n_jobs: Optional[int] = None,
    arrival_seed: int = 0,
    sync: bool = False,
    decisions: bool = True,
    flush_every: int = 64,
) -> Tuple[TrafficTrace, TrafficReport]:
    """Run one experiment with a live capture tap attached.

    With ``n_jobs`` the job list is materialized up front (the
    classic batch shape); with ``n_jobs=None`` the driver must carry a
    horizon and the jobs are pulled lazily from the population/process
    streams — never materialized, captured as they are offered.
    Either way the trace on disk grows *during* the run and is sealed
    with the final report fingerprint only if the run completes; a
    crash mid-run leaves a loadable committed prefix.
    """
    mode = "batch" if n_jobs is not None else "stream"
    if mode == "stream" and driver.horizon is None:
        raise ValueError(
            "streamed capture needs a driver horizon "
            "(pass n_jobs= for a bounded batch capture)"
        )
    meta = {
        "process": process.describe(),
        "population": population.describe(),
        "driver": driver.describe(),
        "n_jobs": n_jobs,
        "arrival_seed": arrival_seed,
        "mode": mode,
    }
    tap = CaptureTap(path, meta=meta, n_jobs=n_jobs, sync=sync,
                     decisions=decisions, flush_every=flush_every)
    try:
        with _trace.span("traffic.capture", mode=mode,
                         n_jobs=n_jobs or 0):
            if mode == "batch":
                from repro.traffic.driver import generate_jobs

                jobs = generate_jobs(process, population, n_jobs,
                                     arrival_seed=arrival_seed)
                report = driver.run(jobs, tap=tap)
            else:
                stream = population.stream_jobs(
                    process.stream(arrival_seed)
                )
                report = driver.run_stream(stream, tap=tap)
        tap.seal(report.fingerprint())
    finally:
        tap.close()
    return TrafficTrace.load(path), report
