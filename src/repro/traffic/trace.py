"""Record/replay traffic traces: JSONL records in WAL framing.

A trace is the full, self-describing record of one offered-load
experiment: a header (format version, arrival-process and population
parameters, chaos and admission configuration) followed by one record
per job, optional decision records (sheds/completions/faults observed
by a live capture tap), and — since format version 2 — a sealed
trailer carrying the recording run's replay fingerprint.  Records are
JSON payloads inside :mod:`repro.durable.wal` CRC frames, which buys
the durability semantics the incident-replay story needs for free: a
recorder killed mid-write leaves a torn tail that readers simply stop
at, a committed record is a record that replays, and corruption is
detected rather than parsed.

Record kinds after the header frame::

    {"id": ..., "arrival": ..., ...}              job
    {"d": "shed"|"complete"|..., "t": t, "id": j} decision (v2)
    {"trailer": {"n_jobs": N, "fingerprint": F}}  seal (v2, last frame)

The trailer is the commit point of a capture: a trace without one is
a torn prefix (the recorder crashed or was killed mid-run), loadable
with ``strict=False`` for triage but rejected by strict loads.  With
a trailer present, replay-vs-record divergence is detectable — the
fingerprint of a replay under the recorded config must match ``F``
bit-exactly.

Loads go through :func:`repro.durable.wal.read_records`, a read-only
scan: opening a ``WriteAheadLog`` to read would take an append handle
and truncate torn bytes *on disk*, corrupting a file a live capture
is still appending to.  (Version 1 traces — header + jobs, no
trailer — remain loadable; completeness falls back to the header's
``n_jobs`` count.)

Python's ``json`` emits shortest-round-trip ``repr`` floats, so every
arrival/service/deadline survives the write-read cycle bit-exactly —
the property the replay-determinism tests (same shed reasons, same
counters, same completion order) rest on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.durable.wal import WriteAheadLog, read_records
from repro.sched.simulator import Job

FORMAT = "repro-traffic-trace"
VERSION = 2
#: versions this loader understands (1 = pre-capture: no decisions,
#: no trailer; completeness judged by the header's n_jobs)
READABLE_VERSIONS = (1, 2)


def _job_record(job: Job) -> Dict[str, Any]:
    rec = {
        "id": job.job_id,
        "arrival": job.arrival,
        "service": job.service,
        "is_long": job.is_long,
        "priority": job.priority,
        "deadline": job.deadline,
    }
    # written only when set, so single-tenant traces stay byte-stable
    # against the pre-tenant format
    if job.tenant is not None:
        rec["tenant"] = job.tenant
    return rec


def _job_from_record(rec: Dict[str, Any]) -> Job:
    return Job(
        job_id=int(rec["id"]),
        arrival=float(rec["arrival"]),
        service=float(rec["service"]),
        is_long=bool(rec["is_long"]),
        priority=int(rec["priority"]),
        deadline=(
            None if rec["deadline"] is None else float(rec["deadline"])
        ),
        tenant=rec.get("tenant"),
    )


class TraceWriter:
    """Incremental, crash-safe trace writer.

    Writes the header up front, then jobs/decisions as they happen,
    then :meth:`seal` commits the trailer.  Killing the process at any
    byte boundary leaves a loadable committed prefix: the header plus
    every flushed frame.  ``flush_every`` batches OS flushes to keep
    the tap off the simulator's hot path (a crash loses at most the
    last ``flush_every - 1`` records).  ``sync=True`` makes every
    append durable before it returns, so the trace survives the
    machine, not just the process: :meth:`append_job` and
    :meth:`append_decision` fsync each frame (live capture), while
    :meth:`append_jobs` group-commits a batch the caller already holds
    with one fsync (recorded traces and incident dumps).  The trailer
    is appended only after that fsync returns, so a sealed trace
    implies every frame before it is durable.
    """

    def __init__(
        self,
        path: Union[str, Path],
        meta: Optional[Dict[str, Any]] = None,
        n_jobs: Optional[int] = None,
        sync: bool = False,
        flush_every: int = 64,
    ):
        self.path = Path(path)
        if self.path.exists():
            self.path.unlink()  # a trace file is immutable once recorded
        self.meta = dict(meta or {})
        self.n_jobs = 0
        self.sealed = False
        self._wal = WriteAheadLog(
            self.path, sync=sync,
            flush_every=1 if sync else max(1, int(flush_every)),
        )
        header = {
            "format": FORMAT,
            "version": VERSION,
            "n_jobs": n_jobs,  # None when capturing an unbounded stream
            "meta": self.meta,
        }
        self._wal.append(json.dumps(header, sort_keys=True).encode())
        self._wal.flush()  # a capture file is identifiable from frame one

    def append_job(self, job: Job) -> None:
        self._wal.append(
            json.dumps(_job_record(job), sort_keys=True).encode()
        )
        self.n_jobs += 1

    def append_jobs(self, jobs: Iterable[Job]) -> None:
        """Append every job in *jobs* as one group commit.

        The frames are byte-identical to an :meth:`append_job` loop;
        they reach the file in one write (one fsync with ``sync``).
        """
        payloads = [
            json.dumps(_job_record(job), sort_keys=True).encode()
            for job in jobs
        ]
        self._wal.append_many(payloads)
        self.n_jobs += len(payloads)

    def append_decision(self, kind: str, t: float, job_id: int) -> None:
        self._wal.append(
            json.dumps({"d": kind, "t": t, "id": job_id},
                       sort_keys=True).encode()
        )

    def seal(self, fingerprint: Optional[Dict[str, Any]] = None) -> None:
        """Commit the trailer; the trace is complete once this returns."""
        if self.sealed:
            raise RuntimeError("trace already sealed")
        trailer = {"n_jobs": self.n_jobs, "fingerprint": fingerprint}
        self._wal.append(
            json.dumps({"trailer": trailer}, sort_keys=True).encode()
        )
        self.sealed = True
        self.close()

    def close(self) -> None:
        """Flush and release the file handle (without sealing)."""
        if self._wal is not None:
            self._wal.flush()
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TrafficTrace:
    """An in-memory trace: header metadata plus the job sequence."""

    def __init__(self, jobs: List[Job],
                 meta: Optional[Dict[str, Any]] = None,
                 complete: bool = True,
                 fingerprint: Optional[Dict[str, Any]] = None,
                 decisions: Optional[List[Dict[str, Any]]] = None,
                 version: int = VERSION):
        self.jobs = list(jobs)
        self.meta = dict(meta or {})
        #: False when the on-disk trace is a torn prefix (v2: no sealed
        #: trailer survived; v1: fewer job records than the header
        #: committed to)
        self.complete = complete
        #: the recording run's TrafficReport.fingerprint(), from the
        #: sealed trailer (None for v1 traces and unsealed prefixes)
        self.fingerprint = fingerprint
        #: decision records a capture tap interleaved with the jobs
        self.decisions = list(decisions or [])
        self.version = version

    # -- write path -----------------------------------------------------

    @classmethod
    def record(
        cls,
        path: Union[str, Path],
        jobs: List[Job],
        meta: Optional[Dict[str, Any]] = None,
        sync: bool = False,
        fingerprint: Optional[Dict[str, Any]] = None,
    ) -> "TrafficTrace":
        """Write *jobs* (with *meta*) to a fresh sealed trace at *path*.

        The jobs are known up front, so the header carries the count,
        every job goes out in one group commit, and the trailer is
        written immediately — a recorded trace is always complete.
        With ``sync`` that is one fsync for the jobs and one for the
        trailer, whatever the job count.  *fingerprint* (when the
        caller already ran the experiment) is sealed into the trailer
        so replays can be checked against the original run.
        """
        writer = TraceWriter(path, meta=meta, n_jobs=len(jobs), sync=sync)
        try:
            writer.append_jobs(jobs)
            writer.seal(fingerprint)
        finally:
            writer.close()
        return cls(jobs, meta, fingerprint=fingerprint)

    # -- read path ------------------------------------------------------

    @classmethod
    def load(cls, path: Union[str, Path],
             strict: bool = True) -> "TrafficTrace":
        """Read a trace back; committed frames only, file untouched.

        With ``strict`` (default) a torn trace — no sealed trailer
        (v2) or fewer surviving jobs than the header committed to
        (v1) — raises; pass ``strict=False`` to get the surviving
        prefix with ``complete=False`` (triage on a torn capture).
        """
        payloads = list(read_records(path))
        if not payloads:
            raise ValueError(f"{path}: not a traffic trace (no header)")
        header = json.loads(payloads[0].decode())
        if header.get("format") != FORMAT:
            raise ValueError(f"{path}: not a traffic trace")
        version = header.get("version")
        if version not in READABLE_VERSIONS:
            raise ValueError(
                f"{path}: trace version {version!r} not in "
                f"{READABLE_VERSIONS}"
            )
        jobs: List[Job] = []
        decisions: List[Dict[str, Any]] = []
        trailer = None
        for payload in payloads[1:]:
            rec = json.loads(payload.decode())
            if "trailer" in rec:
                trailer = rec["trailer"]
                break  # the seal is by construction the last frame
            if "d" in rec:
                decisions.append(rec)
            else:
                jobs.append(_job_from_record(rec))
        if version == 1:
            complete = len(jobs) == header.get("n_jobs")
            fingerprint = None
            if strict and not complete:
                raise ValueError(
                    f"{path}: torn trace — header committed "
                    f"{header.get('n_jobs')} jobs, {len(jobs)} survived"
                )
        else:
            complete = (trailer is not None
                        and len(jobs) == trailer.get("n_jobs"))
            fingerprint = trailer.get("fingerprint") if trailer else None
            if strict and not complete:
                raise ValueError(
                    f"{path}: torn trace — no sealed trailer "
                    f"({len(jobs)} committed jobs survived; load with "
                    f"strict=False to triage the prefix)"
                )
        return cls(jobs, header.get("meta"), complete=complete,
                   fingerprint=fingerprint, decisions=decisions,
                   version=version)

    # -- comparison surface ---------------------------------------------

    def same_jobs(self, other: "TrafficTrace") -> bool:
        """Bit-exact job-stream equality (Jobs are frozen dataclasses,
        so ``==`` compares every field exactly)."""
        return self.jobs == other.jobs

    def __len__(self) -> int:
        return len(self.jobs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TrafficTrace)
            and self.jobs == other.jobs
            and self.meta == other.meta
        )
