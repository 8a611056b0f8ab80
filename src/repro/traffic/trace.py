"""Record/replay traffic traces: packed record batches in WAL framing.

A trace is the full, self-describing record of one offered-load
experiment: a header (format version, arrival-process and population
parameters, chaos and admission configuration) followed by one record
per job, optional decision records (sheds/completions/faults observed
by a live capture tap), and a sealed trailer carrying the recording
run's replay fingerprint.  Every frame is a :mod:`repro.durable.wal`
CRC frame, which buys the durability semantics the incident-replay
story needs for free: a recorder killed mid-write leaves a torn tail
that readers simply stop at, a committed frame is a frame that
replays, and corruption is detected rather than parsed.

Frames after the header (format version 3)::

    [0x03] batch: a string table, job records, decision records
    {"trailer": {"n_jobs": N, "fingerprint": F}}  seal (last frame)

The header and the trailer are JSON.  Records travel in *batch*
frames, one per ``flush_every`` records (one per record when a live
writer syncs).  A batch frame, all little-endian::

    u8 0x03, u32 n_names, u32 n_jobs, u32 n_decisions
    n_names x (u16 byte length, UTF-8 name)      decision kinds, tenants
    n_jobs x (i64 id, f64 arrival, f64 service, f64 deadline,
              i64 priority, u8 flags, u32 tenant name index)
    n_decisions x (u32 kind name index, f64 t, i64 job id)

``flags`` holds ``is_long``, "has a deadline" and "has a tenant"; the
deadline and tenant fields of a job without one are zero and never
read.  Floats are stored as their float64 bits, so every arrival,
service, deadline and decision time survives the write-read cycle
bit-exactly — the property the replay-determinism tests (same shed
reasons, same counters, same completion order) rest on.  A value the
layout cannot hold (an id or priority outside int64, a tenant that is
not a ``str``, a name longer than 65,535 UTF-8 bytes) raises
``ValueError`` when its batch is packed, before any byte of that
batch is written.  Each frame carries its own string table, so a
torn prefix never refers to a table that was lost: a cut inside
batch *k* leaves exactly the records of the batches before it.

The trailer is the commit point of a capture: a trace without one is
a torn prefix (the recorder crashed or was killed mid-run), loadable
with ``strict=False`` for triage but rejected by strict loads.  With
a trailer present, replay-vs-record divergence is detectable — the
fingerprint of a replay under the recorded config must match ``F``
bit-exactly.

Loads go through :func:`repro.durable.wal.read_records`, a read-only
scan: opening a ``WriteAheadLog`` to read would take an append handle
and truncate torn bytes *on disk*, corrupting a file a live capture
is still appending to.  Traces of versions 1 and 2, whose records
are one JSON frame each (``{"id": ..., "arrival": ..., ...}`` per
job, ``{"d": kind, "id": j, "t": t}`` per decision), remain
loadable; a version 1 trace has no trailer, and its completeness
falls back to the header's ``n_jobs`` count.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.durable.wal import WriteAheadLog, read_records
from repro.sched.simulator import Job

FORMAT = "repro-traffic-trace"
VERSION = 3
#: versions this loader understands (1 = pre-capture: no decisions,
#: no trailer, completeness judged by the header's n_jobs; 2 = one
#: JSON frame per record)
READABLE_VERSIONS = (1, 2, 3)

#: first byte of a batch frame; a JSON frame starts with ``{``
_BATCH = b"\x03"
_COUNTS = struct.Struct("<III")      # names, jobs, decisions
_NAME_LEN = struct.Struct("<H")
_JOB = struct.Struct("<qdddqBI")     # see the module docstring
_DECISION = struct.Struct("<Idq")
_LONG, _HAS_DEADLINE, _HAS_TENANT = 1, 2, 4


def _job_from_record(rec: Dict[str, Any]) -> Job:
    """A job from its version 1/2 JSON record."""
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


def _intern(names: Dict[str, int], table: List[bytes], name: Any) -> int:
    """Index of *name* in a batch's string table, added if new."""
    if not isinstance(name, str):
        raise ValueError(f"trace names are str, not {type(name).__name__}")
    index = names.get(name)
    if index is None:
        raw = name.encode()
        if len(raw) > 0xFFFF:
            raise ValueError(f"trace name of {len(raw)} UTF-8 bytes "
                             "exceeds the 65535 a batch frame can hold")
        table.append(_NAME_LEN.pack(len(raw)) + raw)
        index = names[name] = len(table) - 1
    return index


def _pack(records: List[Any]) -> bytes:
    """The batch frame payload of *records*: Jobs and ``(kind, t,
    job_id)`` decisions in append order.  A record the layout cannot
    hold raises ``ValueError``."""
    names: Dict[str, int] = {}
    table: List[bytes] = []
    jobs: List[bytes] = []
    decisions: List[bytes] = []
    try:
        for rec in records:
            if type(rec) is tuple:
                kind, t, job_id = rec
                decisions.append(_DECISION.pack(
                    _intern(names, table, kind), t, job_id))
                continue
            flags = _LONG if rec.is_long else 0
            deadline = rec.deadline
            if deadline is None:
                deadline = 0.0
            else:
                flags |= _HAS_DEADLINE
            tenant, index = rec.tenant, 0
            if tenant is not None:
                flags |= _HAS_TENANT
                index = _intern(names, table, tenant)
            jobs.append(_JOB.pack(rec.job_id, rec.arrival, rec.service,
                                  deadline, rec.priority, flags, index))
    except struct.error as exc:
        raise ValueError(f"trace record {rec!r} does not fit the batch "
                         f"layout: {exc}") from None
    return b"".join((
        _BATCH, _COUNTS.pack(len(table), len(jobs), len(decisions)),
        *table, *jobs, *decisions,
    ))


def _read_batch(payload: bytes, jobs: List[Job],
                decisions: List[Dict[str, Any]]) -> None:
    """Append the records of one batch frame to *jobs*/*decisions*.

    Each job goes through the ``Job`` constructor, so its validation
    runs; each decision is the dict a version 2 trace loads.
    """
    n_names, n_jobs, n_decisions = _COUNTS.unpack_from(payload, 1)
    at = 1 + _COUNTS.size
    names = []
    for _ in range(n_names):
        (length,) = _NAME_LEN.unpack_from(payload, at)
        at += _NAME_LEN.size
        names.append(payload[at:at + length].decode())
        at += length
    end = at + n_jobs * _JOB.size
    if end + n_decisions * _DECISION.size != len(payload):
        raise ValueError("corrupt batch frame: its counts do not "
                         "match its length")
    for job_id, arrival, service, deadline, priority, flags, tenant \
            in _JOB.iter_unpack(payload[at:end]):
        jobs.append(Job(
            job_id, arrival, service, bool(flags & _LONG), priority,
            deadline if flags & _HAS_DEADLINE else None,
            names[tenant] if flags & _HAS_TENANT else None,
        ))
    for kind, t, job_id in _DECISION.iter_unpack(payload[end:]):
        decisions.append({"d": names[kind], "id": job_id, "t": t})


class TraceWriter:
    """Incremental, crash-safe trace writer.

    Writes the header up front, then jobs/decisions as they happen,
    then :meth:`seal` commits the trailer.  Appended records wait in
    one pending batch, which is packed and written as one frame every
    ``flush_every`` records — a struct pack in one burst per frame,
    off the caller's per-record path — and :meth:`seal` and
    :meth:`close` pack whatever is left.  A record the layout cannot
    hold makes the write that packs its batch raise ``ValueError``;
    nothing of that batch is written, and the trailer's job count
    then exceeds the jobs on disk, so the trace never loads as
    complete.  Killing the process at any byte boundary leaves a
    loadable committed prefix: the header plus every whole frame, so
    a crash loses at most the last ``flush_every - 1`` records.
    ``sync=True`` makes every append durable before it returns, so
    the trace survives the machine, not just the process:
    :meth:`append_job` and :meth:`append_decision` then write and
    fsync a one-record frame each (live capture).
    :meth:`append_jobs` group-commits a batch the caller already
    holds — ``flush_every`` records per frame, every frame in one
    write and one fsync — and writes the same bytes as an
    :meth:`append_job` loop when not syncing.  The trailer is
    appended only after that fsync returns, so a sealed trace implies
    every frame before it is durable.
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
        #: records per batch frame (``append_jobs`` always; live
        #: appends unless ``sync``, which writes one per frame)
        self._flush_every = max(1, int(flush_every))
        self._limit = 1 if sync else self._flush_every
        #: records not yet written: Jobs and (kind, t, job_id) tuples
        self._pending: List[Any] = []
        # the WAL flushes every frame; the pending batch is the buffer
        self._wal = WriteAheadLog(self.path, sync=sync)
        header = {
            "format": FORMAT,
            "version": VERSION,
            "n_jobs": n_jobs,  # None when capturing an unbounded stream
            "meta": self.meta,
        }
        self._wal.append(json.dumps(header, sort_keys=True).encode())

    def append_job(self, job: Job) -> None:
        pending = self._pending
        pending.append(job)
        self.n_jobs += 1
        if len(pending) >= self._limit:
            self._write_batch()

    def append_decision(self, kind: str, t: float, job_id: int) -> None:
        pending = self._pending
        pending.append((kind, t, job_id))
        if len(pending) >= self._limit:
            self._write_batch()

    def append_jobs(self, jobs: Iterable[Job]) -> None:
        """Append every job in *jobs* as one group commit.

        The jobs join the pending batch as :meth:`append_job` would, a
        frame per ``flush_every`` records, and every frame reaches the
        file in one write (and one fsync with ``sync``).  With
        ``sync`` the last, partial batch goes out in that write too,
        so every job is durable on return; without it, that batch
        stays pending, as after an :meth:`append_job` loop.  A job the
        layout cannot hold raises before anything is written, and
        leaves the writer as it was.
        """
        pending = self._pending
        records = pending + list(jobs)
        step = self._flush_every
        # pack every batch, the last one too, so a bad job raises here
        frames = [_pack(records[k:k + step])
                  for k in range(0, len(records), step)]
        # what a live append would leave pending stays pending (with
        # sync, nothing)
        keep = len(records) % self._limit
        if keep:
            frames.pop()
        self._wal.append_many(frames)
        self.n_jobs += len(records) - len(pending)
        self._pending = records[len(records) - keep:]

    def _write_batch(self) -> None:
        """Pack the pending records and write them as one frame."""
        if self._pending:
            records, self._pending = self._pending, []
            self._wal.append(_pack(records))

    def seal(self, fingerprint: Optional[Dict[str, Any]] = None) -> None:
        """Commit the trailer; the trace is complete once this returns."""
        if self.sealed:
            raise RuntimeError("trace already sealed")
        self._write_batch()
        trailer = {"n_jobs": self.n_jobs, "fingerprint": fingerprint}
        self._wal.append(
            json.dumps({"trailer": trailer}, sort_keys=True).encode()
        )
        self.sealed = True
        self.close()

    def close(self) -> None:
        """Write the pending batch and release the file (without
        sealing)."""
        if self._wal is not None:
            try:
                self._write_batch()
            finally:
                self._wal.close()
                self._wal = None
                # a later append fails instead of vanishing
                self._pending = None

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
        #: False when the on-disk trace is a torn prefix (v2, v3: no
        #: sealed trailer survived; v1: fewer job records than the header
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
        every job goes out in one group commit of ``flush_every``-job
        batch frames, and the trailer is written immediately — a
        recorded trace is always complete.  With ``sync`` that is one
        fsync for the jobs and one for the trailer, whatever the job
        count.  *fingerprint* (when the
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
        (v2, v3) or fewer surviving jobs than the header committed to
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
            if payload[:1] == _BATCH:
                _read_batch(payload, jobs, decisions)
                continue
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
