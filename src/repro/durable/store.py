"""Snapshot + incremental-journal persistent state store.

:class:`DurableStore` keeps a stepper's state in two files under one
directory, a snapshot and a :class:`~repro.durable.wal.WriteAheadLog`
journal; it holds no copy of the state in memory:

- a **snapshot** is the full state at some step, written crash-safely
  via :func:`~repro.resilience.checkpoint.atomic_write_bytes` (tmp
  file + ``os.replace`` + fsync) and followed by a journal rotation —
  the records it subsumes become garbage;
- between snapshots, every committed step appends a **journal
  record** ``{"step": k, "base": b, "payload": ...}`` (pickle inside
  a CRC-framed WAL frame), durable before the next step runs.  ``b``
  is the step the record extends: the newest step this handle
  snapshotted, journaled or recovered (a handle on a store that holds
  state must recover or snapshot before it journals).  The payload
  may hold :class:`~repro.util.state.Tail`\\ s, the items an
  append-only field gained since step ``b``, instead of whole lists;
- **recovery** loads the snapshot (if any), then replays the journal
  in order.  A record applies only when it advances the step and
  extends exactly the step recovered so far; its tails are resolved
  against that step's payload (:func:`~repro.util.state.resolve_tails`).
  Duplicate records (a resubmitted step journaled twice), stale
  records (a crash between snapshot commit and journal rotation) and
  records whose base was never recovered are all skipped.  Records
  without a base, the full-state ``{"step", "payload"}`` records
  earlier journals hold, apply whenever they advance the step.  The
  recovered payload is a full one, handed over without a defensive
  copy: nothing else holds a reference to it.

Payloads are opaque to the store apart from their tails; the campaign
layer puts a ``checkpoint_tails()`` dict (plus its observability
counters) in each record and a full ``checkpoint_state()`` in each
snapshot, which is what makes replay equal restoration.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from repro.obs import metrics as _metrics
from repro.resilience.checkpoint import atomic_write_bytes
from repro.durable.wal import WriteAheadLog
from repro.util.state import resolve_tails

SNAPSHOT_NAME = "snapshot.ckpt"
JOURNAL_NAME = "journal.wal"


class DurableStore:
    """WAL-journaled checkpoint store rooted at a directory.

    ``sync`` picks the durability class: ``True`` (default) fsyncs
    every commit, surviving kernel crashes and power loss; ``False``
    flushes without fsync — writes still survive *process* death
    (SIGKILL, the chaos harness's threat model: the page cache
    belongs to the OS, not the process) at a fraction of the commit
    cost.
    """

    def __init__(self, root: Union[str, Path], sync: bool = True):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.root / SNAPSHOT_NAME
        self.sync = sync
        #: step of the newest state this handle wrote as a snapshot or
        #: recovered (-1 before either)
        self.step = -1
        #: step the next journal record extends: the newest this handle
        #: snapshotted, journaled or recovered (None before any of them)
        self._head: Optional[int] = None
        self.wal = WriteAheadLog(self.root / JOURNAL_NAME, sync=sync)
        self.snapshots_written = 0
        self.records_journaled = 0
        self.records_replayed = 0
        self.records_skipped = 0

    # -- write path -----------------------------------------------------

    def save_snapshot(self, step: int, payload: Any) -> None:
        """Persist a full snapshot and retire the journal it subsumes.

        Commit order matters: the snapshot must be durable *before*
        the journal rotates.  A crash in between leaves the new
        snapshot plus the old journal, whose records replay as
        idempotent no-ops (their steps do not advance past the
        snapshot).
        """
        blob = pickle.dumps(
            {"step": step, "state": payload},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        atomic_write_bytes(self.snapshot_path, blob, sync=self.sync)
        self.wal.rotate()
        self.step = self._head = step
        self.snapshots_written += 1
        _metrics.counter("durable.snapshots").add()

    def journal(self, step: int, payload: Any) -> None:
        """Append one committed step to the journal (fsync-on-commit),
        stamped with the step it extends.  Tails in *payload* must
        extend that step's payload.

        On a store that already holds a snapshot or records, the handle
        must :meth:`recover` or :meth:`save_snapshot` first: until then
        it does not know the step its record extends, and raises
        :class:`RuntimeError` rather than write a record that recovery
        would skip.
        """
        if self._head is None:
            if self.snapshot_path.exists() or self.wal.records_on_open:
                raise RuntimeError(
                    "journal() on a store that holds state needs "
                    "recover() or save_snapshot() first"
                )
            self._head = -1
        self.wal.append(pickle.dumps(
            {"step": step, "base": self._head, "payload": payload},
            protocol=pickle.HIGHEST_PROTOCOL,
        ))
        self._head = step
        self.records_journaled += 1
        _metrics.counter("durable.journal_records").add()

    # -- recovery -------------------------------------------------------

    def recover(self) -> Optional[Tuple[int, Any]]:
        """``(step, payload)`` of the newest durable state, or ``None``.

        Loads the snapshot when one exists, then replays the journal
        in append order.  A record applies only when it strictly
        advances the step and, if it names a base, extends exactly the
        step recovered so far; its tails then resolve against that
        step's payload, so the result is always a full payload.
        Replay is idempotent under duplicates and stale pre-snapshot
        records, and a record after a gap is never applied.  An empty
        or missing journal (first boot, crash before the first commit)
        recovers to the snapshot alone; no snapshot and no records
        means a fresh store.  A stray ``.tmp`` left by a kill
        mid-snapshot is never trusted, and is removed.
        """
        step = -1
        payload: Any = None
        tmp = self.snapshot_path.with_name(self.snapshot_path.name + ".tmp")
        if tmp.exists():
            tmp.unlink()
        if self.snapshot_path.exists():
            with open(self.snapshot_path, "rb") as fh:
                rec = pickle.load(fh)
            step, payload = rec["step"], rec["state"]
        for raw in self.wal.replay():
            rec = pickle.loads(raw)
            if rec["step"] <= step or rec.get("base", step) != step:
                self.records_skipped += 1
                continue
            payload = resolve_tails(payload, rec["payload"])
            step = rec["step"]
            self.records_replayed += 1
        self._head = step
        if step < 0:
            return None
        self.step = step
        _metrics.counter("durable.recoveries").add()
        return step, payload

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
