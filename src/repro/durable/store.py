"""Snapshot + incremental-journal persistent state store.

:class:`DurableStore` keeps a stepper's state in two files under one
directory, a snapshot and a :class:`~repro.durable.wal.WriteAheadLog`
journal; it holds no copy of the state in memory:

- a **snapshot** is the full state at some step, written crash-safely
  via :func:`~repro.resilience.checkpoint.atomic_write_bytes` (tmp
  file + ``os.replace`` + fsync) and followed by an atomic journal
  rotation — the records it subsumes become garbage;
- between snapshots, every committed step appends a **journal
  record** ``{"step": k, "payload": ...}`` (pickle inside a
  CRC-framed WAL frame), durable before the next step runs;
- **recovery** loads the snapshot (if any), then replays the journal
  in order, applying only records that advance the step — so
  duplicate records (a resubmitted step journaled twice) and stale
  records (a crash between snapshot commit and journal rotation) are
  both idempotent no-ops.  The recovered payload is the unpickled
  object itself, handed over without a defensive copy: nothing else
  holds a reference to it.

Payloads are opaque to the store; the campaign layer puts a full
``checkpoint_state()`` dict (plus its observability counters) in each
record, which is what makes replay equal restoration.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from repro.obs import metrics as _metrics
from repro.resilience.checkpoint import atomic_write_bytes
from repro.durable.wal import WriteAheadLog

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
        self.step = step
        self.snapshots_written += 1
        _metrics.counter("durable.snapshots").add()

    def journal(self, step: int, payload: Any) -> None:
        """Append one committed step to the journal (fsync-on-commit)."""
        self.wal.append(pickle.dumps(
            {"step": step, "payload": payload},
            protocol=pickle.HIGHEST_PROTOCOL,
        ))
        self.records_journaled += 1
        _metrics.counter("durable.journal_records").add()

    # -- recovery -------------------------------------------------------

    def recover(self) -> Optional[Tuple[int, Any]]:
        """``(step, payload)`` of the newest durable state, or ``None``.

        Loads the snapshot when one exists, then replays the journal:
        records are applied in append order, and only when they
        strictly advance the step — replay is idempotent under
        duplicates and stale pre-snapshot records.  An empty or
        missing journal (first boot, crash before the first commit)
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
            if rec["step"] > step:
                step = rec["step"]
                payload = rec["payload"]
                self.records_replayed += 1
            else:
                self.records_skipped += 1
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
