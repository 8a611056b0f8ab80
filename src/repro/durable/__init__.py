"""Durable crash-restart core (``repro.durable``).

The paper's Sierra campaigns (MuMMI, ddcMD ensembles, solver sweeps)
ran for days and had to survive node loss without losing work; the
reproduction's :class:`~repro.resilience.CheckpointStore` was
in-memory only, so a SIGKILL mid-campaign lost all scheduler, tenant,
and RNG state.  This package makes the kill survivable:

- :class:`~repro.durable.wal.WriteAheadLog` — CRC32-framed append-only
  journal: fsync-on-commit, torn-tail truncation on open, rotation by
  truncation to the header.
- :class:`~repro.durable.store.DurableStore` — an on-disk snapshot
  plus an incremental journal, with no in-memory copy of the state;
  each record names the step it extends and may carry only the new
  tails of append-only fields; recovery is
  load-snapshot-then-replay-journal, idempotent under duplicates.
- :class:`~repro.durable.campaign.ResumableCampaign` — drives any
  checkpointable stepper so the process can be SIGKILLed at any
  instant and a restart resumes bit-exactly (same final metrics and
  RNG draws as an uninterrupted run).
- :mod:`repro.durable.chaos` — the kill/restart harness that proves
  it, wired into tests and the ``durable-chaos`` CI job.

A fan-out whose worker dies raises
:class:`~repro.par.errors.WorkerCrashError` with the exact
``pending_indices`` a caller resubmits; a journaled campaign re-runs
its uncommitted step instead.
"""

from repro.durable.campaign import (
    COUNTER_PREFIXES,
    ResumableCampaign,
)
from repro.durable.store import DurableStore
from repro.durable.wal import WriteAheadLog, read_records
from repro.util.state import state_mismatches

__all__ = [
    "COUNTER_PREFIXES",
    "DurableStore",
    "ResumableCampaign",
    "WriteAheadLog",
    "read_records",
    "state_mismatches",
]
