"""Durable crash-restart core (``repro.durable``).

The paper's Sierra campaigns (MuMMI, ddcMD ensembles, solver sweeps)
ran for days and had to survive node loss without losing work; the
reproduction's :class:`~repro.resilience.CheckpointStore` was
in-memory only, so a SIGKILL mid-campaign lost all scheduler, tenant,
and RNG state.  This package makes the kill survivable:

- :class:`~repro.durable.wal.WriteAheadLog` — CRC32-framed append-only
  journal: fsync-on-commit, torn-tail truncation on open, atomic
  rename rotation.
- :class:`~repro.durable.store.DurableStore` — an on-disk snapshot
  plus an incremental journal, with no in-memory copy of the state;
  recovery is load-snapshot-then-replay-journal, idempotent under
  duplicates.
- :class:`~repro.durable.campaign.ResumableCampaign` — drives any
  checkpointable stepper so the process can be SIGKILLed at any
  instant and a restart resumes bit-exactly (same final metrics and
  RNG draws as an uninterrupted run).
- :mod:`repro.durable.chaos` — the kill/restart harness that proves
  it, wired into tests and the ``durable-chaos`` CI job.

The worker-pool half of the story (heartbeat liveness, replacement,
poison quarantine, journal resubmission) lives in
:class:`repro.par.Supervisor`, which journals fan-out completions
into the same WAL format.
"""

from repro.durable.campaign import (
    DEFAULT_COUNTER_PREFIXES,
    ResumableCampaign,
)
from repro.durable.chaos import ChaosReport, run_chaos, state_mismatches
from repro.durable.store import DurableStore
from repro.durable.wal import WriteAheadLog, read_records

__all__ = [
    "ChaosReport",
    "DEFAULT_COUNTER_PREFIXES",
    "DurableStore",
    "ResumableCampaign",
    "WriteAheadLog",
    "read_records",
    "run_chaos",
    "state_mismatches",
]
