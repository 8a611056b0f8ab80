"""Kill-anywhere campaign driver over a :class:`DurableStore`.

:class:`ResumableCampaign` drives any checkpointable stepper (the
same ``step()`` / ``progress`` / ``checkpoint_state()`` /
``restore_state()`` protocol :class:`~repro.resilience.ResilientDriver`
uses — :class:`~repro.workflow.mummi.MummiCampaign`, the stepwise
solvers, :class:`~repro.sched.simulator.SimulatorSession`) with a
durability guarantee the in-memory driver cannot give: the process
can be **SIGKILLed at any instant** and a restarted process resumes
bit-exactly.

The commit protocol per step::

    step()                       # mutate live state
    journal(progress, record)    # fsync-on-commit — THE commit point
    [snapshot every `cadence`]   # compaction, atomic

A kill before the journal append loses only the uncommitted step;
recovery restores the previous boundary and re-runs it, and because
every stepper snapshots *all* state feeding the computation
(including RNG streams and their spawn counters), the re-run is
bit-identical to the one the kill destroyed.  A kill mid-append is a
torn tail the WAL truncates.  A kill between snapshot and rotation
leaves stale journal records that replay as no-ops.

Each snapshot carries the stepper's full ``checkpoint_state()``, and
each journal record its ``checkpoint_tails()``: the same state, but
with every append-only field cut to the items added since the last
record or snapshot, so a record costs what its step added, not what
the run holds.  The driver keeps those fields' lengths and resets
them at every snapshot and recovery; the store resolves the tails on
recovery.  A stepper without ``checkpoint_tails`` journals full
states.  Both carry the observability counters under
``COUNTER_PREFIXES`` (campaign/scheduler/guard accounting), so a
resumed process reports the same final metrics an uninterrupted run
would — counters rewind to the boundary together with the state.

Under ``REPRO_OBS_VALIDATE``, each tails record is also resolved
against the previous full state and checked against a full
``checkpoint_state()`` (domain ``durable.tails``), which catches a
field wrongly declared append-only.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.obs import metrics as _metrics
from repro.obs import validate as _validate
from repro.durable.store import DurableStore
from repro.util.state import resolve_tails, saved_lengths, state_mismatches

#: counter namespaces that ride along with every committed payload
COUNTER_PREFIXES = ("workflow.", "sched.", "guard.")


def _capture_counters() -> Dict[str, Any]:
    return {
        name: value
        for name, value in _metrics.snapshot()["counters"].items()
        if name.startswith(COUNTER_PREFIXES)
    }


def _restore_counters(values: Dict[str, Any]) -> None:
    """Rewind tracked counters to exactly the committed values.

    Counters under a tracked prefix that exist in the registry but
    not in the committed payload were created after the boundary —
    they rewind to zero, not to a stale live value.
    """
    live = _metrics.snapshot()["counters"]
    for name in live:
        if name.startswith(COUNTER_PREFIXES) and name not in values:
            _metrics.counter(name).reset()
    for name, value in values.items():
        c = _metrics.counter(name)
        with c._lock:
            c.value = value


class ResumableCampaign:
    """Drive *stepper* under WAL-journaled durable checkpoints."""

    def __init__(
        self,
        stepper: Any,
        store: DurableStore,
        cadence: int = 10,
        journal_every: int = 1,
    ):
        if cadence < 1:
            raise ValueError("cadence must be >= 1")
        if journal_every < 1:
            raise ValueError("journal_every must be >= 1")
        self.stepper = stepper
        self.store = store
        self.cadence = cadence
        self.journal_every = journal_every
        self.steps_committed = 0
        self.recovered_step: Optional[int] = None
        self._last_journaled = -1
        #: saved list lengths at the newest snapshot, record or recovery:
        #: where the next record's tails start
        self._lengths: Dict[str, int] = {}
        #: validate mode: the full state the next record extends
        self._base: Any = None

    # -- recovery -------------------------------------------------------

    def recover(self) -> Optional[int]:
        """Restore the stepper (and counters) from the store.

        Returns the recovered step, or ``None`` when the store is
        fresh (first boot) and the stepper keeps its constructed
        state.
        """
        rec = self.store.recover()
        if rec is None:
            return None
        step, payload = rec
        self.stepper.restore_state(payload["state"])
        _restore_counters(payload.get("counters", {}))
        self.recovered_step = step
        self._last_journaled = step
        self._lengths = saved_lengths(payload["state"])
        self._base = None
        return step

    # -- the drive loop -------------------------------------------------

    def _snapshot(self, step: int, counters: Dict[str, Any]) -> None:
        state = self.stepper.checkpoint_state()
        self.store.save_snapshot(step, {"state": state,
                                        "counters": counters})
        self._lengths = saved_lengths(state)
        # only validate mode reads it; holding a full state otherwise
        # keeps the snapshot's copies alive until the next record
        self._base = state if _validate.validation_enabled() else None

    def _journal(self, step: int, counters: Dict[str, Any]) -> None:
        tails = getattr(self.stepper, "checkpoint_tails", None)
        if tails is None:
            state = self.stepper.checkpoint_state()
        else:
            state = tails(self._lengths)
            if _validate.validation_enabled():
                self._check_tails(state)
            else:
                self._base = None
        self.store.journal(step, {"state": state, "counters": counters})
        self._lengths = saved_lengths(state)
        self._last_journaled = step
        self.steps_committed += 1

    def _check_tails(self, state: Dict[str, Any]) -> None:
        """Resolve a tails record against the previous full state and
        check it against a full checkpoint of the same step."""
        full = self.stepper.checkpoint_state()
        if self._base is not None:
            mismatches = state_mismatches(
                resolve_tails(self._base, state), full)
            _validate.check(
                "durable.tails", not mismatches,
                f"resolved tails differ from checkpoint_state() at "
                f"{mismatches[:3]}",
            )
        self._base = full

    def run(self, n_steps: Optional[int] = None,
            pace: float = 0.0) -> int:
        """Run until ``progress >= n_steps`` (or the stepper is done).

        ``pace`` sleeps that many seconds after each commit — the
        chaos harness uses it to stretch a campaign so seeded kill
        points land mid-flight.  Returns the final progress.
        """
        stepper = self.stepper
        has_done = hasattr(stepper, "done")
        if n_steps is None and not has_done:
            raise ValueError(
                "stepper has no natural termination; pass n_steps"
            )
        # a snapshot at entry makes recovery possible from step one,
        # and on resume compacts the replayed journal
        self._snapshot(stepper.progress, _capture_counters())
        self._last_journaled = stepper.progress
        while True:
            if has_done and stepper.done:
                break
            if n_steps is not None and stepper.progress >= n_steps:
                break
            stepper.step()
            progress = stepper.progress
            journal = progress % self.journal_every == 0
            snapshot = (progress % self.cadence == 0
                        and progress > self.store.step)
            if journal or snapshot:
                counters = _capture_counters()
                if journal:
                    self._journal(progress, counters)
                if snapshot:
                    self._snapshot(progress, counters)
            if pace:
                time.sleep(pace)
        # commit the final state even off the journal_every grid, so
        # recovery lands on the true end of the run
        if stepper.progress > self._last_journaled:
            self._journal(stepper.progress, _capture_counters())
        return stepper.progress
