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
    journal(progress, payload)   # fsync-on-commit — THE commit point
    [snapshot every `cadence`]   # compaction, atomic

A kill before the journal append loses only the uncommitted step;
recovery restores the previous boundary and re-runs it, and because
every stepper snapshots *all* state feeding the computation
(including RNG streams and their spawn counters), the re-run is
bit-identical to the one the kill destroyed.  A kill mid-append is a
torn tail the WAL truncates.  A kill between snapshot and rotation
leaves stale journal records that replay as no-ops.

Each committed payload carries the stepper's full
``checkpoint_state()`` plus the observability counters under
``counter_prefixes`` (campaign/scheduler/guard accounting), so a
resumed process reports the same final metrics an uninterrupted run
would — counters rewind to the boundary together with the state.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.durable.store import DurableStore

#: counter namespaces that ride along with every committed payload
DEFAULT_COUNTER_PREFIXES = ("workflow.", "sched.", "guard.")


def _capture_counters(prefixes: Tuple[str, ...]) -> Dict[str, Any]:
    return {
        name: value
        for name, value in _metrics.snapshot()["counters"].items()
        if name.startswith(prefixes)
    }


def _restore_counters(values: Dict[str, Any],
                      prefixes: Tuple[str, ...]) -> None:
    """Rewind tracked counters to exactly the committed values.

    Counters under a tracked prefix that exist in the registry but
    not in the committed payload were created after the boundary —
    they rewind to zero, not to a stale live value.
    """
    live = _metrics.snapshot()["counters"]
    for name in live:
        if name.startswith(prefixes) and name not in values:
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
        counter_prefixes: Iterable[str] = DEFAULT_COUNTER_PREFIXES,
    ):
        if cadence < 1:
            raise ValueError("cadence must be >= 1")
        if journal_every < 1:
            raise ValueError("journal_every must be >= 1")
        self.stepper = stepper
        self.store = store
        self.cadence = cadence
        self.journal_every = journal_every
        self.counter_prefixes = tuple(counter_prefixes)
        self.steps_committed = 0
        self.recovered_step: Optional[int] = None
        self._last_journaled = -1

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
        _restore_counters(payload.get("counters", {}),
                          self.counter_prefixes)
        self.recovered_step = step
        self._last_journaled = step
        return step

    # -- the drive loop -------------------------------------------------

    def _payload(self) -> Dict[str, Any]:
        return {
            "state": self.stepper.checkpoint_state(),
            "counters": _capture_counters(self.counter_prefixes),
        }

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
        self.store.save_snapshot(stepper.progress, self._payload())
        self._last_journaled = stepper.progress
        while True:
            if has_done and stepper.done:
                break
            if n_steps is not None and stepper.progress >= n_steps:
                break
            stepper.step()
            progress = stepper.progress
            payload = None
            if progress % self.journal_every == 0:
                payload = self._payload()
                self.store.journal(progress, payload)
                self._last_journaled = progress
                self.steps_committed += 1
            if progress % self.cadence == 0 and progress > self.store.step:
                self.store.save_snapshot(
                    progress, payload if payload is not None
                    else self._payload(),
                )
            if pace:
                time.sleep(pace)
        # commit the final state even off the journal_every grid, so
        # recovery lands on the true end of the run
        if stepper.progress > self._last_journaled:
            self.store.journal(stepper.progress, self._payload())
            self._last_journaled = stepper.progress
            self.steps_committed += 1
        return stepper.progress
