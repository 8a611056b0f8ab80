"""Checkpoint/restart driver for stepwise computations.

Runs any checkpointable stepper (stepwise PCG/AMG, :class:`DdcMD`,
:class:`MummiCampaign`) under an optional :class:`FaultInjector`:

- a checkpoint is saved every ``cadence`` completed steps;
- a hard fault kills the "process" — the driver rewinds to the last
  checkpoint and replays, counting the wasted steps;
- before each step the stepper's ABFT invariant (recurrence-vs-true
  residual for solvers, step-to-step energy jump for MD, a field
  checksum for the campaign) is checked; a violation means silent
  data corruption, and triggers the same rollback.

Because every stepper snapshots *all* of its live state (including
RNG states), a rewind-and-replay reproduces the fault-free
trajectory bit-for-bit — the property the acceptance tests assert.

The stepper protocol, beyond ``checkpoint_state``/``restore_state``:

``step()``
    advance one unit of work (iteration / MD step / campaign cycle);
``progress`` (int property)
    completed units; must rewind when state is restored;
``done`` (optional bool)
    natural termination (converged solvers);
``abft_error()`` (optional)
    cheap non-negative invariant-violation metric, ~0 on a healthy
    state;
``corrupt(rng, magnitude)`` (optional)
    flip state the way an SDC event would — used by the injector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import FaultInjector


@dataclass
class ResilienceReport:
    """What happened during one resilient run."""

    steps_completed: int = 0
    checkpoints_saved: int = 0
    checkpoint_bytes: int = 0
    kills: int = 0
    rollbacks: int = 0
    sdc_injected: int = 0
    sdc_detected: int = 0
    #: steps recomputed because a fault destroyed them
    wasted_steps: int = 0
    #: modeled checkpoint-write seconds (0 without a machine to price on)
    checkpoint_write_time: float = 0.0

    @property
    def overhead_fraction(self) -> float:
        """Wasted work relative to useful work."""
        if self.steps_completed == 0:
            return 0.0
        return self.wasted_steps / self.steps_completed


class ResilientDriver:
    """Drive *stepper* to completion with checkpoint/restart."""

    def __init__(
        self,
        stepper: Any,
        cadence: int = 10,
        injector: Optional[FaultInjector] = None,
        store: Optional[CheckpointStore] = None,
        abft_tol: Optional[float] = None,
        machine: Optional[Any] = None,
    ):
        if cadence < 1:
            raise ValueError("cadence must be >= 1")
        self.stepper = stepper
        self.cadence = cadence
        self.injector = injector
        self.store = store if store is not None else CheckpointStore()
        self.abft_tol = abft_tol
        self.machine = machine

    def _save(self, report: ResilienceReport) -> None:
        self.store.save(self.stepper.progress,
                        self.stepper.checkpoint_state(), copy=False)
        report.checkpoints_saved += 1
        report.checkpoint_bytes += self.store.nbytes
        if self.machine is not None:
            report.checkpoint_write_time += self.store.modeled_write_time(
                self.machine
            )

    def _rollback(self, report: ResilienceReport) -> None:
        before = self.stepper.progress
        step, state = self.store.load()
        self.stepper.restore_state(state)
        report.rollbacks += 1
        report.wasted_steps += max(0, before - step)

    def run(self, max_steps: Optional[int] = None) -> ResilienceReport:
        """Run until the stepper is done (or *max_steps* completed)."""
        if max_steps is None and not hasattr(self.stepper, "done"):
            raise ValueError(
                "stepper has no natural termination; pass max_steps"
            )
        report = ResilienceReport()
        self._save(report)  # step-0 checkpoint: rollback is always possible
        # hoist the capability probes: the loop runs per solver
        # iteration / MD step, so per-step hasattr dispatch is the
        # difference between ~2% and ~10% driver overhead
        stepper = self.stepper
        injector = self.injector
        cadence = self.cadence
        store = self.store
        has_done = hasattr(stepper, "done")
        can_corrupt = injector is not None and hasattr(stepper, "corrupt")
        abft = (
            stepper.abft_error
            if self.abft_tol is not None and hasattr(stepper, "abft_error")
            else None
        )
        while True:
            if has_done and stepper.done:
                break
            if max_steps is not None and stepper.progress >= max_steps:
                break
            # silent corruption lands between steps
            if can_corrupt and injector.draw_sdc():
                stepper.corrupt(injector.rng, injector.sdc_magnitude)
                report.sdc_injected += 1
            # ABFT sanity check before trusting the state
            if abft is not None and abft() > self.abft_tol:
                report.sdc_detected += 1
                self._rollback(report)
                continue
            stepper.step()
            # a hard fault kills the process mid-flight
            if injector is not None and injector.draw_kill():
                report.kills += 1
                self._rollback(report)
                continue
            progress = stepper.progress
            if progress % cadence == 0 and progress > store.step:
                self._save(report)
        report.steps_completed = self.stepper.progress
        return report
