"""Calibrated fault model and the seeded fault injector.

Two kinds of events, matching the failure taxonomy the exascale
readiness literature uses:

- **hard faults** (node or GPU death): a Poisson process whose rate
  comes from the per-machine :class:`~repro.core.machine.FaultSpec`
  catalog; the victim process/job is killed and loses all
  uncheckpointed work.
- **silent data corruption** (SDC): a rare per-step Bernoulli event
  that perturbs live state without any crash; only an algorithm-level
  check (the ABFT residual/energy tests the checkpointable steppers
  expose) can notice it.

Everything is driven by one seeded generator, so a fault schedule is
reproducible: the same seed produces the same kills at the same times,
which is what lets the recovery tests demand bit-for-bit equality
between an interrupted-and-restarted run and a fault-free one.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.machine import FaultSpec, Machine, YEAR_SECONDS
from repro.util.rng import SeedLike, make_rng
from repro.util.state import RNG, Field, Stateful


def fault_spec_for(machine: Machine) -> FaultSpec:
    """The machine's calibrated :class:`FaultSpec`, or a heuristic.

    Machines without a catalog entry get a year-based estimate:
    hardware reliability improved roughly linearly over the study's
    decade, and GPUs fail ~2x as often as the rest of their node.
    """
    if machine.faults is not None:
        return machine.faults
    node_years = max(5.0, 2.0 * (machine.year - 2005))
    gpu_mtbf = (
        node_years / 2.0 * YEAR_SECONDS
        if machine.gpu is not None else float("inf")
    )
    sdc = 5e-5 if machine.gpu is not None else 0.0
    return FaultSpec(
        node_mtbf=node_years * YEAR_SECONDS,
        gpu_mtbf=gpu_mtbf,
        sdc_per_gpu_hour=sdc,
    )


class FaultInjector(Stateful):
    """Seeded source of hard-fault and SDC events.

    Exposes both interfaces the layers above need:

    - continuous time (:meth:`next_fault_after`, :meth:`pick_victim`)
      for the event-driven :class:`~repro.sched.simulator.ClusterSimulator`;
    - per-step draws (:meth:`draw_kill`, :meth:`draw_sdc`) for the
      checkpointed solver/MD/campaign loops driven by
      :class:`~repro.resilience.driver.ResilientDriver`.

    The injector itself is checkpointable (its generator state is part
    of a campaign checkpoint) so that restarting from a checkpoint
    replays the same downstream fault schedule.
    """

    _STATE = (Field("rng", RNG),)

    def __init__(
        self,
        mtbf: Optional[float] = None,
        kill_per_step: float = 0.0,
        sdc_per_step: float = 0.0,
        sdc_magnitude: float = 1e4,
        seed: SeedLike = 0,
    ):
        if mtbf is not None and mtbf <= 0:
            raise ValueError("mtbf must be positive")
        if not (0.0 <= kill_per_step <= 1.0):
            raise ValueError("kill_per_step in [0, 1]")
        if not (0.0 <= sdc_per_step <= 1.0):
            raise ValueError("sdc_per_step in [0, 1]")
        self.mtbf = mtbf
        self.kill_per_step = kill_per_step
        self.sdc_per_step = sdc_per_step
        self.sdc_magnitude = sdc_magnitude
        self.rng = make_rng(seed)

    @classmethod
    def for_machine(
        cls,
        machine: Machine,
        nodes: int = 1,
        seed: SeedLike = 0,
        time_scale: float = 1.0,
        **kwargs: Any,
    ) -> "FaultInjector":
        """Injector whose hard-fault MTBF matches *nodes* nodes of
        *machine*.

        ``time_scale`` compresses real time into simulation time
        (e.g. ``1e-4`` makes a 13-hour system MTBF fire every ~4.7
        simulated seconds), which is how the tests and benchmarks
        exercise multi-day failure statistics in milliseconds.
        """
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        spec = fault_spec_for(machine)
        mtbf = spec.system_mtbf(nodes, machine.gpus_per_node) * time_scale
        return cls(mtbf=mtbf, seed=seed, **kwargs)

    # -- continuous-time interface (scheduler) -------------------------

    def next_fault_after(self, t: float) -> float:
        """Time of the next hard fault strictly after *t*."""
        if self.mtbf is None:
            return float("inf")
        return t + float(self.rng.exponential(self.mtbf))

    def pick_victim(self, n: int) -> int:
        """Uniformly choose which of *n* running jobs the fault kills."""
        if n < 1:
            raise ValueError("no victims to pick from")
        return int(self.rng.integers(n))

    # -- per-step interface (checkpointed loops) -----------------------

    def draw_kill(self) -> bool:
        """Did a hard fault land during the step that just ran?"""
        return bool(self.rng.random() < self.kill_per_step)

    def draw_sdc(self) -> bool:
        """Did a silent corruption land before the next step?"""
        return bool(self.rng.random() < self.sdc_per_step)
