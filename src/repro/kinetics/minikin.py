"""minikin: multi-zone kinetics with two threading strategies.

The mini-app solves populations for many hydrodynamic zones (each with
its own temperature/density).  The paper's two strategies (§4.3):

- **CPU, thread-per-zone** — each thread holds a private zone working
  set (rate matrix + the frequency-resolved transition workspace the
  opacity calculation needs).  For large models that private memory
  exceeds what the node can give every core: "memory constraints
  require idling 60% of CPU cores" for the largest model.
- **GPU, thread-per-transition** — fine-grained threading inside one
  zone; "only needs enough GPU memory to process one zone".

:func:`node_throughput` prices both strategies on a machine from the
catalog.  Two documented calibration constants set the achievable
fraction of peak for the population solves (batched small-matrix LU on
GPUs runs far below peak; cache-blocked LAPACK on CPUs does well) —
EXPERIMENTS.md records their provenance and the resulting 5.75X check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.machine import Machine
from repro.core.memory import AllocationError
from repro.kinetics.atomicmodel import AtomicModel
from repro.kinetics.ratematrix import (
    assemble_rate_matrix,
    steady_state_populations,
)
from repro.kinetics.rates import rate_kernel_flops

#: frequency bins in the opacity workspace (drives per-zone memory)
N_FREQ_BINS = 7000

#: achievable fraction of peak for the per-zone work
CE_CPU_SOLVE = 0.45   # cache-blocked dense solve + vectorized rates
CE_GPU_SOLVE = 0.082  # batched small-matrix LU + transition threads

#: fraction of node DRAM available to zone working sets
MEM_USABLE_FRAC = 0.9


@dataclass(frozen=True)
class Zone:
    """One hydrodynamic zone's plasma conditions."""

    t_e: float
    n_e: float

    def __post_init__(self) -> None:
        if self.t_e <= 0 or self.n_e <= 0:
            raise ValueError("zone conditions must be positive")


def zone_memory_bytes(model: AtomicModel,
                      n_freq_bins: int = N_FREQ_BINS) -> int:
    """Private working set of one zone's solve: dense matrix workspace
    plus the frequency-resolved transition arrays."""
    spectral = 8 * model.n_transitions * n_freq_bins
    return model.zone_working_set_bytes() + spectral


def zone_flops(model: AtomicModel, n_freq_bins: int = N_FREQ_BINS) -> float:
    """Work of one zone: rates + LU solve + opacity accumulation."""
    n = model.n_levels
    lu = (2.0 / 3.0) * n**3
    opacity = 2.0 * model.n_transitions * n_freq_bins
    return rate_kernel_flops(model) + lu + opacity


class Minikin:
    """Per-zone population solver (the real computation)."""

    def __init__(self, model: AtomicModel):
        self.model = model

    def solve_zone(self, zone: Zone,
                   include_radiative: bool = True) -> np.ndarray:
        r = assemble_rate_matrix(self.model, zone.t_e, zone.n_e,
                                 include_radiative=include_radiative)
        return steady_state_populations(r)


def cpu_usable_threads(machine: Machine, model: AtomicModel,
                       n_freq_bins: int = N_FREQ_BINS) -> int:
    """Threads the CPU strategy can actually run, memory-limited."""
    per_thread = zone_memory_bytes(model, n_freq_bins)
    budget = machine.node_mem_bytes * MEM_USABLE_FRAC
    return int(min(machine.total_cores, max(1, budget // per_thread)))


def node_throughput(
    machine: Machine,
    model: AtomicModel,
    strategy: str,
    n_freq_bins: int = N_FREQ_BINS,
    cpu_parallel_efficiency: float = 0.8,
) -> Dict[str, float]:
    """Zones/second for a threading strategy on *machine*.

    Returns a dict with ``throughput`` plus diagnostic fields
    (``threads``, ``idle_fraction`` for CPU; ``zone_bytes`` for GPU).
    """
    flops = zone_flops(model, n_freq_bins)
    if strategy == "cpu":
        threads = cpu_usable_threads(machine, model, n_freq_bins)
        core_peak = machine.cpu.peak_flops_per_core
        t_zone = flops / (core_peak * CE_CPU_SOLVE)
        eff_threads = threads * (
            cpu_parallel_efficiency if threads > 1 else 1.0
        )
        return {
            "throughput": eff_threads / t_zone,
            "threads": float(threads),
            "idle_fraction": 1.0 - threads / machine.total_cores,
        }
    if strategy == "gpu":
        if machine.gpu is None:
            raise ValueError(f"{machine.name} has no GPUs")
        zone_bytes = zone_memory_bytes(model, n_freq_bins)
        if zone_bytes > machine.gpu.mem_bytes:
            raise AllocationError(
                f"one zone ({zone_bytes / 2**30:.1f} GiB) exceeds GPU memory"
            )
        t_zone = flops / (machine.gpu.peak_flops * CE_GPU_SOLVE)
        t_zone += 20 * machine.gpu.launch_overhead  # kernel sequence
        return {
            "throughput": machine.gpus_per_node / t_zone,
            "zone_bytes": float(zone_bytes),
            "idle_fraction": 0.0,
        }
    raise ValueError("strategy must be 'cpu' or 'gpu'")


def gpu_speedup(machine: Machine, model: AtomicModel,
                n_freq_bins: int = N_FREQ_BINS) -> float:
    """Node-level GPU/CPU throughput ratio (§4.3's 5.75X metric)."""
    gpu = node_throughput(machine, model, "gpu", n_freq_bins)
    cpu = node_throughput(machine, model, "cpu", n_freq_bins)
    return gpu["throughput"] / cpu["throughput"]
