"""The CPU/GPU placement model of a monodomain simulation step.

Implements §4.1's placement lesson as an explicit decision function:
even when the CPU diffusion kernel is competitive with the GPU one,
moving the voltage field across the link every timestep costs more
than the kernel-time difference — so everything runs on the GPU.
"""

from __future__ import annotations

from typing import Dict

from repro.core.kernels import KernelSpec
from repro.core.machine import Machine
from repro.core.roofline import RooflineModel


def placement_decision(
    machine: Machine,
    n_points: int,
    steps_per_second: float = 1.0,
) -> Dict[str, float]:
    """Compare per-step cost of 'diffusion on CPU' vs 'all on GPU'.

    Returns modeled per-step times for both placements and the
    decision.  The CPU placement pays two field transfers per step
    (voltage down, updated voltage back up); the GPU placement pays
    none.  This is the §4.1 analysis in executable form.
    """
    if machine.gpu is None:
        raise ValueError("placement analysis needs a GPU machine")
    model = RooflineModel(machine)
    diffusion = KernelSpec(
        name="diffusion", flops=13.0 * n_points,
        bytes_read=8.0 * 7 * n_points, bytes_written=8.0 * n_points,
        compute_efficiency=0.4, bandwidth_efficiency=0.8,
    )
    t_gpu_kernel = model.gpu_kernel_time(diffusion,
                                         gpus=machine.gpus_per_node)
    t_cpu_kernel = model.cpu_kernel_time(diffusion)
    field_bytes = 8.0 * n_points
    link = machine.host_device_link
    t_transfer = 2 * link.transfer_time(field_bytes)
    all_gpu = t_gpu_kernel + machine.gpu.launch_overhead
    split = t_cpu_kernel + t_transfer
    return {
        "all_gpu_per_step": all_gpu,
        "cpu_diffusion_per_step": split,
        "transfer_per_step": t_transfer,
        "winner": "all_gpu" if all_gpu <= split else "cpu_diffusion",
    }
