"""Heterogeneous-system substrate shared by every proxy application.

This package is the substitution (per DESIGN.md) for the hardware the
paper used and the vendor programming models it evaluated:

- :mod:`repro.core.machine` — a catalog of the machines named in the
  paper (Witherspoon P9+V100 "final system", Minsky P8+P100 EA system,
  Cori-II KNL, Blue Gene/Q, the K40/K80 exploration clusters) with
  published peak-flop / bandwidth / link specifications.
- :mod:`repro.core.roofline` — an analytic execution-time model that
  converts a :class:`~repro.core.kernels.KernelSpec` (flops, bytes,
  launches, transfers) into device time on a given machine.
- :mod:`repro.core.forall` — a mini-RAJA: ``forall``/``kernel`` loop
  abstractions with pluggable backends (sequential Python, vectorized
  NumPy "SIMD", a simulated-device backend) that really execute the
  loop body *and* record kernel launches for the performance model.
- :mod:`repro.core.memory` — a mini-Umpire: memory spaces, pooled
  allocators, and transfer accounting between host and device spaces.
- :mod:`repro.core.jit` — a mini-NVRTC: runtime Python source
  generation with constants baked in, compiled and cached, reproducing
  the paper's JIT/compile-time-constant lessons (Cardioid DSL, MFEM
  JIT, ddcMD launch-time codegen).
"""

from repro.core.kernels import KernelSpec, TransferSpec, KernelTrace
from repro.core.machine import (
    MACHINES,
    CpuSpec,
    GpuSpec,
    LinkSpec,
    Machine,
    NetworkSpec,
    get_machine,
)
from repro.core.roofline import RooflineModel, ExecutionReport
from repro.core.forall import ExecPolicy, Forall, ExecutionContext
from repro.core.memory import MemorySpace, ManagedArray, ResourceManager, QuickPool
from repro.core.jit import JitCache, render_template

__all__ = [
    "KernelSpec",
    "TransferSpec",
    "KernelTrace",
    "MACHINES",
    "CpuSpec",
    "GpuSpec",
    "LinkSpec",
    "NetworkSpec",
    "Machine",
    "get_machine",
    "RooflineModel",
    "ExecutionReport",
    "ExecPolicy",
    "Forall",
    "ExecutionContext",
    "MemorySpace",
    "ManagedArray",
    "ResourceManager",
    "QuickPool",
    "JitCache",
    "render_template",
]
