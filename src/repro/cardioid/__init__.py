"""Cardioid proxy: monodomain cardiac electrophysiology (§4.1).

Cardioid computes membrane ion transport (reaction kernels:
embarrassingly parallel, compute-bound, "100-500 calls to math
functions") and ion diffusion (memory-bound stencils "with unique
coefficients used at each point of the continuum").  The iCoE team's
headline optimization was a DSL (Melodee) that "automatically finds and
replaces expensive math functions with rational polynomials ... and
uses an NVIDIA runtime-compilation library to produce high performance
kernels on-demand", with compile-time constant baking worth significant
extra performance.

- :mod:`repro.cardioid.ionmodels` — a Hodgkin-Huxley-style membrane
  model: voltage-dependent rate functions dense with ``exp`` calls,
  Rush-Larsen gate integration.
- :mod:`repro.cardioid.dsl` — the Melodee proxy: rational-polynomial
  fitting of the rate functions over the physiological voltage range,
  code generation with coefficients baked as literals, compilation
  through the mini-NVRTC JIT, and accuracy verification against the
  reference math library.
- :mod:`repro.cardioid.simulation` — the CPU/GPU placement decision
  model of a simulation step (the §4.1 lesson: data-transfer cost made
  "all on the GPU" win even where the CPU kernel was competitive).
"""

from repro.cardioid.ionmodels import HodgkinHuxleyModel, RATE_FUNCTIONS
from repro.cardioid.dsl import RationalFit, ReactionKernelGenerator
from repro.cardioid.simulation import placement_decision

__all__ = [
    "HodgkinHuxleyModel",
    "RATE_FUNCTIONS",
    "RationalFit",
    "ReactionKernelGenerator",
    "placement_decision",
]
