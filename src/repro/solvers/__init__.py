"""hypre proxy: algebraic multigrid, Krylov solvers, structured BoxLoops.

Reproduces the Tools-and-Libraries *hypre* activity (§4.10.1):

- :mod:`repro.solvers.csr` — CSR matrix wrapper whose SpMV records
  roofline kernel specs (the cuSPARSE-matvec port of the BoomerAMG
  solve phase).
- :mod:`repro.solvers.krylov` — PCG built on operator callbacks (the
  hypre Krylov layer).
- :mod:`repro.solvers.smoothers` — Jacobi / weighted-Jacobi /
  l1-Jacobi / Gauss-Seidel relaxation.  l1-Jacobi is the GPU-friendly
  smoother hypre switched to; Gauss-Seidel is the sequential CPU
  classic.
- :mod:`repro.solvers.coarsen` / :mod:`repro.solvers.interp` —
  strength-of-connection, classical Ruge-Stueben and PMIS coarsening,
  direct interpolation.
- :mod:`repro.solvers.boomeramg` — the unstructured AMG solver: setup
  on the CPU (exactly as the paper kept it), matvec-only V-cycle solve
  phase portable across backends.
- :mod:`repro.solvers.structured` — the BoxLoop abstraction and a
  PFMG-style structured solver: structured stencil kernels written
  once against BoxLoop and retargeted per backend.
- :mod:`repro.solvers.problems` — standard test-problem generators
  (2D/3D Poisson, anisotropic diffusion).
"""

from repro.solvers.csr import CsrMatrix, spmv_spec
from repro.solvers.krylov import ConvergenceInfo, pcg
from repro.solvers.smoothers import (
    gauss_seidel,
    gauss_seidel_multicolor,
    jacobi,
    l1_jacobi,
    multicolor_ordering,
    weighted_jacobi,
)
from repro.solvers.coarsen import pmis_coarsen, rs_coarsen, strength_graph
from repro.solvers.interp import direct_interpolation
from repro.solvers.boomeramg import AmgHierarchy, BoomerAMG
from repro.solvers.structured import Box, BoxLoop, StructGrid, pfmg_solve
from repro.solvers.problems import poisson_2d, poisson_3d, anisotropic_2d

__all__ = [
    "CsrMatrix",
    "spmv_spec",
    "ConvergenceInfo",
    "pcg",
    "jacobi",
    "weighted_jacobi",
    "l1_jacobi",
    "gauss_seidel",
    "gauss_seidel_multicolor",
    "multicolor_ordering",
    "strength_graph",
    "rs_coarsen",
    "pmis_coarsen",
    "direct_interpolation",
    "BoomerAMG",
    "AmgHierarchy",
    "Box",
    "BoxLoop",
    "StructGrid",
    "pfmg_solve",
    "poisson_2d",
    "poisson_3d",
    "anisotropic_2d",
]
