"""SUNDIALS proxy: vector abstraction and stiff time integration.

Reproduces the SUNDIALS activity (§4.10.2): "SUNDIALS already
expresses its vector and algebraic solver operations generically by
abstracting the specific operations behind methods in backends.  The
team's approach leaves high-level control to the time integrator and
nonlinear solver calls on the CPU, and supplies vector implementations
that operate on data in GPU memory."

- :mod:`repro.ode.nvector` — the NVector operation set with a host
  backend and a device backend (ManagedArray-based, transfer-accounted
  through the mini-Umpire layer).  The integrator below is written
  purely against this interface, so swapping backends changes *where*
  the data lives without touching integrator logic.
- :mod:`repro.ode.bdf` — a CVODE-style variable-step BDF(1,2)
  integrator with an inexact-Newton corrector and pluggable linear
  solver.  (CVODE's orders 3-5 use variable-coefficient history
  formulas that are out of scope; orders 1-2 with genuine adaptive
  stepping preserve the stiff-integrator behaviour the paper's
  experiments exercise — see DESIGN.md substitutions.)
"""

from repro.ode.nvector import DeviceVector, HostVector, NVector
from repro.ode.bdf import BdfIntegrator, BdfOptions, StepStats

__all__ = [
    "NVector",
    "HostVector",
    "DeviceVector",
    "BdfIntegrator",
    "BdfOptions",
    "StepStats",
]
