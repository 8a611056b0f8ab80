"""BoomerAMG proxy: classical AMG with a CPU setup and portable solve.

Mirrors the structure the paper describes (§4.10.1):

- **setup phase** (:meth:`BoomerAMG.setup`): strength graphs,
  coarsening, interpolation, Galerkin products.  "The setup phase,
  which consists of complicated components, has been kept on the CPU"
  — here too: setup never records device kernels and always runs on
  host data.
- **solve phase** (:meth:`BoomerAMG.solve`, :meth:`BoomerAMG.vcycle`):
  "can completely be performed in terms of matrix-vector
  multiplications" — every operation below is an SpMV, an AXPY, or a
  Jacobi sweep (itself SpMV-shaped), and each SpMV is recorded in the
  bound execution context's kernel trace for roofline pricing.

The class is usable directly as a solver or as a preconditioner inside
:func:`repro.solvers.krylov.pcg` (one V-cycle per application), which
is exactly how Fig 8 / Table 4 use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.core.forall import ExecutionContext
from repro.guard.sentinels import default_monitor
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.solvers.coarsen import (
    coarse_fine_counts,
    pmis_coarsen,
    rs_coarsen,
    strength_graph,
)
from repro.solvers.csr import CsrMatrix
from repro.solvers.interp import direct_interpolation
from repro.solvers.krylov import RESIDUAL_NORMS, ConvergenceInfo
from repro.solvers.smoothers import l1_jacobi, weighted_jacobi
from repro.util.state import COPY, Field, Stateful, fields


@dataclass
class AmgLevel:
    a: CsrMatrix
    p: Optional[CsrMatrix] = None  # to next-coarser level


@dataclass
class AmgHierarchy:
    levels: List[AmgLevel] = field(default_factory=list)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def operator_complexity(self) -> float:
        """sum(nnz per level) / nnz(finest) — hypre's standard metric."""
        base = self.levels[0].a.nnz
        return sum(level.a.nnz for level in self.levels) / base

    @property
    def grid_complexity(self) -> float:
        base = self.levels[0].a.n_rows
        return sum(level.a.n_rows for level in self.levels) / base


class BoomerAMG:
    """Classical AMG solver/preconditioner.

    Parameters
    ----------
    theta:
        Strength threshold for coarsening.
    coarsening:
        ``"rs"`` (sequential classical) or ``"pmis"`` (GPU-friendly).
    smoother:
        ``"l1-jacobi"`` (GPU default) or ``"weighted-jacobi"``.
    max_levels, coarse_size:
        Stop coarsening at ``coarse_size`` unknowns or ``max_levels``.
    ctx:
        Optional execution context; solve-phase SpMVs are recorded
        there.
    """

    def __init__(
        self,
        theta: float = 0.25,
        coarsening: str = "rs",
        smoother: str = "l1-jacobi",
        max_levels: int = 25,
        coarse_size: int = 40,
        pre_sweeps: int = 1,
        post_sweeps: int = 1,
        seed: int = 0,
        ctx: Optional[ExecutionContext] = None,
    ):
        if coarsening not in ("rs", "pmis"):
            raise ValueError("coarsening must be 'rs' or 'pmis'")
        if smoother not in ("l1-jacobi", "weighted-jacobi"):
            raise ValueError("smoother must be 'l1-jacobi' or 'weighted-jacobi'")
        if max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        self.theta = theta
        self.coarsening = coarsening
        self.smoother_name = smoother
        self.max_levels = max_levels
        self.coarse_size = coarse_size
        self.pre_sweeps = pre_sweeps
        self.post_sweeps = post_sweeps
        self.seed = seed
        self.ctx = ctx
        self.hierarchy: Optional[AmgHierarchy] = None
        self._coarse_lu = None

    # ------------------------------------------------------------------
    # setup phase (CPU)
    # ------------------------------------------------------------------

    def setup(self, a) -> AmgHierarchy:
        """Build the multigrid hierarchy.

        Runs on the CPU (the paper kept the setup phase there), but
        records what a GPU port *would* cost into
        :attr:`setup_trace` — the analysis behind §5's "ongoing
        research will port the AMG setup phase in hypre to GPUs".
        RS coarsening's heap loop is inherently sequential and records
        no device kernel; PMIS rounds, strength, interpolation and the
        Galerkin sparse triple product are all expressible as device
        kernels.
        """
        with _trace.span("solvers.amg.setup", coarsening=self.coarsening):
            hierarchy = self._setup(a)
        _metrics.counter("solvers.amg.setups").add()
        _metrics.gauge("solvers.amg.levels").set(hierarchy.num_levels)
        return hierarchy

    def _setup(self, a) -> AmgHierarchy:
        from repro.core.kernels import KernelSpec, KernelTrace

        self.setup_trace = KernelTrace()
        self.setup_gpu_portable = self.coarsening == "pmis"
        a = a if isinstance(a, CsrMatrix) else CsrMatrix(a, ctx=self.ctx)
        a.ctx = self.ctx
        levels = [AmgLevel(a=a)]
        current = a
        while (
            current.n_rows > self.coarse_size
            and len(levels) < self.max_levels
        ):
            s = strength_graph(current.tocsr(), theta=self.theta)
            self.setup_trace.record_kernel(KernelSpec(
                name="setup-strength", flops=3.0 * current.nnz,
                bytes_read=12.0 * current.nnz,
                bytes_written=8.0 * s.nnz,
                compute_efficiency=0.3, bandwidth_efficiency=0.5,
            ))
            if self.coarsening == "rs":
                labels = rs_coarsen(s, seed=self.seed)
                # sequential heap algorithm: not a device kernel
            else:
                labels = pmis_coarsen(s, seed=self.seed)
                self.setup_trace.record_kernel(KernelSpec(
                    name="setup-pmis", flops=2.0 * s.nnz,
                    bytes_read=8.0 * s.nnz, bytes_written=8.0 * s.shape[0],
                    launches=4,  # typical independent-set rounds
                    compute_efficiency=0.3, bandwidth_efficiency=0.4,
                ))
            n_c, _ = coarse_fine_counts(labels)
            if n_c == 0 or n_c >= current.n_rows:
                break  # coarsening stalled
            p = direct_interpolation(current.tocsr(), s, labels)
            self.setup_trace.record_kernel(KernelSpec(
                name="setup-interp", flops=6.0 * p.nnz,
                bytes_read=12.0 * (current.nnz + s.nnz),
                bytes_written=12.0 * p.nnz,
                compute_efficiency=0.25, bandwidth_efficiency=0.35,
            ))
            p_wrapped = CsrMatrix(p, ctx=self.ctx, name=f"P{len(levels)}")
            coarse = current.galerkin(p_wrapped)
            # spgemm triple product: flops ~ 2 * nnz(A) * avg nnz/row(P)
            avg_p = p.nnz / max(p.shape[0], 1)
            self.setup_trace.record_kernel(KernelSpec(
                name="setup-galerkin", flops=4.0 * current.nnz * avg_p,
                bytes_read=12.0 * (current.nnz + 2 * p.nnz),
                bytes_written=12.0 * coarse.nnz,
                compute_efficiency=0.15,  # spgemm runs far below peak
                bandwidth_efficiency=0.3,
            ))
            levels[-1].p = p_wrapped
            levels.append(AmgLevel(a=coarse))
            current = coarse
        self.hierarchy = AmgHierarchy(levels=levels)
        # Direct solve on the coarsest level (dense LU; it is tiny).
        coarsest = levels[-1].a.toarray()
        # Regularize in case the coarse operator is singular (pure
        # Neumann-like leftovers).
        if coarsest.shape[0] > 0:
            reg = 1e-12 * np.trace(np.abs(coarsest)) / max(coarsest.shape[0], 1)
            self._coarse_lu = np.linalg.inv(
                coarsest + reg * np.eye(coarsest.shape[0])
            )
        return self.hierarchy

    # ------------------------------------------------------------------
    # solve phase (portable: SpMV + AXPY only)
    # ------------------------------------------------------------------

    def _smooth(self, a: CsrMatrix, b: np.ndarray, x: np.ndarray,
                sweeps: int) -> np.ndarray:
        _metrics.counter("solvers.amg.smooth_sweeps").add(sweeps)
        if self.smoother_name == "l1-jacobi":
            return l1_jacobi(a, b, x, sweeps=sweeps)
        return weighted_jacobi(a, b, x, sweeps=sweeps)

    def vcycle(self, b: np.ndarray, x: Optional[np.ndarray] = None,
               level: int = 0) -> np.ndarray:
        """One V(pre,post)-cycle starting at *level*."""
        if self.hierarchy is None:
            raise RuntimeError("call setup() before vcycle()")
        if level == 0:
            with _trace.span("solvers.amg.vcycle",
                             levels=self.hierarchy.num_levels):
                x = self._vcycle(b, x, 0)
            _metrics.counter("solvers.amg.vcycles").add()
            mon = default_monitor("solvers.amg.vcycle")
            if mon is not None:
                mon.check_array(x, "V-cycle output")
            return x
        return self._vcycle(b, x, level)

    def _vcycle(self, b: np.ndarray, x: Optional[np.ndarray],
                level: int) -> np.ndarray:
        lvl = self.hierarchy.levels[level]
        x = np.zeros_like(b) if x is None else x
        if level == self.hierarchy.num_levels - 1:
            return self._coarse_lu @ b if self._coarse_lu is not None else x
        x = self._smooth(lvl.a, b, x, self.pre_sweeps)
        r = lvl.a.residual(b, x)
        rc = lvl.p.rmatvec(r)
        ec = self._vcycle(rc, None, level + 1)
        x = x + lvl.p.matvec(ec)
        x = self._smooth(lvl.a, b, x, self.post_sweeps)
        return x

    def solve(
        self,
        b: np.ndarray,
        x0: Optional[np.ndarray] = None,
        tol: float = 1e-8,
        max_iter: int = 100,
    ) -> "tuple[np.ndarray, ConvergenceInfo]":
        """Stand-alone AMG iteration: repeat V-cycles to tolerance."""
        return self.solve_session(b, x0=x0, tol=tol, max_iter=max_iter).solve()

    def solve_session(
        self,
        b: np.ndarray,
        x0: Optional[np.ndarray] = None,
        tol: float = 1e-8,
        max_iter: int = 100,
    ) -> "AmgSolve":
        """Stepwise (checkpointable) stand-alone AMG solve."""
        if self.hierarchy is None:
            raise RuntimeError("call setup() before solve()")
        return AmgSolve(self, b, x0=x0, tol=tol, max_iter=max_iter)

    # ------------------------------------------------------------------

    def as_preconditioner(self) -> Callable[[np.ndarray], np.ndarray]:
        """One-V-cycle preconditioner callable for the Krylov layer."""
        if self.hierarchy is None:
            raise RuntimeError("call setup() before as_preconditioner()")

        def apply(r: np.ndarray) -> np.ndarray:
            return self.vcycle(r)

        return apply


class AmgSolve(Stateful):
    """One stand-alone AMG solve, advanced one V-cycle at a time.

    The cross-iteration state is just the iterate (the hierarchy is
    immutable after setup), so a checkpoint is cheap: ``x`` plus the
    residual history.  Restoring and replaying V-cycles reproduces the
    uninterrupted solve bit-for-bit — V-cycles are deterministic.
    """

    _STATE = (
        Field("x", COPY),
        Field("it"),
        Field("norms", RESIDUAL_NORMS),
        *fields("done", "converged"),
    )

    def __init__(
        self,
        amg: BoomerAMG,
        b: np.ndarray,
        x0: Optional[np.ndarray] = None,
        tol: float = 1e-8,
        max_iter: int = 100,
    ):
        if amg.hierarchy is None:
            raise RuntimeError("call setup() before AmgSolve")
        if max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        self.amg = amg
        self.b = np.asarray(b, dtype=np.float64)
        self.max_iter = max_iter
        # sentinels: auto-armed under REPRO_GUARD, None when off
        self._health = default_monitor("solvers.amg")
        if self._health is not None:
            self._health.check_array(self.b, "b")
        self.x = (
            np.zeros_like(self.b) if x0 is None
            else np.array(x0, dtype=np.float64)
        )
        a = amg.hierarchy.levels[0].a
        bnorm = float(np.linalg.norm(self.b))
        self._bnorm = bnorm if bnorm > 0 else 1.0
        self.target = tol * self._bnorm
        self.norms: List[float] = [
            float(np.linalg.norm(a.residual(self.b, self.x)))
        ]
        self.it = 0
        self.converged = self.norms[0] <= self.target
        self.done = self.converged or max_iter == 0

    @property
    def progress(self) -> int:
        return self.it

    def step(self) -> bool:
        """One V-cycle; returns True when the solve is finished."""
        if self.done:
            return True
        a = self.amg.hierarchy.levels[0].a
        self.x = self.amg.vcycle(self.b, self.x)
        rnorm = float(np.linalg.norm(a.residual(self.b, self.x)))
        if self._health is not None:
            self._health.check_value(rnorm, "residual norm",
                                     context={"iteration": self.it})
        self.norms.append(rnorm)
        self.it += 1
        if rnorm <= self.target:
            self.converged = True
            self.done = True
        elif self.it >= self.max_iter:
            self.done = True
        return self.done

    def info(self) -> ConvergenceInfo:
        return ConvergenceInfo(self.converged, self.it, list(self.norms))

    def solve(self) -> "tuple[np.ndarray, ConvergenceInfo]":
        while not self.done:
            self.step()
        return self.x, self.info()

    # -- resilience protocol -------------------------------------------

    def abft_error(self) -> float:
        """Relative drift between the recorded and true residual norms."""
        a = self.amg.hierarchy.levels[0].a
        true_r = float(np.linalg.norm(a.residual(self.b, self.x)))
        return abs(true_r - self.norms[-1]) / self._bnorm

    def corrupt(self, rng, magnitude: float = 1e4) -> None:
        """Inject a silent corruption into the live iterate."""
        k = int(rng.integers(self.x.size))
        self.x[k] += magnitude
