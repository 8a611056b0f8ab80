"""Krylov solvers: preconditioned CG.

These mirror the hypre Krylov layer the paper's solve phase runs
through: operator-based (any callable or :class:`CsrMatrix`),
preconditioner-pluggable, and allocation-conscious (working vectors are
reused across iterations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np

from repro.guard.errors import BreakdownError
from repro.guard.sentinels import default_monitor
from repro.solvers.csr import CsrMatrix
from repro.util.state import COPY, Field, Stateful, convert, fields

Operator = Union[CsrMatrix, Callable[[np.ndarray], np.ndarray]]


def _apply(op: Operator, x: np.ndarray) -> np.ndarray:
    if isinstance(op, CsrMatrix):
        return op.matvec(x)
    return op(x)


@dataclass
class ConvergenceInfo:
    """Iteration history returned by every Krylov solve."""

    converged: bool
    iterations: int
    residual_norms: List[float] = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else float("nan")

    @property
    def reduction(self) -> float:
        """||r_k|| / ||r_0||."""
        if len(self.residual_norms) < 2 or self.residual_norms[0] == 0:
            return 1.0
        return self.residual_norms[-1] / self.residual_norms[0]


#: a stepwise solver's residual history, checkpointed as one array
RESIDUAL_NORMS = convert(np.asarray, lambda saved: [float(v) for v in saved])


class PcgSolver(Stateful):
    """Stepwise preconditioned CG with checkpoint/restart support.

    Same numerics as :func:`pcg` (which is now a thin loop over this
    class), but one iteration at a time, so the resilience layer can
    snapshot the cross-iteration state (``x, r, p, rz``) between
    steps, roll back after an injected fault, and replay to a
    bit-identical result.  The ABFT check compares the recurrence
    residual norm against the true residual ``||b - Ax||`` — silent
    corruption of the iterate breaks their agreement.
    """

    _STATE = (
        *fields("x", "r", "p", kind=COPY),
        *fields("rz", "it"),
        Field("norms", RESIDUAL_NORMS),
        *fields("done", "converged"),
    )

    def __init__(
        self,
        a: Operator,
        b: np.ndarray,
        x0: Optional[np.ndarray] = None,
        preconditioner: Optional[Operator] = None,
        tol: float = 1e-8,
        max_iter: int = 500,
    ):
        if max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        self.a = a
        self.preconditioner = preconditioner
        self.b = np.asarray(b, dtype=np.float64)
        self.max_iter = max_iter
        # sentinels: auto-armed under REPRO_GUARD, absent (None) when
        # guards are off — the disabled path is the pre-guard loop plus
        # one `is None` test per step
        self._health = default_monitor("solvers.pcg")
        if self._health is not None:
            self._health.check_array(self.b, "b")
        self.x = (
            np.zeros_like(self.b) if x0 is None
            else np.array(x0, dtype=np.float64)
        )
        self.r = self.b - _apply(a, self.x)
        bnorm = float(np.linalg.norm(self.b))
        self._bnorm = bnorm if bnorm > 0 else 1.0
        self.target = tol * self._bnorm
        self.norms: List[float] = [float(np.linalg.norm(self.r))]
        self.it = 0
        self.converged = self.norms[0] <= self.target
        self.done = self.converged or max_iter == 0
        if not self.converged:
            z = (
                _apply(preconditioner, self.r)
                if preconditioner is not None else self.r.copy()
            )
            self.p = z.copy()
            self.rz = float(self.r @ z)
        else:
            self.p = np.zeros_like(self.b)
            self.rz = 0.0

    @property
    def progress(self) -> int:
        return self.it

    def step(self) -> bool:
        """One CG iteration; returns True when the solve is finished."""
        if self.done:
            return True
        ap = _apply(self.a, self.p)
        pap = float(self.p @ ap)
        if self._health is not None and not pap > 0:
            # covers pap <= 0 and pap NaN: operator not SPD, or
            # corrupted state — a typed breakdown under guard
            self.done = True
            raise BreakdownError(
                f"p.Ap = {pap!r} <= 0 (operator not SPD, or "
                "corrupted state)", where="solvers.pcg",
                context={"iteration": self.it, "pap": pap,
                         "residual": self.norms[-1]},
            )
        if pap <= 0:
            # legacy (guard-off) path: stop with the current iterate
            self.done = True
            return True
        alpha = self.rz / pap
        self.x += alpha * self.p
        self.r -= alpha * ap
        rnorm = float(np.linalg.norm(self.r))
        if self._health is not None:
            self._health.check_value(rnorm, "residual norm",
                                     context={"iteration": self.it})
        self.norms.append(rnorm)
        self.it += 1
        if rnorm <= self.target:
            self.converged = True
            self.done = True
            return True
        if self.it >= self.max_iter:
            self.done = True
            return True
        z = (
            _apply(self.preconditioner, self.r)
            if self.preconditioner is not None else self.r
        )
        rz_new = float(self.r @ z)
        beta = rz_new / self.rz
        self.rz = rz_new
        self.p = z + beta * self.p
        return False

    def info(self) -> ConvergenceInfo:
        return ConvergenceInfo(self.converged, self.it, list(self.norms))

    # -- resilience protocol -------------------------------------------

    def abft_error(self) -> float:
        """Relative drift between recurrence and true residual norms."""
        true_r = float(np.linalg.norm(self.b - _apply(self.a, self.x)))
        return abs(true_r - self.norms[-1]) / self._bnorm

    def corrupt(self, rng, magnitude: float = 1e4) -> None:
        """Inject a silent corruption into the live iterate."""
        k = int(rng.integers(self.x.size))
        self.x[k] += magnitude

    def solve(self) -> "tuple[np.ndarray, ConvergenceInfo]":
        while not self.done:
            self.step()
        return self.x, self.info()


def pcg(
    a: Operator,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    preconditioner: Optional[Operator] = None,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> "tuple[np.ndarray, ConvergenceInfo]":
    """Preconditioned conjugate gradients for SPD systems.

    Convergence test: ||r||_2 <= tol * ||b||_2 (hypre's default
    relative criterion).  Under ``REPRO_GUARD`` NaN/Inf inputs and
    ``p.Ap <= 0`` breakdowns raise a typed
    :class:`NumericalHealthError` carrying the iteration context
    instead of iterating to ``max_iter``.
    """
    return PcgSolver(
        a, b, x0=x0, preconditioner=preconditioner, tol=tol,
        max_iter=max_iter,
    ).solve()
