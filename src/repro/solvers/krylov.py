"""Krylov solvers: preconditioned CG and restarted GMRES.

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


def gmres(
    a: Operator,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    preconditioner: Optional[Operator] = None,
    tol: float = 1e-8,
    restart: int = 30,
    max_iter: int = 500,
) -> "tuple[np.ndarray, ConvergenceInfo]":
    """Restarted GMRES(m) with left preconditioning.

    Handles non-symmetric systems (Cretin's rate matrices are
    non-symmetric, §4.3); the Arnoldi basis is re-orthogonalized via
    modified Gram-Schmidt.  Under ``REPRO_GUARD``, NaN/Inf in the
    inputs or the Arnoldi recurrence and a zero Givens denominator
    with an unconverged residual raise typed
    :class:`NumericalHealthError`\\ s with iteration context.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    if restart < 1:
        raise ValueError("restart must be >= 1")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    health = default_monitor("solvers.gmres")
    if health is not None:
        health.check_array(b, "b")

    def prec(v: np.ndarray) -> np.ndarray:
        return _apply(preconditioner, v) if preconditioner is not None else v

    bnorm = float(np.linalg.norm(prec(b)))
    target = tol * (bnorm if bnorm > 0 else 1.0)
    norms: List[float] = []
    total_it = 0
    while total_it <= max_iter:
        r = prec(b - _apply(a, x))
        beta = float(np.linalg.norm(r))
        if health is not None:
            health.check_value(beta, "residual norm",
                               context={"iteration": total_it})
        if not norms:
            norms.append(beta)
        if beta <= target:
            return x, ConvergenceInfo(True, total_it, norms)
        m = min(restart, max_iter - total_it)
        if m == 0:
            break
        q = np.zeros((m + 1, n))
        h = np.zeros((m + 1, m))
        cs, sn = np.zeros(m), np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        q[0] = r / beta
        k_used = 0
        for k in range(m):
            w = prec(_apply(a, q[k]))
            for i in range(k + 1):
                h[i, k] = float(w @ q[i])
                w -= h[i, k] * q[i]
            h_sub = float(np.linalg.norm(w))  # subdiagonal before rotation
            h[k + 1, k] = h_sub
            # Apply existing Givens rotations to the new column.
            for i in range(k):
                temp = cs[i] * h[i, k] + sn[i] * h[i + 1, k]
                h[i + 1, k] = -sn[i] * h[i, k] + cs[i] * h[i + 1, k]
                h[i, k] = temp
            denom = float(np.hypot(h[k, k], h[k + 1, k]))
            if health is not None and (denom != denom or (
                    denom == 0 and abs(float(g[k])) > target)):
                raise BreakdownError(
                    "Arnoldi breakdown: zero/NaN Givens denominator "
                    "with an unconverged residual",
                    where="solvers.gmres",
                    context={"iteration": total_it, "inner": k,
                             "residual": abs(float(g[k]))},
                )
            if denom == 0:
                k_used = k
                break
            cs[k] = h[k, k] / denom
            sn[k] = h[k + 1, k] / denom
            h[k, k] = denom
            h[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            total_it += 1
            k_used = k + 1
            norms.append(abs(float(g[k + 1])))
            if h_sub == 0 or abs(g[k + 1]) <= target:
                break  # happy breakdown or converged
            if k + 1 < m + 1:
                q[k + 1] = w / h_sub
        # Solve the small triangular system and update x.
        if k_used > 0:
            y = np.linalg.solve(h[:k_used, :k_used], g[:k_used])
            x = x + q[:k_used].T @ y
        if norms[-1] <= target:
            # Verify with a true residual (restarts can drift).
            true_r = float(np.linalg.norm(prec(b - _apply(a, x))))
            norms[-1] = true_r
            if true_r <= target:
                return x, ConvergenceInfo(True, total_it, norms)
        if k_used == 0:
            break
    return x, ConvergenceInfo(False, total_it, norms)
