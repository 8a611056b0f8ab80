"""Typed errors raised by the guard layer.

The sentinels distinguish *soft* numerical failures — the cases the
paper's iCoE teams spent their effort on (solvers that stagnate after
a port, ion models going non-physical) — from hard faults (crashes),
which the resilience layer handles with kill/requeue/checkpoint.

Every error carries *where* it was detected and a small ``context``
dict (iteration number, residual norm, offending value, ...), so a
caller or a test can assert on the trip without string parsing.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class GuardError(RuntimeError):
    """Base of every guard-layer error."""

    def __init__(self, message: str, where: str = "",
                 context: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.where = where
        self.context = dict(context or {})

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.where:
            base = f"[{self.where}] {base}"
        if self.context:
            extras = ", ".join(
                f"{k}={v!r}" for k, v in sorted(self.context.items())
            )
            base = f"{base} ({extras})"
        return base


class NumericalHealthError(GuardError):
    """A sentinel detected silent numerical trouble.

    Raised *instead of* looping to ``max_iter`` or emitting garbage:
    the typed subclasses tell the caller what went wrong.
    """


class NonFiniteError(NumericalHealthError):
    """NaN or Inf appeared in live state (inputs, iterates, forces)."""


class OverflowHealthError(NumericalHealthError):
    """State is finite but beyond any physically plausible magnitude."""


class StagnationError(NumericalHealthError):
    """An iteration is no longer making progress (residual stall,
    repeated error-test failures, step-size underflow)."""


class DivergedError(NumericalHealthError):
    """An iteration is actively blowing up (residual growth beyond the
    divergence ratio, non-physical trajectory)."""


class BreakdownError(NumericalHealthError):
    """An algorithmic breakdown: ``p . Ap <= 0`` in CG (operator not
    SPD, or corrupted state), a zero Arnoldi subdiagonal with an
    unconverged residual, a singular Newton matrix."""
