"""Rate-matrix assembly and population solves.

The rate matrix R collects all transition rates; populations evolve as
``dn/dt = R n`` with columns summing to zero (conservation).  The
steady state solves ``R n = 0`` with the normalization ``sum(n) = 1``
replacing one (redundant) row — the standard non-LTE kinetics
formulation.
"""

from __future__ import annotations

import numpy as np

from repro.kinetics.atomicmodel import AtomicModel
from repro.kinetics.rates import (
    collisional_deexcitation,
    collisional_excitation,
    radiative_decay,
)


def assemble_rate_matrix(
    model: AtomicModel,
    t_e: float,
    n_e: float,
    include_radiative: bool = True,
) -> np.ndarray:
    """Full rate matrix with conservation diagonal.

    Off-diagonal R[i, j] >= 0 is the j -> i rate; the diagonal is
    minus the column sums, so ``ones @ R == 0`` exactly.
    """
    r = collisional_excitation(model, t_e, n_e)
    r = r + collisional_deexcitation(model, t_e, n_e)
    if include_radiative:
        r = r + radiative_decay(model)
    np.fill_diagonal(r, 0.0)
    np.fill_diagonal(r, -r.sum(axis=0))
    return r


def steady_state_populations(rate_matrix: np.ndarray) -> np.ndarray:
    """Solve R n = 0, sum(n) = 1 by dense LU (the cuSOLVER path)."""
    n = rate_matrix.shape[0]
    if rate_matrix.shape != (n, n):
        raise ValueError("rate matrix must be square")
    a = rate_matrix.copy()
    a[-1, :] = 1.0  # replace the redundant equation with normalization
    b = np.zeros(n)
    b[-1] = 1.0
    pops = np.linalg.solve(a, b)
    # clean tiny negatives from roundoff and renormalize
    pops = np.maximum(pops, 0.0)
    total = pops.sum()
    if total <= 0:
        raise RuntimeError("population solve produced a zero vector")
    return pops / total


def boltzmann_populations(model: AtomicModel, t_e: float) -> np.ndarray:
    """LTE (Boltzmann) populations — the collisional-limit reference."""
    if t_e <= 0:
        raise ValueError("temperature must be positive")
    w = model.degeneracies * np.exp(-model.energies / t_e)
    return w / w.sum()


def evolve_populations(
    rate_matrix: np.ndarray,
    n0: np.ndarray,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """Time-dependent kinetics with implicit Euler steps (stiff-safe)."""
    if dt <= 0 or n_steps < 0:
        raise ValueError("bad time-stepping parameters")
    n = n0.copy()
    eye = np.eye(rate_matrix.shape[0])
    lhs = eye - dt * rate_matrix
    lu_inv = np.linalg.inv(lhs)
    for _ in range(n_steps):
        n = lu_inv @ n
    return n
