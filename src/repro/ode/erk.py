"""Explicit adaptive Runge-Kutta (Bogacki-Shampine 3(2)).

The non-stiff companion to :mod:`repro.ode.bdf`, used by the tests
as an independent reference for BDF.  Implements the embedded BS3(2)
pair with standard proportional step control.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

RhsFn = Callable[[float, np.ndarray], np.ndarray]


def erk_integrate(
    rhs: RhsFn,
    t0: float,
    u0: np.ndarray,
    t_end: float,
    rtol: float = 1e-6,
    atol: float = 1e-9,
    h0: Optional[float] = None,
    max_steps: int = 200_000,
) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate ``du/dt = rhs(t, u)`` with BS3(2); returns (t, u(t_end)).

    Returns the full accepted-time history and states (one row per
    accepted step, ending exactly at ``t_end``).
    """
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    u = np.asarray(u0, dtype=np.float64).copy()
    t = t0
    h = h0 if h0 is not None else (t_end - t0) / 100.0
    times: List[float] = [t0]
    states: List[np.ndarray] = [u.copy()]
    k1 = rhs(t, u)
    for _ in range(max_steps):
        if t >= t_end:
            break
        h = min(h, t_end - t)
        k2 = rhs(t + 0.5 * h, u + 0.5 * h * k1)
        k3 = rhs(t + 0.75 * h, u + 0.75 * h * k2)
        u3 = u + h * (2.0 / 9.0 * k1 + 1.0 / 3.0 * k2 + 4.0 / 9.0 * k3)
        k4 = rhs(t + h, u3)
        # embedded 2nd-order solution for the error estimate
        u2 = u + h * (7.0 / 24.0 * k1 + 0.25 * k2 + 1.0 / 3.0 * k3 + 0.125 * k4)
        w = 1.0 / (rtol * np.maximum(np.abs(u), np.abs(u3)) + atol)
        err = float(np.sqrt(np.mean(((u3 - u2) * w) ** 2)))
        if err <= 1.0:
            t += h
            u = u3
            k1 = k4  # FSAL
            times.append(t)
            states.append(u.copy())
        factor = 0.9 * err ** (-1.0 / 3.0) if err > 0 else 2.0
        h *= min(max(factor, 0.2), 5.0)
    else:
        raise RuntimeError(f"max_steps={max_steps} exceeded at t={t}")
    return np.array(times), np.array(states)
