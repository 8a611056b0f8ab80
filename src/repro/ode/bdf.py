"""CVODE-style adaptive BDF integrator with Newton corrector.

Solves stiff systems in the (optionally mass-matrix) form

    M du/dt = F(t, u),    u(t0) = u0

with variable-step BDF of order 1-2 (genuine variable-step
coefficients for BDF2), a modified-Newton corrector with lagged
Jacobian/preconditioner setups, and CVODE's weighted-RMS error control
(``rtol``/``atol`` weights, step acceptance when the local error
estimate's WRMS norm is <= 1).

The linear solve per Newton iteration — the expensive part, and the
part the paper offloads to GPUs — is fully pluggable: the user
supplies ``make_lin_solver(gamma, t, u)`` returning a callable that
solves ``(M + gamma * K) x = r`` where ``K ~= -dF/du``.  The
integrator calls it only when the Newton iteration demands a refresh
(gamma drift or convergence failure), mirroring CVODE's setup/solve
split.  High-level control flow stays on the host; all vector math
goes through the NVector interface, so device-backed vectors never
migrate (§4.10.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.guard.errors import StagnationError
from repro.guard.sentinels import WrmsTrendProbe, default_monitor
from repro.util.timing import TimerRegistry

RhsFn = Callable[[float, np.ndarray], np.ndarray]
LinSolveFn = Callable[[np.ndarray], np.ndarray]
MakeLinSolverFn = Callable[[float, float, np.ndarray], LinSolveFn]
MassFn = Callable[[np.ndarray], np.ndarray]


@dataclass
class BdfOptions:
    rtol: float = 1e-6
    atol: float = 1e-9
    max_order: int = 2
    h0: Optional[float] = None
    h_min: float = 1e-14
    h_max: float = np.inf
    max_steps: int = 100_000
    newton_tol: float = 0.1   # Newton stops when update WRMS < this
    max_newton: int = 4
    #: rebuild the linear solver when gamma changes by this fraction
    gamma_drift: float = 0.3

    def __post_init__(self) -> None:
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_order not in (1, 2):
            raise ValueError("max_order must be 1 or 2 (see module docs)")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class StepStats:
    """CVODE-style cumulative counters."""

    n_steps: int = 0
    n_rhs: int = 0
    n_newton: int = 0
    n_lin_setups: int = 0
    n_err_fails: int = 0
    n_newton_fails: int = 0


class BdfIntegrator:
    """Adaptive BDF(1,2) with modified Newton.

    Parameters
    ----------
    rhs:
        ``F(t, u) -> du`` (the spatial right-hand side; *not*
        pre-multiplied by ``M^{-1}``).
    make_lin_solver:
        ``(gamma, t, u) -> solve`` where ``solve(r)`` returns ``x``
        with ``(M + gamma K) x = r``.  For identity mass and
        ``K = -dF/du`` this is the standard CVODE Newton matrix.
    mass_mult:
        ``v -> M v``; identity when omitted.
    timers:
        Optional phase timers; the integrator attributes time to
        ``"formulation"`` (history/predictor/rhs work) and relies on
        the user's linear solver to record its own phases — this is
        how Fig 8's breakdown is measured.
    """

    def __init__(
        self,
        rhs: RhsFn,
        make_lin_solver: MakeLinSolverFn,
        mass_mult: Optional[MassFn] = None,
        options: Optional[BdfOptions] = None,
        timers: Optional[TimerRegistry] = None,
    ):
        self.rhs = rhs
        self.make_lin_solver = make_lin_solver
        self.mass_mult = mass_mult if mass_mult is not None else (lambda v: v)
        self.opts = options if options is not None else BdfOptions()
        self.stats = StepStats()
        self.timers = timers if timers is not None else TimerRegistry()

    # ------------------------------------------------------------------

    def _weights(self, u: np.ndarray) -> np.ndarray:
        return 1.0 / (self.opts.rtol * np.abs(u) + self.opts.atol)

    @staticmethod
    def _wrms(v: np.ndarray, w: np.ndarray) -> float:
        if v.size == 0:
            return 0.0
        return float(np.sqrt(np.mean((v * w) ** 2)))

    def _initial_step(self, t0: float, u0: np.ndarray, t1: float) -> float:
        if self.opts.h0 is not None:
            return min(self.opts.h0, t1 - t0)
        f0 = self.rhs(t0, u0)
        self.stats.n_rhs += 1
        w = self._weights(u0)
        d0 = self._wrms(u0, w)
        d1 = self._wrms(f0, w)
        if d0 < 1e-5 or d1 < 1e-5:
            h = 1e-6 * (t1 - t0)
        else:
            h = 0.01 * d0 / d1
        return float(min(h, t1 - t0, self.opts.h_max))

    # ------------------------------------------------------------------

    def integrate(
        self,
        t0: float,
        u0: np.ndarray,
        t_end: float,
        t_eval: Optional[np.ndarray] = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Integrate from *t0* to *t_end*.

        Returns ``(times, states)`` where states has one row per
        output time.  ``t_eval`` defaults to ``[t_end]``; each output
        time is hit exactly (the step is clipped).
        """
        if t_end <= t0:
            raise ValueError("t_end must exceed t0")
        u0 = np.asarray(u0, dtype=np.float64)
        outputs = (
            np.asarray(t_eval, dtype=np.float64)
            if t_eval is not None
            else np.array([t_end])
        )
        if outputs.ndim != 1 or outputs.size == 0:
            raise ValueError("t_eval must be a non-empty 1D array")
        if np.any(outputs <= t0) or np.any(outputs > t_end) or np.any(
            np.diff(outputs) <= 0
        ):
            raise ValueError("t_eval must be increasing in (t0, t_end]")

        # numerical-health sentinels, armed per integrate under
        # REPRO_GUARD and absent when guards are off
        monitor = default_monitor("ode.bdf")
        probe = None
        if monitor is not None:
            probe = WrmsTrendProbe(where="ode.bdf")
            monitor.check_array(u0, "u0")

        t = t0
        u_nm1 = u0.copy()        # u_{n-1}
        u_nm2: Optional[np.ndarray] = None
        h_prev = 0.0
        h = self._initial_step(t0, u0, float(outputs[0]))
        h = max(h, self.opts.h_min)
        order = 1
        gamma_built = None
        lin_solve: Optional[LinSolveFn] = None

        out_times: List[float] = []
        out_states: List[np.ndarray] = []
        next_out = 0

        for _ in range(self.opts.max_steps):
            if next_out >= outputs.size:
                break
            target = float(outputs[next_out])
            h = min(h, target - t)
            h = max(h, self.opts.h_min)

            # --- BDF coefficients -------------------------------------
            if order == 1 or u_nm2 is None:
                alpha0, alpha1, alpha2 = 1.0, -1.0, 0.0
                k_order = 1
            else:
                rho = h / h_prev
                alpha0 = (1 + 2 * rho) / (1 + rho)
                alpha1 = -(1 + rho)
                alpha2 = rho * rho / (1 + rho)
                k_order = 2

            t_new = t + h
            # predictor: linear extrapolation through history whenever
            # there is any (at order 1 too, so the error estimate below
            # is O(h^2), not O(h)); the first step has none
            if u_nm2 is None:
                u_pred = u_nm1.copy()
            else:
                rho = h / h_prev
                u_pred = (1 + rho) * u_nm1 - rho * u_nm2

            gamma = h / alpha0
            if (
                lin_solve is None
                or gamma_built is None
                or abs(gamma - gamma_built) > self.opts.gamma_drift * gamma_built
            ):
                lin_solve = self.make_lin_solver(gamma, t_new, u_pred)
                gamma_built = gamma
                self.stats.n_lin_setups += 1

            # --- Newton iteration -------------------------------------
            u_new = u_pred.copy()
            w = self._weights(u_nm1)
            converged = False
            for _newton in range(self.opts.max_newton):
                f = self.rhs(t_new, u_new)
                self.stats.n_rhs += 1
                self.stats.n_newton += 1
                hist = alpha0 * u_new + alpha1 * u_nm1
                if k_order == 2 and u_nm2 is not None:
                    hist += alpha2 * u_nm2
                g = self.mass_mult(hist) - h * f
                delta = lin_solve(-g / alpha0)
                u_new += delta
                if self._wrms(delta, w) < self.opts.newton_tol:
                    converged = True
                    break
            if not converged:
                self.stats.n_newton_fails += 1
                if probe is not None:
                    # a Newton failure is a rejected step: feed the
                    # stuck-integrator probe a finite err > 1
                    probe.observe(2.0, h, t, accepted=False)
                h = max(h * 0.25, self.opts.h_min)
                lin_solve = None  # force a fresh setup
                continue
            if monitor is not None:
                monitor.check_array(u_new, "BDF iterate",
                                    context={"t": t_new, "h": h})

            # --- local error estimate -----------------------------------
            est = (u_new - u_pred) / (k_order + 1.0)
            err = self._wrms(est, w)
            if err > 1.0:
                self.stats.n_err_fails += 1
                if probe is not None:
                    probe.observe(err, h, t, accepted=False)
                h = max(h * max(0.2, 0.9 * err ** (-1.0 / (k_order + 1))),
                        self.opts.h_min)
                if h <= self.opts.h_min and self.stats.n_err_fails > 50:
                    if monitor is not None:
                        raise StagnationError(
                            f"BDF step size underflow at t={t}: error "
                            "test keeps failing", where="ode.bdf",
                            context={"t": t, "h": h,
                                     "err_fails": self.stats.n_err_fails},
                        )
                    raise RuntimeError(
                        f"BDF step size underflow at t={t}: error test keeps failing"
                    )
                continue
            if probe is not None:
                probe.observe(err, h, t, accepted=True)

            # --- accept -------------------------------------------------
            self.stats.n_steps += 1
            u_nm2 = u_nm1
            u_nm1 = u_new
            h_prev = h
            t = t_new
            if order < self.opts.max_order:
                order += 1
            if abs(t - target) < 1e-12 * max(1.0, abs(target)):
                out_times.append(target)
                out_states.append(u_new.copy())
                next_out += 1
            # step growth
            factor = 0.9 * err ** (-1.0 / (k_order + 1)) if err > 0 else 2.0
            h = min(h * min(max(factor, 0.2), 2.5), self.opts.h_max)
        else:
            if monitor is not None:
                raise StagnationError(
                    f"max_steps={self.opts.max_steps} exceeded at t={t}",
                    where="ode.bdf",
                    context={"t": t, "max_steps": self.opts.max_steps},
                )
            raise RuntimeError(
                f"max_steps={self.opts.max_steps} exceeded at t={t}"
            )

        return np.array(out_times), np.array(out_states)
