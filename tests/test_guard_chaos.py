"""Chaos matrix: FaultInjector x sentinel trips.

The acceptance contract of the guard layer:

- **bit-exact when healthy** — with guards off, and with guards on
  for a *healthy* problem, every instrumented path produces
  byte-identical results to the uninstrumented computation;
- **typed errors, never raw ones** — a sentinel trip reaches the
  caller as a counted, typed :class:`NumericalHealthError`, never as
  a raw ZeroDivisionError/ValueError/RuntimeError;
- **degraded progress under a fault storm** — an open breaker
  degrades its consumer (admission sheds, a MuMMI campaign serves the
  cycle from its surrogate), deterministically, instead of collapsing.
"""

import numpy as np
import pytest

from repro.guard import (
    AdmissionController,
    CircuitBreaker,
    NumericalHealthError,
    guard_override,
)
from repro.resilience.faults import FaultInjector
from repro.solvers.csr import CsrMatrix


def lap1d(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = 2.0
        if i:
            a[i, i - 1] = a[i - 1, i] = -1.0
    return a


def decay_rhs(t, u):
    return -u


def decay_lin(gamma, t, u):
    return lambda r: r / (1.0 + gamma)


# ---------------------------------------------------------------------------
# bit-exactness: guards off == guards on when nothing trips
# ---------------------------------------------------------------------------


class TestBitExactWhenHealthy:
    def test_pcg_identical(self):
        from repro.solvers.krylov import pcg

        a = CsrMatrix(lap1d(48))
        b = np.sin(np.arange(48))
        with guard_override("off"):
            x_off, info_off = pcg(a, b, tol=1e-10, max_iter=500)
        with guard_override("on"):
            x_on, info_on = pcg(a, b, tol=1e-10, max_iter=500)
        assert np.array_equal(x_off, x_on)
        assert info_off.iterations == info_on.iterations
        assert info_off.residual_norms == info_on.residual_norms

    def test_amg_identical(self):
        from repro.solvers.boomeramg import BoomerAMG

        a = CsrMatrix(lap1d(96))
        b = np.cos(np.arange(96))

        def solve():
            amg = BoomerAMG()
            amg.setup(a)
            return amg.solve(b, tol=1e-10, max_iter=60)

        with guard_override("off"):
            x_off, _ = solve()
        with guard_override("on"):
            x_on, _ = solve()
        assert np.array_equal(x_off, x_on)

    def test_bdf_identical(self):
        from repro.ode.bdf import BdfIntegrator

        def run():
            return BdfIntegrator(decay_rhs, decay_lin).integrate(
                0.0, np.array([1.0, 2.0]), 1.0
            )

        with guard_override("off"):
            t_off, u_off = run()
        with guard_override("on"):
            t_on, u_on = run()
        assert np.array_equal(t_off, t_on)
        assert np.array_equal(u_off, u_on)

    def test_ddcmd_trajectory_identical(self):
        from repro.md.ddcmd import DdcMD
        from repro.md.particles import ParticleSystem, PeriodicBox
        from repro.md.potentials import LennardJones, PairProcessor

        def run():
            box = PeriodicBox((6.0,) * 3)
            ps = ParticleSystem.random_gas(
                48, box, temperature=0.5, seed=4, min_separation=1.0
            )
            sim = DdcMD(ps, PairProcessor(LennardJones()), dt=0.002)
            sim.run(40)
            return ps.x.copy(), ps.v.copy()

        with guard_override("off"):
            x_off, v_off = run()
        with guard_override("on"):
            x_on, v_on = run()
        assert np.array_equal(x_off, x_on)
        assert np.array_equal(v_off, v_on)

    def test_ionmodel_identical(self):
        from repro.cardioid.ionmodels import HodgkinHuxleyModel

        def run():
            model = HodgkinHuxleyModel(16)
            stim = np.full(16, 10.0)
            for _ in range(300):
                model.step_reaction(0.01, i_stim=stim)
            return model.state()

        with guard_override("off"):
            s_off = run()
        with guard_override("on"):
            s_on = run()
        assert np.array_equal(s_off, s_on)

    def test_sched_result_identical(self):
        from repro.sched.policies import Fcfs
        from repro.sched.simulator import ClusterSimulator, Job

        jobs = [Job(job_id=i, arrival=float(i), service=5.0)
                for i in range(20)]

        def run():
            fi = FaultInjector(mtbf=30.0, seed=9)
            return ClusterSimulator(3).run(jobs, Fcfs(),
                                           fault_injector=fi)

        with guard_override("off"):
            r_off = run()
        with guard_override("on"):
            r_on = run()
        assert r_off == r_on

    def test_mummi_campaign_identical(self):
        from repro.workflow.mummi import MummiCampaign

        def run():
            fi = FaultInjector(mtbf=200.0, seed=1)
            camp = MummiCampaign(n_gpus=4, jobs_per_cycle=6,
                                 fault_injector=fi, seed=5)
            camp.run(3)
            return list(camp.explored), camp.wall_time

        with guard_override("off"):
            e_off = run()
        with guard_override("on"):
            e_on = run()
        assert e_off == e_on


# ---------------------------------------------------------------------------
# chaos matrix: seeded corruption -> typed error / shed, no crash
# ---------------------------------------------------------------------------


class TestBdfChaosMatrix:
    """Transient SDC storm on the RHS: the first k evaluations return
    garbage (a seeded burst), then the function heals — the model for
    a transiently corrupted device buffer feeding an integrator."""

    def _storm_rhs(self, seed):
        injector = FaultInjector(sdc_per_step=1.0, seed=seed)
        k_bad = 1 + int(injector.rng.integers(3))  # 1..3 bad calls
        calls = {"n": 0}

        def rhs(t, u):
            calls["n"] += 1
            if calls["n"] <= k_bad:
                return np.full_like(u, np.nan)
            return -u

        return rhs

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_storm_served_by_order_drop_in_few_calls(self, seed):
        """The storm trips BDF(2) with a typed error; once it has
        passed, BDF(1) integrates the healed RHS: its linear predictor
        keeps the error estimate O(h^2), so both attempts together take
        under 2,000 RHS calls.  (A constant predictor made order 1
        exhaust ``max_steps``: 600,000 calls.)"""
        from repro.ode.bdf import BdfIntegrator, BdfOptions

        rhs = self._storm_rhs(seed)
        calls = [0]

        def counted(t, u):
            calls[0] += 1
            return rhs(t, u)

        with guard_override("on"):
            with pytest.raises(NumericalHealthError):
                BdfIntegrator(counted, decay_lin).integrate(
                    0.0, np.array([1.0]), 1.0
                )
            _, us = BdfIntegrator(
                counted, decay_lin, options=BdfOptions(max_order=1)
            ).integrate(0.0, np.array([1.0]), 1.0)
        assert calls[0] < 2_000
        assert us[-1, 0] == pytest.approx(np.exp(-1.0), rel=1e-3)

    def test_sentinel_trips_are_counted(self):
        from repro.obs import metrics as obs_metrics
        from repro.ode.bdf import BdfIntegrator

        before = obs_metrics.counter("guard.sentinel.trips").value
        rhs = self._storm_rhs(0)
        with guard_override("on"):
            with pytest.raises(NumericalHealthError):
                BdfIntegrator(rhs, decay_lin).integrate(
                    0.0, np.array([1.0]), 1.0
                )
        assert obs_metrics.counter("guard.sentinel.trips").value > before


class TestMummiFaultStorm:
    """A campaign under a hard fault storm makes degraded progress —
    sheds and surrogate cycles, never an unhandled exception."""

    def _campaign(self, seed, mtbf=8.0):
        from repro.workflow.mummi import MummiCampaign

        br = CircuitBreaker(failure_threshold=2, recovery_time=2.0,
                            name=f"storm{seed}")
        adm = AdmissionController(max_queue=6, protect_priority=4)
        fi = FaultInjector(mtbf=mtbf, seed=seed)
        return MummiCampaign(
            n_gpus=4, jobs_per_cycle=8, seed=seed,
            fault_injector=fi, cycle_budget=5e4,
            breaker=br, admission=adm,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_storm_campaign_survives(self, seed):
        with guard_override("on"):
            camp = self._campaign(seed)
            camp.run(6)  # must not raise
        assert camp.cycles_done == 6
        assert len(camp.rungs_served) == 6
        assert set(camp.rungs_served) <= {"micro-md", "surrogate"}
        # the storm left a trace: failures, sheds, or degraded cycles
        assert (camp.failures > 0 or camp.jobs_shed > 0
                or "surrogate" in camp.rungs_served)
        # every cycle still delivered its candidates
        assert len(camp.results) == 6 * 8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_storm_outcome_deterministic(self, seed):
        def go():
            with guard_override("on"):
                camp = self._campaign(seed)
                camp.run(6)
            return (camp.rungs_served, camp.jobs_shed, camp.failures,
                    list(camp.explored))

        assert go() == go()

    def test_goodput_accounting_under_shedding(self):
        with guard_override("on"):
            camp = self._campaign(0, mtbf=5.0)
            m = camp.run_cycle()
        assert 0.0 <= m["goodput"] <= 1.0
        assert m["shed"] == float(camp.jobs_shed)
        # shedding + failures cannot create goodput out of thin air
        assert m["goodput"] <= m["utilization"] + 1e-12

    def test_calm_campaign_all_full_fidelity(self):
        from repro.workflow.mummi import MummiCampaign

        with guard_override("on"):
            camp = MummiCampaign(
                n_gpus=8, jobs_per_cycle=4, seed=3,
                cycle_budget=1e12,
                breaker=CircuitBreaker(failure_threshold=2,
                                       recovery_time=2.0, name="calm"),
                admission=AdmissionController(),
            )
            camp.run(4)
        assert camp.rungs_served == ["micro-md"] * 4
        assert camp.jobs_shed == 0
        assert camp.cycles_over_budget == 0


class TestNeverUnhandled:
    """The full matrix in one sweep: for every (subsystem, seed) the
    armed guard layer resolves the scenario as a result, a shed
    decision, or a typed :class:`NumericalHealthError`, and never
    leaks a raw ZeroDivisionError/ValueError/RuntimeError."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matrix(self, seed):
        from repro.ode.bdf import BdfIntegrator
        from repro.solvers.boomeramg import BoomerAMG

        outcomes = []
        with guard_override("on"):
            # AMG with a seeded SDC spike
            b = np.ones(32)
            inj = FaultInjector(sdc_per_step=1.0, sdc_magnitude=1e4,
                                seed=seed)
            b[int(inj.rng.integers(32))] += inj.sdc_magnitude
            try:
                amg = BoomerAMG()
                amg.setup(CsrMatrix(lap1d(32)))
                _, info = amg.solve(b, max_iter=100)
                outcomes.append(("amg", info.converged))
            except NumericalHealthError as e:
                outcomes.append(("amg", type(e).__name__))
            # BDF with a transient NaN storm
            calls = {"n": 0}
            k_bad = 1 + seed % 3

            def rhs(t, u):
                calls["n"] += 1
                if calls["n"] <= k_bad:
                    return np.full_like(u, np.nan)
                return -u

            try:
                _, u = BdfIntegrator(rhs, decay_lin).integrate(
                    0.0, np.array([1.0]), 1.0
                )
                outcomes.append(("bdf", float(u[-1, 0])))
            except NumericalHealthError as e:
                outcomes.append(("bdf", type(e).__name__))
            # the scheduler under storm + shedding
            from repro.sched.policies import Fcfs
            from repro.sched.simulator import ClusterSimulator, Job

            jobs = [Job(job_id=i, arrival=0.0, service=10.0,
                        deadline=25.0, priority=i % 3)
                    for i in range(10)]
            fi = FaultInjector(mtbf=6.0, seed=seed)
            res = ClusterSimulator(2).run(
                jobs, Fcfs(), fault_injector=fi,
                admission=AdmissionController(),
            )
            assert res.completed + res.shed == 10
            outcomes.append(("sched", res.shed))
        assert len(outcomes) == 3
