"""Chaos matrix: FaultInjector x sentinel trips x fallback chains.

The acceptance contract of the guard layer:

- **bit-exact when no rung fires** — with guards disabled (and with
  guards strict on a *healthy* problem) every instrumented path
  produces byte-identical results to the uninstrumented computation;
- **deterministic rung selection when one does** — replaying a seeded
  chaos scenario serves the request from the same rung every time;
- **never an unhandled exception** — a campaign under a fault storm
  ends every scenario in a recorded fallback rung or a shed decision,
  not a stack trace.
"""

import numpy as np
import pytest

from repro.guard import (
    AdmissionController,
    CircuitBreaker,
    FallbackExhaustedError,
    NumericalHealthError,
    amg_fallback_chain,
    bdf_fallback_chain,
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
# bit-exactness: guards off == guards strict when nothing trips
# ---------------------------------------------------------------------------


class TestBitExactWhenHealthy:
    def test_pcg_identical(self):
        from repro.solvers.krylov import pcg

        a = CsrMatrix(lap1d(48))
        b = np.sin(np.arange(48))
        with guard_override("off"):
            x_off, info_off = pcg(a, b, tol=1e-10, max_iter=500)
        with guard_override("strict"):
            x_on, info_on = pcg(a, b, tol=1e-10, max_iter=500)
        assert np.array_equal(x_off, x_on)
        assert info_off.iterations == info_on.iterations
        assert info_off.residual_norms == info_on.residual_norms

    def test_gmres_identical(self):
        from repro.solvers.krylov import gmres

        n = 40
        rng = np.random.default_rng(0)
        a = CsrMatrix(lap1d(n) + 0.1 * np.diag(rng.random(n)))
        b = rng.normal(size=n)
        with guard_override("off"):
            x_off, _ = gmres(a, b, tol=1e-10)
        with guard_override("strict"):
            x_on, _ = gmres(a, b, tol=1e-10)
        assert np.array_equal(x_off, x_on)

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
        with guard_override("strict"):
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
        with guard_override("strict"):
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
        with guard_override("strict"):
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
        with guard_override("strict"):
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
        with guard_override("strict"):
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
        with guard_override("strict"):
            e_on = run()
        assert e_off == e_on


# ---------------------------------------------------------------------------
# chaos matrix: seeded corruption -> deterministic rung / shed, no crash
# ---------------------------------------------------------------------------


AMG_SCENARIOS = ["healthy", "sdc_spike", "overflow_b"]


class TestAmgChaosMatrix:
    def _scenario_b(self, scenario, seed):
        n = 64
        b = np.sin(0.1 * np.arange(n) + seed)
        injector = FaultInjector(sdc_per_step=1.0, sdc_magnitude=1e4,
                                 seed=seed)
        if scenario == "sdc_spike":
            # a silent data corruption in the RHS: large but finite,
            # every rung can still solve it
            k = int(injector.rng.integers(n))
            b[k] += injector.sdc_magnitude
        elif scenario == "overflow_b":
            # non-physical scale: AMG/PCG sentinels trip their
            # magnitude bound; only the dense rescue survives
            b *= 1e150
        return b

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scenario", AMG_SCENARIOS)
    def test_every_scenario_ends_in_a_rung(self, scenario, seed):
        a = lap1d(64)
        b = self._scenario_b(scenario, seed)
        with guard_override("strict"):
            chain = amg_fallback_chain(a, tol=1e-8, max_iter=200)
            out = chain.run(b)  # must not raise
        assert out.rung_name in [r.name for r in chain.rungs]
        assert chain.served == [out.rung_name]
        # the served rung really solved the system
        res = np.linalg.norm(lap1d(64) @ out.value - b)
        assert res <= 1e-6 * max(1.0, float(np.linalg.norm(b)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scenario", AMG_SCENARIOS)
    def test_rung_selection_deterministic(self, scenario, seed):
        a = lap1d(64)

        def go():
            b = self._scenario_b(scenario, seed)
            with guard_override("strict"):
                chain = amg_fallback_chain(a, tol=1e-8, max_iter=200)
                out = chain.run(b)
            return out.rung_name, out.value

        r1, x1 = go()
        r2, x2 = go()
        assert r1 == r2
        assert np.array_equal(x1, x2)

    def test_healthy_serves_first_rung_bit_exact(self):
        a = lap1d(64)
        b = self._scenario_b("healthy", 0)
        with guard_override("strict"):
            chain = amg_fallback_chain(a, tol=1e-8, max_iter=200)
            out = chain.run(b)
        assert out.rung == 0  # no degradation on a healthy system
        # and the chain's rung-0 answer is exactly the plain solver's
        from repro.solvers.boomeramg import BoomerAMG

        with guard_override("off"):
            amg = BoomerAMG(smoother="l1-jacobi", pre_sweeps=1,
                            post_sweeps=1)
            amg.setup(CsrMatrix(a))
            x_plain, _ = amg.solve(b, tol=1e-8, max_iter=200)
        assert np.array_equal(out.value, x_plain)

    def test_overflow_b_escalates_to_dense(self):
        a = lap1d(64)
        b = self._scenario_b("overflow_b", 1)
        with guard_override("strict"):
            chain = amg_fallback_chain(a, tol=1e-8, max_iter=200)
            out = chain.run(b)
        assert out.rung_name == "dense-direct"
        assert len(out.trips) == 3  # every earlier rung tripped

    def test_nan_b_exhausts_with_typed_error(self):
        a = lap1d(16)
        b = np.full(16, np.nan)
        with guard_override("strict"):
            chain = amg_fallback_chain(a)
            with pytest.raises(FallbackExhaustedError) as exc:
                chain.run(b)
        assert len(exc.value.errors) == len(chain.rungs)


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

        return rhs, k_bad

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_storm_ends_in_a_rung(self, seed):
        rhs, k_bad = self._storm_rhs(seed)
        with guard_override("strict"):
            chain = bdf_fallback_chain(rhs, decay_lin)
            out = chain.run(0.0, np.array([1.0]), 1.0)
        # some rung served, and its answer is the healed integration
        assert out.rung_name in [r.name for r in chain.rungs]
        assert np.all(np.isfinite(out.value[1]))
        assert out.value[1][-1] == pytest.approx(np.exp(-1.0), rel=1e-3)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_rung_selection_deterministic(self, seed):
        def go():
            rhs, _ = self._storm_rhs(seed)
            with guard_override("strict"):
                chain = bdf_fallback_chain(rhs, decay_lin)
                out = chain.run(0.0, np.array([1.0]), 1.0)
            return out.rung_name, out.value[1][-1]

        r1, v1 = go()
        r2, v2 = go()
        assert r1 == r2
        assert v1 == v2

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_storm_served_by_order_drop_in_few_calls(self, seed):
        """Once the storm has passed, the order-1 rung integrates the
        healed RHS: its linear predictor keeps the error estimate
        O(h^2), so it serves in under 2,000 RHS calls.  (A constant
        predictor made it, and then the step-halving rung, exhaust
        ``max_steps``: 600,000 calls before ``erk-rescue`` served.)"""
        rhs, _ = self._storm_rhs(seed)
        calls = [0]

        def counted(t, u):
            calls[0] += 1
            return rhs(t, u)

        with guard_override("strict"):
            out = bdf_fallback_chain(counted, decay_lin).run(
                0.0, np.array([1.0]), 1.0)
        assert out.rung_name == "bdf-order-drop"
        assert calls[0] < 2_000
        assert out.value[1][-1] == pytest.approx(np.exp(-1.0), rel=1e-3)

    def test_healthy_serves_bdf2_bit_exact(self):
        from repro.ode.bdf import BdfIntegrator

        with guard_override("strict"):
            chain = bdf_fallback_chain(decay_rhs, decay_lin)
            out = chain.run(0.0, np.array([1.0]), 1.0)
        assert out.rung_name == "bdf-2"
        with guard_override("off"):
            t_plain, u_plain = BdfIntegrator(
                decay_rhs, decay_lin
            ).integrate(0.0, np.array([1.0]), 1.0)
        assert np.array_equal(out.value[1], u_plain)

    def test_sentinel_trips_are_counted(self):
        from repro.obs import metrics as obs_metrics

        before = obs_metrics.counter("guard.sentinel.trips").value
        rhs, k_bad = self._storm_rhs(0)
        with guard_override("strict"):
            chain = bdf_fallback_chain(rhs, decay_lin)
            out = chain.run(0.0, np.array([1.0]), 1.0)
        if out.degraded:
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
        with guard_override("strict"):
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
            with guard_override("strict"):
                camp = self._campaign(seed)
                camp.run(6)
            return (camp.rungs_served, camp.jobs_shed, camp.failures,
                    list(camp.explored))

        assert go() == go()

    def test_goodput_accounting_under_shedding(self):
        with guard_override("strict"):
            camp = self._campaign(0, mtbf=5.0)
            m = camp.run_cycle()
        assert 0.0 <= m["goodput"] <= 1.0
        assert m["shed"] == float(camp.jobs_shed)
        # shedding + failures cannot create goodput out of thin air
        assert m["goodput"] <= m["utilization"] + 1e-12

    def test_calm_campaign_all_full_fidelity(self):
        from repro.workflow.mummi import MummiCampaign

        with guard_override("strict"):
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
    strict-mode guard layer resolves the scenario via a typed guard
    outcome — a served rung, a shed decision, or a typed exhaustion —
    and never leaks a raw ZeroDivisionError/ValueError/RuntimeError."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matrix(self, seed):
        outcomes = []
        with guard_override("strict"):
            # AMG with a seeded SDC spike
            a = lap1d(32)
            b = np.ones(32)
            inj = FaultInjector(sdc_per_step=1.0, sdc_magnitude=1e4,
                                seed=seed)
            b[int(inj.rng.integers(32))] += inj.sdc_magnitude
            try:
                out = amg_fallback_chain(a, max_iter=100).run(b)
                outcomes.append(("amg", out.rung_name))
            except (FallbackExhaustedError, NumericalHealthError) as e:
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
                out = bdf_fallback_chain(rhs, decay_lin).run(
                    0.0, np.array([1.0]), 1.0
                )
                outcomes.append(("bdf", out.rung_name))
            except (FallbackExhaustedError, NumericalHealthError) as e:
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
            assert res.completed + res.dropped + res.shed == 10
            outcomes.append(("sched", res.shed))
        assert len(outcomes) == 3
