"""Unit tests for the guard layer: sentinels, fallback chains,
deadline/shedding primitives, and the hardened retry policies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.guard import (
    AdmissionController,
    BreakdownError,
    CircuitBreaker,
    DeadlineExceededError,
    DivergedError,
    FallbackChain,
    FallbackExhaustedError,
    GuardError,
    HealthMonitor,
    NonFiniteError,
    NumericalHealthError,
    OverflowHealthError,
    ResidualTrendProbe,
    StagnationError,
    WrmsTrendProbe,
    guard_enabled,
    guard_mode,
    guard_override,
    guard_strict,
)
from repro.guard.sentinels import default_monitor
from repro.obs import metrics as obs_metrics


def counter_value(name):
    return obs_metrics.counter(name).value


class TestGuardConfig:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_GUARD", raising=False)
        assert guard_mode() == "off"
        assert not guard_enabled()
        assert not guard_strict()

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", "none"])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_GUARD", value)
        assert guard_mode() == "off"

    @pytest.mark.parametrize("value", ["on", "record", "warn", "ON"])
    def test_on_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_GUARD", value)
        assert guard_mode() == "on"
        assert guard_enabled()
        assert not guard_strict()

    @pytest.mark.parametrize("value", ["strict", "1", "anything"])
    def test_strict_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_GUARD", value)
        assert guard_mode() == "strict"
        assert guard_enabled()
        assert guard_strict()

    def test_override_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_GUARD", raising=False)
        with guard_override("strict"):
            assert guard_strict()
        assert guard_mode() == "off"

    def test_default_monitor_gated(self, monkeypatch):
        monkeypatch.delenv("REPRO_GUARD", raising=False)
        assert default_monitor("x") is None
        with guard_override("on"):
            assert isinstance(default_monitor("x"), HealthMonitor)


class TestHealthMonitor:
    def test_clean_pass(self):
        mon = HealthMonitor(where="t")
        mon.check_array(np.ones(5), "state")
        mon.check_value(3.0)
        assert mon.checks == 2

    def test_nan_raises_with_context(self):
        mon = HealthMonitor(where="t.nan")
        arr = np.ones(5)
        arr[2] = np.nan
        before = counter_value("guard.sentinel.trips")
        with pytest.raises(NonFiniteError) as exc:
            mon.check_array(arr, "iterate", context={"iteration": 7})
        assert exc.value.where == "t.nan"
        assert exc.value.context["iteration"] == 7
        assert exc.value.context["n_bad"] == 1
        assert counter_value("guard.sentinel.trips") == before + 1
        assert counter_value("guard.sentinel.trips_at.t.nan") >= 1

    def test_overflow_raises(self):
        mon = HealthMonitor(where="t", magnitude_bound=1e3)
        with pytest.raises(OverflowHealthError):
            mon.check_array(np.array([1.0, 5e3]))
        with pytest.raises(OverflowHealthError):
            mon.check_value(-2e3)

    def test_error_hierarchy(self):
        assert issubclass(NonFiniteError, NumericalHealthError)
        assert issubclass(StagnationError, NumericalHealthError)
        assert issubclass(NumericalHealthError, GuardError)
        assert issubclass(GuardError, RuntimeError)

    def test_empty_array_ok(self):
        HealthMonitor().check_array(np.empty(0))

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            HealthMonitor(magnitude_bound=0.0)


class TestResidualTrendProbe:
    def test_converging_series_ok(self):
        probe = ResidualTrendProbe(window=5)
        r = 1.0
        for i in range(50):
            probe.observe(r, iteration=i)
            r *= 0.5

    def test_divergence_trips(self):
        probe = ResidualTrendProbe(diverge_ratio=10.0)
        probe.observe(1.0)
        probe.observe(0.1)
        with pytest.raises(DivergedError) as exc:
            probe.observe(5.0)
        assert exc.value.context["best"] == pytest.approx(0.1)

    def test_stagnation_trips(self):
        probe = ResidualTrendProbe(window=4, stall_ratio=0.9)
        with pytest.raises(StagnationError):
            for i in range(20):
                probe.observe(1.0, iteration=i)

    def test_nonfinite_trips(self):
        probe = ResidualTrendProbe()
        with pytest.raises(NonFiniteError):
            probe.observe(float("nan"))


class TestWrmsTrendProbe:
    def test_accept_resets_rejects(self):
        probe = WrmsTrendProbe(max_consecutive_rejects=3)
        for _ in range(10):
            probe.observe(2.0, 0.1, 0.0, accepted=False)
            probe.observe(2.0, 0.1, 0.0, accepted=False)
            probe.observe(0.5, 0.1, 0.0, accepted=True)

    def test_consecutive_rejects_trip(self):
        probe = WrmsTrendProbe(max_consecutive_rejects=3)
        probe.observe(2.0, 0.1, 0.0, accepted=False)
        probe.observe(2.0, 0.05, 0.0, accepted=False)
        with pytest.raises(StagnationError) as exc:
            probe.observe(2.0, 0.025, 0.0, accepted=False)
        assert exc.value.context["rejects"] == 3

    def test_first_huge_error_tolerated(self):
        # startup transient: one massive estimate just cuts h
        probe = WrmsTrendProbe(diverge_err=1e3)
        probe.observe(1e9, 0.1, 0.0, accepted=False)
        with pytest.raises(DivergedError):
            probe.observe(1e9, 0.05, 0.0, accepted=False)

    def test_nonfinite_trips(self):
        probe = WrmsTrendProbe()
        with pytest.raises(NonFiniteError):
            probe.observe(float("inf"), 0.1, 0.0, accepted=True)


class TestFallbackChain:
    def test_healthy_serves_first_rung(self):
        chain = FallbackChain("t").add("a", lambda: 1).add("b", lambda: 2)
        out = chain.run()
        assert out.value == 1
        assert out.rung == 0
        assert out.rung_name == "a"
        assert not out.degraded
        assert chain.served == ["a"]

    def test_escalation_records_trips(self):
        def bad():
            raise NonFiniteError("boom", where="t")

        chain = FallbackChain("t2").add("a", bad).add("b", lambda: 2)
        out = chain.run()
        assert out.value == 2
        assert out.degraded
        assert len(out.trips) == 1
        assert counter_value("guard.fallback.t2.trips.a") == 1
        assert counter_value("guard.fallback.t2.served.b") == 1
        assert counter_value("guard.fallback.t2.degraded") == 1

    def test_deadline_error_escalates(self):
        def slow():
            raise DeadlineExceededError("late", where="t")

        chain = FallbackChain("t3").add("a", slow).add("b", lambda: "ok")
        assert chain.run().value == "ok"

    def test_exhaustion_raises_typed(self):
        def bad():
            raise StagnationError("stuck", where="t")

        chain = FallbackChain("t4").add("a", bad).add("b", bad)
        with pytest.raises(FallbackExhaustedError) as exc:
            chain.run()
        assert len(exc.value.errors) == 2

    def test_non_health_errors_propagate(self):
        def typo():
            raise KeyError("not a health error")

        chain = FallbackChain("t5").add("a", typo).add("b", lambda: 1)
        with pytest.raises(KeyError):
            chain.run()

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            FallbackChain("empty").run()

    def test_args_passed_through(self):
        chain = FallbackChain("t6").add("a", lambda x, k=0: x + k)
        assert chain.run(2, k=3).value == 5


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        br = CircuitBreaker(failure_threshold=2, recovery_time=5.0,
                            name="t_br")
        assert br.allow(0.0)
        br.record_failure(0.0)
        assert br.allow(0.1)      # one failure: still closed
        br.record_failure(0.2)
        assert br.state == "open"
        assert not br.allow(0.3)
        assert br.trips == 1

    def test_half_open_probe_and_close(self):
        br = CircuitBreaker(failure_threshold=1, recovery_time=1.0)
        br.record_failure(0.0)
        assert not br.allow(0.5)
        assert br.allow(1.5)            # half-open probe admitted
        assert br.state == "half-open"
        assert not br.allow(1.6)        # only one probe at a time
        br.record_success(1.7)
        assert br.state == "closed"
        assert br.allow(1.8)

    def test_half_open_failure_reopens(self):
        br = CircuitBreaker(failure_threshold=1, recovery_time=1.0)
        br.record_failure(0.0)
        assert br.allow(1.5)
        br.record_failure(1.6)
        assert br.state == "open"
        assert not br.allow(2.0)
        assert br.trips == 2

    def test_success_resets_consecutive(self):
        br = CircuitBreaker(failure_threshold=3)
        br.record_failure(0.0)
        br.record_failure(0.1)
        br.record_success(0.2)
        br.record_failure(0.3)
        br.record_failure(0.4)
        assert br.state == "closed"

    def test_checkpoint_roundtrip(self):
        br = CircuitBreaker(failure_threshold=1, recovery_time=1.0)
        br.record_failure(3.0)
        snap = br.checkpoint_state()
        br.record_success(10.0)
        br.restore_state(snap)
        assert br.state == "open"
        assert br.opened_at == 3.0

    def test_strict_require_raises(self):
        from repro.guard.errors import CircuitOpenError

        br = CircuitBreaker(failure_threshold=1, recovery_time=100.0)
        br.record_failure(0.0)
        with guard_override("strict"):
            with pytest.raises(CircuitOpenError):
                br.require(1.0)
        with guard_override("off"):
            br.require(1.0)  # non-strict: silent degradation


class _FakeJob:
    def __init__(self, service, priority=0, deadline=None):
        self.service = service
        self.priority = priority
        self.deadline = deadline


class TestAdmissionController:
    def test_admits_by_default(self):
        adm = AdmissionController()
        assert adm.admit(_FakeJob(1.0), now=0.0, queue_len=0,
                         n_running=0, n_gpus=4)
        assert adm.admitted == 1
        assert adm.shed_count == 0

    def test_sheds_unmeetable_deadline(self):
        adm = AdmissionController()
        before = counter_value("guard.shed.deadline_unmeetable")
        job = _FakeJob(10.0, deadline=5.0)
        assert not adm.admit(job, now=0.0, queue_len=0, n_running=0,
                             n_gpus=4)
        assert adm.shed_count == 1
        assert counter_value("guard.shed.deadline_unmeetable") == before + 1

    def test_sheds_on_backlog_estimate(self):
        adm = AdmissionController()
        # 8 queued jobs on 2 GPUs => ~4 service slots of wait
        job = _FakeJob(10.0, deadline=20.0)
        assert not adm.admit(job, now=0.0, queue_len=8, n_running=2,
                             n_gpus=2)
        adm2 = AdmissionController(backlog_estimate=False)
        assert adm2.admit(job, now=0.0, queue_len=8, n_running=2,
                          n_gpus=2)

    def test_queue_saturation_protects_priority(self):
        adm = AdmissionController(max_queue=2, protect_priority=5)
        low = _FakeJob(1.0, priority=1)
        high = _FakeJob(1.0, priority=9)
        assert not adm.admit(low, now=0.0, queue_len=2, n_running=0,
                             n_gpus=1)
        assert adm.admit(high, now=0.0, queue_len=2, n_running=0,
                         n_gpus=1)

    def test_breaker_open_sheds_low_priority(self):
        br = CircuitBreaker(failure_threshold=1, recovery_time=1e9)
        adm = AdmissionController(protect_priority=5, breaker=br)
        adm.record_failure(0.0)
        assert not adm.admit(_FakeJob(1.0, priority=0), now=1.0,
                             queue_len=0, n_running=0, n_gpus=1)
        assert adm.admit(_FakeJob(1.0, priority=9), now=1.0,
                         queue_len=0, n_running=0, n_gpus=1)

    def test_checkpoint_roundtrip(self):
        br = CircuitBreaker(failure_threshold=1)
        adm = AdmissionController(breaker=br)
        adm.admit(_FakeJob(1.0), now=0.0, queue_len=0, n_running=0,
                  n_gpus=1)
        adm.record_failure(1.0)
        snap = adm.checkpoint_state()
        adm.admit(_FakeJob(1.0), now=2.0, queue_len=0, n_running=0,
                  n_gpus=1)
        adm.record_success(3.0)
        adm.restore_state(snap)
        assert adm.admitted == 1
        assert br.state == "open"


class TestRetryHardening:
    def test_attempt_type_rejected(self):
        from repro.resilience.retry import (
            CappedRetry, ExponentialBackoff, ImmediateRetry,
        )

        for policy in (ImmediateRetry(), CappedRetry(),
                       ExponentialBackoff()):
            with pytest.raises(TypeError):
                policy.requeue_delay(True)
            with pytest.raises(TypeError):
                policy.requeue_delay(1.0)
            with pytest.raises(TypeError):
                policy.requeue_delay("1")
            with pytest.raises(ValueError):
                policy.requeue_delay(0)
            with pytest.raises(ValueError):
                policy.requeue_delay(-3)

    def test_backoff_never_overflows(self):
        import sys

        from repro.resilience.retry import ExponentialBackoff

        eb = ExponentialBackoff(base=1.0, factor=2.0,
                                max_retries=10_000)
        # 2.0 ** 1099 overflows a float; the policy must saturate
        d = eb.requeue_delay(1100)
        assert d == sys.float_info.max
        eb2 = ExponentialBackoff(base=1.0, factor=2.0, max_delay=60.0,
                                 max_retries=10_000)
        assert eb2.requeue_delay(1100) == 60.0
        assert eb2.requeue_delay(5000) == 60.0

    def test_backoff_regular_values_unchanged(self):
        from repro.resilience.retry import ExponentialBackoff

        eb = ExponentialBackoff(base=0.5, factor=2.0, max_delay=100.0)
        assert eb.requeue_delay(1) == 0.5
        assert eb.requeue_delay(3) == 2.0
        assert eb.requeue_delay(16) == 100.0
        assert eb.requeue_delay(17) is None

    def test_jitter_requires_injected_rng(self):
        from repro.resilience.retry import ExponentialBackoff

        with pytest.raises(ValueError):
            ExponentialBackoff(jitter=0.5)
        with pytest.raises(ValueError):
            ExponentialBackoff(jitter=1.5, rng=np.random.default_rng(0))

    def test_jitter_deterministic_and_bounded(self):
        from repro.resilience.retry import ExponentialBackoff

        def delays(seed):
            eb = ExponentialBackoff(base=1.0, factor=2.0, jitter=0.25,
                                    rng=np.random.default_rng(seed))
            return [eb.requeue_delay(a) for a in range(1, 9)]

        assert delays(7) == delays(7)
        for a, d in enumerate(delays(7), start=1):
            nominal = 2.0 ** (a - 1)
            assert 0.75 * nominal <= d <= 1.25 * nominal


class TestKrylovSentinels:
    def _spd(self, n=32):
        from repro.solvers.csr import CsrMatrix

        a = np.zeros((n, n))
        for i in range(n):
            a[i, i] = 2.0
            if i:
                a[i, i - 1] = a[i - 1, i] = -1.0
        return CsrMatrix(a)

    def test_pcg_nan_b_raises_strict(self):
        from repro.solvers.krylov import pcg

        a = self._spd()
        b = np.ones(a.n_rows)
        b[3] = np.nan
        with guard_override("strict"):
            with pytest.raises(NonFiniteError) as exc:
                pcg(a, b)
        assert exc.value.where == "solvers.pcg"

    def test_pcg_nan_b_legacy_off(self):
        from repro.solvers.krylov import pcg

        a = self._spd()
        b = np.ones(a.n_rows)
        b[3] = np.nan
        with guard_override("off"):
            x, info = pcg(a, b, max_iter=5)  # no raise: legacy path
        assert not info.converged

    def test_pcg_breakdown_has_iteration_context(self):
        from repro.solvers.csr import CsrMatrix
        from repro.solvers.krylov import pcg

        a = CsrMatrix(np.diag([1.0, -1.0]))  # indefinite: not SPD
        b = np.array([1.0, 1.0])
        with guard_override("strict"):
            with pytest.raises(BreakdownError) as exc:
                pcg(a, b)
        assert "iteration" in exc.value.context
        with guard_override("off"):
            x, info = pcg(a, b)  # legacy: stops quietly
        assert not info.converged

    def test_gmres_inf_b_raises_strict(self):
        from repro.solvers.krylov import gmres

        a = self._spd()
        b = np.full(a.n_rows, np.inf)
        with guard_override("strict"):
            with pytest.raises(NonFiniteError) as exc:
                gmres(a, b)
        assert exc.value.where == "solvers.gmres"
        with guard_override("off"):
            gmres(a, b, max_iter=3)  # legacy: no raise

    def test_probe_attaches_to_pcg(self):
        from repro.solvers.krylov import pcg

        a = self._spd()
        b = np.ones(a.n_rows)
        probe = ResidualTrendProbe(where="test.pcg", window=5,
                                   stall_ratio=0.5)
        # the 1D laplacian converges slower than 0.5**5 per 5 its
        with guard_override("strict"):
            with pytest.raises(StagnationError):
                pcg(a, b, tol=1e-14, max_iter=500, probe=probe)


class TestDdcmdSentinel:
    def _sim(self, dt=0.002, seed=1):
        from repro.md.ddcmd import DdcMD
        from repro.md.particles import ParticleSystem, PeriodicBox
        from repro.md.potentials import LennardJones, PairProcessor

        box = PeriodicBox((6.0,) * 3)
        ps = ParticleSystem.random_gas(64, box, temperature=0.5,
                                       seed=seed, min_separation=1.0)
        return DdcMD(ps, PairProcessor(LennardJones()), dt=dt)

    def test_unstable_dt_trips(self):
        sim = self._sim(dt=5.0)  # wildly unstable
        with guard_override("strict"):
            with pytest.raises(NumericalHealthError):
                for _ in range(50):
                    sim.step()

    def test_stable_run_clean(self):
        sim = self._sim()
        with guard_override("strict"):
            sim.run(20)

    def test_neighbor_invalidate_forces_rebuild(self):
        sim = self._sim()
        sim.run(5)
        builds = sim.nlist.builds
        sim.nlist.invalidate()
        sim.step()
        assert sim.nlist.builds == builds + 1

    def test_guarded_md_step_recovers_transient(self):
        from repro.guard import guarded_md_step

        sim = self._sim()
        sim.step()
        orig_step = sim.step
        state = {"failed": False}

        def flaky_step():
            if not state["failed"]:
                state["failed"] = True
                raise NonFiniteError("injected transient", where="test")
            orig_step()

        sim.step = flaky_step
        before = counter_value("guard.md.rejected_steps")
        out = guarded_md_step(sim)
        assert out.rung_name == "reject-rebuild"
        assert out.degraded
        assert counter_value("guard.md.rejected_steps") == before + 1

    def test_guarded_md_step_healthy_serves_plain(self):
        from repro.guard import guarded_md_step

        sim = self._sim()
        out = guarded_md_step(sim)
        assert out.rung_name == "step"
        assert not out.degraded


class TestIonModelSentinel:
    def test_nonphysical_voltage_trips(self):
        from repro.cardioid.ionmodels import HodgkinHuxleyModel

        model = HodgkinHuxleyModel(8)
        model.v = np.full(8, 1000.0)  # way outside +-500 mV
        with guard_override("strict"):
            with pytest.raises(NumericalHealthError):
                model.step_reaction(1.0)

    def test_normal_beat_clean(self):
        from repro.cardioid.ionmodels import HodgkinHuxleyModel

        model = HodgkinHuxleyModel(8)
        stim = np.full(8, 10.0)
        with guard_override("strict"):
            for _ in range(200):
                model.step_reaction(0.01, i_stim=stim)
        assert np.all(np.abs(model.v) < 500.0)

    def test_off_mode_no_raise(self):
        from repro.cardioid.ionmodels import HodgkinHuxleyModel

        model = HodgkinHuxleyModel(4)
        model.v = np.full(4, 1000.0)
        with guard_override("off"):
            model.step_reaction(1.0)  # legacy: garbage propagates


class TestSchedulerShedding:
    def _jobs(self, n=8, service=10.0, **kw):
        from repro.sched.simulator import Job

        return [Job(job_id=i, arrival=0.0, service=service, **kw)
                for i in range(n)]

    def test_no_admission_is_legacy(self):
        from repro.sched.policies import Fcfs
        from repro.sched.simulator import ClusterSimulator

        res = ClusterSimulator(2).run(self._jobs(), Fcfs())
        assert res.shed == 0
        assert res.completed == 8

    def test_deadline_sheds_lowest_value_work(self):
        from repro.sched.policies import Fcfs
        from repro.sched.simulator import ClusterSimulator, Job

        # 2 GPUs, 10s jobs, 15s deadline: only the first wave fits;
        # the backlog estimate sheds what cannot make it
        jobs = [Job(job_id=i, arrival=0.0, service=10.0, deadline=15.0)
                for i in range(8)]
        adm = AdmissionController()
        res = ClusterSimulator(2).run(jobs, Fcfs(), admission=adm)
        assert res.shed > 0
        assert res.completed + res.shed == 8
        assert res.makespan <= 15.0
        assert adm.shed_count == res.shed

    def test_requeue_past_deadline_is_shed(self):
        from repro.resilience.faults import FaultInjector
        from repro.sched.policies import Fcfs
        from repro.sched.simulator import ClusterSimulator, Job

        jobs = [Job(job_id=i, arrival=0.0, service=30.0, deadline=40.0)
                for i in range(4)]
        fi = FaultInjector(mtbf=15.0, seed=5)
        adm = AdmissionController()
        res = ClusterSimulator(4).run(jobs, Fcfs(), fault_injector=fi,
                                      admission=adm)
        # every job is resolved one way or another
        assert res.completed + res.dropped + res.shed == 4

    def test_breaker_feeds_from_fault_kills(self):
        from repro.resilience.faults import FaultInjector
        from repro.sched.policies import Fcfs
        from repro.sched.simulator import ClusterSimulator

        br = CircuitBreaker(failure_threshold=2, recovery_time=1e9,
                            name="sched_t")
        adm = AdmissionController(protect_priority=5, breaker=br)
        fi = FaultInjector(mtbf=4.0, seed=2)
        jobs = self._jobs(n=12, service=8.0, priority=0)
        res = ClusterSimulator(2).run(jobs, Fcfs(), fault_injector=fi,
                                      admission=adm)
        assert res.failures > 0
        if br.trips:  # storm tripped the breaker: later jobs shed
            assert res.shed > 0

    def test_shed_determinism(self):
        from repro.resilience.faults import FaultInjector
        from repro.sched.policies import Fcfs
        from repro.sched.simulator import ClusterSimulator

        def go():
            fi = FaultInjector(mtbf=10.0, seed=11)
            adm = AdmissionController(max_queue=3, protect_priority=1)
            jobs = [j for j in self._jobs(n=16, service=5.0,
                                          deadline=60.0)]
            return ClusterSimulator(2).run(jobs, Fcfs(),
                                           fault_injector=fi,
                                           admission=adm)

        assert go() == go()

    def test_validated_twin_run_with_admission(self, monkeypatch):
        from repro.resilience.faults import FaultInjector
        from repro.sched.policies import Sjf
        from repro.sched.simulator import ClusterSimulator

        monkeypatch.setenv("REPRO_OBS_VALIDATE", "raise")
        fi = FaultInjector(mtbf=20.0, seed=3)
        adm = AdmissionController()
        jobs = self._jobs(n=10, service=6.0, deadline=50.0)
        res = ClusterSimulator(2).run(jobs, Sjf(), fault_injector=fi,
                                      admission=adm, engine="fast")
        assert res.completed + res.dropped + res.shed == 10


class TestMummiGuards:
    def test_cycle_over_budget_counter(self):
        from repro.workflow.mummi import MummiCampaign

        before = counter_value("workflow.mummi.cycle_over_budget")
        camp = MummiCampaign(n_gpus=4, jobs_per_cycle=8,
                             cycle_budget=1e-6)
        camp.run(3)
        assert camp.cycles_over_budget == 3
        assert counter_value("workflow.mummi.cycle_over_budget") == (
            before + 3
        )

    def test_within_budget_not_counted(self):
        from repro.workflow.mummi import MummiCampaign

        camp = MummiCampaign(n_gpus=4, jobs_per_cycle=4,
                             cycle_budget=1e12)
        camp.run(2)
        assert camp.cycles_over_budget == 0
        assert camp.rungs_served == ["micro-md", "micro-md"]

    def test_breaker_degrades_to_surrogate(self):
        from repro.workflow.mummi import MummiCampaign

        br = CircuitBreaker(failure_threshold=1, recovery_time=2.0,
                            name="mummi_t")
        camp = MummiCampaign(n_gpus=4, jobs_per_cycle=4,
                             cycle_budget=1e-6, breaker=br)
        camp.run(4)
        assert "surrogate" in camp.rungs_served
        assert camp.rungs_served[0] == "micro-md"  # breaker was closed
        # surrogate cycles still produce results for every candidate
        assert len(camp.results) == 4 * 4

    def test_checkpoint_roundtrips_guard_state(self):
        from repro.workflow.mummi import MummiCampaign

        br = CircuitBreaker(failure_threshold=1, recovery_time=2.0)
        camp = MummiCampaign(n_gpus=4, jobs_per_cycle=4,
                             cycle_budget=1e-6, breaker=br)
        camp.run(2)
        snap = camp.checkpoint_state()
        rungs = list(camp.rungs_served)
        camp.run(2)
        camp.restore_state(snap)
        assert camp.rungs_served == rungs
        assert camp.cycles_over_budget == snap["cycles_over_budget"]
        # replay from the checkpoint reproduces the same rung choices
        camp.run(2)
        camp2_state = camp.checkpoint_state()
        camp.restore_state(snap)
        camp.run(2)
        assert camp.checkpoint_state()["rungs_served"] == (
            camp2_state["rungs_served"]
        )


class TestBreakerQueryVsAcquire:
    """The peek / try_acquire_probe split (stranded-probe regression).

    The old single ``allow()`` served both report-back callers (MuMMI
    cycles, ``require``) and pure shed queries (``AdmissionController``).
    An open breaker past ``recovery_time`` handed its one half-open
    probe to whoever asked first — including a shed check that never
    reports back, which stranded the breaker half-open with the probe
    burned and every later caller degraded forever.
    """

    def test_admit_query_does_not_consume_probe(self):
        br = CircuitBreaker(failure_threshold=1, recovery_time=1.0)
        adm = AdmissionController(protect_priority=5, breaker=br)
        adm.record_failure(0.0)
        assert br.state == "open"
        # a low-priority admit query well past recovery_time: with the
        # old mutating allow(), this flipped the breaker half-open and
        # burned the probe on a caller that reports nothing
        assert not adm.admit(_FakeJob(1.0, priority=0), now=5.0,
                             queue_len=0, n_running=0, n_gpus=1)
        assert br.state == "open"
        # the probe is still there for the caller that reports back
        assert br.try_acquire_probe(5.0)
        assert br.state == "half-open"
        br.record_success(5.1)
        assert br.state == "closed"

    def test_peek_is_pure(self):
        br = CircuitBreaker(failure_threshold=1, recovery_time=1.0)
        br.record_failure(0.0)
        snap = br.checkpoint_state()
        for now in (0.0, 0.5, 2.0, 1e9):
            br.peek(now)
        assert br.checkpoint_state() == snap

    def test_peek_true_only_when_closed(self):
        br = CircuitBreaker(failure_threshold=1, recovery_time=1.0)
        assert br.peek(0.0)
        br.record_failure(0.0)
        assert not br.peek(0.5)   # open, pre-recovery
        # open past recovery: the probe slot is reserved for
        # report-back callers, so a query still answers False
        assert not br.peek(2.0)
        assert br.try_acquire_probe(2.0)
        assert not br.peek(2.1)   # half-open: probe in flight
        br.record_success(2.2)
        assert br.peek(2.3)

    def test_allow_alias_keeps_acquire_semantics(self):
        br = CircuitBreaker(failure_threshold=1, recovery_time=1.0)
        br.record_failure(0.0)
        assert br.allow(2.0)
        assert br.state == "half-open"


class TestBreakerStateMachine:
    """Property tests: breaker vs an independent reference model."""

    OPS = st.lists(
        st.one_of(
            st.just("peek"),
            st.just("acquire"),
            st.just("success"),
            st.just("failure"),
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False),  # advance clock
        ),
        min_size=1, max_size=60,
    )

    @given(ops=OPS, threshold=st.integers(1, 4),
           recovery=st.floats(0.5, 5.0))
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_model(self, ops, threshold, recovery):
        br = CircuitBreaker(failure_threshold=threshold,
                            recovery_time=recovery, name="prop")
        # reference model, written independently of the implementation
        state, consec, opened_at, trips = "closed", 0, 0.0, 0
        now = 0.0
        for op in ops:
            if isinstance(op, float):
                now += op
                continue
            if op == "peek":
                got = br.peek(now)
                assert got == (state == "closed")
            elif op == "acquire":
                got = br.try_acquire_probe(now)
                if state == "closed":
                    want = True
                elif state == "open" and now - opened_at >= recovery:
                    want, state = True, "half-open"
                else:
                    want = False
                assert got == want
            elif op == "success":
                br.record_success(now)
                state, consec = "closed", 0
            elif op == "failure":
                br.record_failure(now)
                consec += 1
                if state == "half-open" or (
                    state == "closed" and consec >= threshold
                ):
                    state, opened_at = "open", now
                    trips += 1
            assert br.state == state
            assert br.consecutive_failures == consec
            assert br.trips == trips
            if state != "closed":
                assert br.opened_at == opened_at

    @given(ops=OPS)
    @settings(max_examples=60, deadline=None)
    def test_probe_accounting_single_probe(self, ops):
        """From half-open, no sequence of peeks/acquires admits a
        second probe until the first resolves."""
        br = CircuitBreaker(failure_threshold=1, recovery_time=1.0)
        br.record_failure(0.0)
        assert br.try_acquire_probe(5.0)   # claim the probe
        now = 5.0
        for op in ops:
            if isinstance(op, float):
                now += op
            elif op == "peek":
                assert not br.peek(now)
            elif op == "acquire":
                assert not br.try_acquire_probe(now)
            else:
                break  # success/failure resolves the probe
        else:
            assert br.state == "half-open"
