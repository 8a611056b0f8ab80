"""Tests for the job-scheduler simulator (§4.7)."""

import numpy as np
import pytest

from repro.sched.policies import Fcfs, Sjf, SjfWithQuota
from repro.sched.simulator import ClusterSimulator, Job, SimResult
from repro.sched.workloads import (
    batch_workload,
    offered_load,
    poisson_workload,
)


class TestJob:
    def test_validation(self):
        with pytest.raises(ValueError):
            Job(0, arrival=-1.0, service=1.0)
        with pytest.raises(ValueError):
            Job(0, arrival=0.0, service=0.0)

    def test_nan_times_rejected(self):
        """NaN slips past ``<``/``<=`` tests (every NaN comparison is
        False); a NaN arrival would corrupt the event heap's order."""
        nan = float("nan")
        with pytest.raises(ValueError, match="bad job times"):
            Job(0, arrival=nan, service=1.0)
        with pytest.raises(ValueError, match="bad job times"):
            Job(0, arrival=0.0, service=nan)
        with pytest.raises(ValueError, match="deadline must be positive"):
            Job(0, arrival=0.0, service=1.0, deadline=nan)
        # the edges that stay valid
        Job(0, arrival=-0.0, service=5e-324, deadline=5e-324)
        Job(0, arrival=float("inf"), service=float("inf"),
            deadline=float("inf"))


class TestSimulatorConservation:
    """Event-simulator invariants: no job lost, capacity respected."""

    def test_all_jobs_complete(self):
        jobs = batch_workload(n_jobs=50, seed=0)
        result = ClusterSimulator(4).run(jobs, Fcfs())
        assert result.completed == 50

    def test_single_gpu_serializes(self):
        jobs = [Job(k, 0.0, 2.0) for k in range(5)]
        result = ClusterSimulator(1).run(jobs, Fcfs())
        assert result.makespan == pytest.approx(10.0)
        assert result.utilization == pytest.approx(1.0)

    def test_capacity_never_exceeded(self):
        """Makespan can never beat total work / capacity."""
        jobs = batch_workload(n_jobs=100, seed=1)
        n_gpus = 8
        result = ClusterSimulator(n_gpus).run(jobs, Sjf())
        total = sum(j.service for j in jobs)
        assert result.makespan >= total / n_gpus - 1e-9
        assert result.utilization <= 1.0

    def test_parallel_speedup(self):
        jobs = batch_workload(n_jobs=64, seed=2)
        slow = ClusterSimulator(2).run(jobs, Fcfs()).makespan
        fast = ClusterSimulator(16).run(jobs, Fcfs()).makespan
        assert fast < slow

    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError):
            ClusterSimulator(2).run([], Fcfs())
        with pytest.raises(ValueError):
            ClusterSimulator(0)

    def test_waits_nonnegative(self):
        jobs = poisson_workload(n_jobs=80, arrival_rate=2.0, seed=3)
        result = ClusterSimulator(4).run(jobs, Fcfs())
        assert result.mean_wait >= 0
        assert result.max_wait >= result.mean_wait


class TestPolicies:
    def test_fcfs_order(self):
        jobs = [Job(0, 0.0, 10.0), Job(1, 1.0, 1.0), Job(2, 2.0, 1.0)]
        result = ClusterSimulator(1).run(jobs, Fcfs())
        # job 0 runs first, jobs 1,2 wait behind it
        assert result.max_wait == pytest.approx(9.0)

    def test_sjf_minimizes_mean_wait_on_batch(self):
        jobs = batch_workload(n_jobs=200, seed=4)
        sim = ClusterSimulator(8)
        w_fcfs = sim.run(jobs, Fcfs()).mean_wait
        w_sjf = sim.run(jobs, Sjf()).mean_wait
        assert w_sjf < w_fcfs

    def test_quota_restores_utilization(self):
        """§4.7's conclusion for batch arrivals: plain SJF defers the
        long tail (poor drain-out utilization); SJF with quota starts
        long jobs early and beats both."""
        jobs = batch_workload(n_jobs=300, long_fraction=0.1, seed=0)
        sim = ClusterSimulator(16)
        u = {
            "fcfs": sim.run(jobs, Fcfs()).utilization,
            "sjf": sim.run(jobs, Sjf()).utilization,
            "quota": sim.run(jobs, SjfWithQuota(16, 0.25)).utilization,
        }
        assert u["quota"] > u["sjf"]
        assert u["quota"] >= u["fcfs"] - 0.01

    def test_quota_bounds_long_job_wait(self):
        jobs = batch_workload(n_jobs=300, long_fraction=0.1, seed=0)
        sim = ClusterSimulator(16)
        m_sjf = sim.run(jobs, Sjf()).makespan
        m_quota = sim.run(jobs, SjfWithQuota(16, 0.25)).makespan
        assert m_quota < m_sjf

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            SjfWithQuota(4, long_quota=1.5)
        with pytest.raises(ValueError):
            SjfWithQuota(0)


class TestThrottling:
    """§4.7: 'job arrival rate should be throttled to less than the
    aggregated processing capacity of the GPUs.'"""

    def test_overload_grows_queue(self):
        n_gpus = 16
        mean_service = 10.0
        sim = ClusterSimulator(n_gpus)
        # overloaded: rate * service / gpus ~ 1.7
        over = poisson_workload(n_jobs=400, arrival_rate=2.7,
                                mean_service=mean_service, seed=1)
        # throttled: rate * service / gpus ~ 0.53
        throttled = poisson_workload(n_jobs=400, arrival_rate=0.85,
                                     mean_service=mean_service, seed=1)
        r_over = sim.run(over, Fcfs())
        r_thr = sim.run(throttled, Fcfs())
        assert offered_load(over, n_gpus) > 1.2
        assert offered_load(throttled, n_gpus) < 1.0
        assert r_over.peak_queue > 3 * r_thr.peak_queue
        assert r_over.mean_wait > 3 * r_thr.mean_wait

    def test_queue_series_recorded(self):
        jobs = poisson_workload(n_jobs=50, arrival_rate=1.0, seed=2)
        result = ClusterSimulator(4).run(jobs, Fcfs())
        assert len(result.queue_series) > 0
        times = [t for t, _ in result.queue_series]
        assert times == sorted(times)

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            batch_workload(n_jobs=0)
        with pytest.raises(ValueError):
            poisson_workload(arrival_rate=0.0)
        with pytest.raises(ValueError):
            poisson_workload(mean_service=-1.0)

    def test_workloads_deterministic(self):
        a = poisson_workload(n_jobs=10, seed=9)
        b = poisson_workload(n_jobs=10, seed=9)
        assert [(j.arrival, j.service) for j in a] == [
            (j.arrival, j.service) for j in b
        ]

class TestHorizonAccounting:
    """Horizon truncation: utilization counts busy time only within
    [0, makespan], and in-flight work is visible in the result."""

    def test_horizon_mid_service(self):
        """2 GPUs, one job of service 10, horizon 5: the job is still
        in flight at the horizon, so utilization is (5 busy GPU-sec)
        over (2 GPUs * 5 sec) = 0.5 — not the pre-fix 10/10 = 1.0."""
        jobs = [Job(0, 0.0, 10.0)]
        result = ClusterSimulator(2).run(jobs, Fcfs(), horizon=5.0)
        assert result.makespan == pytest.approx(5.0)
        assert result.utilization == pytest.approx(0.5)
        assert result.completed == 0
        assert result.started == 1
        assert result.in_flight == 1

    def test_horizon_counts_only_completed(self):
        """`completed` means finished within the horizon; started-but-
        unfinished jobs show up in `in_flight` instead."""
        jobs = [Job(k, 0.0, 4.0) for k in range(3)]
        result = ClusterSimulator(1).run(jobs, Fcfs(), horizon=6.0)
        assert result.completed == 1
        assert result.in_flight == 1
        assert result.started == 2

    def test_no_horizon_all_in_flight_zero(self):
        jobs = batch_workload(n_jobs=20, seed=5)
        result = ClusterSimulator(4).run(jobs, Fcfs())
        assert result.in_flight == 0
        assert result.started == 20
        assert result.completed == 20

    def test_utilization_never_above_one_with_horizon(self):
        jobs = poisson_workload(n_jobs=60, arrival_rate=3.0, seed=6)
        for horizon in (1.0, 5.0, 20.0):
            result = ClusterSimulator(4).run(jobs, Fcfs(), horizon=horizon)
            assert result.utilization <= 1.0 + 1e-12


class _BadIndexPolicy:
    """Policy returning out-of-range and duplicate indices; the
    simulator must filter/dedupe them rather than crash or double-
    start a job."""

    def __init__(self, picks):
        self.picks = picks

    def select(self, queue, free_gpus, running):
        return list(self.picks)


class TestPolicyIndexSanitization:
    def test_out_of_range_indices_filtered(self):
        jobs = [Job(k, 0.0, 1.0) for k in range(3)]
        policy = _BadIndexPolicy([0, 99, -1])
        result = ClusterSimulator(2).run(jobs, policy)
        assert result.completed == 3
        assert result.utilization <= 1.0 + 1e-12

    def test_duplicate_indices_deduped(self):
        jobs = [Job(k, 0.0, 2.0) for k in range(4)]
        policy = _BadIndexPolicy([0, 0, 0])
        result = ClusterSimulator(4).run(jobs, policy)
        # duplicates collapse to one start per call; the fill loop
        # re-invokes the policy, so each job still starts exactly once
        assert result.completed == 4
        assert result.started == 4
        assert result.makespan == pytest.approx(2.0)
        assert result.utilization == pytest.approx(1.0)


class TestQueueSeriesProperties:
    def test_zero_length_queue_series(self):
        """peak_queue / final_queue on an empty series are 0, not an
        IndexError."""
        result = SimResult(
            makespan=0.0, utilization=0.0, mean_wait=0.0, max_wait=0.0,
            mean_turnaround=0.0, completed=0,
        )
        assert result.queue_series == []
        assert result.peak_queue == 0
        assert result.final_queue == 0


class TestFastEngine:
    """The heap-backed queue engine must reproduce the reference
    engine bit-for-bit — same waits, same schedules, same fault
    victims — it is purely an algorithmic substitution."""

    POLICIES = [
        ("fcfs", lambda: Fcfs()),
        ("sjf", lambda: Sjf()),
        ("quota", lambda: SjfWithQuota(8, 0.25)),
    ]

    @staticmethod
    def _identical(a: SimResult, b: SimResult) -> None:
        for f in ("makespan", "utilization", "mean_wait", "max_wait",
                  "mean_turnaround", "completed", "started", "in_flight",
                  "failures", "retries", "dropped", "wasted_time",
                  "goodput"):
            assert getattr(a, f) == getattr(b, f), f
        assert a.queue_series == b.queue_series

    @pytest.mark.parametrize("name,make", POLICIES)
    def test_batch_equivalence(self, name, make):
        jobs = batch_workload(n_jobs=200, seed=3)
        sim = ClusterSimulator(8)
        self._identical(
            sim.run(jobs, make(), engine="fast"),
            sim.run(jobs, make(), engine="reference"),
        )

    @pytest.mark.parametrize("name,make", POLICIES)
    def test_poisson_equivalence(self, name, make):
        jobs = poisson_workload(n_jobs=200, arrival_rate=2.0, seed=4)
        sim = ClusterSimulator(8)
        self._identical(
            sim.run(jobs, make(), engine="fast"),
            sim.run(jobs, make(), engine="reference"),
        )

    @pytest.mark.parametrize("name,make", POLICIES)
    def test_horizon_equivalence(self, name, make):
        jobs = batch_workload(n_jobs=150, seed=5)
        sim = ClusterSimulator(8)
        self._identical(
            sim.run(jobs, make(), horizon=40.0, engine="fast"),
            sim.run(jobs, make(), horizon=40.0, engine="reference"),
        )

    @pytest.mark.parametrize("name,make", POLICIES)
    def test_fault_retry_equivalence(self, name, make):
        from repro.resilience import FaultInjector

        jobs = batch_workload(n_jobs=120, seed=6)
        sim = ClusterSimulator(8)
        # killed jobs re-queue without a cap, and the longest job
        # (~120) far outlasts the MTBF: the horizon ends the run
        fast = sim.run(
            jobs, make(), engine="fast", horizon=200.0,
            fault_injector=FaultInjector(mtbf=4.0, seed=9),
        )
        ref = sim.run(
            jobs, make(), engine="reference", horizon=200.0,
            fault_injector=FaultInjector(mtbf=4.0, seed=9),
        )
        assert fast.failures > 0  # the fault path actually exercised
        self._identical(fast, ref)

    def test_auto_uses_reference_for_hookless_policy(self):
        jobs = batch_workload(n_jobs=30, seed=0)
        result = ClusterSimulator(4).run(jobs, _BadIndexPolicy([0, 0, 99]))
        assert result.completed == 30  # sanitization still applies

    def test_fast_engine_requires_hook(self):
        jobs = batch_workload(n_jobs=5, seed=0)
        with pytest.raises(ValueError, match="no fast queue"):
            ClusterSimulator(4).run(jobs, _BadIndexPolicy([0]),
                                    engine="fast")

    def test_unknown_engine_rejected(self):
        jobs = batch_workload(n_jobs=5, seed=0)
        with pytest.raises(ValueError, match="unknown engine"):
            ClusterSimulator(4).run(jobs, Fcfs(), engine="warp")


class TestTieBreakEquivalence:
    """Jobs with *identical* sort keys are where heap order and list
    order can silently disagree: the quota fast queue must break ties
    exactly like the reference engine, down to queue_series and fault
    victimization."""

    @staticmethod
    def _tied_jobs(n=64, groups=4):
        """n jobs in `groups` batches; within a batch every job shares
        the same arrival AND service (and alternating long flags), so
        the only differentiator left is insertion order."""
        jobs = []
        for k in range(n):
            g = k % groups
            jobs.append(Job(
                job_id=k, arrival=float(g), service=2.0 + g,
                is_long=(k % 2 == 0),
            ))
        return jobs

    def _identical(self, a: SimResult, b: SimResult) -> None:
        assert a == b  # SimResult is a plain dataclass: full field equality
        assert a.queue_series == b.queue_series

    def test_quota_ties_bit_identical(self):
        jobs = self._tied_jobs()
        sim = ClusterSimulator(8)
        self._identical(
            sim.run(jobs, SjfWithQuota(8, 0.25), engine="fast"),
            sim.run(jobs, SjfWithQuota(8, 0.25), engine="reference"),
        )

    @pytest.mark.parametrize("make", [Fcfs, Sjf,
                                      lambda: SjfWithQuota(6, 0.5)])
    def test_all_policies_ties_identical(self, make):
        jobs = self._tied_jobs(n=48, groups=3)
        sim = ClusterSimulator(6)
        self._identical(
            sim.run(jobs, make(), engine="fast"),
            sim.run(jobs, make(), engine="reference"),
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_quota_ties_with_faults_identical(self, seed):
        from repro.resilience import FaultInjector

        jobs = self._tied_jobs()
        sim = ClusterSimulator(8)
        runs = []
        for engine in ("fast", "reference"):
            runs.append(sim.run(
                jobs, SjfWithQuota(8, 0.25), engine=engine,
                horizon=200.0,
                fault_injector=FaultInjector(mtbf=6.0, seed=seed),
            ))
        self._identical(*runs)

    def test_validated_run_matches_plain_fast_run(self, monkeypatch):
        """REPRO_OBS_VALIDATE=1 must not change the returned result
        (the replayed reference is compared, then discarded) — and the
        fault-injector RNG must end in the same state."""
        from repro.obs.validate import VALIDATE_ENV
        from repro.resilience import FaultInjector

        jobs = self._tied_jobs()

        def run(validate: str):
            monkeypatch.setenv(VALIDATE_ENV, validate)
            inj = FaultInjector(mtbf=6.0, seed=3)
            res = ClusterSimulator(8).run(
                jobs, SjfWithQuota(8, 0.25), engine="fast",
                horizon=200.0, fault_injector=inj,
            )
            return res, inj.checkpoint_state()

        plain, rng_plain = run("0")
        validated, rng_validated = run("1")
        assert plain == validated
        assert repr(rng_plain) == repr(rng_validated)


class TestWorkloadCalibration:
    """Regressions for the offered_load window and the long-tail
    renormalization in draw_services."""

    def test_offered_load_batch_sane(self):
        """All-at-once batches have zero arrival span; the old window
        max(arrivals, 1e-12) reported load ~1e13x too high.  The
        makespan-aware window (span + mean service) puts an n-job
        batch on n_gpus at ~n_jobs / n_gpus."""
        n_jobs, n_gpus = 64, 16
        jobs = batch_workload(n_jobs=n_jobs, mean_service=10.0, seed=3)
        rho = offered_load(jobs, n_gpus)
        assert rho == pytest.approx(n_jobs / n_gpus, rel=0.01)
        assert rho < 1e3  # the bug reported ~1e13

    def test_offered_load_matches_poisson_nominal(self):
        """For a long Poisson stream the window estimate converges to
        rate * mean_service / n_gpus."""
        jobs = poisson_workload(n_jobs=4000, arrival_rate=1.6,
                                mean_service=10.0, seed=7)
        rho = offered_load(jobs, n_gpus=16)
        assert rho == pytest.approx(1.6 * 10.0 / 16.0, rel=0.1)

    def test_offered_load_validation(self):
        assert offered_load([], n_gpus=4) == 0.0
        with pytest.raises(ValueError):
            offered_load(batch_workload(n_jobs=2, seed=0), n_gpus=0)

    def test_draw_services_realized_mean(self):
        """The 6x long tail used to inflate the realized mean to
        (1 + 5 * long_fraction) * mean_service; after renormalization
        the realized mean matches the parameter for any tail share."""
        from repro.sched.workloads import draw_services

        rng = np.random.default_rng(11)
        for long_fraction in (0.0, 0.1, 0.3, 1.0):
            services, is_long = draw_services(
                rng, 200_000, mean_service=10.0, sigma=0.8,
                long_fraction=long_fraction,
            )
            assert services.mean() == pytest.approx(10.0, rel=0.05)
            assert abs(is_long.mean() - long_fraction) < 0.01

    def test_long_jobs_still_longer(self):
        """Renormalizing must not erase the tail itself: flagged jobs
        remain ~6x the body on average."""
        from repro.sched.workloads import draw_services

        rng = np.random.default_rng(12)
        services, is_long = draw_services(
            rng, 100_000, mean_service=10.0, sigma=0.8,
            long_fraction=0.2,
        )
        ratio = services[is_long].mean() / services[~is_long].mean()
        assert ratio == pytest.approx(6.0, rel=0.1)

    def test_poisson_workload_mean_service_calibrated(self):
        jobs = poisson_workload(n_jobs=50_000, arrival_rate=1.0,
                                mean_service=10.0, long_fraction=0.1,
                                seed=4)
        mean = float(np.mean([j.service for j in jobs]))
        assert mean == pytest.approx(10.0, rel=0.05)
