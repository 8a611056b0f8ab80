"""Tests for the multi-tenant robustness layer (repro.tenant)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.guard.deadline import AdmissionController
from repro.sched.policies import Fcfs
from repro.sched.simulator import ClusterSimulator, Job, SimulatorSession
from repro.sched.workloads import jobs_from_arrivals
from repro.tenant import (
    BrownoutLadder,
    FlightRecorder,
    TenancySpec,
    TenantSpec,
    jain_index,
    multitenant_pileup,
    record_incident,
    replay_incident,
    verify_incident,
    weighted_max_min,
)
from repro.tenant.registry import PRESSURE_REASONS
from repro.traffic.driver import OpenLoopDriver
from repro.traffic.population import UserPopulation
from repro.traffic.trace import TrafficTrace


# ---------------------------------------------------------------------------
# arbiter: weighted max-min fair shares
# ---------------------------------------------------------------------------

_demands = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1, max_size=8,
)
_weights = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


class TestArbiter:
    @given(demands=_demands, capacity=st.floats(0.0, 200.0))
    @settings(max_examples=150, deadline=None)
    def test_work_conservation_and_bounds(self, demands, capacity):
        names = [f"t{i}" for i in range(len(demands))]
        d = dict(zip(names, demands))
        w = {n: 1.0 for n in names}
        shares = weighted_max_min(d, w, capacity)
        for n in names:
            assert -1e-12 <= shares[n] <= d[n] + 1e-9
        assert math.isclose(
            sum(shares.values()), min(capacity, sum(demands)),
            rel_tol=1e-9, abs_tol=1e-9,
        )

    @given(
        demands=_demands,
        weights=st.lists(_weights, min_size=8, max_size=8),
        capacity=st.floats(0.1, 200.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_weighted_max_min_dominance(self, demands, weights, capacity):
        """Every unsatisfied tenant sits at the common water level, and
        every satisfied tenant's demand is at or below it — the fixed
        point of the weighted max-min definition."""
        names = [f"t{i}" for i in range(len(demands))]
        d = dict(zip(names, demands))
        w = dict(zip(names, weights))
        shares = weighted_max_min(d, w, capacity)
        unsat = [n for n in names if shares[n] < d[n] - 1e-9]
        if not unsat:
            return
        levels = [shares[n] / w[n] for n in unsat]
        water = levels[0]
        for lvl in levels[1:]:
            assert math.isclose(lvl, water, rel_tol=1e-6, abs_tol=1e-9)
        for n in names:
            if n not in unsat:
                assert d[n] <= water * w[n] + 1e-6 * (1 + water * w[n])

    def test_uncontended_gives_demand(self):
        shares = weighted_max_min(
            {"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 1.0}, 10.0
        )
        assert shares == {"a": 1.0, "b": 2.0}

    def test_weights_split_contention(self):
        shares = weighted_max_min(
            {"a": 100.0, "b": 100.0}, {"a": 3.0, "b": 1.0}, 8.0
        )
        assert math.isclose(shares["a"], 6.0)
        assert math.isclose(shares["b"], 2.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            weighted_max_min({"a": -1.0}, {"a": 1.0}, 1.0)
        with pytest.raises(ValueError):
            weighted_max_min({"a": 1.0}, {"a": 0.0}, 1.0)
        with pytest.raises(ValueError):
            weighted_max_min({"a": 1.0}, {"a": 1.0}, -1.0)

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_jain_bounds(self, values):
        j = jain_index(values)
        assert 1.0 / len(values) - 1e-12 <= j <= 1.0 + 1e-12

    def test_jain_extremes(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0
        assert math.isclose(jain_index([5.0, 5.0, 5.0]), 1.0)
        assert math.isclose(jain_index([1.0, 0.0, 0.0, 0.0]), 0.25)


# ---------------------------------------------------------------------------
# brownout ladder
# ---------------------------------------------------------------------------


class TestBrownoutLadder:
    def test_escalates_and_relaxes_one_rung_per_observation(self):
        ladder = BrownoutLadder(up_threshold=1.5, down_threshold=0.9)
        assert ladder.rung == "admit"
        assert ladder.observe(5.0) == "defer"       # one rung, not four
        assert ladder.observe(5.0) == "degrade"
        assert ladder.observe(5.0) == "shed"
        assert ladder.observe(5.0) == "shed"        # clamped at worst
        assert ladder.observe(0.5) == "degrade"
        assert ladder.observe(0.5) == "defer"
        assert ladder.observe(0.5) == "admit"
        assert ladder.observe(0.5) == "admit"       # clamped at best
        assert ladder.transitions == 6

    def test_hysteresis_band_holds(self):
        ladder = BrownoutLadder(up_threshold=1.5, down_threshold=0.9)
        ladder.observe(2.0)
        assert ladder.rung == "defer"
        # inside the band: no movement either way, however long
        for _ in range(10):
            assert ladder.observe(1.2) == "defer"
        assert ladder.transitions == 1

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            BrownoutLadder(up_threshold=1.0, down_threshold=1.0)

    def test_at_least(self):
        ladder = BrownoutLadder()
        ladder.observe(10.0)
        ladder.observe(10.0)
        assert ladder.at_least("defer")
        assert ladder.at_least("degrade")
        assert not ladder.at_least("shed")

    def test_checkpoint_roundtrip(self):
        ladder = BrownoutLadder(name="x")
        ladder.observe(9.0, now=1.0)
        ladder.observe(9.0, now=2.0)
        state = ladder.checkpoint_state()
        other = BrownoutLadder(name="x")
        other.restore_state(state)
        assert other.rung == ladder.rung
        assert other.transitions == ladder.transitions
        assert other.history == ladder.history


# ---------------------------------------------------------------------------
# registry: fair-share clipping + compliant-tenant protection
# ---------------------------------------------------------------------------


def _tenancy(n_compliant=2, window=10.0, **kw):
    specs = [
        TenantSpec(name=f"c{i}", protect_priority=1, max_queue=4)
        for i in range(n_compliant)
    ] + [TenantSpec(name="noisy", protect_priority=1, max_queue=4)]
    return TenancySpec(tenants=tuple(specs), window=window, **kw)


def _job(jid, tenant, now, service=1.0, priority=0, deadline=None):
    return Job(job_id=jid, arrival=now, service=service,
               priority=priority, deadline=deadline, tenant=tenant)


class TestTenantRegistry:
    def test_noisy_neighbor_clipped_before_compliant_sheds(self):
        registry = _tenancy().make()
        t, jid = 0.0, 0
        noisy_shed = compliant_pressure_shed = 0
        # capacity 4: each compliant tenant offers rate 1.0 (below its
        # fair share), the noisy tenant offers rate 16 (far above)
        for _ in range(300):
            t += 0.1
            for name in ("c0", "c1"):
                jid += 1
                registry.admit(_job(jid, name, t, service=0.1), now=t,
                               queue_len=2, n_running=4, n_gpus=4)
                reason = registry.last_decision["reason"]
                if reason in PRESSURE_REASONS:
                    compliant_pressure_shed += 1
            for _ in range(4):
                jid += 1
                ok = registry.admit(
                    _job(jid, "noisy", t, service=0.4), now=t,
                    queue_len=2, n_running=4, n_gpus=4,
                )
                if not ok:
                    noisy_shed += 1
        assert noisy_shed > 0
        assert compliant_pressure_shed == 0
        # the noisy tenant is held near its fair share of capacity
        assert registry.admitted_rate("noisy", t) \
            <= registry.fair_shares(4, t)["noisy"] + 0.5

    def test_pressure_suppressed_for_compliant_only(self):
        registry = _tenancy().make()
        t, jid = 0.0, 0
        # drive noisy far above share so it is a standing violator
        for _ in range(100):
            t += 0.05
            jid += 1
            registry.admit(_job(jid, "noisy", t), now=t, queue_len=0,
                           n_running=0, n_gpus=2)
        # compliant job under queue pressure (queue at max_queue=4,
        # priority below protected): would be queue_saturated alone,
        # but the congestion is the violator's to absorb
        jid += 1
        assert registry.admit(
            _job(jid, "c0", t, priority=0), now=t, queue_len=4,
            n_running=2, n_gpus=2,
        )
        # the violator itself still gets pressure-shed
        jid += 1
        admitted = registry.admit(
            _job(jid, "noisy", t, priority=0), now=t, queue_len=4,
            n_running=2, n_gpus=2,
        )
        assert not admitted

    def test_deadline_sheds_never_suppressed(self):
        registry = _tenancy().make()
        t, jid = 0.0, 0
        for _ in range(100):
            t += 0.05
            jid += 1
            registry.admit(_job(jid, "noisy", t), now=t, queue_len=0,
                           n_running=0, n_gpus=2)
        # compliant job whose deadline is already unmeetable: physics
        jid += 1
        admitted = registry.admit(
            _job(jid, "c0", t, service=5.0, deadline=t + 1.0), now=t,
            queue_len=0, n_running=0, n_gpus=2,
        )
        assert not admitted
        assert registry.last_decision["reason"] == "deadline_unmeetable"

    def test_anonymous_jobs_bypass_tenancy(self):
        registry = _tenancy().make()
        job = Job(job_id=1, arrival=0.0, service=1.0)
        assert registry.admit(job, now=0.0, queue_len=10**6,
                              n_running=0, n_gpus=1)

    def test_unknown_tenant_rejected(self):
        registry = _tenancy().make()
        with pytest.raises(ValueError):
            registry.admit(_job(1, "mystery", 0.0), now=0.0,
                           queue_len=0, n_running=0, n_gpus=1)

    def test_arbiter_disabled_degenerates_to_plain_controllers(self):
        registry = _tenancy(arbiter_enabled=False).make()
        t, jid = 0.0, 0
        for _ in range(50):
            t += 0.05
            jid += 1
            registry.admit(_job(jid, "noisy", t), now=t, queue_len=0,
                           n_running=0, n_gpus=2)
        # no arbiter: a compliant tenant eats queue_saturated like
        # anyone else, violator or not
        jid += 1
        admitted = registry.admit(
            _job(jid, "c0", t, priority=0), now=t, queue_len=4,
            n_running=2, n_gpus=2,
        )
        assert not admitted
        assert registry.last_decision["reason"] == "queue_saturated"

    def test_checkpoint_roundtrip(self):
        spec = _tenancy()
        registry = spec.make()
        t, jid = 0.0, 0
        for _ in range(60):
            t += 0.1
            jid += 1
            registry.admit(_job(jid, "noisy", t), now=t, queue_len=3,
                           n_running=2, n_gpus=2)
        state = registry.checkpoint_state()
        twin = spec.make()
        twin.restore_state(state)
        # the twin must make the same next decision
        probe = _job(10_000, "noisy", t + 0.1)
        a = registry.admit(probe, now=t + 0.1, queue_len=3,
                           n_running=2, n_gpus=2)
        b = twin.admit(probe, now=t + 0.1, queue_len=3,
                       n_running=2, n_gpus=2)
        assert a == b
        assert registry.last_decision == twin.last_decision
        assert list(registry.shed_log) == list(twin.shed_log)

    def test_spec_description_roundtrip(self):
        spec = _tenancy(brownout={"up_threshold": 2.0,
                                  "down_threshold": 0.5})
        assert TenancySpec.from_description(spec.describe()) == spec


class FairArbiterMachine(RuleBasedStateMachine):
    """State-machine check of the registry's isolation invariants.

    Arbitrary interleavings of per-tenant arrivals (varying service,
    priority, queue pressure) must never produce (a) a pressure shed
    for a compliant tenant while a violator is above fair share,
    (b) fair shares exceeding capacity (work conservation at the
    arbiter), or (c) a share above its tenant's measured demand.
    """

    N_GPUS = 4

    @initialize()
    def setup(self):
        self.registry = _tenancy(n_compliant=2, window=5.0).make()
        self.now = 0.0
        self.jid = 0

    @rule(
        tenant=st.sampled_from(["c0", "c1", "noisy"]),
        service=st.floats(0.1, 5.0),
        priority=st.integers(0, 2),
        queue_len=st.integers(0, 8),
        dt=st.floats(0.0, 1.0),
    )
    def submit(self, tenant, service, priority, queue_len, dt):
        self.now += dt
        self.jid += 1
        job = _job(self.jid, tenant, self.now, service=service,
                   priority=priority)
        self.registry.admit(job, now=self.now, queue_len=queue_len,
                            n_running=2, n_gpus=self.N_GPUS)
        decision = self.registry.last_decision
        violators = decision["violators"]
        if (
            decision["reason"] in PRESSURE_REASONS
            and violators
            and decision["tenant"] not in violators
        ):
            raise AssertionError(
                f"compliant tenant {decision['tenant']!r} pressure-shed "
                f"({decision['reason']}) while {violators} sat above "
                "fair share"
            )

    @invariant()
    def shares_conserve_work_and_respect_demand(self):
        if not hasattr(self, "registry"):
            return
        shares = self.registry.fair_shares(self.N_GPUS, self.now)
        assert sum(shares.values()) <= self.N_GPUS + 1e-9
        for name, share in shares.items():
            demand = self.registry.offered_rate(name, self.now)
            assert share <= demand + 1e-9


def test_fair_arbiter_state_machine():
    run_state_machine_as_test(
        FairArbiterMachine,
        settings=settings(max_examples=30, stateful_step_count=40,
                          deadline=None),
    )


# ---------------------------------------------------------------------------
# per-tenant accounting: engines agree, checkpoints survive
# ---------------------------------------------------------------------------


def _tenant_jobs(n=120, seed=3):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(0.4, n))
    services = rng.lognormal(0.0, 0.6, n)
    tenants = [("alpha", "beta", "gamma")[i % 3] for i in range(n)]
    deadlines = [
        None if i % 4 == 0 else float(arrivals[i] + 6.0 * services[i])
        for i in range(n)
    ]
    return jobs_from_arrivals(arrivals, services, tenants=tenants,
                              deadlines=deadlines)


def _accounting_tenancy():
    return TenancySpec(
        tenants=tuple(
            TenantSpec(name=n, protect_priority=1, max_queue=6)
            for n in ("alpha", "beta", "gamma")
        ),
        window=20.0,
    )


class TestPerTenantAccounting:
    def test_batch_and_stepwise_engines_bit_identical(self):
        """One loop, three drives — ``ClusterSimulator.run``, chunks
        of ``advance(7)``, and ``step()`` one event at a time — agree
        on every field, per-tenant accounting included."""
        jobs = _tenant_jobs()
        spec = _accounting_tenancy()
        batch = ClusterSimulator(3).run(jobs, Fcfs(),
                                        admission=spec.make())
        chunked = SimulatorSession(3, jobs, Fcfs(), admission=spec.make())
        while chunked.advance(7):
            pass
        stepped = SimulatorSession(3, jobs, Fcfs(), admission=spec.make())
        while stepped.step():
            pass
        # dataclass ==: every field, exactly
        assert chunked.result() == batch == stepped.result()
        assert batch.tenant_shed and batch.tenant_completed

    def test_tenant_fields_populated_and_consistent(self):
        jobs = _tenant_jobs()
        result = ClusterSimulator(3).run(
            jobs, Fcfs(), admission=_accounting_tenancy().make()
        )
        assert result.tenants == ["alpha", "beta", "gamma"]
        assert sum(result.tenant_completed.values()) == result.completed
        assert sum(result.tenant_shed.values()) == result.shed
        for name in result.tenants:
            if result.tenant_turnarounds.get(name):
                p99 = result.tenant_turnaround_percentile(name, 99.0)
                assert p99 >= result.tenant_turnaround_percentile(
                    name, 50.0
                )
            rate = result.tenant_shed_rate(name)
            assert 0.0 <= rate <= 1.0

    def test_untagged_jobs_cost_no_tenant_accounting(self):
        jobs = [Job(job_id=k, arrival=float(k) * 0.1, service=1.0)
                for k in range(20)]
        result = ClusterSimulator(2).run(jobs, Fcfs())
        assert result.tenant_completed == {}
        assert result.tenant_waits == {}
        assert result.tenant_shed_rate("nobody") == 0.0

    def test_session_checkpoint_restores_tenant_accounting(self):
        jobs = _tenant_jobs(n=80)
        spec = _accounting_tenancy()
        session = SimulatorSession(3, jobs, Fcfs(),
                                   admission=spec.make())
        for _ in range(60):
            session.step()
        state = session.checkpoint_state()
        finished = session.run_to_completion()
        twin = SimulatorSession(3, jobs, Fcfs(), admission=spec.make())
        twin.restore_state(state)
        assert twin.run_to_completion() == finished


# ---------------------------------------------------------------------------
# flight recorder + incident traces
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_drops(self):
        rec = FlightRecorder(capacity=4)
        for k in range(10):
            rec.note("shed", float(k), tenant="a", job_id=k)
        assert len(rec.events) == 4
        assert rec.dropped == 6
        assert [e["job_id"] for e in rec.events] == [6, 7, 8, 9]

    def test_checkpoint_roundtrip(self):
        rec = FlightRecorder(capacity=4)
        rec.note("ladder", 1.0, tenant="a", to_rung="defer")
        state = rec.checkpoint_state()
        twin = FlightRecorder(capacity=4)
        twin.restore_state(state)
        assert list(twin.events) == list(rec.events)
        assert twin.dropped == rec.dropped


def _pileup_driver(bundle, chaos_mtbf=None, n_gpus=4):
    from repro.traffic.driver import ChaosSpec

    return OpenLoopDriver(
        n_gpus=n_gpus, policy="fcfs", tenancy=bundle.tenancy,
        chaos=(
            None if chaos_mtbf is None
            else ChaosSpec(mtbf=chaos_mtbf, seed=7)
        ),
    )


class TestIncidentTraces:
    def test_record_then_verify_bit_exact(self, tmp_path):
        bundle = multitenant_pileup(n_gpus=4, n_jobs_per_tenant=60)
        driver = _pileup_driver(bundle)
        path = tmp_path / "incident-a.trace"
        trace, report = record_incident(path, bundle.jobs, driver,
                                        reason="drill")
        assert trace is not None
        assert trace.meta["incident"]["reason"] == "drill"
        replay = verify_incident(path)
        assert replay.fingerprint() == report.fingerprint()

    def test_fingerprint_carries_tenant_surface(self, tmp_path):
        bundle = multitenant_pileup(n_gpus=4, n_jobs_per_tenant=60)
        report = _pileup_driver(bundle).run(bundle.jobs)
        fp = report.fingerprint()
        assert "tenant_completed" in fp
        assert "tenant_summary" in fp
        assert set(fp["tenant_summary"]) == set(bundle.rates)

    def test_single_tenant_fingerprint_unchanged(self):
        # no tenancy -> no tenant keys: pre-tenant recorded
        # fingerprints keep verifying byte-for-byte
        jobs = [Job(job_id=k, arrival=float(k) * 0.5, service=1.0)
                for k in range(10)]
        report = OpenLoopDriver(n_gpus=2).run(jobs)
        fp = report.fingerprint()
        assert "tenant_summary" not in fp
        assert "trips" not in fp

    def test_healthy_run_dumps_nothing(self, tmp_path):
        bundle = multitenant_pileup(
            n_gpus=16, n_compliant=2, noisy_factor=1.2,
            n_jobs_per_tenant=30,
        )
        path = tmp_path / "incident-b.trace"
        trace, _ = record_incident(
            path, bundle.jobs, _pileup_driver(bundle, n_gpus=16)
        )
        assert trace is None
        assert not path.exists()

    def test_torn_tail_strict_raises_lenient_returns_prefix(
        self, tmp_path
    ):
        bundle = multitenant_pileup(n_gpus=4, n_jobs_per_tenant=60)
        path = tmp_path / "incident-c.trace"
        record_incident(path, bundle.jobs, _pileup_driver(bundle),
                        reason="drill")
        whole = path.read_bytes()
        # cut the sealed trailer plus part of the last job frame, so
        # the committed prefix is strictly shorter than the job stream
        from repro.durable.wal import read_records

        frames = [8 + len(p) for p in read_records(path)]
        path.write_bytes(whole[: 8 + sum(frames[:-2]) + 3])
        with pytest.raises(ValueError, match="torn"):
            TrafficTrace.load(path, strict=True)
        torn = TrafficTrace.load(path, strict=False)
        assert not torn.complete
        assert torn.fingerprint is None
        assert 0 < len(torn.jobs) < len(bundle.jobs)
        assert torn.jobs == list(bundle.jobs)[: len(torn.jobs)]
        # lenient replay of the surviving prefix still works
        report, _ = replay_incident(path, strict=False)
        assert report.result.completed > 0

    def test_replay_detects_doctored_fingerprint(self, tmp_path):
        bundle = multitenant_pileup(n_gpus=4, n_jobs_per_tenant=60)
        path = tmp_path / "incident-d.trace"
        trace, report = record_incident(
            path, bundle.jobs, _pileup_driver(bundle), reason="drill"
        )
        doctored = dict(trace.meta)
        doctored["fingerprint"] = dict(report.fingerprint(),
                                       completed=-1)
        TrafficTrace.record(path, list(bundle.jobs), meta=doctored)
        with pytest.raises(AssertionError, match="recorded fingerprint"):
            verify_incident(path)


# ---------------------------------------------------------------------------
# pile-up scenario: isolation quality end to end
# ---------------------------------------------------------------------------


class TestPileupScenario:
    def test_bundle_shape(self):
        bundle = multitenant_pileup(n_jobs_per_tenant=40)
        assert len(bundle.jobs) == 4 * 40
        assert set(bundle.jobs_by_tenant) == set(bundle.rates)
        ids = [j.job_id for j in bundle.jobs]
        assert len(set(ids)) == len(ids)
        for name, stream in bundle.jobs_by_tenant.items():
            assert all(j.tenant == name for j in stream)
        assert bundle.rates[bundle.noisy] > max(
            v for k, v in bundle.rates.items() if k != bundle.noisy
        )

    def test_arbiter_contains_noisy_neighbor(self):
        bundle = multitenant_pileup(n_gpus=4, n_jobs_per_tenant=150,
                                    seed=1)
        result = _pileup_driver(bundle).run(bundle.jobs).result
        compliant = [n for n in bundle.rates if n != bundle.noisy]
        # the noisy tenant absorbs the overload it created
        noisy_rate = result.tenant_shed_rate(bundle.noisy)
        for name in compliant:
            assert result.tenant_shed_rate(name) < noisy_rate
        # fairness over delivered service per (equal) weight
        fairness = jain_index(
            result.tenant_completed_service.get(n, 0.0)
            for n in sorted(bundle.rates)
        )
        assert fairness >= 0.9


# ---------------------------------------------------------------------------
# satellites: shed-log bound, supervisor jitter, population tagging
# ---------------------------------------------------------------------------


class TestShedLogBound:
    def _saturate(self, cap, n):
        ctrl = AdmissionController(max_queue=1, protect_priority=5,
                                   shed_log_cap=cap)
        for k in range(n):
            ctrl.admit(Job(job_id=k, arrival=0.0, service=1.0),
                       now=0.0, queue_len=10, n_running=0, n_gpus=1)
        return ctrl

    def test_log_rotates_and_counts_drops(self):
        ctrl = self._saturate(cap=8, n=30)
        assert len(ctrl.shed_log) == 8
        assert ctrl.shed_log_dropped == 22
        assert ctrl.shed_count == 30
        assert [j for j, _ in ctrl.shed_log] == list(range(22, 30))

    def test_checkpoint_preserves_rotation_state(self):
        ctrl = self._saturate(cap=8, n=30)
        state = ctrl.checkpoint_state()
        twin = AdmissionController(max_queue=1, protect_priority=5,
                                   shed_log_cap=8)
        twin.restore_state(state)
        assert list(twin.shed_log) == list(ctrl.shed_log)
        assert twin.shed_log_dropped == 22

    def test_cap_validated(self):
        with pytest.raises(ValueError):
            AdmissionController(shed_log_cap=0)


class TestSupervisorJitter:
    def test_jitter_without_rng_rejected(self):
        from repro.par.supervisor import Supervisor

        with pytest.raises(ValueError, match="injected rng"):
            Supervisor(fn=abs, backoff_jitter=0.5)

    def test_jitter_range_validated(self):
        from repro.par.supervisor import Supervisor

        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            Supervisor(fn=abs, backoff_jitter=1.0, rng=rng)

    def test_injected_stream_reproduces_delays(self):
        from repro.par.supervisor import Supervisor

        def delays(seed):
            sup = Supervisor(fn=abs, backoff_base=0.1, backoff_max=5.0,
                             backoff_jitter=0.5,
                             rng=np.random.default_rng(seed))
            out = []
            for crashes in (1, 2, 3, 4):
                sup._consec_crashes = crashes
                out.append(sup._backoff_delay())
            return out

        assert delays(42) == delays(42)
        assert delays(42) != delays(43)
        sup = Supervisor(fn=abs, backoff_base=0.1, backoff_max=5.0,
                         backoff_jitter=0.5,
                         rng=np.random.default_rng(0))
        sup._consec_crashes = 2
        for _ in range(50):
            assert 0.5 * 0.2 <= sup._backoff_delay() <= 1.5 * 0.2

    def test_no_jitter_is_deterministic_without_rng(self):
        from repro.par.supervisor import Supervisor

        sup = Supervisor(fn=abs, backoff_base=0.1, backoff_max=1.0)
        sup._consec_crashes = 6
        assert sup._backoff_delay() == 1.0  # capped, no randomness


class TestTenantTagging:
    def test_population_stamps_tenant(self):
        pop = UserPopulation(n_users=100, seed=0, tenant="blue")
        jobs = pop.jobs_for([0.5, 1.0, 1.5])
        assert all(j.tenant == "blue" for j in jobs)
        rebuilt = UserPopulation.from_description(pop.describe())
        assert rebuilt.tenant == "blue"

    def test_pre_tenant_population_description_loads(self):
        pop = UserPopulation(n_users=100, seed=0)
        desc = pop.describe()
        del desc["tenant"]  # a header recorded before the tenant layer
        assert UserPopulation.from_description(desc).tenant is None

    def test_trace_roundtrips_tenant_field(self, tmp_path):
        jobs = [
            Job(job_id=0, arrival=0.0, service=1.0, tenant="a"),
            Job(job_id=1, arrival=0.5, service=2.0),  # anonymous
        ]
        path = tmp_path / "t.trace"
        TrafficTrace.record(path, jobs)
        loaded = TrafficTrace.load(path)
        assert loaded.jobs == jobs

    def test_jobs_from_arrivals_tenant_args_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            jobs_from_arrivals([0.0], [1.0], tenant="a", tenants=["b"])


# ---------------------------------------------------------------------------
# mummi brownout coupling
# ---------------------------------------------------------------------------


class TestMummiBrownout:
    def test_degrade_rung_forces_surrogate_cycle(self):
        from repro.workflow.mummi import MummiCampaign

        ladder = BrownoutLadder()
        campaign = MummiCampaign(n_gpus=4, jobs_per_cycle=4,
                                 steps_per_sim=100, seed=0,
                                 tenant="mummi", ladder=ladder)
        campaign.run_cycle()
        assert campaign.rungs_served[-1] == "micro-md"
        ladder.observe(10.0)
        ladder.observe(10.0)  # now at degrade
        campaign.run_cycle()
        assert campaign.rungs_served[-1] == "surrogate"
        state = campaign.checkpoint_state()
        assert state["ladder"]["rung_index"] == 2

    def test_tenant_tag_reaches_micro_jobs(self):
        from repro.workflow.mummi import MummiCampaign

        registry = TenancySpec(
            tenants=(TenantSpec(name="mummi"),), window=10.0,
        ).make()
        campaign = MummiCampaign(n_gpus=4, jobs_per_cycle=4,
                                 steps_per_sim=100, seed=0,
                                 tenant="mummi", admission=registry)
        campaign.run_cycle()
        # the registry saw (and charged) the campaign's offered load
        assert registry.offered_rate("mummi", 0.0) > 0.0
