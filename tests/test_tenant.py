"""Tests for the multi-tenant robustness layer (repro.tenant)."""

from __future__ import annotations

import math
import struct

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
    verify_incident,
    weighted_max_min,
)
from repro.tenant.arbiter import water_fill
from repro.tenant.registry import _EPS, PRESSURE_REASONS, TenantRegistry
from repro.traffic.driver import OpenLoopDriver, replay
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


def _reference_weighted_max_min(demands, weights, capacity):
    """The dict-keyed progressive filling ``water_fill`` replaced, kept
    verbatim as the bit-exactness oracle."""
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    names = sorted(demands)
    for name in names:
        if demands[name] < 0:
            raise ValueError(f"tenant {name!r}: negative demand")
        if name not in weights or weights[name] <= 0:
            raise ValueError(f"tenant {name!r}: weight must be positive")
    shares = {name: 0.0 for name in names}
    total_demand = sum(demands[name] for name in names)
    if total_demand <= capacity:
        for name in names:
            shares[name] = float(demands[name])
        return shares
    remaining = float(capacity)
    active = list(names)
    while active:
        weight_sum = sum(weights[name] for name in active)
        water = remaining / weight_sum
        frozen = [
            name for name in active if demands[name] <= water * weights[name]
        ]
        if not frozen:
            for name in active:
                shares[name] = water * weights[name]
            break
        for name in frozen:
            shares[name] = float(demands[name])
            remaining -= demands[name]
        active = [name for name in active if name not in frozen]
    return shares


def _bits(values):
    """Exact identity of a float sequence: type and IEEE-754 bytes."""
    return [(type(v), struct.pack("<d", v)) for v in values]


# demands with zeros, ints and repeated values (ties at the water level)
_fill_demand = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.sampled_from([0.0, 0, 1, 2, 0.5, 1.5, 2.0]),
    st.integers(0, 50),
)
_fill_weight = st.one_of(
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    st.sampled_from([1, 2, 1.0, 0.5, 3]),
)
_fill_capacity = st.one_of(
    st.sampled_from([0, 0.0, 1, 4.0, 8]),
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    st.integers(0, 64),
)


class TestWaterFill:
    """``water_fill`` (list form, unvalidated) and the dict wrapper over
    it against the dict implementation they replaced: bitwise equal."""

    @given(
        rows=st.lists(st.tuples(_fill_demand, _fill_weight),
                      min_size=1, max_size=8),
        capacity=_fill_capacity,
        names=st.permutations([f"t{i}" for i in range(8)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_dict_oracle(self, rows, capacity, names):
        names = names[: len(rows)]  # insertion order differs from sorted
        demands = {n: d for n, (d, _) in zip(names, rows)}
        weights = {n: w for n, (_, w) in zip(names, rows)}
        oracle = _reference_weighted_max_min(demands, weights, capacity)
        order = sorted(names)
        listed = water_fill([demands[n] for n in order],
                            [weights[n] for n in order], capacity)
        assert _bits(listed) == _bits(oracle[n] for n in order)
        wrapped = weighted_max_min(demands, weights, capacity)
        assert list(wrapped) == order
        assert _bits(wrapped.values()) == _bits(listed)

    def test_examples(self):
        # zero capacity: only zero demands are satisfied
        assert water_fill([0, 3.0], [1, 1], 0) == [0.0, 0.0]
        # ties at the water level freeze together
        assert water_fill([2, 2, 9.0], [1, 1, 1], 6.0) == [2.0, 2.0, 2.0]
        # int inputs come back as floats
        shares = water_fill([1, 5], [1, 3], 4)
        assert shares == [1.0, 3.0]
        assert all(type(s) is float for s in shares)


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


class _ReferenceRegistry(TenantRegistry):
    """The per-admit arbiter path the precomputed tables replaced, kept
    as the oracle: window re-totalling on every admit, dict demands and
    weights rebuilt, validated and sorted for each of two fills, and a
    ``last_decision`` dict built per decision."""

    last_decision = None  # a plain attribute here, not the property

    def _expire(self, now):
        cutoff = now - self.window
        for state in self._tenants.values():
            while state.offered and state.offered[0][0] < cutoff:
                _, svc = state.offered.popleft()
                state.offered_total -= svc
            while state.admitted and state.admitted[0][0] < cutoff:
                _, svc = state.admitted.popleft()
                state.admitted_total -= svc
            if not state.offered or state.offered_total < 0.0:
                state.offered_total = max(0.0, sum(
                    svc for _, svc in state.offered
                ))
            if not state.admitted or state.admitted_total < 0.0:
                state.admitted_total = max(0.0, sum(
                    svc for _, svc in state.admitted
                ))

    def fair_shares(self, n_gpus, now):
        demands = {
            name: self.offered_rate(name, now) for name in self._tenants
        }
        weights = {
            name: state.spec.weight
            for name, state in self._tenants.items()
        }
        return _reference_weighted_max_min(demands, weights, float(n_gpus))

    def entitlement(self, name, now, n_gpus):
        demands = {
            t: self.offered_rate(t, now) for t in self._tenants
        }
        demands[name] = float(n_gpus)
        weights = {
            t: state.spec.weight
            for t, state in self._tenants.items()
        }
        return _reference_weighted_max_min(
            demands, weights, float(n_gpus)
        )[name]

    def _decide(self, state, job, now, queue_len, n_running, n_gpus):
        base = state.controller.decide(
            job, now, queue_len, n_running, n_gpus
        )
        shares = self.fair_shares(n_gpus, now)
        violators = [
            name for name in sorted(self._tenants)
            if self.offered_rate(name, now) > shares[name] + _EPS
        ]
        name = state.spec.name
        share = shares[name]
        ratio = (
            0.0 if state.offered_total <= _EPS
            else self.offered_rate(name, now)
            / self.entitlement(name, now, n_gpus)
        )
        old_rung = state.ladder.rung
        rung = state.ladder.observe(ratio, now)
        if rung != old_rung:
            self.recorder.note(
                "ladder", now, tenant=name, from_rung=old_rung,
                to_rung=rung, ratio=ratio,
            )
        is_violator = name in violators
        reason = None
        if is_violator and (
            self.admitted_rate(name, now) + job.service / self.window
            > share + _EPS
        ):
            reason = "fair_share"
        elif is_violator and state.ladder.at_least("shed") \
                and job.priority < state.spec.protect_priority:
            reason = "brownout_shed"
        elif is_violator and state.ladder.at_least("defer") \
                and job.deadline is None:
            reason = "brownout_defer"
        elif base is not None:
            if base in PRESSURE_REASONS and name not in violators \
                    and violators:
                reason = None
            else:
                reason = base
        self.last_decision = {
            "tenant": name, "reason": reason, "shares": shares,
            "violators": violators, "rung": rung,
        }
        return reason


_oracle_tenancy = st.builds(
    lambda weights, window, brownout, queues: TenancySpec(
        tenants=tuple(
            TenantSpec(name=name, weight=w, protect_priority=1,
                       max_queue=q, breaker_failure_threshold=2,
                       breaker_recovery_time=1.0)
            for name, w, q in zip(("zeta", "alpha", "mid", "beta"),
                                  weights, queues)
        ),
        window=window, brownout=brownout,
    ),
    weights=st.lists(st.sampled_from([1, 2, 1.0, 0.5, 3.0, 1.7]),
                     min_size=1, max_size=4),
    window=st.sampled_from([1.0, 2.5, 5.0, 10.0]),
    brownout=st.sampled_from([
        None,
        {"up_threshold": 1.1, "down_threshold": 0.6},
        {"up_threshold": 2.0, "down_threshold": 0.9},
    ]),
    queues=st.lists(st.sampled_from([None, 1, 2, 6]), min_size=4,
                    max_size=4),
)

_oracle_step = st.tuples(
    st.integers(0, 3),                        # tenant index
    st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0, 4.0]),  # clock advance
    st.one_of(st.floats(0.01, 6.0), st.sampled_from([1, 2, 0.5])),
    st.integers(0, 2),                        # priority
    st.one_of(st.none(), st.floats(0.5, 30.0)),  # deadline slack
    st.integers(0, 8),                        # queue length
    st.sampled_from([None, "success", "failure"]),
)


@given(spec=_oracle_tenancy,
       steps=st.lists(_oracle_step, min_size=1, max_size=120),
       n_gpus=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=120, deadline=None)
def test_registry_matches_reference_decisions(spec, steps, n_gpus):
    """Precomputed tables, one rate list and two list fills per admit
    decide bit-identically to the per-admit dict arbiter."""
    fast, ref = spec.make(), _ReferenceRegistry(spec)
    names = [t.name for t in spec.tenants]
    now = 0.0
    for jid, (k, dt, service, prio, slack, qlen, outcome) in \
            enumerate(steps):
        now += dt
        job = _job(jid, names[k % len(names)], now, service=service,
                   priority=prio,
                   deadline=None if slack is None else now + slack)
        got = [r.admit(job, now=now, queue_len=qlen, n_running=n_gpus,
                       n_gpus=n_gpus) for r in (fast, ref)]
        assert got[0] == got[1]
        assert fast.last_decision == ref.last_decision
        if outcome is not None:
            for r in (fast, ref):
                getattr(r, f"record_{outcome}")(now, job)
    for name in names:
        a = fast._tenants[name].ladder.history
        b = ref._tenants[name].ladder.history
        assert [h[:3] for h in a] == [h[:3] for h in b]
        assert _bits(h[3] for h in a) == _bits(h[3] for h in b)
        assert _bits([fast.entitlement(name, now, n_gpus)]) \
            == _bits([ref.entitlement(name, now, n_gpus)])
    assert list(fast.recorder.events) == list(ref.recorder.events)
    assert _bits(e["ratio"] for e in fast.recorder.events
                 if e["kind"] == "ladder") \
        == _bits(e["ratio"] for e in ref.recorder.events
                 if e["kind"] == "ladder")
    shares = fast.fair_shares(n_gpus, now)
    assert _bits(shares.values()) \
        == _bits(ref.fair_shares(n_gpus, now)[n] for n in shares)
    a, b = fast.checkpoint_state(), ref.checkpoint_state()
    for st_a, st_b in zip(a["tenants"].values(), b["tenants"].values()):
        for key in ("offered_total", "admitted_total"):
            assert _bits([st_a[key]]) == _bits([st_b[key]])
    assert a == b


def test_last_decision_is_built_on_demand():
    registry = _tenancy().make()
    assert registry.last_decision is None
    registry.admit(_job(1, "noisy", 0.5), now=0.5, queue_len=0,
                   n_running=0, n_gpus=2)
    first = registry.last_decision
    assert first == {"tenant": "noisy", "reason": None,
                     "shares": {"c0": 0.0, "c1": 0.0, "noisy": 0.1},
                     "violators": [], "rung": "admit"}
    first["violators"].append("mutated")  # a copy, not the record
    assert registry.last_decision["violators"] == []
    off = _tenancy(arbiter_enabled=False).make()
    assert off._tables is None  # the disabled path builds no tables


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
        report = replay(torn)
        assert report.result.completed > 0

    def test_verify_loads_once_and_replays_twice(self, tmp_path,
                                                 monkeypatch):
        from repro.obs import metrics

        bundle = multitenant_pileup(n_gpus=4, n_jobs_per_tenant=30)
        path = tmp_path / "incident-e.trace"
        record_incident(path, bundle.jobs, _pileup_driver(bundle),
                        reason="drill")
        loads, real = [], TrafficTrace.load.__func__

        def counting_load(cls, *args, **kwargs):
            loads.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(TrafficTrace, "load",
                            classmethod(counting_load))
        replayed = metrics.counter("tenant.incidents_replayed")
        before = replayed.value
        verify_incident(path)
        assert len(loads) == 1
        assert replayed.value - before == 2

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

    @pytest.mark.parametrize("n_gpus,n_jobs,seed", [
        (4, 150, 1), (8, 120, 0), (8, 400, 0),
    ], ids=["4gpus-150jobs-seed1", "8gpus-120jobs-seed0",
            "8gpus-400jobs-seed0"])
    def test_arbiter_contains_noisy_neighbor(self, tmp_path, n_gpus,
                                             n_jobs, seed):
        """The standard pile-up (three compliant tenants at 0.8x their
        fair share, one noisy tenant at 4x), on the simulated clock."""
        bundle = multitenant_pileup(n_gpus=n_gpus,
                                    n_jobs_per_tenant=n_jobs, seed=seed)
        path = tmp_path / "incident-pileup.trace"
        _, report = record_incident(
            path, bundle.jobs, _pileup_driver(bundle, n_gpus=n_gpus),
            reason="test",
        )
        result = report.result
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
        # containment: each compliant tenant fares nearly as well as
        # its own stream on an empty machine under the same contract
        for name in compliant:
            iso = _pileup_driver(bundle, n_gpus=n_gpus).run(
                list(bundle.jobs_by_tenant[name])
            ).result
            assert (result.tenant_turnaround_percentile(name, 99.0)
                    <= 3.0 * iso.tenant_turnaround_percentile(name, 99.0))
            assert (result.tenant_shed_rate(name)
                    - iso.tenant_shed_rate(name)) <= 0.05
        # the incident dump replays bit-identically
        assert verify_incident(path).fingerprint() == report.fingerprint()


# ---------------------------------------------------------------------------
# satellites: shed-log bound, population tagging
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
