"""Tests for the open-loop traffic layer: arrival processes, the
simulated user population, trace record/replay, and the driver's
bit-exact replay contract (shed reasons, guard counters, completion
order) with chaos and admission shedding active."""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sched.simulator import Job
from repro.sched.workloads import draw_services, jobs_from_arrivals
from repro.traffic import (
    AdmissionSpec,
    ChaosSpec,
    DiurnalArrivals,
    MMPPArrivals,
    OpenLoopDriver,
    PoissonArrivals,
    TrafficTrace,
    UserPopulation,
    drive_campaign,
    generate_jobs,
    process_from_description,
    record_experiment,
    replay_experiment,
    verify_replay,
)


class TestArrivalProcesses:
    def test_poisson_deterministic_and_sorted(self):
        p = PoissonArrivals(rate=2.0)
        a = p.sample(500, seed=3)
        b = p.sample(500, seed=3)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)
        assert not np.array_equal(a, p.sample(500, seed=4))

    def test_poisson_rate_calibrated(self):
        p = PoissonArrivals(rate=2.0)
        a = p.sample(4000, seed=0)
        assert 4000 / a[-1] == pytest.approx(2.0, rel=0.1)

    def test_mmpp_burstier_than_poisson(self):
        """Interarrival CV: Poisson is exactly 1; a 2-state MMPP with
        strong rate contrast must sit clearly above it."""
        mmpp = MMPPArrivals(quiet_rate=0.5, burst_rate=8.0,
                            mean_dwell=(20.0, 5.0))
        gaps = np.diff(mmpp.sample(6000, seed=1))
        cv = gaps.std() / gaps.mean()
        assert cv > 1.2
        poisson_gaps = np.diff(
            PoissonArrivals(rate=mmpp.mean_rate).sample(6000, seed=1)
        )
        assert poisson_gaps.std() / poisson_gaps.mean() == pytest.approx(
            1.0, abs=0.1
        )

    def test_mmpp_mean_rate(self):
        mmpp = MMPPArrivals(quiet_rate=1.0, burst_rate=6.0,
                            mean_dwell=(10.0, 2.0))
        assert mmpp.mean_rate == pytest.approx((10.0 + 12.0) / 12.0)
        a = mmpp.sample(8000, seed=2)
        assert 8000 / a[-1] == pytest.approx(mmpp.mean_rate, rel=0.15)

    def test_diurnal_peaks_mid_period(self):
        """Raised-cosine rate: trough at phase 0, peak at phase 1/2 —
        the mid-period half-window must collect most arrivals."""
        d = DiurnalArrivals(base_rate=0.5, peak_ratio=6.0, period=100.0)
        phases = np.mod(d.sample(4000, seed=5), 100.0)
        mid = np.sum((phases > 25.0) & (phases < 75.0))
        assert mid > 0.65 * 4000
        assert d.rate_at(50.0) == pytest.approx(3.0)
        assert d.rate_at(0.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=0.0)
        with pytest.raises(ValueError):
            MMPPArrivals(quiet_rate=2.0, burst_rate=1.0)
        with pytest.raises(ValueError):
            MMPPArrivals(quiet_rate=1.0, burst_rate=2.0,
                         mean_dwell=(0.0, 1.0))
        with pytest.raises(ValueError):
            DiurnalArrivals(base_rate=1.0, peak_ratio=0.5)
        with pytest.raises(ValueError):
            PoissonArrivals(rate=1.0).sample(0)

    def test_describe_roundtrip(self):
        for proc in (
            PoissonArrivals(rate=1.5),
            MMPPArrivals(quiet_rate=0.4, burst_rate=3.0,
                         mean_dwell=(7.0, 3.0)),
            DiurnalArrivals(base_rate=0.8, peak_ratio=5.0, period=60.0),
        ):
            clone = process_from_description(proc.describe())
            assert np.array_equal(proc.sample(200, seed=9),
                                  clone.sample(200, seed=9))
        with pytest.raises(ValueError):
            process_from_description({"kind": "nope"})


class _ReferencePopulation:
    """The per-arrival job loop `UserPopulation.jobs_for` replaced,
    kept as the oracle: one submitter draw per arrival, NumPy's own
    ``SeedSequence(seed, spawn_key=(ns, user))`` streams built per user
    on first touch, size-1 ``draw_services`` pulls, then
    ``jobs_from_arrivals``."""

    NS_ASSIGN, NS_JOBS, NS_PROFILE = 0, 1, 2

    def __init__(self, **params):
        self.pop = UserPopulation(**params)  # parameters only
        self.assign = self._stream(self.NS_ASSIGN)
        self.streams = {}
        self.profiles = {}

    def _stream(self, *spawn_key):
        return np.random.default_rng(
            np.random.SeedSequence(self.pop.seed, spawn_key=spawn_key)
        )

    def profile(self, uid):
        if uid not in self.profiles:
            rng = self._stream(self.NS_PROFILE, uid)
            lo, hi = self.pop.deadline_slack
            self.profiles[uid] = (
                float(np.exp(rng.normal(-0.08, 0.4))),
                int(rng.integers(self.pop.n_priorities)),
                float(rng.uniform(lo, hi)),
                bool(rng.random() < self.pop.best_effort_fraction),
            )
        return self.profiles[uid]

    def jobs_for(self, arrivals, job_id_base=0):
        pop = self.pop
        arrivals = np.asarray(arrivals, dtype=float)
        n = arrivals.size
        services = np.empty(n)
        longs = np.empty(n, dtype=bool)
        prios = np.empty(n, dtype=int)
        deadlines = []
        for k in range(n):
            u = float(self.assign.random())
            uid = min(int(pop.n_users * u ** pop.skew), pop.n_users - 1)
            scale, priority, slack, best_effort = self.profile(uid)
            if uid not in self.streams:
                self.streams[uid] = self._stream(self.NS_JOBS, uid)
            svc, is_long = draw_services(
                self.streams[uid], 1, pop.mean_service * scale,
                pop.sigma, pop.long_fraction,
            )
            services[k] = svc[0]
            longs[k] = is_long[0]
            prios[k] = priority
            deadlines.append(None if best_effort
                             else float(arrivals[k] + slack * services[k]))
        return jobs_from_arrivals(
            arrivals, services, is_long=longs, priorities=prios,
            deadlines=deadlines, job_id_base=job_id_base, tenant=pop.tenant,
        )


class TestUserPopulation:
    @pytest.mark.parametrize("params", [
        # first-touch heavy: almost every arrival meets a new user
        dict(n_users=1_000_000, seed=3),
        # repeat heavy: 50 users share 600 arrivals
        dict(n_users=50, seed=4, long_fraction=0.3),
        dict(n_users=5_000, seed=5, skew=1.0),
        dict(n_users=5_000, seed=6, skew=3.0, tenant="alpha"),
        # widest user ids and a multi-word seed
        dict(n_users=2**32, seed=2**64 + 9, skew=1.0),
    ])
    def test_jobs_for_matches_per_arrival_reference(self, params):
        pop = UserPopulation(**params)
        ref = _ReferencePopulation(**params)
        arrivals = PoissonArrivals(rate=1.0).sample(600, seed=params["seed"])
        jobs = pop.jobs_for(arrivals)
        assert jobs == ref.jobs_for(arrivals)
        # a second call continues every stream where the first left it
        later = arrivals[:300] + arrivals[-1]
        assert pop.jobs_for(later, job_id_base=9_000) \
            == ref.jobs_for(later, job_id_base=9_000)
        assert pop.touched_users == len(ref.streams)
        if params["n_users"] == 1_000_000:  # first-touch heavy indeed
            assert pop.touched_users > 0.9 * 900
        for uid in (0, params["n_users"] // 3, params["n_users"] - 1):
            prof = pop.profile(uid)
            assert (prof.mean_scale, prof.priority, prof.slack,
                    prof.best_effort) == ref.profile(uid)

    def test_jobs_deterministic_across_reset(self):
        pop = UserPopulation(n_users=10_000, seed=3)
        arrivals = PoissonArrivals(rate=1.0).sample(200, seed=0)
        jobs_a = pop.jobs_for(arrivals)
        pop.reset()
        jobs_b = pop.jobs_for(arrivals)
        assert jobs_a == jobs_b

    def test_per_user_streams_are_pure_functions(self):
        """Two populations with the same seed agree on every user's
        profile regardless of touch order."""
        p1 = UserPopulation(n_users=1_000, seed=7)
        p2 = UserPopulation(n_users=1_000, seed=7)
        for uid in (999, 0, 421):
            a, b = p1.profile(uid), p2.profile(uid)
            assert (a.mean_scale, a.priority, a.slack, a.best_effort) \
                == (b.mean_scale, b.priority, b.slack, b.best_effort)

    def test_population_is_lazy(self):
        """A million-user population only materializes touched users."""
        pop = UserPopulation(n_users=1_000_000, seed=0)
        pop.jobs_for(PoissonArrivals(rate=1.0).sample(300, seed=1))
        assert 0 < pop.touched_users <= 300

    def test_mean_service_calibrated(self):
        pop = UserPopulation(n_users=500, seed=2, mean_service=10.0,
                             skew=1.0, best_effort_fraction=0.0)
        jobs = pop.jobs_for(
            PoissonArrivals(rate=1.0).sample(20_000, seed=3)
        )
        mean = float(np.mean([j.service for j in jobs]))
        assert mean == pytest.approx(10.0, rel=0.15)

    def test_deadline_and_priority_structure(self):
        pop = UserPopulation(n_users=2_000, seed=4,
                             best_effort_fraction=0.5, n_priorities=3)
        jobs = pop.jobs_for(PoissonArrivals(rate=1.0).sample(2000, seed=5))
        be = sum(1 for j in jobs if j.deadline is None) / len(jobs)
        assert 0.3 < be < 0.7
        assert {j.priority for j in jobs} <= {0, 1, 2}
        for j in jobs:
            if j.deadline is not None:
                assert j.deadline >= j.arrival + 2.0 * j.service

    def test_describe_roundtrip(self):
        pop = UserPopulation(n_users=5_000, seed=11, skew=3.0)
        clone = UserPopulation.from_description(pop.describe())
        arrivals = PoissonArrivals(rate=1.0).sample(150, seed=0)
        assert pop.jobs_for(arrivals) == clone.jobs_for(arrivals)

    def test_validation(self):
        with pytest.raises(ValueError):
            UserPopulation(n_users=0)
        with pytest.raises(ValueError):
            UserPopulation(n_users=2**32 + 1)
        UserPopulation(n_users=2**32)  # ids up to 2**32 - 1 fit one word
        with pytest.raises(ValueError):
            UserPopulation(long_fraction=1.5)
        with pytest.raises(ValueError):
            UserPopulation(long_fraction=-0.1)
        with pytest.raises(ValueError):
            UserPopulation(skew=0.5)
        with pytest.raises(ValueError):
            UserPopulation(deadline_slack=(3.0, 2.0))
        with pytest.raises(ValueError):
            UserPopulation(best_effort_fraction=1.5)
        with pytest.raises(ValueError):
            UserPopulation().profile(10**9)

    @pytest.mark.parametrize("field, value", [
        ("long_fraction", 1.5), ("n_users", 2**32 + 1),
    ])
    def test_bad_description_rejected_before_any_draw(self, field, value):
        """A trace header with an out-of-range parameter fails when the
        population is rebuilt, not at its first draw — so a capture
        given such a population never gets to write a header-only
        trace."""
        desc = UserPopulation().describe()
        desc[field] = value
        with pytest.raises(ValueError):
            UserPopulation.from_description(desc)


class TestTrafficTrace:
    def _jobs(self, n=40):
        pop = UserPopulation(n_users=1_000, seed=0)
        return pop.jobs_for(PoissonArrivals(rate=1.0).sample(n, seed=0))

    def test_record_load_bit_exact(self, tmp_path):
        jobs = self._jobs()
        path = tmp_path / "t.trace"
        meta = {"note": "unit", "x": 1.25}
        recorded = TrafficTrace.record(path, jobs, meta=meta)
        loaded = TrafficTrace.load(path)
        assert loaded == recorded
        assert loaded.same_jobs(recorded)
        assert loaded.complete
        assert loaded.meta == meta
        # bit-exact floats, not approx: frozen-dataclass equality
        assert loaded.jobs == jobs

    def test_torn_tail_truncates(self, tmp_path):
        from repro.durable.wal import read_records

        jobs = self._jobs()
        path = tmp_path / "t.trace"
        TrafficTrace.record(path, jobs)
        raw = path.read_bytes()
        # tearing 7 bytes rips the sealed trailer: every job record
        # survives, but the trace is an unsealed prefix
        path.write_bytes(raw[:-7])
        with pytest.raises(ValueError, match="torn"):
            TrafficTrace.load(path)
        partial = TrafficTrace.load(path, strict=False)
        assert not partial.complete
        assert partial.fingerprint is None
        assert partial.jobs == jobs
        # tear into the last job frame too: the committed prefix loses
        # exactly that job
        frames = [8 + len(p) for p in read_records(path)]
        path.write_bytes(raw[: 8 + sum(frames[:-1]) + 3])
        partial = TrafficTrace.load(path, strict=False)
        assert not partial.complete
        assert len(partial) == len(jobs) - 1
        assert partial.jobs == jobs[:-1]

    def test_v1_format_compat(self, tmp_path):
        # traces recorded before the trailer format (v1: header with
        # n_jobs, job frames, no trailer) must keep loading, with the
        # old completeness rule
        import json as _json

        from repro.durable.wal import WriteAheadLog
        from repro.traffic.trace import _job_record

        jobs = self._jobs()
        path = tmp_path / "v1.trace"
        with WriteAheadLog(path, sync=False) as wal:
            header = {"format": "repro-traffic-trace", "version": 1,
                      "n_jobs": len(jobs), "meta": {"note": "legacy"}}
            wal.append(_json.dumps(header, sort_keys=True).encode())
            for job in jobs:
                wal.append(_json.dumps(_job_record(job),
                                       sort_keys=True).encode())
        loaded = TrafficTrace.load(path)
        assert loaded.complete
        assert loaded.version == 1
        assert loaded.fingerprint is None
        assert loaded.jobs == jobs
        # v1 torn semantics: fewer surviving jobs than the header
        # committed to
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(ValueError, match="torn"):
            TrafficTrace.load(path)
        partial = TrafficTrace.load(path, strict=False)
        assert not partial.complete
        assert partial.jobs == jobs[:-1]

    def test_rejects_non_trace(self, tmp_path):
        from repro.durable.wal import WriteAheadLog

        path = tmp_path / "w.wal"
        with WriteAheadLog(path) as wal:
            wal.append(b'{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a traffic trace"):
            TrafficTrace.load(path)

    def test_overwrites_previous_trace(self, tmp_path):
        path = tmp_path / "t.trace"
        TrafficTrace.record(path, self._jobs(30))
        TrafficTrace.record(path, self._jobs(10))
        assert len(TrafficTrace.load(path)) == 10


def _driver(n_gpus=4, horizon=None):
    return OpenLoopDriver(
        n_gpus=n_gpus,
        policy="fcfs",
        admission=AdmissionSpec(
            max_queue=3 * n_gpus, protect_priority=2,
            breaker_failure_threshold=3, breaker_recovery_time=40.0,
        ),
        chaos=ChaosSpec(mtbf=250.0, seed=1),
        horizon=horizon,
    )


def _population():
    return UserPopulation(n_users=20_000, seed=0, mean_service=10.0,
                          best_effort_fraction=0.3)


class TestReplayDeterminism:
    """The ISSUE's acceptance criterion: a recorded trace — Poisson
    and MMPP, with FaultInjector chaos and admission shedding active —
    replays bit-exactly: same shed decisions and reasons, same
    guard.* counters, same job completion order."""

    @pytest.mark.parametrize("process", [
        PoissonArrivals(rate=0.55),
        MMPPArrivals(quiet_rate=0.25, burst_rate=1.6,
                     mean_dwell=(12.0, 4.0)),
    ], ids=["poisson", "mmpp"])
    def test_replay_bit_exact(self, tmp_path, process):
        path = tmp_path / f"{process.kind}.trace"
        trace, recorded = record_experiment(
            path, process, _population(), _driver(), n_jobs=220,
        )
        # the run must actually exercise the paths under test
        assert recorded.result.failures > 0, "chaos never fired"
        assert recorded.shed_log, "admission never shed"
        assert recorded.guard_counters, "no guard.* counters moved"

        first, loaded = replay_experiment(path)
        second, _ = replay_experiment(path)

        assert loaded.same_jobs(trace)
        for replayed in (first, second):
            fp, ref = replayed.fingerprint(), recorded.fingerprint()
            assert fp["shed_log"] == ref["shed_log"]
            assert fp["guard_counters"] == ref["guard_counters"]
            assert fp["completions"] == ref["completions"]
            assert fp == ref
        assert [j for _, j in first.result.completions] == \
            first.result.completion_order

    def test_verify_replay_helper(self, tmp_path):
        path = tmp_path / "v.trace"
        record_experiment(path, PoissonArrivals(rate=0.5),
                          _population(), _driver(), n_jobs=120)
        report = verify_replay(path)
        assert report.result.completed > 0

    def test_latency_percentiles_exposed(self, tmp_path):
        path = tmp_path / "l.trace"
        _, rep = record_experiment(path, PoissonArrivals(rate=0.6),
                                   _population(), _driver(), n_jobs=150)
        assert 0.0 <= rep.p50_wait <= rep.p99_wait
        assert rep.p50_turnaround <= rep.p99_turnaround
        assert 0.0 < rep.shed_rate < 1.0

    def test_driver_describe_roundtrip(self):
        d = _driver()
        clone = OpenLoopDriver.from_description(d.describe())
        assert clone.describe() == d.describe()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            OpenLoopDriver(n_gpus=2, policy="lifo")


class TestCampaignCoupling:
    def test_drive_campaign_deterministic(self):
        from repro.workflow.mummi import MummiCampaign

        def run():
            camp = MummiCampaign(n_gpus=4, jobs_per_cycle=6, seed=0,
                                 steps_per_sim=1000)
            out = drive_campaign(
                camp, MMPPArrivals(quiet_rate=0.1, burst_rate=2.0,
                                   mean_dwell=(30.0, 10.0)),
                n_cycles=4, window=25.0, arrival_seed=2,
            )
            return camp, out
        camp_a, a = run()
        camp_b, b = run()
        assert [m["offered_jobs"] for m in a] == \
            [m["offered_jobs"] for m in b]
        assert [m["simulations"] for m in a] == \
            [m["simulations"] for m in b]
        assert camp_a.jobs_per_cycle == 6  # nominal restored
        # bursty arrivals actually modulate the cycle sizes
        assert len({m["offered_jobs"] for m in a}) > 1

    def test_drive_campaign_validation(self):
        from repro.workflow.mummi import MummiCampaign

        camp = MummiCampaign(n_gpus=2, jobs_per_cycle=2, seed=0,
                             steps_per_sim=500)
        with pytest.raises(ValueError):
            drive_campaign(camp, PoissonArrivals(rate=1.0),
                           n_cycles=0, window=10.0)
        with pytest.raises(ValueError):
            drive_campaign(camp, PoissonArrivals(rate=1.0),
                           n_cycles=1, window=0.0)


class TestCli:
    def test_main_smoke(self, tmp_path, capsys):
        from repro.traffic.__main__ import main

        rc = main(["--out", str(tmp_path), "--jobs", "120",
                   "--processes", "poisson,mmpp"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replay OK" in out
        assert (tmp_path / "poisson.trace").exists()
        assert (tmp_path / "mmpp.fingerprint.json").exists()


# -------------------------------------------------------------------------
# round 2: streamed generation ≡ materialized generation, bit for bit
# -------------------------------------------------------------------------


def _process_for(kind):
    return {
        "poisson": PoissonArrivals(rate=0.8),
        "mmpp": MMPPArrivals(quiet_rate=0.3, burst_rate=2.5,
                             mean_dwell=(15.0, 5.0)),
        "diurnal": DiurnalArrivals(base_rate=0.7, peak_ratio=3.0,
                                   period=120.0),
    }[kind]


class TestStreams:
    """`ArrivalProcess.stream()` + `UserPopulation.stream_jobs()` must
    be bit-exact with the materialized `sample()`/`jobs_for()` path —
    that equivalence is what makes a streamed capture replayable
    against a materialized trace at all."""

    @given(
        kind=st.sampled_from(["poisson", "mmpp", "diurnal"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=120),
    )
    @settings(max_examples=40, deadline=None)
    def test_stream_times_match_sample(self, kind, seed, n):
        proc = _process_for(kind)
        streamed = list(itertools.islice(proc.stream(seed), n))
        assert streamed == proc.sample(n, seed=seed).tolist()

    @given(
        kind=st.sampled_from(["poisson", "mmpp"]),
        seed=st.integers(min_value=0, max_value=999),
        n=st.integers(min_value=1, max_value=700),
    )
    # stream_jobs works in batches of STREAM_BATCH (256) arrivals: pin
    # both sides of the first boundary and a run past the second
    @example(kind="poisson", seed=1, n=256)
    @example(kind="mmpp", seed=2, n=257)
    @example(kind="poisson", seed=3, n=600)
    @settings(max_examples=15, deadline=None)
    def test_stream_jobs_match_jobs_for(self, kind, seed, n):
        proc = _process_for(kind)
        times = proc.sample(n, seed=seed)
        # fresh populations: job draws advance per-user RNG state, so
        # the two paths must each start from the seeded origin
        materialized = _population().jobs_for(times)
        streamed = list(itertools.islice(
            _population().stream_jobs(proc.stream(seed)), n
        ))
        assert streamed == materialized

    def test_stream_jobs_reads_less_than_a_batch_ahead(self):
        from repro.traffic.population import STREAM_BATCH

        read = []

        def times():
            for t in PoissonArrivals(rate=1.0).stream(0):
                read.append(t)
                yield t

        stream = _population().stream_jobs(times())
        yielded = 0
        for n in (1, STREAM_BATCH - 1, 1, STREAM_BATCH, 3):
            yielded += len(list(itertools.islice(stream, n)))
            assert yielded <= len(read) <= yielded + STREAM_BATCH - 1

    def test_streamed_run_matches_materialized_truncation(self):
        """A horizon-bounded streamed session must produce the same
        fingerprint as a materialized run over the horizon-truncated
        job list — chaos, admission, and the breaker all active."""
        horizon = 300.0
        proc = PoissonArrivals(rate=0.6)
        streamed = _driver(horizon=horizon).run_stream(
            _population().stream_jobs(proc.stream(7))
        )
        times = proc.sample(1000, seed=7)
        jobs = _population().jobs_for(times[times <= horizon])
        materialized = _driver(horizon=horizon).run(jobs)
        assert streamed.fingerprint() == materialized.fingerprint()
        assert streamed.result.completed > 0

    def test_run_stream_requires_horizon(self):
        with pytest.raises(ValueError):
            _driver().run_stream(iter([]))

    def test_streamed_session_not_checkpointable(self):
        from repro.sched.policies import Fcfs
        from repro.sched.simulator import SimulatorSession

        pop = _population()
        ses = SimulatorSession(
            2, None, policy=Fcfs(), horizon=50.0,
            stream=pop.stream_jobs(PoissonArrivals(rate=1.0).stream(0)),
        )
        with pytest.raises(RuntimeError, match="not checkpointable"):
            ses.checkpoint_state()


class TestWindowCounts:
    """Satellite fix: campaign windowing uses half-open bins
    ``[k*w, (k+1)*w)`` — an arrival exactly on an interior boundary
    belongs to the *next* window, and one at/past the horizon is
    excluded instead of being lumped into the last cycle."""

    def test_half_open_bins(self):
        from repro.traffic.driver import _window_counts

        arrivals = np.array([0.0, 3.0, 9.999, 10.0, 15.0, 19.0, 20.0])
        counts = _window_counts(arrivals, n_cycles=2, window=10.0)
        # 20.0 == horizon is excluded; 10.0 lands in the second bin
        assert counts.tolist() == [3, 3]

    def test_past_horizon_excluded(self):
        from repro.traffic.driver import _window_counts

        arrivals = np.array([1.0, 25.0, 31.0])
        counts = _window_counts(arrivals, n_cycles=3, window=10.0)
        assert counts.tolist() == [1, 0, 1]

    def test_boundary_regression_vs_histogram(self):
        """np.histogram with range=(0, horizon) treats the last bin as
        closed on the right, so an arrival at exactly t == horizon was
        lumped into the final cycle — the exact bug the half-open
        rewrite fixes."""
        from repro.traffic.driver import _window_counts

        arrivals = np.array([5.0, 10.0, 20.0])
        old, _ = np.histogram(arrivals, bins=2, range=(0.0, 20.0))
        assert old.tolist() == [1, 2]  # 20.0 double-dips the last bin
        new = _window_counts(arrivals, n_cycles=2, window=10.0)
        assert new.tolist() == [1, 1]


# -------------------------------------------------------------------------
# round 2: live capture — incremental WAL frames, sealed trailer,
# SIGKILL mid-capture leaves a loadable committed prefix
# -------------------------------------------------------------------------


class TestCapture:
    def test_batch_capture_sealed_and_replayable(self, tmp_path):
        from repro.traffic import capture_experiment

        path = tmp_path / "batch.trace"
        trace, report = capture_experiment(
            path, PoissonArrivals(rate=0.55), _population(), _driver(),
            n_jobs=150,
        )
        assert trace.complete
        assert trace.fingerprint == report.fingerprint()
        assert trace.meta["mode"] == "batch"
        # decision frames captured alongside the jobs
        kinds = {d["d"] for d in trace.decisions}
        assert "complete" in kinds
        verify_replay(path)

    def test_stream_capture_sealed_and_replayable(self, tmp_path):
        from repro.traffic import capture_experiment

        path = tmp_path / "stream.trace"
        trace, report = capture_experiment(
            path, PoissonArrivals(rate=0.6), _population(),
            _driver(horizon=250.0),
        )
        assert trace.complete
        assert trace.meta["mode"] == "stream"
        assert trace.fingerprint == report.fingerprint()
        # the streamed capture replays bit-exactly as a materialized
        # trace — including regeneration from the header config
        verify_replay(path)

    def test_capture_load_is_non_destructive(self, tmp_path):
        """Loading a torn capture must never truncate it on disk —
        the committed prefix is crash evidence, not a scratch file."""
        from repro.traffic import capture_experiment

        path = tmp_path / "torn.trace"
        capture_experiment(path, PoissonArrivals(rate=0.55),
                           _population(), _driver(), n_jobs=60)
        raw = path.read_bytes()
        path.write_bytes(raw[:-11])  # tear the trailer frame
        before = path.read_bytes()
        with pytest.raises(ValueError, match="torn trace"):
            TrafficTrace.load(path)
        partial = TrafficTrace.load(path, strict=False)
        assert not partial.complete and partial.fingerprint is None
        assert path.read_bytes() == before

    def test_sigkill_mid_capture_leaves_loadable_prefix(self, tmp_path):
        """Kill a live capture with SIGKILL; the committed prefix must
        load under strict=False and replay deterministically."""
        path = tmp_path / "killed.trace"
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get(
            "PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.traffic", "capture",
             "--out", str(path), "--horizon", "200000", "--rate", "2.0",
             "--gpus", "2", "--flush-every", "1"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if path.exists() and path.stat().st_size > 20_000:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("capture subprocess produced no frames")
        finally:
            proc.kill()
            proc.wait()
        with pytest.raises(ValueError, match="torn trace"):
            TrafficTrace.load(path)
        partial = TrafficTrace.load(path, strict=False)
        assert not partial.complete
        assert partial.fingerprint is None
        assert len(partial.jobs) > 0
        # the prefix replays deterministically under its own config
        from repro.traffic.driver import OpenLoopDriver

        driver_desc = partial.meta["driver"]
        a = OpenLoopDriver.from_description(driver_desc).run(partial.jobs)
        b = OpenLoopDriver.from_description(driver_desc).run(partial.jobs)
        assert a.fingerprint() == b.fingerprint()


# -------------------------------------------------------------------------
# round 2: A/B differential replay
# -------------------------------------------------------------------------


class TestAbReplay:
    def _record(self, tmp_path):
        path = tmp_path / "ab.trace"
        record_experiment(path, PoissonArrivals(rate=0.55),
                          _population(), _driver(), n_jobs=220)
        return path

    def test_same_config_identical_fingerprint(self, tmp_path):
        from repro.traffic import ABVariant, ab_replay

        path = self._record(tmp_path)
        report = ab_replay(path, [ABVariant("same", {})])
        assert report.fingerprint_matched is True
        assert report.self_consistent and not report.diverged
        same = report.variants[0]
        assert all(same["deltas"][k] == 0 for k in
                   ("completed", "shed", "dropped", "failures"))
        assert same["deltas"]["p99_wait"] == 0.0
        assert same["deltas"]["p50_turnaround"] == 0.0

    def test_fifo_vs_priority_diff_has_expected_sign(self, tmp_path):
        """SJF finishes short jobs early (p50 turnaround drops, fewer
        sheds) but starves the long tail: p99 wait must go *up*
        relative to the FIFO baseline."""
        from repro.traffic import ABVariant, ab_replay

        path = self._record(tmp_path)
        report = ab_replay(path, [
            ABVariant("sjf", {"policy": "sjf"}),
            ABVariant("half_gpus", {"n_gpus": 2}),
        ])
        assert not report.diverged
        sjf, half = report.variants
        assert sjf["deltas"]["p99_wait"] > 0
        assert sjf["deltas"]["p50_turnaround"] < 0
        assert sjf["deltas"]["shed_rate"] < 0
        # halving the machine sheds more and completes less
        assert half["deltas"]["shed_rate"] > 0
        assert half["deltas"]["completed"] < 0
        rendered = report.render()
        assert "baseline" in rendered and "sjf" in rendered

    def test_unknown_override_raises(self, tmp_path):
        from repro.traffic import ABVariant, ab_replay

        path = self._record(tmp_path)
        with pytest.raises(ValueError, match="unknown driver override"):
            ab_replay(path, [ABVariant("typo", {"polcy": "sjf"})])

    def test_report_round_trips_to_json(self, tmp_path):
        from repro.traffic import ABVariant, ab_replay

        path = self._record(tmp_path)
        report = ab_replay(path, [ABVariant("sjf", {"policy": "sjf"})])
        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["fingerprint_matched"] is True
        assert blob["variants"][0]["name"] == "sjf"


class TestCaptureCli:
    def test_capture_then_ab_subcommands(self, tmp_path, capsys):
        from repro.traffic.__main__ import main

        path = tmp_path / "live.trace"
        rc = main(["capture", "--out", str(path), "--jobs", "120",
                   "--rate", "0.6"])
        assert rc == 0
        assert "sealed" in capsys.readouterr().out
        out_json = tmp_path / "ab.json"
        rc = main(["ab", str(path),
                   "--variant", "sjf:policy=sjf",
                   "--variant", "big:n_gpus=8",
                   "--json", str(out_json)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "A/B replay" in captured
        blob = json.loads(out_json.read_text())
        assert blob["fingerprint_matched"] is True
        assert {v["name"] for v in blob["variants"]} == {"sjf", "big"}

    def test_ab_default_variants_and_streamed_capture(
            self, tmp_path, capsys):
        from repro.traffic.__main__ import main

        path = tmp_path / "stream.trace"
        rc = main(["capture", "--out", str(path), "--horizon", "250",
                   "--rate", "0.6"])
        assert rc == 0
        rc = main(["ab", str(path)])
        assert rc == 0
        assert "matches the sealed trailer" in capsys.readouterr().out

    def test_ab_exits_2_on_torn_trace_without_allow_torn(
            self, tmp_path, capsys):
        from repro.traffic.__main__ import main

        path = tmp_path / "torn.trace"
        rc = main(["capture", "--out", str(path), "--jobs", "60"])
        assert rc == 0
        capsys.readouterr()
        path.write_bytes(path.read_bytes()[:-11])
        assert main(["ab", str(path)]) == 2
        assert main(["ab", str(path), "--allow-torn"]) == 0
