"""Tests for the open-loop traffic layer: arrival processes, the
simulated user population, trace record/replay, and the driver's
bit-exact replay contract (shed reasons, guard counters, completion
order) with chaos and admission shedding active."""

import hashlib
import itertools
import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.durable.wal import WriteAheadLog, read_records
from repro.sched.simulator import Job
from repro.sched.workloads import draw_services, jobs_from_arrivals
from repro.traffic import (
    AdmissionSpec,
    CaptureTap,
    ChaosSpec,
    DiurnalArrivals,
    MMPPArrivals,
    OpenLoopDriver,
    PoissonArrivals,
    TraceWriter,
    TrafficTrace,
    UserPopulation,
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

    @pytest.mark.parametrize(
        "proc, first7, draw_after7, t600, draw_after600", [
        (MMPPArrivals(quiet_rate=0.25, burst_rate=1.6,
                      mean_dwell=(12.0, 4.0)),
         [2.15322803136924, 2.827974409519328, 3.693073950995636,
          4.011466816124059, 4.520819449966427, 5.155957075522336,
          5.236946258945998],
         0.7880395945039919, 1075.4874252511477, 0.16997999956031995),
        (DiurnalArrivals(base_rate=0.4, peak_ratio=4.0, period=100.0),
         [0.8450000703236182, 0.9624945916978209, 1.996373593621279,
          7.90758685369397, 9.435486446715, 11.811463892033954,
          12.021060400340762],
         0.46890816342248465, 600.4489885104689, 0.5694359999963304),
        ], ids=["mmpp", "diurnal"])
    def test_times_golden(self, proc, first7, draw_after7, t600,
                          draw_after600):
        """``times`` is the first n values of ``times_iter`` and leaves
        the Generator where the hand-written loops it replaced did:
        values and the next draw after them pinned from those loops
        (seed 11)."""
        rng = np.random.default_rng(11)
        assert proc.times(7, rng).tolist() == first7
        assert rng.random() == draw_after7
        rng = np.random.default_rng(11)
        out = proc.times(600, rng)
        assert out.dtype == np.float64 and out.shape == (600,)
        assert out[:7].tolist() == first7 and out[-1] == t600
        assert rng.random() == draw_after600


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


def _json_record(job):
    """A job as the one-frame JSON record of trace versions 1 and 2."""
    rec = {"id": job.job_id, "arrival": job.arrival,
           "service": job.service, "is_long": job.is_long,
           "priority": job.priority, "deadline": job.deadline}
    if job.tenant is not None:
        rec["tenant"] = job.tenant
    return rec


def _write_json_trace(path, version, jobs, meta, fingerprint=None):
    """A version 1 or 2 trace laid out as those writers did: a header,
    one JSON frame per job and, from version 2, a sealed trailer."""
    frames = [{"format": "repro-traffic-trace", "version": version,
               "n_jobs": len(jobs), "meta": meta}]
    frames += [_json_record(job) for job in jobs]
    if version >= 2:
        frames.append({"trailer": {"n_jobs": len(jobs),
                                   "fingerprint": fingerprint}})
    with WriteAheadLog(path, sync=False) as wal:
        for frame in frames:
            wal.append(json.dumps(frame, sort_keys=True).encode())


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
        jobs = self._jobs(150)
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
        # header, batch frames of 64, 64 and 22 jobs, trailer: tear
        # into the last batch frame too, and the committed prefix
        # loses exactly that batch's jobs
        frames = [8 + len(p) for p in read_records(path)]
        assert len(frames) == 4
        path.write_bytes(raw[: 8 + sum(frames[:-1]) + 3])
        partial = TrafficTrace.load(path, strict=False)
        assert not partial.complete
        assert partial.jobs == jobs[:128]

    def test_v2_torn_tail_truncates(self, tmp_path):
        """A version 2 trace keeps its one-frame-per-job torn rule."""
        jobs = self._jobs()
        path = tmp_path / "v2.trace"
        _write_json_trace(path, 2, jobs, {"note": "v2"},
                          fingerprint={"completed": 1})
        loaded = TrafficTrace.load(path)
        assert loaded.version == 2 and loaded.complete
        assert loaded.jobs == jobs and loaded.fingerprint == {"completed": 1}
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(ValueError, match="torn"):
            TrafficTrace.load(path)
        partial = TrafficTrace.load(path, strict=False)
        assert not partial.complete and partial.fingerprint is None
        assert partial.jobs == jobs
        # tear into the last job frame: the prefix loses exactly that job
        frames = [8 + len(p) for p in read_records(path)]
        path.write_bytes(raw[: 8 + sum(frames[:-1]) + 3])
        partial = TrafficTrace.load(path, strict=False)
        assert partial.jobs == jobs[:-1]

    def test_v1_format_compat(self, tmp_path):
        # traces recorded before the trailer format (v1: header with
        # n_jobs, job frames, no trailer) must keep loading, with the
        # old completeness rule
        jobs = self._jobs()
        path = tmp_path / "v1.trace"
        _write_json_trace(path, 1, jobs, {"note": "legacy"})
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


class TestGroupCommittedRecord:
    """``TrafficTrace.record`` holds every job up front, so it writes
    them in one group commit and the trailer after it."""

    _jobs = TestTrafficTrace._jobs
    _fingerprint = {"completed": 3, "shed_log": [[1, "queue_saturated"]]}

    def test_sync_bytes_match_per_frame_writer(self, tmp_path,
                                               fsync_calls):
        jobs = self._jobs(150)
        meta = {"note": "group", "x": 0.1}

        def per_record(path, sync):
            writer = TraceWriter(path, meta=meta, n_jobs=len(jobs),
                                 sync=sync)
            for job in jobs:
                writer.append_job(job)
            writer.seal(self._fingerprint)

        # unsynced, both pack 64 jobs per frame: the same bytes
        TrafficTrace.record(tmp_path / "batch.trace", jobs, meta=meta,
                            fingerprint=self._fingerprint)
        per_record(tmp_path / "frames.trace", sync=False)
        assert (tmp_path / "batch.trace").read_bytes() \
            == (tmp_path / "frames.trace").read_bytes()
        # synced, a live append is a one-record frame while the group
        # commit still packs 64: the same trace, fewer fsyncs
        fsync_calls[0] = 0
        TrafficTrace.record(tmp_path / "batch-sync.trace", jobs,
                            meta=meta, sync=True,
                            fingerprint=self._fingerprint)
        assert fsync_calls[0] == 5
        fsync_calls[0] = 0
        per_record(tmp_path / "frames-sync.trace", sync=True)
        # file + directory entry, header, each job, the trailer
        assert fsync_calls[0] == 4 + len(jobs)
        batch = TrafficTrace.load(tmp_path / "batch-sync.trace")
        frames = TrafficTrace.load(tmp_path / "frames-sync.trace")
        assert batch.jobs == frames.jobs == jobs
        assert batch.meta == frames.meta == meta
        assert batch.fingerprint == frames.fingerprint == self._fingerprint
        assert (tmp_path / "batch-sync.trace").read_bytes() \
            == (tmp_path / "batch.trace").read_bytes()

    def test_sync_fsyncs_independent_of_job_count(self, tmp_path,
                                                  fsync_calls):
        counts = []
        for n in (10, 1000):
            fsync_calls[0] = 0
            TrafficTrace.record(tmp_path / f"{n}.trace", self._jobs(n),
                                sync=True)
            counts.append(fsync_calls[0])
            assert len(TrafficTrace.load(tmp_path / f"{n}.trace")) == n
        # file + directory entry, header, the job batch, the trailer
        assert counts == [5, 5]

    def test_live_sync_capture_stays_per_frame(self, tmp_path,
                                               fsync_calls):
        jobs = self._jobs(20)
        tap = CaptureTap(tmp_path / "live.trace", n_jobs=len(jobs),
                         sync=True, decisions=False)
        for job in jobs:
            tap.on_job(job)
        assert fsync_calls[0] == 3 + len(jobs)  # create, header, each frame
        tap.seal({"completed": len(jobs)})
        tap.close()
        # one more for the trailer; flush/close owe nothing after it
        assert fsync_calls[0] == 4 + len(jobs)
        assert TrafficTrace.load(tmp_path / "live.trace").jobs == jobs


INT64 = st.integers(-2**63, 2**63 - 1)
#: non-negative floats the Job accepts, -0.0, subnormals and
#: infinity included
TIMES = st.one_of(st.just(-0.0), st.just(5e-324),
                  st.floats(min_value=0.0, allow_nan=False))


@st.composite
def _job(draw):
    return Job(
        job_id=draw(INT64),
        arrival=draw(TIMES),
        service=draw(st.one_of(
            st.just(5e-324), st.just(1.7976931348623157e308),
            st.floats(min_value=0.0, exclude_min=True, allow_nan=False),
        )),
        is_long=draw(st.booleans()),
        priority=draw(INT64),
        deadline=draw(st.one_of(st.none(), st.floats(
            min_value=0.0, exclude_min=True, allow_nan=False))),
        tenant=draw(st.one_of(st.none(), st.just(""), st.just("tenänt-é"),
                              st.text(max_size=8))),
    )


@st.composite
def _records(draw):
    """Jobs and decisions interleaved: ``("job", Job)`` or
    ``("decision", (kind, t, id))``."""
    out = []
    for _ in range(draw(st.integers(0, 24))):
        if draw(st.booleans()):
            out.append(("job", draw(_job())))
        else:
            out.append(("decision", (
                draw(st.one_of(st.sampled_from(["shed", "complete",
                                                "fault"]),
                               st.text(max_size=6))),
                draw(st.floats(allow_nan=False)),
                draw(INT64),
            )))
    return out


def _bits(jobs):
    """Each job's fields, floats by their bits (``-0.0 != 0.0``)."""
    def exact(x):
        return None if x is None else struct.pack("<d", x)

    return [(j.job_id, exact(j.arrival), exact(j.service), j.is_long,
             j.priority, exact(j.deadline), j.tenant) for j in jobs]


class TestTraceV3:
    """Version 3: jobs and decisions packed into one CRC frame per
    ``flush_every`` records."""

    _jobs = TestTrafficTrace._jobs

    @settings(max_examples=60, deadline=None)
    @given(records=_records(), flush_every=st.integers(1, 5))
    @example(records=[
        ("job", Job(-2**63, -0.0, 5e-324, True, 2**63 - 1, None, "é")),
        ("decision", ("shed", -0.0, 2**63 - 1)),
        ("job", Job(2**63 - 1, 1e308, float("inf"), False, -2**63,
                    5e-324, "")),
        ("decision", ("", 0.5, -2**63)),
    ], flush_every=1)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, records,
                                     flush_every):
        """Record, capture and per-record writes all load back ``==``
        jobs (bit for bit) and decisions equal to a version 2 load."""
        root = tmp_path_factory.mktemp("v3")
        jobs = [r for kind, r in records if kind == "job"]
        decisions = [{"d": r[0], "id": r[2], "t": r[1]}
                     for kind, r in records if kind == "decision"]
        TrafficTrace.record(root / "record.trace", jobs,
                            fingerprint={"n": len(jobs)})
        tap = CaptureTap(root / "capture.trace", flush_every=flush_every)
        for kind, rec in records:
            if kind == "job":
                tap.on_job(rec)
            else:
                tap.on_decision(*rec)
        tap.seal({"n": len(jobs)})
        tap.close()
        recorded = TrafficTrace.load(root / "record.trace")
        captured = TrafficTrace.load(root / "capture.trace")
        for trace in (recorded, captured):
            assert trace.version == 3 and trace.complete
            assert trace.jobs == jobs
            assert _bits(trace.jobs) == _bits(jobs)
            assert trace.fingerprint == {"n": len(jobs)}
        assert captured.decisions == decisions
        assert [list(d) for d in captured.decisions] \
            == [["d", "id", "t"]] * len(decisions)
        assert [struct.pack("<d", d["t"]) for d in captured.decisions] \
            == [struct.pack("<d", d["t"]) for d in decisions]

    def test_every_cut_keeps_whole_batches(self, tmp_path):
        """Cut a v3 trace at every byte: the lenient load holds exactly
        the records of the batch frames before the cut, and the strict
        load raises."""
        jobs = self._jobs(11)
        records = []  # jobs and decisions in append order
        path = tmp_path / "whole.trace"
        writer = TraceWriter(path, meta={"case": "cut"},
                             n_jobs=len(jobs), flush_every=4)
        for k, job in enumerate(jobs):
            writer.append_job(job)
            records.append(job)
            if k % 3 == 0:
                writer.append_decision("shed", job.arrival, job.job_id)
                records.append({"d": "shed", "id": job.job_id,
                                "t": job.arrival})
        writer.seal({"completed": 0})
        whole = path.read_bytes()
        sizes = [8 + len(p) for p in read_records(path)]
        # header, ceil(15 / 4) batch frames, trailer
        assert len(sizes) == 1 + 4 + 1
        ends = list(itertools.accumulate(sizes, initial=8))[1:]
        cut_path = tmp_path / "cut.trace"
        for cut in range(len(whole)):
            cut_path.write_bytes(whole[:cut])
            with pytest.raises(ValueError):
                TrafficTrace.load(cut_path)
            if cut < ends[0]:
                continue  # no whole header: not a trace
            batches = sum(end <= cut for end in ends[1:-1])
            kept = records[:4 * batches]
            prefix = TrafficTrace.load(cut_path, strict=False)
            assert not prefix.complete and prefix.fingerprint is None
            assert prefix.jobs == [r for r in kept if isinstance(r, Job)]
            assert prefix.decisions == [r for r in kept
                                        if isinstance(r, dict)]

    @pytest.mark.parametrize("bad", [
        {"job_id": 2**63}, {"job_id": -2**63 - 1},
        {"priority": 2**63}, {"priority": -2**63 - 1},
        {"tenant": 7}, {"tenant": ("a",)}, {"tenant": "x" * 65536},
        {"tenant": "new", "job_id": 2**63},
    ])
    def test_unfit_record_raises_and_writes_nothing(self, tmp_path, bad):
        jobs = self._jobs(100)
        base = jobs[70]
        # bypass the constructor's checks: the writer must refuse what
        # the layout cannot hold, not rely on the Job being valid
        wrong = Job(base.job_id, base.arrival, base.service, base.is_long,
                    base.priority, base.deadline, base.tenant)
        for name, value in bad.items():
            object.__setattr__(wrong, name, value)
        poisoned = jobs[:70] + [wrong] + jobs[71:]
        # a group commit refuses the whole call and leaves the writer
        # as it was
        for sync in (False, True):
            paths = []
            for poison in (True, False):
                path = tmp_path / f"{poison}-{sync}.trace"
                writer = TraceWriter(path, n_jobs=len(jobs), sync=sync)
                writer.append_jobs(jobs[:5])
                writer.append_job(jobs[5])
                before = path.read_bytes()
                if poison:
                    with pytest.raises(ValueError):
                        writer.append_jobs(poisoned)
                    assert path.read_bytes() == before
                    assert writer.n_jobs == 6
                writer.append_jobs(jobs[6:])
                writer.seal(None)
                paths.append(path)
            assert TrafficTrace.load(paths[0]).jobs == jobs
            assert paths[0].read_bytes() == paths[1].read_bytes()
        path = tmp_path / "record.trace"
        with pytest.raises(ValueError):
            TrafficTrace.record(path, poisoned)
        with pytest.raises(ValueError, match="no sealed trailer"):
            TrafficTrace.load(path)
        # a live append raises where its batch is packed: nothing of
        # that batch reaches the file, the batches before it do, and
        # the trace never loads as complete
        tap = CaptureTap(tmp_path / "tap.trace", flush_every=4)
        for job in jobs[:8] + [wrong] + jobs[8:10]:
            tap.on_job(job)
        before = (tmp_path / "tap.trace").read_bytes()
        with pytest.raises(ValueError):
            tap.on_job(jobs[10])
        assert (tmp_path / "tap.trace").read_bytes() == before
        tap.on_job(jobs[11])
        tap.seal(None)
        with pytest.raises(ValueError, match="torn"):
            TrafficTrace.load(tmp_path / "tap.trace")
        prefix = TrafficTrace.load(tmp_path / "tap.trace", strict=False)
        assert prefix.jobs == jobs[:8] + jobs[11:12]
        # with sync the bad append itself raises
        writer = TraceWriter(tmp_path / "sync.trace", sync=True)
        before = (tmp_path / "sync.trace").read_bytes()
        with pytest.raises(ValueError):
            writer.append_job(wrong)
        assert (tmp_path / "sync.trace").read_bytes() == before
        writer.close()

    @pytest.mark.parametrize("args", [
        (None, 1.0, 1), (["shed"], 1.0, 1), ("shed", 1.0, 2**63),
        ("shed", "1.0", 1), ("k" * 65536, 1.0, 1),
    ])
    def test_unfit_decision_raises(self, tmp_path, args):
        writer = TraceWriter(tmp_path / "d.trace", flush_every=1)
        before = (tmp_path / "d.trace").read_bytes()
        with pytest.raises(ValueError):
            writer.append_decision(*args)
        assert (tmp_path / "d.trace").read_bytes() == before
        writer.close()

    @pytest.mark.parametrize("flush_every", [1, 7, 64, 1000])
    def test_write_paths_give_identical_bytes(self, tmp_path, flush_every):
        """A per-record loop, ``append_jobs`` and a live
        ``decisions=False`` tap on a real run write the same bytes."""
        jobs = generate_jobs(PoissonArrivals(rate=0.55), _population(),
                             150)
        tap = CaptureTap(tmp_path / "tap.trace", n_jobs=len(jobs),
                         decisions=False, flush_every=flush_every)
        fingerprint = _driver().run(jobs, tap=tap).fingerprint()
        tap.seal(fingerprint)
        tap.close()

        def written(name, write):
            writer = TraceWriter(tmp_path / name, n_jobs=len(jobs),
                                 flush_every=flush_every)
            write(writer)
            writer.seal(fingerprint)
            return (tmp_path / name).read_bytes()

        loop = written("loop.trace",
                       lambda w: [w.append_job(job) for job in jobs])
        group = written("group.trace", lambda w: w.append_jobs(jobs))
        split = written("split.trace", lambda w: (
            w.append_jobs(jobs[:33]), w.append_job(jobs[33]),
            w.append_jobs(jobs[34:])))
        assert loop == group == split == (tmp_path / "tap.trace").read_bytes()
        assert len(list(read_records(tmp_path / "loop.trace"))) \
            == 2 + -(-len(jobs) // flush_every)

    def test_v3_trace_is_smaller_than_json_frames(self, tmp_path):
        jobs = self._jobs(200)
        TrafficTrace.record(tmp_path / "v3.trace", jobs)
        _write_json_trace(tmp_path / "v2.trace", 2, jobs, {})
        assert (tmp_path / "v3.trace").stat().st_size \
            < (tmp_path / "v2.trace").stat().st_size / 2


DATA = Path(__file__).resolve().parent / "data"


def _jobs_digest(jobs):
    rows = [[j.job_id, j.arrival.hex(), j.service.hex(), j.is_long,
             j.priority, None if j.deadline is None else j.deadline.hex(),
             j.tenant] for j in jobs]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


class TestV2Fixtures:
    """Traces the version 2 writer wrote keep loading and replaying.

    ``v2_capture.trace``: ``capture_experiment`` of 40 Poisson (rate
    0.3, arrival seed 3) jobs from a 2,000-user population (seed 3) on
    2 GPUs, breaker admission (queue 4) and chaos (MTBF 60, seed 3),
    decisions on.  ``v2_incident.trace``: ``record_incident`` of
    ``multitenant_pileup(n_gpus=4, n_compliant=2, noisy_factor=4.0,
    n_jobs_per_tenant=10, seed=5, window=10.0)``.  Digests were taken
    when the fixtures were written.
    """

    PINS = {
        "v2_capture.trace": (
            40, 44,
            "da5bc37651805a0d3eb10a22127522cee6813b912611344c08a5eed319427c60",
            "365d2748ea173d2e3cb93b6b0880849631d763375e9fbc735a2ab3cde0e677b6",
        ),
        "v2_incident.trace": (
            30, 0,
            "3b8a3bb3d4e9e307d3a7c9bffcde06a1b1dc70453902d292068bd12c5158b84f",
            "35841fcbc060087d8527f0020d17e749f633720ed87a2a22fca8332b828391e3",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_fixture_loads_and_replays(self, name):
        n_jobs, n_decisions, jobs_digest, fp_digest = self.PINS[name]
        trace = TrafficTrace.load(DATA / name)
        assert trace.version == 2 and trace.complete
        assert len(trace.jobs) == n_jobs
        assert len(trace.decisions) == n_decisions
        assert _jobs_digest(trace.jobs) == jobs_digest
        assert _digest(trace.fingerprint) == fp_digest
        assert verify_replay(DATA / name).fingerprint() == trace.fingerprint


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
