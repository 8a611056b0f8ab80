"""Tests for the durable crash-restart core (``repro.durable``).

The load-bearing contract: a campaign journaling into a
:class:`DurableStore` can be SIGKILLed at any instant and a restarted
process resumes **bit-exactly** — same final state, same RNG draws,
same observability counters as an uninterrupted run.  Plus the WAL's
framing guarantees (CRC, torn-tail truncation, atomic rotation), the
idempotent snapshot+journal recovery protocol, and the crash
surfacing hardening in ``map_fanout``.
"""

import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.durable import (
    DurableStore,
    ResumableCampaign,
    WriteAheadLog,
    state_mismatches,
)
from repro.durable.chaos import run_chaos
from repro.durable.wal import MAGIC, read_records
from repro.obs import metrics as metrics_mod
from repro.obs.validate import DivergenceError
from repro.par import WorkerCrashError, map_fanout
from repro.resilience.checkpoint import atomic_write_bytes
from repro.util.state import APPEND, Field, Stateful, Tail, saved_lengths


# -- top-level fns for process workers (pickling/forking) ------------------


def _die_on_five(x):
    if x == 5:
        os._exit(21)
    return x


def _die_late(x):
    if x == 12:
        time.sleep(0.5)
        os._exit(21)
    return x


# -------------------------------------------------------------------------
# WriteAheadLog
# -------------------------------------------------------------------------


class TestWriteAheadLog:
    def test_round_trip_and_reopen(self, tmp_path):
        path = tmp_path / "j.wal"
        payloads = [b"alpha", b"", b"x" * 10_000, pickle.dumps({"k": 1})]
        with WriteAheadLog(path) as wal:
            for p in payloads:
                wal.append(p)
            assert wal.records() == payloads
        with WriteAheadLog(path) as wal:
            assert wal.records_on_open == len(payloads)
            assert wal.truncated_bytes == 0
            assert wal.records() == payloads

    def test_empty_wal_recovers_to_nothing(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            assert wal.records() == []
        with WriteAheadLog(path) as wal:
            assert wal.records_on_open == 0
            assert wal.records() == []

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            wal.append(b"committed-1")
            wal.append(b"committed-2")
        intact = path.stat().st_size
        # simulate a crash mid-append: half a frame at the tail
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x10\x00garbage")
        torn = path.stat().st_size - intact
        with WriteAheadLog(path) as wal:
            assert wal.truncated_bytes == torn
            assert path.stat().st_size == intact
            assert wal.records() == [b"committed-1", b"committed-2"]

    def test_corrupt_crc_drops_tail(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            wal.append(b"good")
            wal.append(b"to-corrupt")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip a payload byte of the last record
        path.write_bytes(bytes(raw))
        with WriteAheadLog(path) as wal:
            assert wal.records() == [b"good"]

    def test_headerless_file_is_reheadered(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_bytes(b"not-a-wal")
        with WriteAheadLog(path) as wal:
            assert wal.records() == []
            wal.append(b"fresh")
            assert wal.records() == [b"fresh"]
        assert path.read_bytes().startswith(MAGIC)

    def test_zero_byte_file_is_reheadered(self, tmp_path):
        # a crash between create and header write leaves zero bytes:
        # nothing to truncate, but the header is still owed
        path = tmp_path / "j.wal"
        path.write_bytes(b"")
        with WriteAheadLog(path, sync=False) as wal:
            assert (wal.truncated_bytes, wal.records_on_open) == (0, 0)
            wal.append(b"fresh")
        assert path.read_bytes().startswith(MAGIC)
        assert list(read_records(path)) == [b"fresh"]

    def test_rotation_empties_atomically(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            wal.append(b"old-1")
            wal.append(b"old-2")
            wal.rotate()
            assert wal.records() == []
            wal.append(b"new-1")
            assert wal.records() == [b"new-1"]
        assert not list(tmp_path.glob("*.rotate"))

    def test_rotation_truncates_in_place(self, tmp_path, fsync_calls):
        """Rotation cuts the open file back to its magic header: the
        same file, one fsync with ``sync=True``, and appends after it
        land right behind the header."""
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            wal.append(b"old-1")
            inode = os.stat(path).st_ino
            fsync_calls[0] = 0
            wal.rotate()
            assert fsync_calls[0] == 1
            assert path.read_bytes() == MAGIC
            assert os.stat(path).st_ino == inode
            wal.append(b"new-1")
        with WriteAheadLog(path) as wal:
            assert (wal.truncated_bytes, wal.records()) == (0, [b"new-1"])
            wal.close()
            with pytest.raises(RuntimeError):
                wal.rotate()

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "j.wal")
        wal.close()
        with pytest.raises(RuntimeError):
            wal.append(b"x")

    def test_bit_rotted_length_ends_prefix_without_allocating(
        self, tmp_path
    ):
        """A length field whose high byte rotted to 0x7F declares a
        ~2 GiB frame: both scans must stop at the frame before it
        instead of asking ``read`` for the declared length."""
        import tracemalloc

        path = tmp_path / "rot.wal"
        with WriteAheadLog(path, sync=False) as wal:
            for k in range(3):
                wal.append(bytes([k]) * 100)
        assert path.stat().st_size == 332
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC) + 108] = 0x7F  # second frame's length, high byte
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            assert list(read_records(path)) == [bytes(100)]
            with WriteAheadLog(path, sync=False) as wal:
                assert wal.records_on_open == 1
                assert wal.truncated_bytes == 332 - 116
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert path.stat().st_size == 116
        assert list(read_records(path)) == [bytes(100)]


_payloads = st.lists(st.binary(max_size=40), max_size=12)


class TestGroupCommit:
    """``WriteAheadLog.append_many``: one write and one fsync per
    batch, frames byte-identical to one ``append`` per payload."""

    @given(head=_payloads, batch=_payloads, sync=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_frames_match_single_appends(self, tmp_path_factory, head,
                                         batch, sync):
        root = tmp_path_factory.mktemp("wal")
        with WriteAheadLog(root / "one.wal", sync=sync) as wal:
            for p in head + batch:
                wal.append(p)
            singles = (wal.appends, wal.bytes_appended)
        with WriteAheadLog(root / "many.wal", sync=sync) as wal:
            for p in head:
                wal.append(p)
            wal.append_many(batch)
            assert (wal.appends, wal.bytes_appended) == singles
        assert (root / "many.wal").read_bytes() \
            == (root / "one.wal").read_bytes()

    def test_one_fsync_per_synced_batch(self, tmp_path, fsync_calls):
        with WriteAheadLog(tmp_path / "j.wal") as wal:
            fsync_calls[0] = 0  # not the file creation
            wal.append_many([b"a", b"b", b"c"])
            assert fsync_calls[0] == 1
            wal.append_many([b"%d" % k for k in range(1000)])
            assert fsync_calls[0] == 2
            wal.append_many([])  # nothing to commit, nothing to sync
            assert fsync_calls[0] == 2
            assert len(wal.records()) == 1003

    def test_unsynced_commit_is_readable_on_return(self, tmp_path,
                                                   fsync_calls):
        # sync=False skips the fsync, never the flush: a reader on
        # another handle sees each commit as soon as it returns
        path = tmp_path / "j.wal"
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(b"x")
            assert list(read_records(path)) == [b"x"]
            wal.append_many([b"y", b"z"])
            assert list(read_records(path)) == [b"x", b"y", b"z"]
            assert fsync_calls[0] == 0

    def test_bad_payload_writes_nothing(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            wal.append(b"committed")
            before = path.read_bytes()
            with pytest.raises(TypeError):
                wal.append_many([b"ok", "not bytes", b"ok"])
            assert wal.appends == 1
            wal.flush()
            assert path.read_bytes() == before
        with pytest.raises(RuntimeError):
            wal.append_many([b"x"])

    def test_cut_anywhere_leaves_committed_prefix(self, tmp_path):
        """A crash mid-batch tears it at some byte: every cut keeps a
        prefix of the batch, and exactly the frames whole before it."""
        path = tmp_path / "j.wal"
        batch = [b"alpha", b"", b"gamma" * 7, b"d"]
        with WriteAheadLog(path) as wal:
            wal.append(b"head")
            wal.append_many(batch)
        whole = path.read_bytes()
        ends, end = [], len(MAGIC) + 8 + len(b"head")
        for p in batch:
            end += 8 + len(p)
            ends.append(end)
        for cut in range(ends[0] - 8 - len(batch[0]), len(whole) + 1):
            path.write_bytes(whole[:cut])
            survivors = sum(1 for e in ends if e <= cut)
            expect = [b"head"] + batch[:survivors]
            assert list(read_records(path)) == expect, cut
            with WriteAheadLog(path, sync=False) as wal:
                assert wal.records() == expect, cut


class TestFlushSkipsRedundantFsync:
    def test_synced_appends_leave_nothing_to_flush(self, tmp_path,
                                                   fsync_calls):
        with WriteAheadLog(tmp_path / "j.wal") as wal:
            fsync_calls[0] = 0  # not the file creation
            wal.append(b"a")
            wal.flush()
            wal.flush()
            wal.append_many([b"b", b"c"])
            wal.flush()
            assert fsync_calls[0] == 2

    def test_flush_syncs_writes_made_without_fsync(self, tmp_path,
                                                   fsync_calls):
        # a log switched to sync after unsynced appends still owes
        # those frames one fsync
        with WriteAheadLog(tmp_path / "j.wal", sync=False) as wal:
            wal.append(b"a")
            wal.append_many([b"b"])
            wal.sync = True
            wal.flush()
            wal.flush()
            assert fsync_calls[0] == 1


# -------------------------------------------------------------------------
# DurableStore
# -------------------------------------------------------------------------


class TestDurableStore:
    def test_fresh_store_recovers_none(self, tmp_path):
        with DurableStore(tmp_path) as store:
            assert store.recover() is None

    def test_snapshot_then_journal_recovery(self, tmp_path):
        with DurableStore(tmp_path) as store:
            store.save_snapshot(3, {"v": 3})
            store.journal(4, {"v": 4})
            store.journal(5, {"v": 5})
        with DurableStore(tmp_path) as store:
            step, payload = store.recover()
            assert step == 5
            assert payload == {"v": 5}
            assert store.records_replayed == 2

    def test_duplicate_journal_entries_replay_idempotently(self, tmp_path):
        with DurableStore(tmp_path) as store:
            store.save_snapshot(0, {"v": 0})
            store.journal(1, {"v": 1})
            store.journal(1, {"v": 1})  # a resubmitted step journaled twice
            store.journal(2, {"v": 2})
        with DurableStore(tmp_path) as store:
            step, payload = store.recover()
            assert (step, payload) == (2, {"v": 2})
            assert store.records_skipped == 1

    def test_stale_records_after_snapshot_are_noops(self, tmp_path):
        # crash between snapshot write and journal rotation leaves old
        # records behind; emulate by journaling, then snapshotting into
        # a store whose rotation we bypass via a second handle
        with DurableStore(tmp_path) as store:
            store.journal(1, {"v": 1})
            store.journal(2, {"v": 2})
            store.save_snapshot(2, {"v": 2})
            # re-append pre-snapshot records, as if rotation never ran
            store.wal.append(pickle.dumps({"step": 1, "payload": {"v": 1}}))
        with DurableStore(tmp_path) as store:
            step, payload = store.recover()
            assert (step, payload) == (2, {"v": 2})
            assert store.records_skipped == 1

    def test_journal_without_snapshot(self, tmp_path):
        with DurableStore(tmp_path) as store:
            store.journal(1, {"v": 1})
        with DurableStore(tmp_path) as store:
            assert store.recover() == (1, {"v": 1})

    def test_torn_final_record_recovers_previous(self, tmp_path):
        with DurableStore(tmp_path) as store:
            store.journal(1, {"v": 1})
            store.journal(2, {"v": 2})
        # SIGKILL mid-append of step 3
        with open(tmp_path / "journal.wal", "ab") as fh:
            fh.write(b"\x00\x00\xff\xff torn")
        with DurableStore(tmp_path) as store:
            assert store.recover() == (2, {"v": 2})

    def test_stray_tmp_from_killed_snapshot_is_ignored(self, tmp_path):
        with DurableStore(tmp_path) as store:
            store.save_snapshot(1, {"v": 1})
        # a kill mid-atomic-write leaves snapshot.ckpt.tmp behind
        (tmp_path / "snapshot.ckpt.tmp").write_bytes(b"half-written junk")
        with DurableStore(tmp_path) as store:
            assert store.recover() == (1, {"v": 1})
        assert not (tmp_path / "snapshot.ckpt.tmp").exists()


class TestCheckpointStorePersistence:
    def test_atomic_write_replaces_not_appends(self, tmp_path):
        p = tmp_path / "f"
        atomic_write_bytes(p, b"first version, long")
        atomic_write_bytes(p, b"second", sync=False)
        assert p.read_bytes() == b"second"
        assert not (tmp_path / "f.tmp").exists()


# -------------------------------------------------------------------------
# ResumableCampaign: kill/resume bit-exactness
# -------------------------------------------------------------------------


def _campaign(seed=0, backend="serial"):
    from repro.workflow.mummi import MummiCampaign

    return MummiCampaign(seed=seed, n_gpus=8, jobs_per_cycle=8,
                         backend=backend)


def _reset_tracked():
    for prefix in ("workflow.", "sched.", "guard."):
        metrics_mod.REGISTRY.reset(prefix)


class TestResumableCampaign:
    N = 8

    def _reference(self):
        _reset_tracked()
        ref = _campaign()
        while ref.progress < self.N:
            ref.step()
        counters = {
            k: v for k, v in metrics_mod.snapshot()["counters"].items()
            if k.startswith(("workflow.", "sched.", "guard."))
        }
        return ref.checkpoint_state(), counters

    def test_interrupted_resume_is_bit_exact(self, tmp_path):
        ref_state, ref_counters = self._reference()

        # first incarnation "dies" (we just stop driving it) mid-run
        _reset_tracked()
        with DurableStore(tmp_path) as store:
            ResumableCampaign(_campaign(), store, cadence=3).run(5)

        # second incarnation: fresh process state, recover, finish
        _reset_tracked()
        with DurableStore(tmp_path) as store:
            driver = ResumableCampaign(_campaign(), store, cadence=3)
            assert driver.recover() == 5
            driver.run(self.N)

        got_counters = {
            k: v for k, v in metrics_mod.snapshot()["counters"].items()
            if k.startswith(("workflow.", "sched.", "guard."))
        }
        with DurableStore(tmp_path) as store:
            step, payload = store.recover()
        assert step == self.N
        assert state_mismatches(payload["state"], ref_state) == []
        assert got_counters == ref_counters

    def test_resume_under_different_backend(self, tmp_path, monkeypatch):
        """Journal under serial, resume under REPRO_PAR=thread:2.

        The fan-out determinism contract (bit-identical results across
        backends) composes with durable resume — the backend is an
        execution detail, not campaign state, so the resumed process
        may come up with a different ``REPRO_PAR`` than the one that
        crashed.
        """
        ref_state, _ = self._reference()
        _reset_tracked()
        monkeypatch.setenv("REPRO_PAR", "serial")
        with DurableStore(tmp_path) as store:
            ResumableCampaign(
                _campaign(backend=None), store, cadence=3,
            ).run(4)
        _reset_tracked()
        monkeypatch.setenv("REPRO_PAR", "thread:2")
        with DurableStore(tmp_path) as store:
            driver = ResumableCampaign(
                _campaign(backend=None), store, cadence=3,
            )
            assert driver.recover() == 4
            driver.run(self.N)
        with DurableStore(tmp_path) as store:
            step, payload = store.recover()
        assert step == self.N
        assert state_mismatches(payload["state"], ref_state) == []

    def test_resume_journaled_on_process_workers(self, tmp_path):
        """Journal on a process pool, resume serially: each candidate's
        Generator is pickled to a worker, and the journaled spawn
        counter still resumes the same streams."""
        ref_state, _ = self._reference()
        _reset_tracked()
        with DurableStore(tmp_path) as store:
            ResumableCampaign(
                _campaign(backend="process:2"), store, cadence=3,
            ).run(5)
        _reset_tracked()
        with DurableStore(tmp_path) as store:
            driver = ResumableCampaign(_campaign(), store, cadence=3)
            assert driver.recover() == 5
            driver.run(self.N)
        with DurableStore(tmp_path) as store:
            step, payload = store.recover()
        assert step == self.N
        assert state_mismatches(payload["state"], ref_state) == []

    def test_counters_rewind_on_recover(self, tmp_path):
        _reset_tracked()
        with DurableStore(tmp_path) as store:
            ResumableCampaign(_campaign(), store, cadence=3).run(4)
        committed = metrics_mod.counter("workflow.cycles").value
        # uncommitted post-crash garbage that recovery must erase
        metrics_mod.counter("workflow.cycles").add(100)
        metrics_mod.counter("workflow.bogus_after_crash").add(7)
        with DurableStore(tmp_path) as store:
            ResumableCampaign(_campaign(), store, cadence=3).recover()
        assert metrics_mod.counter("workflow.cycles").value == committed
        assert metrics_mod.counter("workflow.bogus_after_crash").value == 0

    @pytest.mark.parametrize("n", [1500, 4000])
    def test_journaling_never_perturbs_ddcmd(self, tmp_path, n):
        """A ddcMD ensemble member journaled every 8 of 24 steps,
        flushed but not fsynced, follows the bare run's trajectory
        bit for bit, and the store recovers its final state."""
        from repro.md.ddcmd import DdcMD
        from repro.md.particles import ParticleSystem, PeriodicBox
        from repro.md.potentials import LennardJones, PairProcessor

        def make_md():
            side = (n / 0.5) ** (1.0 / 3.0)
            system = ParticleSystem.random_gas(
                n, PeriodicBox([side, side, side]), seed=11
            )
            return DdcMD(system, PairProcessor(LennardJones(cutoff=2.5)))

        bare = make_md()
        while bare.progress < 24:
            bare.step()
        md = make_md()
        with DurableStore(tmp_path, sync=False) as store:
            ResumableCampaign(md, store, cadence=24, journal_every=8).run(24)
        assert np.array_equal(md.system.x, bare.system.x)
        assert np.array_equal(md.system.v, bare.system.v)
        with DurableStore(tmp_path) as store:
            step, payload = store.recover()
        assert step == 24
        assert state_mismatches(payload["state"], md.checkpoint_state()) == []

    def test_run_requires_termination(self, tmp_path):
        class Stepper:
            progress = 0

            def step(self):
                self.progress += 1

            def checkpoint_state(self):
                return {"p": self.progress}

            def restore_state(self, st):
                self.progress = st["p"]

        with DurableStore(tmp_path) as store:
            driver = ResumableCampaign(Stepper(), store)
            with pytest.raises(ValueError):
                driver.run()
            assert driver.run(3) == 3


# -------------------------------------------------------------------------
# SimulatorSession: the scheduler's one event loop, cut and resumed
# -------------------------------------------------------------------------


def _session_jobs(n_jobs=200, seed=3):
    """A batch workload with tenant tags and deadlines on two thirds of
    it, so admission, tenancy accounting and sheds all fire."""
    from dataclasses import replace

    from repro.sched import batch_workload

    return [
        replace(
            job, tenant=("alpha", "beta", "gamma")[job.job_id % 3],
            priority=job.job_id % 4,
            deadline=(
                None if job.job_id % 3 == 0
                else job.arrival + 3.0 * job.service + 50.0
            ),
        )
        for job in batch_workload(n_jobs=n_jobs, seed=seed)
    ]


def _make_admission(kind):
    from repro.guard.deadline import AdmissionController, CircuitBreaker
    from repro.tenant import TenancySpec, TenantSpec

    if kind is None:
        return None
    if kind == "breaker":
        return AdmissionController(
            max_queue=12, protect_priority=2,
            breaker=CircuitBreaker(failure_threshold=2, recovery_time=30.0),
        )
    return TenancySpec(
        tenants=tuple(
            TenantSpec(name=name, weight=w, protect_priority=2,
                       max_queue=8, breaker_failure_threshold=2,
                       breaker_recovery_time=30.0)
            for name, w in (("alpha", 1.0), ("beta", 2.0), ("gamma", 1.0))
        ),
        window=40.0, arbiter_enabled=(kind == "tenancy"),
    ).make()


def _build_session(engine="auto", fault=True, admission="breaker", seed=2,
                   jobs=None):
    """A session with chaos and *admission*; the *seed* feeds the
    injector's RNG stream."""
    from repro.resilience import FaultInjector
    from repro.sched import SimulatorSession, SjfWithQuota

    return SimulatorSession(
        8, _session_jobs() if jobs is None else jobs, SjfWithQuota(8),
        fault_injector=FaultInjector(mtbf=40.0, seed=seed) if fault else None,
        engine=engine, admission=_make_admission(admission),
    )


class TestSimulatorSession:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("fault", [False, True])
    def test_session_equals_batch(self, engine, fault):
        """One event per call (``step()`` until False) equals one
        ``advance()``: a scalar the loop fails to write back at a
        budget stop would make the stepped run diverge."""
        for admission in (None, "breaker", "tenancy", "tenancy-off"):
            stepped = _build_session(engine, fault, admission)
            while stepped.step():
                pass
            whole = _build_session(engine, fault, admission)
            whole.advance()
            assert stepped.result() == whole.result(), admission
            assert stepped.checkpoint_state() == whole.checkpoint_state()
            assert stepped.done and whole.done
            assert stepped.advance() == 0 and not stepped.step()

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(min_value=0, max_value=700),
           admission=st.sampled_from(["breaker", "tenancy", "tenancy-off"]))
    def test_cut_anywhere_resumes_bit_exact(self, k, admission):
        """``advance(k)``, pickle the checkpoint, restore into a fresh
        *differently seeded* session, ``advance()``: the result equals
        the uninterrupted run — chaos, re-queued retries, breakers and
        the tenancy registry included."""
        ref = _build_session(admission=admission).run_to_completion()
        cut = _build_session(admission=admission)
        cut.advance(k)
        blob = pickle.dumps(cut.checkpoint_state())
        resumed = _build_session(admission=admission, seed=999)
        resumed.restore_state(pickle.loads(blob))
        resumed.advance()
        assert resumed.result() == ref
        assert ref.retries > 0 and ref.shed > 0

    @pytest.mark.parametrize("k", [1, 37, 250])
    def test_streamed_capture_cut_writes_same_bytes(self, tmp_path, k):
        from repro.resilience import FaultInjector
        from repro.sched import Fcfs
        from repro.sched.simulator import SimulatorSession
        from repro.traffic import CaptureTap, PoissonArrivals, UserPopulation

        def capture(path, budgets):
            population = UserPopulation(n_users=5_000, seed=4,
                                        mean_service=10.0,
                                        best_effort_fraction=0.3)
            tap = CaptureTap(path, meta={"case": "cut"})
            session = SimulatorSession(
                3, None, Fcfs(), horizon=300.0,
                fault_injector=FaultInjector(mtbf=50.0, seed=1),
                admission=_make_admission("breaker"),
                stream=population.stream_jobs(
                    PoissonArrivals(rate=0.3).stream(5)
                ),
                tap=tap,
            )
            for budget in budgets:
                session.advance(budget)
            assert session.done
            tap.seal({"completed": session.completed})
            tap.close()
            return path.read_bytes()

        whole = capture(tmp_path / "whole.trace", [None])
        assert capture(tmp_path / "cut.trace", [k, None]) == whole

    def test_golden_schedule(self):
        """A hand-written schedule that needs no NumPy stream: 12 jobs
        on 3 GPUs, a breaker-armed admission controller, and scripted
        fault times and victims.  Every time is an exact binary
        fraction, so the pinned values hold on any platform; with no
        second event loop to compare against, they are the guard
        against semantic drift (event order, shed reasons, breaker,
        re-queue at the fault time)."""
        assert self._golden_tenant_fields(tagged=False) == \
            ({}, {}, {}, {}, {})

    def test_golden_schedule_tenant_tagged(self):
        """The golden schedule with job *k* owned by tenant
        ``("a", "b", "c")[k % 3]``: FCFS and the controller ignore
        tenants, so every pin above holds again, and the five
        per-tenant fields :meth:`SimulatorSession.result` derives
        from the run record are pinned too."""
        assert self._golden_tenant_fields(tagged=True) == (
            {"a": [0.0, 0.5, 1.25, 0.25], "b": [0.0, 1.75, 0.0],
             "c": [0.0, 1.75, 0.0, 0.25, 0.0]},
            {"a": [4.0, 5.5, 4.25, 4.25], "b": [3.0, 2.75, 1.0],
             "c": [2.0, 3.75, 2.0, 2.25, 2.0]},
            {"a": 3, "b": 2, "c": 3},
            {"a": 11.0, "b": 2.0, "c": 6.0},
            {"a": 1, "b": 2, "c": 1},
        )

    @staticmethod
    def _golden_tenant_fields(tagged):
        """Run the golden schedule, check its pins, and return the
        result's five per-tenant fields."""
        from repro.guard.deadline import AdmissionController, CircuitBreaker
        from repro.sched import ClusterSimulator, Fcfs
        from repro.sched.simulator import Job

        spec = [  # job_id, arrival, service, priority, deadline
            (0, 0.0, 4.0, 2, None), (1, 0.0, 3.0, 0, None),
            (2, 0.5, 2.0, 1, 6.0), (3, 1.0, 5.0, 0, 12.0),
            (4, 1.0, 1.0, 2, None), (5, 2.0, 2.5, 0, 5.0),
            (6, 2.5, 3.0, 1, None), (7, 2.875, 1.5, 0, None),
            (8, 4.0, 2.0, 2, 20.0), (9, 5.0, 4.0, 0, None),
            (10, 6.0, 1.0, 1, 9.0), (11, 6.5, 2.0, 0, None),
        ]
        jobs = [Job(job_id=j, arrival=a, service=s, priority=p, deadline=d,
                    tenant=("a", "b", "c")[j % 3] if tagged else None)
                for j, a, s, p, d in spec]
        admission = AdmissionController(
            max_queue=2, protect_priority=1,
            breaker=CircuitBreaker(failure_threshold=2, recovery_time=4.0),
        )
        result = ClusterSimulator(3).run(
            jobs, Fcfs(),
            fault_injector=_ScriptedFaults([1.5, 2.75, 3.25, 7.0, 9.5],
                                           [0, 0, 1, 0, 0]),
            admission=admission,
        )
        assert result.completions == [
            (3.75, 4), (4.0, 0), (5.25, 2), (6.0, 8), (6.75, 6),
            (7.0, 10), (9.0, 11), (9.25, 9),
        ]
        assert list(admission.shed_log) == [
            (5, "deadline_backlog"), (1, "queue_saturated"),
            (7, "queue_saturated"), (3, "breaker_open"),
        ]
        assert result.queue_series == [
            (0.0, 0), (0.5, 0), (1.0, 2), (1.5, 1), (1.5, 2), (2.0, 2),
            (2.5, 3), (2.75, 2), (2.75, 2), (2.875, 2), (3.25, 1),
            (3.25, 1), (3.75, 0), (4.0, 0), (4.0, 0), (5.0, 1), (5.25, 0),
            (6.0, 0), (6.0, 0), (6.5, 1), (6.75, 0), (7.0, 0), (7.0, 0),
            (7.0, 0), (9.0, 0), (9.25, 0),
        ]
        assert (result.completed, result.started, result.failures,
                result.retries, result.dropped, result.shed) == \
            (8, 12, 4, 4, 0, 4)
        assert (result.makespan, result.wasted_time) == (9.25, 5.75)
        assert admission.breaker.trips == 1
        assert result.waits == [
            0.0, 0.0, 0.0, 0.5, 1.75, 1.75, 1.25, 0.0, 0.25, 0.0, 0.25, 0.0,
        ]
        return (
            result.tenant_waits, result.tenant_turnarounds,
            result.tenant_completed, result.tenant_completed_service,
            result.tenant_shed,
        )

    def test_checkpoint_resume_is_bit_exact(self):
        from repro.resilience import FaultInjector
        from repro.sched import SimulatorSession, Sjf, batch_workload

        jobs = batch_workload(n_jobs=300, seed=9)

        def build(seed):
            return SimulatorSession(
                8, jobs, Sjf(),
                fault_injector=FaultInjector(mtbf=60.0, seed=seed),
            )

        ref = build(2).run_to_completion()
        s1 = build(2)
        for _ in range(137):
            s1.step()
        blob = pickle.dumps(s1.checkpoint_state())
        # a *differently seeded* fresh session: restore must overwrite
        # every bit of loop state, including the injector's RNG
        s2 = build(999)
        s2.restore_state(pickle.loads(blob))
        assert s2.run_to_completion() == ref

    def test_session_under_durable_store(self, tmp_path):
        from repro.sched import (
            ClusterSimulator,
            Fcfs,
            SimulatorSession,
            batch_workload,
        )

        jobs = batch_workload(n_jobs=80, seed=1)
        ref = ClusterSimulator(4).run(jobs, Fcfs())
        metrics_mod.REGISTRY.reset("sched.")
        with DurableStore(tmp_path) as store:
            ses = SimulatorSession(4, jobs, Fcfs())
            ResumableCampaign(ses, store, cadence=50,
                              journal_every=10).run()
            assert ses.done
            assert ses.result() == ref


class _ScriptedFaults:
    """Fault injector stub with fixed fault times and victim indices."""

    def __init__(self, times, victims):
        self.times, self.victims = list(times), list(victims)
        self.next_time = self.next_victim = 0

    def next_fault_after(self, t):
        while self.next_time < len(self.times) \
                and self.times[self.next_time] <= t:
            self.next_time += 1
        if self.next_time == len(self.times):
            return float("inf")
        return self.times[self.next_time]

    def pick_victim(self, n):
        victim = self.victims[self.next_victim] % n
        self.next_victim += 1
        return victim

    def checkpoint_state(self):
        return {"time": self.next_time, "victim": self.next_victim}

    def restore_state(self, state):
        self.next_time, self.next_victim = state["time"], state["victim"]


# -------------------------------------------------------------------------
# delta journal: records carry the tails of append-only fields
# -------------------------------------------------------------------------


def _durable_mummi(seed=11):
    """perfbench's mummi_durable campaign: faults, retries, deadline
    sheds and breaker-driven surrogate cycles."""
    from repro.guard.deadline import AdmissionController, CircuitBreaker
    from repro.resilience import FaultInjector
    from repro.workflow.mummi import MummiCampaign

    return MummiCampaign(
        n_gpus=8, jobs_per_cycle=24, seed=seed, backend="serial",
        fault_injector=FaultInjector(mtbf=300.0, seed=seed),
        cycle_budget=190.0,
        breaker=CircuitBreaker(failure_threshold=2, recovery_time=3.0,
                               name="mummi"),
        admission=AdmissionController(),
    )


def _states_by_step(stepper, n_steps=None):
    """``checkpoint_state()`` after every step of an uninterrupted run."""
    states = {stepper.progress: stepper.checkpoint_state()}
    while not (getattr(stepper, "done", False)
               or stepper.progress == n_steps):
        stepper.step()
        states[stepper.progress] = stepper.checkpoint_state()
    return states


class _Growing(Stateful):
    """A stepper whose list is declared append-only; with *rewrite*,
    each step also changes an item already journaled, so the
    declaration is wrong."""

    _STATE = (Field("progress"), Field("xs", APPEND))

    def __init__(self, rewrite=False):
        self.progress = 0
        self.xs = []
        self.rewrite = rewrite

    def step(self):
        self.progress += 1
        self.xs.append(self.progress)
        if self.rewrite:
            self.xs[0] = -self.progress


class TestDeltaJournal:
    def test_record_bytes_stay_flat(self, tmp_path):
        """mummi_durable's 40-cycle op: a record carries what its cycle
        added, so its bytes stay flat (full-state records grew from
        10.2 KB at cycle 1 to 38.4 KB at cycle 40, 0.95 MB in all)."""
        frames = []
        with DurableStore(tmp_path, sync=False) as store:
            append = store.wal.append

            def counting(payload):
                frames.append(len(payload) + 8)
                append(payload)

            store.wal.append = counting
            ResumableCampaign(_durable_mummi(), store, cadence=10).run(40)
        assert len(frames) == 40
        assert abs(frames[39] - frames[1]) <= 0.1 * frames[1]
        assert sum(frames) < 0.95e6 / 2

    def test_full_state_records_recover(self, tmp_path):
        """A journal of full-state ``{"step", "payload"}`` records, as
        earlier versions wrote, recovers; so does one that a handle
        continues with tails records after recovering it."""
        states = _states_by_step(_campaign(), 6)
        camp = _campaign()
        with DurableStore(tmp_path) as store:
            store.save_snapshot(0, {"state": camp.checkpoint_state()})
            for step in range(1, 4):
                camp.step()
                store.wal.append(pickle.dumps(
                    {"step": step,
                     "payload": {"state": camp.checkpoint_state()}}))
        with DurableStore(tmp_path) as store:
            step, payload = store.recover()
            assert step == 3 and store.records_replayed == 3
            assert state_mismatches(payload["state"], states[3]) == []
            lengths = saved_lengths(payload["state"])
            for step in range(4, 7):
                camp.step()
                tails = camp.checkpoint_tails(lengths)
                store.journal(step, {"state": tails})
                lengths = saved_lengths(tails)
        with DurableStore(tmp_path) as store:
            driver = ResumableCampaign(_campaign(seed=5), store)
            assert driver.recover() == 6
            assert store.records_replayed == 6
        assert state_mismatches(driver.stepper.checkpoint_state(),
                                states[6]) == []

    @pytest.mark.parametrize("stepper", ["mummi", "session"])
    def test_cut_anywhere_recovers_the_step_it_holds(self, tmp_path,
                                                     stepper):
        """One snapshot, then a chain of tails records cut at every
        frame boundary and inside every frame (its header and its
        payload): recovery lands on the last whole record, equal to an
        uninterrupted run at that step."""
        if stepper == "mummi":
            def build(seed=0):
                return _campaign(seed=seed)
            n_steps, journal_every = 8, 1
        else:
            def build(seed=2):
                return _build_session(admission="tenancy", seed=seed)
            n_steps, journal_every = None, 5
        states = _states_by_step(build(), n_steps)
        root = tmp_path / "run"
        with DurableStore(root, sync=False) as store:
            ResumableCampaign(build(), store, cadence=10**6,
                              journal_every=journal_every).run(n_steps)
        steps, ends = [0], [len(MAGIC)]
        for raw in read_records(root / "journal.wal"):
            steps.append(pickle.loads(raw)["step"])
            ends.append(ends[-1] + 8 + len(raw))
        assert len(ends) > 8
        journal = (root / "journal.wal").read_bytes()
        cuts = sorted(set(ends) | {end + 3 for end in ends[:-1]}
                      | {(a + b) // 2 for a, b in zip(ends, ends[1:])})
        for cut in cuts:
            cut_root = tmp_path / f"cut-{cut}"
            cut_root.mkdir()
            (cut_root / "snapshot.ckpt").write_bytes(
                (root / "snapshot.ckpt").read_bytes())
            (cut_root / "journal.wal").write_bytes(journal[:cut])
            with DurableStore(cut_root, sync=False) as store:
                driver = ResumableCampaign(build(seed=999), store)
                step = driver.recover()
            assert step == steps[sum(end <= cut for end in ends) - 1]
            assert state_mismatches(driver.stepper.checkpoint_state(),
                                    states[step]) == [], cut

    def test_tails_apply_only_onto_their_base(self, tmp_path):
        """A tails record applies only onto the step it names: one whose
        base is not the step recovered so far is skipped, and so is
        every record that extends it."""
        with DurableStore(tmp_path) as store:
            store.save_snapshot(2, {"xs": [1, 2]})
            store.journal(3, {"xs": Tail(2, [3])})
            for step, base in ((5, 4), (6, 5), (4, 2)):
                store.wal.append(pickle.dumps({
                    "step": step, "base": base,
                    "payload": {"xs": Tail(base, [step])},
                }))
        with DurableStore(tmp_path) as store:
            assert store.recover() == (3, {"xs": [1, 2, 3]})
            assert (store.records_replayed, store.records_skipped) == (1, 3)
            store.journal(4, {"xs": Tail(3, [4])})
        with DurableStore(tmp_path) as store:
            assert store.recover() == (4, {"xs": [1, 2, 3, 4]})

    def test_journal_needs_the_step_it_extends(self, tmp_path):
        """A handle that has neither recovered nor snapshotted does not
        know the step its record extends: on a store holding a snapshot
        or records it refuses to journal, rather than write a record
        that recovery would skip."""
        with DurableStore(tmp_path / "snap") as store:
            store.save_snapshot(3, {"v": 3})
        with DurableStore(tmp_path / "snap") as store:
            with pytest.raises(RuntimeError, match="recover"):
                store.journal(4, {"v": 4})
            assert store.recover() == (3, {"v": 3})
            store.journal(4, {"v": 4})
        with DurableStore(tmp_path / "snap") as store:
            assert store.recover() == (4, {"v": 4})
        with DurableStore(tmp_path / "records") as store:
            store.journal(1, {"v": 1})
        with DurableStore(tmp_path / "records") as store:
            with pytest.raises(RuntimeError, match="recover"):
                store.journal(2, {"v": 2})
        # a journal holding only records no recovery reaches recovers
        # to nothing, and a record journaled after that applies
        with DurableStore(tmp_path / "orphan") as store:
            store.wal.append(pickle.dumps(
                {"step": 5, "base": 4, "payload": {"v": 5}}))
        with DurableStore(tmp_path / "orphan") as store:
            assert store.recover() is None
            store.journal(1, {"v": 1})
        with DurableStore(tmp_path / "orphan") as store:
            assert store.recover() == (1, {"v": 1})

    def test_validate_mode_checks_each_record(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_VALIDATE", "1")
        checks = metrics_mod.counter("obs.validate.durable.tails.checks")
        before = checks.value
        with DurableStore(tmp_path / "ok") as store:
            ResumableCampaign(_Growing(), store, cadence=3).run(7)
        assert checks.value - before == 7

    def test_validate_mode_catches_a_wrong_declaration(self, tmp_path,
                                                       monkeypatch):
        """A list declared append-only but rewritten in place journals
        tails that resolve to a stale list; validate mode says so."""
        monkeypatch.setenv("REPRO_OBS_VALIDATE", "1")
        with DurableStore(tmp_path) as store:
            with pytest.raises(DivergenceError, match=r"state\.xs"):
                ResumableCampaign(_Growing(rewrite=True), store).run(3)


# -------------------------------------------------------------------------
# chaos harness: SIGKILL anywhere, restart, bit-exact convergence
# -------------------------------------------------------------------------


class TestChaos:
    def test_sigkill_resume_bit_exact(self, tmp_path):
        report = run_chaos(n_cycles=6, kills=3, seed=0, kill_seed=7,
                           pace=0.02, cadence=2, store_root=tmp_path)
        assert report.kills == 3
        assert report.restarts >= 4
        assert report.recovered_step == 6
        assert report.bit_exact, str(report)

    def test_cli_runs_without_runpy_warning(self):
        """``python -m repro.durable.chaos`` must not find its own
        module already imported by the package ``__init__``: runpy
        would warn and execute the module a second time."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get(
            "PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.durable.chaos", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_state_mismatches_reports_paths(self):
        a = {"x": np.arange(3), "y": {"z": 1}, "l": [1, 2]}
        b = {"x": np.arange(3), "y": {"z": 2}, "l": [1, 3]}
        paths = state_mismatches(a, b)
        assert "state.y.z" in paths
        assert "state.l[1]" in paths
        assert state_mismatches(a, a) == []
        # dtype differences are mismatches even when values compare equal
        assert state_mismatches(np.arange(3.0), np.arange(3)) == ["state"]


# -------------------------------------------------------------------------
# map_fanout crash surfacing: pending indices
# -------------------------------------------------------------------------


class TestPendingIndices:
    def test_crash_reports_pending_indices(self):
        with pytest.raises(WorkerCrashError) as ei:
            map_fanout(_die_on_five, range(16), backend="process:2",
                       chunk_size=4)
        err = ei.value
        assert err.backend == "process"
        assert 5 in err.pending_indices
        assert all(0 <= i < 16 for i in err.pending_indices)

    def test_completed_chunks_are_not_pending(self):
        with pytest.raises(WorkerCrashError) as ei:
            map_fanout(_die_late, range(16), backend="process:2",
                       chunk_size=4)
        # chunk [0..3] finished long before the index-12 chunk died
        assert 12 in ei.value.pending_indices
        assert 0 not in ei.value.pending_indices
