"""Tests for the repro.par execution backends.

The load-bearing contract: for pure task functions, ``process`` (and
``thread``) results are BIT-EXACT equal to ``serial`` — across the raw
fan-out primitives, and across every wired call site (KAVG/ASGD
training, the three-stream ensemble, a MuMMI cycle).  Plus
the failure surface (typed worker errors instead of hangs), the
merge-on-join of child observability, shared-memory transport, and the
concurrency bugfixes in the trace sink (locked atomic appends,
monotonic span timestamps).
"""

import json
import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs import metrics as metrics_mod
from repro.obs import trace as trace_mod
from repro.par import (
    Backend,
    SharedArray,
    Task,
    WorkerCrashError,
    WorkerTaskError,
    backend_from_env,
    get_backend,
    map_fanout,
    parse_backend_spec,
    run_ensemble,
)

BACKENDS = ["serial", "thread:2", "process:2",
            "steal-thread:2", "steal-process:2"]
#: every parallel engine — the bit-exactness lists for call sites
PAR_BACKENDS = BACKENDS[1:]


# -- top-level task fns (process backend pickles them by qualname) --------


def _square(x):
    return x * x


def _norm_of_seeded(args):
    seq, n = args
    rng = np.random.default_rng(seq)
    return float(np.linalg.norm(rng.standard_normal(n)))


def _bump_counter(args):
    name, k = args
    metrics_mod.counter(name).add(k)
    return k


def _set_gauge(args):
    name, v = args
    metrics_mod.gauge(name).set(v)
    return v


def _traced(x):
    with obs.span("par-child", x=x):
        return x + 1


def _boom(x):
    if x == 3:
        raise ValueError(f"bad item {x}")
    return x


def _die(x):
    os._exit(13)


def _shared_sum(args):
    sx, scale = args
    return float(sx.asarray().sum()) * scale


def _shared_boom(args):
    sx, i = args
    if i == 2:
        raise ValueError("mid-fanout failure with staged arrays live")
    return float(sx.asarray().sum()) * i


def _mul(a, b, offset=0):
    return a * b + offset


# -- backend selection ----------------------------------------------------


class TestBackendSelection:
    def test_parse_spec(self):
        assert parse_backend_spec("serial") == ("serial", None)
        assert parse_backend_spec("process:4") == ("process", 4)
        assert parse_backend_spec(" Thread:2 ") == ("thread", 2)

    @pytest.mark.parametrize("bad", ["gpu", "process:x", "process:0", ""])
    def test_parse_spec_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_backend_spec(bad)

    def test_backend_validation(self):
        with pytest.raises(ValueError):
            Backend("mpi", 2)
        with pytest.raises(ValueError):
            Backend("thread", 0)

    def test_env_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAR", raising=False)
        assert backend_from_env() == "serial"
        assert get_backend().kind == "serial"
        assert get_backend().workers == 1

    def test_env_spec_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAR", "thread:3")
        be = get_backend()
        assert (be.kind, be.workers) == ("thread", 3)

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAR", "thread:3")
        assert get_backend("serial").kind == "serial"
        assert get_backend(Backend("process", 2)).workers == 2

    def test_workers_override(self):
        assert get_backend("process", workers=5).workers == 5
        assert get_backend(Backend("process", 2), workers=5).workers == 5


# -- fan-out primitives ---------------------------------------------------


class TestMapFanout:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_order(self, backend):
        assert map_fanout(_square, range(20), backend=backend) == [
            x * x for x in range(20)
        ]

    def test_empty_items(self):
        assert map_fanout(_square, [], backend="process:2") == []

    def test_bit_exact_across_backends_and_chunks(self):
        seqs = np.random.SeedSequence(5).spawn(9)
        items = [(seqs[i], 64) for i in range(9)]
        ref = map_fanout(_norm_of_seeded, items, backend="serial")
        for backend in ("thread:2", "process:2", "process:3"):
            for chunk in (None, 1, 4):
                got = map_fanout(_norm_of_seeded, items, backend=backend,
                                 chunk_size=chunk)
                assert got == ref  # float equality, not approx

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_ensemble_heterogeneous(self, backend):
        tasks = [
            Task(_square, (7,), name="sq"),
            Task(_mul, (3, 4), kwargs={"offset": 1}, name="mul"),
        ]
        assert run_ensemble(tasks, backend=backend) == [49, 13]

    def test_run_ensemble_rejects_non_tasks(self):
        with pytest.raises(TypeError):
            run_ensemble([lambda: 1])


# -- failure surface ------------------------------------------------------


class TestFailures:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_task_error_is_typed(self, backend):
        with pytest.raises(WorkerTaskError) as ei:
            map_fanout(_boom, range(6), backend=backend)
        err = ei.value
        assert err.task_index == 3
        assert err.error_type == "ValueError"
        assert "bad item 3" in str(err)

    def test_in_process_error_chains_cause(self):
        with pytest.raises(WorkerTaskError) as ei:
            map_fanout(_boom, range(6), backend="serial")
        assert isinstance(ei.value.__cause__, ValueError)

    def test_process_error_carries_worker_traceback(self):
        with pytest.raises(WorkerTaskError) as ei:
            map_fanout(_boom, range(6), backend="process:2")
        assert "ValueError" in ei.value.worker_traceback

    def test_crashed_worker_raises_not_hangs(self):
        with pytest.raises(WorkerCrashError):
            map_fanout(_die, range(4), backend="process:2")
        # the broken pool was evicted: the next fan-out works
        assert map_fanout(_square, [2, 3], backend="process:2") == [4, 9]


# -- observability merge-on-join ------------------------------------------


class TestObsMerge:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counter_deltas_merged(self, backend):
        name = f"par.test.merge.{backend.replace(':', '_')}"
        before = metrics_mod.snapshot()["counters"].get(name, 0)
        map_fanout(_bump_counter, [(name, 2)] * 6, backend=backend)
        after = metrics_mod.snapshot()["counters"].get(name, 0)
        assert after - before == 12

    def test_gauge_merged_from_process(self):
        name = "par.test.gauge"
        map_fanout(_set_gauge, [(name, 4.5)], backend="process:2")
        assert metrics_mod.snapshot()["gauges"][name] == 4.5

    def test_spans_merged_with_worker_pid(self):
        sink = trace_mod.RingBufferSink()
        obs.TRACER.enable(sink)
        try:
            map_fanout(_traced, range(6), backend="process:2")
        finally:
            obs.TRACER.remove_sink(sink)
            obs.TRACER.disable()
        child = [r for r in sink if r["name"] == "par-child"]
        assert len(child) == 6
        assert all(r["worker_pid"] != os.getpid() for r in child)
        assert sorted(r["attrs"]["x"] for r in child) == list(range(6))

    def test_fanout_counters_recorded(self):
        before = metrics_mod.snapshot()["counters"]
        map_fanout(_square, range(5), backend="thread:2")
        after = metrics_mod.snapshot()["counters"]

        def delta(key):
            return after.get(key, 0) - before.get(key, 0)

        assert delta("par.fanouts") == 1
        assert delta("par.fanouts.thread") == 1
        assert delta("par.tasks_dispatched") == 5


# -- shared-memory transport ----------------------------------------------


class TestSharedArray:
    def test_inline_for_serial_and_thread(self):
        x = np.arange(6.0)
        for kind in ("serial", "thread"):
            sa = SharedArray.share(x, kind)
            assert sa.asarray() is x
            sa.unlink()

    def test_process_roundtrip_zero_copy(self):
        x = np.linspace(0.0, 1.0, 512).reshape(8, 64)
        sa = SharedArray.share(x, "process")
        try:
            out = map_fanout(_shared_sum, [(sa, k) for k in (1.0, 2.0)],
                             backend="process:2")
            assert out == [float(x.sum()), 2.0 * float(x.sum())]
        finally:
            sa.unlink()

    def test_close_is_idempotent_and_fences_asarray(self):
        from repro.par.errors import ParError

        x = np.arange(8.0)
        sa = SharedArray.share(x, "process")
        sa.unlink()
        sa.unlink()
        assert sa.closed
        with pytest.raises(ParError):
            sa.asarray()

    def test_attach_after_close_raises_typed(self):
        import pickle

        from repro.par.errors import ParError

        sa = SharedArray.share(np.arange(4.0), "process")
        blob = pickle.dumps(sa)
        sa.close()
        with pytest.raises(ParError):
            pickle.loads(blob)
        # and pickling an already-closed handle is refused up front
        with pytest.raises(ParError):
            pickle.dumps(sa)

    def test_addref_keeps_segment_alive(self):
        from repro.par import live_segments

        sa = SharedArray.share(np.arange(4.0), "process")
        ref = sa.addref()
        sa.close()
        assert len(live_segments()) == 1  # ref still holds it
        assert float(ref.asarray().sum()) == 6.0
        ref.close()
        assert live_segments() == ()

    def test_stage_releases_on_worker_exception(self):
        from repro.par import ShmStage, live_segments

        x = np.arange(12.0)
        for backend in ("process:2", "steal-process:2"):
            with pytest.raises(WorkerTaskError):
                with ShmStage("process") as stage:
                    sx = stage.share(x)
                    map_fanout(_shared_boom, [(sx, i) for i in range(6)],
                               backend=backend)
            assert live_segments() == ()

    def test_suite_leaves_no_leaked_segments(self):
        from repro.par import live_segments, sweep_leaked_segments

        assert sweep_leaked_segments() == []
        assert live_segments() == ()


# -- wired call sites: process must be bit-exact vs serial ----------------


class TestCallSitesBitExact:
    def test_kavg_round(self):
        from repro.dtrain.distributed import kavg_train
        from repro.dtrain.nn import MLP

        rng = np.random.default_rng(0)
        x = rng.standard_normal((120, 6))
        y = rng.integers(0, 3, 120)

        def run(backend):
            model = MLP(6, 3, seed=1)
            hist = kavg_train(model, x, y, n_learners=3, k_steps=4,
                              rounds=3, seed=5, backend=backend)
            return hist, model.get_params()

        ref_hist, ref_params = run("serial")
        for backend in PAR_BACKENDS:
            hist, params = run(backend)
            assert hist == ref_hist
            assert np.array_equal(params, ref_params)

    def test_asgd_bounded_staleness(self):
        from repro.dtrain.distributed import AsgdServer
        from repro.dtrain.nn import MLP

        rng = np.random.default_rng(1)
        x = rng.standard_normal((90, 5))
        y = rng.integers(0, 3, 90)

        def run(backend):
            server = AsgdServer(MLP(5, 3, seed=2), lr=0.1, staleness=3)
            losses = server.train(x, y, n_updates=25, seed=9,
                                  backend=backend)
            return losses, server.params

        ref_losses, ref_params = run("serial")
        for backend in PAR_BACKENDS:
            losses, params = run(backend)
            assert losses == ref_losses
            assert np.array_equal(params, ref_params)

    def test_stream_ensemble(self):
        from repro.dtrain.streams import (
            combine_and_score,
            make_stream_dataset,
            train_stream_classifiers,
        )

        data = make_stream_dataset("hmdb51-like", n_train_per_class=6,
                                   n_val_per_class=3, dim=8, seed=2)

        def run(backend):
            models = train_stream_classifiers(data, epochs=3, seed=4,
                                              backend=backend)
            return combine_and_score(data, models, seed=4, backend=backend)

        ref = run("serial")
        for backend in PAR_BACKENDS:
            assert run(backend) == ref

    def test_mummi_cycle(self):
        from repro.workflow.mummi import MummiCampaign

        def run(backend):
            camp = MummiCampaign(n_gpus=4, jobs_per_cycle=6, seed=7,
                                 backend=backend)
            # past the first cycle, so a non-zero spawn counter and a
            # non-empty explored set reach the workers
            camp.run(4)
            return (np.asarray(camp.explored), camp.macro.field.copy(),
                    [r.observable for r in camp.results])

        ref = run("serial")
        for backend in PAR_BACKENDS:
            got = run(backend)
            assert all(np.array_equal(a, b) for a, b in zip(ref, got))


# -- trace-sink concurrency bugfixes --------------------------------------


class TestTraceSinkFixes:
    def test_file_sink_concurrent_writes_not_interleaved(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = trace_mod.FileSink(str(path))
        rec = {"name": "x" * 200, "i": 0}
        threads = [
            threading.Thread(
                target=lambda: [sink.emit(dict(rec, i=i)) for i in range(50)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 400
        for line in lines:  # every line parses: no torn/interleaved writes
            assert json.loads(line)["name"] == "x" * 200

    def test_file_sink_close_idempotent_then_emit_raises(self, tmp_path):
        sink = trace_mod.FileSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.close()
        with pytest.raises(ValueError):
            sink.emit({"name": "late"})

    def test_span_timestamps_monotonic_and_consistent(self):
        sink = trace_mod.RingBufferSink()
        obs.TRACER.enable(sink)
        try:
            for i in range(30):
                with obs.span(f"s{i}"):
                    pass
        finally:
            obs.TRACER.remove_sink(sink)
            obs.TRACER.disable()
        recs = list(sink)
        starts = [r["ts"] for r in recs]
        # start order == emit order (perf_counter anchored to one epoch;
        # the old per-span time.time() could go backwards between spans)
        assert starts == sorted(starts)
        for r in recs:
            assert r["dur"] >= 0.0
        # nested span: child's [ts, ts+dur] inside the parent's
        obs.TRACER.enable(sink2 := trace_mod.RingBufferSink())
        try:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        finally:
            obs.TRACER.remove_sink(sink2)
            obs.TRACER.disable()
        by_name = {r["name"]: r for r in sink2}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
