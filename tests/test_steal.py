"""Tests for the work-stealing executor (repro.par.steal).

The scheduler invariants (every index handed out exactly once, steals
take the back half, nothing splits below the grain), bit-exactness of
both steal backends against serial across grains, the typed failure
surface (including precise ``pending_indices`` on a worker crash),
scheduler counters, and nested-fan-out degradation to an inline serial
loop.
"""

import os
import time

import numpy as np
import pytest

from repro.obs import metrics as metrics_mod
from repro.par import (
    StealScheduler,
    WorkerCrashError,
    WorkerTaskError,
    map_fanout,
)
from repro.par.steal import default_min_grain, in_steal_worker

STEAL_BACKENDS = ["steal-thread:2", "steal-thread:4", "steal-process:2"]


# -- top-level task fns (process backend pickles them by qualname) --------


def _square(x):
    return x * x


def _norm_of_seeded(args):
    seq, n = args
    rng = np.random.default_rng(seq)
    return float(np.linalg.norm(rng.standard_normal(n)))


def _sleepy(args):
    idx, delay = args
    time.sleep(delay)
    return idx


def _boom(x):
    if x == 5:
        raise ValueError(f"bad item {x}")
    return x


def _die_on(x):
    if x == 7:
        os._exit(13)
    time.sleep(0.01)
    return x


def _nested_fanout(x):
    # a fan-out issued from inside a steal worker must degrade to an
    # inline serial loop rather than deadlock or nest real pools
    inner = map_fanout(_square, range(x + 1), backend="steal-thread:2")
    return sum(inner)


# -- scheduler invariants -------------------------------------------------


class TestStealScheduler:
    def _drain(self, sched, order):
        """Drive worker ids in *order* until the scheduler runs dry."""
        spans = []
        idle = set()
        k = 0
        while len(idle) < sched.workers:
            wid = order[k % len(order)]
            k += 1
            if wid in idle:
                continue
            span = sched.next_chunk(wid)
            if span is None:
                idle.add(wid)
            else:
                spans.append(span)
        return spans

    @pytest.mark.parametrize("n,workers,grain", [
        (100, 4, 5), (100, 4, 1), (7, 3, 2), (64, 8, 64), (1, 4, 1),
    ])
    def test_every_index_exactly_once(self, n, workers, grain):
        sched = StealScheduler(n, workers, grain)
        spans = self._drain(sched, list(range(workers)))
        seen = [i for s, e in spans for i in range(s, e)]
        assert sorted(seen) == list(range(n))
        assert len(seen) == len(set(seen))  # disjoint ranges

    def test_chunks_never_exceed_grain(self):
        sched = StealScheduler(120, 4, 7)
        spans = self._drain(sched, [0, 1, 2, 3])
        assert max(e - s for s, e in spans) <= 7

    def test_steal_takes_back_half(self):
        sched = StealScheduler(100, 2, 5)
        # worker 1's own range is (50, 100); drain it dry so the next
        # request steals from worker 0's untouched (0, 100//2) range
        while sched._deques[1]:
            sched.next_chunk(1)
        steals_before = sched.steals
        span = sched.next_chunk(1)
        assert sched.steals == steals_before + 1
        s, e = span
        # the stolen region is the back half of (0, 50), nibbled from
        # its front at grain size
        assert (s, e) == (25, 30)

    def test_small_range_moves_whole_not_split(self):
        sched = StealScheduler(8, 2, 4)  # each worker holds 4 = grain
        while sched._deques[1]:
            sched.next_chunk(1)
        splits_before = sched.splits
        span = sched.next_chunk(1)
        assert span == (0, 4)  # victim's whole range, unsplit
        assert sched.splits == splits_before

    def test_empty_and_underfull(self):
        assert StealScheduler(0, 4, 1).next_chunk(0) is None
        sched = StealScheduler(2, 4, 1)  # fewer items than workers
        spans = self._drain(sched, [3, 2, 1, 0])
        assert sorted(i for s, e in spans for i in range(s, e)) == [0, 1]

    def test_default_grain(self):
        assert default_min_grain("steal-thread", 1000, 4) == 3
        assert default_min_grain("steal-process", 1000, 4) == 15
        assert default_min_grain("steal-thread", 3, 4) == 1

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            StealScheduler(-1, 2, 1)
        with pytest.raises(ValueError):
            StealScheduler(4, 0, 1)


# -- fan-out semantics ----------------------------------------------------


class TestStealFanout:
    @pytest.mark.parametrize("backend", STEAL_BACKENDS)
    def test_bit_exact_vs_serial_across_grains(self, backend):
        seqs = np.random.SeedSequence(11).spawn(13)
        items = [(seqs[i], 64) for i in range(13)]
        ref = map_fanout(_norm_of_seeded, items, backend="serial")
        for grain in (None, 1, 4, 50):
            got = map_fanout(_norm_of_seeded, items, backend=backend,
                             chunk_size=grain)
            assert got == ref  # float equality, not approx

    def test_skewed_workload_actually_steals(self):
        # all the heavy items sit in worker 0's initial range; the
        # other workers finish instantly and must steal to help
        items = [(i, 0.02 if i < 8 else 0.0) for i in range(64)]
        before = metrics_mod.snapshot()["counters"].get(
            "par.steal.steals", 0)
        out = map_fanout(_sleepy, items, backend="steal-thread:4",
                         chunk_size=1)
        after = metrics_mod.snapshot()["counters"].get(
            "par.steal.steals", 0)
        assert out == list(range(64))
        assert after > before

    def test_scheduler_counters_recorded(self):
        before = metrics_mod.snapshot()["counters"]
        map_fanout(_square, range(40), backend="steal-thread:2")
        after = metrics_mod.snapshot()["counters"]

        def delta(key):
            return after.get(key, 0) - before.get(key, 0)

        assert delta("par.fanouts.steal-thread") == 1
        assert delta("par.tasks_dispatched") == 40
        assert delta("par.steal.chunks") > 0

    @pytest.mark.parametrize("backend", STEAL_BACKENDS)
    def test_worker_error_is_typed_and_first(self, backend):
        with pytest.raises(WorkerTaskError) as ei:
            map_fanout(_boom, range(12), backend=backend, chunk_size=2)
        assert ei.value.task_index == 5
        assert ei.value.error_type == "ValueError"

    def test_crash_reports_precise_pending_indices(self):
        n = 24
        with pytest.raises(WorkerCrashError) as ei:
            map_fanout(_die_on, range(n), backend="steal-process:2",
                       chunk_size=4)
        err = ei.value
        assert err.backend == "steal-process"
        assert list(err.pending_indices) == sorted(err.pending_indices)
        assert 7 in err.pending_indices  # the killed task is still owed
        assert all(0 <= i < n for i in err.pending_indices)
        # the broken pool was evicted: the next fan-out works
        assert map_fanout(_square, [2, 3],
                          backend="steal-process:2") == [4, 9]

    def test_nested_fanout_degrades_to_serial(self):
        out = map_fanout(_nested_fanout, range(6),
                         backend="steal-thread:2")
        assert out == [sum(x * x for x in range(k + 1)) for k in range(6)]
        assert not in_steal_worker()  # flag never leaks to the caller
