"""Work-stealing fan-out executor: ``steal-thread`` / ``steal-process``.

The static backends in :mod:`repro.par.backend` pre-chunk the input
into ``~4 * workers`` fixed ranges.  That is the right call for chunky,
uniform tasks, but it loses badly on the two shapes the paper's
workload is full of: *many tiny tasks* (dispatch overhead per item
dominates unless chunks are large) and *skewed tasks* (one fixed chunk
ends up holding most of the work and one worker chews it alone while
the rest idle).

This module keeps the chunking decision *online* instead:

- A parent-side :class:`StealScheduler` holds one deque of
  ``(start, end)`` index ranges per worker, seeded with an even
  contiguous partition of the input.
- An **owner** takes work from the *front* of its own deque, at most
  ``min_grain`` items at a time (chunked self-scheduling), so its
  remaining range shrinks front-to-back.
- An idle worker (**thief**) picks the victim with the most remaining
  work and steals the *back half* of the victim's last range —
  splitting on steal, never below ``min_grain``.  Front/back
  separation keeps owner and thief out of each other's cache lines
  (here: out of each other's index ranges) and recursively subdivides
  whatever region turns out to be expensive.

Determinism: the schedule is timing-dependent but the *results* are
not — every chunk writes into its own disjoint ``wrapped[start:end]``
slice and the assembled list is in input order, so for a pure task
function the output is bit-identical to the serial backend.  Failures
ride the same typed surface as the static backends
(:class:`~repro.par.errors.WorkerTaskError`, ordered-first on join;
:class:`~repro.par.errors.WorkerCrashError` with precise
``pending_indices``).

``steal-thread`` runs dedicated (non-pooled) worker threads so a
stealing fan-out can never deadlock against the cached thread pool;
a fan-out issued *inside* a steal worker degrades to an inline serial
loop, mirroring the ``REPRO_PAR=serial`` bootstrap of process workers.
``steal-process`` pumps chunks through the cached fork pool, one
in-flight chunk per logical slot, reusing the static backend's worker
entry point so guard-env propagation and obs merge-on-join behave
identically.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.par.errors import WorkerCrashError

STEAL_KINDS = ("steal-thread", "steal-process")

#: Default grain divisor per worker: thread chunks are cheap to
#: dispatch (one lock acquire), process chunks cost a pickle round
#: trip, so the process grain is coarser.
_THREAD_GRAIN_DIV = 64
_PROCESS_GRAIN_DIV = 16

_IN_STEAL_WORKER = threading.local()


def default_min_grain(kind: str, n_items: int, workers: int) -> int:
    """The smallest range a steal may split down to."""
    div = _THREAD_GRAIN_DIV if kind == "steal-thread" else _PROCESS_GRAIN_DIV
    return max(1, n_items // (workers * div))


class StealScheduler:
    """Per-worker deques of index ranges with a steal-half protocol.

    All state lives in the parent; workers call :meth:`next_chunk`
    under one lock.  Ranges are half-open ``(start, end)`` pairs over
    the input index space.
    """

    def __init__(self, n_items: int, workers: int, min_grain: int):
        if n_items < 0 or workers < 1:
            raise ValueError("need n_items >= 0 and workers >= 1")
        self.n_items = n_items
        self.workers = workers
        self.min_grain = max(1, int(min_grain))
        self._lock = threading.Lock()
        self._deques: List[deque] = [deque() for _ in range(workers)]
        # even contiguous partition; empty slots are legal (n < workers)
        bounds = [round(w * n_items / workers) for w in range(workers + 1)]
        for w in range(workers):
            if bounds[w] < bounds[w + 1]:
                self._deques[w].append((bounds[w], bounds[w + 1]))
        self.steals = 0
        self.splits = 0
        self.chunks = 0

    def next_chunk(self, wid: int) -> Optional[Tuple[int, int]]:
        """The next ``(start, end)`` range for worker *wid*, else None.

        Owners nibble ``min_grain`` items off the front of their own
        deque; an empty owner steals half of the busiest victim's back
        range first.  Returns ``None`` only when no work remains
        anywhere.
        """
        with self._lock:
            dq = self._deques[wid]
            if not dq and not self._steal_into(wid):
                return None
            s, e = dq.popleft()
            if e - s > self.min_grain:
                dq.appendleft((s + self.min_grain, e))
                self.splits += 1
                e = s + self.min_grain
            self.chunks += 1
            return s, e

    def _steal_into(self, wid: int) -> bool:
        victim, most = -1, 0
        for w, dq in enumerate(self._deques):
            if w == wid or not dq:
                continue
            remaining = sum(e - s for s, e in dq)
            if remaining > most:
                victim, most = w, remaining
        if victim < 0:
            return False
        s, e = self._deques[victim].pop()
        if e - s > self.min_grain:
            mid = s + (e - s) // 2
            self._deques[victim].append((s, mid))
            self._deques[wid].append((mid, e))
        else:
            self._deques[wid].append((s, e))
        self.steals += 1
        return True


def in_steal_worker() -> bool:
    """True when the calling thread is a steal-thread worker."""
    return getattr(_IN_STEAL_WORKER, "active", False)


def _steal_thread_fanout(fn, items: Sequence[Any], workers: int,
                         min_grain: int) -> List[Tuple[bool, Any]]:
    from repro.par.backend import _run_items

    n = len(items)
    sched = StealScheduler(n, workers, min_grain)
    wrapped: List[Any] = [None] * n

    def loop(wid: int) -> None:
        _IN_STEAL_WORKER.active = True
        try:
            while True:
                span = sched.next_chunk(wid)
                if span is None:
                    return
                s, e = span
                wrapped[s:e] = _run_items(fn, items[s:e], s)
        finally:
            _IN_STEAL_WORKER.active = False

    # dedicated threads, not the cached pool: a fan-out issued while
    # the pool is saturated with steal workers would deadlock
    threads = [
        threading.Thread(target=loop, args=(w,),
                         name=f"repro-steal-{w}", daemon=True)
        for w in range(workers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    _record_sched(sched)
    return wrapped


def _steal_process_fanout(fn, items: Sequence[Any], workers: int,
                          min_grain: int) -> List[Tuple[bool, Any]]:
    from repro.par.backend import (
        PROPAGATED_ENV,
        _drop_pool,
        _get_pool,
        _merge_obs,
        _process_worker_chunk,
    )

    n = len(items)
    sched = StealScheduler(n, workers, min_grain)
    env = {key: os.environ.get(key) for key in PROPAGATED_ENV}
    want_trace = _trace.TRACER.enabled
    pool = _get_pool("process", workers)
    wrapped: List[Any] = [None] * n
    inflight: Dict[Any, Tuple[int, Tuple[int, int]]] = {}

    def submit(slot: int) -> bool:
        span = sched.next_chunk(slot)
        if span is None:
            return False
        s, e = span
        payload = (fn, items[s:e], s, env, want_trace)
        inflight[pool.submit(_process_worker_chunk, payload)] = (slot, span)
        return True

    try:
        # one in-flight chunk per logical slot; each completion refills
        # its own slot, so the scheduler sees slot ids as worker ids
        for slot in range(workers):
            if not submit(slot):
                break
        while inflight:
            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            for future in done:
                slot, (s, e) = inflight.pop(future)
                results, counters, gauges, spans = future.result()
                _merge_obs(counters, gauges, spans)
                wrapped[s:e] = results
                submit(slot)
    except BrokenExecutor as exc:
        _drop_pool("process", workers)
        _metrics.counter("par.worker_crashes").add()
        # precise accounting: anything without a delivered result —
        # queued in the scheduler, in flight, or lost to a raced
        # submit — is still owed
        pending = [i for i in range(n) if wrapped[i] is None]
        raise WorkerCrashError(
            f"a process worker died mid-steal-fan-out ({exc!r}); "
            "the broken pool was discarded", backend="steal-process",
            pending_indices=pending,
        ) from exc
    _record_sched(sched)
    return wrapped


def _record_sched(sched: StealScheduler) -> None:
    _metrics.counter("par.steal.chunks").add(sched.chunks)
    if sched.steals:
        _metrics.counter("par.steal.steals").add(sched.steals)
    if sched.splits:
        _metrics.counter("par.steal.splits").add(sched.splits)


def steal_fanout(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    be,
    *,
    min_grain: Optional[int] = None,
) -> List[Any]:
    """Run *fn* over *items* on a work-stealing backend, in order.

    Called from :func:`repro.par.backend.map_fanout`; *be* is a
    resolved ``Backend`` whose kind is in :data:`STEAL_KINDS`.
    """
    from repro.par.backend import _run_items, _unwrap

    if be.kind not in STEAL_KINDS:
        raise ValueError(f"not a steal backend: {be.kind!r}")
    n = len(items)
    if min_grain is not None and min_grain < 1:
        raise ValueError("min_grain must be >= 1")
    grain = min_grain or default_min_grain(be.kind, n, be.workers)

    if in_steal_worker():
        # nested fan-out inside a steal worker: degrade to an inline
        # serial loop (the thread-side twin of the process workers'
        # forced REPRO_PAR=serial bootstrap)
        return _unwrap(_run_items(fn, items, 0))

    _metrics.counter("par.fanouts").add()
    _metrics.counter(f"par.fanouts.{be.kind}").add()
    _metrics.counter("par.tasks_dispatched").add(n)

    if be.kind == "steal-thread":
        wrapped = _steal_thread_fanout(fn, items, be.workers, grain)
    else:
        wrapped = _steal_process_fanout(fn, items, be.workers, grain)
    return _unwrap(wrapped)
