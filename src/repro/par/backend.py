"""Pluggable execution backends: ``serial`` / ``thread`` / ``process``
plus the work-stealing ``steal-thread`` / ``steal-process`` variants.

One fan-out API, five engines:

- **serial** — an inline loop in the caller's process.  The reference
  semantics; its overhead over a bare ``for`` loop is one function
  call and one result-unwrap per item (< 3%, gated by the
  ``par_fanout`` bench case).
- **thread** — a cached :class:`~concurrent.futures.ThreadPoolExecutor`.
  Overlaps waits (simulated service, I/O, lock-released numpy);
  shares the parent's metrics registry and tracer directly.
- **process** — a cached :class:`~concurrent.futures.ProcessPoolExecutor`
  (fork context where available).  True parallelism; guard/validate
  env config is re-applied per chunk, large operands ride
  :class:`~repro.par.shm.SharedArray` segments, and each chunk ships
  back its counter/gauge deltas and trace spans, which the parent
  merges into the process-wide registries on join.
- **steal-thread / steal-process** — work-stealing variants for
  fine-grained or skewed task sets (:mod:`repro.par.steal`).  Instead
  of static pre-chunking, a parent-side scheduler holds per-worker
  deques of index ranges; owners nibble small chunks off the front of
  their own deque and idle workers steal half of the largest victim's
  remaining range from the back, splitting down to a minimum grain.
  Same determinism/obs/error contract as the static backends.

Backend selection: an explicit ``backend=`` argument wins, otherwise
the ``REPRO_PAR`` environment variable (``serial`` when unset).  Both
accept ``kind`` or ``kind:N`` (worker count), e.g. ``process:4``.

Determinism contract: for a pure task function, ``map_fanout`` returns
bit-identical results for every backend, worker count, and chunk size
— results are ordered by input index, dispatch is chunked but
reassembled in order, and RNG material must be passed *into* tasks
(derived per task in the parent), never derived from worker identity.
Workers never start nested pools: ``REPRO_PAR`` is forced to
``serial`` inside every worker chunk.
"""

from __future__ import annotations

import atexit
import os
import threading
import traceback
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.par.errors import WorkerCrashError, WorkerTaskError

#: Environment variable selecting the default backend (``kind[:N]``).
BACKEND_ENV = "REPRO_PAR"

#: Config propagated into process workers on every chunk (re-read per
#: chunk so mode flips in the parent reach long-lived pool workers).
PROPAGATED_ENV = (
    "REPRO_GUARD",
    "REPRO_OBS_VALIDATE",
    "REPRO_JIT_CACHE_DIR",
)

KINDS = ("serial", "thread", "process", "steal-thread", "steal-process")

#: trace records buffered per worker chunk before the oldest drop
WORKER_TRACE_CAPACITY = 65536


@dataclass(frozen=True)
class Backend:
    """A resolved execution backend: engine kind + worker count."""

    kind: str
    workers: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"backend kind must be one of {KINDS}, got {self.kind!r}"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def parse_backend_spec(spec: str) -> Tuple[str, Optional[int]]:
    """``"process:4"`` -> ``("process", 4)``; bare kind -> ``(kind, None)``."""
    raw = spec.strip().lower()
    kind, sep, count = raw.partition(":")
    if kind not in KINDS:
        raise ValueError(
            f"backend spec {spec!r}: kind must be one of {KINDS}"
        )
    if not sep:
        return kind, None
    try:
        workers = int(count)
    except ValueError:
        raise ValueError(f"backend spec {spec!r}: bad worker count") from None
    if workers < 1:
        raise ValueError(f"backend spec {spec!r}: workers must be >= 1")
    return kind, workers


def backend_from_env() -> str:
    """The ``REPRO_PAR`` value, or ``"serial"`` when unset/empty."""
    return os.environ.get(BACKEND_ENV, "").strip() or "serial"


def get_backend(
    spec: Union[None, str, Backend] = None,
    workers: Optional[int] = None,
) -> Backend:
    """Resolve *spec* (argument > ``REPRO_PAR`` env > serial)."""
    if isinstance(spec, Backend):
        if workers is not None and workers != spec.workers:
            return Backend(spec.kind, workers)
        return spec
    kind, spec_workers = parse_backend_spec(
        spec if spec is not None else backend_from_env()
    )
    n = workers if workers is not None else spec_workers
    if n is None:
        n = 1 if kind == "serial" else max(1, os.cpu_count() or 1)
    return Backend(kind, n)


@dataclass
class Task:
    """One unit of ensemble work: a callable plus its arguments."""

    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Optional[Dict[str, Any]] = None
    name: Optional[str] = None

    def run(self) -> Any:
        return self.fn(*self.args, **(self.kwargs or {}))


# ---------------------------------------------------------------------------
# worker-side chunk execution
# ---------------------------------------------------------------------------


class _TaskFailure:
    """Picklable record of one failed task (crossed back to the parent)."""

    __slots__ = ("index", "error_type", "message", "worker_traceback",
                 "exception")

    def __init__(self, index: int, error_type: str, message: str,
                 worker_traceback: str = "", exception=None):
        self.index = index
        self.error_type = error_type
        self.message = message
        self.worker_traceback = worker_traceback
        self.exception = exception  # in-process backends only

    def __getstate__(self):
        # the live exception object stays on the worker side
        return (self.index, self.error_type, self.message,
                self.worker_traceback)

    def __setstate__(self, state):
        self.index, self.error_type, self.message, self.worker_traceback = (
            state
        )
        self.exception = None


def _run_items(fn, items: Sequence[Any], start: int) -> List[Tuple[bool, Any]]:
    """Run a chunk; each slot is ``(ok, value-or-_TaskFailure)``."""
    out: List[Tuple[bool, Any]] = []
    for off, item in enumerate(items):
        index = start + off
        try:
            out.append((True, fn(item)))
        except BaseException as exc:  # surfaced as typed errors on join
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            out.append((False, _TaskFailure(
                index, type(exc).__name__, str(exc),
                traceback.format_exc(), exception=exc,
            )))
    return out


def _apply_env(env: Dict[str, Optional[str]]) -> None:
    for key, value in env.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


def _process_worker_chunk(payload):
    """Entry point executed inside a pool worker (top-level, picklable)."""
    fn, items, start, env, want_trace = payload
    _apply_env(env)
    sink = None
    if want_trace:
        sink = _trace.RingBufferSink(capacity=WORKER_TRACE_CAPACITY)
        _trace.TRACER.enable(sink)
    before = _metrics.snapshot()
    try:
        results = _run_items(fn, items, start)
    finally:
        if sink is not None:
            _trace.TRACER.remove_sink(sink)
    after = _metrics.snapshot()
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
        if value != before["counters"].get(name, 0)
    }
    gauges = {
        name: value
        for name, value in after["gauges"].items()
        if value != before["gauges"].get(name)
    }
    spans = None
    if sink is not None:
        pid = os.getpid()
        spans = [dict(rec, worker_pid=pid) for rec in sink]
    return results, counters, gauges, spans


def _merge_obs(counters, gauges, spans) -> None:
    """Fold one chunk's child observability back into the parent."""
    if counters:
        for name, delta in counters.items():
            _metrics.counter(name).add(delta)
    if gauges:
        for name, value in gauges.items():
            _metrics.gauge(name).set(value)
    if spans and _trace.TRACER.enabled:
        for rec in spans:
            _trace.TRACER._emit(rec)


# ---------------------------------------------------------------------------
# cached pools
# ---------------------------------------------------------------------------

_POOLS: Dict[Tuple[str, int, str], Any] = {}
_POOLS_LOCK = threading.Lock()


def _worker_bootstrap() -> None:
    """Pool-worker initializer: workers never start nested pools."""
    os.environ[BACKEND_ENV] = "serial"


def _mp_context():
    """The multiprocessing context process pools are built on."""
    try:
        import multiprocessing as mp

        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return None


def _pool_key(kind: str, workers: int) -> Tuple[str, int, str]:
    """Cache key: (kind, workers, mp context name).

    The context name matters: a pool forked under one start method
    must not be reused if the preferred context changes (e.g. a test
    monkeypatching to spawn), or chunk payloads pickled for one
    context land on workers bootstrapped under another.
    """
    if kind == "thread":
        return (kind, workers, "")
    ctx = _mp_context()
    return (kind, workers, getattr(ctx, "_name", None) or "default")


def _get_pool(kind: str, workers: int):
    key = _pool_key(kind, workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            if kind == "thread":
                pool = ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix="repro-par",
                )
            else:
                pool = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=_mp_context(),
                    initializer=_worker_bootstrap,
                )
            _POOLS[key] = pool
    return pool


def _drop_pool(kind: str, workers: int) -> None:
    with _POOLS_LOCK:
        pool = _POOLS.pop(_pool_key(kind, workers), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every cached executor (tests, interpreter exit).

    Also sweeps the shared-memory registry: any segment still owned
    once the pools are gone has no worker left to consume it and is
    reported (and reclaimed) as a leak.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)
    from repro.par import shm as _shm

    _shm.sweep_leaked_segments(warn=True)


atexit.register(shutdown_pools)


# ---------------------------------------------------------------------------
# the fan-out API
# ---------------------------------------------------------------------------


def _unwrap(wrapped: List[Tuple[bool, Any]]) -> List[Any]:
    for ok, value in wrapped:
        if ok:
            continue
        f: _TaskFailure = value
        _metrics.counter("par.task_errors").add()
        err = WorkerTaskError(f.index, f.error_type, f.message,
                              f.worker_traceback)
        if f.exception is not None:
            raise err from f.exception
        raise err
    return [value for _, value in wrapped]


def _chunk_ok(future) -> bool:
    """True when a chunk's result is safely in hand despite the break."""
    if not future.done() or future.cancelled():
        return False
    return future.exception() is None


def _pending_indices(futures, starts: List[int], chunk: int,
                     n_items: int) -> List[int]:
    """Input indices with no delivered result when the pool broke.

    Chunks whose futures completed cleanly before the break are done;
    everything else — futures that were cancelled, errored, or never
    submitted (``submit`` itself raised on a broken pool) — still owes
    its index range.
    """
    pending: List[int] = []
    for i, start in enumerate(starts):
        if i < len(futures) and _chunk_ok(futures[i]):
            continue
        pending.extend(range(start, min(start + chunk, n_items)))
    return pending


def _chunk_bounds(n_items: int, workers: int,
                  chunk_size: Optional[int]) -> int:
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        return chunk_size
    # ~4 chunks per worker: load-balances stragglers without drowning
    # the queue in per-item dispatch overhead
    return max(1, -(-n_items // (workers * 4)))


def map_fanout(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    backend: Union[None, str, Backend] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """Apply *fn* to every item, in input order, on the chosen backend.

    The workhorse primitive: chunked dispatch, ordered reassembly,
    typed failures (:class:`WorkerTaskError` /
    :class:`WorkerCrashError`), and — for the process backend —
    per-chunk guard-env propagation plus child metric/span merge on
    join.  For pure *fn* the result list is
    bit-identical across backends, worker counts, and chunk sizes.
    """
    items = list(items)
    be = get_backend(backend, workers)
    if not items:
        return []
    if be.kind == "serial":
        return _unwrap(_run_items(fn, items, 0))

    if be.kind.startswith("steal-"):
        from repro.par.steal import steal_fanout

        # chunk_size doubles as the minimum steal grain: ranges are
        # split on steal, but never below this many items
        return steal_fanout(fn, items, be, min_grain=chunk_size)

    chunk = _chunk_bounds(len(items), be.workers, chunk_size)
    starts = list(range(0, len(items), chunk))
    _metrics.counter("par.fanouts").add()
    _metrics.counter(f"par.fanouts.{be.kind}").add()
    _metrics.counter("par.tasks_dispatched").add(len(items))

    if be.kind == "thread":
        pool = _get_pool("thread", be.workers)
        futures = [
            pool.submit(_run_items, fn, items[s:s + chunk], s)
            for s in starts
        ]
        wrapped: List[Tuple[bool, Any]] = []
        for future in futures:
            wrapped.extend(future.result())
        return _unwrap(wrapped)

    # process backend
    env = {key: os.environ.get(key) for key in PROPAGATED_ENV}
    want_trace = _trace.TRACER.enabled
    pool = _get_pool("process", be.workers)
    payloads = [
        (fn, items[s:s + chunk], s, env, want_trace)
        for s in starts
    ]
    wrapped = []
    futures: List[Any] = []
    try:
        # submit stays inside the guard: a crash in an early chunk can
        # mark the pool broken while later chunks are still being
        # submitted, and then submit itself raises BrokenProcessPool
        futures = [pool.submit(_process_worker_chunk, p) for p in payloads]
        for future in futures:
            results, counters, gauges, spans = future.result()
            _merge_obs(counters, gauges, spans)
            wrapped.extend(results)
    except BrokenExecutor as exc:
        _drop_pool("process", be.workers)
        _metrics.counter("par.worker_crashes").add()
        pending = _pending_indices(futures, starts, chunk, len(items))
        raise WorkerCrashError(
            f"a process worker died mid-fan-out ({exc!r}); "
            "the broken pool was discarded", backend="process",
            pending_indices=pending,
        ) from exc
    return _unwrap(wrapped)


def _call_task(task: Task) -> Any:
    return task.run()


def run_ensemble(
    tasks: Iterable[Task],
    *,
    backend: Union[None, str, Backend] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """Run heterogeneous :class:`Task`\\ s; results in task order."""
    task_list = list(tasks)
    for t in task_list:
        if not isinstance(t, Task):
            raise TypeError("run_ensemble expects repro.par.Task objects")
    return map_fanout(
        _call_task, task_list, backend=backend, workers=workers,
        chunk_size=chunk_size,
    )
