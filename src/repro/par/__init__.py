"""Parallel execution backend for the repro workload (``repro.par``).

The paper's premise is a heterogeneous, massively parallel machine
(§2: 4 GPUs + 44 cores per Sierra node), and nearly every campaign in
this repo — KAVG/ASGD learner rounds, the three-stream ensemble, MuMMI
per-cycle micro evaluation, minikin zone sweeps, the bench case runner
— is an embarrassingly parallel fan-out.  ``repro.par`` gives them one
engine with interchangeable backends (``serial`` / ``thread`` /
``process`` plus the work-stealing ``steal-thread`` / ``steal-process``
variants, selected per call or via ``REPRO_PAR``), under a hard
determinism contract: *for pure task functions, every backend returns
bit-identical results* (see DESIGN.md §12 and §14).

Public surface:

- :func:`map_fanout` — ordered, chunked map over items.
- :func:`run_ensemble` — heterogeneous :class:`Task` fan-out.
- :class:`SharedArray` — shared-memory transport for large operands,
  refcounted; :class:`ShmStage` scopes a staging handshake to one
  fan-out and :func:`live_segments` / :func:`sweep_leaked_segments`
  expose the leak detector that runs on pool shutdown.
- :func:`get_backend` / :class:`Backend` — spec resolution
  (``"process:4"``, env default, worker counts).
- :class:`WorkerTaskError` / :class:`WorkerCrashError` — typed
  failure surface (a dead worker never hangs the parent; a crash
  reports its ``pending_indices``, the exact set a caller resubmits).
- :func:`shutdown_pools` — drop the cached executors (tests/atexit).

Observability composes: process-backend chunks ship their counter and
gauge deltas and their trace spans back to the parent, which merges
them into the process-wide registries on join — ``obs.snapshot()``
after a fan-out reads the same regardless of backend.  Guard config
(``REPRO_GUARD``, ``REPRO_OBS_VALIDATE``) is re-propagated into
workers on every chunk.  The package imports only ``repro.obs``
outside itself.
"""

from repro.par.backend import (
    BACKEND_ENV,
    Backend,
    PROPAGATED_ENV,
    Task,
    backend_from_env,
    get_backend,
    map_fanout,
    parse_backend_spec,
    run_ensemble,
    shutdown_pools,
)
from repro.par.errors import (
    ParError,
    WorkerCrashError,
    WorkerTaskError,
)
from repro.par.shm import (
    SharedArray,
    ShmStage,
    live_segments,
    sweep_leaked_segments,
)
from repro.par.steal import STEAL_KINDS, StealScheduler

__all__ = [
    "BACKEND_ENV",
    "Backend",
    "PROPAGATED_ENV",
    "ParError",
    "STEAL_KINDS",
    "SharedArray",
    "ShmStage",
    "StealScheduler",
    "Task",
    "WorkerCrashError",
    "WorkerTaskError",
    "backend_from_env",
    "get_backend",
    "live_segments",
    "map_fanout",
    "parse_backend_spec",
    "run_ensemble",
    "shutdown_pools",
    "sweep_leaked_segments",
]
