"""Typed errors for the parallel execution backend.

Every failure mode a fan-out can hit surfaces as a subclass of
:class:`ParError`, never as a bare pool exception or a hang:

- :class:`WorkerTaskError` — the task function raised.  Carries the
  task index, the original exception type name, and (for in-process
  backends) chains the original exception as ``__cause__``; for the
  process backend, where the original traceback object cannot cross
  the pipe, the formatted worker traceback rides along as text.
- :class:`WorkerCrashError` — a worker *process* died without
  returning (segfault, ``os._exit``, OOM kill).  Raised from the
  executor's broken-pool signal; the dead pool is evicted from the
  cache so the next fan-out gets a fresh one.  Carries
  ``pending_indices`` — the input indices whose results never came
  back — so a caller can resubmit precisely instead of re-running
  the whole fan-out.
"""

from __future__ import annotations

from typing import Optional, Sequence


class ParError(RuntimeError):
    """Base class for parallel-backend failures."""


class WorkerTaskError(ParError):
    """A task function raised inside a worker."""

    def __init__(self, task_index: int, error_type: str, message: str,
                 worker_traceback: str = ""):
        super().__init__(
            f"task {task_index} failed with {error_type}: {message}"
        )
        self.task_index = task_index
        self.error_type = error_type
        self.worker_traceback = worker_traceback


class WorkerCrashError(ParError):
    """A worker process died without returning a result.

    ``pending_indices`` lists the input indices whose results were
    still outstanding when the pool broke — exactly the work a caller
    must resubmit.  Empty when the crash site could not be narrowed
    (e.g. the executor broke before any chunk was submitted).
    """

    def __init__(self, message: str, backend: Optional[str] = None,
                 pending_indices: Sequence[int] = ()):
        super().__init__(message)
        self.backend = backend
        self.pending_indices = tuple(pending_indices)

