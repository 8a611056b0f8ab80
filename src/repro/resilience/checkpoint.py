"""The in-memory checkpoint store and crash-safe checkpoint writes.

A *checkpointable* object exposes two methods::

    checkpoint_state() -> dict   # a deep snapshot of all live state
    restore_state(state) -> None # rewind to exactly that snapshot

The contract is strict: after ``restore_state``, re-running the same
steps must reproduce the original trajectory bit-for-bit, so the
snapshot must capture *everything* that feeds the computation —
arrays, counters, cached forces, neighbor lists, and RNG states.
Every implementer in the package — the stepwise PCG/AMG solvers,
:class:`~repro.md.ddcmd.DdcMD`, the scheduler session and its queues,
:class:`~repro.workflow.mummi.MummiCampaign`, and the guard, fault,
retry and tenant state they own — derives both methods from one
schema of its fields (:mod:`repro.util.state`).  The property tests
in ``tests/test_resilience.py`` and the completeness and layout tests
in ``tests/test_state.py`` enforce the contract.

:class:`CheckpointStore` keeps the latest snapshot (plus write
accounting) and can price the write against a machine's NVMe — the
number the checkpoint-cadence/overhead benchmark trades off against
MTBF.
"""

from __future__ import annotations

import copy
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.machine import Machine


#: leaf types that are immutable and safe to share between snapshots
_IMMUTABLE = (int, float, complex, bool, str, bytes, type(None))


def snapshot(state: Any) -> Any:
    """Deep-copy a state dict (arrays, nested dicts, rng states).

    Hand-rolled rather than ``copy.deepcopy``: the generic machinery
    costs several PCG iterations per call, which would blow the <10%
    checkpoint-overhead budget at the default cadence.  Containers and
    arrays are copied structurally; immutable leaves are shared."""
    if isinstance(state, _IMMUTABLE):
        return state
    if isinstance(state, np.ndarray):
        return state.copy()
    if isinstance(state, dict):
        return {k: snapshot(v) for k, v in state.items()}
    if isinstance(state, list):
        return [snapshot(v) for v in state]
    if isinstance(state, tuple):
        return tuple(snapshot(v) for v in state)
    return copy.deepcopy(state)


def atomic_write_bytes(path: Union[str, Path], payload: bytes,
                       sync: bool = True) -> int:
    """Crash-safe whole-file write; returns bytes written.

    The payload lands in a same-directory temp file which is fsynced
    and then ``os.replace``\\ d over *path* (followed by a directory
    fsync so the rename itself survives a crash).  A SIGKILL at any
    point leaves either the previous file or the new one — never a
    truncated or half-written mix.  ``sync=False`` skips the fsyncs
    (the rename is still atomic, so the write survives process death,
    just not a kernel crash or power loss).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        if sync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if sync:
        dirfd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)
    return len(payload)


def state_nbytes(state: Any) -> int:
    """Total array payload of a snapshot, in bytes."""
    if isinstance(state, np.ndarray):
        return int(state.nbytes)
    if isinstance(state, dict):
        return sum(state_nbytes(v) for v in state.values())
    if isinstance(state, (list, tuple)):
        return sum(state_nbytes(v) for v in state)
    return 0


class CheckpointStore:
    """Holds the most recent checkpoint of one checkpointable object.

    ``save`` snapshots (deep-copies) the state so later mutation of
    the live object cannot corrupt the checkpoint; ``load`` returns a
    fresh copy for the same reason — a rollback must not alias the
    stored arrays, or the next rollback would see a half-replayed
    state.
    """

    def __init__(self) -> None:
        self._state: Optional[Dict[str, Any]] = None
        self.step: int = -1
        self.saves = 0
        self.loads = 0
        self.bytes_written = 0

    @property
    def has_checkpoint(self) -> bool:
        return self._state is not None

    @property
    def nbytes(self) -> int:
        """Size of the currently held checkpoint."""
        return state_nbytes(self._state) if self._state is not None else 0

    def save(self, step: int, state: Dict[str, Any],
             copy: bool = True, nbytes: Optional[int] = None) -> None:
        """Store *state* as the current checkpoint.

        ``copy=False`` takes ownership of *state* without the defensive
        snapshot — only safe when the caller guarantees it holds no
        aliases into live data, as ``checkpoint_state()`` does (it
        returns fresh copies).  The resilient driver uses this to
        avoid paying for every array twice.

        ``nbytes``, when given, is used for the write accounting in
        place of the recursive :func:`state_nbytes` walk — callers
        that already serialized the state (the durable store) know the
        true size and skip a walk that can cost more than the save."""
        if step < 0:
            raise ValueError("step must be >= 0")
        self._state = snapshot(state) if copy else state
        self.step = step
        self.saves += 1
        self.bytes_written += self.nbytes if nbytes is None else nbytes

    def load(self) -> Tuple[int, Dict[str, Any]]:
        if self._state is None:
            raise RuntimeError("no checkpoint saved")
        self.loads += 1
        return self.step, snapshot(self._state)

    # -- persistence (crash-safe atomic write) -------------------------

    def save_to(self, path: Union[str, Path], sync: bool = True) -> int:
        """Persist the held checkpoint to *path*; returns bytes written.

        The write is atomic (:func:`atomic_write_bytes`): a SIGKILL at
        any point leaves either the previous checkpoint file or the
        new one — never a truncated or half-written mix, which is what
        a recovery path must be able to rely on before it trusts the
        bytes.
        """
        if self._state is None:
            raise RuntimeError("no checkpoint to persist")
        payload = pickle.dumps(
            {"step": self.step, "state": self._state},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return atomic_write_bytes(path, payload, sync=sync)

    def load_from(self, path: Union[str, Path]) -> Tuple[int, Dict[str, Any]]:
        """Load a persisted checkpoint into this store and return it.

        Stray ``.tmp`` leftovers from a crash mid-:meth:`save_to` are
        ignored (and cleaned up): only the atomically-renamed file is
        ever trusted.
        """
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        if tmp.exists():
            tmp.unlink()
        with open(path, "rb") as fh:
            rec = pickle.load(fh)
        self._state = rec["state"]
        self.step = rec["step"]
        return self.load()

    def modeled_write_time(self, machine: Machine) -> float:
        """Seconds one checkpoint write would take on *machine*'s
        node-local NVMe (falls back to the network injection path when
        the node has no NVMe)."""
        bw = machine.nvme_bw if machine.nvme_bw > 0 else (
            machine.network.injection_bw
        )
        return self.nbytes / bw
