"""Traced runs: spans around the calls into each layer, and the layer table.

Wrappers are installed from the benchmark's side around public
functions and methods of the program (never inside it); timed runs
install none.  Each wrapped call records a span ``[target, start, end,
parent]`` in memory.  A layer's self time is the duration of its spans
minus the time their child spans cover, and ``other`` is op wall time
minus the top-level spans, so every op's column sums to its wall time.

Spans are folded into per-op rows when each op returns, after its clock
has stopped; only the rows are kept, so memory stays flat over a run.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.durable import DurableStore, WriteAheadLog
from repro.guard.deadline import AdmissionController, CircuitBreaker
from repro.par import ShmStage
from repro.sched.simulator import ClusterSimulator
from repro.tenant import TenantRegistry
from repro.traffic import (
    ArrivalProcess,
    CaptureTap,
    OpenLoopDriver,
    TraceWriter,
    TrafficTrace,
    UserPopulation,
)
from repro.workflow import MacroModel, MummiCampaign

#: layer names, in table order (``other`` closes each column)
LAYERS = (
    "traffic.population", "sched.session", "sched.batch", "guard.admission",
    "tenant.registry", "traffic.capture", "traffic.trace", "durable.wal",
    "durable.store", "par", "workflow.mummi", "obs.metrics", "replay",
    "other",
)


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _frame_bytes(args, kwargs, result) -> int:
    return len(args[1]) + 8  # payload plus the u32 length + u32 crc header


def _admitted(args, kwargs, result) -> int:
    return 1 if result else 0


#: (layer, owner, attribute, tally name or None, tally function)
#: owners given as a module name are patched in every module that binds
#: the function, so ``from x import f`` call sites see the wrapper too
TARGETS = (
    ("traffic.population", "repro.traffic.driver", "generate_jobs",
     None, None),
    ("traffic.population", UserPopulation, "jobs_for",
     "jobs_generated", _len_result),
    ("traffic.population", ArrivalProcess, "sample", None, None),
    ("traffic.population", "repro.tenant.scenario", "multitenant_pileup",
     None, None),
    ("sched.session", OpenLoopDriver, "run", None, None),
    ("sched.batch", ClusterSimulator, "run", None, None),
    ("guard.admission", AdmissionController, "admit", "admitted", _admitted),
    ("guard.admission", AdmissionController, "decide", None, None),
    ("guard.admission", AdmissionController, "record_success", None, None),
    ("guard.admission", AdmissionController, "record_failure", None, None),
    ("guard.admission", CircuitBreaker, "record_success", None, None),
    ("guard.admission", CircuitBreaker, "record_failure", None, None),
    ("tenant.registry", TenantRegistry, "admit", "tenant_admitted",
     _admitted),
    ("tenant.registry", TenantRegistry, "record_success", None, None),
    ("tenant.registry", TenantRegistry, "record_failure", None, None),
    ("tenant.registry", "repro.tenant.arbiter", "weighted_max_min",
     None, None),
    ("traffic.capture", CaptureTap, "on_job", None, None),
    ("traffic.capture", CaptureTap, "on_decision", None, None),
    ("traffic.capture", CaptureTap, "seal", None, None),
    ("traffic.trace", TraceWriter, "append_job", None, None),
    ("traffic.trace", TraceWriter, "append_decision", None, None),
    ("traffic.trace", TraceWriter, "seal", None, None),
    ("traffic.trace", TrafficTrace, "record", None, None),
    ("traffic.trace", TrafficTrace, "load", None, None),
    ("durable.wal", WriteAheadLog, "append", "wal_bytes", _frame_bytes),
    ("durable.wal", WriteAheadLog, "flush", None, None),
    ("durable.wal", "repro.durable.wal", "read_records", None, None),
    ("durable.store", DurableStore, "journal", None, None),
    ("durable.store", DurableStore, "save_snapshot", None, None),
    ("durable.store", DurableStore, "recover", None, None),
    ("durable.store", MummiCampaign, "checkpoint_state", None, None),
    ("par", "repro.par.backend", "map_fanout", "fanout_items", _len_result),
    ("par", ShmStage, "share", None, None),
    ("workflow.mummi", MacroModel, "step", None, None),
    ("workflow.mummi", MummiCampaign, "select_candidates", None, None),
    ("workflow.mummi", MummiCampaign, "run_cycle", None, None),
    ("obs.metrics", "repro.obs.metrics", "snapshot", None, None),
    ("obs.metrics", "repro.obs.metrics", "snapshot_prefix", None, None),
    ("replay", "repro.traffic.ab", "ab_replay", None, None),
    ("replay", "repro.tenant.recorder", "verify_incident", None, None),
)

#: generator functions: drained inside their span so the read is timed
_GENERATORS = {"read_records"}


class Tracer:
    """Installs the span wrappers and folds each op's spans into a row."""

    def __init__(self) -> None:
        #: ``Class.method`` or ``module.function`` per target
        self.labels = [
            f"{(o if isinstance(o, str) else o.__name__).rsplit('.', 1)[-1]}"
            f".{a}" for _, o, a, _, _ in TARGETS
        ]
        self.layer_of = [LAYERS.index(t[0]) for t in TARGETS]
        self._spans: List[list] = []
        #: open spans, innermost last; -1 is the op itself
        self._stack: List[int] = [-1]
        self._tallies: Dict[str, int] = defaultdict(int)
        self._fsyncs = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- wrappers -------------------------------------------------------

    def _wrap(self, idx: int, fn: Callable, tally: Optional[str],
              tally_fn: Optional[Callable], drain: bool) -> Callable:
        spans, stack, tallies = self._spans, self._stack, self._tallies
        clock = time.perf_counter_ns

        if tally is None and not drain:
            def traced(*args, **kwargs):
                rec = [idx, clock(), 0, stack[-1]]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    rec[2] = clock()

            return traced

        def traced_counted(*args, **kwargs):
            rec = [idx, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = iter(list(result))
                if tally is not None:
                    tallies[tally] += tally_fn(args, kwargs, result)
                return result
            finally:
                stack.pop()
                rec[2] = clock()

        return traced_counted

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for idx, (_, owner, attr, tally, tally_fn) in enumerate(TARGETS):
            drain = attr in _GENERATORS
            if isinstance(owner, str):
                fn = getattr(sys.modules[owner], attr)
                wrapper = self._wrap(idx, fn, tally, tally_fn, drain)
                for module in list(sys.modules.values()):
                    if getattr(module, "__dict__", {}).get(attr) is fn:
                        self._patch(module, attr, wrapper)
                continue
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(idx, raw.__func__, tally, tally_fn, drain)
                )
            else:
                wrapped = self._wrap(idx, raw, tally, tally_fn, drain)
            self._patch(owner, attr, wrapped)
        real_fsync = os.fsync

        def counting_fsync(fd):
            self._fsyncs += 1
            return real_fsync(fd)

        self._patch(os, "fsync", counting_fsync)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-op accounting ------------------------------------------------

    def begin_op(self) -> None:
        self._spans.clear()
        self._stack[:] = [-1]
        self._tallies.clear()
        self._fsyncs = 0

    def end_op(self, wall_ns: int) -> Dict[str, Any]:
        """Fold this op's spans into ``{layer: [entries, self_ns]}`` etc."""
        spans, layer_of = self._spans, self.layer_of
        child_ns = [0] * len(spans)
        top_ns = 0
        for rec in spans:
            parent = rec[3]
            if parent < 0:
                top_ns += rec[2] - rec[1]
            else:
                child_ns[parent] += rec[2] - rec[1]
        layers = {name: [0, 0] for name in LAYERS}
        calls = [0] * len(self.labels)
        replay = LAYERS.index("replay")
        session_run = self.labels.index("OpenLoopDriver.run")
        replays = 0
        for i, (target, start, end, parent) in enumerate(spans):
            layer = layer_of[target]
            row = layers[LAYERS[layer]]
            row[1] += end - start - child_ns[i]
            if parent < 0 or layer_of[spans[parent][0]] != layer:
                row[0] += 1
            calls[target] += 1
            if target == session_run:
                while parent >= 0 and layer_of[spans[parent][0]] != replay:
                    parent = spans[parent][3]
                replays += parent >= 0
        layers["other"][1] = wall_ns - top_ns
        tallies = dict(self._tallies)
        tallies["fsyncs"] = self._fsyncs
        tallies["replays"] = replays
        return {
            "wall_ns": wall_ns,
            "layers": layers,
            "calls": dict(zip(self.labels, calls)),
            "tallies": tallies,
        }


def layer_table(rows: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per-layer calls per op, self ms per op and share of op wall time."""
    n = max(1, len(rows))
    wall = sum(r["wall_ns"] for r in rows) or 1
    table = {}
    for name in LAYERS:
        entries = sum(r["layers"][name][0] for r in rows)
        self_ns = sum(r["layers"][name][1] for r in rows)
        table[name] = {
            "calls_per_op": entries / n,
            "self_ms_per_op": self_ns / n / 1e6,
            "share": self_ns / wall,
        }
    return table


def render_table(workload: str, table: Dict[str, Dict[str, float]],
                 overhead: Optional[float], traced_p50_ms: float) -> str:
    lines = [
        f"layer table: {workload} (traced op p50 {traced_p50_ms:.2f} ms"
        + ("" if overhead is None
           else f", tracing overhead {100 * overhead:+.1f}%") + ")",
        f"{'layer':<20}{'calls/op':>12}{'self ms/op':>13}{'share':>9}",
    ]
    for name in LAYERS:
        row = table[name]
        calls = "" if name == "other" else f"{row['calls_per_op']:.1f}"
        lines.append(f"{name:<20}{calls:>12}{row['self_ms_per_op']:>13.3f}"
                     f"{100 * row['share']:>8.1f}%")
    total_ms = sum(r["self_ms_per_op"] for r in table.values())
    total_share = sum(r["share"] for r in table.values())
    lines.append(f"{'total':<20}{'':>12}{total_ms:>13.3f}"
                 f"{100 * total_share:>8.1f}%")
    return "\n".join(lines)
