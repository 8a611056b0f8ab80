"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload capture_ab --seed 1 --seconds 30

Each workload is a closed loop with one client: the next op starts when
the previous one returns.  ``--seconds`` fixes the number of timed ops
(``OPS_PER_SECOND`` per second of run length on a 2-vCPU host), so two
runs with one seed do identical work and a traced run repeats the
untraced run's ops exactly.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` wraps each layer's public calls and prints the layer table
with per-layer metrics.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload, one process each, in turn.

Load fits a small shared host: one process, no threads, no process pool,
the serial ``REPRO_PAR`` backend.  Traces and stores live under
``.perfbench/`` in the checkout and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("capture_ab", "tenant_incident", "mummi_durable")

#: timed ops per second of ``--seconds`` (an op plus its reference loop
#: takes ~0.12-0.18 s on a 2-vCPU host, so 30 s holds 165 ops and
#: ``op_p90`` has 16 samples beyond it)
OPS_PER_SECOND = 5.5
#: set-up is repeated and ``setup_s`` is the median round
SETUP_ROUNDS = 5
#: untimed warm-up ops per set-up round, on seeds no timed op uses
WARMUPS = 4
#: traced/untraced op pairs that estimate the tracing overhead
OVERHEAD_PAIRS = 8
#: a run stops timing new ops after this long, so it always ends in time
MAX_TIMED_S = 120.0
#: environment knobs that change what the program computes, pinned to
#: their defaults (None = unset)
PINNED_ENV = {
    "REPRO_PAR": "serial",
    "REPRO_OBS_VALIDATE": None,
    "REPRO_GUARD": None,
    "REPRO_OBS_TRACE": None,
}
#: iterations of the reference loop (~25 ms on a 2-vCPU host)
REF_ITERS = 13_000
#: seconds one reference loop is taken to last: host times are reported
#: in reference seconds (host time x REF_S / reference-loop time), so the
#: host's drifting speed cancels out of ``setup_s`` and ``jobs_per_ref_s``
REF_S = 0.025


# ---------------------------------------------------------------------------
# host speed reference and host record
# ---------------------------------------------------------------------------


def reference_loop() -> float:
    """Fixed stdlib heap/dict/json and small-NumPy work.

    It belongs to the benchmark, not to the program, so its wall time
    tracks only the host's speed; each op is divided by the loop timed
    just before it.
    """
    heap: List[tuple] = []
    table: Dict[int, int] = {}
    acc = 0
    grid = np.linspace(0.0, 1.0, 1024).reshape(32, 32)
    for i in range(REF_ITERS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 64:
            key, j = heapq.heappop(heap)
            table[j % 251] = table.get(j % 251, 0) + key
        if i % 8 == 0:
            acc += len(json.dumps({"id": i, "t": i * 0.5, "d": "complete"},
                                  sort_keys=True))
        if i % 128 == 0:
            grid = grid + 0.1 * (np.roll(grid, 1, 0) - grid)
    return acc + sum(table.values()) + float(grid.sum())


def time_reference() -> int:
    """Wall nanoseconds of one reference loop, run with gc off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        reference_loop()
        return time.perf_counter_ns() - start
    finally:
        if was_enabled:
            gc.enable()


def read_cpu_stat() -> Optional[List[int]]:
    """The aggregate ``cpu`` line of /proc/stat (None where unavailable)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> Optional[float]:
    if before is None or after is None:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding *path*."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                inside = target == mount \
                    or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def draw_seeds(run_seed: int, workload_index: int,
               counts: Sequence[int]) -> List[List[int]]:
    """Distinct 31-bit program seeds per phase (timed, warm-up, overhead).

    Each phase draws from its own stream of the run seed, so the timed
    seeds do not depend on how many warm-ups ran; no seed is used twice.
    """
    seen: set = set()
    phases = []
    for phase, count in enumerate(counts):
        words = np.random.SeedSequence(
            run_seed, spawn_key=(workload_index, phase)
        ).generate_state(count + 16)
        picked = []
        for word in words:
            value = int(word) & 0x7FFFFFFF
            if value not in seen and len(picked) < count:
                seen.add(value)
                picked.append(value)
        if len(picked) < count:
            raise RuntimeError("could not draw distinct op seeds")
        phases.append(picked)
    return phases


def run_op(workload, seed: int, tracer=None):
    """One op: ``(wall_ns, outcome or None, layer row, error text)``."""
    workload.reset()
    if tracer is not None:
        tracer.begin_op()
    start = time.perf_counter_ns()
    try:
        out = workload.op(seed)
    except Exception:
        return (time.perf_counter_ns() - start, None, None,
                traceback.format_exc(limit=4))
    wall = time.perf_counter_ns() - start
    row = None if tracer is None else tracer.end_op(wall)
    try:
        outcome = workload.check(out)
    except Exception:
        return wall, None, row, traceback.format_exc(limit=4)
    return wall, outcome, row, "; ".join(outcome.problems)


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def run_workload(name: str, seed: int, n_ops: int, trace: bool,
                 setup_rounds: int = SETUP_ROUNDS, warmups: int = WARMUPS,
                 overhead_pairs: int = OVERHEAD_PAIRS) -> Dict[str, Any]:
    """Set up, warm, and time *n_ops* ops of workload *name*."""
    from layers import Tracer
    from repro.obs.metrics import REGISTRY
    from workloads import EXACT_COUNTERS, WORKLOADS

    cls = WORKLOADS[name]
    timed_seeds, warm_seeds, pair_seeds = draw_seeds(
        seed, WORKLOAD_NAMES.index(name),
        (n_ops, setup_rounds * warmups, overhead_pairs if trace else 0),
    )
    scratch = WORK / f"scratch-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    tracer = Tracer() if trace else None
    errors: List[str] = []
    setup_ns: List[int] = []
    setup_refs_ns: List[float] = []
    walls: List[int] = []
    refs: List[int] = []
    rows: List[Dict[str, Any]] = []
    digests: List[str] = []
    jobs = failed = 0
    pair_ratios: List[float] = []
    truncated = False
    stat_before = read_cpu_stat()
    try:
        if tracer is not None:
            tracer.install()
        for r in range(setup_rounds):
            # a reference loop precedes each step of the round, so the
            # round can be put in reference seconds like the timed ops
            round_refs = [time_reference()]
            start = time.perf_counter_ns()
            workload = cls(scratch)
            round_ns = time.perf_counter_ns() - start
            for s in warm_seeds[r * warmups:(r + 1) * warmups]:
                round_refs.append(time_reference())
                start = time.perf_counter_ns()
                _, outcome, _, error = run_op(workload, s, tracer)
                round_ns += time.perf_counter_ns() - start
                if outcome is None or outcome.problems:
                    errors.append(f"warm-up seed {s}: {error}")
            setup_ns.append(round_ns)
            setup_refs_ns.append(statistics.mean(round_refs))
        counters_before = REGISTRY.snapshot()["counters"]
        loop_start = time.perf_counter()
        for s in timed_seeds:
            if time.perf_counter() - loop_start > MAX_TIMED_S:
                truncated = True
                break
            refs.append(time_reference())
            wall, outcome, row, error = run_op(workload, s, tracer)
            walls.append(wall)
            if row is not None:
                rows.append(row)
            if outcome is None or outcome.problems:
                failed += 1
                errors.append(f"op seed {s}: {error}")
                digests.append("failed")
            else:
                jobs += outcome.jobs
                digests.append(outcome.digest)
        counters_after = REGISTRY.snapshot()["counters"]
        if tracer is not None:
            for k, s in enumerate(pair_seeds):
                pair = {}
                for traced in (k % 2 == 0, k % 2 == 1):  # alternate order
                    if not traced:
                        tracer.uninstall()
                    pair[traced] = run_op(
                        workload, s, tracer if traced else None)[0]
                    if not traced:
                        tracer.install()
                pair_ratios.append(pair[True] / pair[False])
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    stat_after = read_cpu_stat()
    deltas = {
        k: v - counters_before.get(k, 0)
        for k, v in counters_after.items()
        if v != counters_before.get(k, 0)
    }
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(walls),
        "failed": failed,
        "errors": errors,
        "truncated": truncated,
        "counts": {k: deltas.get(k, 0) for k in EXACT_COUNTERS},
        "digest": hashlib.sha256("\n".join(digests).encode()).hexdigest(),
        "jobs": jobs,
        "setup_ns": setup_ns,
        "setup_refs_ns": setup_refs_ns,
        "walls_ns": walls,
        "refs_ns": refs,
        "counter_deltas": deltas,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "repro_par": os.environ.get("REPRO_PAR", "serial"),
            "scratch_fs": filesystem_of(WORK),
            "ref_ms_median": statistics.median(refs) / 1e6 if refs else None,
            "steal_share": steal_share(stat_before, stat_after),
            "loadavg": list(os.getloadavg()),
        },
    }
    if trace:
        result["rows"] = rows
        result["overhead"] = (statistics.median(pair_ratios) - 1.0
                              if pair_ratios else None)
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(result: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The bounded metrics: host-normalized, so neighbours' load cancels."""
    walls, refs = result["walls_ns"], result["refs_ns"]
    norm = [w / r for w, r in zip(walls, refs)]
    setup = [w / r for w, r in zip(result["setup_ns"],
                                   result["setup_refs_ns"])]
    values = {
        "setup_s": (statistics.median(setup) * REF_S, "s"),
        "jobs_per_ref_s": (
            result["jobs"] / (sum(walls) / sum(refs) * len(refs) * REF_S),
            "1/s",
        ),
        "op_p50_norm": (percentile(norm, 50), "x"),
        "op_p90_norm": (percentile(norm, 90), "x"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB",
        ),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def host_time_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    """The same run in host time: printed, not bounded (the host's speed
    drifts by up to a third within minutes under neighbours' load)."""
    walls_ms = [w / 1e6 for w in result["walls_ns"]]
    return {
        "setup_s": statistics.median(result["setup_ns"]) / 1e9,
        "jobs_per_s": result["jobs"] / (sum(result["walls_ns"]) / 1e9),
        "op_p50_ms": percentile(walls_ms, 50),
        "op_p90_ms": percentile(walls_ms, 90),
    }


#: layers every workload exercises; the others read a constant zero self
#: time on the workloads that bypass them, so they report a share instead
SELF_MS_LAYERS = ("guard.admission", "durable.wal", "obs.metrics", "other")


def layer_counts(result: Dict[str, Any]) -> Dict[str, float]:
    """Per-op counts at the layer boundaries (wrapper tallies + counters)."""
    n = max(1, result["attempted"])
    rows, deltas = result["rows"], result["counter_deltas"]

    def calls(*labels: str) -> float:
        return sum(r["calls"][label] for r in rows for label in labels) / n

    def tally(key: str) -> float:
        return sum(r["tallies"].get(key, 0) for r in rows) / n

    def delta(key: str) -> float:
        return deltas.get(key, 0) / n

    return {
        "traffic.population.jobs_generated_per_op": tally("jobs_generated"),
        "sched.events_processed_per_op": delta("sched.events_processed"),
        "sched.jobs_shed_per_op": delta("sched.jobs_shed"),
        "sched.faults_injected_per_op": delta("sched.faults_injected"),
        "guard.admission.admits_per_op": calls("AdmissionController.admit"),
        "guard.admission.admitted_per_op": tally("admitted"),
        "guard.shed_per_op": delta("guard.shed"),
        "tenant.registry.admitted_per_op": tally("tenant_admitted"),
        "tenant.registry.shed_suppressed_per_op":
            delta("guard.tenant.shed_suppressed"),
        "tenant.registry.noisy_shed_per_op": delta("guard.tenant.noisy.shed"),
        "traffic.capture.frames_per_op":
            calls("CaptureTap.on_job", "CaptureTap.on_decision"),
        "traffic.capture.jobs_per_op": delta("traffic.capture_jobs"),
        "traffic.trace.frames_per_op":
            calls("TraceWriter.append_job", "TraceWriter.append_decision"),
        "durable.wal.appends_per_op": calls("WriteAheadLog.append"),
        "durable.wal.bytes_per_op": tally("wal_bytes"),
        "durable.wal.fsyncs_per_op": tally("fsyncs"),
        "durable.store.commits_per_op": delta("durable.journal_records"),
        "par.fanouts_per_op": calls("backend.map_fanout"),
        "par.items_per_op": tally("fanout_items"),
        "workflow.mummi.cycles_per_op": delta("workflow.mummi.cycles"),
        "workflow.mummi.surrogate_cycles_per_op":
            delta("guard.fallback.mummi.served.surrogate"),
        "obs.metrics.calls_per_op":
            calls("metrics.snapshot", "metrics.snapshot_prefix"),
        "replay.replays_per_op": tally("replays"),
        "tenant.incidents_dumped_per_op": delta("tenant.incidents_dumped"),
    }


def per_layer_metrics(result: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    from layers import LAYERS, layer_table

    table = layer_table(result["rows"])
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in LAYERS:
        row = table[name]
        if name != "other":
            metrics[f"{name}.calls_per_op"] = {
                "value": row["calls_per_op"], "unit": "count"}
        if name in SELF_MS_LAYERS:
            metrics[f"{name}.self_ms_per_op"] = {
                "value": row["self_ms_per_op"], "unit": "ms"}
        metrics[f"{name}.share"] = {"value": row["share"], "unit": "fraction"}
    for key, value in layer_counts(result).items():
        metrics[key] = {"value": value,
                        "unit": "B" if key.endswith("bytes_per_op")
                        else "count"}
    walls_ms = [w / 1e6 for w in result["walls_ns"]]
    metrics["traced.op_p50_ms"] = {"value": percentile(walls_ms, 50),
                                   "unit": "ms"}
    metrics["traced.overhead"] = {"value": result["overhead"],
                                  "unit": "fraction"}
    return metrics


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_program() -> None:
    """Pin the environment, put the checkout's ``src`` first on the path,
    and import every module a workload uses before any clock starts."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC}; run from a checkout "
                 "of the repository")
    for key, value in PINNED_ENV.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers  # noqa: F401
    import workloads  # noqa: F401


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} exited {child.returncode} without "
                  "a result", file=sys.stderr)
            return 1
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    prepare_program()
    n_ops = max(1, round(args.seconds * OPS_PER_SECOND))
    result = run_workload(args.workload, args.seed, n_ops, bool(args.trace))
    if args.trace:
        from layers import layer_table, render_table

        metrics = per_layer_metrics(result)
        print(render_table(args.workload, layer_table(result["rows"]),
                           result["overhead"],
                           metrics["traced.op_p50_ms"]["value"]))
    else:
        metrics = end_to_end_metrics(result)
    correct = result["failed"] == 0 and not result["errors"]
    print(f"perfbench {args.workload}: seed={args.seed} "
          f"ops={result['attempted']} failed={result['failed']} "
          f"trace={args.trace}"
          + (f" (stopped after {MAX_TIMED_S:.0f} s)"
             if result["truncated"] else ""))
    print("host: " + json.dumps(result["host"], sort_keys=True))
    print("host time: " + json.dumps(host_time_metrics(result)))
    print("counts: " + json.dumps(result["counts"], sort_keys=True))
    print("digest: " + result["digest"])
    for error in result["errors"][:5]:
        print("error: " + error.strip().replace("\n", " | "),
              file=sys.stderr)
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, metrics=metrics)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
