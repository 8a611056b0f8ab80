#!/usr/bin/env python
"""Perf-regression harness: time the hot paths, emit BENCH_N.json.

Runs a curated subset of the repo's performance-critical kernels with
fixed seeds, timing both the SEQ reference implementation and the
vectorized fast path of each:

- ``gauss_seidel``   — lexicographic triangular-solve sweeps vs the
  multicolor (red-black) vectorized sweeps.
- ``md_neighbor``    — per-cell Python-loop neighbor build vs the
  compiled periodic kd-tree build.
- ``md_forces``      — ``np.add.at`` force scatter vs the per-component
  ``np.bincount`` scatter.
- ``sched_events``   — policy.select over a list (O(queue) per event)
  vs the heap-backed fast queue engine.
- ``trace_pricing``  — per-entry roofline pricing (memo disabled) of a
  plain trace vs pricing the record-time-compacted trace with memoized
  per-launch times; totals must agree.
- ``jit_warm_start`` — cold render+compile vs warm start from the
  persistent on-disk JIT cache.

Each case records ``wall_s`` (fast path), ``ref_wall_s`` (reference),
``speedup``, and — where the workload has a roofline trace —
``modeled_s``, the modeled execution time on the sierra node.  Modeled
times come from the performance model, not the host clock, so they are
bit-stable across machines; wall times are what the regression gate
checks.

Output is ``BENCH_<n>.json`` in the repo root (next free index, or
``--output``).  When an earlier ``BENCH_*.json`` exists, each case's
``wall_s`` is compared against the most recent baseline with the same
mode; a slowdown beyond ``--tolerance`` (default 1.5x, wall clocks are
noisy) fails the run with exit code 1.

``--smoke`` shrinks every case for CI (< ~1 minute total); full mode
uses the sizes the acceptance numbers quote (10^4-row Gauss-Seidel,
8000-particle neighbor build, 10^4-job schedule, 10^5-launch trace).
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

SCHEMA = 1


def _timed(fn: Callable[[], object]) -> Tuple[object, float]:
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _timed_best(fn: Callable[[], object], n: int) -> Tuple[object, float]:
    """Best-of-*n* wall time (and the last result).

    Scheduling and allocator noise is strictly additive, so the
    fastest sample is the closest estimate of the true cost.  Used on
    BOTH sides of a comparison — a best-of-N fast path against a
    single-sample reference flatters the speedup by however much
    noise the one reference sample happened to absorb.
    """
    best = float("inf")
    out = None
    for _ in range(n):
        out, t = _timed(fn)
        best = min(best, t)
    return out, best


def _case(name: str, wall_s: float, ref_wall_s: Optional[float] = None,
          modeled_s: Optional[float] = None, check: str = "ok") -> Dict:
    rec = {
        "name": name,
        "wall_s": round(wall_s, 6),
        "ref_wall_s": None if ref_wall_s is None else round(ref_wall_s, 6),
        "speedup": (
            None if ref_wall_s is None or wall_s == 0
            else round(ref_wall_s / wall_s, 2)
        ),
        "modeled_s": None if modeled_s is None else float(modeled_s),
        "check": check,
    }
    return rec


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def case_gauss_seidel(smoke: bool) -> Dict:
    from repro.core.forall import ExecutionContext
    from repro.core.machine import get_machine
    from repro.core.roofline import RooflineModel
    from repro.solvers import (
        gauss_seidel,
        gauss_seidel_multicolor,
        poisson_2d,
    )
    from repro.solvers.csr import CsrMatrix

    grid = 40 if smoke else 100
    sweeps = 4 if smoke else 10
    ctx = ExecutionContext()
    a = CsrMatrix(poisson_2d(grid), ctx=ctx)
    n = a.shape[0]
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)
    x0 = np.zeros(n)

    ref, t_ref = _timed_best(
        lambda: gauss_seidel(a, b, x0, sweeps=sweeps), 3
    )
    gauss_seidel_multicolor(a, b, x0, sweeps=1)  # build/cache the coloring
    fast, t_fast = _timed_best(
        lambda: gauss_seidel_multicolor(a, b, x0, sweeps=sweeps), 3
    )
    r_ref = float(np.linalg.norm(b - a.tocsr() @ ref))
    r_fast = float(np.linalg.norm(b - a.tocsr() @ fast))
    ok = r_fast <= 1.5 * r_ref
    # modeled cost of the sweeps' SpMV work on sierra (1 GPU)
    ctx.trace.clear()
    for _ in range(sweeps):
        a.matvec(x0)
    model = RooflineModel(get_machine("sierra"))
    modeled = model.run_on_gpu(ctx.trace, compact=True).total
    return _case(
        "gauss_seidel", t_fast, t_ref, modeled,
        "ok" if ok else f"residual {r_fast:.3e} vs ref {r_ref:.3e}",
    )


def _md_setup(smoke: bool):
    from repro.md.particles import ParticleSystem, PeriodicBox

    n = 1200 if smoke else 8000
    rho = 0.5
    side = (n / rho) ** (1.0 / 3.0)
    box = PeriodicBox([side, side, side])
    return ParticleSystem.random_gas(n, box, seed=11)


def case_md_neighbor(smoke: bool) -> Dict:
    from repro.md.neighbor import NeighborList

    system = _md_setup(smoke)
    ref_nl = NeighborList(cutoff=2.5, skin=0.3, method="reference")
    fast_nl = NeighborList(cutoff=2.5, skin=0.3, method="fast")
    _, t_ref = _timed_best(lambda: ref_nl.build(system), 3)
    _, t_fast = _timed_best(lambda: fast_nl.build(system), 3)
    ref_pairs = set(zip(np.minimum(ref_nl.pairs_i, ref_nl.pairs_j).tolist(),
                        np.maximum(ref_nl.pairs_i, ref_nl.pairs_j).tolist()))
    fast_pairs = set(zip(np.minimum(fast_nl.pairs_i, fast_nl.pairs_j).tolist(),
                         np.maximum(fast_nl.pairs_i, fast_nl.pairs_j).tolist()))
    ok = ref_pairs == fast_pairs
    return _case(
        "md_neighbor", t_fast, t_ref, None,
        "ok" if ok else "pair sets differ",
    )


def case_md_forces(smoke: bool) -> Dict:
    from repro.md.neighbor import NeighborList
    from repro.md.potentials import LennardJones, PairProcessor

    system = _md_setup(smoke)
    nl = NeighborList(cutoff=2.5, skin=0.3)
    nl.build(system)
    proc = PairProcessor(LennardJones(cutoff=2.5))
    reps = 3 if smoke else 5

    def run(method: str):
        for _ in range(reps):
            out = proc.compute(system, nl.pairs_i, nl.pairs_j, method=method)
        return out

    (f_ref, e_ref, _), t_ref = _timed_best(lambda: run("reference"), 3)
    (f_fast, e_fast, _), t_fast = _timed_best(lambda: run("fused"), 3)
    (f_bc, e_bc, _), t_bincount = _timed_best(lambda: run("fast"), 3)
    ok = (
        np.allclose(f_ref, f_fast, atol=1e-9) and np.isclose(e_ref, e_fast)
        and np.allclose(f_ref, f_bc, atol=1e-9) and np.isclose(e_ref, e_bc)
    )
    case = _case(
        "md_forces", t_fast, t_ref, None,
        "ok" if ok else "forces differ",
    )
    # the pre-fusion fast path rides along so the fused kernel's win
    # over plain bincount scatter stays visible in the report
    case["bincount_wall_s"] = round(t_bincount, 6)
    return case


def case_sched_events(smoke: bool) -> Dict:
    from repro.sched import ClusterSimulator, Sjf, batch_workload

    n_jobs = 1500 if smoke else 10_000
    jobs = batch_workload(n_jobs=n_jobs, seed=7)
    sim = ClusterSimulator(16)
    policy = Sjf()
    r_ref, t_ref = _timed(lambda: sim.run(jobs, policy, engine="reference"))
    r_fast, t_fast = _timed(lambda: sim.run(jobs, policy, engine="fast"))
    ok = (
        r_ref.makespan == r_fast.makespan
        and r_ref.mean_wait == r_fast.mean_wait
        and r_ref.queue_series == r_fast.queue_series
    )
    return _case(
        "sched_events", t_fast, t_ref, None,
        "ok" if ok else "schedules differ",
    )


def case_trace_pricing(smoke: bool) -> Dict:
    from repro.core.kernels import KernelSpec, KernelTrace, TransferSpec
    from repro.core.machine import get_machine
    from repro.core.roofline import RooflineModel

    n_launches = 10_000 if smoke else 100_000
    specs = [
        KernelSpec(name=f"k{i}", flops=1e9 + i * 1e7, bytes_read=4e8,
                   bytes_written=2e8, compute_efficiency=0.4,
                   bandwidth_efficiency=0.6)
        for i in range(8)
    ]

    def record_into(trace: KernelTrace) -> None:
        # blocks of repeated launches: the hot-loop shape compaction
        # targets (same kernel re-launched every sweep/step)
        i = 0
        for spec in specs:
            for _ in range(n_launches // len(specs)):
                trace.record_kernel(spec)
                if i % 100 == 0:
                    trace.record_transfer(
                        TransferSpec(name="halo", nbytes=1e6,
                                     direction="h2d")
                    )
                i += 1

    plain = KernelTrace()
    record_into(plain)
    compacting = KernelTrace(compacting=True)
    record_into(compacting)

    machine = get_machine("sierra")
    ref_model = RooflineModel(machine, memo_size=0)
    fast_model = RooflineModel(machine)
    rep_ref, t_ref = _timed_best(lambda: ref_model.run_on_gpu(plain), 3)
    # the fast pricing is microseconds; average it for a stable wall
    reps = 100

    def price_fast():
        rep = None
        for _ in range(reps):
            rep = fast_model.run_on_gpu(compacting, compact=True)
        return rep

    rep_fast, t_fast = _timed(price_fast)
    t_fast /= reps
    ok = (
        np.isclose(rep_ref.total, rep_fast.total, rtol=1e-9)
        and np.isclose(rep_ref.kernel_time, rep_fast.kernel_time, rtol=1e-9)
    )
    return _case(
        "trace_pricing", t_fast, t_ref, rep_fast.total,
        "ok" if ok else
        f"totals differ: {rep_ref.total} vs {rep_fast.total}",
    )


def case_jit_warm_start(smoke: bool) -> Dict:
    from repro.core.jit import JitCache

    n_kernels = 12 if smoke else 40
    template = "\n".join(
        ["def kern(x):", "    acc = x"]
        + [f"    acc = acc * $A + $B + {i}" for i in range(30)]
        + ["    return acc"]
    )
    tmps: List[str] = []
    try:
        def compile_all(cache: JitCache) -> float:
            total = 0.0
            for i in range(n_kernels):
                k = cache.compile(
                    "kern", template, {"A": 1.0 + i, "B": float(i)}
                )
                total += k(1.0)
            return total

        # each cold sample gets its own empty persist dir (a reused
        # dir would turn samples 2-3 into warm starts); best-of-3 on
        # the cold side mirrors the warm side's statistic
        t_cold = float("inf")
        v_cold = None
        for _ in range(3):
            tmp = tempfile.mkdtemp(prefix="bench-jit-")
            tmps.append(tmp)
            cold = JitCache(persist_dir=tmp)
            v_cold, t = _timed(lambda: compile_all(cold))
            t_cold = min(t_cold, t)
        # each fresh cache instance is a genuine warm start (in-memory
        # cache empty, disk populated); best-of-3 keeps this ~1 ms
        # sample from being poisoned by a scheduling hiccup
        t_warm = float("inf")
        v_warm = None
        ok = True
        for _ in range(3):
            warm = JitCache(persist_dir=tmps[-1])
            v_warm, t = _timed(lambda: compile_all(warm))
            t_warm = min(t_warm, t)
            ok = ok and warm.disk_hits == n_kernels
        ok = ok and v_cold == v_warm
        return _case(
            "jit_warm_start", t_warm, t_cold, None,
            "ok" if ok else
            f"disk hits {warm.disk_hits}/{n_kernels}",
        )
    finally:
        for tmp in tmps:
            shutil.rmtree(tmp, ignore_errors=True)


def case_guard_overhead(smoke: bool) -> Dict:
    """Disabled-guard overhead on the PCG hot loop, asserted < 3%.

    The reference is a subclass of :class:`PcgSolver` whose ``step``
    is the pre-instrumentation body verbatim — guard lines deleted,
    everything else (``__init__``, allocation order, object layout)
    inherited — so the only difference between the timed paths is the
    guard's ``is None`` tests.  Sharing the constructor matters: a
    separate replica class allocates its arrays in a different order,
    and on this hardware the resulting cache-aliasing differences
    swing a naive A/B by several percent per process, either sign.

    Samples are paired (adjacent runs share the ambient machine
    speed, which drifts far more than 3% over a full series), order
    alternates within pairs, and the verdict is the median of the
    per-pair time ratios — robust to contention bursts, which only
    poison the pairs they overlap.  An admission run afterwards sheds
    one job, populating the ``guard.shed*`` counters recorded in the
    report snapshot.
    """
    from repro.guard import AdmissionController, guard_override
    from repro.sched.policies import Fcfs
    from repro.sched.simulator import ClusterSimulator, Job
    from repro.solvers import poisson_2d
    from repro.solvers.csr import CsrMatrix
    from repro.solvers.krylov import PcgSolver

    # a grid this size keeps each iteration dominated by the numpy
    # kernels both paths share; on tiny problems run-to-run code/data
    # layout shifts in the Python dispatch swamp the ~0.5% signal
    grid = 96 if smoke else 192
    max_iter = 60 if smoke else 100
    a = CsrMatrix(poisson_2d(grid))
    rng = np.random.default_rng(3)
    b = rng.standard_normal(a.n_rows)

    from repro.solvers.krylov import _apply

    class _PrePrPcg(PcgSolver):
        """The pre-guard PcgSolver step, verbatim, minus guard lines."""

        def step(self) -> bool:
            if self.done:
                return True
            ap = _apply(self.a, self.p)
            pap = float(self.p @ ap)
            if pap <= 0:
                self.done = True
                return True
            alpha = self.rz / pap
            self.x += alpha * self.p
            self.r -= alpha * ap
            rnorm = float(np.linalg.norm(self.r))
            self.norms.append(rnorm)
            self.it += 1
            if rnorm <= self.target:
                self.converged = True
                self.done = True
                return True
            if self.it >= self.max_iter:
                self.done = True
                return True
            z = (
                _apply(self.preconditioner, self.r)
                if self.preconditioner is not None else self.r
            )
            rz_new = float(self.r @ z)
            beta = rz_new / self.rz
            self.rz = rz_new
            self.p = z + beta * self.p
            return False

    def bare_pcg() -> np.ndarray:
        # tol=0 never converges, so both paths run exactly max_iter
        solver = _PrePrPcg(a, b, tol=0.0, max_iter=max_iter)
        x, _ = solver.solve()
        return x

    def guarded_off_pcg() -> np.ndarray:
        solver = PcgSolver(a, b, tol=0.0, max_iter=max_iter)
        x, _ = solver.solve()
        return x

    reps = 80 if smoke else 40
    ratios: List[float] = []
    t_bare: List[float] = []
    t_guarded: List[float] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with guard_override("off"):
            x_bare = x_guarded = None
            for i in range(reps):
                if i % 2 == 0:
                    x_bare, t_b = _timed(bare_pcg)
                    x_guarded, t_g = _timed(guarded_off_pcg)
                else:
                    x_guarded, t_g = _timed(guarded_off_pcg)
                    x_bare, t_b = _timed(bare_pcg)
                ratios.append(t_g / t_b)
                t_bare.append(t_b)
                t_guarded.append(t_g)
    finally:
        if gc_was_enabled:
            gc.enable()
    best_bare = min(t_bare)
    best_guarded = min(t_guarded)
    overhead = float(np.median(ratios)) - 1.0
    same = np.array_equal(x_bare, x_guarded)
    if not same:
        check = "guard-off PCG diverged from the bare loop"
    elif overhead > 0.03:
        check = f"disabled-guard overhead {overhead * 100:.2f}% > 3%"
    else:
        check = "ok"

    # populate guard.shed* counters for the report snapshot: job 0
    # cannot meet its deadline and is shed
    ClusterSimulator(1).run(
        [Job(job_id=0, arrival=0.0, service=10.0, deadline=5.0),
         Job(job_id=1, arrival=0.0, service=1.0)],
        Fcfs(), admission=AdmissionController(),
    )
    return _case("guard_overhead", best_guarded, best_bare, None, check)


def _par_fanout_task(args):
    """One latency-bound task: a modeled service wait plus a small
    deterministic reduction (the fan-out unit must be pure)."""
    seq, n, delay = args
    time.sleep(delay)
    rng = np.random.default_rng(seq)
    m = rng.standard_normal((n, n))
    return float(np.linalg.norm(m @ m.T))


def case_par_fanout(smoke: bool) -> Dict:
    """repro.par fan-out: speedup at 4 workers + serial-path overhead.

    The workload is latency-bound (each task models a blocking service
    wait, the ensemble-member shape of the paper's workflow layer), so
    the 4-worker speedup is meaningful even on a single-core host.
    Checks: process results bit-equal to serial, serial ``map_fanout``
    within 3% of a direct loop, and >= 2x wall-clock speedup with 4
    process workers.
    """
    from repro.par import map_fanout

    n_tasks = 8 if smoke else 16
    delay = 0.05 if smoke else 0.15
    size = 48
    seqs = np.random.SeedSequence(17).spawn(n_tasks)
    items = [(seqs[i], size, delay) for i in range(n_tasks)]

    direct, t_direct = _timed(
        lambda: [_par_fanout_task(it) for it in items]
    )
    serial, t_serial = _timed(
        lambda: map_fanout(_par_fanout_task, items, backend="serial")
    )
    map_fanout(_par_fanout_task, items[:2], backend="process:4")  # warm pool
    par, t_par = _timed(
        lambda: map_fanout(_par_fanout_task, items, backend="process:4")
    )
    overhead = t_serial / t_direct - 1.0
    speedup = t_serial / t_par
    if serial != direct or par != serial:
        check = "backend results differ"
    elif overhead > 0.03:
        check = f"serial-path overhead {overhead * 100:.2f}% > 3%"
    elif speedup < 2.0:
        check = f"speedup {speedup:.2f}x < 2x at 4 workers"
    else:
        check = "ok"
    return _case("par_fanout", t_par, t_serial, None, check)


def case_durability_overhead(smoke: bool) -> Dict:
    """WAL-journaling tax on a ddcMD ensemble member, gated < 5%.

    The member is driven by :class:`repro.durable.ResumableCampaign`
    committing its full ``checkpoint_state()`` to a
    :class:`repro.durable.DurableStore` every ``journal_every=8``
    steps (so a SIGKILL loses at most 8 steps — seconds of simulated
    work against the paper's minutes-long MD segments).  The gated
    configuration is ``sync=False``: flushed-not-fsynced commits,
    which survive process death (the chaos harness's SIGKILL threat
    model — the page cache belongs to the OS) but not a kernel crash.
    The fully-fsynced ``sync=True`` overhead rides along in the
    report as ``fsync_overhead_pct``, informational: it is dominated
    by device sync latency, which varies an order of magnitude across
    hosts and says nothing about the journaling machinery.

    Samples are paired with alternating order and the verdict is the
    best-of-N ratio (``min(t_journaled) / min(t_bare)``): with ~0.7 s
    samples, scheduling and allocator noise is strictly additive and
    multi-percent, so the fastest sample on each side is the closest
    estimate of the true cost; the median per-pair ratio rides along
    as ``overhead_median_pct`` for the noise picture.  Construction
    (particle system, first neighbor build) happens outside the timed
    region on both sides — its allocation-layout jitter is several
    percent per run, pure noise against a few-percent signal.
    Correctness rides along: the journaled trajectory must be
    bit-identical to the bare run (journaling must observe, never
    perturb), and the store must recover the final committed state
    bit-exactly.
    """
    from repro.durable import DurableStore, ResumableCampaign, state_mismatches
    from repro.md.ddcmd import DdcMD
    from repro.md.particles import ParticleSystem, PeriodicBox
    from repro.md.potentials import LennardJones, PairProcessor

    n = 1500 if smoke else 4000
    n_steps = 24
    journal_every = 8
    cadence = 24
    # the verdict is a median of per-pair ratios; below ~12 pairs a
    # single multi-percent OS-noise excursion can drag the median over
    # the gate, so full mode pays for the same sample count as smoke
    reps = 12

    def make_md() -> DdcMD:
        rho = 0.5
        side = (n / rho) ** (1.0 / 3.0)
        box = PeriodicBox([side, side, side])
        system = ParticleSystem.random_gas(n, box, seed=11)
        return DdcMD(system, PairProcessor(LennardJones(cutoff=2.5)))

    def run_bare() -> Tuple[DdcMD, float]:
        md = make_md()

        def drive():
            while md.progress < n_steps:
                md.step()

        _, t = _timed(drive)
        return md, t

    def run_journaled(sync: bool, root: str) -> Tuple[DdcMD, float]:
        md = make_md()
        with DurableStore(root, sync=sync) as store:
            campaign = ResumableCampaign(
                md, store, cadence=cadence, journal_every=journal_every,
            )
            _, t = _timed(lambda: campaign.run(n_steps))
        return md, t

    def sample_journaled(sync: bool) -> Tuple[DdcMD, float]:
        with tempfile.TemporaryDirectory(prefix="bench-dur-") as root:
            return run_journaled(sync, root)

    ratios: List[float] = []
    t_bare: List[float] = []
    t_journaled: List[float] = []
    md_bare = md_journaled = None
    # earlier cases leave pool workers and a fragmented heap behind;
    # both inflate the journaled side (its large pickle blobs churn
    # the allocator) without touching the bare side symmetrically
    from repro.par import shutdown_pools

    shutdown_pools()
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(reps):
            if i % 2 == 0:
                md_bare, t_b = run_bare()
                md_journaled, t_j = sample_journaled(False)
            else:
                md_journaled, t_j = sample_journaled(False)
                md_bare, t_b = run_bare()
            ratios.append(t_j / t_b)
            t_bare.append(t_b)
            t_journaled.append(t_j)
        _, t_fsync = sample_journaled(True)
    finally:
        if gc_was_enabled:
            gc.enable()
    # the gated statistic is best-of-N on each side: scheduling and
    # allocator noise is strictly additive, so the fastest sample is
    # the closest estimate of the true cost on both sides; the median
    # per-pair ratio rides along for the noise picture
    overhead = min(t_journaled) / min(t_bare) - 1.0
    overhead_median = float(np.median(ratios)) - 1.0
    fsync_overhead = t_fsync / min(t_bare) - 1.0

    # journaling must observe, never perturb: bit-identical trajectory
    same_traj = np.array_equal(
        md_bare.system.x, md_journaled.system.x
    ) and np.array_equal(
        md_bare.system.v, md_journaled.system.v
    )
    # and the store must hand back exactly the final committed state
    with tempfile.TemporaryDirectory(prefix="bench-dur-") as root:
        md_final, _ = run_journaled(False, root)
        with DurableStore(root) as store:
            rec = store.recover()
        recovered_ok = (
            rec is not None
            and rec[0] == n_steps
            and not state_mismatches(rec[1]["state"],
                                     md_final.checkpoint_state())
        )

    if not same_traj:
        check = "journaled trajectory diverged from the bare run"
    elif not recovered_ok:
        check = "recovered state is not bit-exact"
    elif overhead > 0.05:
        check = f"journaling overhead {overhead * 100:.2f}% > 5%"
    else:
        check = "ok"
    case = _case("durability_overhead", min(t_journaled), min(t_bare),
                 None, check)
    case["overhead_pct"] = round(overhead * 100, 2)
    case["overhead_median_pct"] = round(overhead_median * 100, 2)
    case["fsync_overhead_pct"] = round(fsync_overhead * 100, 2)
    return case


def _sleep_task(args):
    """One sub-millisecond fan-out unit: a modeled service wait plus a
    deterministic value so result lists are comparable bit-for-bit."""
    idx, delay = args
    time.sleep(delay)
    return idx * 3 + 1


def case_fine_grain_fanout(smoke: bool) -> Dict:
    """Work stealing vs static chunking on a skewed fine-grained fan-out.

    ~1000 sub-millisecond tasks with a heavy cluster at the *front* of
    the item list — the adversarial shape for static chunking, which
    hands the whole cluster to whichever worker draws the first chunk
    and leaves the rest idle.  The steal backend splits the cluster on
    demand.  Gates: steal-thread:4 speedup over serial above the bar
    AND static thread:4 below it on the same items (if static chunking
    also clears the bar, the case is not measuring stealing), plus
    bit-exact result lists across all three backends.
    """
    from repro.par import map_fanout

    n = 300 if smoke else 1000
    n_heavy = 12 if smoke else 30
    heavy = 0.010 if smoke else 0.014
    light = 0.0003
    steal_min = 2.0 if smoke else 2.5
    static_max = 2.2 if smoke else 2.0
    items = [(i, heavy if i < n_heavy else light) for i in range(n)]

    serial, t_serial = _timed_best(
        lambda: map_fanout(_sleep_task, items, backend="serial"), 2
    )
    map_fanout(_sleep_task, items[:8], backend="thread:4")  # warm pool
    static, t_static = _timed_best(
        lambda: map_fanout(_sleep_task, items, backend="thread:4"), 2
    )
    steal, t_steal = _timed_best(
        lambda: map_fanout(_sleep_task, items, backend="steal-thread:4"), 2
    )
    static_speedup = t_serial / t_static
    steal_speedup = t_serial / t_steal
    if static != serial or steal != serial:
        check = "backend results differ"
    elif steal_speedup < steal_min:
        check = (f"steal speedup {steal_speedup:.2f}x < {steal_min}x "
                 "at 4 workers")
    elif static_speedup >= static_max:
        check = (f"static chunking already {static_speedup:.2f}x >= "
                 f"{static_max}x; skew too weak to measure stealing")
    else:
        check = "ok"
    case = _case("fine_grain_fanout", t_steal, t_serial, None, check)
    case["static_wall_s"] = round(t_static, 6)
    case["static_speedup"] = round(static_speedup, 2)
    case["steal_speedup"] = round(steal_speedup, 2)
    return case


def case_scaling_curve(smoke: bool) -> Dict:
    """steal-thread strong-scaling curve at 1/2/4 workers.

    Uniform latency-bound tasks, so ideal scaling is achievable on any
    host and the curve measures scheduler overhead (deque contention,
    steal traffic, assembly) rather than core count.  Gate: parallel
    efficiency at 4 workers ``t1 / (4 * t4)`` >= 0.75, with all worker
    counts returning bit-identical results.
    """
    from repro.par import map_fanout

    n = 32 if smoke else 64
    delay = 0.002 if smoke else 0.003
    items = [(i, delay) for i in range(n)]

    walls: Dict[int, float] = {}
    results = {}
    for w in (1, 2, 4):
        results[w], walls[w] = _timed_best(
            lambda: map_fanout(_sleep_task, items,
                               backend=f"steal-thread:{w}"), 2
        )
    eff4 = walls[1] / (4 * walls[4])
    if not (results[1] == results[2] == results[4]):
        check = "results differ across worker counts"
    elif eff4 < 0.75:
        check = f"efficiency at 4 workers {eff4:.2f} < 0.75"
    else:
        check = "ok"
    case = _case("scaling_curve", walls[4], walls[1], None, check)
    case["wall_by_workers"] = {str(w): round(t, 6)
                               for w, t in walls.items()}
    case["efficiency_4"] = round(eff4, 3)
    return case


def case_traffic_openloop(smoke: bool) -> Dict:
    """Open-loop traffic through the guarded scheduler, with replay.

    A Poisson stream at throttled offered load (~0.8) from a simulated
    user population, with deadlines, admission shedding, a breaker,
    and FaultInjector chaos all active — the §4.7 regime the traffic
    layer exists to exercise.  The experiment is recorded to a trace
    and replayed; gates:

    - **replay**: the replay fingerprint (shed decisions + reasons,
      ``guard.*`` counter deltas, completion order and times) must be
      bit-identical to the recorded run;
    - **latency**: p50/p99 turnaround on the *simulated* clock — a
      deterministic function of the seeds, so the bands are exact
      across hosts (p50 under 4x mean service, p99 under 20x);
    - **shed rate**: nonzero (the guard paths actually ran) and under
      25% (throttled load must not collapse into mass shedding).

    ``wall_s`` is the recorded run (generation + simulation),
    ``ref_wall_s`` the replay pass; only these wall clocks are
    host-dependent.
    """
    from repro.traffic import (
        AdmissionSpec, ChaosSpec, OpenLoopDriver, PoissonArrivals,
        UserPopulation, record_experiment, replay_experiment,
    )

    n_jobs = 400 if smoke else 2000
    # smoke's short stream never builds a backlog on 8 GPUs; a
    # 4-GPU machine at the same offered load saturates (and sheds)
    # within 400 jobs
    n_gpus = 4 if smoke else 8
    mean_service = 10.0
    rate = 0.8 * n_gpus / mean_service  # offered load ~0.8
    process = PoissonArrivals(rate=rate)
    population = UserPopulation(
        n_users=50_000, seed=0, mean_service=mean_service,
        best_effort_fraction=0.3,
    )
    driver = OpenLoopDriver(
        n_gpus=n_gpus,
        policy="fcfs",
        admission=AdmissionSpec(
            max_queue=3 * n_gpus, protect_priority=2,
            breaker_failure_threshold=3, breaker_recovery_time=40.0,
        ),
        chaos=ChaosSpec(mtbf=300.0, seed=1),
    )

    with tempfile.TemporaryDirectory(prefix="bench-traffic-") as root:
        path = Path(root) / "openloop.trace"

        def record():
            return record_experiment(path, process, population, driver,
                                     n_jobs=n_jobs)

        (_, recorded), t_record = _timed(record)
        (replayed, _), t_replay = _timed(lambda: replay_experiment(path))

    p50 = recorded.p50_turnaround
    p99 = recorded.p99_turnaround
    shed_rate = recorded.shed_rate
    if replayed.fingerprint() != recorded.fingerprint():
        check = "replay fingerprint diverged from the recorded run"
    elif recorded.result.failures == 0:
        check = "chaos never fired; case not exercising fault paths"
    elif not (0.0 < shed_rate < 0.25):
        check = f"shed rate {shed_rate:.3f} outside (0, 0.25)"
    elif p50 > 4.0 * mean_service:
        check = f"p50 turnaround {p50:.1f} > {4.0 * mean_service}"
    elif p99 > 20.0 * mean_service:
        check = f"p99 turnaround {p99:.1f} > {20.0 * mean_service}"
    else:
        check = "ok"
    case = _case("traffic_openloop", t_record, t_replay, None, check)
    case["p50_turnaround"] = round(p50, 6)
    case["p99_turnaround"] = round(p99, 6)
    case["p50_wait"] = round(recorded.p50_wait, 6)
    case["p99_wait"] = round(recorded.p99_wait, 6)
    case["shed_rate"] = round(shed_rate, 6)
    case["shed_reasons"] = sorted(
        {reason for _, reason in recorded.shed_log}
    )
    case["failures"] = recorded.result.failures
    return case


def case_multitenant_pileup(smoke: bool) -> Dict:
    """Noisy-neighbor containment by the tenant layer, end to end.

    The standard pile-up: three compliant tenants each offering 0.8x
    their fair share, one noisy tenant offering 4x, all on one
    machine.  Every gated number runs on the *simulated* clock, so the
    bands are exact across hosts:

    - **fairness**: Jain index over per-tenant delivered service
      >= 0.9 (equal weights — without the arbiter the noisy stream
      starves everyone and the index collapses);
    - **containment**: each compliant tenant's p99 turnaround within
      3x of its isolated baseline (same jobs, empty machine), and its
      shed rate within 5 points of isolated;
    - **replay**: the dumped incident trace must replay with a
      fingerprint bit-identical to the recorded run
      (:func:`repro.tenant.verify_incident` replays twice and checks
      both);
    - **overhead**: wall-clock tax of the registry with the arbiter
      disabled, against a plain dict of the very same per-tenant
      controllers on the identical stream — the arbiter machinery
      must be nearly free when switched off (gated < 3%).  The
      irreducible price of per-tenant isolation itself (that guard
      dict vs one shared controller) is reported alongside as
      ``isolation_overhead_pct``, ungated.

    ``wall_s`` is the arbitrated pile-up run + incident dump;
    ``ref_wall_s`` is the replay-verify pass (two replays).
    """
    import dataclasses

    from repro.tenant import (
        jain_index,
        multitenant_pileup,
        record_incident,
        verify_incident,
    )
    from repro.traffic.driver import AdmissionSpec, OpenLoopDriver

    n_gpus = 8
    n_jobs = 120 if smoke else 400
    bundle = multitenant_pileup(
        n_gpus=n_gpus, n_compliant=3, noisy_factor=4.0,
        n_jobs_per_tenant=n_jobs, seed=0,
    )
    compliant = [n for n in sorted(bundle.rates) if n != bundle.noisy]

    def tenancy_driver(tenancy):
        return OpenLoopDriver(n_gpus=n_gpus, policy="fcfs",
                              tenancy=tenancy)

    with tempfile.TemporaryDirectory(prefix="bench-tenant-") as root:
        path = Path(root) / "incident-pileup.trace"
        (_, report), t_record = _timed(
            lambda: record_incident(
                path, bundle.jobs, tenancy_driver(bundle.tenancy),
                reason="bench",
            )
        )
        replay_problem = None
        t_replay = 0.0
        try:
            _, t_replay = _timed(lambda: verify_incident(path))
        except AssertionError as exc:
            replay_problem = str(exc)
    result = report.result
    fairness = jain_index(
        result.tenant_completed_service.get(n, 0.0)
        for n in sorted(bundle.rates)
    )

    # isolated baselines: each compliant tenant's own stream on an
    # empty machine, under the same contract
    band_problems: List[str] = []
    p99_shared: Dict[str, float] = {}
    p99_iso: Dict[str, float] = {}
    for name in compliant:
        iso = tenancy_driver(bundle.tenancy).run(
            list(bundle.jobs_by_tenant[name])
        ).result
        p99_iso[name] = iso.tenant_turnaround_percentile(name, 99.0)
        p99_shared[name] = result.tenant_turnaround_percentile(
            name, 99.0
        )
        if p99_shared[name] > 3.0 * p99_iso[name]:
            band_problems.append(
                f"{name} p99 {p99_shared[name]:.2f} > 3x isolated "
                f"{p99_iso[name]:.2f}"
            )
        shed_delta = (result.tenant_shed_rate(name)
                      - iso.tenant_shed_rate(name))
        if shed_delta > 0.05:
            band_problems.append(
                f"{name} shed rate +{shed_delta:.3f} over isolated"
            )

    # tenant-layer overhead with arbitration off.  Two comparisons,
    # both on the identical tagged stream:
    #
    # - the **gate**: disabled registry vs a plain dict of the very
    #   same per-tenant controllers (``TenantSpec.make_controller``)
    #   — the arbiter machinery must cost < 3% over the guard stack a
    #   user would run without it;
    # - the **isolation tax** (informational): that guard dict vs the
    #   single shared controller — the irreducible price of
    #   per-tenant isolation, a feature chosen on its own merits.
    #
    # Methodology: the true delta is tens of microseconds on a
    # millisecond run, well below this host's steal noise, so the
    # estimator is one-sided-robust: back-to-back pairs in
    # alternating order, median of per-pair ratios within a block
    # (slow-host episodes hit both halves of a pair and cancel), best
    # of three blocks with freshly constructed drivers (steal spikes
    # and unlucky heap layout only ever inflate a block).  An
    # identical-driver A/A control of this estimator reads 0.99-1.01
    # here; min/min and single-block medians both swing past 3% on
    # their own.
    ab_bundle = multitenant_pileup(
        n_gpus=n_gpus, n_compliant=3, noisy_factor=4.0,
        n_jobs_per_tenant=120, seed=1,
    )
    disabled = dataclasses.replace(ab_bundle.tenancy,
                                   arbiter_enabled=False)
    shared_jobs = list(ab_bundle.jobs)

    class _GuardStack:
        """Reference baseline: the registry's own per-tenant
        controllers behind one dict probe, no arbiter machinery."""

        breaker = None
        shed_log: Tuple = ()

        def __init__(self):
            ctls = {t.name: t.make_controller()
                    for t in disabled.tenants}
            self._admits = {n: c.admit for n, c in ctls.items()}
            self._successes = {
                n: c.breaker.record_success
                for n, c in ctls.items() if c.breaker is not None
            }

        def admit(self, job, now, queue_len, n_running, n_gpus):
            admit = self._admits.get(job.tenant)
            return admit is None or admit(
                job, now, queue_len, n_running, n_gpus
            )

        def record_success(self, now, job=None):
            if job is not None:
                record = self._successes.get(job.tenant)
                if record is not None:
                    record(now)

        def record_failure(self, now, job=None):
            pass

    class _InstanceSpec:
        def __init__(self, factory):
            self.make = factory

    def stack_driver():
        return OpenLoopDriver(n_gpus=n_gpus, policy="fcfs",
                              admission=_InstanceSpec(_GuardStack))

    def registry_driver():
        return OpenLoopDriver(n_gpus=n_gpus, policy="fcfs",
                              tenancy=disabled)

    def single_driver():
        return OpenLoopDriver(
            n_gpus=n_gpus, policy="fcfs",
            admission=AdmissionSpec(
                protect_priority=1, breaker_failure_threshold=8,
            ),
        )

    def paired_ratio(make_base, make_test, pairs=12):
        """Median of back-to-back test/base wall ratios, fresh
        drivers, one warmup run each before timing."""
        base, test = make_base(), make_test()
        base.run(shared_jobs)
        test.run(shared_jobs)
        ratios = []
        for i in range(pairs):
            if i % 2 == 0:
                _, tb = _timed(lambda: base.run(shared_jobs))
                _, tt = _timed(lambda: test.run(shared_jobs))
            else:
                _, tt = _timed(lambda: test.run(shared_jobs))
                _, tb = _timed(lambda: base.run(shared_jobs))
            ratios.append(tt / tb)
        ratios.sort()
        return ratios[len(ratios) // 2]

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        overhead = min(
            paired_ratio(stack_driver, registry_driver)
            for _ in range(3)
        ) - 1.0
        isolation = paired_ratio(single_driver, stack_driver) - 1.0
    finally:
        if gc_was_enabled:
            gc.enable()

    if replay_problem is not None:
        check = f"incident replay diverged: {replay_problem[:120]}"
    elif fairness < 0.9:
        check = f"jain fairness {fairness:.3f} < 0.9"
    elif band_problems:
        check = "; ".join(band_problems)
    elif overhead > 0.03:
        check = f"arbiter-disabled overhead {overhead * 100:.2f}% > 3%"
    else:
        check = "ok"
    case = _case("multitenant_pileup", t_record, t_replay, None, check)
    case["jain_fairness"] = round(fairness, 6)
    case["noisy_shed_rate"] = round(
        result.tenant_shed_rate(bundle.noisy), 6
    )
    case["compliant_p99"] = {
        n: round(p99_shared[n], 6) for n in compliant
    }
    case["isolated_p99"] = {
        n: round(p99_iso[n], 6) for n in compliant
    }
    case["overhead_pct"] = round(overhead * 100, 2)
    case["isolation_overhead_pct"] = round(isolation * 100, 2)
    case["breaker_trips"] = report.trips
    return case


def case_ab_replay(smoke: bool) -> Dict:
    """Live capture + A/B differential replay, end to end.

    Three gates:

    - **seal**: a live capture must finish complete with the run's
      fingerprint sealed in the trailer;
    - **contract**: :func:`repro.traffic.ab_replay` on the captured
      trace must report ``fingerprint_matched`` (replay-vs-record,
      bit for bit) and no same-config divergence under a two-variant
      matrix (sjf policy, half the GPUs);
    - **overhead**: capture mode's *streaming* tax.  The uncaptured
      alternative that produces the same replayable artifact is the
      ``record_experiment`` shape — write every job frame up front,
      then run.  The gate compares that (TraceWriter batch write +
      bare run + seal) against the live tap (identical frames,
      written from inside the hot loop as jobs are offered,
      ``decisions=False``) and demands < 3%.  Per-decision frames are
      extra *data* the batch path cannot produce at all; their cost
      is reported ungated as ``decision_frames_overhead_pct``.
      (Against a run with *no* trace at all the comparison is
      meaningless here: serializing a job costs a few µs while the
      simulator spends a few µs per job *total* — the paper's system
      amortizes capture against jobs that run for minutes.)

    The overhead estimator is the ``multitenant_pileup`` one: median
    of back-to-back pair ratios in alternating order, best of three
    blocks, gc off (the true delta is small enough that min/min or a
    single block swings past the gate on steal noise alone).

    ``wall_s`` is the captured run (tap on, trailer sealed);
    ``ref_wall_s`` is the A/B replay pass (baseline twice + two
    variants).
    """
    from repro.traffic import (
        ABVariant,
        AdmissionSpec,
        CaptureTap,
        ChaosSpec,
        OpenLoopDriver,
        PoissonArrivals,
        UserPopulation,
        ab_replay,
        capture_experiment,
        generate_jobs,
    )

    n_gpus = 8
    n_jobs = 150 if smoke else 500
    process = PoissonArrivals(rate=0.9)

    def population():
        return UserPopulation(n_users=20_000, seed=0,
                              mean_service=10.0,
                              best_effort_fraction=0.3)

    def make_driver():
        return OpenLoopDriver(
            n_gpus=n_gpus, policy="fcfs",
            admission=AdmissionSpec(
                max_queue=3 * n_gpus, protect_priority=2,
                breaker_failure_threshold=3,
                breaker_recovery_time=40.0,
            ),
            chaos=ChaosSpec(mtbf=250.0, seed=1),
        )

    with tempfile.TemporaryDirectory(prefix="bench-ab-") as root:
        path = Path(root) / "live.trace"
        (trace, report), t_capture = _timed(
            lambda: capture_experiment(
                path, process, population(), make_driver(),
                n_jobs=n_jobs,
            )
        )
        sealed = (trace.complete
                  and trace.fingerprint == report.fingerprint())
        ab, t_ab = _timed(lambda: ab_replay(path, [
            ABVariant("sjf", {"policy": "sjf"}),
            ABVariant("half_gpus", {"n_gpus": n_gpus // 2}),
        ]))

        # streaming tax: batch write-then-run vs live tap, identical
        # frames and fresh drivers, paired alternating order (see
        # docstring)
        from repro.traffic import TraceWriter

        # the overhead run is kept at full length even in smoke mode:
        # shorter runs put pair-ratio noise on the same order as the
        # 3% gate itself
        jobs = generate_jobs(process, population(), 300, arrival_seed=2)
        scratch = Path(root) / "overhead.trace"

        def run_batch():
            writer = TraceWriter(scratch, n_jobs=len(jobs))
            try:
                for job in jobs:
                    writer.append_job(job)
                report = make_driver().run(jobs)
                writer.seal(report.fingerprint())
            finally:
                writer.close()
            return report

        def run_tapped(decisions=False):
            tap = CaptureTap(scratch, n_jobs=len(jobs),
                             decisions=decisions)
            try:
                report = make_driver().run(jobs, tap=tap)
                tap.seal(report.fingerprint())
            finally:
                tap.close()
            return report

        def paired_ratio(test, base, pairs=16):
            base()
            test()
            ratios = []
            for i in range(pairs):
                if i % 2 == 0:
                    _, tb = _timed(base)
                    _, tt = _timed(test)
                else:
                    _, tt = _timed(test)
                    _, tb = _timed(base)
                ratios.append(tt / tb)
            ratios.sort()
            return ratios[len(ratios) // 2]

        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            # five blocks: a single block's A/A control reads up to
            # +-8% on this host; the min across blocks is the robust
            # one-sided estimate (noise only ever inflates a block)
            overhead = min(
                paired_ratio(run_tapped, run_batch) for _ in range(5)
            ) - 1.0
            decision_tax = min(
                paired_ratio(lambda: run_tapped(True), run_batch)
                for _ in range(3)
            ) - 1.0
        finally:
            if gc_was_enabled:
                gc.enable()

    if not sealed:
        check = "capture did not seal the run fingerprint"
    elif ab.fingerprint_matched is not True:
        check = "replay fingerprint does not match the sealed trailer"
    elif ab.diverged:
        check = "same-config replay diverged"
    elif overhead > 0.03:
        check = f"capture overhead {overhead * 100:.2f}% > 3%"
    else:
        check = "ok"
    case = _case("ab_replay", t_capture, t_ab, None, check)
    case["n_jobs"] = len(trace)
    case["capture_overhead_pct"] = round(overhead * 100, 2)
    case["decision_frames_overhead_pct"] = round(decision_tax * 100, 2)
    case["fingerprint_matched"] = ab.fingerprint_matched
    case["variant_deltas"] = {
        v["name"]: {
            "p99_wait": round(v["deltas"]["p99_wait"], 4),
            "shed_rate": round(v["deltas"]["shed_rate"], 4),
            "completed": v["deltas"]["completed"],
        }
        for v in ab.variants
    }
    return case


CASES: List[Tuple[str, Callable[[bool], Dict]]] = [
    ("gauss_seidel", case_gauss_seidel),
    ("md_neighbor", case_md_neighbor),
    ("md_forces", case_md_forces),
    ("sched_events", case_sched_events),
    ("trace_pricing", case_trace_pricing),
    ("jit_warm_start", case_jit_warm_start),
    ("guard_overhead", case_guard_overhead),
    ("par_fanout", case_par_fanout),
    ("fine_grain_fanout", case_fine_grain_fanout),
    ("scaling_curve", case_scaling_curve),
    ("durability_overhead", case_durability_overhead),
    ("traffic_openloop", case_traffic_openloop),
    ("multitenant_pileup", case_multitenant_pileup),
    ("ab_replay", case_ab_replay),
]


# ---------------------------------------------------------------------------
# baseline comparison
# ---------------------------------------------------------------------------


def _bench_files(root: Path) -> List[Tuple[int, Path]]:
    out = []
    for p in root.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", p.name)
        if m:
            out.append((int(m.group(1)), p))
    return sorted(out)


def _next_output(root: Path) -> Path:
    files = _bench_files(root)
    nxt = max((i for i, _ in files), default=1) + 1
    return root / f"BENCH_{nxt}.json"


def _select_baseline(root: Path, out_path: Path, mode: str) -> Optional[Path]:
    """Newest prior BENCH_<n>.json (by numeric index) with matching *mode*.

    Numeric ordering matters (BENCH_10 is newer than BENCH_2, which
    lexicographic name sorting gets wrong), and so does the mode: a
    smoke run compared against a full-size baseline (or vice versa)
    would either silently skip the gate or flag nonsense ratios.
    Unreadable candidates are skipped rather than fatal.
    """
    for _, p in sorted(_bench_files(root), reverse=True):
        if p == out_path:
            continue
        try:
            prior = json.loads(p.read_text())
        except (OSError, ValueError):
            continue
        if prior.get("mode") == mode:
            return p
    return None


def compare(report: Dict, baseline: Dict, tolerance: float) -> List[str]:
    """Regressions of *report* against *baseline* (empty list = clean).

    Gates on wall-time ratios per case, and — when both reports carry a
    counter snapshot and ran the same case set — on exact equality of
    the semantic counters (events processed, rebuilds, cache hits, ...):
    a fast path that got quicker by doing different *work* is a bug the
    clock cannot see.
    """
    problems: List[str] = []
    if baseline.get("mode") != report.get("mode"):
        # different sizes: nothing comparable, not a failure
        return problems
    base_cases = {c["name"]: c for c in baseline.get("cases", [])}
    for c in report["cases"]:
        old = base_cases.get(c["name"])
        if old is None or not old.get("wall_s"):
            continue
        ratio = c["wall_s"] / old["wall_s"]
        if ratio > tolerance:
            problems.append(
                f"{c['name']}: wall {c['wall_s']:.4f}s vs baseline "
                f"{old['wall_s']:.4f}s ({ratio:.2f}x > {tolerance:.2f}x)"
            )
    base_counters = baseline.get("counters")
    if base_counters is not None and report.get("counters") is not None:
        base_names = {c["name"] for c in baseline.get("cases", [])}
        if base_names == {c["name"] for c in report["cases"]}:
            for key in sorted(set(base_counters) | set(report["counters"])):
                old_v = base_counters.get(key)
                new_v = report["counters"].get(key)
                if old_v != new_v:
                    problems.append(
                        f"counter {key}: {new_v} vs baseline {old_v}"
                    )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes for CI (< ~1 minute)")
    ap.add_argument("--output", type=Path, default=None,
                    help="output JSON path (default: next BENCH_<n>.json)")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="explicit baseline JSON (default: newest BENCH_*)")
    ap.add_argument("--tolerance", type=float, default=1.5,
                    help="allowed wall-time ratio vs baseline (default 1.5)")
    ap.add_argument("--only", action="append", default=None,
                    help="run only the named case (repeatable)")
    ap.add_argument("--par", default="serial",
                    help="repro.par backend spec for the case runner "
                         "(default serial: cases time themselves, so "
                         "parallel case execution adds contention noise)")
    args = ap.parse_args(argv)

    from repro.obs import reset_metrics, snapshot

    mode = "smoke" if args.smoke else "full"
    out_path = args.output or _next_output(REPO)
    baseline_path = args.baseline
    if baseline_path is None:
        baseline_path = _select_baseline(REPO, out_path, mode)

    from repro.par import Task, run_ensemble

    reset_metrics()
    cases = []
    failures = []
    selected = [(name, fn) for name, fn in CASES
                if not args.only or name in args.only]
    recs = run_ensemble(
        [Task(fn, (args.smoke,), name=name) for name, fn in selected],
        backend=args.par,
    )
    for (name, _), rec in zip(selected, recs):
        cases.append(rec)
        speed = f"{rec['speedup']}x" if rec["speedup"] else "-"
        print(f"{name:16s} wall {rec['wall_s']:.4f}s  "
              f"ref {rec['ref_wall_s']}s  speedup {speed}  [{rec['check']}]")
        if rec["check"] != "ok":
            failures.append(f"{name}: {rec['check']}")

    metrics = snapshot()
    report = {
        "schema": SCHEMA,
        "mode": mode,
        "cases": cases,
        "counters": metrics["counters"],
        "gauges": metrics["gauges"],
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")

    if failures:
        print("CORRECTNESS FAILURES:")
        for f in failures:
            print(f"  {f}")
        return 2

    if baseline_path is not None and baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        problems = compare(report, baseline, args.tolerance)
        if problems:
            print(f"REGRESSIONS vs {baseline_path.name}:")
            for p in problems:
                print(f"  {p}")
            return 1
        print(f"no regressions vs {baseline_path.name}")
    else:
        print("no baseline found; skipping comparison")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
