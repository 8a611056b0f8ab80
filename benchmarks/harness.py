#!/usr/bin/env python
"""Perf-regression harness: time the hot paths, emit BENCH_N.json.

The harness times what neither tier-1 nor the repo benchmark
(``perfbench/``) checks: fast kernels against their references, the
parallel backends' speedup, and the tax of machinery that must be
nearly free.  Every sample comes from one sampler, :func:`measure`,
and each gate is one statistic of its samples.

Kernel cases time the reference and the fast path, best of N each,
and check that the two agree:

- ``gauss_seidel``   — lexicographic triangular-solve sweeps vs the
  multicolor (red-black) vectorized sweeps.
- ``md_neighbor``    — per-cell Python-loop neighbor build vs the
  compiled periodic kd-tree build.
- ``md_forces``      — ``np.add.at`` force scatter vs the fused
  scatter (the plain ``np.bincount`` scatter rides along).
- ``sched_events``   — the reference event queue vs the heap-backed
  fast queue engine.
- ``trace_pricing``  — per-entry roofline pricing (memo disabled) of a
  plain trace vs pricing the record-time-compacted trace with memoized
  per-launch times; totals must agree.
- ``jit_warm_start`` — cold render+compile vs warm start from the
  persistent on-disk JIT cache.

Parallel cases gate speedup and efficiency, best of N, with results
bit-equal across backends: ``par_fanout`` (4 process workers >= 2x,
and the serial ``map_fanout`` path within 3% of a direct loop),
``fine_grain_fanout`` (work stealing vs static chunking on a skewed
fan-out) and ``scaling_curve`` (steal-thread efficiency at 4 workers
>= 0.75).

Overhead cases gate a mechanism's tax on alternating pairs:

- ``guard_overhead``       — disabled guard on the PCG loop, median
  pair ratio < 3%;
- ``durability_overhead``  — WAL journaling of a ddcMD member,
  min journaled / min bare < 5%;
- ``arbiter_off_overhead`` — tenant registry with the arbiter off vs
  the bare guard stack, min over 3 blocks of the 12-pair median < 3%;
- ``capture_overhead``     — live capture tap vs batch write-then-run,
  min over 5 blocks of the 16-pair median < 3%.

Each also records, ungated, the median pair ratio over all its pairs
and its 95% order-statistic interval (``median_pct``,
``interval_pct``).  End-to-end correctness is tier-1's: traffic
replay and latency bands in ``tests/test_traffic.py``, tenant
containment in ``tests/test_tenant.py``, the journaled trajectory in
``tests/test_durable.py``.

Each case records ``wall_s`` (fast or test side), ``ref_wall_s``
(reference or base side), ``speedup`` and, where the workload has a
roofline trace, ``modeled_s``, the modeled execution time on the
sierra node (bit-stable across machines).

Output is ``BENCH_<n>.json`` in the repo root (next free index, or
``--output``).  A failed check exits 2.  When an earlier
``BENCH_*.json`` of the same mode exists, each case's ``wall_s`` is
compared against it; a slowdown beyond ``TOLERANCE`` (wall clocks are
noisy) exits 1.

``--smoke`` shrinks every case for CI; full mode uses the sizes the
acceptance numbers quote (10^4-row Gauss-Seidel, 8000-particle
neighbor build, 10^4-job schedule, 10^5-launch trace).  ``--only``
runs the named cases; an unknown name exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

SCHEMA = 1

#: allowed wall-time ratio of a case against its baseline
TOLERANCE = 1.5


class Samples(NamedTuple):
    """What :func:`measure` took: each side's wall times in run order,
    and each side's last output."""

    test: List[float]
    base: List[float]
    out: Any
    base_out: Any

    @property
    def ratios(self) -> np.ndarray:
        """Per-pair ``test / base`` wall ratios."""
        return np.array(self.test) / np.array(self.base)


def measure(test: Callable[[], Any], base: Optional[Callable[[], Any]] = None,
            pairs: int = 1) -> Samples:
    """Time *pairs* calls of *test*, each paired with one of *base*.

    The harness's only clock.  Paired sides share the ambient machine
    speed, which drifts far more than a few percent over a series;
    they alternate which runs first, *base* first in the first pair.
    Without a base, *pairs* is the number of samples of *test*.  gc
    is off while sampling, so no side pays for the other's garbage,
    and is restored afterwards, also when a call raises.
    """
    times: Tuple[List[float], List[float]] = ([], [])
    outs = [None, None]

    def run(side: int, fn: Callable[[], Any]) -> None:
        t0 = time.perf_counter()
        outs[side] = fn()
        times[side].append(time.perf_counter() - t0)

    enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(pairs):
            if base is not None and i % 2 == 0:
                run(1, base)
            run(0, test)
            if base is not None and i % 2 == 1:
                run(1, base)
    finally:
        if enabled:
            gc.enable()
    return Samples(times[0], times[1], outs[0], outs[1])


def _pct(ratio: float) -> float:
    return round((float(ratio) - 1.0) * 100, 2)


def _mid(ratios: np.ndarray) -> float:
    """A block's statistic: the upper median, ``sorted(r)[n // 2]``."""
    return float(np.sort(ratios)[len(ratios) // 2])


def spread(ratios: np.ndarray) -> Dict[str, Any]:
    """The ungated noise picture of an overhead case's pair ratios.

    The median ratio and its 95% order-statistic interval
    ``[r[k], r[n-1-k]]`` over the sorted ratios ``r``, with
    ``k = floor(n/2 - 0.98 sqrt(n))``, both in percent over 1.
    """
    r = np.sort(ratios)
    n = len(r)
    k = int(np.floor(n / 2 - 0.98 * np.sqrt(n)))
    return {"median_pct": _pct(np.median(r)),
            "interval_pct": [_pct(r[k]), _pct(r[n - 1 - k])]}


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

    ref = measure(lambda: gauss_seidel(a, b, x0, sweeps=sweeps), pairs=3)
    gauss_seidel_multicolor(a, b, x0, sweeps=1)  # build/cache the coloring
    fast = measure(
        lambda: gauss_seidel_multicolor(a, b, x0, sweeps=sweeps), pairs=3
    )
    r_ref = float(np.linalg.norm(b - a.tocsr() @ ref.out))
    r_fast = float(np.linalg.norm(b - a.tocsr() @ fast.out))
    ok = r_fast <= 1.5 * r_ref
    # modeled cost of the sweeps' SpMV work on sierra (1 GPU)
    ctx.trace.clear()
    for _ in range(sweeps):
        a.matvec(x0)
    model = RooflineModel(get_machine("sierra"))
    modeled = model.run_on_gpu(ctx.trace, compact=True).total
    return _case(
        "gauss_seidel", min(fast.test), min(ref.test), modeled,
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
    ref = measure(lambda: ref_nl.build(system), pairs=3)
    fast = measure(lambda: fast_nl.build(system), pairs=3)
    ref_pairs = set(zip(np.minimum(ref_nl.pairs_i, ref_nl.pairs_j).tolist(),
                        np.maximum(ref_nl.pairs_i, ref_nl.pairs_j).tolist()))
    fast_pairs = set(zip(np.minimum(fast_nl.pairs_i, fast_nl.pairs_j).tolist(),
                         np.maximum(fast_nl.pairs_i, fast_nl.pairs_j).tolist()))
    ok = ref_pairs == fast_pairs
    return _case(
        "md_neighbor", min(fast.test), min(ref.test), None,
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

    ref = measure(lambda: run("reference"), pairs=3)
    fast = measure(lambda: run("fused"), pairs=3)
    bincount = measure(lambda: run("fast"), pairs=3)
    (f_ref, e_ref, _), (f_fast, e_fast, _), (f_bc, e_bc, _) = (
        ref.out, fast.out, bincount.out
    )
    ok = (
        np.allclose(f_ref, f_fast, atol=1e-9) and np.isclose(e_ref, e_fast)
        and np.allclose(f_ref, f_bc, atol=1e-9) and np.isclose(e_ref, e_bc)
    )
    case = _case(
        "md_forces", min(fast.test), min(ref.test), None,
        "ok" if ok else "forces differ",
    )
    # the pre-fusion fast path rides along so the fused kernel's win
    # over plain bincount scatter stays visible in the report
    case["bincount_wall_s"] = round(min(bincount.test), 6)
    return case


def case_sched_events(smoke: bool) -> Dict:
    from repro.sched import ClusterSimulator, Sjf, batch_workload

    n_jobs = 1500 if smoke else 10_000
    jobs = batch_workload(n_jobs=n_jobs, seed=7)
    sim = ClusterSimulator(16)
    policy = Sjf()
    s = measure(lambda: sim.run(jobs, policy, engine="fast"),
                lambda: sim.run(jobs, policy, engine="reference"))
    r_fast, r_ref = s.out, s.base_out
    ok = (
        r_ref.makespan == r_fast.makespan
        and r_ref.mean_wait == r_fast.mean_wait
        and r_ref.queue_series == r_fast.queue_series
    )
    return _case(
        "sched_events", s.test[0], s.base[0], None,
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
    ref = measure(lambda: ref_model.run_on_gpu(plain), pairs=3)
    # the fast pricing is microseconds; average it for a stable wall
    reps = 100

    def price_fast():
        rep = None
        for _ in range(reps):
            rep = fast_model.run_on_gpu(compacting, compact=True)
        return rep

    fast = measure(price_fast)
    rep_ref, rep_fast = ref.out, fast.out
    ok = (
        np.isclose(rep_ref.total, rep_fast.total, rtol=1e-9)
        and np.isclose(rep_ref.kernel_time, rep_fast.kernel_time, rtol=1e-9)
    )
    return _case(
        "trace_pricing", fast.test[0] / reps, min(ref.test), rep_fast.total,
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

    def compile_all(persist_dir: str) -> Tuple[float, int]:
        cache = JitCache(persist_dir=persist_dir)
        total = 0.0
        for i in range(n_kernels):
            k = cache.compile("kern", template, {"A": 1.0 + i, "B": float(i)})
            total += k(1.0)
        return total, cache.disk_hits

    # each cold sample gets its own empty persist dir (a reused dir
    # would turn samples 2-3 into warm starts); each warm sample is a
    # fresh cache instance (in-memory cache empty, disk populated);
    # best-of-3 on both sides keeps the ~1 ms warm sample from being
    # poisoned by a scheduling hiccup
    tmps = [tempfile.mkdtemp(prefix="bench-jit-") for _ in range(3)]
    warm_runs: List[Tuple[float, int]] = []
    try:
        dirs = iter(tmps)
        cold = measure(lambda: compile_all(next(dirs)), pairs=3)
        warm = measure(lambda: warm_runs.append(compile_all(tmps[-1])),
                       pairs=3)
    finally:
        for tmp in tmps:
            shutil.rmtree(tmp, ignore_errors=True)
    ok = warm_runs == [(cold.out[0], n_kernels)] * 3
    return _case(
        "jit_warm_start", min(warm.test), min(cold.test), None,
        "ok" if ok else
        f"disk hits {[hits for _, hits in warm_runs]}/{n_kernels}",
    )


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

    The verdict is the median of the per-pair time ratios — robust
    to contention bursts, which only poison the pairs they overlap.
    An admission run afterwards sheds one job, populating the
    ``guard.shed*`` counters recorded in the report snapshot.
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

    with guard_override("off"):
        s = measure(guarded_off_pcg, bare_pcg, pairs=80 if smoke else 40)
    overhead = float(np.median(s.ratios)) - 1.0
    if not np.array_equal(s.out, s.base_out):
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
    case = _case("guard_overhead", min(s.test), min(s.base), None, check)
    case.update(spread(s.ratios))
    return case


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
    within 3% of a direct loop (one pair), and >= 2x wall-clock
    speedup with 4 process workers.
    """
    from repro.par import map_fanout

    n_tasks = 8 if smoke else 16
    delay = 0.05 if smoke else 0.15
    size = 48
    seqs = np.random.SeedSequence(17).spawn(n_tasks)
    items = [(seqs[i], size, delay) for i in range(n_tasks)]

    serial = measure(
        lambda: map_fanout(_par_fanout_task, items, backend="serial"),
        lambda: [_par_fanout_task(it) for it in items],
    )
    map_fanout(_par_fanout_task, items[:2], backend="process:4")  # warm pool
    par = measure(
        lambda: map_fanout(_par_fanout_task, items, backend="process:4")
    )
    overhead = serial.ratios[0] - 1.0
    speedup = serial.test[0] / par.test[0]
    if serial.out != serial.base_out or par.out != serial.out:
        check = "backend results differ"
    elif overhead > 0.03:
        check = f"serial-path overhead {overhead * 100:.2f}% > 3%"
    elif speedup < 2.0:
        check = f"speedup {speedup:.2f}x < 2x at 4 workers"
    else:
        check = "ok"
    return _case("par_fanout", par.test[0], serial.test[0], None, check)


def case_durability_overhead(smoke: bool) -> Dict:
    """WAL-journaling tax on a ddcMD ensemble member, gated < 5%.

    The member is driven by :class:`repro.durable.ResumableCampaign`
    committing its checkpoint state to a
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

    The verdict is the best-of-N ratio (``min(t_journaled) /
    min(t_bare)``): with ~0.2-0.7 s samples, scheduling and allocator
    noise is strictly additive and multi-percent, so the fastest
    sample on each side is the closest estimate of the true cost.
    Every sample's member is built before sampling, so construction
    (particle system, store, campaign) stays outside the timed region
    on both sides — its allocation-layout jitter is several percent
    per run, pure noise against a few-percent signal.  That the
    journaled trajectory is bit-identical to the bare run, and that
    the store recovers it, is tier-1's
    (``tests/test_durable.py::TestResumableCampaign``).
    """
    from repro.durable import DurableStore, ResumableCampaign
    from repro.md.ddcmd import DdcMD
    from repro.md.particles import ParticleSystem, PeriodicBox
    from repro.md.potentials import LennardJones, PairProcessor
    from repro.par import shutdown_pools

    n = 1500 if smoke else 4000
    n_steps = 24
    # the verdict is a best-of-N ratio; below ~12 pairs a single
    # multi-percent OS-noise excursion can drag it over the gate, so
    # full mode pays for the same sample count as smoke
    reps = 12

    def make_md() -> DdcMD:
        rho = 0.5
        side = (n / rho) ** (1.0 / 3.0)
        box = PeriodicBox([side, side, side])
        system = ParticleSystem.random_gas(n, box, seed=11)
        return DdcMD(system, PairProcessor(LennardJones(cutoff=2.5)))

    def drive(md: DdcMD) -> None:
        while md.progress < n_steps:
            md.step()

    # earlier cases leave pool workers and a fragmented heap behind;
    # both inflate the journaled side (its large pickle blobs churn
    # the allocator) without touching the bare side symmetrically
    shutdown_pools()
    with tempfile.TemporaryDirectory(prefix="bench-dur-") as root, \
            contextlib.ExitStack() as stores:

        def journaled(sync: bool) -> ResumableCampaign:
            store = stores.enter_context(
                DurableStore(tempfile.mkdtemp(dir=root), sync=sync)
            )
            return ResumableCampaign(make_md(), store, cadence=24,
                                     journal_every=8)

        bare = iter([make_md() for _ in range(reps)])
        journal = iter([journaled(False) for _ in range(reps)])
        synced = journaled(True)
        gc.collect()
        s = measure(lambda: next(journal).run(n_steps),
                    lambda: drive(next(bare)), pairs=reps)
        fsync = measure(lambda: synced.run(n_steps))
    overhead = min(s.test) / min(s.base) - 1.0
    fsync_overhead = fsync.test[0] / min(s.base) - 1.0
    if overhead > 0.05:
        check = f"journaling overhead {overhead * 100:.2f}% > 5%"
    else:
        check = "ok"
    case = _case("durability_overhead", min(s.test), min(s.base), None,
                 check)
    case["overhead_pct"] = round(overhead * 100, 2)
    case.update(spread(s.ratios))
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

    def fanout(backend: str) -> Samples:
        return measure(
            lambda: map_fanout(_sleep_task, items, backend=backend), pairs=2
        )

    serial = fanout("serial")
    map_fanout(_sleep_task, items[:8], backend="thread:4")  # warm pool
    static = fanout("thread:4")
    steal = fanout("steal-thread:4")
    t_serial, t_static, t_steal = (
        min(s.test) for s in (serial, static, steal)
    )
    static_speedup = t_serial / t_static
    steal_speedup = t_serial / t_steal
    if static.out != serial.out or steal.out != serial.out:
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

    runs = {
        w: measure(lambda: map_fanout(_sleep_task, items,
                                      backend=f"steal-thread:{w}"),
                   pairs=2)
        for w in (1, 2, 4)
    }
    walls = {w: min(s.test) for w, s in runs.items()}
    eff4 = walls[1] / (4 * walls[4])
    if not (runs[1].out == runs[2].out == runs[4].out):
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


def case_arbiter_off_overhead(smoke: bool) -> Dict:
    """Tenant registry with arbitration off vs the bare guard stack.

    Both run the standard pile-up stream (three compliant tenants at
    0.8x their fair share, one noisy tenant at 4x) on the same tagged
    jobs.  The gate: the registry with ``arbiter_enabled=False``
    against a plain dict of the very same per-tenant controllers
    (``TenantSpec.make_controller``) — the arbiter machinery must
    cost < 3% over the guard stack a user would run without it.  The
    irreducible price of per-tenant isolation itself (that guard dict
    vs one shared controller) is reported alongside as
    ``isolation_overhead_pct``, ungated.

    The true delta is tens of microseconds on a millisecond run, well
    below this host's steal noise, so the estimator is
    one-sided-robust: median of per-pair ratios within a block
    (slow-host episodes hit both halves of a pair and cancel), best of
    three blocks with freshly constructed drivers and one untimed
    warm-up pair each (steal spikes and unlucky heap layout only ever
    inflate a block).  An identical-driver A/A control of this
    estimator reads 0.99-1.01 here; min/min and single-block medians
    both swing past 3% on their own.

    ``wall_s`` is the fastest arbiter-off run, ``ref_wall_s`` the
    fastest guard-stack run.  Fairness, containment and incident
    replay are tier-1's (``tests/test_tenant.py::TestPileupScenario``).
    """
    from repro.tenant import multitenant_pileup
    from repro.traffic.driver import AdmissionSpec, OpenLoopDriver

    n_gpus = 8
    bundle = multitenant_pileup(
        n_gpus=n_gpus, n_compliant=3, noisy_factor=4.0,
        n_jobs_per_tenant=120, seed=1,
    )
    disabled = dataclasses.replace(bundle.tenancy, arbiter_enabled=False)
    jobs = list(bundle.jobs)

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

    def block(make_test, make_base) -> Samples:
        base, test = make_base(), make_test()
        base.run(jobs)
        test.run(jobs)
        return measure(lambda: test.run(jobs), lambda: base.run(jobs),
                       pairs=12)

    blocks = [block(registry_driver, stack_driver) for _ in range(3)]
    overhead = min(_mid(b.ratios) for b in blocks) - 1.0
    isolation = _mid(block(stack_driver, single_driver).ratios) - 1.0
    if overhead > 0.03:
        check = f"arbiter-disabled overhead {overhead * 100:.2f}% > 3%"
    else:
        check = "ok"
    case = _case("arbiter_off_overhead",
                 min(t for b in blocks for t in b.test),
                 min(t for b in blocks for t in b.base), None, check)
    case["overhead_pct"] = round(overhead * 100, 2)
    case.update(spread(np.concatenate([b.ratios for b in blocks])))
    case["isolation_overhead_pct"] = round(isolation * 100, 2)
    return case


def case_capture_overhead(smoke: bool) -> Dict:
    """Capture mode's *streaming* tax, gated < 3%.

    The uncaptured alternative that produces the same replayable
    artifact is the ``record_experiment`` shape — write every job
    frame up front, then run.  The gate compares that (TraceWriter
    batch write + bare run + seal) against the live tap (identical
    frames, written from inside the hot loop as jobs are offered,
    ``decisions=False``).  Per-decision frames are extra *data* the
    batch path cannot produce at all; their cost is reported ungated
    as ``decision_frames_overhead_pct``.  (Against a run with *no*
    trace at all the comparison is meaningless here: serializing a job
    costs a few µs while the simulator spends a few µs per job *total*
    — the paper's system amortizes capture against jobs that run for
    minutes.)

    The estimator is ``arbiter_off_overhead``'s with five blocks: a
    single block's A/A control reads up to +-8% on this host, and the
    min across blocks is the robust one-sided estimate (noise only
    ever inflates a block).  ``wall_s`` is the fastest tapped run,
    ``ref_wall_s`` the fastest batch write-then-run.  That a capture
    seals its fingerprint and replays to it is tier-1's
    (``tests/test_traffic.py``'s ``TestCapture`` and ``TestAbReplay``,
    ``tests/test_replay_contract.py``).
    """
    from repro.traffic import (
        AdmissionSpec,
        CaptureTap,
        ChaosSpec,
        OpenLoopDriver,
        PoissonArrivals,
        TraceWriter,
        UserPopulation,
        generate_jobs,
    )

    n_gpus = 8

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

    # the run is kept at full length even in smoke mode: shorter runs
    # put pair-ratio noise on the same order as the 3% gate itself
    population = UserPopulation(n_users=20_000, seed=0, mean_service=10.0,
                                best_effort_fraction=0.3)
    jobs = generate_jobs(PoissonArrivals(rate=0.9), population, 300,
                         arrival_seed=2)

    with tempfile.TemporaryDirectory(prefix="bench-ab-") as root:
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

        def block(test) -> Samples:
            run_batch()
            test()
            return measure(test, run_batch, pairs=16)

        blocks = [block(run_tapped) for _ in range(5)]
        decision_tax = min(
            _mid(block(lambda: run_tapped(True)).ratios) for _ in range(3)
        ) - 1.0
    overhead = min(_mid(b.ratios) for b in blocks) - 1.0
    if overhead > 0.03:
        check = f"capture overhead {overhead * 100:.2f}% > 3%"
    else:
        check = "ok"
    case = _case("capture_overhead",
                 min(t for b in blocks for t in b.test),
                 min(t for b in blocks for t in b.base), None, check)
    case["overhead_pct"] = round(overhead * 100, 2)
    case.update(spread(np.concatenate([b.ratios for b in blocks])))
    case["decision_frames_overhead_pct"] = round(decision_tax * 100, 2)
    return case


CASES: Dict[str, Callable[[bool], Dict]] = {
    "gauss_seidel": case_gauss_seidel,
    "md_neighbor": case_md_neighbor,
    "md_forces": case_md_forces,
    "sched_events": case_sched_events,
    "trace_pricing": case_trace_pricing,
    "jit_warm_start": case_jit_warm_start,
    "guard_overhead": case_guard_overhead,
    "par_fanout": case_par_fanout,
    "fine_grain_fanout": case_fine_grain_fanout,
    "scaling_curve": case_scaling_curve,
    "durability_overhead": case_durability_overhead,
    "arbiter_off_overhead": case_arbiter_off_overhead,
    "capture_overhead": case_capture_overhead,
}


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
                    help="small sizes for CI")
    ap.add_argument("--output", type=Path, default=None,
                    help="output JSON path (default: next BENCH_<n>.json)")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="explicit baseline JSON (default: newest BENCH_*)")
    ap.add_argument("--only", action="append", default=None,
                    help="run only the named case (repeatable)")
    args = ap.parse_args(argv)
    unknown = [name for name in args.only or () if name not in CASES]
    if unknown:
        # a stale name in a CI step would otherwise gate nothing
        ap.error(f"unknown case(s): {', '.join(unknown)} "
                 f"(known: {', '.join(CASES)})")

    from repro.obs import reset_metrics, snapshot

    mode = "smoke" if args.smoke else "full"
    out_path = args.output or _next_output(REPO)
    baseline_path = args.baseline
    if baseline_path is None:
        baseline_path = _select_baseline(REPO, out_path, mode)

    reset_metrics()
    cases = []
    failures = []
    for name, fn in CASES.items():
        if args.only and name not in args.only:
            continue
        rec = fn(args.smoke)
        cases.append(rec)
        speed = f"{rec['speedup']}x" if rec["speedup"] else "-"
        print(f"{name:20s} wall {rec['wall_s']:.4f}s  "
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
        problems = compare(report, baseline, TOLERANCE)
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
