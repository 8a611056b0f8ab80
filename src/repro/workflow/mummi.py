"""The MuMMI campaign driver.

The macro model is a coarse lipid-composition field evolving by
diffusion with stochastic forcing (a stand-in for the continuum RAS-
membrane model); "interesting" patches are those with compositions
least like anything already simulated — the novelty-sampling strategy
of the real MuMMI.  Each selected patch becomes a micro MD job whose
GPU service time comes from the §4.6 step-time model, scheduled on the
event-driven cluster simulator; completed jobs feed an in-situ
analysis summary back into the macro state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.machine import Machine, get_machine
from repro.md.gromacs_baseline import modeled_step_times
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.par import ShmStage, get_backend, map_fanout
from repro.sched.policies import Fcfs
from repro.sched.simulator import ClusterSimulator, Job
from repro.util.rng import make_rng, spawn_keyed
from repro.util.state import (
    APPEND,
    COPY,
    NESTED,
    RNG,
    Field,
    Stateful,
    append_only,
    convert,
    fields,
)


def _micro_analysis(args):
    """In-situ analysis of one micro simulation (the fan-out unit).

    Pure function of the patch composition, the candidate's own
    Generator (fresh from its keyed stream, so it draws the same
    normal on whichever backend/worker evaluates it), and the fidelity
    rung's noise scale.
    """
    sc, idx, rng, noise_scale = args
    comp = float(sc.asarray()[idx])
    return MicroResult(
        composition=comp,
        observable=comp + noise_scale * float(rng.normal()),
    )


def novelty(comps: np.ndarray, explored) -> np.ndarray:
    """Distance from each composition to its nearest explored value.

    Bit-identical to ``np.min(np.abs(comps[:, None] - explored[None,
    :]), axis=1)`` at O((n + m) log m) instead of O(n m): rounded
    subtraction is monotone, so the nearest value is always one of the
    two ``searchsorted`` neighbours in *explored*, sorted once here.
    *explored* (an array or a list of floats) must be non-empty.

    ±inf follow the same rule (``inf - inf`` is NaN, so an infinite
    composition that meets its own infinity reads NaN, as it does in
    the broadcast), and so does a NaN composition.  A NaN in
    *explored* does not: the broadcast turns every row into NaN, this
    search only the rows whose neighbour the NaN is.
    """
    ordered = np.sort(explored)
    hi = np.searchsorted(ordered, comps)
    lo = np.maximum(hi - 1, 0)
    np.minimum(hi, ordered.size - 1, out=hi)
    return np.minimum(np.abs(comps - ordered.take(lo)),
                      np.abs(comps - ordered.take(hi)))


class MacroModel:
    """Coarse 2D composition field with diffusion + forcing."""

    def __init__(self, n: int = 32, diffusivity: float = 0.2, seed=0):
        if n < 4:
            raise ValueError("macro grid too small")
        if not (0 < diffusivity <= 0.25):
            raise ValueError("diffusivity in (0, 0.25] for stability")
        self.n = n
        self.d = diffusivity
        self.rng = make_rng(seed)
        self.field = self.rng.random((n, n))
        # periodic neighbour indices: f.take(prev, axis) gathers
        # exactly np.roll(f, 1, axis), in one pass instead of two
        self._prev = np.roll(np.arange(n), 1)
        self._next = np.roll(np.arange(n), -1)

    def step(self, forcing: float = 0.02) -> None:
        f = self.field
        prev, nxt = self._prev, self._next
        lap = (
            f.take(prev, 0) + f.take(nxt, 0)
            + f.take(prev, 1) + f.take(nxt, 1) - 4 * f
        )
        self.field = f + self.d * lap + forcing * self.rng.normal(
            0, 1, f.shape
        )

    def patch_compositions(self, patch: int = 4) -> np.ndarray:
        """Mean composition per patch, shape (n/patch, n/patch)."""
        if self.n % patch:
            raise ValueError("patch size must divide the grid")
        m = self.n // patch
        return self.field.reshape(m, patch, m, patch).mean(axis=(1, 3))


@dataclass
class MicroResult:
    """In-situ analysis summary of one micro simulation."""

    composition: float
    observable: float


class MummiCampaign(Stateful):
    """Run macro/micro coupling cycles and account GPU throughput.

    The checkpoint is the full campaign: the macro field, both
    Generators and the evaluation stream's spawn count, the
    explored/novelty history, the accounting, the fault injector's
    stream (so a restart replays the same downstream fault schedule)
    and the guards' state.
    """

    _STATE = (
        Field("field", COPY, "macro.field"),
        Field("macro_rng", RNG, "macro.rng"),
        Field("rng", RNG),
        # the evaluation stream restores by replaying its spawn count
        Field("eval_stream", convert(
            lambda seq: {"entropy": seq.entropy,
                         "spawn_key": tuple(seq.spawn_key),
                         "n_children_spawned": seq.n_children_spawned},
            lambda saved: np.random.SeedSequence(**saved),
        ), "_eval_root"),
        # the history only grows, so a journal record carries what
        # the cycle added; results convert item by item
        Field("explored", APPEND),
        Field("results", append_only(convert(
            lambda results: [(r.composition, r.observable)
                             for r in results],
            lambda saved: [MicroResult(composition=c, observable=o)
                           for c, o in saved],
        ))),
        *fields("gpu_hours", "wall_time", "cycles_done", "failures",
                "job_retries", "jobs_shed", "cycles_over_budget"),
        Field("rungs_served", APPEND),
        Field("wasted_gpu_hours"),
        Field("injector", NESTED, "fault_injector"),
        *fields("breaker", "admission", "ladder", kind=NESTED),
    )

    def __init__(
        self,
        machine: Optional[Machine] = None,
        n_gpus: int = 16,
        md_code: str = "ddcmd",
        steps_per_sim: int = 25_000,
        jobs_per_cycle: int = 24,
        seed: int = 0,
        fault_injector=None,
        cycle_budget: Optional[float] = None,
        breaker=None,
        admission=None,
        backend=None,
        tenant: Optional[str] = None,
        ladder=None,
    ):
        if md_code not in ("ddcmd", "gromacs"):
            raise ValueError("md_code must be 'ddcmd' or 'gromacs'")
        if n_gpus < 1 or steps_per_sim < 1 or jobs_per_cycle < 1:
            raise ValueError("bad campaign parameters")
        if cycle_budget is not None and cycle_budget <= 0:
            raise ValueError("cycle_budget must be positive")
        self.machine = machine if machine is not None else get_machine("sierra")
        self.n_gpus = n_gpus
        self.md_code = md_code
        self.steps_per_sim = steps_per_sim
        self.jobs_per_cycle = jobs_per_cycle
        # independent campaign streams via SeedSequence.spawn — the
        # old ``make_rng(seed + 1)`` offset risks colliding with the
        # macro model's own ``seed`` stream.  The macro model keeps the
        # root stream (``default_rng(seed)`` seeds through the same
        # SeedSequence); the auxiliary streams are spawned children,
        # which are independent of the root by spawn_key.
        jitter_seq, eval_root = np.random.SeedSequence(seed).spawn(2)
        self.macro = MacroModel(seed=seed)
        #: parent-side stream for job service-time jitter (sequential
        #: draws; cheap, so they stay in the parent for determinism)
        self.rng = make_rng(jitter_seq)
        #: root of the per-candidate evaluation streams; each cycle
        #: spawns one child per candidate, so micro results are a
        #: function of (cycle, candidate), not of evaluation order
        self._eval_root = eval_root
        #: per-call execution backend spec (None -> REPRO_PAR env)
        self.backend = backend
        self.fault_injector = fault_injector
        #: per-cycle wall-clock budget (simulated seconds); overruns are
        #: surfaced via the ``workflow.mummi.cycle_over_budget`` counter
        #: and, with an admission controller attached, become per-job
        #: deadlines the controller sheds against
        self.cycle_budget = cycle_budget
        #: :class:`repro.guard.deadline.CircuitBreaker` fed by cycle
        #: failures; while open, cycles degrade to the lower-fidelity
        #: macro surrogate instead of launching micro MD jobs
        self.breaker = breaker
        #: :class:`repro.guard.deadline.AdmissionController` consulted
        #: by the cluster simulator at enqueue time
        self.admission = admission
        #: owning tenant name, stamped on every micro MD job so a
        #: shared-machine admission layer (the
        #: :class:`~repro.tenant.TenantRegistry`) can charge this
        #: campaign's load to its own contract
        self.tenant = tenant
        #: :class:`repro.tenant.BrownoutLadder` — at the ``degrade``
        #: rung or worse the cycle is served from the macro surrogate
        #: even while the breaker is closed (brownout beats fidelity)
        self.ladder = ladder
        #: fidelity rung that served each cycle: "micro-md"/"surrogate"
        self.rungs_served: List[str] = []
        self.jobs_shed = 0
        self.cycles_over_budget = 0
        self.explored: List[float] = []
        self.results: List[MicroResult] = []
        self.gpu_hours = 0.0
        self.wall_time = 0.0
        self.cycles_done = 0
        self.failures = 0
        self.job_retries = 0
        self.wasted_gpu_hours = 0.0
        # per-simulation GPU time from the §4.6 model.  Each micro sim
        # owns one GPU; the node's sockets are shared between the
        # concurrent sims on that node, and the macro model + in-situ
        # analysis take ~35% of what remains (§4.6: "MuMMI uses CPUs
        # for the macro model and in situ analysis").
        sockets_per_sim = self.machine.cpu_sockets / self.machine.gpus_per_node
        times = modeled_step_times(
            self.machine, gpus=1, cpu_sockets_for_md=sockets_per_sim,
            cpu_available_fraction=0.65,
        )
        self.step_time = times[md_code]

    # ------------------------------------------------------------------

    def select_candidates(self, comps: np.ndarray) -> np.ndarray:
        """Novelty sampling: patches least like anything explored.

        *comps* is this cycle's ``macro.patch_compositions().ravel()``.
        """
        if not self.explored:
            score = np.abs(comps - comps.mean())
        else:
            score = novelty(comps, self.explored)
        order = np.argsort(score)[::-1]
        return order[: self.jobs_per_cycle]

    def run_cycle(self) -> Dict[str, float]:
        """One coupling cycle; returns cycle metrics."""
        with _trace.span("workflow.mummi.cycle", cycle=self.cycles_done,
                         jobs=self.jobs_per_cycle):
            metrics = self._run_cycle()
        _metrics.counter("workflow.mummi.cycles").add()
        _metrics.counter("workflow.mummi.simulations").add(
            int(metrics["simulations"])
        )
        if metrics["failures"]:
            _metrics.counter("workflow.mummi.failures").add(
                int(metrics["failures"])
            )
        return metrics

    def _run_cycle(self) -> Dict[str, float]:
        self.macro.step()
        comps = self.macro.patch_compositions().ravel()
        candidates = self.select_candidates(comps)
        # graceful degradation: with the breaker open (fault storm /
        # repeated budget overruns), serve this cycle from the cheap
        # macro surrogate instead of launching micro MD.  The breaker
        # runs on the cycle-count clock.  This caller reports back
        # (record_success/record_failure at cycle end), so it is the
        # one legitimately entitled to the half-open probe.
        if self.breaker is not None and not self.breaker.try_acquire_probe(
            float(self.cycles_done)
        ):
            return self._run_surrogate_cycle(candidates, comps)
        # brownout: the tenant layer can demand degraded service even
        # with a healthy breaker (the machine is overloaded, not
        # faulting) — serve the surrogate rung, burn no GPU-hours
        if self.ladder is not None and self.ladder.at_least("degrade"):
            return self._run_surrogate_cycle(candidates, comps)
        service = self.steps_per_sim * self.step_time
        # one draw per job, in job order (a vector draw is the same
        # stream as that many scalar draws)
        jitter = self.rng.uniform(0.9, 1.1, candidates.size).tolist()
        # job_id order is novelty rank: rank 0 is the most novel patch
        # and gets the highest priority, so under load shedding the
        # least interesting candidates are sacrificed first
        jobs = [
            Job(job_id=k, arrival=0.0,
                service=service * jitter[k],
                priority=candidates.size - k,
                deadline=self.cycle_budget,
                tenant=self.tenant)
            for k in range(candidates.size)
        ]
        result = ClusterSimulator(self.n_gpus).run(
            jobs, Fcfs(),
            fault_injector=self.fault_injector,
            admission=self.admission,
        )
        # in-situ analysis: summarize each micro sim and feed back
        self._analyze_candidates(candidates, comps, noise_scale=0.05)
        self.gpu_hours += sum(j.service for j in jobs) / 3600.0
        self.wall_time += result.makespan
        self.cycles_done += 1
        self.failures += result.failures
        self.job_retries += result.retries
        self.jobs_shed += result.shed
        self.wasted_gpu_hours += result.wasted_time / 3600.0
        self.rungs_served.append("micro-md")
        over_budget = (
            self.cycle_budget is not None
            and result.makespan > self.cycle_budget
        )
        if over_budget:
            self.cycles_over_budget += 1
            _metrics.counter("workflow.mummi.cycle_over_budget").add()
        if self.breaker is not None:
            now = float(self.cycles_done)
            if result.failures or over_budget:
                self.breaker.record_failure(now)
            else:
                self.breaker.record_success(now)
            _metrics.counter("guard.fallback.mummi.served.micro_md").add()
        return {
            "simulations": float(len(jobs)),
            "makespan": result.makespan,
            "utilization": result.utilization,
            "goodput": result.goodput,
            "failures": float(result.failures),
            "shed": float(result.shed),
            "over_budget": float(over_budget),
            "degraded": 0.0,
        }

    def _run_surrogate_cycle(
        self, candidates: np.ndarray, comps: np.ndarray
    ) -> Dict[str, float]:
        """Lower-fidelity rung: serve the cycle from the macro model.

        No micro MD jobs are launched and no GPU-hours are burned; each
        candidate's observable is a macro-derived estimate with wider
        surrogate noise.  The campaign keeps making (degraded) progress
        through a fault storm instead of hammering a failing cluster.
        """
        self._analyze_candidates(candidates, comps, noise_scale=0.2)
        self.cycles_done += 1
        self.rungs_served.append("surrogate")
        _metrics.counter("guard.fallback.mummi.served.surrogate").add()
        _metrics.counter("guard.fallback.mummi.degraded").add()
        return {
            "simulations": float(candidates.size),
            "makespan": 0.0,
            "utilization": 0.0,
            "goodput": 0.0,
            "failures": 0.0,
            "shed": 0.0,
            "over_budget": 0.0,
            "degraded": 1.0,
        }

    def _analyze_candidates(
        self, candidates: np.ndarray, comps: np.ndarray, noise_scale: float
    ) -> None:
        """Fan the per-candidate micro analysis out over the backend.

        Each candidate draws from its own child of the campaign's
        evaluation stream — the Generator ``eval_root.spawn(n)`` would
        seed, built in one batch by :func:`spawn_keyed` — so the
        fan-out is bit-exact across backends; the spawn counter is
        part of the checkpoint state.
        """
        rngs, self._eval_root = spawn_keyed(self._eval_root,
                                            candidates.size)
        be = get_backend(self.backend)
        # the macro composition snapshot crosses to the workers once
        # as a shared segment; each candidate reads its own element
        with ShmStage(be.kind) as stage:
            sc = stage.share(np.ascontiguousarray(comps, dtype=np.float64))
            results = map_fanout(
                _micro_analysis,
                [(sc, i, rng, noise_scale)
                 for i, rng in zip(candidates.tolist(), rngs)],
                backend=be,
            )
        for result in results:
            self.explored.append(result.composition)
            self.results.append(result)

    def run(self, n_cycles: int) -> None:
        if n_cycles < 1:
            raise ValueError("n_cycles must be >= 1")
        for _ in range(n_cycles):
            self.run_cycle()

    @property
    def simulations_per_hour(self) -> float:
        if self.wall_time == 0:
            return 0.0
        return len(self.results) / (self.wall_time / 3600.0)

    def coverage(self, bins: int = 10) -> float:
        """Fraction of composition space explored (novelty sampling
        should drive this up faster than random sampling would)."""
        if not self.explored:
            return 0.0
        hist, _ = np.histogram(self.explored, bins=bins, range=(0.0, 1.0))
        return float((hist > 0).mean())

    # ------------------------------------------------------------------
    # resilience protocol (checkpoint/restart + ABFT)
    # ------------------------------------------------------------------

    @property
    def progress(self) -> int:
        return self.cycles_done

    def step(self) -> Dict[str, float]:
        """One campaign cycle (the unit the resilient driver advances)."""
        return self.run_cycle()

    #: composition values live in O(1) territory; anything near this
    #: bound can only come from corrupted state
    ABFT_FIELD_BOUND = 1e3

    def abft_error(self) -> float:
        """Macro-field range check: compositions are O(1) physical
        quantities, so a non-finite or huge entry means the field was
        corrupted in flight."""
        f = self.macro.field
        if not np.isfinite(f).all():
            return float("inf")
        return float(np.abs(f).max()) / self.ABFT_FIELD_BOUND

    def corrupt(self, rng, magnitude: float = 1e6) -> None:
        """Inject a silent corruption into the macro field."""
        k = int(rng.integers(self.macro.field.size))
        self.macro.field.reshape(-1)[k] += magnitude
