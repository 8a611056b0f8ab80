"""Open-loop traffic driver: offered load against the guard layer.

Everything the repo had before this module was closed-loop: a batch of
jobs, run to completion, next batch.  Real clusters see *offered*
load — arrivals keep coming whether or not the machine is keeping up —
and that is the regime where the paper's throttling recommendation
(§4.7) and the guard layer's shed/breaker paths actually live.

:class:`OpenLoopDriver` composes the pieces end to end: an arrival
process + user population (or a recorded :class:`TrafficTrace`) feeds
the event-driven :class:`~repro.sched.simulator.SimulatorSession`,
with an :class:`~repro.guard.deadline.AdmissionController` shedding at
enqueue time and a :class:`~repro.resilience.faults.FaultInjector`
composable on top for chaos.  Each run produces a
:class:`TrafficReport` whose :meth:`~TrafficReport.fingerprint` is the
replay contract: shed decisions and reasons, ``guard.*`` counter
deltas, and the job completion order, all of which must be
bit-identical when a recorded trace is replayed.

Experiment configuration is declarative (:class:`ChaosSpec`,
:class:`AdmissionSpec`) so a trace header carries everything needed to
rebuild the exact run — :func:`record_experiment` writes it and
:func:`replay` rebuilds the driver from the header alone.  Every
verifier — :func:`verify_replay`, the tenant layer's
``verify_incident``, the A/B baseline check and ``python -m
repro.traffic --replay`` — goes through the one :func:`verify`: two
replays that must agree with each other and with the recorded
fingerprint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.guard.deadline import AdmissionController, CircuitBreaker
from repro.obs import metrics as _metrics
from repro.resilience.faults import FaultInjector
from repro.sched.policies import Fcfs, Sjf, SjfWithQuota
from repro.sched.simulator import SimResult, SimulatorSession
from repro.traffic.arrivals import (
    ArrivalProcess,
    process_from_description,
)
from repro.traffic.population import UserPopulation
from repro.traffic.trace import TraceWriter, TrafficTrace

#: policy registry for trace headers (name -> factory(n_gpus))
_POLICIES = {
    "fcfs": lambda n_gpus: Fcfs(),
    "sjf": lambda n_gpus: Sjf(),
    "sjf_quota": lambda n_gpus: SjfWithQuota(n_gpus, 0.25),
}


@dataclass(frozen=True)
class ChaosSpec:
    """Declarative fault-injector configuration (trace-header-able)."""

    mtbf: float
    seed: int = 0

    def make(self) -> FaultInjector:
        return FaultInjector(mtbf=self.mtbf, seed=self.seed)

    def describe(self) -> Dict[str, Any]:
        return {"mtbf": self.mtbf, "seed": self.seed}

    @classmethod
    def from_description(cls, desc: Dict[str, Any]) -> "ChaosSpec":
        return cls(mtbf=desc["mtbf"], seed=desc["seed"])


@dataclass(frozen=True)
class AdmissionSpec:
    """Declarative admission-controller + breaker configuration."""

    max_queue: Optional[int] = None
    protect_priority: int = 0
    backlog_estimate: bool = True
    breaker_failure_threshold: Optional[int] = None
    breaker_recovery_time: float = 1.0

    def make(self) -> AdmissionController:
        breaker = None
        if self.breaker_failure_threshold is not None:
            breaker = CircuitBreaker(
                failure_threshold=self.breaker_failure_threshold,
                recovery_time=self.breaker_recovery_time,
                name="traffic",
            )
        return AdmissionController(
            max_queue=self.max_queue,
            protect_priority=self.protect_priority,
            breaker=breaker,
            backlog_estimate=self.backlog_estimate,
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "max_queue": self.max_queue,
            "protect_priority": self.protect_priority,
            "backlog_estimate": self.backlog_estimate,
            "breaker_failure_threshold": self.breaker_failure_threshold,
            "breaker_recovery_time": self.breaker_recovery_time,
        }

    @classmethod
    def from_description(cls, desc: Dict[str, Any]) -> "AdmissionSpec":
        return cls(
            max_queue=desc["max_queue"],
            protect_priority=desc["protect_priority"],
            backlog_estimate=desc["backlog_estimate"],
            breaker_failure_threshold=desc["breaker_failure_threshold"],
            breaker_recovery_time=desc["breaker_recovery_time"],
        )


@dataclass
class TrafficReport:
    """One open-loop run, summarized for gates and replay checks."""

    result: SimResult
    #: (job_id, reason) per shed decision, in decision order
    shed_log: List[Tuple[Optional[int], str]] = field(default_factory=list)
    #: ``guard.*`` counter deltas accumulated during the run
    guard_counters: Dict[str, float] = field(default_factory=dict)
    breaker_state: Optional[Dict[str, Any]] = None
    #: breaker trips across the run (all tenants, in tenancy mode)
    trips: int = 0
    #: per-tenant counters from the registry (tenancy mode only)
    tenant_summary: Optional[Dict[str, Dict[str, Any]]] = None
    #: the live :class:`~repro.tenant.TenantRegistry` behind the run
    #: (tenancy mode only; carries the flight recorder for incident
    #: dumps — never part of the fingerprint)
    registry: Optional[Any] = None

    @property
    def p50_wait(self) -> float:
        return self.result.wait_percentile(50.0)

    @property
    def p99_wait(self) -> float:
        return self.result.wait_percentile(99.0)

    @property
    def p50_turnaround(self) -> float:
        return self.result.turnaround_percentile(50.0)

    @property
    def p99_turnaround(self) -> float:
        return self.result.turnaround_percentile(99.0)

    @property
    def shed_rate(self) -> float:
        return self.result.shed_rate

    def fingerprint(self) -> Dict[str, Any]:
        """The replay contract: two runs of the same trace under the
        same specs must produce an identical (bit-exact) fingerprint —
        same shed decisions and reasons, same ``guard.*`` counters,
        same completion order and times."""
        fp: Dict[str, Any] = {
            "completions": [
                [t, j] for t, j in self.result.completions
            ],
            "shed_log": [[j, r] for j, r in self.shed_log],
            "guard_counters": dict(self.guard_counters),
            "breaker_state": (
                None if self.breaker_state is None
                else dict(self.breaker_state)
            ),
            "makespan": self.result.makespan,
            "completed": self.result.completed,
            "shed": self.result.shed,
            "dropped": self.result.dropped,
            "failures": self.result.failures,
            "retries": self.result.retries,
        }
        # tenant-keyed entries appear only when tenancy was in play, so
        # pre-tenant fingerprints (and their recorded traces) stay
        # byte-stable
        if self.tenant_summary is not None:
            fp["trips"] = self.trips
            fp["tenant_summary"] = {
                k: dict(v) for k, v in self.tenant_summary.items()
            }
            fp["tenant_completed"] = dict(self.result.tenant_completed)
            fp["tenant_completed_service"] = dict(
                self.result.tenant_completed_service
            )
            fp["tenant_shed"] = dict(self.result.tenant_shed)
        return fp


class OpenLoopDriver:
    """Feed an offered-load job stream through the guarded scheduler.

    Each :meth:`run` builds *fresh* chaos and admission state from the
    declarative specs, so runs are independent and a replayed trace
    meets exactly the machine state the recorded run met.
    """

    def __init__(
        self,
        n_gpus: int,
        policy: str = "fcfs",
        admission: Optional[AdmissionSpec] = None,
        chaos: Optional[ChaosSpec] = None,
        horizon: Optional[float] = None,
        engine: str = "auto",
        tenancy=None,
    ):
        if policy not in _POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; one of {sorted(_POLICIES)}"
            )
        if admission is not None and tenancy is not None:
            raise ValueError(
                "pass admission= (single-tenant) or tenancy= "
                "(multi-tenant), not both"
            )
        self.n_gpus = n_gpus
        self.policy = policy
        self.admission = admission
        self.chaos = chaos
        self.horizon = horizon
        self.engine = engine
        #: :class:`repro.tenant.TenancySpec` — multi-tenant mode
        self.tenancy = tenancy

    def describe(self) -> Dict[str, Any]:
        return {
            "n_gpus": self.n_gpus,
            "policy": self.policy,
            "admission": (
                None if self.admission is None
                else self.admission.describe()
            ),
            "chaos": None if self.chaos is None else self.chaos.describe(),
            "horizon": self.horizon,
            "engine": self.engine,
            "tenancy": (
                None if self.tenancy is None else self.tenancy.describe()
            ),
        }

    @classmethod
    def from_description(cls, desc: Dict[str, Any]) -> "OpenLoopDriver":
        tenancy = None
        if desc.get("tenancy") is not None:
            # function-level import: repro.tenant sits above this module
            from repro.tenant.spec import TenancySpec

            tenancy = TenancySpec.from_description(desc["tenancy"])
        return cls(
            n_gpus=desc["n_gpus"],
            policy=desc["policy"],
            admission=(
                None if desc.get("admission") is None
                else AdmissionSpec.from_description(desc["admission"])
            ),
            chaos=(
                None if desc.get("chaos") is None
                else ChaosSpec.from_description(desc["chaos"])
            ),
            horizon=desc.get("horizon"),
            engine=desc.get("engine", "auto"),
            tenancy=tenancy,
        )

    def run(self, jobs, tap=None) -> TrafficReport:
        """Drive *jobs* (any iterable of :class:`Job`) to resolution.

        *tap* (optional) is a capture observer — see
        :class:`repro.traffic.capture.CaptureTap` — whose hooks the
        session calls on every offered job and shed/completion/fault
        decision.
        """
        return self._run(jobs=jobs, stream=None, tap=tap)

    def run_stream(self, stream, tap=None) -> TrafficReport:
        """Drive a lazy job *stream* (never materialized) to the
        driver's horizon.

        The stream — typically ``population.stream_jobs(
        process.stream(seed))`` — may be unbounded; the session pulls
        one lookahead job at a time and stops offering at the horizon,
        bit-exactly matching :meth:`run` on the horizon-truncated
        materialized list.
        """
        if self.horizon is None:
            raise ValueError(
                "run_stream needs a driver horizon — an unbounded "
                "stream never resolves without one"
            )
        return self._run(jobs=None, stream=stream, tap=tap)

    def _run(self, jobs, stream, tap) -> TrafficReport:
        if self.tenancy is not None:
            admission = self.tenancy.make()
        elif self.admission is not None:
            admission = self.admission.make()
        else:
            admission = None
        injector = None if self.chaos is None else self.chaos.make()
        guard_before = _guard_counter_snapshot()
        session = SimulatorSession(
            self.n_gpus, jobs, _POLICIES[self.policy](self.n_gpus),
            horizon=self.horizon, fault_injector=injector,
            engine=self.engine,
            admission=admission, stream=stream, tap=tap,
        )
        result = session.run_to_completion()
        guard_after = _guard_counter_snapshot()
        deltas = {
            k: guard_after[k] - guard_before.get(k, 0)
            for k in guard_after
            if guard_after[k] != guard_before.get(k, 0)
        }
        registry = admission if self.tenancy is not None else None
        return TrafficReport(
            result=result,
            shed_log=[] if admission is None else list(admission.shed_log),
            guard_counters=deltas,
            breaker_state=(
                None if admission is None or admission.breaker is None
                else admission.breaker.checkpoint_state()
            ),
            trips=0 if registry is None else registry.trips,
            tenant_summary=(
                None if registry is None else registry.tenant_summary()
            ),
            registry=registry,
        )


def _guard_counter_snapshot() -> Dict[str, float]:
    from repro.obs import snapshot_prefix

    return snapshot_prefix("guard.")


# ---------------------------------------------------------------------------
# record / replay experiments
# ---------------------------------------------------------------------------


def generate_jobs(process: ArrivalProcess, population: UserPopulation,
                  n_jobs: int, arrival_seed: int = 0):
    """Synthesize *n_jobs* open-loop jobs: process times x population."""
    arrivals = process.sample(n_jobs, seed=arrival_seed)
    return population.jobs_for(arrivals)


def record_experiment(
    path: Union[str, Path],
    process: ArrivalProcess,
    population: UserPopulation,
    driver: OpenLoopDriver,
    n_jobs: int,
    arrival_seed: int = 0,
    sync: bool = False,
) -> Tuple[TrafficTrace, TrafficReport]:
    """Generate, run, and record one open-loop experiment.

    The trace header carries the full experiment description — arrival
    process, population, driver (admission + chaos + policy), seeds —
    so :func:`replay` needs nothing but the loaded file.  The
    trailer is sealed with the run's fingerprint *after* the run
    completes: a replay can then be checked against the original run
    (not just against another replay), and an aborted run leaves an
    unsealed prefix rather than an orphan trace that looks complete
    but has no report behind it.
    """
    jobs = generate_jobs(process, population, n_jobs,
                         arrival_seed=arrival_seed)
    meta = {
        "process": process.describe(),
        "population": population.describe(),
        "driver": driver.describe(),
        "n_jobs": n_jobs,
        "arrival_seed": arrival_seed,
    }
    writer = TraceWriter(path, meta=meta, n_jobs=n_jobs, sync=sync)
    try:
        writer.append_jobs(jobs)
        report = driver.run(jobs)
        writer.seal(report.fingerprint())
    finally:
        writer.close()
    trace = TrafficTrace(jobs, meta, fingerprint=report.fingerprint())
    _metrics.counter("traffic.experiments_recorded").add()
    return trace, report


def replay(
    trace: TrafficTrace, description: Optional[Dict[str, Any]] = None,
) -> TrafficReport:
    """Run *trace*'s jobs through a fresh driver built from
    *description* — by default the trace header's recorded config."""
    if description is None:
        description = trace.meta["driver"]
    return OpenLoopDriver.from_description(description).run(trace.jobs)


class Verdict(NamedTuple):
    """What :func:`verify` found: the first replay and two checks."""

    report: TrafficReport
    #: the two replays produced identical fingerprints
    self_consistent: bool
    #: the replay matches the recorded fingerprint; ``None`` when the
    #: trace records none a replay of its jobs can be held to
    matched: Optional[bool]

    def require(self, where: Union[str, Path]) -> TrafficReport:
        """The report, or ``AssertionError`` naming the failed check."""
        if not self.self_consistent:
            raise AssertionError(
                f"{where}: replay diverged from itself — "
                "nondeterministic driver state leaked between runs"
            )
        if self.matched is False:
            raise AssertionError(
                f"{where}: replay diverged from the recorded "
                "fingerprint — the trace does not reproduce the run "
                "that wrote it"
            )
        return self.report


def verify(trace: TrafficTrace) -> Verdict:
    """Replay an already-loaded *trace* twice under its recorded
    config and compare.

    The recorded fingerprint is the sealed trailer's; a trace without
    one (v1, or an incident dump from before the trailer) falls back
    to the header's copy, but only when the trace is complete: a torn
    prefix may hold fewer jobs than the run that fingerprint describes,
    so it is held to self-consistency alone (``matched`` is ``None``).
    """
    first = replay(trace)
    fingerprint = first.fingerprint()
    recorded = trace.fingerprint
    if recorded is None and trace.complete:
        recorded = trace.meta.get("fingerprint")
    return Verdict(
        first,
        fingerprint == replay(trace).fingerprint(),
        None if recorded is None else fingerprint == recorded,
    )


def verify_replay(path: Union[str, Path]) -> TrafficReport:
    """Load *path* once, :func:`verify` it, and raise on divergence.

    Any trace verifies here: recorded, captured or an incident dump.
    When the header also carries the generator (``process`` and
    ``population``), the job stream is regenerated from it and must
    equal the recorded jobs — the trace is both a replay input and a
    cross-check on the generator.  Raises ``AssertionError`` on any
    divergence; returns the first replay's report.
    """
    trace = TrafficTrace.load(path)
    verdict = verify(trace)
    _metrics.counter("traffic.experiments_replayed").add(2)
    report = verdict.require(path)
    meta = trace.meta
    if "process" not in meta or "population" not in meta:
        return report
    process = process_from_description(meta["process"])
    population = UserPopulation.from_description(meta["population"])
    if meta.get("mode") == "stream":
        # captured from an unbounded stream: regenerate lazily and
        # compare the offered prefix
        stream = population.stream_jobs(
            process.stream(meta["arrival_seed"])
        )
        regenerated = list(itertools.islice(stream, len(trace.jobs)))
    else:
        regenerated = generate_jobs(
            process, population, meta.get("n_jobs") or len(trace.jobs),
            arrival_seed=meta["arrival_seed"],
        )
        horizon = meta["driver"].get("horizon")
        if meta.get("mode") == "batch" and horizon is not None:
            # a live batch capture records the *offered* jobs: the
            # session never offers arrivals past the horizon
            regenerated = [
                j for j in regenerated if j.arrival <= horizon
            ]
    if regenerated != trace.jobs:
        raise AssertionError(
            f"{path}: regenerated job stream differs from the recorded "
            "trace — generator determinism broken"
        )
    return report

