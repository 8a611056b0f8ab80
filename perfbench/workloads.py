"""The benchmark's three workloads: one op = one experiment, public APIs only.

Every op is driven by its own seed and returns plain outputs; ``check``
runs after the op's clock stops and decides whether the op passed.  An
op passes only when its outputs are correct *and* the mechanism the
workload exists to exercise actually fired, so a workload that stops
reaching its layer fails loudly instead of looking faster.

Sizes keep one op near 0.1-0.2 s on a 2-vCPU host, so a 20 s run holds
the ~100 ops ``op_p90`` needs, and the mechanism margins were checked
over a few hundred seeds (fewest sheds / faults seen, far from zero).
"""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro.durable import DurableStore, ResumableCampaign, state_mismatches
from repro.guard.deadline import AdmissionController, CircuitBreaker
from repro.resilience import FaultInjector
from repro.tenant import multitenant_pileup, record_incident, verify_incident
from repro.traffic import (
    ABVariant,
    AdmissionSpec,
    ChaosSpec,
    OpenLoopDriver,
    PoissonArrivals,
    UserPopulation,
    ab_replay,
    capture_experiment,
)
from repro.workflow import MummiCampaign

#: counters whose deltas over the timed ops must repeat exactly for a seed
EXACT_COUNTERS = (
    "sched.events_processed",
    "sched.jobs_shed",
    "sched.faults_injected",
    "guard.shed",
    "durable.journal_records",
    "traffic.capture_jobs",
    "tenant.incidents_dumped",
)


@dataclass
class Outcome:
    """What ``check`` concluded about one op."""

    #: offered jobs of the op's input, counted once per op
    jobs: int
    #: hash of the op's replay fingerprint or recovered state
    digest: str
    problems: List[str] = field(default_factory=list)


def fingerprint_digest(fingerprint: Dict[str, Any]) -> str:
    blob = json.dumps(fingerprint, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class CaptureAB:
    """Live capture of an open-loop run, then an A/B replay of the trace."""

    name = "capture_ab"
    N_GPUS = 8
    N_JOBS = 600
    N_USERS = 50_000
    MEAN_SERVICE = 10.0
    LOAD = 0.9

    def __init__(self, scratch: Path):
        self.path = scratch / "capture.trace"
        self.process = PoissonArrivals(
            rate=self.LOAD * self.N_GPUS / self.MEAN_SERVICE
        )
        # tight deadlines make backlog sheds certain on every seed; an
        # MTBF of 60 puts ~15 faults into each run
        self.admission = AdmissionSpec(
            max_queue=2 * self.N_GPUS, protect_priority=2,
            breaker_failure_threshold=2, breaker_recovery_time=40.0,
        )
        self.variants = [
            ABVariant("sjf", {"policy": "sjf"}),
            ABVariant("half_gpus", {"n_gpus": self.N_GPUS // 2}),
        ]

    def reset(self) -> None:
        pass  # the capture overwrites its trace file

    def op(self, seed: int):
        population = UserPopulation(
            n_users=self.N_USERS, seed=seed, mean_service=self.MEAN_SERVICE,
            best_effort_fraction=0.3, deadline_slack=(1.1, 2.0),
        )
        # arrivals span ~830 +- 35 time units; the horizon stops a long
        # job that faults on every attempt from retrying without end
        driver = OpenLoopDriver(
            n_gpus=self.N_GPUS, policy="fcfs", admission=self.admission,
            chaos=ChaosSpec(mtbf=60.0, seed=seed), horizon=1200.0,
        )
        trace, report = capture_experiment(
            self.path, self.process, population, driver,
            n_jobs=self.N_JOBS, arrival_seed=seed,
        )
        ab = ab_replay(self.path, self.variants, backend="serial")
        return trace, report, ab

    def check(self, out) -> Outcome:
        trace, report, ab = out
        fingerprint = report.fingerprint()
        problems = []
        if not trace.complete or len(trace.jobs) != self.N_JOBS \
                or trace.fingerprint != fingerprint:
            problems.append("captured trace is incomplete or unsealed")
        if ab.fingerprint_matched is not True:
            problems.append("replay does not match the sealed fingerprint")
        if ab.diverged:
            problems.append("same-config replays diverged")
        if report.result.shed == 0:
            problems.append("admission shed nothing")
        if report.result.failures == 0:
            problems.append("chaos injected no fault")
        return Outcome(len(trace.jobs), fingerprint_digest(fingerprint),
                       problems)


class TenantIncident:
    """Noisy-neighbour pile-up recorded as a forced incident, then verified."""

    name = "tenant_incident"
    N_GPUS = 8
    JOBS_PER_TENANT = 80

    def __init__(self, scratch: Path):
        self.path = scratch / "incident.trace"

    def reset(self) -> None:
        pass  # the dump overwrites its trace file

    def op(self, seed: int):
        # a 10-unit arbiter window reacts within the noisy tenant's
        # 80-job burst, so it is clipped on every seed
        bundle = multitenant_pileup(
            n_gpus=self.N_GPUS, n_compliant=3, noisy_factor=4.0,
            n_jobs_per_tenant=self.JOBS_PER_TENANT, seed=seed, window=10.0,
        )
        driver = OpenLoopDriver(n_gpus=self.N_GPUS, tenancy=bundle.tenancy)
        trace, report = record_incident(self.path, bundle.jobs, driver,
                                        reason="benchmark")
        replay = verify_incident(self.path)
        return bundle, trace, report, replay

    def check(self, out) -> Outcome:
        bundle, trace, report, replay = out
        fingerprint = report.fingerprint()
        problems = []
        if trace is None or len(trace.jobs) != len(bundle.jobs):
            problems.append("no complete incident dump")
        if replay.fingerprint() != fingerprint:
            problems.append("incident replay differs from the recorded run")
        if report.result.tenant_shed.get(bundle.noisy, 0) == 0:
            problems.append("noisy tenant was never shed")
        return Outcome(len(bundle.jobs), fingerprint_digest(fingerprint),
                       problems)


class MummiDurable:
    """A journaled MuMMI campaign segment, then recovery from the store."""

    name = "mummi_durable"
    N_GPUS = 8
    JOBS_PER_CYCLE = 24
    CYCLES = 40

    def __init__(self, scratch: Path):
        self.root = scratch / "store"

    def reset(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def _campaign(self, seed: int) -> MummiCampaign:
        # MTBF 300 and a 190 s cycle budget make faults, retries,
        # deadline sheds and breaker-driven surrogate cycles all fire
        return MummiCampaign(
            n_gpus=self.N_GPUS, jobs_per_cycle=self.JOBS_PER_CYCLE,
            seed=seed, backend="serial",
            fault_injector=FaultInjector(mtbf=300.0, seed=seed),
            cycle_budget=190.0,
            breaker=CircuitBreaker(failure_threshold=2, recovery_time=3.0,
                                   name="mummi"),
            admission=AdmissionController(),
        )

    def op(self, seed: int):
        campaign = self._campaign(seed)
        with DurableStore(self.root, sync=False) as store:
            ResumableCampaign(campaign, store, cadence=10).run(
                n_steps=self.CYCLES
            )
        with DurableStore(self.root, sync=False) as store:
            resumed = ResumableCampaign(self._campaign(seed), store)
            step = resumed.recover()
        return campaign, step, resumed.stepper

    def check(self, out) -> Outcome:
        campaign, step, recovered = out
        state = recovered.checkpoint_state()
        problems = []
        if step != self.CYCLES:
            problems.append(f"recovered step {step}, expected {self.CYCLES}")
        mismatches = state_mismatches(state, campaign.checkpoint_state())
        if mismatches:
            problems.append(f"recovered state differs at {mismatches[:3]}")
        if campaign.failures == 0 or campaign.job_retries == 0:
            problems.append("no fault or retry fired")
        launched = campaign.rungs_served.count("micro-md") \
            * self.JOBS_PER_CYCLE
        digest = hashlib.sha256(
            pickle.dumps(state, protocol=4)
        ).hexdigest()
        return Outcome(launched, digest, problems)


WORKLOADS = {w.name: w for w in (CaptureAB, TenantIncident, MummiDurable)}
