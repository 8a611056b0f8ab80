"""Event-driven GPU-cluster simulator.

Jobs request one GPU each (the topology-optimization jobs are
single-GPU solves); the simulator advances through arrival, completion,
and fault events, consulting the policy whenever GPUs free up or jobs
arrive.  Everything observable is accounted: per-job waits and
turnaround, cluster utilization and goodput, makespan, the queue-length
time series (the signal behind the throttling recommendation), and —
when a :class:`~repro.resilience.faults.FaultInjector` is bound —
failure/retry counts and the GPU-time destroyed by faults.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs import validate as _validate
from repro.util.state import (
    APPEND,
    COPY,
    NESTED,
    Field,
    Stateful,
    checkpoint_of,
    fields,
)


@dataclass(frozen=True)
class Job:
    """One job request."""

    job_id: int
    arrival: float
    service: float
    #: long-job class flag used by quota policies (set by workloads)
    is_long: bool = False
    #: importance class consulted by admission control (higher = more
    #: important; jobs below a controller's protected priority may be
    #: shed under pressure)
    priority: int = 0
    #: absolute completion deadline on the simulation clock; ``None``
    #: means best-effort (never shed for deadline reasons)
    deadline: Optional[float] = None
    #: owning tenant (campaign) name; ``None`` means the anonymous
    #: single-tenant regime — no per-tenant accounting, no fair-share
    #: arbitration (see :mod:`repro.tenant`)
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        # written so that NaN fails too (every comparison with NaN is
        # False); a NaN time would break the event heap's ordering
        if not (self.arrival >= 0) or not (self.service > 0):
            raise ValueError("bad job times")
        # NOTE: arrival may legitimately exceed deadline — a fault
        # retry re-queues the job at the kill time, possibly past its
        # deadline, where admission control (if any) sheds it
        if self.deadline is not None and not (self.deadline > 0):
            raise ValueError("deadline must be positive")


@dataclass
class SimResult:
    """Aggregated simulation metrics.

    ``completed`` counts jobs that finished their full service within
    the simulated window; under a ``horizon`` truncation, jobs still
    running when the clock stopped appear in ``in_flight`` (and in
    ``started``), not in ``completed``.  ``utilization`` is the
    fraction of GPU-time occupied within ``[0, makespan]`` — including
    work later destroyed by faults — while ``goodput`` counts only the
    service of jobs that completed.
    """

    makespan: float
    utilization: float
    mean_wait: float
    max_wait: float
    mean_turnaround: float
    #: jobs whose full service finished within the simulated window
    completed: int
    #: job attempts started (each retry of a killed job counts again)
    started: int = 0
    #: attempts still running when the simulation stopped
    in_flight: int = 0
    #: hard-fault events that killed a running job
    failures: int = 0
    #: killed attempts re-queued at the fault time (every one is)
    retries: int = 0
    #: killed jobs abandoned instead of re-queued — always 0, since
    #: every killed job is re-queued; kept because sealed traces, A/B
    #: reports and the CLI summary carry the key
    dropped: int = 0
    #: jobs refused at enqueue time by the admission controller
    shed: int = 0
    #: GPU-seconds of work destroyed by faults
    wasted_time: float = 0.0
    #: useful GPU-time fraction: completed service / (n_gpus * makespan)
    goodput: float = 0.0
    #: (time, queue length) samples at every event
    queue_series: List[Tuple[float, int]] = field(default_factory=list)
    #: per-attempt waits, in start order (basis of the percentiles)
    waits: List[float] = field(default_factory=list)
    #: per-attempt turnarounds (wait + service), in start order
    turnarounds: List[float] = field(default_factory=list)
    #: ``(time, job_id)`` per completion, in completion order — the
    #: replay-verification surface: two runs of the same event
    #: sequence must complete the same jobs in the same order
    completions: List[Tuple[float, int]] = field(default_factory=list)
    #: per-tenant accounting (populated only for jobs with a tenant
    #: tag; anonymous jobs cost nothing here) — waits/turnarounds per
    #: started attempt, completed job counts, completed service
    #: (the "delivered" quantity fairness indices are computed over),
    #: and shed counts
    tenant_waits: Dict[str, List[float]] = field(default_factory=dict)
    tenant_turnarounds: Dict[str, List[float]] = field(
        default_factory=dict
    )
    tenant_completed: Dict[str, int] = field(default_factory=dict)
    tenant_completed_service: Dict[str, float] = field(
        default_factory=dict
    )
    tenant_shed: Dict[str, int] = field(default_factory=dict)

    @property
    def peak_queue(self) -> int:
        return max((q for _, q in self.queue_series), default=0)

    @property
    def final_queue(self) -> int:
        return self.queue_series[-1][1] if self.queue_series else 0

    @property
    def completion_order(self) -> List[int]:
        return [job_id for _, job_id in self.completions]

    @property
    def shed_rate(self) -> float:
        """Shed jobs / resolved jobs (completed or shed)."""
        resolved = self.completed + self.dropped + self.shed
        return self.shed / resolved if resolved else 0.0

    def wait_percentile(self, q: float) -> float:
        """The *q*-th percentile wait (0 when nothing started)."""
        if not self.waits:
            return 0.0
        return float(np.percentile(self.waits, q))

    def turnaround_percentile(self, q: float) -> float:
        """The *q*-th percentile turnaround (0 when nothing started)."""
        if not self.turnarounds:
            return 0.0
        return float(np.percentile(self.turnarounds, q))

    @property
    def tenants(self) -> List[str]:
        """Every tenant that appeared in accounting, sorted."""
        names = (
            set(self.tenant_waits) | set(self.tenant_completed)
            | set(self.tenant_shed)
        )
        return sorted(names)

    def tenant_turnaround_percentile(self, name: str, q: float) -> float:
        """Per-tenant *q*-th percentile turnaround (0 if none started)."""
        values = self.tenant_turnarounds.get(name)
        if not values:
            return 0.0
        return float(np.percentile(values, q))

    def tenant_shed_rate(self, name: str) -> float:
        """Shed / (completed + shed) for one tenant (0 when idle)."""
        done = self.tenant_completed.get(name, 0)
        lost = self.tenant_shed.get(name, 0)
        total = done + lost
        return lost / total if total else 0.0


class _ReferenceQueue(Stateful):
    """List-backed queue driven by ``policy.select`` — the original
    engine, O(queue) work per event.  Handles arbitrary policies and
    sanitizes their indices (out-of-range / duplicates ignored)."""

    # Jobs are frozen dataclasses, so shallow container copies are
    # full snapshots — the durable layer pickles these states across
    # process boundaries.
    _STATE = (Field("items", COPY),)

    def __init__(self, policy):
        self.policy = policy
        self.items: List[Job] = []

    def push(self, job: Job) -> None:
        self.items.append(job)

    def __len__(self) -> int:
        return len(self.items)

    def select_starts(self, n_free: int, running: List[Tuple]) -> List[Job]:
        running_jobs = [job for _, _, job, _ in running]
        picks = self.policy.select(self.items, n_free, running_jobs)
        picks = [
            i for i in sorted(set(picks), reverse=True)
            if 0 <= i < len(self.items)
        ]
        return [self.items.pop(idx) for idx in picks[:n_free]]


_SEQ = itemgetter(1)


class KeyedFastQueue(Stateful):
    """Heap-ordered queue for policies whose selection is a total
    order over queued jobs (FCFS, SJF): O(log queue) per start
    instead of a full sort per event.

    Selected jobs are emitted in descending insertion order — exactly
    the order the reference engine pops its list indices — so fast and
    reference runs are bit-identical, including fault victimization,
    which depends on the running-heap layout.
    """

    _STATE = (Field("heap", COPY), Field("seq"))

    def __init__(self, key: Callable[[Job], Tuple]):
        self.key = key
        self.heap: List[Tuple] = []
        self.seq = 0

    def push(self, job: Job) -> None:
        heapq.heappush(self.heap, (self.key(job), self.seq, job))
        self.seq += 1

    def __len__(self) -> int:
        return len(self.heap)

    def select_starts(self, n_free: int, running: List[Tuple]) -> List[Job]:
        # a total order needs no view of the running jobs
        heap = self.heap
        k = min(n_free, len(heap))
        if k == 1:  # one GPU freed: the common case under load
            return [heapq.heappop(heap)[2]]
        picked = [heapq.heappop(heap) for _ in range(k)]
        picked.sort(key=_SEQ, reverse=True)
        return [job for _, _, job in picked]


class QuotaFastQueue(Stateful):
    """Two lazy-deletion heaps implementing SJF-with-long-quota: long
    jobs ordered by arrival (the quota pulls the *oldest* long job),
    everything ordered by service (the SJF fill).  A long job lives in
    both heaps; the tombstone set lets whichever heap pops it first
    invalidate the other copy."""

    _STATE = (
        *fields("by_service", "long_by_arrival", "dead", kind=COPY),
        *fields("seq", "n"),
    )

    def __init__(self, n_gpus: int, long_quota: float):
        self.n_gpus = n_gpus
        self.long_quota = long_quota
        self.by_service: List[Tuple] = []
        self.long_by_arrival: List[Tuple] = []
        self.dead: Set[int] = set()
        self.seq = 0
        self.n = 0

    def push(self, job: Job) -> None:
        seq = self.seq
        self.seq += 1
        heapq.heappush(self.by_service, (job.service, job.job_id, seq, job))
        if job.is_long:
            heapq.heappush(
                self.long_by_arrival, (job.arrival, job.job_id, seq, job)
            )
        self.n += 1

    def __len__(self) -> int:
        return self.n

    def _pop(self, heap: List[Tuple]) -> Optional[Tuple[int, Job]]:
        while heap:
            _, _, seq, job = heapq.heappop(heap)
            if seq in self.dead:
                self.dead.discard(seq)
                continue
            if job.is_long:  # invalidate the copy in the other heap
                self.dead.add(seq)
            self.n -= 1
            return seq, job
        return None

    def select_starts(self, n_free: int, running: List[Tuple]) -> List[Job]:
        reserved = int(self.long_quota * self.n_gpus)
        long_running = sum(1 for _, _, job, _ in running if job.is_long)
        picked: List[Tuple[int, Job]] = []
        picked_long = 0
        # honor the quota first (oldest long jobs)
        while (
            long_running + picked_long < reserved and len(picked) < n_free
        ):
            item = self._pop(self.long_by_arrival)
            if item is None:
                break
            picked.append(item)
            picked_long += 1
        # fill the rest by SJF
        while len(picked) < n_free:
            item = self._pop(self.by_service)
            if item is None:
                break
            picked.append(item)
        picked.sort(key=lambda t: -t[0])
        return [job for _, job in picked]


def _build_queue(policy, engine: str, n_gpus: int):
    """Resolve *engine* ("auto"/"fast"/"reference") to a queue object."""
    if engine not in ("auto", "fast", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    factory = getattr(policy, "fast_queue", None)
    if engine == "reference" or (engine == "auto" and factory is None):
        return _ReferenceQueue(policy)
    if factory is None:
        raise ValueError(
            f"policy {type(policy).__name__} has no fast queue; "
            "use engine='reference'"
        )
    return factory(n_gpus)


class _StreamSource:
    """One-job lookahead over a lazily generated arrival stream.

    Presents exactly the interface the event loop needs — the next
    arrival time (``peek_time``) and the next job (``pop``) — while
    pulling from a generator that may be unbounded.  The horizon is
    the cut: the first job whose arrival exceeds it marks the source
    exhausted *without being offered*, which is precisely how a
    materialized job list truncated at the horizon behaves (jobs with
    ``arrival <= horizon`` offered, the strict ``t_next > horizon``
    stop untouched).  That equivalence — streamed session ≡
    materialized session on the truncated list — is gated by test.

    Arrivals must be nondecreasing (generated streams are; a shuffled
    source would need materializing and sorting anyway).
    """

    __slots__ = ("horizon", "exhausted", "_it", "_next", "_last_t")

    def __init__(self, it, horizon: float):
        self._it = iter(it)
        self.horizon = horizon
        self.exhausted = False
        self._next: Optional[Job] = None
        self._last_t = float("-inf")
        self._advance()

    def _advance(self) -> None:
        try:
            job = next(self._it)
        except StopIteration:
            self._next, self._it, self.exhausted = None, None, True
            return
        if job.arrival < self._last_t:
            raise ValueError(
                "stream arrivals must be nondecreasing "
                f"({job.arrival} after {self._last_t})"
            )
        self._last_t = job.arrival
        if job.arrival > self.horizon:
            self._next, self._it, self.exhausted = None, None, True
        else:
            self._next = job

    def peek_time(self) -> float:
        return self._next.arrival if self._next is not None else float("inf")

    def pop(self) -> Job:
        job = self._next
        self._advance()
        return job


class SimulatorSession(Stateful):
    """The scheduler's event loop, resumable and checkpointable.

    :meth:`advance` is the one event loop every schedule runs through
    — :meth:`ClusterSimulator.run`, the traffic driver, capture, A/B
    replay, incident recording and every MuMMI cycle.  Between calls
    the session can snapshot its **entire** live state — event heaps,
    queue contents, the run record, the fault injector's RNG, and the
    admission controller's breaker — and restore it later, in this
    process or another one.  A run cut anywhere (``advance(k)``,
    checkpoint, restore into a fresh session, ``advance()``) finishes
    bit-identically to the uninterrupted run; ``tests/test_durable.py``
    holds that property.  The reference twin lives one level down, at
    the queue: ``engine="reference"`` drives the same loop through
    ``policy.select`` instead of a heap-backed queue.

    The session satisfies the stepper protocol of
    :class:`~repro.resilience.ResilientDriver` and
    :class:`~repro.durable.ResumableCampaign` (``step`` / ``done`` /
    ``progress`` / ``checkpoint_state`` / ``restore_state``), which
    is what lets a SIGKILLed scheduler run resume from its journaled
    event-heap state mid-schedule.  Restoring requires a session
    constructed with the same jobs, policy, and engine as the one
    that checkpointed.

    A fault-killed job is re-queued at the fault time, every time:
    there is no retry cap, so a job whose service outlasts the
    injector's mean time between faults may never resolve.
    ``horizon=`` is the one bound on such a run.

    Two capture-mode extensions (both default-off, with zero effect
    on the materialized path): ``stream=`` feeds the session from a
    lazy job generator bounded by the horizon instead of a
    materialized list (see :class:`_StreamSource`; such sessions are
    not checkpointable — the generator state cannot be snapshotted),
    and ``tap=`` attaches an observer whose ``on_job(job)`` is called
    once per offered job and ``on_decision(kind, t, job_id)`` on
    sheds, completions, and faults — the hook live trace capture
    hangs off.
    """

    def __init__(
        self,
        n_gpus: int,
        jobs: Optional[Sequence[Job]],
        policy=None,
        horizon: Optional[float] = None,
        fault_injector=None,
        engine: str = "auto",
        admission=None,
        queue=None,
        stream=None,
        tap=None,
    ):
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        if stream is not None:
            if jobs is not None:
                raise ValueError("pass jobs or stream, not both")
            if horizon is None:
                raise ValueError(
                    "streamed sessions need a horizon (the stream "
                    "may be unbounded)"
                )
        else:
            jobs = list(jobs)  # accept any iterable (arrival streams)
            if not jobs:
                raise ValueError("no jobs to schedule")
        if queue is None:
            if policy is None:
                raise ValueError("pass a policy (or a prebuilt queue)")
            queue = _build_queue(policy, engine, n_gpus)
        self.n_gpus = n_gpus
        self.horizon = horizon
        self.fault_injector = fault_injector
        self.admission = admission
        self.queue = queue
        self.tap = tap
        # --- live event-loop state (the checkpointed part) ----------
        if stream is not None:
            self.jobs = None
            self._stream = _StreamSource(stream, horizon)
            self.n = 0  # grows as the stream offers jobs
            self.arrivals = []
        else:
            self.jobs = sorted(jobs, key=lambda j: (j.arrival, j.job_id))
            self._stream = None
            self.n = len(self.jobs)
            self.arrivals = [(j.arrival, j.job_id, j) for j in self.jobs]
        self.next_arrival = 0
        #: re-queued attempts of killed jobs: (ready_time, seq, job)
        self.requeues: List[Tuple[float, int, Job]] = []
        self.requeue_seq = 0
        #: (finish_time, job_id, job, start_time)
        self.running: List[Tuple[float, int, Job, float]] = []
        #: the run record, one ``(t, job)`` per event of its kind in
        #: event order: every started attempt, every completion, every
        #: shed.  :meth:`result` derives the per-job metrics from them.
        self.starts: List[Tuple[float, Job]] = []
        self.finishes: List[Tuple[float, Job]] = []
        self.sheds: List[Tuple[float, Job]] = []
        self.busy_time = 0.0  # occupied GPU-time, incl. work later wasted
        self.wasted_time = 0.0
        self.t = 0.0
        self.queue_series: List[Tuple[float, int]] = []
        self.failures = 0
        self.retries = 0
        self.events = 0
        self.next_fault = (
            fault_injector.next_fault_after(0.0)
            if fault_injector is not None else float("inf")
        )
        self._finished = False
        self._metrics_emitted = False

    # -- stepper protocol ----------------------------------------------

    @property
    def progress(self) -> int:
        """Events processed (the unit a durable driver journals)."""
        return self.events

    @property
    def done(self) -> bool:
        if self._stream is not None and not self._stream.exhausted:
            # more offered work may still arrive inside the horizon
            return self._finished
        return (
            self._finished
            or self.completed + self.shed >= self.n
        )

    @property
    def started(self) -> int:
        """Attempts started so far (a retried job counts again)."""
        return len(self.starts)

    @property
    def completed(self) -> int:
        """Jobs completed so far."""
        return len(self.finishes)

    @property
    def shed(self) -> int:
        """Jobs the admission controller refused so far."""
        return len(self.sheds)

    def advance(self, max_events: Optional[int] = None) -> int:
        """Process up to *max_events* events (all of them when
        ``None``); return how many were processed.

        The scheduler's only event loop.  Each event is an
        arrival/re-queue batch, a completion, or a fault; at equal
        times a completion beats a fault, and a fault beats an
        arrival or re-queue.  The loop ends when every job is
        resolved (completed or shed), when the next event
        lies past the horizon (the clock stops *at* the horizon), or
        when only faults remain — the policy is refusing to start the
        leftover queue.  ``events`` counts the iteration that ends
        the loop; a resolved session counts nothing more.

        Per job, the loop only appends to the run record
        (``starts``, ``finishes``, ``sheds``); :meth:`result` derives
        the metrics.  The queue's bound methods, the heaps and record
        lists, the tap hooks and the admission and injector methods
        are hoisted into locals once per call, and the scalar
        state is written back in a ``finally``: a budget stop or an
        exception leaves the session as checkpointable as it would be
        after the same events processed one :meth:`step` at a time.
        """
        if self._finished:
            return 0
        heappush, heappop = heapq.heappush, heapq.heappop
        inf = float("inf")
        # -1 never equals the processed count: no budget
        budget = -1 if max_events is None else max_events
        n_gpus = self.n_gpus
        stop = inf if self.horizon is None else self.horizon
        queue = self.queue
        push, select_starts = queue.push, queue.select_starts
        running, requeues = self.running, self.requeues
        stream, arrivals = self._stream, self.arrivals
        n_arrivals = len(arrivals)
        starts, finishes = self.starts.append, self.finishes.append
        sheds = self.sheds.append
        queue_series = self.queue_series.append
        tap = self.tap
        on_job = None if tap is None else getattr(tap, "on_job", None)
        on_decision = None if tap is None else \
            getattr(tap, "on_decision", None)
        admission = self.admission
        if admission is None:
            admit = record_success = record_failure = None
        else:
            admit = admission.admit
            record_success = admission.record_success
            record_failure = admission.record_failure
        injector = self.fault_injector
        if injector is None:
            next_fault_after = pick_victim = None
            next_fault = inf
        else:
            next_fault_after = injector.next_fault_after
            pick_victim = injector.pick_victim
            next_fault = self.next_fault
        # every push adds one job and select_starts removes the jobs it
        # returns, so the loop counts the queue instead of asking it
        queued = len(queue)
        n, t, events = self.n, self.t, self.events
        next_arrival, requeue_seq = self.next_arrival, self.requeue_seq
        busy_time, wasted_time = self.busy_time, self.wasted_time
        failures, retries = self.failures, self.retries
        # lengths of the finish and shed records, for the resolved check
        completed, shed = self.completed, self.shed
        finished = False
        processed = 0
        try:
            while processed != budget:
                if completed + shed >= n and (
                    stream is None or stream.exhausted
                ):
                    finished = True
                    break
                events += 1
                if stream is None:
                    t_arr = (
                        arrivals[next_arrival][0]
                        if next_arrival < n_arrivals else inf
                    )
                else:
                    t_arr = stream.peek_time()
                t_work = requeues[0][0] if requeues else inf
                if t_arr < t_work:
                    t_work = t_arr
                t_fin = running[0][0] if running else inf
                if t_fin < t_work:
                    t_work = t_fin
                if t_work == inf:
                    # only fault events (or nothing) remain: the policy
                    # is refusing to start the leftover queue
                    finished = True
                    break
                t_next = t_work if t_work <= next_fault else next_fault
                if t_next > stop:
                    t = stop
                    finished = True
                    break
                t = t_next
                if t_fin <= t:
                    finish, job_id, job, start = heappop(running)
                    completed += 1
                    finishes((t, job))
                    if on_decision is not None:
                        on_decision("complete", t, job_id)
                    busy_time += finish - start
                    if record_success is not None:
                        record_success(t, job)
                elif next_fault <= t:
                    next_fault = next_fault_after(t)
                    if running:
                        victim = pick_victim(len(running))
                        _, job_id, job, start = running.pop(victim)
                        heapq.heapify(running)
                        failures += 1
                        if on_decision is not None:
                            on_decision("fault", t, job_id)
                        lost = t - start
                        busy_time += lost
                        wasted_time += lost
                        if record_failure is not None:
                            record_failure(t, job)
                        # re-admitted in a later event at this time,
                        # after this time's first arrivals
                        retries += 1
                        requeue_seq += 1
                        heappush(requeues, (
                            t, requeue_seq, replace(job, arrival=t),
                        ))
                else:
                    # first arrivals, then re-queues, each through
                    # admission; a shed job never reaches the queue
                    if stream is None:
                        while (
                            next_arrival < n_arrivals
                            and arrivals[next_arrival][0] <= t
                        ):
                            job = arrivals[next_arrival][2]
                            if on_job is not None:
                                on_job(job)
                            if admit is None or admit(
                                job, t, queued, len(running), n_gpus
                            ):
                                push(job)
                                queued += 1
                            else:
                                shed += 1
                                sheds((t, job))
                                if on_decision is not None:
                                    on_decision("shed", t, job.job_id)
                            next_arrival += 1
                    else:
                        while stream.peek_time() <= t:
                            job = stream.pop()
                            n += 1
                            if on_job is not None:
                                on_job(job)
                            if admit is None or admit(
                                job, t, queued, len(running), n_gpus
                            ):
                                push(job)
                                queued += 1
                            else:
                                shed += 1
                                sheds((t, job))
                                if on_decision is not None:
                                    on_decision("shed", t, job.job_id)
                    while requeues and requeues[0][0] <= t:
                        job = heappop(requeues)[2]
                        if admit is None or admit(
                            job, t, queued, len(running), n_gpus
                        ):
                            push(job)
                            queued += 1
                        else:
                            shed += 1
                            sheds((t, job))
                            if on_decision is not None:
                                on_decision("shed", t, job.job_id)
                # start whatever the policy picks on the free GPUs
                while queued and len(running) < n_gpus:
                    batch = select_starts(n_gpus - len(running), running)
                    if not batch:
                        break
                    queued -= len(batch)
                    for job in batch:
                        starts((t, job))
                        heappush(
                            running, (t + job.service, job.job_id, job, t)
                        )
                queue_series((t, queued))
                processed += 1
        finally:
            self.n, self.t, self.events = n, t, events
            self.next_arrival, self.requeue_seq = next_arrival, requeue_seq
            self.busy_time, self.wasted_time = busy_time, wasted_time
            self.failures, self.retries = failures, retries
            if injector is not None:
                self.next_fault = next_fault
            if finished:
                self._finished = True
        return processed

    def step(self) -> bool:
        """Process one event (``advance(1)``); False once the schedule
        is resolved."""
        return self.advance(1) == 1

    def run_to_completion(self) -> SimResult:
        """Drive every remaining event, then return :meth:`result`."""
        self.advance()
        return self.result()

    def result(self) -> SimResult:
        """The :class:`SimResult` for the work processed so far.

        Every per-job metric is derived here from the run record, one
        pass per record list in event order, so each float sum adds
        its terms in the order the events happened and a resumed run
        derives the same bits as the uninterrupted one.
        """
        waits: List[float] = []
        turnarounds: List[float] = []
        tenant_waits: Dict[str, List[float]] = {}
        tenant_turnarounds: Dict[str, List[float]] = {}
        for t, job in self.starts:
            wait = t - job.arrival
            turnaround = wait + job.service
            waits.append(wait)
            turnarounds.append(turnaround)
            if job.tenant is not None:
                tenant_waits.setdefault(job.tenant, []).append(wait)
                tenant_turnarounds.setdefault(job.tenant, []).append(
                    turnaround
                )
        completions: List[Tuple[float, int]] = []
        useful_time = 0.0  # service of completed jobs only
        tenant_completed: Dict[str, int] = {}
        tenant_completed_service: Dict[str, float] = {}
        for t, job in self.finishes:
            completions.append((t, job.job_id))
            useful_time += job.service
            tenant = job.tenant
            if tenant is not None:
                tenant_completed[tenant] = tenant_completed.get(tenant, 0) + 1
                tenant_completed_service[tenant] = (
                    tenant_completed_service.get(tenant, 0.0) + job.service
                )
        tenant_shed: Dict[str, int] = {}
        for _, job in self.sheds:
            if job.tenant is not None:
                tenant_shed[job.tenant] = tenant_shed.get(job.tenant, 0) + 1
        makespan = self.t
        busy = self.busy_time
        for finish, _, job, start in self.running:
            busy += max(0.0, min(finish, makespan) - start)
        capacity = self.n_gpus * makespan
        util = busy / capacity if makespan > 0 else 0.0
        goodput = useful_time / capacity if makespan > 0 else 0.0
        if self.done and not self._metrics_emitted:
            self._metrics_emitted = True
            _metrics.counter("sched.runs").add()
            _metrics.counter("sched.events_processed").add(self.events)
            _metrics.counter("sched.jobs_started").add(self.started)
            _metrics.counter("sched.jobs_completed").add(self.completed)
            if self.failures:
                _metrics.counter("sched.faults_injected").add(self.failures)
            if self.shed:
                _metrics.counter("sched.jobs_shed").add(self.shed)
        return SimResult(
            makespan=makespan,
            utilization=min(util, 1.0),
            mean_wait=float(np.mean(waits)) if waits else 0.0,
            max_wait=float(np.max(waits)) if waits else 0.0,
            mean_turnaround=(
                float(np.mean(turnarounds)) if turnarounds else 0.0
            ),
            completed=self.completed,
            started=self.started,
            in_flight=len(self.running),
            failures=self.failures,
            retries=self.retries,
            shed=self.shed,
            wasted_time=self.wasted_time,
            goodput=min(goodput, 1.0),
            queue_series=list(self.queue_series),
            waits=waits,
            turnarounds=turnarounds,
            completions=completions,
            tenant_waits=tenant_waits,
            tenant_turnarounds=tenant_turnarounds,
            tenant_completed=tenant_completed,
            tenant_completed_service=tenant_completed_service,
            tenant_shed=tenant_shed,
        )

    # -- checkpoint protocol -------------------------------------------

    #: everything the event loop reads, named once: heaps, clocks and
    #: the run record as shallow copies (Jobs are frozen dataclasses,
    #: so a copied container is a full snapshot, and the whole dict
    #: pickles for the durable layer), then the queue, injector and
    #: admission checkpoints.  The run record and the queue series
    #: only grow, so a journal record carries what the events added.
    _STATE = (
        *fields(
            "t", "events", "next_arrival", "requeues", "requeue_seq",
            "running", kind=COPY,
        ),
        *fields("starts", "finishes", "sheds", "queue_series",
                kind=APPEND),
        *fields(
            "busy_time", "wasted_time", "failures", "retries",
            "next_fault", "_finished", kind=COPY,
        ),
        Field("queue", NESTED),
        Field("injector", NESTED, "fault_injector"),
        Field("admission", NESTED),
    )

    def checkpoint_state(self) -> Dict:
        self._refuse_streamed()
        return super().checkpoint_state()

    def checkpoint_tails(self, lengths: Dict[str, int]) -> Dict:
        self._refuse_streamed()
        return super().checkpoint_tails(lengths)

    def _refuse_streamed(self) -> None:
        if self._stream is not None:
            raise RuntimeError(
                "streamed sessions are not checkpointable — the "
                "generator's state cannot be snapshotted; capture the "
                "stream to a trace and resume from the materialized jobs"
            )


class ClusterSimulator:
    """Simulate *jobs* on ``n_gpus`` GPUs under *policy*.

    The policy object must implement
    ``select(queue, n_free, running) -> list of queue indices`` —
    which queued jobs to start now.  Out-of-range and duplicate
    indices are ignored (a buggy policy cannot corrupt the event
    state, it can only schedule suboptimally).

    Policies may additionally expose ``fast_queue(n_gpus)`` returning
    a heap-backed queue (:class:`KeyedFastQueue` /
    :class:`QuotaFastQueue`); the ``engine="auto"`` default then skips
    ``select`` entirely and runs the O(events·log queue) fast path,
    which produces bit-identical results to the reference engine.
    """

    def __init__(self, n_gpus: int):
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        self.n_gpus = n_gpus

    def run(
        self,
        jobs: Sequence[Job],
        policy,
        horizon: Optional[float] = None,
        fault_injector=None,
        engine: str = "auto",
        admission=None,
    ) -> SimResult:
        """Run the event loop until every job is resolved.

        With a *fault_injector*, hard faults arrive as a Poisson
        process (the injector's MTBF); each fault kills one running
        job, whose work so far is wasted, and re-queues it at the fault
        time.  A job is *resolved* when it completes or is shed by the
        admission controller.  There is no retry cap: a job whose
        service outlasts the fault rate may never complete, and
        *horizon* is the one bound on such a run.

        *admission* (a
        :class:`repro.guard.deadline.AdmissionController` or anything
        with the same ``admit``/``record_failure``/``record_success``
        surface, called positionally) is consulted at every enqueue —
        first arrivals and post-fault re-queues alike — and may shed
        jobs whose deadline is unmeetable or whose priority is
        unprotected under pressure; shed jobs count in
        ``SimResult.shed``.  Fault kills and completions feed its
        breaker.

        ``engine`` selects the queue implementation: ``"reference"``
        (policy.select over a list), ``"fast"`` (heap-backed, requires
        the policy to provide ``fast_queue``), or ``"auto"`` — fast
        when available, reference otherwise.

        With ``REPRO_OBS_VALIDATE`` set and a fast queue in play, the
        run is validated: the same loop replays the same jobs on the
        reference queue (and, via checkpoint/restore, the same fault
        schedule and admission state) and the two
        :class:`SimResult`\\ s must be bit-identical — the
        fast-engine contract, enforced at runtime.
        """
        jobs = list(jobs)  # accept any iterable (arrival streams)
        if not jobs:
            raise ValueError("no jobs to schedule")
        queue = _build_queue(policy, engine, self.n_gpus)
        is_fast = not isinstance(queue, _ReferenceQueue)
        validate = is_fast and _validate.validation_enabled()

        def drive(queue) -> SimResult:
            return SimulatorSession(
                self.n_gpus, jobs, horizon=horizon,
                fault_injector=fault_injector, admission=admission,
                queue=queue,
            ).run_to_completion()

        # the reference replay rewinds these to where the fast run
        # began (the injector draws its first fault time when the
        # session is built), then leaves them where the fast run ended
        loop_inputs = (fault_injector, admission)
        pre = [checkpoint_of(x) for x in loop_inputs] if validate else None
        with _trace.span("sched.run", jobs=len(jobs), gpus=self.n_gpus,
                         engine="fast" if is_fast else "reference"):
            fast = drive(queue)
            if validate:
                post = [checkpoint_of(x) for x in loop_inputs]
                _rewind(loop_inputs, pre)
                ref = drive(_ReferenceQueue(policy))
                _rewind(loop_inputs, post)
                _validate.check(
                    "sched.engine", fast == ref,
                    f"fast {fast.makespan=} {fast.completed=} vs "
                    f"reference {ref.makespan=} {ref.completed=}",
                )
            return fast


def _rewind(owners, states) -> None:
    for owner, state in zip(owners, states):
        if state is not None:
            owner.restore_state(state)
