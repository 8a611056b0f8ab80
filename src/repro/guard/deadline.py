"""Circuit breaking and deadline-aware admission control.

The complement of the sentinels: under deadline pressure a campaign
should *shed* its least valuable work, not collapse.  Two pieces, both
on whatever clock the caller runs (simulated seconds for the
scheduler, cycle counts for the MuMMI campaign):

- :class:`CircuitBreaker` — the classic closed/open/half-open state
  machine over a sliding failure count.  Consumers that will report
  back call :meth:`try_acquire_probe` before expensive work and
  :meth:`record_success`/:meth:`record_failure` after; an open
  breaker routes callers to their degraded rung (lower-fidelity
  surrogate, shed) until ``recovery_time`` has passed, then admits one
  probe request (half-open).  Pure queries — admission checks,
  dashboards — use the side-effect-free :meth:`peek`, which can never
  claim (and strand) the probe.
- :class:`AdmissionController` — a shed-or-admit decision per job at
  enqueue time: jobs that can no longer meet their deadline, or that
  arrive below the protected priority while the queue is saturated or
  the breaker is open, are shed.  Decisions are deterministic given
  the same event sequence, so chaos runs replay bit-for-bit.

Everything is checkpointable (the scheduler's validated fast/reference
twin-run snapshots controller state the same way it snapshots the
fault injector), and every shed/trip lands in ``guard.*`` counters.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.util.state import DEQUE, NESTED, Field, Stateful, fields


class CircuitBreaker(Stateful):
    """Closed / open / half-open breaker over consecutive failures.

    State machine:

    - **closed** — requests flow; ``failure_threshold`` consecutive
      failures trip the breaker open.
    - **open** — requests are refused (callers degrade) until
      ``recovery_time`` clock units after the trip.
    - **half-open** — one probe request is admitted; success closes
      the breaker, failure re-opens it.

    The checkpoint is the state machine's four fields; it is the
    ``breaker_state`` a traffic run seals into its fingerprint.
    """

    _STATE = fields("state", "consecutive_failures", "opened_at", "trips")

    def __init__(self, failure_threshold: int = 3,
                 recovery_time: float = 1.0, name: str = "breaker"):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_time <= 0:
            raise ValueError("recovery_time must be positive")
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.name = name
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.trips = 0

    def peek(self, now: float) -> bool:
        """Side-effect-free query: is full-fidelity work flowing?

        True only in the closed state.  An open breaker — even one
        whose ``recovery_time`` has elapsed — still answers False: the
        half-open probe slot is reserved for callers that will report
        back via :meth:`record_success`/:meth:`record_failure`, and a
        query must never consume it (the pre-split
        ``AdmissionController.admit`` did exactly that, stranding the
        breaker half-open with the probe handed to a shed check that
        reports nothing).  Pure: calling ``peek`` any number of times
        leaves :meth:`checkpoint_state` bit-identical.
        """
        del now  # kept for signature symmetry with try_acquire_probe
        return self.state == "closed"

    def try_acquire_probe(self, now: float) -> bool:
        """May the caller do the protected (full-fidelity) work?

        For callers that WILL report the outcome back: a ``True``
        return from an open-past-recovery breaker claims the single
        half-open probe, and the breaker stays half-open (everyone
        else degraded) until the caller's
        :meth:`record_success`/:meth:`record_failure` resolves it.
        Pure queries (admission checks, dashboards) must use
        :meth:`peek` instead.
        """
        if self.state == "closed":
            return True
        if self.state == "open":
            if now - self.opened_at >= self.recovery_time:
                self.state = "half-open"
                return True
            return False
        # half-open: the single probe is in flight; further requests
        # stay degraded until record_success/record_failure resolves it
        return False

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        if self.state != "closed":
            self.state = "closed"
            _metrics.counter(f"guard.breaker.{self.name}.closed").add()

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state == "half-open" or (
            self.state == "closed"
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.state = "open"
            self.opened_at = now
            self.trips += 1
            _metrics.counter(f"guard.breaker.{self.name}.trips").add()


class AdmissionController(Stateful):
    """Deadline- and pressure-aware shed-or-admit decisions.

    A job is **shed** (refused at enqueue time) when any of:

    - its deadline can no longer be met even by starting immediately
      (``now + service > deadline``);
    - its deadline cannot be met behind the current backlog, estimated
      as ``queue_len / n_gpus`` service slots of queueing delay;
    - the queue is saturated (``queue_len >= max_queue``) and the
      job's priority is below ``protect_priority``;
    - the attached breaker is open (fault storm) and the job's
      priority is below ``protect_priority``.

    Higher ``priority`` values are more important.  All decisions are
    pure functions of the observable state passed in, so a replayed
    event sequence sheds identically.
    """

    _STATE = (
        *fields("shed_count", "admitted"),
        Field("shed_log", DEQUE),
        Field("shed_log_dropped"),
        Field("breaker", NESTED),
    )

    def __init__(
        self,
        max_queue: Optional[int] = None,
        protect_priority: int = 0,
        breaker: Optional[CircuitBreaker] = None,
        backlog_estimate: bool = True,
        shed_log_cap: int = 4096,
    ):
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if shed_log_cap < 1:
            raise ValueError("shed_log_cap must be >= 1")
        self.max_queue = max_queue
        self.protect_priority = protect_priority
        self.breaker = breaker
        self.backlog_estimate = backlog_estimate
        self.shed_count = 0
        self.admitted = 0
        self.shed_log_cap = shed_log_cap
        #: ``(job_id, reason)`` per shed decision, in decision order —
        #: the replay-verification surface: two runs of the same event
        #: sequence must produce identical logs.  Bounded: under
        #: sustained overload an unbounded log is itself an
        #: availability bug (the controller that protects the machine
        #: from memory pressure must not be the thing that OOMs it),
        #: so the deque rotates and ``shed_log_dropped`` counts the
        #: decisions that aged out of the window.
        self.shed_log: Deque[Tuple[Optional[int], str]] = deque(
            maxlen=shed_log_cap
        )
        #: shed decisions rotated out of the bounded log
        self.shed_log_dropped = 0

    def record_failure(self, now: float, job=None) -> None:
        del job  # single-tenant: every failure feeds the one breaker
        if self.breaker is not None:
            self.breaker.record_failure(now)

    def record_success(self, now: float, job=None) -> None:
        del job
        if self.breaker is not None:
            self.breaker.record_success(now)

    def decide(self, job, now: float, queue_len: int, n_running: int,
               n_gpus: int) -> Optional[str]:
        """Classify *job*: the shed reason, or ``None`` to admit.

        Pure — no counters, no accounting, and (via
        :meth:`CircuitBreaker.peek`) no breaker mutation, so a replayed
        event sequence classifies identically and a query can never
        strand the breaker's half-open probe.
        """
        deadline = getattr(job, "deadline", None)
        priority = getattr(job, "priority", 0)
        if deadline is not None:
            if now + job.service > deadline:
                return "deadline_unmeetable"
            if self.backlog_estimate and queue_len > 0:
                # every queued job ahead of this one occupies ~one
                # service slot across the n_gpus-wide machine
                est_wait = (queue_len / max(n_gpus, 1)) * job.service
                if now + est_wait + job.service > deadline:
                    return "deadline_backlog"
        if priority < self.protect_priority:
            if self.max_queue is not None and queue_len >= self.max_queue:
                return "queue_saturated"
            if self.breaker is not None and not self.breaker.peek(now):
                return "breaker_open"
        return None

    def note_shed(self, job, reason: str) -> None:
        """Account one shed decision (log rotation + counters).

        Factored out of :meth:`admit` so the tenant registry can charge
        a fair-share or brownout shed to the owning tenant's controller
        through the exact same bookkeeping path.
        """
        self.shed_count += 1
        if len(self.shed_log) == self.shed_log_cap:
            self.shed_log_dropped += 1
            _metrics.counter("guard.shed_log.dropped").add()
        self.shed_log.append((getattr(job, "job_id", None), reason))
        _metrics.counter("guard.shed").add()
        _metrics.counter(f"guard.shed.{reason}").add()

    def admit(self, job, now: float, queue_len: int, n_running: int,
              n_gpus: int) -> bool:
        """Admit *job* into the queue, or shed it (False)."""
        shed_reason = self.decide(job, now, queue_len, n_running, n_gpus)
        if shed_reason is None:
            self.admitted += 1
            return True
        self.note_shed(job, shed_reason)
        return False
