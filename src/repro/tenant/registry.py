"""The multi-tenant admission surface: fair shares, brownout, breakers.

:class:`TenantRegistry` drops into the ``admission=`` slot of
:class:`~repro.sched.simulator.SimulatorSession` — it speaks the same
``admit`` / ``record_success`` / ``record_failure`` /
``checkpoint_state`` / ``restore_state`` protocol as the single-tenant
:class:`~repro.guard.deadline.AdmissionController` — but routes every
decision through per-tenant state:

- each tenant owns a private controller (queue limits, protected
  priority) and optionally a private breaker;
- per-tenant offered and admitted service rates are measured over a
  sliding window, feeding the weighted max-min arbiter
  (:func:`repro.tenant.arbiter.water_fill`, over tenant tables the
  constructor sorts once);
- a tenant offering more than its fair share is a **violator**: its
  excess arrivals are clipped (shed ``fair_share``) and its brownout
  ladder escalates.  While any violator is above fair share, the
  *pressure* shed reasons (``queue_saturated``, ``breaker_open``) are
  suppressed for compliant tenants — the machine's congestion is the
  violator's to absorb, not theirs.  Deadline sheds are physics and
  are never suppressed.

Every decision is a pure function of the event sequence (window
arithmetic, integer counters, no clocks, no hidden RNG), so a replayed
incident trace sheds, trips, and escalates bit-identically.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.tenant.arbiter import jain_index, water_fill
from repro.tenant.brownout import BrownoutLadder
from repro.tenant.recorder import FlightRecorder
from repro.tenant.spec import TenancySpec
from repro.util.state import DEQUE, NESTED, Field, Kind, Stateful, fields

__all__ = ["TenantRegistry"]

#: shed reasons that represent congestion (suppressible for compliant
#: tenants), as opposed to deadline physics
PRESSURE_REASONS = frozenset(
    {"queue_saturated", "breaker_open", "fair_share",
     "brownout_defer", "brownout_shed"}
)

_EPS = 1e-9


def _trimmed_total(window: Deque[Tuple[float, float]], total: float,
                   cutoff: float) -> float:
    """Pop *window*'s entries older than *cutoff*; return its total."""
    while window and window[0][0] < cutoff:
        total -= window.popleft()[1]
    # running subtraction drifts; an emptied window is exactly zero,
    # and near-zero negatives are FP residue, not demand
    if not window or total < 0.0:
        total = max(0.0, sum(svc for _, svc in window))
    return total


class _TenantState(Stateful):
    """Live per-tenant machinery (controller, ladder, rate windows)."""

    __slots__ = ("spec", "controller", "ladder", "offered", "admitted",
                 "offered_total", "admitted_total", "shed_counter")

    _STATE = (
        *fields("controller", "ladder", kind=NESTED),
        *fields("offered", "admitted", kind=DEQUE),
        *fields("offered_total", "admitted_total"),
    )

    def __init__(self, spec, ladder: BrownoutLadder):
        self.spec = spec
        self.controller = spec.make_controller()
        self.ladder = ladder
        self.shed_counter = _metrics.counter(
            f"guard.tenant.{spec.name}.shed"
        )
        #: (time, service) per arrival / admission inside the window
        self.offered: Deque[Tuple[float, float]] = deque()
        self.admitted: Deque[Tuple[float, float]] = deque()
        self.offered_total = 0.0
        self.admitted_total = 0.0


def _save_tenants(tenants):
    return {name: s.checkpoint_state() for name, s in tenants.items()}


def _restore_tenants(tenants, saved):
    for name, state in saved.items():
        tenants[name].restore_state(state)
    return tenants


class TenantRegistry(Stateful):
    """Shared-capacity fair-share admission over per-tenant guards."""

    #: protocol compatibility with AdmissionController consumers that
    #: introspect ``admission.breaker`` — the registry has one breaker
    #: *per tenant* instead (see :meth:`breaker_states`)
    breaker = None
    #: arbiter tables — sorted tenant names, their states and weights,
    #: name -> index — built once by :meth:`_arbiter_tables`: in the
    #: constructor with the arbiter on, never on the disabled fast path
    _tables = None
    #: ``(tenant, reason, shares, violators, rung)`` behind the most
    #: recent admit(); :attr:`last_decision` expands it on demand
    _last = None

    _STATE = (
        Field("tenants", Kind(_save_tenants, _restore_tenants), "_tenants"),
        Field("shed_log", DEQUE),
        *fields("shed_count", "admitted"),
        Field("recorder", NESTED),
    )

    def __init__(self, spec: TenancySpec):
        self.spec = spec
        self.window = spec.window
        self.recorder = FlightRecorder(capacity=spec.recorder_capacity)
        self._tenants: Dict[str, _TenantState] = {
            t.name: _TenantState(
                t,
                BrownoutLadder.from_description(
                    spec.brownout, name=t.name
                ),
            )
            for t in spec.tenants
        }
        # global decision-order view (what TrafficReport fingerprints);
        # bounded like the single-tenant log
        self.shed_log: Deque[Tuple[Optional[int], str]] = deque(
            maxlen=4096
        )
        self.shed_count = 0
        #: admits of anonymous jobs, in a one-item cell the disabled
        #: fast path's closure counts into (see :attr:`admitted`)
        self._anon = [0]
        if spec.arbiter_enabled:
            self._arbiter_tables()
        else:
            self._bind_disabled_fast_path()

    @property
    def arbiter_enabled(self) -> bool:
        """Whether the fair-share arbiter runs: fixed by the frozen
        spec, since the disabled fast path is bound at construction."""
        return self.spec.arbiter_enabled

    @property
    def admitted(self) -> int:
        """Jobs admitted so far: the anonymous ones plus each tenant
        controller's own count."""
        return self._anon[0] + sum(
            s.controller.admitted for s in self._tenants.values()
        )

    @admitted.setter
    def admitted(self, value: int) -> None:
        # restore writes the total after the controllers' counts
        self._anon[0] = value - sum(
            s.controller.admitted for s in self._tenants.values()
        )

    def _arbiter_tables(self) -> tuple:
        """``(names, states, weights, index)`` in sorted-name order.

        Every arbiter sum runs in this order (the order
        :func:`~repro.tenant.arbiter.weighted_max_min` sorts into), so
        the fills are bit-identical to the validating dict form.  The
        weights were checked positive by :class:`TenantSpec`.
        """
        if self._tables is None:
            names = sorted(self._tenants)
            states = [self._tenants[name] for name in names]
            self._tables = (
                names, states, [s.spec.weight for s in states],
                {name: i for i, name in enumerate(names)},
            )
        return self._tables

    @property
    def last_decision(self) -> Optional[Dict[str, Any]]:
        """The full arbiter picture behind the most recent admit()
        call (tests and the CLI read this); ``None`` before any."""
        if self._last is None:
            return None
        tenant, reason, shares, violators, rung = self._last
        if shares is not None:
            shares = dict(zip(self._tables[0], shares))
        return {"tenant": tenant, "reason": reason, "shares": shares,
                "violators": list(violators), "rung": rung}

    def _bind_disabled_fast_path(self) -> None:
        """Rebind the per-job entry points as instance closures.

        The A/B contract is that turning the arbiter off leaves only
        the per-tenant guard stack — the bench gates the registry at
        < 3% over a plain dict of standalone controllers — and at a
        few hundred nanoseconds per job the method-dispatch chain
        itself is the overhead: class-dict lookup, the
        ``arbiter_enabled`` test, and two attribute hops to reach the
        tenant table.  A closure bound as an instance attribute skips
        all three and delegates straight to the pre-bound
        ``controller.admit`` — the exact code a tenant would run with
        no registry at all — so the admit path adds one dict probe
        and nothing else.  Registry-side bookkeeping (global shed
        log, ``last_decision``, the per-tenant shed counter) happens
        only on the rare shed, and :attr:`admitted` sums the
        controllers' own counts rather than a registry count bumped
        per job.  This closure is the only arbiter-off admit path:
        the class's :meth:`admit` is the arbiter's.
        """
        tenants = self._tenants
        shed_disabled = self._shed_disabled
        anon = self._anon
        admits = {
            name: state.controller.admit
            for name, state in tenants.items()
        }

        def _admit(job, now, queue_len, n_running, n_gpus):
            tenant = job.tenant
            admit = admits.get(tenant)
            if admit is None:
                if tenant is None:
                    anon[0] += 1
                    return True
                raise ValueError(f"job from unknown tenant {tenant!r}")
            if admit(job, now, queue_len, n_running, n_gpus):
                return True
            # the controller has already counted and logged the shed;
            # mirror it into the registry's global view
            state = tenants[tenant]
            return shed_disabled(
                state, job, tenant, state.controller.shed_log[-1][1]
            )

        record_breaker_success = {
            name: state.controller.breaker.record_success
            for name, state in tenants.items()
            if state.controller.breaker is not None
        }

        def _record_success(now, job=None):
            if job is not None:
                record = record_breaker_success.get(job.tenant)
                if record is not None:
                    record(now)

        self.admit = _admit
        self.record_success = _record_success

    # -- window arithmetic ---------------------------------------------

    def _expire(self, now: float) -> None:
        """Drop window entries older than ``now - window``.

        Only a window that lost entries is re-totalled: an untouched
        window's total is already exact (adding positive service can
        neither empty a window nor drive its total negative).
        """
        cutoff = now - self.window
        for state in self._tenants.values():
            if state.offered and state.offered[0][0] < cutoff:
                state.offered_total = _trimmed_total(
                    state.offered, state.offered_total, cutoff
                )
            if state.admitted and state.admitted[0][0] < cutoff:
                state.admitted_total = _trimmed_total(
                    state.admitted, state.admitted_total, cutoff
                )

    def offered_rate(self, name: str, now: float) -> float:
        """Offered service rate over the sliding window.

        The divisor is the full window even early in the run — rates
        ramp up conservatively instead of spiking off a near-empty
        window, and the value stays a pure function of the arrivals
        seen (no wall-clock dependence to break replay).
        """
        del now
        return self._tenants[name].offered_total / self.window

    def admitted_rate(self, name: str, now: float) -> float:
        del now
        return self._tenants[name].admitted_total / self.window

    def _rates(self) -> List[float]:
        """Offered rates in table order (see :meth:`offered_rate`)."""
        window = self.window
        return [s.offered_total / window
                for s in self._arbiter_tables()[1]]

    def fair_shares(self, n_gpus: int, now: float) -> Dict[str, float]:
        """Current weighted max-min shares of the machine's capacity
        (``n_gpus`` service-seconds per second)."""
        del now
        names, _, weights, _ = self._arbiter_tables()
        return dict(zip(
            names, water_fill(self._rates(), weights, float(n_gpus))
        ))

    def entitlement(self, name: str, now: float, n_gpus: int) -> float:
        """The share *name* would receive if it demanded the whole
        machine: its weighted max-min entitlement.

        The brownout ratio is measured against this, not the realized
        share — a satisfied tenant's share equals its demand, so
        ``offered / share`` is pinned at 1.0 inside the hysteresis
        band and an escalated ladder could never relax.  Against the
        entitlement the ratio falls as the tenant's load falls, and
        exceeds 1 exactly when the tenant is a violator (an
        unsatisfied tenant's exact demand does not move the fill, so
        entitlement == share for violators).
        """
        del now
        index = self._arbiter_tables()[3][name]
        return self._entitled(self._rates(), index, n_gpus)

    def _entitled(self, rates: List[float], index: int,
                  n_gpus: int) -> float:
        """Tenant *index*'s fill share with its own demand replaced by
        the whole machine (a share can't exceed capacity)."""
        demands = rates.copy()
        demands[index] = float(n_gpus)
        return water_fill(demands, self._tables[2], float(n_gpus))[index]

    # -- the admission protocol ----------------------------------------

    def admit(self, job, now: float, queue_len: int, n_running: int,
              n_gpus: int) -> bool:
        """The arbiter's admit (with the arbiter off, the closure
        :meth:`_bind_disabled_fast_path` binds stands in for it)."""
        tenant = getattr(job, "tenant", None)
        if tenant is None:
            # anonymous regime: no contract, no accounting, no shedding
            self._anon[0] += 1
            return True
        state = self._tenants.get(tenant)
        if state is None:
            raise ValueError(f"job from unknown tenant {tenant!r}")
        self._expire(now)
        state.offered.append((now, job.service))
        state.offered_total += job.service
        reason = self._decide(state, job, now, queue_len, n_running,
                              n_gpus)
        if reason is None:
            state.controller.admitted += 1
            state.admitted.append((now, job.service))
            state.admitted_total += job.service
            return True
        return self._shed(state, job, now, tenant, reason)

    def _shed_disabled(self, state, job, tenant: str,
                       reason: str) -> bool:
        """Registry-side mirror of a disabled-mode shed.

        The controller's own :meth:`AdmissionController.note_shed` has
        already run (counters, bounded log); this adds the global
        decision-order view.  The flight recorder stays idle here on
        purpose: with the arbiter off the rate windows are not
        maintained, so no SLO breach or overload trip can ever mark
        the run :meth:`incident_worthy` — a ring nobody will dump is
        not worth a note per shed on the fast path.
        """
        state.shed_counter.add()
        self.shed_count += 1
        self.shed_log.append((getattr(job, "job_id", None), reason))
        self._last = (tenant, reason, None, (), "admit")
        return False

    def _shed(self, state, job, now: float, tenant: str,
              reason: str) -> bool:
        state.controller.note_shed(job, reason)
        state.shed_counter.add()
        self.shed_count += 1
        self.shed_log.append((getattr(job, "job_id", None), reason))
        self.recorder.note(
            "shed", now, tenant=tenant,
            job_id=getattr(job, "job_id", None), reason=reason,
        )
        return False

    def _decide(self, state, job, now: float, queue_len: int,
                n_running: int, n_gpus: int) -> Optional[str]:
        """The shed reason for *job*, or ``None`` to admit."""
        base = state.controller.decide(
            job, now, queue_len, n_running, n_gpus
        )
        names, _, weights, index = self._arbiter_tables()
        rates = self._rates()
        shares = water_fill(rates, weights, float(n_gpus))
        violators = [
            names[i] for i, rate in enumerate(rates)
            if rate > shares[i] + _EPS
        ]
        name = state.spec.name
        i = index[name]
        share = shares[i]
        ratio = (
            0.0 if state.offered_total <= _EPS
            else rates[i] / self._entitled(rates, i, n_gpus)
        )
        old_rung = state.ladder.rung
        rung = state.ladder.observe(ratio, now)
        if rung != old_rung:
            self.recorder.note(
                "ladder", now, tenant=name, from_rung=old_rung,
                to_rung=rung, ratio=ratio,
            )
        is_violator = rates[i] > share + _EPS
        reason: Optional[str] = None
        if is_violator and (
            state.admitted_total / self.window + job.service / self.window
            > share + _EPS
        ):
            # the noisy neighbor is clipped to its fair share before
            # any compliant tenant sheds a single job
            reason = "fair_share"
        elif is_violator and state.ladder.at_least("shed") \
                and job.priority < state.spec.protect_priority:
            # brownout bites only while the tenant is still over its
            # share — the escalated rung persists (hysteresis) but a
            # tenant back in compliance is not punished for its past
            reason = "brownout_shed"
        elif is_violator and state.ladder.at_least("defer") \
                and job.deadline is None:
            reason = "brownout_defer"
        elif base is not None:
            if base in PRESSURE_REASONS and not is_violator \
                    and violators:
                # congestion caused by someone above fair share is not
                # this tenant's to absorb
                _metrics.counter("guard.tenant.shed_suppressed").add()
                reason = None
            else:
                reason = base
        self._last = (name, reason, shares, violators, rung)
        return reason

    def record_success(self, now: float, job=None) -> None:
        tenant = getattr(job, "tenant", None)
        state = self._tenants.get(tenant) if tenant is not None else None
        if state is None:
            return  # anonymous job, or caller without job identity
        breaker = state.controller.breaker
        if breaker is not None:
            # trips only move on failures, so there is no transition
            # for the recorder to witness here
            breaker.record_success(now)

    def record_failure(self, now: float, job=None) -> None:
        tenant = getattr(job, "tenant", None)
        state = self._tenants.get(tenant) if tenant is not None else None
        if state is None:
            return  # anonymous job, or caller without job identity
        breaker = state.controller.breaker
        if breaker is None:
            return
        trips_before = breaker.trips
        breaker.record_failure(now)
        if breaker.trips != trips_before:
            self.recorder.note(
                "breaker_trip", now, tenant=tenant,
                trips=breaker.trips,
            )

    # -- health and incident surface -----------------------------------

    @property
    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    @property
    def trips(self) -> int:
        """Breaker trips across all tenants."""
        return sum(
            s.controller.breaker.trips
            for s in self._tenants.values()
            if s.controller.breaker is not None
        )

    def degraded(self, name: str) -> bool:
        """Should *name*'s coupled campaigns serve from a surrogate?"""
        return self._tenants[name].ladder.at_least("degrade")

    def rung(self, name: str) -> str:
        return self._tenants[name].ladder.rung

    def slo_breaches(self, n_gpus: int, now: float) -> List[str]:
        """Tenants admitted below their goodput floor while offering
        at least that much — the SLO-breach incident trigger."""
        shares = self.fair_shares(n_gpus, now)
        out = []
        for name in sorted(self._tenants):
            floor = self._tenants[name].spec.goodput_floor
            if floor <= 0:
                continue
            need = floor * shares[name]
            if self.offered_rate(name, now) >= need - _EPS \
                    and self.admitted_rate(name, now) < need - _EPS:
                out.append(name)
        return out

    def incident_worthy(self, n_gpus: int, now: float) -> bool:
        """Overload trip or SLO breach: should an incident be dumped?"""
        if self.trips:
            return True
        if any(
            s.ladder.at_least("degrade") for s in self._tenants.values()
        ):
            return True
        return bool(self.slo_breaches(n_gpus, now))

    def fairness(self) -> float:
        """Jain index over per-tenant admitted service per weight."""
        return jain_index(
            s.admitted_total / s.spec.weight
            for s in self._tenants.values()
        )

    def breaker_states(self) -> Dict[str, Optional[Dict[str, Any]]]:
        return {
            name: (
                None if s.controller.breaker is None
                else s.controller.breaker.checkpoint_state()
            )
            for name, s in sorted(self._tenants.items())
        }

    def tenant_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant counters for reports and the incident header."""
        return {
            name: {
                "admitted": s.controller.admitted,
                "shed": s.controller.shed_count,
                "rung": s.ladder.rung,
                "ladder_transitions": s.ladder.transitions,
                "breaker_trips": (
                    0 if s.controller.breaker is None
                    else s.controller.breaker.trips
                ),
            }
            for name, s in sorted(self._tenants.items())
        }
