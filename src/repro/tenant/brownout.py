"""Brownout ladder: declarative graceful degradation with hysteresis.

Instead of the guard layer's binary admit/shed, a tenant under
pressure descends a ladder of progressively cheaper service levels:

====================  =====================================================
rung                  behavior at admission time
====================  =====================================================
``admit``             normal service, full fidelity
``defer``             best-effort jobs (no deadline) are shed; deadline
                      work still flows
``degrade``           additionally signals coupled campaigns to serve
                      from their surrogate rung (the MuMMI
                      macro-surrogate path) — the registry exposes this
                      via :meth:`TenantRegistry.degraded`
``shed``              hard shed: everything below the tenant's protected
                      priority is refused
====================  =====================================================

The ladder is driven by the tenant's measured load ratio
(offered rate / fair share).  Two thresholds with a gap between them
give hysteresis — the ratio must fall well below the escalation point
before the ladder relaxes — and each observation moves at most one
rung, so a noisy load signal cannot make service levels flap
arrival-to-arrival.  Transitions are deterministic functions of the
observation sequence (and are counted + flight-recorded), preserving
the bit-exact replay contract.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.util.state import Field, Stateful, convert, fields

__all__ = ["BrownoutLadder", "RUNGS"]

#: service levels, best first; index = severity
RUNGS: Tuple[str, ...] = ("admit", "defer", "degrade", "shed")


class BrownoutLadder(Stateful):
    """Hysteretic rung selector over a measured load ratio.

    ``observe(ratio, now)`` escalates one rung when the ratio is at or
    above ``up_threshold``, relaxes one rung when it is at or below
    ``down_threshold``, and holds otherwise.  ``up_threshold`` must
    exceed ``down_threshold`` strictly — the gap *is* the hysteresis.
    """

    #: the history's moves checkpoint as lists
    _STATE = (
        *fields("rung_index", "transitions"),
        Field("history", convert(
            lambda history: [list(move) for move in history],
            lambda saved: [tuple(move) for move in saved],
        )),
    )

    def __init__(
        self,
        up_threshold: float = 1.5,
        down_threshold: float = 0.9,
        name: str = "tenant",
    ):
        if down_threshold <= 0:
            raise ValueError("down_threshold must be positive")
        if up_threshold <= down_threshold:
            raise ValueError(
                "up_threshold must exceed down_threshold (the gap is "
                "the hysteresis)"
            )
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self.name = name
        self.rung_index = 0
        self.transitions = 0
        #: ``(now, from_rung, to_rung, ratio)`` per move, in order
        self.history: List[Tuple[float, str, str, float]] = []

    @property
    def rung(self) -> str:
        return RUNGS[self.rung_index]

    def observe(self, ratio: float, now: float = 0.0) -> str:
        """Feed one load measurement; returns the (new) current rung."""
        if ratio < 0:
            raise ValueError("load ratio must be nonnegative")
        step = 0
        if ratio >= self.up_threshold and self.rung_index < len(RUNGS) - 1:
            step = 1
        elif ratio <= self.down_threshold and self.rung_index > 0:
            step = -1
        if step:
            old = self.rung
            self.rung_index += step
            self.transitions += 1
            self.history.append((now, old, self.rung, float(ratio)))
            _metrics.counter(
                f"guard.brownout.{self.name}."
                f"{'escalations' if step > 0 else 'relaxations'}"
            ).add()
        return self.rung

    def at_least(self, rung: str) -> bool:
        """Is the ladder at *rung* or worse?"""
        return self.rung_index >= RUNGS.index(rung)

    def describe(self) -> Dict[str, Any]:
        return {
            "up_threshold": self.up_threshold,
            "down_threshold": self.down_threshold,
        }

    @classmethod
    def from_description(
        cls, desc: Optional[Dict[str, Any]], name: str = "tenant"
    ) -> "BrownoutLadder":
        if desc is None:
            return cls(name=name)
        return cls(
            up_threshold=desc["up_threshold"],
            down_threshold=desc["down_threshold"],
            name=name,
        )
