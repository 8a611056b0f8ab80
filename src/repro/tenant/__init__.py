"""Multi-tenant isolation and overload control.

The paper's Sierra workload is a shared machine serving many competing
campaigns at once; this package gives the reproduction that regime's
robustness layer on top of the existing guard + traffic + sched stack:

- :mod:`repro.tenant.spec` — :class:`TenantSpec` /
  :class:`TenancySpec`: per-tenant SLO contracts (fair-share weight,
  protected priority, goodput floor, private breaker), declarative and
  trace-header round-trippable.
- :mod:`repro.tenant.arbiter` — exact weighted max-min fair shares by
  progressive filling, plus :func:`jain_index`.
- :mod:`repro.tenant.brownout` — the hysteretic degradation ladder
  (admit -> defer -> degrade -> shed).
- :mod:`repro.tenant.registry` — :class:`TenantRegistry`, the
  drop-in multi-tenant replacement for the single-tenant
  :class:`~repro.guard.deadline.AdmissionController` in the cluster
  simulator's admission slot: noisy neighbors are clipped to their
  fair share before any compliant tenant sheds.
- :mod:`repro.tenant.recorder` — the incident flight recorder:
  bounded transition ring, WAL-framed incident traces, bit-exact
  post-mortem replay.
- :mod:`repro.tenant.scenario` — canned pile-up scenarios for bench,
  CI, and the ``python -m repro.tenant`` demo.
"""

from repro.tenant.arbiter import jain_index, weighted_max_min
from repro.tenant.brownout import RUNGS, BrownoutLadder
from repro.tenant.recorder import (
    FlightRecorder,
    incident_paths,
    record_incident,
    verify_incident,
)
from repro.tenant.registry import TenantRegistry
from repro.tenant.scenario import PileupBundle, multitenant_pileup
from repro.tenant.spec import TenancySpec, TenantSpec

__all__ = [
    "BrownoutLadder",
    "FlightRecorder",
    "PileupBundle",
    "RUNGS",
    "TenancySpec",
    "TenantRegistry",
    "TenantSpec",
    "incident_paths",
    "jain_index",
    "multitenant_pileup",
    "record_incident",
    "verify_incident",
    "weighted_max_min",
]
