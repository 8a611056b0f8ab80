"""Canned multi-tenant pile-up scenarios (bench + CI + CLI).

The canonical robustness experiment from the issue: several compliant
tenants each offering just under their fair share, plus one noisy
tenant offering a multiple of its share.  The builder synthesizes each
tenant's stream from its own :class:`~repro.traffic.population.UserPopulation`
and Poisson arrival process (seeded independently per tenant, so
streams are reproducible and uncorrelated), tags every job with its
tenant, and interleaves the streams into one offered-load sequence.

The bundle also keeps the per-tenant job lists so a gate can run each
compliant tenant *in isolation* — same jobs, empty machine — and
compare p99 turnaround / shed rate against the pile-up run, which is
exactly the noisy-neighbor containment the arbiter must deliver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sched.simulator import Job
from repro.tenant.spec import TenancySpec, TenantSpec
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.population import UserPopulation

__all__ = ["PileupBundle", "multitenant_pileup"]

#: job-id stride per tenant: keeps ids globally unique and makes the
#: owning tenant recoverable from a bare id during triage
_ID_STRIDE = 1_000_000

#: each compliant tenant's offered load, as a fraction of its fair share
COMPLIANT_LOAD = 0.8
#: mean job service time of every tenant's population
MEAN_SERVICE = 4.0
#: every tenant's contract: jobs below this priority may be
#: pressure-shed, and admitted service below this fraction of the fair
#: share is an SLO breach
PROTECT_PRIORITY = 1
GOODPUT_FLOOR = 0.25


@dataclass(frozen=True)
class PileupBundle:
    """One synthesized pile-up: the contract, the load, the pieces."""

    tenancy: TenancySpec
    #: the interleaved offered-load sequence (arrival-sorted)
    jobs: Tuple[Job, ...]
    #: each tenant's own stream (isolated-baseline inputs)
    jobs_by_tenant: Dict[str, Tuple[Job, ...]]
    #: per-tenant offered arrival rates (jobs per time unit)
    rates: Dict[str, float]
    #: the noisy tenant's name
    noisy: str


def multitenant_pileup(
    n_gpus: int = 8,
    n_compliant: int = 3,
    noisy_factor: float = 4.0,
    n_jobs_per_tenant: int = 300,
    seed: int = 0,
    window: float = 50.0,
    breaker_failure_threshold: int = 8,
) -> PileupBundle:
    """Build the standard one-noisy-neighbor pile-up.

    Capacity splits evenly across ``n_compliant + 1`` equal-weight
    tenants; compliant tenants offer ``COMPLIANT_LOAD`` x their fair
    share, the noisy tenant offers ``noisy_factor`` x.  Jobs per
    tenant, not duration, bounds the experiment so short CI runs and
    long bench runs share one builder.
    """
    if n_compliant < 1:
        raise ValueError("need at least one compliant tenant")
    if noisy_factor <= 1.0:
        raise ValueError("noisy_factor must exceed 1 (else nobody "
                         "violates)")
    n_tenants = n_compliant + 1
    # equal weights: each tenant's fair share of the machine is
    # n_gpus / n_tenants service-seconds per second, i.e. an arrival
    # rate of share / mean_service jobs per second
    share_rate = n_gpus / (n_tenants * MEAN_SERVICE)
    names = [f"tenant{k}" for k in range(n_compliant)]
    noisy = "noisy"
    specs = [
        TenantSpec(
            name=name,
            weight=1.0,
            protect_priority=PROTECT_PRIORITY,
            goodput_floor=GOODPUT_FLOOR,
            breaker_failure_threshold=breaker_failure_threshold,
        )
        for name in names + [noisy]
    ]
    tenancy = TenancySpec(tenants=tuple(specs), window=window)
    rates = {name: COMPLIANT_LOAD * share_rate for name in names}
    rates[noisy] = noisy_factor * share_rate
    jobs_by_tenant: Dict[str, Tuple[Job, ...]] = {}
    for idx, name in enumerate(names + [noisy]):
        tenant_seed = seed * 131 + idx
        population = UserPopulation(
            n_users=10_000,
            seed=tenant_seed,
            mean_service=MEAN_SERVICE,
            tenant=name,
        )
        arrivals = PoissonArrivals(rates[name]).sample(
            n_jobs_per_tenant, seed=tenant_seed
        )
        jobs_by_tenant[name] = tuple(
            population.jobs_for(arrivals, job_id_base=idx * _ID_STRIDE)
        )
    merged = sorted(
        (j for stream in jobs_by_tenant.values() for j in stream),
        key=lambda j: (j.arrival, j.job_id),
    )
    return PileupBundle(
        tenancy=tenancy,
        jobs=tuple(merged),
        jobs_by_tenant=jobs_by_tenant,
        rates=rates,
        noisy=noisy,
    )
