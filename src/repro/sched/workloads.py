"""Topology-optimization job workloads.

"A variable number of expensive GPU jobs are often necessary for
topology optimization under different loading conditions" (§4.7): job
service demands are heavy-tailed (lognormal), with a minority of
long-running design evaluations.  Two submission patterns match the
paper's study: everything at once (batch) and a Poisson stream whose
rate may or may not be throttled below cluster capacity.  The traffic
layer (:mod:`repro.traffic`) composes richer arrival processes (MMPP,
diurnal) over these same service draws via :func:`draw_services`;
:func:`jobs_from_arrivals` zips any such streams into jobs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.sched.simulator import Job
from repro.util.rng import make_rng


def draw_services(rng: np.random.Generator, n: Optional[int],
                  mean_service: float, sigma: float, long_fraction: float):
    """Heavy-tailed service demands with realized mean ``mean_service``.

    A lognormal body with a 6x long tail on a ``long_fraction``
    minority of jobs (the big design evaluations).  The body is drawn
    with mean ``mean_service / (1 + 5 * long_fraction)`` so that after
    the tail scaling the *realized* mean is ``mean_service`` — the
    pre-fix version calibrated the lognormal to ``mean_service`` and
    then scaled the tail, inflating the realized mean to
    ``(1 + 5 * long_fraction) * mean_service`` and silently breaking
    the offered-load formula every caller quotes
    (``arrival_rate * mean_service / n_gpus``).

    Returns ``(services, is_long)`` arrays of length *n*, or one
    ``(float, bool)`` draw when *n* is ``None``.
    """
    if not (0.0 <= long_fraction <= 1.0):
        raise ValueError("long_fraction in [0, 1]")
    base_mean = mean_service / (1.0 + 5.0 * long_fraction)
    mu = np.log(base_mean) - sigma * sigma / 2.0
    services = rng.lognormal(mu, sigma, n)
    # the long tail: a fraction of jobs are big design evaluations
    is_long = rng.random(n) < long_fraction
    if n is None:
        return (services * 6.0 if is_long else services), is_long
    return np.where(is_long, services * 6.0, services), is_long


# backward-compatible private name (pre-traffic call sites)
_services = draw_services


def jobs_from_arrivals(
    arrivals: Sequence[float],
    services: Sequence[float],
    is_long: Optional[Sequence[bool]] = None,
    priorities: Optional[Sequence[int]] = None,
    deadlines: Optional[Sequence[Optional[float]]] = None,
    job_id_base: int = 0,
    tenant: Optional[str] = None,
    tenants: Optional[Sequence[Optional[str]]] = None,
) -> List[Job]:
    """Zip parallel per-job streams into :class:`Job` records.

    The ingestion point for open-loop traffic: an arrival process
    (:mod:`repro.traffic.arrivals`) supplies *arrivals*, a user
    population supplies *services* (and optionally priorities and
    deadlines), and the result feeds
    :class:`~repro.sched.simulator.SimulatorSession` directly.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    services = np.asarray(services, dtype=float)
    if arrivals.shape != services.shape:
        raise ValueError("arrivals and services must align")
    n = arrivals.size
    longs = (
        np.zeros(n, dtype=bool) if is_long is None
        else np.asarray(is_long, dtype=bool)
    )
    prios = (
        np.zeros(n, dtype=int) if priorities is None
        else np.asarray(priorities, dtype=int)
    )
    dls: Sequence[Optional[float]] = (
        [None] * n if deadlines is None else deadlines
    )
    if tenant is not None and tenants is not None:
        raise ValueError("pass tenant= or tenants=, not both")
    tens: Sequence[Optional[str]] = (
        [tenant] * n if tenants is None else tenants
    )
    if longs.size != n or prios.size != n or len(dls) != n \
            or len(tens) != n:
        raise ValueError("per-job streams must align with arrivals")
    return [
        Job(
            job_id=job_id_base + k,
            arrival=float(arrivals[k]),
            service=float(services[k]),
            is_long=bool(longs[k]),
            priority=int(prios[k]),
            deadline=None if dls[k] is None else float(dls[k]),
            tenant=tens[k],
        )
        for k in range(n)
    ]


def batch_workload(
    n_jobs: int = 500,
    mean_service: float = 10.0,
    sigma: float = 0.8,
    long_fraction: float = 0.1,
    seed: int = 0,
) -> List[Job]:
    """All jobs submitted at t=0 (the design-sweep pattern)."""
    if n_jobs < 1 or mean_service <= 0 or sigma <= 0:
        raise ValueError("bad workload parameters")
    rng = make_rng(seed)
    services, is_long = draw_services(rng, n_jobs, mean_service, sigma,
                                      long_fraction)
    return [
        Job(job_id=k, arrival=0.0, service=float(s), is_long=bool(l))
        for k, (s, l) in enumerate(zip(services, is_long))
    ]


def poisson_workload(
    n_jobs: int = 500,
    arrival_rate: float = 1.0,
    mean_service: float = 10.0,
    sigma: float = 0.8,
    long_fraction: float = 0.1,
    seed: int = 0,
) -> List[Job]:
    """Poisson arrivals at *arrival_rate* jobs per time unit.

    Offered load on an n-GPU cluster is
    ``arrival_rate * mean_service / n`` (the service draws are
    renormalized so their realized mean IS ``mean_service``, long tail
    included); the paper's throttling recommendation is to keep it
    below 1.
    """
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    if n_jobs < 1 or mean_service <= 0 or sigma <= 0:
        raise ValueError("bad workload parameters")
    rng = make_rng(seed)
    gaps = rng.exponential(1.0 / arrival_rate, n_jobs)
    arrivals = np.cumsum(gaps)
    services, is_long = draw_services(rng, n_jobs, mean_service, sigma,
                                      long_fraction)
    return [
        Job(job_id=k, arrival=float(a), service=float(s), is_long=bool(l))
        for k, (a, s, l) in enumerate(zip(arrivals, services, is_long))
    ]


def offered_load(jobs: Iterable[Job], n_gpus: int) -> float:
    """Aggregate demand / capacity over the submission window.

    The window is makespan-aware: the arrival span plus one mean
    service — the shortest interval in which the demand could possibly
    be served.  The pre-fix version divided by
    ``max(max(arrival), 1e-12)``, so a batch workload (every arrival
    0.0) collapsed the window to 1e-12 and reported a load ~1e13x off;
    now a batch of ``n_jobs`` jobs reports ``n_jobs / n_gpus`` — the
    number of service slots of work per GPU, the natural batch analog
    of the streaming ``rate * service / n_gpus``.
    """
    jobs = list(jobs)
    if not jobs:
        return 0.0
    if n_gpus < 1:
        raise ValueError("need at least one GPU")
    total_service = sum(j.service for j in jobs)
    arrivals = [j.arrival for j in jobs]
    mean_service = total_service / len(jobs)
    window = (max(arrivals) - min(arrivals)) + mean_service
    return total_service / (n_gpus * window)
