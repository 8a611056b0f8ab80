"""Weighted max-min fair arbitration over shared cluster capacity.

The allocation primitive under :class:`repro.tenant.TenantRegistry`:
given each tenant's measured demand (offered service rate over a
sliding window) and its SLO weight, split the machine's service
capacity so that

- no tenant gets more than it asked for,
- unused demand is redistributed to tenants that can use it
  (work conservation), and
- whenever demand exceeds capacity, the constrained tenants receive
  shares proportional to their weights (weighted max-min dominance:
  you cannot raise one tenant's share without lowering that of a
  tenant with an equal-or-smaller share-per-weight).

This is classic progressive filling ("water-filling"): raise a common
water level ``w`` and give each tenant ``min(demand_i, w * weight_i)``
until capacity is exhausted.  The implementation iterates over
bottleneck sets instead of bisecting on ``w``, so the result is an
exact fixed point of the definition (no tolerance parameter) and a
pure, deterministic function of its inputs — which is what lets a
replayed incident trace reproduce every fair-share shed decision
bit-for-bit.

:func:`jain_index` is the standard fairness summary the bench gate
reports: 1.0 when every tenant's normalized allocation is equal,
``1/n`` in the pathological one-tenant-takes-all case.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

__all__ = ["water_fill", "weighted_max_min", "jain_index"]


def weighted_max_min(
    demands: Mapping[str, float],
    weights: Mapping[str, float],
    capacity: float,
) -> Dict[str, float]:
    """Weighted max-min fair shares of *capacity* across tenants.

    *demands* maps tenant name to nonnegative demand (service-seconds
    per second); *weights* maps each tenant in *demands* to a positive
    SLO weight.  Returns ``{name: share}`` with

    - ``0 <= share <= demand`` for every tenant,
    - ``sum(shares) == min(capacity, sum(demands))`` up to floating
      point (work conservation), and
    - every unsatisfied tenant (``share < demand``) holding the same
      ``share / weight`` water level.

    The validating, name-keyed form of :func:`water_fill`, which it
    runs over the tenants in sorted-name order.
    """
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    names = sorted(demands)
    for name in names:
        if demands[name] < 0:
            raise ValueError(f"tenant {name!r}: negative demand")
        if name not in weights or weights[name] <= 0:
            raise ValueError(f"tenant {name!r}: weight must be positive")
    shares = water_fill(
        [demands[name] for name in names],
        [weights[name] for name in names],
        capacity,
    )
    return dict(zip(names, shares))


def water_fill(
    demands: Sequence[float],
    weights: Sequence[float],
    capacity: float,
) -> List[float]:
    """Weighted max-min shares over parallel *demands* / *weights*.

    The unvalidated core of :func:`weighted_max_min`, for callers that
    checked their inputs once up front (the registry's tables).  Share
    ``i`` belongs to ``demands[i]``, and every sum runs in list order,
    so the bits depend on the order the caller lists tenants in.
    """
    if sum(demands) <= capacity:
        # uncontended: everyone gets exactly what they asked for
        return [float(d) for d in demands]
    # progressive filling: repeatedly satisfy every tenant whose
    # demand sits below the current water level, remove it from the
    # pool, and refill the remainder.  Each pass freezes at least one
    # tenant, so the loop runs at most n times.
    shares = [0.0] * len(demands)
    remaining = float(capacity)
    active = range(len(demands))
    while active:
        water = remaining / sum([weights[i] for i in active])
        frozen = [i for i in active if demands[i] <= water * weights[i]]
        if not frozen:
            # every active tenant is demand-constrained by the water
            # level: final proportional split
            for i in active:
                shares[i] = water * weights[i]
            break
        for i in frozen:
            shares[i] = float(demands[i])
            remaining -= demands[i]
        active = [i for i in active if i not in frozen]
    return shares


def jain_index(values: Iterable[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    Computed over per-tenant normalized allocations (delivered service
    divided by weight).  1.0 means perfectly even; ``1/n`` means one
    tenant took everything.  Empty or all-zero input reads as fair
    (1.0): nothing was delivered, so nothing was delivered unevenly.
    """
    xs = [float(v) for v in values]
    if not xs:
        return 1.0
    if any(v < 0 for v in xs):
        raise ValueError("allocations must be nonnegative")
    total = sum(xs)
    if total == 0.0:
        return 1.0
    # normalize by the mean first: subnormal allocations square to
    # exactly 0.0 (underflow) and huge ones square to inf, either of
    # which breaks the ratio even though the index is scale-invariant
    mean = total / len(xs)
    ys = [v / mean for v in xs]
    return sum(ys) ** 2 / (len(ys) * sum(v * v for v in ys))
