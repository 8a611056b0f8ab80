"""Kernel and transfer descriptors consumed by the roofline model.

A :class:`KernelSpec` records *what a kernel does* — useful arithmetic,
bytes moved through the memory system, how many launches it needs —
independent of *where it runs*.  Proxy applications construct these
from measured array sizes and operation counts (never hard-coded
timings), and :class:`~repro.core.roofline.RooflineModel` turns them
into per-machine execution times.

:class:`KernelTrace` accumulates an ordered sequence of kernels and
transfers, which is what the `forall` layer emits while genuinely
executing the proxy code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Tuple


@dataclass(frozen=True)
class KernelSpec:
    """Work description of one (possibly repeated) kernel.

    Parameters
    ----------
    name:
        Label used in reports and phase breakdowns.
    flops:
        Useful floating-point operations per launch.
    bytes_read, bytes_written:
        Bytes moving through the memory system per launch, assuming the
        kernel streams its working set (the roofline model applies
        cache-residency corrections separately for CPU execution).
    launches:
        Number of identical launches this spec represents.
    precision:
        ``"fp64"`` or ``"fp32"``; selects the peak-flop column.
    compute_efficiency, bandwidth_efficiency:
        Fraction of peak this kernel can realize; defaults represent a
        well-tuned streaming kernel.  Kernel-specific tuning stories
        from the paper (shared-memory stencils reaching ~40% of peak,
        RAJA overhead ~30%) are expressed through these factors.
    uses_shared_memory:
        When True the GPU path gets the tuned-stencil compute
        efficiency treatment instead of the generic one.
    """

    name: str
    flops: float
    bytes_read: float
    bytes_written: float
    launches: int = 1
    precision: str = "fp64"
    compute_efficiency: float = 0.70
    bandwidth_efficiency: float = 0.75
    uses_shared_memory: bool = False

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_read < 0 or self.bytes_written < 0:
            raise ValueError(f"kernel {self.name!r}: negative work")
        if self.launches < 0:
            raise ValueError(f"kernel {self.name!r}: negative launches")
        if self.precision not in ("fp64", "fp32"):
            raise ValueError(f"kernel {self.name!r}: bad precision {self.precision!r}")
        if not (0.0 < self.compute_efficiency <= 1.0):
            raise ValueError(f"kernel {self.name!r}: compute_efficiency out of (0,1]")
        if not (0.0 < self.bandwidth_efficiency <= 1.0):
            raise ValueError(f"kernel {self.name!r}: bandwidth_efficiency out of (0,1]")

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written

    @property
    def pricing_fingerprint(self) -> Tuple:
        """Everything the roofline model's per-launch time depends on.

        Excludes ``name`` (labels don't change time) and ``launches``
        (pricing is linear in launches).  Used as the memoization key
        by :class:`~repro.core.roofline.RooflineModel` and as the
        grouping key for trace compaction.
        """
        return (
            self.flops,
            self.bytes_read,
            self.bytes_written,
            self.precision,
            self.compute_efficiency,
            self.bandwidth_efficiency,
            self.uses_shared_memory,
        )

    @property
    def identity(self) -> Tuple:
        """Fingerprint plus name: two specs with equal identity are
        interchangeable in a trace up to their launch counts."""
        return (self.name,) + self.pricing_fingerprint

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte; ``inf`` for pure-compute kernels."""
        total = self.bytes_total
        if total == 0:
            return float("inf")
        return self.flops / total

    def scaled(self, factor: float) -> "KernelSpec":
        """Return a copy with work scaled by *factor* (problem resizing)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return replace(
            self,
            flops=self.flops * factor,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
        )


@dataclass(frozen=True)
class TransferSpec:
    """One host<->device (or node<->node) data movement."""

    name: str
    nbytes: float
    #: "h2d", "d2h", or "net"
    direction: str = "h2d"
    count: int = 1

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"transfer {self.name!r}: negative size")
        if self.direction not in ("h2d", "d2h", "net"):
            raise ValueError(f"transfer {self.name!r}: bad direction")
        if self.count < 0:
            raise ValueError(f"transfer {self.name!r}: negative count")


class KernelTrace:
    """Ordered record of kernels and transfers from an execution.

    The trace is additive: the same kernel name may appear repeatedly
    (once per launch site) and is aggregated on demand.

    With ``compacting=True`` the trace coalesces on the fly: a recorded
    kernel identical to the previous one (same :attr:`KernelSpec.identity`,
    any launch count) folds into it by summing launches, and likewise
    for back-to-back identical transfers.  Hot loops that emit the same
    spec 10^5 times then cost O(unique specs) memory and pricing time
    instead of O(launches).  Compaction never changes modeled time:
    pricing is linear in launches (see :meth:`compacted`).
    """

    def __init__(self, compacting: bool = False) -> None:
        self.kernels: List[KernelSpec] = []
        self.transfers: List[TransferSpec] = []
        self.compacting = compacting
        #: kernels recorded (pre-compaction), for accounting
        self.recorded_kernels = 0

    def record_kernel(self, spec: KernelSpec) -> None:
        self.recorded_kernels += 1
        if self.compacting and self.kernels:
            last = self.kernels[-1]
            if last.identity == spec.identity:
                self.kernels[-1] = replace(
                    last, launches=last.launches + spec.launches
                )
                return
        self.kernels.append(spec)

    def record_transfer(self, spec: TransferSpec) -> None:
        if self.compacting and self.transfers:
            last = self.transfers[-1]
            if (last.name, last.nbytes, last.direction) == (
                spec.name, spec.nbytes, spec.direction
            ):
                self.transfers[-1] = replace(
                    last, count=last.count + spec.count
                )
                return
        self.transfers.append(spec)

    def extend(self, other: "KernelTrace") -> None:
        if self.compacting:
            for k in other.kernels:
                self.record_kernel(k)
            for t in other.transfers:
                self.record_transfer(t)
        else:
            self.kernels.extend(other.kernels)
            self.transfers.extend(other.transfers)
            self.recorded_kernels += other.recorded_kernels

    def compacted(self) -> "KernelTrace":
        """Return a compacted copy: identical specs merged into
        (spec, summed launches) groups, first-occurrence order.

        Because per-launch time depends only on
        :attr:`KernelSpec.pricing_fingerprint` and total time is linear
        in launches (and transfer time linear in count), the compacted
        trace prices identically to this one up to floating-point
        summation order.
        """
        out = KernelTrace()
        out.recorded_kernels = self.recorded_kernels
        kpos: Dict[Tuple, int] = {}
        for k in self.kernels:
            key = k.identity
            at = kpos.get(key)
            if at is None:
                kpos[key] = len(out.kernels)
                out.kernels.append(k)
            else:
                prev = out.kernels[at]
                out.kernels[at] = replace(
                    prev, launches=prev.launches + k.launches
                )
        tpos: Dict[Tuple, int] = {}
        for t in self.transfers:
            key = (t.name, t.nbytes, t.direction)
            at = tpos.get(key)
            if at is None:
                tpos[key] = len(out.transfers)
                out.transfers.append(t)
            else:
                prev = out.transfers[at]
                out.transfers[at] = replace(prev, count=prev.count + t.count)
        return out

    # -- aggregate views -------------------------------------------------

    @property
    def total_flops(self) -> float:
        return sum(k.flops * k.launches for k in self.kernels)

    @property
    def total_bytes(self) -> float:
        return sum(k.bytes_total * k.launches for k in self.kernels)

    @property
    def total_launches(self) -> int:
        return sum(k.launches for k in self.kernels)

    @property
    def total_transfer_bytes(self) -> float:
        return sum(t.nbytes * t.count for t in self.transfers)

    def by_name(self) -> Dict[str, KernelSpec]:
        """Aggregate kernels with the same name into one spec."""
        merged: Dict[str, KernelSpec] = {}
        for k in self.kernels:
            if k.name not in merged:
                merged[k.name] = k
            else:
                prev = merged[k.name]
                merged[k.name] = replace(
                    prev,
                    flops=prev.flops + k.flops * k.launches / max(prev.launches, 1),
                    bytes_read=prev.bytes_read
                    + k.bytes_read * k.launches / max(prev.launches, 1),
                    bytes_written=prev.bytes_written
                    + k.bytes_written * k.launches / max(prev.launches, 1),
                )
        return merged

    def clear(self) -> None:
        self.kernels.clear()
        self.transfers.clear()

    def __len__(self) -> int:
        return len(self.kernels) + len(self.transfers)
