"""Tests for trace compaction and compacted roofline pricing.

The load-bearing invariant: roofline pricing is linear in launches, so
a compacted trace (identical specs coalesced into launch counts) must
price identically to the raw trace — on every machine in the catalog,
on both sides, and for traces produced by fault-injected resilience
runs, whose restarts re-record whole kernel sequences.
"""

import numpy as np
import pytest

from repro.core.forall import ExecutionContext
from repro.core.kernels import KernelSpec, KernelTrace, TransferSpec
from repro.core.machine import MACHINES
from repro.core.roofline import RooflineModel


def spec(name="k", flops=1e9, br=4e8, bw=2e8, launches=1, **kw):
    return KernelSpec(name=name, flops=flops, bytes_read=br,
                      bytes_written=bw, launches=launches, **kw)


def repetitive_trace(reps=50):
    """A trace shaped like an iterative solve: the same few kernels
    over and over, with a periodic transfer."""
    tr = KernelTrace()
    specs = [
        spec("spmv", flops=2e9, br=1.2e9, bw=4e8),
        spec("axpy", flops=5e8, br=8e8, bw=4e8),
        spec("dot", flops=5e8, br=8e8, bw=8.0),
    ]
    for i in range(reps):
        for s in specs:
            tr.record_kernel(s)
        if i % 10 == 0:
            tr.record_transfer(TransferSpec("halo", nbytes=1e6,
                                            direction="d2h"))
    return tr


GPU_MACHINES = sorted(n for n, m in MACHINES.items() if m.gpu is not None)
ALL_MACHINES = sorted(MACHINES)


class TestCompactedPricing:
    @pytest.mark.parametrize("name", GPU_MACHINES)
    def test_gpu_pricing_invariant_all_machines(self, name):
        tr = repetitive_trace()
        model = RooflineModel(MACHINES[name])
        raw = model.run_on_gpu(tr)
        compact = model.run_on_gpu(tr, compact=True)
        assert compact.total == pytest.approx(raw.total, rel=1e-12)
        assert compact.kernel_time == pytest.approx(raw.kernel_time,
                                                    rel=1e-12)
        assert compact.launch_time == pytest.approx(raw.launch_time,
                                                    rel=1e-12)
        assert compact.transfer_time == pytest.approx(raw.transfer_time,
                                                      rel=1e-12)

    @pytest.mark.parametrize("name", ALL_MACHINES)
    def test_cpu_pricing_invariant_all_machines(self, name):
        tr = repetitive_trace()
        model = RooflineModel(MACHINES[name])
        raw = model.run_on_cpu(tr)
        compact = model.run_on_cpu(tr, compact=True)
        assert compact.total == pytest.approx(raw.total, rel=1e-12)

    def test_memo_does_not_change_prices(self):
        tr = repetitive_trace()
        machine = MACHINES["sierra"]
        memo = RooflineModel(machine).run_on_gpu(tr)
        plain = RooflineModel(machine, memo_size=0).run_on_gpu(tr)
        assert memo.total == pytest.approx(plain.total, rel=1e-12)

    def test_memo_hit_rate_on_repetitive_trace(self):
        model = RooflineModel(MACHINES["sierra"])
        model.run_on_gpu(repetitive_trace(reps=100))
        # 3 unique specs -> 3 misses, everything else hits
        assert model.memo_misses == 3
        assert model.memo_hits == 297

    def test_fault_injected_resilience_trace_prices_identically(self):
        """Traces from checkpoint/restart runs (PR 1) compact safely:
        restarted sequences are exact re-records, the best case for
        coalescing — and must not change the modeled cost."""
        from repro.md.ddcmd import DdcMD, make_martini_membrane
        from repro.md.integrators import LangevinThermostat
        from repro.resilience import FaultInjector, ResilientDriver

        system, proc, bonds, angles = make_martini_membrane(
            n_lipids_per_leaflet=4, n_water=8, seed=3
        )
        ctx = ExecutionContext()
        md = DdcMD(
            system, proc, dt=0.002, bonds=bonds, angles=angles,
            thermostat=LangevinThermostat(temperature=1.0, friction=1.0,
                                          seed=7),
            ctx=ctx,
        )
        report = ResilientDriver(
            md, cadence=4,
            injector=FaultInjector(kill_per_step=0.1, seed=11),
        ).run(max_steps=24)
        assert report.kills > 0  # the fault path actually ran
        tr = ctx.trace
        assert len(tr.kernels) > 24  # restarts re-recorded work
        compacted = tr.compacted()
        assert len(compacted.kernels) < len(tr.kernels)
        assert compacted.total_launches == tr.total_launches
        for name in ("sierra", "ea-minsky"):
            model = RooflineModel(MACHINES[name])
            raw = model.run_on_gpu(tr)
            fast = model.run_on_gpu(tr, compact=True)
            assert fast.total == pytest.approx(raw.total, rel=1e-12)
