"""Tests for KernelSpec / TransferSpec / KernelTrace."""

import numpy as np
import pytest

from repro.core.kernels import KernelSpec, KernelTrace, TransferSpec


def spec(name="k", flops=1e6, br=8e6, bw=4e6, launches=1, **kw):
    return KernelSpec(
        name=name, flops=flops, bytes_read=br, bytes_written=bw,
        launches=launches, **kw
    )


class TestKernelSpec:
    def test_arithmetic_intensity(self):
        k = spec(flops=12e6, br=8e6, bw=4e6)
        assert k.arithmetic_intensity == pytest.approx(1.0)

    def test_pure_compute_intensity_inf(self):
        k = spec(flops=1e6, br=0, bw=0)
        assert k.arithmetic_intensity == float("inf")

    @pytest.mark.parametrize("field,value", [
        ("flops", -1.0), ("bytes_read", -1.0), ("bytes_written", -1.0),
    ])
    def test_negative_work_rejected(self, field, value):
        kwargs = dict(name="k", flops=1.0, bytes_read=1.0, bytes_written=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            KernelSpec(**kwargs)

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError):
            spec(precision="fp16")

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ValueError):
            spec(compute_efficiency=0.0)
        with pytest.raises(ValueError):
            spec(bandwidth_efficiency=1.5)

    def test_scaled(self):
        k = spec(flops=10, br=20, bw=30).scaled(2.0)
        assert k.flops == 20 and k.bytes_read == 40 and k.bytes_written == 60

    def test_scaled_negative_raises(self):
        with pytest.raises(ValueError):
            spec().scaled(-1)


class TestTransferSpec:
    def test_valid(self):
        t = TransferSpec("x", nbytes=1e6, direction="d2h", count=3)
        assert t.nbytes == 1e6

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            TransferSpec("x", nbytes=1.0, direction="sideways")

    def test_negative_size(self):
        with pytest.raises(ValueError):
            TransferSpec("x", nbytes=-1.0)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            TransferSpec("x", nbytes=1.0, count=-2)


class TestKernelTrace:
    def test_totals(self):
        tr = KernelTrace()
        tr.record_kernel(spec(flops=10, br=20, bw=30, launches=2))
        tr.record_kernel(spec(flops=5, br=0, bw=0))
        assert tr.total_flops == pytest.approx(25)
        assert tr.total_bytes == pytest.approx(100)
        assert tr.total_launches == 3

    def test_transfer_totals(self):
        tr = KernelTrace()
        tr.record_transfer(TransferSpec("t", nbytes=100, count=3))
        assert tr.total_transfer_bytes == pytest.approx(300)

    def test_extend(self):
        a, b = KernelTrace(), KernelTrace()
        a.record_kernel(spec())
        b.record_kernel(spec())
        b.record_transfer(TransferSpec("t", nbytes=1))
        a.extend(b)
        assert len(a) == 3

    def test_clear(self):
        tr = KernelTrace()
        tr.record_kernel(spec())
        tr.clear()
        assert len(tr) == 0
        assert tr.total_flops == 0


class TestCompaction:
    def test_compacting_trace_folds_repeats(self):
        tr = KernelTrace(compacting=True)
        for _ in range(100):
            tr.record_kernel(spec("k"))
        assert len(tr.kernels) == 1
        assert tr.kernels[0].launches == 100
        assert tr.recorded_kernels == 100
        assert tr.total_launches == 100

    def test_compacting_distinguishes_names(self):
        tr = KernelTrace(compacting=True)
        tr.record_kernel(spec("a"))
        tr.record_kernel(spec("b"))
        tr.record_kernel(spec("a"))
        # a, b, a: the non-adjacent repeat starts a new entry
        assert [k.name for k in tr.kernels] == ["a", "b", "a"]

    def test_compacting_distinguishes_pricing_fields(self):
        tr = KernelTrace(compacting=True)
        tr.record_kernel(spec("k", flops=1e6))
        tr.record_kernel(spec("k", flops=2e6))
        assert len(tr.kernels) == 2

    def test_compacting_transfers(self):
        tr = KernelTrace(compacting=True)
        for _ in range(10):
            tr.record_transfer(TransferSpec("t", nbytes=100))
        assert len(tr.transfers) == 1
        assert tr.transfers[0].count == 10
        assert tr.total_transfer_bytes == pytest.approx(1000)

    def test_compacted_copy_preserves_totals(self):
        tr = KernelTrace()
        for i in range(60):
            tr.record_kernel(spec(f"k{i % 3}", flops=1e6 * (i % 3 + 1)))
            tr.record_transfer(TransferSpec("t", nbytes=10))
        c = tr.compacted()
        assert len(c.kernels) == 3
        assert c.total_flops == pytest.approx(tr.total_flops)
        assert c.total_bytes == pytest.approx(tr.total_bytes)
        assert c.total_launches == tr.total_launches
        assert c.total_transfer_bytes == pytest.approx(tr.total_transfer_bytes)

    def test_compacted_preserves_first_occurrence_order(self):
        tr = KernelTrace()
        for name in ["b", "a", "b", "c", "a"]:
            tr.record_kernel(spec(name))
        assert [k.name for k in tr.compacted().kernels] == ["b", "a", "c"]

    def test_compacted_of_compacting_trace_is_stable(self):
        tr = KernelTrace(compacting=True)
        for _ in range(5):
            tr.record_kernel(spec("k"))
        c = tr.compacted()
        assert len(c.kernels) == 1
        assert c.kernels[0].launches == 5

    def test_extend_into_compacting_trace(self):
        src = KernelTrace()
        for _ in range(4):
            src.record_kernel(spec("k"))
        dst = KernelTrace(compacting=True)
        dst.extend(src)
        assert len(dst.kernels) == 1
        assert dst.kernels[0].launches == 4

    def test_identity_vs_pricing_fingerprint(self):
        a, b = spec("a"), spec("b")
        assert a.pricing_fingerprint == b.pricing_fingerprint
        assert a.identity != b.identity
        assert a.identity == spec("a", launches=7).identity  # launches excluded
