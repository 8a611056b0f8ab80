"""Tests for the Cretin/minikin proxy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.machine import get_machine
from repro.core.memory import AllocationError
from repro.kinetics.atomicmodel import MODEL_SIZES, AtomicModel, make_model
from repro.kinetics.minikin import (
    Minikin,
    Zone,
    cpu_usable_threads,
    gpu_speedup,
    node_throughput,
    zone_memory_bytes,
)
from repro.kinetics.ratematrix import (
    assemble_rate_matrix,
    boltzmann_populations,
    evolve_populations,
    steady_state_populations,
)
from repro.kinetics.rates import (
    collisional_deexcitation,
    collisional_excitation,
    radiative_decay,
)


@pytest.fixture(scope="module")
def model():
    return make_model("small", seed=3)


class TestAtomicModel:
    def test_size_classes(self):
        assert set(MODEL_SIZES) == {"small", "medium", "large", "xlarge"}
        for size, n in MODEL_SIZES.items():
            assert make_model(size).n_levels == n

    def test_energies_ascending(self, model):
        assert np.all(np.diff(model.energies) > 0)

    def test_connected_chain(self, model):
        """Every adjacent level pair must be radiatively connected so
        the rate matrix is irreducible."""
        f = model.oscillator_strengths
        for k in range(model.n_levels - 1):
            assert f[k, k + 1] > 0

    def test_memory_scales_quadratically(self):
        s, m = make_model("small"), make_model("medium")
        ratio = m.matrix_bytes / s.matrix_bytes
        assert ratio == pytest.approx((m.n_levels / s.n_levels) ** 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_model("giant")
        with pytest.raises(ValueError):
            make_model("small", transition_fill=0.0)
        with pytest.raises(ValueError):
            AtomicModel(
                "x", np.array([0.0, -1.0]), np.array([1.0, 1.0]),
                np.zeros((2, 2)),
            )


class TestRates:
    def test_excitation_upper_levels_only(self, model):
        r = collisional_excitation(model, 0.5, 1.0)
        # r[j, i] nonzero only for j > i (lower triangle of output)
        assert np.allclose(np.triu(r, k=0), 0.0)

    def test_deexcitation_lower_levels_only(self, model):
        r = collisional_deexcitation(model, 0.5, 1.0)
        assert np.allclose(np.tril(r, k=0), 0.0)

    def test_rates_scale_with_density(self, model):
        r1 = collisional_excitation(model, 0.5, 1.0)
        r2 = collisional_excitation(model, 0.5, 2.0)
        np.testing.assert_allclose(r2, 2.0 * r1)

    def test_radiative_independent_of_conditions(self, model):
        a = radiative_decay(model)
        assert np.allclose(np.tril(a, k=0), 0.0)
        assert a.max() > 0

    def test_detailed_balance_identity(self, model):
        """g_i n_i^B C_up(i->j) == g-weighted reverse rate at Boltzmann."""
        t = 0.4
        up = collisional_excitation(model, t, 1.0)
        down = collisional_deexcitation(model, t, 1.0)
        nb = boltzmann_populations(model, t)
        flow_up = up * nb[None, :]     # flux j<-i: up[j,i]*n_i
        flow_down = down * nb[None, :]
        np.testing.assert_allclose(flow_up, flow_down.T, rtol=1e-10,
                                   atol=1e-300)

    def test_validation(self, model):
        with pytest.raises(ValueError):
            collisional_excitation(model, 0.0, 1.0)
        with pytest.raises(ValueError):
            collisional_excitation(model, 1.0, -1.0)


class TestRateMatrix:
    def test_columns_sum_to_zero(self, model):
        r = assemble_rate_matrix(model, 0.5, 1.0)
        np.testing.assert_allclose(r.sum(axis=0), 0.0, atol=1e-12)

    def test_collisional_limit_is_boltzmann(self, model):
        r = assemble_rate_matrix(model, 0.3, 10.0, include_radiative=False)
        pops = steady_state_populations(r)
        np.testing.assert_allclose(
            pops, boltzmann_populations(model, 0.3), atol=1e-12
        )

    def test_high_density_approaches_lte(self, model):
        """Radiative rates become negligible at high electron density."""
        t = 0.3
        lte = boltzmann_populations(model, t)
        err = []
        for n_e in (0.01, 100.0):
            pops = steady_state_populations(
                assemble_rate_matrix(model, t, n_e)
            )
            err.append(np.abs(pops - lte).max())
        assert err[1] < err[0]

    def test_populations_normalized_positive(self, model):
        r = assemble_rate_matrix(model, 0.2, 0.5)
        pops = steady_state_populations(r)
        assert pops.sum() == pytest.approx(1.0)
        assert np.all(pops >= 0)

    def test_time_evolution_reaches_steady_state(self, model):
        r = assemble_rate_matrix(model, 0.3, 5.0)
        n0 = np.zeros(model.n_levels)
        n0[0] = 1.0
        n_final = evolve_populations(r, n0, dt=10.0, n_steps=4000)
        steady = steady_state_populations(r)
        np.testing.assert_allclose(n_final, steady, atol=1e-6)

    def test_time_evolution_conserves_total(self, model):
        r = assemble_rate_matrix(model, 0.3, 1.0)
        n0 = boltzmann_populations(model, 1.0)
        n1 = evolve_populations(r, n0, dt=0.1, n_steps=100)
        assert n1.sum() == pytest.approx(1.0, rel=1e-9)

    @given(t=st.floats(min_value=0.1, max_value=2.0),
           n_e=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=10, deadline=None)
    def test_steady_state_property(self, t, n_e):
        m = make_model("small", seed=7)
        r = assemble_rate_matrix(m, t, n_e)
        pops = steady_state_populations(r)
        # R n = 0 up to solver tolerance
        assert np.abs(r @ pops).max() < 1e-8 * np.abs(r).max()


class TestMinikin:
    def test_zones_differ(self, model):
        mk = Minikin(model)
        cold = mk.solve_zone(Zone(0.1, 1.0))
        hot = mk.solve_zone(Zone(2.0, 1.0))
        assert np.abs(cold - hot).max() > 0.01

    def test_zone_validation(self):
        with pytest.raises(ValueError):
            Zone(0.0, 1.0)
        with pytest.raises(ValueError):
            Zone(1.0, -1.0)

class TestThroughputModel:
    def test_large_model_speedup_near_paper(self):
        """§4.3: 'For our second largest atomic model, the GPU
        processing rate per node is 5.75X the rate for CPUs.'"""
        s = gpu_speedup(get_machine("sierra"), make_model("large"))
        assert 4.5 < s < 7.0

    def test_largest_model_idles_most_cpu_cores(self):
        """§4.3: 'memory constraints require idling 60% of CPU cores'."""
        sierra = get_machine("sierra")
        info = node_throughput(sierra, make_model("xlarge"), "cpu")
        assert 0.45 < info["idle_fraction"] < 0.7

    def test_largest_model_speedup_much_higher(self):
        sierra = get_machine("sierra")
        s_large = gpu_speedup(sierra, make_model("large"))
        s_xl = gpu_speedup(sierra, make_model("xlarge"))
        assert s_xl > 1.5 * s_large

    def test_small_model_gpu_not_worth_it(self):
        """Tiny models do not amortize GPU launches — the reason the
        GPU port targets big models."""
        s = gpu_speedup(get_machine("sierra"), make_model("small"))
        assert s < 1.0

    def test_no_idling_for_second_largest(self):
        info = node_throughput(get_machine("sierra"), make_model("large"),
                               "cpu")
        assert info["idle_fraction"] == 0.0

    def test_zone_must_fit_gpu_memory(self):
        """A model whose single-zone workspace exceeds device memory is
        rejected — the hard constraint the threading redesign removed
        for CPUs is still real for the GPU."""
        sierra = get_machine("sierra")
        with pytest.raises(AllocationError):
            node_throughput(sierra, make_model("xlarge"), "gpu",
                            n_freq_bins=30000)

    def test_strategy_validation(self):
        sierra = get_machine("sierra")
        with pytest.raises(ValueError):
            node_throughput(sierra, make_model("small"), "tpu")
        with pytest.raises(ValueError):
            node_throughput(get_machine("cori-ii"), make_model("small"),
                            "gpu")

    def test_cpu_threads_monotone_in_model_size(self):
        sierra = get_machine("sierra")
        threads = [
            cpu_usable_threads(sierra, make_model(s))
            for s in ("small", "medium", "large", "xlarge")
        ]
        assert all(a >= b for a, b in zip(threads, threads[1:]))
