"""Tests for the Cardioid proxy: ion model, DSL, placement."""

import numpy as np
import pytest

from repro.cardioid.dsl import RationalFit, ReactionKernelGenerator
from repro.cardioid.ionmodels import (
    RATE_FUNCTIONS,
    V_RANGE,
    HodgkinHuxleyModel,
    reference_rates,
)
from repro.cardioid.simulation import placement_decision
from repro.core.machine import get_machine


class TestIonModel:
    def test_resting_state_is_stable(self):
        m = HodgkinHuxleyModel(4)
        v0 = m.v.copy()
        for _ in range(500):
            m.step_reaction(0.02)
        np.testing.assert_allclose(m.v, v0, atol=0.5)

    def test_action_potential_fires_and_repolarizes(self):
        m = HodgkinHuxleyModel(1)
        stim = np.array([12.0])
        peak = -100.0
        for k in range(3000):
            m.step_reaction(0.01, i_stim=stim if k < 100 else None)
            peak = max(peak, float(m.v[0]))
        assert peak > 20.0            # depolarization overshoot
        assert m.v[0] < -50.0         # back near rest

    def test_subthreshold_stim_no_spike(self):
        m = HodgkinHuxleyModel(1)
        stim = np.array([1.0])
        peak = -100.0
        for k in range(2000):
            m.step_reaction(0.01, i_stim=stim if k < 50 else None)
            peak = max(peak, float(m.v[0]))
        assert peak < 0.0

    def test_gates_stay_in_unit_interval(self):
        m = HodgkinHuxleyModel(8)
        stim = np.full(8, 15.0)
        for k in range(1000):
            m.step_reaction(0.02, i_stim=stim if k < 100 else None)
            for g in (m.m, m.h, m.n):
                assert np.all(g >= 0.0) and np.all(g <= 1.0)

    def test_rates_positive_on_range(self):
        v = np.linspace(*V_RANGE, 500)
        for name, vals in reference_rates(v).items():
            assert np.all(vals > 0), name

    def test_validation(self):
        with pytest.raises(ValueError):
            HodgkinHuxleyModel(0)
        m = HodgkinHuxleyModel(1)
        with pytest.raises(ValueError):
            m.step_reaction(0.0)

    def test_state_shape(self):
        assert HodgkinHuxleyModel(5).state().shape == (5, 4)


class TestRationalFit:
    def test_exp_fit_tight(self):
        fit = RationalFit.fit(np.exp, (-3.0, 3.0), 8, 4)
        assert fit.max_rel_error < 1e-8

    def test_polynomial_fit_exact(self):
        fit = RationalFit.fit(lambda x: 1 + 2 * x + x**2, (0.0, 1.0), 4, 0)
        assert fit.max_rel_error < 1e-10

    def test_callable_matches_reported_error(self):
        fn = np.cos
        fit = RationalFit.fit(fn, (-1.0, 1.0), 6, 2)
        x = np.linspace(-1, 1, 777)
        err = np.max(np.abs(fit(x) - fn(x)) / np.maximum(np.abs(fn(x)), 1e-12))
        assert err <= fit.max_rel_error * 1.5 + 1e-14

    def test_empty_domain(self):
        with pytest.raises(ValueError):
            RationalFit.fit(np.exp, (1.0, 1.0))

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            RationalFit.fit(np.exp, (0.0, 1.0), num_degree=-1)

    def test_nonfinite_function_rejected(self):
        with pytest.raises(ValueError):
            with np.errstate(invalid="ignore"):
                RationalFit.fit(lambda x: np.log(x - 2.0), (0.0, 1.0))


class TestReactionKernelGenerator:
    @pytest.fixture(scope="class")
    def gen(self):
        return ReactionKernelGenerator(RATE_FUNCTIONS, V_RANGE, tolerance=1e-5)

    def test_all_rates_fit_within_tolerance(self, gen):
        assert gen.worst_fit_error() <= 1e-5

    def test_baked_matches_reference(self, gen):
        v = np.linspace(*V_RANGE, 1200)
        ref = reference_rates(v)
        out = gen.generate_baked()(v)
        for name in ref:
            rel = np.max(
                np.abs(out[name] - ref[name])
                / np.maximum(np.abs(ref[name]), 1e-12)
            )
            assert rel < 2e-5, name

    def test_runtime_and_baked_agree(self, gen):
        v = np.linspace(*V_RANGE, 300)
        baked = gen.generate_baked()(v)
        runtime = gen.generate_runtime()(v)
        for name in baked:
            np.testing.assert_allclose(baked[name], runtime[name], rtol=1e-9)

    def test_baked_source_contains_literals_not_lookups(self, gen):
        gen.generate_baked()
        # the compiled source is cached in the JIT; inspect it
        sources = [k.source for k in gen.jit._cache.values()]
        baked_src = next(s for s in sources if "coefficients baked" in s)
        assert "_coeff_tables" not in baked_src
        assert "e-" in baked_src or "." in baked_src  # float literals

    def test_no_transcendentals_in_generated_kernel(self, gen):
        sources = [k.source for k in gen.jit._cache.values()]
        baked_src = next(s for s in sources if "coefficients baked" in s)
        assert "exp" not in baked_src

    def test_model_runs_with_dsl_rates(self, gen):
        """Full AP simulation with the DSL kernel tracks the reference
        model closely."""
        baked = gen.generate_baked()
        m_ref = HodgkinHuxleyModel(1)
        m_dsl = HodgkinHuxleyModel(1, rates=lambda v: baked(v))
        stim = np.array([12.0])
        for k in range(1500):
            s = stim if k < 100 else None
            m_ref.step_reaction(0.01, i_stim=s)
            m_dsl.step_reaction(0.01, i_stim=s)
        assert abs(m_ref.v[0] - m_dsl.v[0]) < 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ReactionKernelGenerator({}, V_RANGE)
        with pytest.raises(ValueError):
            ReactionKernelGenerator(RATE_FUNCTIONS, V_RANGE, tolerance=0.0)


class TestPlacement:
    def test_all_gpu_wins_on_sierra(self):
        """The §4.1 decision: keeping diffusion on the GPU beats moving
        data to the CPU every step, despite competitive CPU kernels."""
        result = placement_decision(get_machine("sierra"), 50_000_000)
        assert result["winner"] == "all_gpu"
        assert result["transfer_per_step"] > 0

    def test_transfer_cost_drives_decision(self):
        result = placement_decision(get_machine("sierra"), 50_000_000)
        # the CPU placement's penalty is dominated by transfers
        cpu_kernel_only = result["cpu_diffusion_per_step"] - result["transfer_per_step"]
        assert result["transfer_per_step"] > 0.2 * cpu_kernel_only

    def test_needs_gpu_machine(self):
        with pytest.raises(ValueError):
            placement_decision(get_machine("cori-ii"), 1000)
