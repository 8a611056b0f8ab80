"""Tests for the SUNDIALS proxy: NVector backends and integrators."""

import numpy as np
import pytest

from repro.core.memory import MemorySpace, ResourceManager
from repro.ode.bdf import BdfIntegrator, BdfOptions
from repro.ode.nvector import DeviceVector, HostVector


class TestHostVector:
    def test_linear_sum(self):
        x = HostVector(np.array([1.0, 2.0]))
        y = HostVector(np.array([10.0, 20.0]))
        z = HostVector.zeros(2)
        z.linear_sum(2.0, x, 0.5, y)
        np.testing.assert_allclose(z.array, [7.0, 14.0])

    def test_elementwise_ops(self):
        x = HostVector(np.array([2.0, 4.0]))
        y = HostVector(np.array([1.0, 2.0]))
        z = HostVector.zeros(2)
        z.prod(x, y)
        np.testing.assert_allclose(z.array, [2.0, 8.0])
        z.div(x, y)
        np.testing.assert_allclose(z.array, [2.0, 2.0])
        z.inv(x)
        np.testing.assert_allclose(z.array, [0.5, 0.25])
        z.abs_of(HostVector(np.array([-3.0, 3.0])))
        np.testing.assert_allclose(z.array, [3.0, 3.0])
        z.add_const(x, 1.0)
        np.testing.assert_allclose(z.array, [3.0, 5.0])

    def test_reductions(self):
        x = HostVector(np.array([3.0, -4.0]))
        assert x.dot(x) == pytest.approx(25.0)
        assert x.max_norm() == pytest.approx(4.0)
        assert x.l1_norm() == pytest.approx(7.0)
        assert x.min_value() == pytest.approx(-4.0)
        w = HostVector(np.array([1.0, 1.0]))
        assert x.wrms_norm(w) == pytest.approx(np.sqrt(12.5))

    def test_clone_is_zero(self):
        x = HostVector(np.array([1.0, 2.0]))
        c = x.clone()
        np.testing.assert_allclose(c.array, 0.0)
        assert c.size == 2


class TestDeviceVector:
    def test_from_host_records_h2d(self):
        rm = ResourceManager()
        v = DeviceVector.from_host(np.arange(4.0), rm)
        assert any(t.direction == "h2d" for t in rm.trace.transfers)
        np.testing.assert_allclose(v.array, [0, 1, 2, 3])

    def test_ops_do_not_transfer(self):
        """The integration loop must be transfer-free (§4.10.2)."""
        rm = ResourceManager()
        x = DeviceVector.from_host(np.ones(8), rm)
        y = DeviceVector.from_host(np.ones(8), rm)
        n0 = len(rm.trace.transfers)
        z = x.clone()
        z.linear_sum(1.0, x, 2.0, y)
        z.prod(x, y)
        _ = z.dot(x)
        _ = z.wrms_norm(y)
        assert len(rm.trace.transfers) == n0

    def test_to_host_records_d2h(self):
        rm = ResourceManager()
        v = DeviceVector.from_host(np.arange(3.0), rm)
        out = v.to_host()
        np.testing.assert_allclose(out, [0, 1, 2])
        assert any(t.direction == "d2h" for t in rm.trace.transfers)

    def test_requires_device_space(self):
        rm = ResourceManager()
        host_arr = rm.allocate((4,), space=MemorySpace.HOST)
        with pytest.raises(ValueError):
            DeviceVector(host_arr, rm)

    def test_zeros(self):
        rm = ResourceManager()
        v = DeviceVector.zeros(5, rm)
        np.testing.assert_allclose(v.array, 0.0)
        assert rm.live_bytes(MemorySpace.DEVICE) == 40


def _decay_problem(lam=50.0):
    """u' = -lam u, exact exp(-lam t)."""

    def rhs(t, u):
        return -lam * u

    def make_ls(gamma, t, u):
        return lambda r: r / (1.0 + gamma * lam)

    return rhs, make_ls


class TestBdfIntegrator:
    def test_linear_decay_accuracy(self):
        rhs, make_ls = _decay_problem(lam=5.0)
        integ = BdfIntegrator(rhs, make_ls,
                              options=BdfOptions(rtol=1e-8, atol=1e-12))
        ts, us = integ.integrate(0.0, np.array([1.0]), 1.0)
        assert us[-1, 0] == pytest.approx(np.exp(-5.0), rel=1e-5)

    def test_matches_exact_on_smooth_problem(self):
        rhs, make_ls = _decay_problem(lam=0.5)
        integ = BdfIntegrator(rhs, make_ls,
                              options=BdfOptions(rtol=1e-8, atol=1e-11))
        _, us = integ.integrate(0.0, np.ones(1), 1.0)
        assert us[-1, 0] == pytest.approx(np.exp(-0.5), rel=1e-5)

    def test_stiff_oscillator_tracks_forcing(self):
        """Prothero-Robinson: u' = -L(u - cos t) - sin t, u -> cos t."""
        lam = 1e4

        def rhs(t, u):
            return -lam * (u - np.cos(t)) - np.sin(t)

        def make_ls(gamma, t, u):
            return lambda r: r / (1.0 + gamma * lam)

        integ = BdfIntegrator(rhs, make_ls,
                              options=BdfOptions(rtol=1e-6, atol=1e-9))
        ts, us = integ.integrate(0.0, np.array([1.0]), 1.5,
                                 t_eval=np.array([0.5, 1.0, 1.5]))
        np.testing.assert_allclose(us.ravel(), np.cos(ts), atol=1e-4)

    def test_stiffness_efficiency(self):
        """The implicit method must not need O(lam) steps."""
        rhs, make_ls = _decay_problem(lam=1e6)
        integ = BdfIntegrator(rhs, make_ls,
                              options=BdfOptions(rtol=1e-4, atol=1e-8))
        integ.integrate(0.0, np.array([1.0]), 1.0)
        assert integ.stats.n_steps < 2000

    def test_mass_matrix_form(self):
        """2 u' = -2 u with M=2I must equal u' = -u."""

        def rhs(t, u):
            return -2.0 * u

        def make_ls(gamma, t, u):
            return lambda r: r / (2.0 + gamma * 2.0)

        integ = BdfIntegrator(rhs, make_ls, mass_mult=lambda v: 2.0 * v,
                              options=BdfOptions(rtol=1e-8, atol=1e-12))
        _, us = integ.integrate(0.0, np.array([1.0]), 1.0)
        assert us[-1, 0] == pytest.approx(np.exp(-1.0), rel=1e-5)

    def test_vector_system(self):
        """Two independent decays integrated together."""
        lam = np.array([1.0, 100.0])

        def rhs(t, u):
            return -lam * u

        def make_ls(gamma, t, u):
            return lambda r: r / (1.0 + gamma * lam)

        integ = BdfIntegrator(rhs, make_ls,
                              options=BdfOptions(rtol=1e-7, atol=1e-10))
        _, us = integ.integrate(0.0, np.ones(2), 0.5)
        np.testing.assert_allclose(us[-1], np.exp(-lam * 0.5), rtol=1e-4,
                                   atol=1e-8)

    def test_output_times_hit_exactly(self):
        rhs, make_ls = _decay_problem(lam=1.0)
        integ = BdfIntegrator(rhs, make_ls)
        t_eval = np.array([0.25, 0.5, 0.75, 1.0])
        ts, us = integ.integrate(0.0, np.array([1.0]), 1.0, t_eval=t_eval)
        np.testing.assert_allclose(ts, t_eval)
        assert us.shape == (4, 1)

    def test_stats_populated(self):
        rhs, make_ls = _decay_problem()
        integ = BdfIntegrator(rhs, make_ls)
        integ.integrate(0.0, np.array([1.0]), 0.1)
        assert integ.stats.n_steps > 0
        assert integ.stats.n_rhs >= integ.stats.n_steps
        assert integ.stats.n_lin_setups >= 1

    def test_invalid_args(self):
        rhs, make_ls = _decay_problem()
        integ = BdfIntegrator(rhs, make_ls)
        with pytest.raises(ValueError):
            integ.integrate(1.0, np.array([1.0]), 0.5)
        with pytest.raises(ValueError):
            integ.integrate(0.0, np.array([1.0]), 1.0,
                            t_eval=np.array([2.0]))
        with pytest.raises(ValueError):
            integ.integrate(0.0, np.array([1.0]), 1.0,
                            t_eval=np.array([0.5, 0.25]))
        with pytest.raises(ValueError):
            BdfOptions(rtol=-1.0)
        with pytest.raises(ValueError):
            BdfOptions(max_order=5)

    def test_order_one_in_few_rhs_calls(self):
        """BDF(1) integrates u' = -u over [0, 1] in under 2,000 RHS
        calls: its linear predictor keeps the local error estimate
        O(h^2).  (A constant predictor made order 1 exhaust
        ``max_steps``: 600,000 calls.)"""
        calls = [0]

        def rhs(t, u):
            calls[0] += 1
            return -u

        def make_ls(gamma, t, u):
            return lambda r: r / (1.0 + gamma)

        integ = BdfIntegrator(rhs, make_ls, options=BdfOptions(max_order=1))
        _, us = integ.integrate(0.0, np.array([1.0]), 1.0)
        assert us[-1, 0] == pytest.approx(np.exp(-1.0), rel=1e-3)
        assert calls[0] < 2_000

    def test_max_steps_enforced(self):
        rhs, make_ls = _decay_problem(lam=1.0)
        integ = BdfIntegrator(rhs, make_ls,
                              options=BdfOptions(max_steps=3, h0=1e-6))
        with pytest.raises(RuntimeError, match="max_steps"):
            integ.integrate(0.0, np.array([1.0]), 1.0)
