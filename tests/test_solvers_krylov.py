"""Tests for PCG."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers.csr import CsrMatrix
from repro.solvers.krylov import pcg
from repro.solvers.problems import poisson_2d, random_spd


@pytest.fixture
def spd_system():
    a = poisson_2d(12)
    rng = np.random.default_rng(3)
    x_true = rng.random(a.shape[0])
    return CsrMatrix(a), a @ x_true, x_true


class TestPcg:
    def test_converges_to_solution(self, spd_system):
        a, b, x_true = spd_system
        x, info = pcg(a, b, tol=1e-12, max_iter=1000)
        assert info.converged
        np.testing.assert_allclose(x, x_true, atol=1e-8)

    def test_residual_history_decreasing_envelope(self, spd_system):
        a, b, _ = spd_system
        _, info = pcg(a, b, tol=1e-10, max_iter=1000)
        # CG residuals oscillate but the trend must be down: final << first
        assert info.residual_norms[-1] < 1e-8 * info.residual_norms[0]

    def test_identity_one_iteration(self):
        a = CsrMatrix(sp.identity(50, format="csr"))
        b = np.ones(50)
        x, info = pcg(a, b)
        assert info.iterations <= 2
        np.testing.assert_allclose(x, b)

    def test_zero_rhs_converges_immediately(self, spd_system):
        a, _, _ = spd_system
        x, info = pcg(a, np.zeros(a.shape[0]))
        assert info.converged
        assert info.iterations == 0
        np.testing.assert_allclose(x, 0.0)

    def test_initial_guess_respected(self, spd_system):
        a, b, x_true = spd_system
        x, info = pcg(a, b, x0=x_true.copy(), tol=1e-10)
        assert info.iterations == 0

    def test_jacobi_preconditioner_reduces_iterations(self):
        a_raw = random_spd(200, density=0.05, seed=0)
        a = CsrMatrix(a_raw)
        b = np.ones(200)
        inv_d = 1.0 / a_raw.diagonal()
        _, plain = pcg(a, b, tol=1e-10, max_iter=2000)
        _, prec = pcg(a, b, preconditioner=lambda r: inv_d * r, tol=1e-10,
                      max_iter=2000)
        assert prec.iterations <= plain.iterations

    def test_callable_operator(self):
        d = np.array([1.0, 2.0, 3.0])
        x, info = pcg(lambda v: d * v, np.array([1.0, 4.0, 9.0]), tol=1e-12)
        assert info.converged
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0])

    def test_non_spd_detected(self):
        a = CsrMatrix(np.diag([1.0, -1.0]))
        x, info = pcg(a, np.ones(2), max_iter=10)
        assert not info.converged

    def test_max_iter_zero(self, spd_system):
        a, b, _ = spd_system
        _, info = pcg(a, b, max_iter=0)
        assert not info.converged

    def test_negative_max_iter(self, spd_system):
        a, b, _ = spd_system
        with pytest.raises(ValueError):
            pcg(a, b, max_iter=-1)

    def test_convergence_info_properties(self, spd_system):
        a, b, _ = spd_system
        _, info = pcg(a, b, tol=1e-10, max_iter=500)
        assert info.final_residual == info.residual_norms[-1]
        assert 0 < info.reduction < 1e-8
