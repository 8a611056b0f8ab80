"""Property-based tests (hypothesis) across core data structures.

These complement the per-module suites with randomized invariants:
solver correctness on arbitrary SPD systems, physical conservation
laws under random configurations, scheduler accounting under random
workloads, and algebraic identities of the substrate layers.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.jit import render_template
from repro.core.kernels import KernelSpec
from repro.md.integrators import ShakeConstraints
from repro.md.particles import ParticleSystem, PeriodicBox
from repro.md.potentials import LennardJones, PairProcessor
from repro.sched.policies import Fcfs, Sjf, SjfWithQuota
from repro.sched.simulator import ClusterSimulator, Job
from repro.solvers.csr import CsrMatrix
from repro.solvers.krylov import pcg
from repro.solvers.problems import random_spd
from repro.util.rng import make_rng

SETTINGS = settings(max_examples=25, deadline=None)


class TestKrylovProperties:
    @given(n=st.integers(8, 60), seed=st.integers(0, 100))
    @SETTINGS
    def test_pcg_solves_any_spd(self, n, seed):
        a = random_spd(n, density=0.15, seed=seed)
        rng = make_rng(seed)
        x_true = rng.random(n)
        b = a @ x_true
        x, info = pcg(CsrMatrix(a), b, tol=1e-12, max_iter=20 * n)
        assert info.converged
        np.testing.assert_allclose(x, x_true, atol=1e-6)

    @given(n=st.integers(5, 30), seed=st.integers(0, 50))
    @SETTINGS
    def test_residual_orthogonality_of_solution(self, n, seed):
        """At convergence, b - Ax is orthogonal to the solution scale."""
        a = random_spd(n, density=0.3, seed=seed)
        b = make_rng(seed + 1).random(n)
        x, info = pcg(CsrMatrix(a), b, tol=1e-13, max_iter=30 * n)
        assert np.linalg.norm(a @ x - b) <= 1e-9 * max(np.linalg.norm(b), 1)


class TestMdProperties:
    @given(n=st.integers(4, 24), seed=st.integers(0, 100))
    @SETTINGS
    def test_pair_forces_sum_to_zero(self, n, seed):
        box = PeriodicBox((6.0,) * 3)
        ps = ParticleSystem.random_gas(n, box, seed=seed,
                                       min_separation=1.0)
        proc = PairProcessor(LennardJones())
        ii, jj = np.triu_indices(n, k=1)
        f, e, w = proc.compute(ps, ii, jj)
        np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-9)

    @given(seed=st.integers(0, 100), length=st.floats(0.5, 2.0))
    @SETTINGS
    def test_shake_projection_idempotent(self, seed, length):
        box = PeriodicBox((10.0,) * 3)
        rng = make_rng(seed)
        x = 3.0 + rng.random((4, 3))
        ps = ParticleSystem(x, box)
        shake = ShakeConstraints(
            np.array([0, 2]), np.array([1, 3]),
            np.array([length, length]), tol=1e-12,
        )
        shake.apply(ps)
        assert shake.max_violation(ps) < 1e-5
        x_after = ps.x.copy()
        shake.apply(ps)  # projecting again must not move anything
        np.testing.assert_allclose(ps.x, x_after, atol=1e-7)

    @given(seed=st.integers(0, 60))
    @SETTINGS
    def test_wrap_idempotent(self, seed):
        box = PeriodicBox((3.0, 5.0, 7.0))
        x = (make_rng(seed).random((10, 3)) - 0.5) * 40.0
        w1 = box.wrap(x)
        np.testing.assert_allclose(box.wrap(w1), w1, atol=1e-12)
        assert (w1 >= 0).all() and (w1 < box.array + 1e-12).all()


class TestSchedulerProperties:
    policies = [Fcfs(), Sjf(), SjfWithQuota(4, 0.25)]

    @given(
        seed=st.integers(0, 200),
        n_jobs=st.integers(1, 60),
        policy_idx=st.integers(0, 2),
    )
    @SETTINGS
    def test_conservation_under_random_workloads(self, seed, n_jobs,
                                                 policy_idx):
        rng = make_rng(seed)
        jobs = [
            Job(k, arrival=float(rng.random() * 10),
                service=float(0.1 + rng.random() * 5),
                is_long=bool(rng.random() < 0.2))
            for k in range(n_jobs)
        ]
        result = ClusterSimulator(4).run(jobs, self.policies[policy_idx])
        assert result.completed == n_jobs
        total_service = sum(j.service for j in jobs)
        # capacity bound and work conservation
        assert result.makespan >= total_service / 4 - 1e-9
        assert result.utilization <= 1.0 + 1e-12
        assert result.mean_wait >= 0

    @given(seed=st.integers(0, 100))
    @SETTINGS
    def test_single_gpu_makespan_exact(self, seed):
        rng = make_rng(seed)
        jobs = [Job(k, 0.0, float(0.5 + rng.random())) for k in range(8)]
        result = ClusterSimulator(1).run(jobs, Sjf())
        assert result.makespan == pytest.approx(
            sum(j.service for j in jobs)
        )


class TestSubstrateProperties:
    @given(
        flops=st.floats(1.0, 1e12),
        br=st.floats(0.0, 1e12),
        bw=st.floats(0.0, 1e12),
        launches=st.integers(1, 100),
    )
    @SETTINGS
    def test_kernel_scaling_linear(self, flops, br, bw, launches):
        k = KernelSpec("k", flops=flops, bytes_read=br, bytes_written=bw,
                       launches=launches)
        doubled = k.scaled(2.0)
        assert doubled.flops == pytest.approx(2 * k.flops)
        assert doubled.bytes_total == pytest.approx(2 * k.bytes_total)
        assert doubled.launches == k.launches

    @given(
        a=st.floats(-1e6, 1e6, allow_nan=False),
        b=st.integers(-1000, 1000),
    )
    @SETTINGS
    def test_template_rendering_roundtrips_values(self, a, b):
        src = render_template("x = $A\ny = $B", {"A": a, "B": b})
        ns = {}
        exec(src, ns)
        assert ns["x"] == a or (np.isnan(a) and np.isnan(ns["x"]))
        assert ns["y"] == b

    @given(seed=st.integers(0, 100), n=st.integers(2, 50))
    @SETTINGS
    def test_csr_matvec_linear(self, seed, n):
        a = random_spd(n, density=0.3, seed=seed)
        m = CsrMatrix(a)
        rng = make_rng(seed)
        x, y = rng.random(n), rng.random(n)
        alpha = float(rng.random())
        np.testing.assert_allclose(
            m.matvec(alpha * x + y),
            alpha * m.matvec(x) + m.matvec(y),
            atol=1e-9,
        )


class TestEulerProperties:
    @given(seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_random_smooth_states_stay_positive(self, seed):
        from repro.amr.euler import EulerState2D, hll_step_2d

        rng = make_rng(seed)
        state = EulerState2D.zeros(24, 24)
        it = state.interior
        # smooth random positive density / pressure, small velocities
        state.rho[it] = 0.5 + rng.random((24, 24))
        u = 0.2 * (rng.random((24, 24)) - 0.5)
        v = 0.2 * (rng.random((24, 24)) - 0.5)
        p = 0.5 + rng.random((24, 24))
        state.mx[it] = state.rho[it] * u
        state.my[it] = state.rho[it] * v
        state.e[it] = p / 0.4 + 0.5 * state.rho[it] * (u * u + v * v)
        for _ in range(10):
            hll_step_2d(state, 1.0 / 24)
        rho, _, _, pressure = state.primitives()
        assert rho[it].min() > 0
        assert pressure[it].min() > 0


class TestLdaProperties:
    @given(seed=st.integers(0, 30), k=st.integers(2, 6))
    @settings(max_examples=8, deadline=None)
    def test_estep_statistics_conserve_tokens(self, seed, k):
        from repro.lda.corpus import make_corpus
        from repro.lda.vem import LdaModel, e_step

        corpus = make_corpus(n_docs=12, vocab_per_language=40,
                             n_languages=1, n_topics=2, doc_length=25,
                             seed=seed)
        model = LdaModel.random_init(k, corpus.vocab_size, seed=seed)
        ss, gammas, _ = e_step(model, corpus.docs)
        assert ss.min() >= 0
        assert ss.sum() == pytest.approx(corpus.n_tokens, rel=1e-9)
        # gamma posterior masses exceed the prior
        assert (gammas > model.alpha - 1e-12).all()
