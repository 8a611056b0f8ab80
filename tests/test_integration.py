"""Cross-module integration tests: the library-interoperability story.

The paper's Tools-and-Libraries lesson is that the *integration* of
components (shared memory spaces, shared traces, data handed between
libraries without copies) is where performance and correctness are won.
These tests exercise multi-package pipelines end to end.
"""

import numpy as np
import pytest

from repro.cardioid.dsl import ReactionKernelGenerator
from repro.cardioid.ionmodels import RATE_FUNCTIONS, V_RANGE, HodgkinHuxleyModel
from repro.core.forall import ExecPolicy, ExecutionContext
from repro.core.machine import MACHINES, get_machine
from repro.core.memory import MemorySpace
from repro.core.roofline import RooflineModel
from repro.fem.mesh import TensorMesh2D
from repro.fem.nonlinear import NonlinearDiffusion
from repro.fem.operators import DiffusionOperator
from repro.ode.nvector import DeviceVector
from repro.sched.policies import Fcfs
from repro.sched.simulator import ClusterSimulator, Job
from repro.solvers.boomeramg import BoomerAMG
from repro.solvers.problems import poisson_2d
from repro.stencil.grid import CartesianGrid3D
from repro.stencil.sw4lite import Sw4Lite, Sw4Options
from repro.workflow.mummi import MummiCampaign


class TestTraceToModelPipeline:
    """Any proxy's trace must be priceable on any GPU machine in the
    catalog — the contract between applications and the substrate."""

    def traced_apps(self):
        apps = []
        ctx = ExecutionContext()
        s = Sw4Lite(CartesianGrid3D(8, 8, 8), 1.0,
                    options=Sw4Options(), ctx=ctx)
        s.run(2)
        apps.append(("sw4lite", ctx.trace))
        ctx2 = ExecutionContext()
        mesh = TensorMesh2D(4, 4, order=2)
        DiffusionOperator(mesh, ctx=ctx2).mult(np.ones(mesh.n_dofs))
        apps.append(("mfem", ctx2.trace))
        ctx3 = ExecutionContext()
        amg = BoomerAMG(ctx=ctx3)
        amg.setup(poisson_2d(16))
        amg.vcycle(np.ones(256))
        apps.append(("hypre", ctx3.trace))
        return apps

    def test_every_gpu_machine_prices_every_trace(self):
        gpu_machines = [m for m in MACHINES.values() if m.gpu is not None]
        assert len(gpu_machines) >= 4
        for name, trace in self.traced_apps():
            for machine in gpu_machines:
                t = RooflineModel(machine).run_on_gpu(trace).total
                assert t > 0, (name, machine.name)

    def test_newer_gpus_strictly_faster(self):
        """V100 > P100 > K40 for every traced app."""
        order = ["sierra", "ea-minsky", "surface"]
        for name, trace in self.traced_apps():
            times = [
                RooflineModel(get_machine(m)).run_on_gpu(trace).kernel_time
                for m in order
            ]
            assert times[0] < times[1] < times[2], name


class TestDeviceVectorsThroughSolvers:
    def test_bdf_on_device_vectors_stays_resident(self):
        """SUNDIALS integration discipline across packages: a full BDF
        integration whose state lives in DeviceVectors triggers no
        transfers after the initial upload."""
        from repro.core.memory import ResourceManager
        from repro.ode.bdf import BdfIntegrator, BdfOptions

        rm = ResourceManager()
        state = DeviceVector.from_host(np.ones(8), rm)
        uploads = len(rm.trace.transfers)
        lam = np.linspace(1.0, 50.0, 8)

        def rhs(t, u):
            return -lam * u

        def make_ls(gamma, t, u):
            return lambda r: r / (1.0 + gamma * lam)

        integ = BdfIntegrator(rhs, make_ls,
                              options=BdfOptions(rtol=1e-6, atol=1e-9))
        # integrate on the device-resident array in place
        _, us = integ.integrate(0.0, state.array, 1.0)
        np.testing.assert_allclose(us[-1], np.exp(-lam), atol=1e-4)
        assert len(rm.trace.transfers) == uploads  # no extra movement


class TestWorkflowOverScheduler:
    def test_campaign_jobs_fit_cluster_invariants(self):
        """MuMMI drives the real scheduler: capacity and accounting
        invariants hold across the package boundary."""
        camp = MummiCampaign(n_gpus=4, jobs_per_cycle=10, seed=2)
        metrics = camp.run_cycle()
        # 10 jobs on 4 GPUs: makespan at least ceil(10/4) job lengths
        per_job = camp.steps_per_sim * camp.step_time
        assert metrics["makespan"] >= 3 * 0.9 * per_job
        assert metrics["utilization"] <= 1.0

    def test_md_model_feeds_scheduler_consistently(self):
        """Faster MD -> shorter jobs -> shorter campaign makespan."""
        makespans = {}
        for code in ("ddcmd", "gromacs"):
            camp = MummiCampaign(n_gpus=4, jobs_per_cycle=8,
                                 md_code=code, seed=0)
            makespans[code] = camp.run_cycle()["makespan"]
        assert makespans["ddcmd"] < makespans["gromacs"]


class TestFemSolverOdeStack:
    def test_trace_covers_all_three_libraries(self):
        """One nonlinear-diffusion run must exercise MFEM (pa-*), hypre
        (spmv*), and SUNDIALS (the integrator around them) in a single
        shared trace — the §4.10.4 integration."""
        ctx = ExecutionContext()
        mesh = TensorMesh2D(5, 5, order=2)
        prob = NonlinearDiffusion(mesh, ctx=ctx)
        gx, gy = mesh.node_coords()
        u0 = (np.sin(np.pi * gx) * np.sin(np.pi * gy)).ravel()
        _, _, integ = prob.integrate(u0, t_end=2e-3)
        names = {k.name for k in ctx.trace.kernels}
        assert any(n.startswith("pa-") for n in names)        # MFEM
        assert any(n.startswith("spmv") for n in names)       # hypre
        assert integ.stats.n_steps > 0                        # SUNDIALS
        assert integ.stats.n_lin_setups > 0

    def test_solution_quality_unaffected_by_tracing(self):
        """Tracing is observational: identical numerics with/without."""
        results = []
        for ctx in (None, ExecutionContext()):
            mesh = TensorMesh2D(4, 4, order=2)
            prob = NonlinearDiffusion(mesh, ctx=ctx)
            gx, gy = mesh.node_coords()
            u0 = (np.sin(np.pi * gx) * np.sin(np.pi * gy)).ravel()
            _, states, _ = prob.integrate(u0, t_end=2e-3)
            results.append(states[-1])
        np.testing.assert_array_equal(results[0], results[1])


class TestWorkloadDiversityEndToEnd:
    def test_one_smoke_run_per_activity(self):
        """Every Table 1 activity's proxy executes a real computation."""
        # Cardioid
        baked = ReactionKernelGenerator(RATE_FUNCTIONS, V_RANGE).generate_baked()
        membrane = HodgkinHuxleyModel(64, rates=baked)
        membrane.step_reaction(0.02)
        membrane.step_reaction(0.02)
        # Cretin
        from repro.kinetics import Zone, Minikin, make_model

        pops = Minikin(make_model("small")).solve_zone(Zone(0.3, 1.0))
        assert pops.sum() == pytest.approx(1.0)
        # ParaDyn
        from repro.paradyn import paradyn_kernel, slnsp

        prog = slnsp(paradyn_kernel(16))
        rng = np.random.default_rng(0)
        prog.run({k: rng.random(16)
                  for k, v in prog.array_kinds.items() if v == "input"})
        # MD
        from repro.md import DdcMD, LennardJones, PairProcessor, ParticleSystem, PeriodicBox

        ps = ParticleSystem.random_gas(27, PeriodicBox((5.0,) * 3),
                                       seed=0, min_separation=1.0)
        DdcMD(ps, PairProcessor(LennardJones()), dt=0.002).run(2)
        # SW4
        s = Sw4Lite(CartesianGrid3D(6, 6, 6), 1.0)
        s.run(2)
        # VBL
        from repro.vbl import BeamGrid, SplitStepPropagator, gaussian_beam

        prop = SplitStepPropagator(BeamGrid(32, 1e-3))
        prop.propagate(gaussian_beam(BeamGrid(32, 1e-3), 2e-4), 0.1, 2)
        # Tools & Libraries
        amg = BoomerAMG()
        amg.setup(poisson_2d(12))
        amg.solve(np.ones(144), max_iter=50)
        # Data Science
        from repro.dtrain.nn import MLP

        MLP(4, 2, seed=0).gradient(np.zeros((2, 4)), np.array([0, 1]))
        # Opt
        result = ClusterSimulator(2).run(
            [Job(0, 0.0, 1.0), Job(1, 0.0, 2.0)], Fcfs()
        )
        assert result.completed == 2
