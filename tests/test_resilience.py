"""Tests for the resilience layer: fault model, injector,
scheduler-level recovery, and checkpoint/restart with ABFT across the
PCG/AMG solvers, ddcMD, and the MuMMI campaign."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.machine import FaultSpec, YEAR_SECONDS, get_machine
from repro.md.ddcmd import DdcMD, make_martini_membrane
from repro.md.integrators import LangevinThermostat
from repro.resilience import (
    CheckpointStore,
    FaultInjector,
    ResilientDriver,
    fault_spec_for,
    state_nbytes,
)
from repro.sched.policies import Fcfs
from repro.sched.simulator import ClusterSimulator
from repro.sched.workloads import batch_workload
from repro.solvers.boomeramg import BoomerAMG
from repro.solvers.csr import CsrMatrix
from repro.solvers.krylov import PcgSolver, pcg
from repro.solvers.problems import poisson_2d, random_spd
from repro.util.rng import make_rng
from repro.workflow.mummi import MummiCampaign

SETTINGS = settings(max_examples=10, deadline=None)


def make_md(seed=3, thermostat_seed=7):
    system, proc, bonds, angles = make_martini_membrane(
        n_lipids_per_leaflet=9, n_water=32, seed=seed
    )
    thermo = LangevinThermostat(
        temperature=1.0, friction=1.0, seed=thermostat_seed
    )
    return DdcMD(system, proc, dt=0.002, bonds=bonds, angles=angles,
                 thermostat=thermo)


class TestFaultModel:
    def test_system_mtbf_scales_with_components(self):
        spec = FaultSpec(node_mtbf=10 * YEAR_SECONDS,
                         gpu_mtbf=5 * YEAR_SECONDS)
        one = spec.system_mtbf(1, gpus_per_node=4)
        many = spec.system_mtbf(100, gpus_per_node=4)
        assert many == pytest.approx(one / 100)
        # GPUs dominate the rate: 4 GPUs at 5y beat 1 node at 10y
        assert spec.system_mtbf(1, 4) < spec.node_mtbf / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(node_mtbf=0.0)
        with pytest.raises(ValueError):
            FaultSpec(node_mtbf=1.0, sdc_per_gpu_hour=-1)
        spec = FaultSpec(node_mtbf=1.0)
        with pytest.raises(ValueError):
            spec.system_mtbf(0)

    def test_catalog_machines_have_specs(self):
        for name in ("sierra", "ea-minsky", "surface", "rzhasgpu", "bgq"):
            assert get_machine(name).faults is not None
        # Sierra at full scale fails every few hours, not every few years
        sierra = get_machine("sierra")
        mtbf = sierra.faults.system_mtbf(sierra.max_nodes,
                                         sierra.gpus_per_node)
        assert 3600 < mtbf < 48 * 3600

    def test_heuristic_fallback(self):
        kraken = get_machine("kraken")  # no calibrated spec
        assert kraken.faults is None
        spec = fault_spec_for(kraken)
        assert spec.node_mtbf > 0
        assert spec.gpu_mtbf == float("inf")  # CPU-only node
        # calibrated machines pass through unchanged
        assert fault_spec_for(get_machine("sierra")) is get_machine(
            "sierra").faults


class TestFaultInjector:
    def test_deterministic_schedule(self):
        a = FaultInjector(mtbf=10.0, seed=4)
        b = FaultInjector(mtbf=10.0, seed=4)
        ta = [a.next_fault_after(0.0) for _ in range(10)]
        tb = [b.next_fault_after(0.0) for _ in range(10)]
        assert ta == tb

    def test_checkpoint_replays_stream(self):
        inj = FaultInjector(mtbf=10.0, kill_per_step=0.5, seed=0)
        state = inj.checkpoint_state()
        first = [inj.draw_kill() for _ in range(20)]
        inj.restore_state(state)
        assert [inj.draw_kill() for _ in range(20)] == first

    def test_for_machine_time_scale(self):
        sierra = get_machine("sierra")
        inj = FaultInjector.for_machine(sierra, nodes=sierra.max_nodes,
                                        time_scale=1e-4, seed=0)
        mtbf = sierra.faults.system_mtbf(sierra.max_nodes,
                                         sierra.gpus_per_node)
        assert inj.mtbf == pytest.approx(mtbf * 1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(mtbf=0.0)
        with pytest.raises(ValueError):
            FaultInjector(kill_per_step=1.5)
        with pytest.raises(ValueError):
            FaultInjector().pick_victim(0)


class TestSchedulerRecovery:
    def test_faults_kill_and_retry(self):
        jobs = batch_workload(n_jobs=100, seed=0)
        inj = FaultInjector(mtbf=100.0, seed=1)
        r = ClusterSimulator(8).run(jobs, Fcfs(), fault_injector=inj)
        assert r.failures > 0
        assert r.retries == r.failures  # every killed job is re-queued
        assert r.dropped == 0
        assert r.completed == 100
        assert r.wasted_time > 0
        assert r.goodput < r.utilization  # wasted work occupies GPUs

    def test_faultfree_run_unchanged(self):
        """Without an injector the accounting matches the old model."""
        jobs = batch_workload(n_jobs=100, seed=0)
        r = ClusterSimulator(8).run(jobs, Fcfs())
        assert r.failures == 0 and r.retries == 0 and r.wasted_time == 0
        assert r.goodput == pytest.approx(r.utilization)
        assert r.started == 100 and r.in_flight == 0

    def test_goodput_degrades_as_mtbf_shrinks(self):
        jobs = batch_workload(n_jobs=400, seed=0)
        goodputs = []
        for mtbf in (1e9, 200.0, 50.0):
            inj = FaultInjector(mtbf=mtbf, seed=0)
            r = ClusterSimulator(8).run(jobs, Fcfs(), fault_injector=inj)
            goodputs.append(r.goodput)
        assert goodputs[0] > goodputs[1] > goodputs[2]

    def test_fault_schedule_deterministic(self):
        jobs = batch_workload(n_jobs=100, seed=0)
        runs = [
            ClusterSimulator(8).run(
                jobs, Fcfs(), fault_injector=FaultInjector(mtbf=60.0, seed=7))
            for _ in range(2)
        ]
        assert runs[0].failures == runs[1].failures
        assert runs[0].makespan == runs[1].makespan
        assert runs[0].queue_series == runs[1].queue_series


class TestPcgRecovery:
    def _problem(self, n=60, seed=0):
        a = CsrMatrix(random_spd(n, density=0.12, seed=seed))
        b = make_rng(seed + 1).random(n)
        return a, b

    def test_stepwise_matches_pcg(self):
        a, b = self._problem()
        x_ref, info_ref = pcg(a, b, tol=1e-10, max_iter=400)
        s = PcgSolver(a, b, tol=1e-10, max_iter=400)
        x, info = s.solve()
        assert np.array_equal(x, x_ref)
        assert info.iterations == info_ref.iterations
        assert info.residual_norms == info_ref.residual_norms

    def test_driver_kill_recovery_bit_exact(self):
        a, b = self._problem()
        x_ref, _ = pcg(a, b, tol=1e-10, max_iter=400)
        s = PcgSolver(a, b, tol=1e-10, max_iter=400)
        rep = ResilientDriver(
            s, cadence=3,
            injector=FaultInjector(kill_per_step=0.15, seed=5),
        ).run()
        assert rep.kills > 0
        assert rep.wasted_steps > 0
        assert np.array_equal(s.x, x_ref)

    def test_abft_detects_all_corruptions_above_tol(self):
        """Acceptance: 100% detection for corruptions above the
        residual tolerance."""
        a, b = self._problem()
        rng = make_rng(42)
        detected = 0
        trials = 20
        for _ in range(trials):
            s = PcgSolver(a, b, tol=1e-10, max_iter=400)
            for _ in range(int(rng.integers(1, 10))):
                s.step()
            assert s.abft_error() < 1e-8  # healthy state passes
            s.corrupt(rng, magnitude=float(rng.uniform(0.1, 100.0)))
            if s.abft_error() > 1e-6:
                detected += 1
        assert detected == trials

    def test_driver_rolls_back_sdc(self):
        a, b = self._problem()
        x_ref, _ = pcg(a, b, tol=1e-10, max_iter=400)
        s = PcgSolver(a, b, tol=1e-10, max_iter=400)
        rep = ResilientDriver(
            s, cadence=2,
            injector=FaultInjector(sdc_per_step=0.1, sdc_magnitude=50.0,
                                   seed=9),
            abft_tol=1e-6,
        ).run()
        assert rep.sdc_injected > 0
        assert rep.sdc_detected == rep.sdc_injected
        assert rep.rollbacks >= rep.sdc_detected
        assert np.array_equal(s.x, x_ref)


class TestAmgRecovery:
    def _setup(self):
        a = poisson_2d(12)
        amg = BoomerAMG(coarse_size=20)
        amg.setup(a)
        b = make_rng(0).random(a.shape[0])
        return amg, b

    def test_session_matches_solve(self):
        amg, b = self._setup()
        x_ref, info_ref = amg.solve(b, tol=1e-8, max_iter=60)
        x, info = amg.solve_session(b, tol=1e-8, max_iter=60).solve()
        assert np.array_equal(x, x_ref)
        assert info.iterations == info_ref.iterations

    def test_kill_recovery_bit_exact(self):
        amg, b = self._setup()
        x_ref, _ = amg.solve(b, tol=1e-8, max_iter=60)
        session = amg.solve_session(b, tol=1e-8, max_iter=60)
        rep = ResilientDriver(
            session, cadence=4,
            injector=FaultInjector(kill_per_step=0.2, seed=3),
        ).run()
        assert rep.kills > 0
        assert np.array_equal(session.x, x_ref)

    def test_abft_detects_corruption(self):
        amg, b = self._setup()
        session = amg.solve_session(b, tol=1e-8, max_iter=60)
        session.step()
        assert session.abft_error() < 1e-10
        session.corrupt(make_rng(0), magnitude=10.0)
        assert session.abft_error() > 1e-6


class TestDdcmdRecovery:
    def test_kill_recovery_bit_exact(self):
        ref = make_md()
        ref.run(30)
        sim = make_md()
        rep = ResilientDriver(
            sim, cadence=5,
            injector=FaultInjector(kill_per_step=0.08, seed=11),
        ).run(max_steps=30)
        assert rep.kills > 0
        assert sim.steps_taken == 30
        assert np.array_equal(ref.system.x, sim.system.x)
        assert np.array_equal(ref.system.v, sim.system.v)

    def test_abft_energy_check_detects_corruption(self):
        sim = make_md()
        sim.run(5)
        assert sim.abft_error() == pytest.approx(0.0)
        sim.corrupt(make_rng(1), magnitude=100.0)
        assert sim.abft_error() > 0.5

    def test_driver_rolls_back_md_sdc(self):
        ref = make_md()
        ref.run(20)
        sim = make_md()
        rep = ResilientDriver(
            sim, cadence=4,
            injector=FaultInjector(sdc_per_step=0.2, sdc_magnitude=100.0,
                                   seed=1),
            abft_tol=0.5,
        ).run(max_steps=20)
        assert rep.sdc_injected > 0
        assert rep.sdc_detected == rep.sdc_injected
        assert np.array_equal(ref.system.x, sim.system.x)


class TestCampaignRecovery:
    def test_crash_restart_bit_exact(self):
        ref = MummiCampaign(n_gpus=8, jobs_per_cycle=8, seed=0)
        ref.run(5)
        camp = MummiCampaign(n_gpus=8, jobs_per_cycle=8, seed=0)
        camp.run(2)
        ck = camp.checkpoint_state()
        camp.run(2)  # work a crash will destroy
        camp.restore_state(ck)
        camp.run(3)
        assert camp.explored == ref.explored
        assert np.array_equal(camp.macro.field, ref.macro.field)
        assert camp.gpu_hours == ref.gpu_hours
        assert camp.wall_time == ref.wall_time
        assert [
            (r.composition, r.observable) for r in camp.results
        ] == [(r.composition, r.observable) for r in ref.results]

    def test_driver_runs_campaign(self):
        camp = MummiCampaign(n_gpus=8, jobs_per_cycle=8, seed=1)
        rep = ResilientDriver(
            camp, cadence=2,
            injector=FaultInjector(kill_per_step=0.3, seed=5),
        ).run(max_steps=4)
        assert camp.cycles_done == 4
        assert rep.kills > 0

    def test_scheduler_faults_reach_campaign_accounting(self):
        camp = MummiCampaign(
            n_gpus=8, jobs_per_cycle=16, seed=0,
            fault_injector=FaultInjector(mtbf=20.0, seed=3),
        )
        camp.run(3)
        assert camp.failures > 0
        assert camp.job_retries == camp.failures
        assert camp.wasted_gpu_hours > 0

    def test_abft_field_check(self):
        camp = MummiCampaign(n_gpus=8, jobs_per_cycle=8, seed=0)
        camp.run_cycle()
        assert camp.abft_error() < 0.1
        camp.corrupt(make_rng(0), magnitude=1e6)
        assert camp.abft_error() > 1.0


class TestCheckpointStore:
    def test_snapshot_isolation(self):
        store = CheckpointStore()
        state = {"x": np.arange(4.0)}
        store.save(0, state)
        state["x"][0] = 99.0  # live mutation must not reach the store
        _, loaded = store.load()
        assert loaded["x"][0] == 0.0
        loaded["x"][1] = 77.0  # nor must mutation of a loaded copy
        _, again = store.load()
        assert again["x"][1] == 1.0

    def test_accounting(self):
        store = CheckpointStore()
        assert not store.has_checkpoint
        with pytest.raises(RuntimeError):
            store.load()
        store.save(0, {"x": np.zeros(10)})
        assert store.has_checkpoint
        assert store.nbytes == 80
        assert state_nbytes({"a": np.zeros(3), "b": [np.zeros(2)],
                             "c": 1.0}) == 40
        sierra = get_machine("sierra")
        assert store.modeled_write_time(sierra) == pytest.approx(
            80 / sierra.nvme_bw)

    def test_driver_requires_termination(self):
        sim = make_md()
        with pytest.raises(ValueError):
            ResilientDriver(sim).run()  # no done, no max_steps
        with pytest.raises(ValueError):
            ResilientDriver(sim, cadence=0)


class TestRecoveryProperties:
    """Hypothesis: run-to-checkpoint -> restore -> finish equals an
    uninterrupted run, exactly, for any seed."""

    @given(seed=st.integers(0, 1000), k=st.integers(1, 8))
    @SETTINGS
    def test_pcg_checkpoint_restore_exact(self, seed, k):
        a = CsrMatrix(random_spd(30, density=0.15, seed=seed))
        b = make_rng(seed + 1).random(30)
        ref = PcgSolver(a, b, tol=1e-10, max_iter=200)
        x_ref, _ = ref.solve()
        s = PcgSolver(a, b, tol=1e-10, max_iter=200)
        for _ in range(k):
            s.step()
        ck = s.checkpoint_state()
        for _ in range(3):  # work the crash destroys
            s.step()
        s.restore_state(ck)
        while not s.done:
            s.step()
        assert np.array_equal(s.x, x_ref)
        assert s.info().residual_norms == ref.info().residual_norms

    @given(seed=st.integers(0, 200), k=st.integers(1, 10))
    @SETTINGS
    def test_ddcmd_checkpoint_restore_exact(self, seed, k):
        n_steps = 14
        ref = make_md(seed=seed % 5, thermostat_seed=seed)
        ref.run(n_steps)
        sim = make_md(seed=seed % 5, thermostat_seed=seed)
        sim.run(k)
        ck = sim.checkpoint_state()
        sim.run(2)  # work the crash destroys
        sim.restore_state(ck)
        sim.run(n_steps - k)
        assert np.array_equal(ref.system.x, sim.system.x)
        assert np.array_equal(ref.system.v, sim.system.v)
        assert ref.total_energy() == sim.total_energy()

