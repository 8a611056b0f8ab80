"""Tests for the MuMMI-lite workflow and the workload inventory."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.workflow import mummi
from repro.workflow.mummi import MacroModel, MummiCampaign, novelty
from repro import workload
from repro.workload import PerfProfile, ProgrammingModel


class TestMacroModel:
    def test_diffusion_smooths(self):
        m = MacroModel(n=16, seed=0)
        rough0 = np.abs(np.diff(m.field, axis=0)).mean()
        for _ in range(50):
            m.step(forcing=0.0)
        rough1 = np.abs(np.diff(m.field, axis=0)).mean()
        assert rough1 < rough0

    def test_forcing_keeps_variance_alive(self):
        m = MacroModel(n=16, seed=0)
        for _ in range(200):
            m.step(forcing=0.05)
        assert m.field.std() > 0.01

    def test_patch_compositions(self):
        m = MacroModel(n=16, seed=1)
        patches = m.patch_compositions(patch=4)
        assert patches.shape == (4, 4)
        assert patches.mean() == pytest.approx(m.field.mean())

    @pytest.mark.parametrize("n", [4, 5, 32])
    def test_step_matches_rolled_stencil(self, n):
        """The index-gather Laplacian adds the same four neighbours in
        the same order as four ``np.roll`` calls, so fields match bit
        for bit."""
        m = MacroModel(n=n, seed=3)
        f, rng = m.field.copy(), np.random.default_rng(3)
        rng.random((n, n))
        for _ in range(5):
            m.step()
            lap = (np.roll(f, 1, 0) + np.roll(f, -1, 0)
                   + np.roll(f, 1, 1) + np.roll(f, -1, 1) - 4 * f)
            f = f + m.d * lap + 0.02 * rng.normal(0, 1, f.shape)
            assert m.field.tobytes() == f.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            MacroModel(n=2)
        with pytest.raises(ValueError):
            MacroModel(diffusivity=0.5)
        with pytest.raises(ValueError):
            MacroModel(n=10).patch_compositions(patch=3)


class TestCampaign:
    def test_cycle_accounting(self):
        camp = MummiCampaign(n_gpus=8, jobs_per_cycle=12, seed=0)
        metrics = camp.run_cycle()
        assert metrics["simulations"] == 12
        assert metrics["utilization"] > 0
        assert camp.gpu_hours > 0
        assert len(camp.results) == 12

    def test_novelty_sampling_covers_space(self):
        """Novelty selection must spread simulations across composition
        space rather than resampling the same patch."""
        camp = MummiCampaign(n_gpus=8, jobs_per_cycle=8, seed=1)
        camp.run(6)
        assert camp.coverage(bins=8) >= 0.4
        assert np.std(camp.explored) > 0.02  # not resampling one patch

    def test_ddcmd_campaign_faster_than_gromacs(self):
        """The §4.6 claim in workflow terms: the 2.3X per-step advantage
        becomes campaign throughput."""
        thr = {}
        for code in ("ddcmd", "gromacs"):
            camp = MummiCampaign(n_gpus=8, md_code=code, seed=0)
            camp.run(2)
            thr[code] = camp.simulations_per_hour
        assert thr["ddcmd"] > 1.5 * thr["gromacs"]

    def test_validation(self):
        with pytest.raises(ValueError):
            MummiCampaign(md_code="lammps")
        with pytest.raises(ValueError):
            MummiCampaign(n_gpus=0)
        camp = MummiCampaign()
        with pytest.raises(ValueError):
            camp.run(0)

    def test_empty_campaign_throughput_zero(self):
        assert MummiCampaign().simulations_per_hour == 0.0
        assert MummiCampaign().coverage() == 0.0


#: a small pool repeats values (duplicates, exact ties at equal
#: distance either side) next to arbitrary doubles, ±inf included
_values = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0]),
    st.floats(allow_nan=False),
)


def _nearest_by_broadcast(comps, explored):
    """The oracle: every composition against every explored value."""
    with np.errstate(invalid="ignore"):
        return np.min(np.abs(comps[:, None] - explored[None, :]), axis=1)


class TestNovelty:
    """Sorted-neighbour novelty equals the O(n m) broadcast bit for
    bit, so novelty sampling picks the same candidates: for any
    explored values but NaN, and any compositions (NaN included)."""

    @given(explored=st.lists(_values, min_size=1, max_size=24),
           comps=st.lists(st.one_of(_values, st.just(float("nan"))),
                          max_size=24),
           data=st.data())
    @example(explored=[0.5], comps=[0.5, -3.0, 7.0], data=None)
    @example(explored=[0.25, 0.75, 0.25], comps=[0.5, 0.25, 0.0, 1.0],
             data=None)
    @example(explored=[float("inf"), 0.0, float("-inf")],
             comps=[float("inf"), float("-inf"), 1e308, 0.0], data=None)
    @example(explored=[float("inf")], comps=[float("inf"), 0.0],
             data=None)
    @settings(max_examples=100, deadline=None)
    def test_matches_broadcast(self, explored, comps, data):
        if data is not None:
            # compositions that equal explored values exactly
            comps = comps + data.draw(
                st.lists(st.sampled_from(explored), max_size=6))
        c = np.array(comps, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            got = novelty(c, explored)
        want = _nearest_by_broadcast(c, np.array(explored))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_nan_in_explored_reaches_only_its_neighbours(self):
        """The documented difference: the broadcast turns every row
        NaN, the neighbour search only the rows next to the NaN."""
        explored = [0.0, float("nan"), 1.0]
        comps = np.array([0.1, 2.0])
        with np.errstate(invalid="ignore"):
            assert np.isnan(_nearest_by_broadcast(
                comps, np.array(explored))).all()
            got = novelty(comps, explored)
        assert got[0] == 0.1 and np.isnan(got[1])


def _eval_states(monkeypatch):
    """Record the state of every candidate Generator a campaign hands
    to the fan-out, one list per call, before any draw."""
    calls = []
    real = mummi.map_fanout

    def recording(fn, items, **kw):
        calls.append([item[2].bit_generator.state for item in items])
        return real(fn, items, **kw)

    monkeypatch.setattr(mummi, "map_fanout", recording)
    return calls


def _spawned_states(eval_stream, n):
    """The oracle: ``default_rng(child)`` for ``n`` spawned children of
    the checkpointed evaluation stream."""
    root = np.random.SeedSequence(**eval_stream)
    return [np.random.default_rng(c).bit_generator.state
            for c in root.spawn(n)]


class TestEvalStreams:
    """Per-candidate streams are the eval root's spawned children,
    built in one batch."""

    def _check_cycles(self, camp, calls, n_cycles):
        for _ in range(n_cycles):
            before = camp.checkpoint_state()["eval_stream"]
            camp.run_cycle()
            assert calls[-1] == _spawned_states(before,
                                                camp.jobs_per_cycle)
            after = camp.checkpoint_state()["eval_stream"]
            assert after["n_children_spawned"] \
                == before["n_children_spawned"] + camp.jobs_per_cycle

    @pytest.mark.parametrize("seed", [7, None])
    def test_streams_equal_spawned_children(self, monkeypatch, seed):
        calls = _eval_states(monkeypatch)
        camp = MummiCampaign(n_gpus=4, jobs_per_cycle=6, seed=seed,
                             backend="serial")
        self._check_cycles(camp, calls, 4)
        assert len(calls) == 4

    def test_streams_after_restore(self, monkeypatch):
        calls = _eval_states(monkeypatch)
        camp = MummiCampaign(n_gpus=4, jobs_per_cycle=6, seed=7,
                             backend="serial")
        camp.run(3)
        state = camp.checkpoint_state()
        resumed = MummiCampaign(n_gpus=4, jobs_per_cycle=6, seed=99,
                                backend="serial")
        resumed.restore_state(state)
        self._check_cycles(resumed, calls, 3)
        assert resumed.checkpoint_state()["eval_stream"] \
            == dict(state["eval_stream"], n_children_spawned=36)

    def test_checkpointed_counter_is_python_ints(self):
        camp = MummiCampaign(n_gpus=4, jobs_per_cycle=6, seed=7,
                             backend="serial")
        camp.run(2)
        saved = camp.checkpoint_state()["eval_stream"]
        assert set(saved) == {"entropy", "spawn_key", "n_children_spawned"}
        assert saved["n_children_spawned"] == 12
        assert type(saved["entropy"]) is int
        assert type(saved["n_children_spawned"]) is int
        assert all(type(w) is int for w in saved["spawn_key"])


class TestWorkloadInventory:
    """Table 1 as data: the diversity properties §2 claims."""

    def test_nine_completed_activities(self):
        assert len(workload.inventory()) == 9

    def test_profile_diversity(self):
        few = workload.by_profile(PerfProfile.FEW_HOT_KERNELS)
        flat = workload.by_profile(PerfProfile.FLAT)
        assert {a.name for a in few} >= {"Molecular Dynamics",
                                         "Optimization Framework"}
        assert {a.name for a in flat} == {"ParaDyn"}

    def test_language_diversity(self):
        langs = set()
        for a in workload.inventory():
            langs.update(a.base_languages)
        assert len(langs) >= 5

    def test_no_single_model_fits_all(self):
        """The paper's headline lesson: the final workload uses many
        programming models."""
        assert len(workload.models_in_use()) >= 5

    def test_final_approaches_subset_of_explored(self):
        for a in workload.inventory():
            assert a.final_approaches <= a.approaches

    def test_cuda_used_by_hot_kernel_codes(self):
        for a in workload.by_profile(PerfProfile.FEW_HOT_KERNELS):
            assert ProgrammingModel.CUDA in a.final_approaches

    def test_modules_resolvable(self):
        import importlib

        for a in workload.inventory():
            importlib.import_module(a.module)
