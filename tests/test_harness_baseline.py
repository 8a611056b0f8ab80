"""The sampler, case selection and baseline logic of benchmarks/harness.py.

The baseline bug these pin down: with BENCH_2.json and BENCH_10.json
on disk, the pre-fix harness could compare a fresh run against the
wrong file — lexicographic name ordering puts BENCH_10 before BENCH_2,
and a baseline of the wrong mode (smoke vs full) silently disabled the
gate entirely.  Baseline choice must be *numeric-newest among
same-mode reports*, exercised here with fake report files.
"""

import gc
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent


def _load_harness():
    spec = importlib.util.spec_from_file_location(
        "bench_harness", REPO / "benchmarks" / "harness.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


harness = _load_harness()


def _write(root: Path, idx: int, mode: str, wall: float = 1.0,
           counters=None, name: str = "case_a") -> Path:
    path = root / f"BENCH_{idx}.json"
    report = {
        "schema": 1,
        "mode": mode,
        "cases": [{"name": name, "wall_s": wall, "ref_wall_s": None,
                   "speedup": None, "modeled_s": None, "check": "ok"}],
    }
    if counters is not None:
        report["counters"] = counters
        report["gauges"] = {}
    path.write_text(json.dumps(report))
    return path


class TestSelectBaseline:
    def test_numeric_not_lexicographic(self, tmp_path):
        """BENCH_10 is newer than BENCH_2 (lexicographic order lies)."""
        _write(tmp_path, 2, "full")
        want = _write(tmp_path, 10, "full")
        got = harness._select_baseline(
            tmp_path, tmp_path / "BENCH_11.json", "full"
        )
        assert got == want

    def test_mode_must_match(self, tmp_path):
        """A newer report of the other mode must not shadow the true
        baseline (the pre-fix failure: smoke BENCH_10 newer than full
        BENCH_2 made full runs compare against nothing)."""
        full = _write(tmp_path, 2, "full")
        smoke = _write(tmp_path, 10, "smoke")
        assert harness._select_baseline(
            tmp_path, tmp_path / "BENCH_11.json", "full") == full
        assert harness._select_baseline(
            tmp_path, tmp_path / "BENCH_11.json", "smoke") == smoke

    def test_output_path_excluded(self, tmp_path):
        """Re-running with --output BENCH_5.json must not self-compare."""
        want = _write(tmp_path, 3, "full")
        out = _write(tmp_path, 5, "full")
        assert harness._select_baseline(tmp_path, out, "full") == want

    def test_unreadable_candidate_skipped(self, tmp_path):
        want = _write(tmp_path, 3, "full")
        (tmp_path / "BENCH_9.json").write_text("{not json")
        assert harness._select_baseline(
            tmp_path, tmp_path / "BENCH_10.json", "full") == want

    def test_no_matching_mode_returns_none(self, tmp_path):
        _write(tmp_path, 2, "smoke")
        assert harness._select_baseline(
            tmp_path, tmp_path / "BENCH_3.json", "full") is None

    def test_bench_files_parse_indices(self, tmp_path):
        _write(tmp_path, 10, "full")
        _write(tmp_path, 2, "full")
        (tmp_path / "BENCH_x.json").write_text("{}")  # ignored
        files = harness._bench_files(tmp_path)
        assert [i for i, _ in files] == [2, 10]


class TestCompare:
    def _report(self, wall: float, counters=None, name="case_a"):
        rep = {
            "schema": 1, "mode": "smoke",
            "cases": [{"name": name, "wall_s": wall}],
        }
        if counters is not None:
            rep["counters"] = counters
        return rep

    def test_slowdown_beyond_tolerance_flagged(self, tmp_path):
        baseline = json.loads(
            _write(tmp_path, 2, "smoke", wall=0.1).read_text()
        )
        problems = harness.compare(self._report(0.5), baseline, 1.5)
        assert len(problems) == 1
        assert "case_a" in problems[0]

    def test_within_tolerance_clean(self, tmp_path):
        baseline = json.loads(
            _write(tmp_path, 2, "smoke", wall=0.1).read_text()
        )
        assert harness.compare(self._report(0.12), baseline, 1.5) == []

    def test_mode_mismatch_not_compared(self):
        baseline = {"mode": "full",
                    "cases": [{"name": "case_a", "wall_s": 0.001}]}
        assert harness.compare(self._report(9.9), baseline, 1.5) == []

    def test_counter_drift_flagged(self):
        baseline = self._report(0.1, counters={"sched.events_processed": 100})
        report = self._report(0.1, counters={"sched.events_processed": 90})
        problems = harness.compare(report, baseline, 1.5)
        assert any("sched.events_processed" in p for p in problems)

    def test_counter_gate_skipped_for_different_case_sets(self):
        baseline = self._report(0.1, counters={"c": 1})
        report = {
            "schema": 1, "mode": "smoke",
            "cases": [{"name": "other_case", "wall_s": 0.1}],
            "counters": {"c": 2},
        }
        assert harness.compare(report, baseline, 1.5) == []

    def test_counter_gate_skipped_without_baseline_counters(self):
        baseline = self._report(0.1)  # pre-snapshot era report
        report = self._report(0.1, counters={"c": 2})
        assert harness.compare(report, baseline, 1.5) == []

    def test_new_and_missing_counters_flagged(self):
        baseline = self._report(0.1, counters={"old.only": 1})
        report = self._report(0.1, counters={"new.only": 1})
        problems = harness.compare(report, baseline, 1.5)
        assert any("old.only" in p for p in problems)
        assert any("new.only" in p for p in problems)


class TestEndToEndSelection:
    def test_slow_smoke_caught_against_true_baseline(self, tmp_path):
        """The full regression scenario: an old same-mode baseline
        plus a newer other-mode report on disk; a slowed run must be
        gated against the same-mode one."""
        _write(tmp_path, 2, "smoke", wall=0.01)
        _write(tmp_path, 10, "full", wall=5.0)
        out = tmp_path / "BENCH_11.json"
        baseline_path = harness._select_baseline(tmp_path, out, "smoke")
        assert baseline_path == tmp_path / "BENCH_2.json"
        baseline = json.loads(baseline_path.read_text())
        slowed = {
            "schema": 1, "mode": "smoke",
            "cases": [{"name": "case_a", "wall_s": 0.2}],
        }
        assert harness.compare(slowed, baseline, 1.5)


class TestMeasure:
    def test_sides_alternate_base_first(self):
        calls = []

        def side(name):
            def run():
                calls.append(name)
                return calls.count(name)
            return run

        s = harness.measure(side("test"), side("base"), pairs=4)
        assert calls == ["base", "test", "test", "base",
                         "base", "test", "test", "base"]
        assert len(s.test) == len(s.base) == 4
        assert (s.out, s.base_out) == (4, 4)
        assert s.ratios.shape == (4,)

    def test_without_base_samples_test_alone(self):
        s = harness.measure(lambda: "x", pairs=3)
        assert len(s.test) == 3 and s.base == []
        assert (s.out, s.base_out) == ("x", None)

    def test_gc_restored_when_the_timed_call_raises(self):
        seen = []

        def boom():
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        assert gc.isenabled()
        with pytest.raises(RuntimeError):
            harness.measure(boom, pairs=2)
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("n,k", [(12, 2), (36, 12), (80, 31)])
    def test_spread_interval_indices(self, n, k):
        """k = floor(n/2 - 0.98 sqrt(n)) on the sorted ratios."""
        ratios = np.random.default_rng(n).permutation(
            1.0 + np.arange(n) / 1000
        )
        got = harness.spread(ratios)
        assert got["interval_pct"] == [k / 10, (n - 1 - k) / 10]
        assert got["median_pct"] == round((n - 1) / 20, 2)


class TestMain:
    def test_unknown_case_exits_2_naming_each(self, tmp_path, capsys):
        """A stale case name in a CI step must fail, not gate nothing."""
        out = tmp_path / "bench.json"
        with pytest.raises(SystemExit) as exc:
            harness.main(["--smoke", "--only", "no_such_case",
                          "--only", "gauss_seidel", "--only", "also_gone",
                          "--output", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown case(s): no_such_case, also_gone" in err
        assert not out.exists()
