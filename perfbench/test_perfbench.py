"""Smoke test of the benchmark itself: ``python3 -m pytest perfbench``.

One timed op and one traced op per workload on a fresh seed: every
output check passes, the traced op reproduces the timed op's exact
counts and digest, and the layer shares close to 1 through ``other``.
The command-line contract is checked end to end on the cheapest
workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.prepare_program()

from layers import LAYERS, TARGETS, layer_table  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 20_261_017


def _raw_attributes():
    return [o.__dict__[a] if isinstance(o, type)
            else getattr(sys.modules[o], a) for _, o, a, _, _ in TARGETS]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_op_reproduces_timed_op(workload):
    originals = _raw_attributes()
    timed = run.run_workload(workload, SEED, n_ops=1, trace=False,
                             setup_rounds=1, warmups=0)
    traced = run.run_workload(workload, SEED, n_ops=1, trace=True,
                              setup_rounds=1, warmups=0, overhead_pairs=1)
    assert _raw_attributes() == originals  # wrappers are all removed
    for result in (timed, traced):
        assert result["attempted"] == 1
        assert result["failed"] == 0 and not result["errors"]
    assert traced["counts"] == timed["counts"]
    assert traced["digest"] == timed["digest"]
    assert any(timed["counts"].values())

    (row,) = traced["rows"]
    assert sum(r[1] for r in row["layers"].values()) == row["wall_ns"]
    table = layer_table(traced["rows"])
    assert sum(r["share"] for r in table.values()) == pytest.approx(1.0)
    assert table["other"]["share"] >= 0.0
    assert set(table) == set(LAYERS)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_command_prints_declared_metrics(trace, section):
    command = SPEC["command"] + ["--workload", "mummi_durable",
                                 "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace)]
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float)
               for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(HERE.parent / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    command = SPEC["command"] + ["--workload", "capture_ab", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True,
                          text=True, timeout=170, check=False)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
