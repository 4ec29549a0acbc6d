"""Self-time arithmetic, and a traced request's report bytes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import layertrace

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"


def test_self_time_of_hand_built_tree():
    #   0 root [0, 10]
    #   1 ├── a [1, 4]
    #   2 │   └── a1 [2, 3]
    #   3 └── b [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert layertrace.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_time_of_empty_trace():
    assert layertrace.self_times([], [], []).tolist() == []


def test_load_sums_self_time_per_name(tmp_path):
    names = ["x", "y", "z"]
    prefix = tmp_path / "t"
    np.savez(f"{prefix}.npz", name=np.array([2, 0, 1, 0], dtype=np.int32),
             parent=np.array([-1, 0, 1, 0], dtype=np.int32),
             start=np.array([0.0, 1.0, 2.0, 5.0]), end=np.array([10.0, 4.0, 3.0, 9.0]))
    (tmp_path / "t.json").write_text(json.dumps({"names": names, "counters": {}}))
    got = layertrace.load(prefix)
    assert got["calls"] == {"x": 2, "y": 1, "z": 1}
    assert got["self_s"] == {"x": 6.0, "y": 1.0, "z": 3.0}


def _run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable] + argv, cwd=cwd, env=env,
                          capture_output=True, timeout=120)


@pytest.fixture(scope="module")
def tower_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("tower")
    inputs.write_plan("tower", 0, d)
    return d


@pytest.mark.parametrize("args", [
    ["weil", "--prec-tau", "12", "--input", "weil-f9m2-0g.json"],
    ["tate", "--prec-z", "16", "--input", "tate-f4-const.json"],
])
def test_traced_report_is_byte_identical(tower_inputs, tmp_path, args):
    plain = _run(["-m", "taumod"] + args, tower_inputs)
    prefix = tmp_path / "req"
    traced = _run([str(BENCH / "layertrace.py"), str(prefix), "--"] + args, tower_inputs)
    assert plain.returncode == traced.returncode == 0, traced.stderr.decode()
    assert plain.stdout == traced.stdout
    out = layertrace.load(prefix)
    assert out["calls"]["cli.main"] == 1
    assert out["counters"]["felt_ops"] > 0 and out["counters"]["fields_built"] > 0
    assert out["counters"]["extensions_tried"] >= 1
    root = out["self_s"]["cli.main"]
    assert 0 <= root <= sum(out["self_s"].values())


def test_traced_verify_is_byte_identical(tower_inputs, tmp_path):
    report = tmp_path / "weil.json"
    made = _run(["-m", "taumod", "weil", "--prec-tau", "12", "--input",
                 "weil-f9m2-0g.json"], tower_inputs)
    report.write_bytes(made.stdout)
    args = ["verify", "--input", str(report)]
    plain = _run(["-m", "taumod"] + args, tower_inputs)
    traced = _run([str(BENCH / "layertrace.py"), str(tmp_path / "v"), "--"] + args,
                  tower_inputs)
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
