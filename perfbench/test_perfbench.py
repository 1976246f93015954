"""Tests of the benchmark itself: metric names, failure accounting, spans."""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from weylseq import matrix_to_json

import cliwork
import harness
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
TINY_LADDER = [run._op("seq", "2", "small", True), run._op("seq", "3", "mid", True),
               run._op("seq", "2x2", "large", True)]


def _declared(kind: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def _smoke(capsys, trace: int) -> dict:
    argv = ["--workload", "seq_ladder", "--seed", "3", "--seconds", "0.2",
            "--trace", str(trace)]
    assert run.main(argv, ops=TINY_LADDER) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(TINY_LADDER)
    return result


def test_smoke_end_to_end_names_match_benchmark_json(capsys):
    result = _smoke(capsys, 0)
    printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
    assert printed == _declared("end_to_end")
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert all(result["metrics"][k]["value"] > 0
               for k in ("setup_s", "op_small_rel", "op_mid_rel", "op_large_rel",
                         "peak_rss_mb"))


def test_smoke_per_layer_names_match_benchmark_json(capsys):
    result = _smoke(capsys, 1)
    printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
    assert printed == _declared("per_layer")
    # per pass: one covariance check per run_sequential call, none from set-up
    assert result["metrics"]["instruments.verify_covariance.calls"]["value"] == len(TINY_LADDER)
    assert result["metrics"]["setup.cli.import_s"]["value"] > 0


def test_invalid_input_is_counted_as_failed(tmp_path):
    # A "state" with a negative eigenvalue: the CLI must exit 2. The other
    # two calls get valid random states and pass.
    bad = {"rows": 2, "cols": 2, "data": [[1.5, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.5, 0.0]]}
    (tmp_path / "s_2.json").write_text(json.dumps(bad))
    rng = np.random.default_rng(0)
    for spec, n in (("3", 3), ("2x2", 4)):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = a @ a.conj().T
        (tmp_path / f"s_{spec}.json").write_text(
            json.dumps(matrix_to_json(rho / np.trace(rho).real)))
    (tmp_path / "inputs.json").write_text("{}")
    runner = cliwork.CliRunner(ROOT, tmp_path, run.child_env(ROOT), time.perf_counter() + 60)
    ops = [run._op("cpso", "2", "small", True), run._op("cpso", "3", "mid", True),
           run._op("cpso", "2x2", "large", True)]
    loop = harness.closed_loop(ops, 0.0, runner.call, False, runner.calibrate)
    assert loop["attempted"] == 3 and loop["failed"] == 1
    assert loop["errors"] == ["cpso:2: CheckError: cpso exited with code 2"]
    assert len(loop["samples"]["cpso:2"]) == 1  # the failure keeps its time
    raw = {"loop": loop, "ops": ops, "setup_times": [1.0], "rss_kb": [1]}
    result = run.result_line(raw, False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)


def test_calibrated_time_divides_by_the_neighbouring_calibrations():
    cals = iter([1.0, 3.0, 2.0])  # before a, between a and b, after b
    ops = [run._op("x", "a", "small"), run._op("x", "b", "large")]

    def call(op, k, traced):
        return {"dt": 4.0, "error": None, "ratio": 0.0}

    loop = harness.closed_loop(ops, 0.0, call, False, lambda: next(cals))
    assert loop["rel"] == {"x:a": [2.0], "x:b": [1.6]}
    assert loop["samples"] == {"x:a": [4.0], "x:b": [4.0]}


def test_self_time_arithmetic_on_synthetic_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],     # overlaps a: the children cover 1..6 once
        ["a.child", 2.0, 3.0, 1],
        ["c", 9.0, 12.0, 0],    # runs past its parent: only 9..10 counts
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]
    totals = tracing.aggregate(spans + [["a", 20.0, 21.5, -1]])
    assert totals["a"] == [3.5, 2]
    assert tracing.root_coverage(spans + [["x", 9.5, 11.0, -1]]) == 11.0


def test_nested_calls_show_as_child_spans():
    # In a child process, so the wrappers do not leak into other tests.
    code = """
import json, numpy as np, tracing
import weylseq.sequential
from weylseq import Group, WeylSystem, rand
t = tracing.Tracer(); tracing.install(t)
g = Group((2,)); ws = WeylSystem(g)
weylseq.sequential.run_sequential(ws, rand.covariant_measure(np.random.default_rng(0), g))
names = [s[0] for s in t.spans]
parent = {s[0]: t.spans[s[3]][0] for s in t.spans if s[3] >= 0}
print(json.dumps([names, parent]))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=ROOT / "perfbench", env=run.child_env(ROOT), check=True)
    names, parent = json.loads(out.stdout)
    assert parent["instruments.verify_covariance"] == "sequential.joint_observable"
    assert parent["sequential.joint_observable"] == "sequential.run_sequential"
    assert parent["instruments.CpMap_init"] == "instruments.covariant_instrument"
    assert "algebra.is_psd" in names
