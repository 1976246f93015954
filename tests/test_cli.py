"""End-to-end CLI tests: exit codes, report shape, determinism, CSV export."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weylseq
from weylseq import (
    CovariantMeasure,
    Group,
    WeylSystem,
    covariant_instrument,
    instrument_to_json,
    matrix_to_json,
    measure_to_json,
)
from weylseq import rand
from weylseq.cli import build_parser, main


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def measure_file(tmp_path, ws2):
    omega = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    mm = CovariantMeasure.point_mass(ws2, (0,), omega)
    return write_json(tmp_path / "measure.json", measure_to_json(mm))


def test_sequential_run_ok(measure_file, capsys):
    assert main(["sequential", "run", "--measure", measure_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "sequential run"
    assert report["group"] == {"moduli": [2]}
    assert report["sigma"]["weights"] == [0.6, 0.4]
    assert max(report["residuals"].values()) < 1e-9
    assert len(report["joint"]["effects"]) == 4


def test_sequential_run_deterministic(measure_file, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["sequential", "run", "--measure", measure_file,
                 "--out", str(out1)]) == 0
    assert main(["sequential", "run", "--measure", measure_file,
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sequential_run_csv(measure_file, tmp_path, ws2):
    state = write_json(
        tmp_path / "state.json",
        matrix_to_json(np.eye(2, dtype=complex) / 2),
    )
    csv_dir = tmp_path / "csv"
    assert main(["sequential", "run", "--measure", measure_file,
                 "--state", state, "--csv", str(csv_dir),
                 "--out", str(tmp_path / "r.json")]) == 0
    sigma_lines = (csv_dir / "sigma.csv").read_text().splitlines()
    assert sigma_lines[0] == "outcome,probability"
    assert len(sigma_lines) == 3
    assert (csv_dir / "tau.csv").exists()
    joint_lines = (csv_dir / "joint.csv").read_text().splitlines()
    assert joint_lines[0] == "position,momentum,probability"
    assert len(joint_lines) == 5
    total = sum(float(row.split(",")[-1]) for row in joint_lines[1:])
    assert abs(total - 1.0) < 1e-12


def test_sequential_run_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["sequential", "run", "--measure", missing]) == 1
    assert "nope.json" in capsys.readouterr().err


def test_sequential_run_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sequential", "run", "--measure", str(bad)]) == 1
    assert "cannot parse" in capsys.readouterr().err


def test_sequential_run_unnormalized_measure(tmp_path, ws2, capsys):
    omega = np.array([[0.5, 0], [0, 0.4]], dtype=complex)  # trace 0.9
    obj = {
        "group": {"moduli": [2]},
        "m": [matrix_to_json(omega), matrix_to_json(np.zeros((2, 2)))],
    }
    path = write_json(tmp_path / "short.json", obj)
    assert main(["sequential", "run", "--measure", path]) == 2
    assert "not normalized" in capsys.readouterr().err


def test_sequential_run_group_mismatch(measure_file, capsys):
    assert main(["sequential", "run", "--measure", measure_file,
                 "--group", "3"]) == 1
    assert "does not match" in capsys.readouterr().err


def test_sequential_run_takes_group_from_measure(tmp_path, rng, capsys):
    # no --group flag: the group comes from the file, whatever it is
    g = Group((2, 3))
    mm = rand.covariant_measure(rng, g)
    path = write_json(tmp_path / "m23.json", measure_to_json(mm))
    assert main(["sequential", "run", "--measure", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["group"] == {"moduli": [2, 3]}
    assert len(report["sigma"]["weights"]) == 6


def test_instrument_build_takes_group_from_measure(tmp_path, rng, capsys):
    g = Group((3,))
    mm = rand.covariant_measure(rng, g)
    path = write_json(tmp_path / "m3.json", measure_to_json(mm))
    assert main(["instrument", "build", "--measure", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["group"] == {"moduli": [3]}


def test_sequential_run_tiny_gate_fails_closed(measure_file, tmp_path, capsys):
    # the report is still written before the gate trips
    out = tmp_path / "r.json"
    code = main(["sequential", "run", "--measure", measure_file,
                 "--tol", "1e-30", "--out", str(out)])
    assert code == 2
    assert out.exists()
    assert "beyond tolerance" in capsys.readouterr().err


def test_instrument_roundtrip_via_files(tmp_path, rng, capsys):
    g = Group((3,))
    ws = WeylSystem(g)
    mm = rand.covariant_measure(rng, g)
    mfile = write_json(tmp_path / "m.json", measure_to_json(mm))

    ifile = tmp_path / "instr.json"
    assert main(["instrument", "build", "--measure", mfile,
                 "--out", str(ifile)]) == 0

    assert main(["instrument", "verify", "--in", str(ifile)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["covariance_residual"] < 1e-9

    rfile = tmp_path / "back.json"
    assert main(["instrument", "reconstruct", "--in", str(ifile),
                 "--out", str(rfile)]) == 0
    back = json.loads(rfile.read_text())
    assert back["group"] == {"moduli": [3]}
    for k in range(3):
        got = np.array(
            [[complex(re, im) for re, im in row_chunks]
             for row_chunks in _rows(back["m"][k])]
        )
        assert np.abs(got - mm.m[k]).max() < 1e-10


def _rows(mat_json):
    rows = mat_json["rows"]
    cols = mat_json["cols"]
    data = mat_json["data"]
    return [data[r * cols:(r + 1) * cols] for r in range(rows)]


def test_cpso_check_ic(tmp_path, capsys):
    point = write_json(
        tmp_path / "point.json",
        matrix_to_json(np.diag([1.0, 0.0]).astype(complex)),
    )
    assert main(["cpso", "--state", point, "--check-ic"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["span_dimension"] == 2
    assert report["informationally_complete"] is False

    r = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]])
    tilted = 0.5 * (np.eye(2) + r[0] * sx + r[1] * sy + r[2] * sz)
    tfile = write_json(tmp_path / "tilted.json", matrix_to_json(tilted))
    assert main(["cpso", "--state", tfile, "--check-ic"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["span_dimension"] == 4
    assert report["informationally_complete"] is True


def test_cpso_dimension_mismatch(tmp_path, capsys):
    point = write_json(
        tmp_path / "p.json", matrix_to_json(np.diag([1.0, 0.0]).astype(complex))
    )
    assert main(["cpso", "--state", point, "--group", "3"]) == 1
    assert "does not match" in capsys.readouterr().err


def test_cpso_invalid_state(tmp_path, capsys):
    bad = write_json(
        tmp_path / "bad.json",
        matrix_to_json(np.diag([1.5, -0.5]).astype(complex)),
    )
    assert main(["cpso", "--state", bad]) == 2
    assert "invalid" in capsys.readouterr().err


def test_demo_spin_defaults(capsys):
    assert main(["demo", "spin"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["s"] - 1.0) < 1e-12
    assert abs(report["t"]) < 1e-12
    assert abs(report["tradeoff"] - 1.0) < 1e-12
    assert report["factorization_residual"] < 1e-10


def test_demo_spin_rejects_parallel_axes(capsys):
    assert main(["demo", "spin", "--a", "0,0,1", "--b", "0,0,2"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_demo_spin_rejects_malformed_axis(capsys):
    assert main(["demo", "spin", "--a", "1,2"]) == 1
    assert "bad axis" in capsys.readouterr().err


def test_demo_spin_probe_file(tmp_path, capsys):
    probe = write_json(
        tmp_path / "omega.json",
        matrix_to_json(np.eye(2, dtype=complex) / 2),
    )
    assert main(["demo", "spin", "--probe", probe]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["s"]) < 1e-12
    assert abs(report["t"]) < 1e-12


def test_verify_suite_pass(capsys):
    assert main(["verify", "--suite", "weyl", "--group", "2x3"]) == 0
    out = capsys.readouterr().out
    assert "suite=weyl group=2x3 seed=42" in out
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_all_group3(capsys):
    assert main(["verify", "--suite", "all", "--group", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 10
    assert "FAIL" not in out


@pytest.mark.parametrize("group", ["3", "2x2", "4"])
def test_verify_spin_suite_refuses_other_groups(group, capsys):
    # the spin suite realizes only the two-point group; --suite all still
    # runs it next to the other suites on any group
    assert main(["verify", "--suite", "spin", "--group", group]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the spin suite runs on the group 2 only, not {group}\n"
    assert main(["verify", "--suite", "spin", "--group", "2"]) == 0
    assert "suite=spin group=2 seed=42" in capsys.readouterr().out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "bogus"]) == 1
    assert "unknown suite" in capsys.readouterr().err


def test_verify_bad_group(capsys):
    assert main(["verify", "--suite", "weyl", "--group", "2xbanana"]) == 1


def test_dump_weyl(capsys):
    assert main(["dump-weyl", "--group", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    u1 = report["u"][1]
    assert u1["rows"] == 3
    got = np.array([complex(re, im) for re, im in u1["data"]]).reshape(3, 3)
    want = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    assert np.array_equal(got, want)


# SHA-256 of the dump-weyl report as written when WeylSystem stored its
# dense U and V stacks: building them on demand must not move a byte.
DUMP_WEYL_SHA256 = {
    "8": "34caba21c7f29d049e3bf9040bae703132c9469dda400b44d687e895f4f98e09",
    "2x2x2": "5604e6a6affc271e7e4d0b6f0b33da5ba991f6ceb7c94b1fd6615fd8872ecfba",
    "2x3": "61ee69bd4a73f7fb2733dfb1077b53eb28a5a25e25687456db611aed8590e8c6",
}


@pytest.mark.parametrize("spec", sorted(DUMP_WEYL_SHA256))
def test_dump_weyl_bytes_are_pinned(spec, capsys):
    assert main(["dump-weyl", "--group", spec]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DUMP_WEYL_SHA256[spec]


def test_sequential_run_reports_the_single_covariance_check(measure_file, capsys):
    assert main(["sequential", "run", "--measure", measure_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "seed" not in report
    # a closed-form instrument is exactly covariant
    assert report["residuals"]["covariance"] == 0.0


# ==================== rejected input, exit 1 ====================


def run_cli(*args):
    """The CLI as its own process, so that a traceback would reach stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(weylseq.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "weylseq.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture
def instrument_file(measure_file, tmp_path):
    out = str(tmp_path / "instr.json")
    assert main(["instrument", "build", "--measure", measure_file, "--out", out]) == 0
    return out


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_tol_must_be_finite_and_non_negative(measure_file, instrument_file, tol, capsys):
    for argv in (["sequential", "run", "--measure", measure_file],
                 ["instrument", "verify", "--in", instrument_file]):
        assert main(argv + [f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol must be finite and non-negative" in captured.err


def test_tol_nan_exits_1_without_traceback(measure_file):
    proc = run_cli("sequential", "run", "--measure", measure_file, "--tol", "nan")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: --tol")
    assert "Traceback" not in proc.stderr


def test_verify_rejects_tol(capsys):
    assert main(["verify", "--suite", "weyl", "--tol", "1e-9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --tol" in captured.err


def test_zero_tol_is_a_gate(instrument_file):
    # 0 is a valid gate, and the closed-form instrument meets it exactly
    assert main(["instrument", "verify", "--in", instrument_file, "--tol", "0"]) == 0


def test_oversize_group_exits_1_without_traceback():
    proc = run_cli("dump-weyl", "--group", "100000")
    assert proc.returncode == 1
    assert "GiB of dense Weyl operators" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [["verify", "--suite", "weyl"],
                                  ["cpso", "--state", "unused.json"]])
def test_oversize_group_rejected_before_any_work(argv, capsys):
    assert main(argv + ["--group", "400x400"]) == 1
    assert "GiB of dense Weyl operators" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing_dir", "file_as_csv_dir"])
def test_unwritable_output_exits_1_without_traceback(measure_file, tmp_path, target):
    if target == "missing_dir":
        extra = ["--out", str(tmp_path / "nonexistent" / "dir" / "x.json")]
    else:
        taken = tmp_path / "taken"
        taken.write_text("")
        extra = ["--csv", str(taken)]
    proc = run_cli("sequential", "run", "--measure", measure_file, *extra)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# ==================== --state is read whenever it is given ====================


@pytest.mark.parametrize("with_csv", [False, True])
@pytest.mark.parametrize("kind, code", [
    ("missing", 1), ("unparsable", 1), ("not_a_state", 2), ("wrong_dimension", 2),
])
def test_sequential_run_checks_state_before_the_analysis(
        measure_file, tmp_path, capsys, kind, code, with_csv):
    state = tmp_path / "state.json"
    if kind == "unparsable":
        state.write_text("{not json")
    elif kind == "not_a_state":
        write_json(state, matrix_to_json(np.diag([1.5, -0.5]).astype(complex)))
    elif kind == "wrong_dimension":
        write_json(state, matrix_to_json(np.eye(3, dtype=complex) / 3))
    argv = ["sequential", "run", "--measure", measure_file, "--state", str(state)]
    if with_csv:
        argv += ["--csv", str(tmp_path / "csv")]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "state" in captured.err
    assert not (tmp_path / "csv").exists()


def test_sequential_run_missing_state_exits_1_without_traceback(measure_file):
    proc = run_cli("sequential", "run", "--measure", measure_file,
                   "--state", "/nonexistent/state.json")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot read /nonexistent/state.json")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# ==================== NaN residuals fail the gate ====================


def test_sequential_run_nan_residual_exits_2(measure_file, monkeypatch, capsys):
    # not the first residual, so that max() over the residuals would skip it
    monkeypatch.setattr("weylseq.cli.cpso_defect", lambda ws, result: float("nan"))
    assert main(["sequential", "run", "--measure", measure_file]) == 2
    captured = capsys.readouterr()
    assert np.isnan(json.loads(captured.out)["residuals"]["joint_vs_cpso"])
    assert "residual nan beyond tolerance" in captured.err


def test_instrument_verify_nan_residual_exits_2(instrument_file, monkeypatch, capsys):
    monkeypatch.setattr("weylseq.cli.verify_covariance", lambda ws, instr: float("nan"))
    assert main(["instrument", "verify", "--in", instrument_file]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["pass"] is False
    assert "covariance residual nan beyond tolerance" in captured.err


# ==================== allowances that add up exit 2 ====================


@pytest.mark.parametrize("case", ["cpso", "sequential_run_csv", "negative_sigma"])
def test_inputs_within_their_allowance_that_fail_later_exit_2(case, tmp_path, ws2):
    # A Z_2 state of trace 1 + 8e-10 passes |tr - 1| <= 1e-9, but its phase-space
    # POVM misses the identity by sqrt(2) * 8e-10 (cpso); with a measure of trace
    # 1 + 6e-10 the joint distribution sums to 1 + 1.4e-9 (sequential run). A
    # density eigenvalue of -5e-10 passes is_psd but gives sigma that value.
    rng = np.random.default_rng(0)
    state = write_json(tmp_path / "s.json", matrix_to_json(rand.state(rng, 2) * (1 + 8e-10)))
    csv_dir = tmp_path / "out"
    if case == "cpso":
        argv = ["cpso", "--group", "2", "--state", state]
    else:
        if case == "negative_sigma":
            m = np.zeros((2, 2, 2), dtype=complex)
            m[0] = np.diag([1 + 5e-10, -5e-10])
        else:
            m = rand.covariant_measure(rng, ws2.group).m * (1 + 6e-10)
        measure = write_json(tmp_path / "m.json",
                             measure_to_json(CovariantMeasure(ws2.group, m)))
        argv = ["sequential", "run", "--measure", measure, "--state", state,
                "--csv", str(csv_dir)]
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("invariant failure:")
    assert proc.stderr.count("\n") == 1
    assert "np.float64" not in proc.stderr
    assert not csv_dir.exists()


# ==================== option surface ====================

LEAF_OPTIONS = {
    ("sequential", "run"): {"--measure", "--state", "--csv", "--group", "--tol", "--out"},
    ("instrument", "build"): {"--measure", "--out"},
    ("instrument", "verify"): {"--in", "--tol", "--out"},
    ("instrument", "reconstruct"): {"--in", "--out"},
    ("cpso",): {"--state", "--check-ic", "--group", "--out"},
    ("demo", "spin"): {"--a", "--b", "--probe", "--seed", "--out"},
    ("verify",): {"--suite", "--group", "--seed"},
    ("dump-weyl",): {"--group", "--out"},
}


def leaf_parsers(parser, path=()):
    """(command path, parser) for every leaf command under parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from leaf_parsers(child, path + (name,))


def test_each_command_takes_exactly_the_options_it_reads():
    got = {
        path: {flag for action in p._actions for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"}
        for path, p in leaf_parsers(build_parser())
    }
    assert got == LEAF_OPTIONS


@pytest.fixture
def state_file(tmp_path):
    return write_json(tmp_path / "state.json",
                      matrix_to_json(np.eye(2, dtype=complex) / 2))


@pytest.mark.parametrize("argv", [
    ["instrument", "reconstruct", "--in", "{instrument}", "--tol", "5"],
    ["instrument", "build", "--measure", "{measure}", "--group", "3"],
    ["cpso", "--state", "{state}", "--seed", "1"],
    ["verify", "--suite", "weyl", "--out", "{out}"],
    ["demo", "spin", "--tol", "1"],
    ["dump-weyl", "--seed", "1"],
])
def test_dropped_flag_exits_1(argv, instrument_file, measure_file, state_file,
                              tmp_path, capsys):
    out = tmp_path / "f"
    argv = [a.format(instrument=instrument_file, measure=measure_file,
                     state=state_file, out=out) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "unrecognized arguments" in captured.err
    assert not out.exists()


def test_dropped_flag_exits_1_without_traceback(instrument_file):
    proc = run_cli("instrument", "reconstruct", "--in", instrument_file, "--tol", "5")
    assert proc.returncode == 1
    assert proc.stderr == "error: weylseq: unrecognized arguments: --tol 5\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "invalid choice: 'bogus'"),
    (["sequential", "run"], "the following arguments are required: --measure"),
    (["sequential", "run", "--measure", "m.json", "--tol", "abc"],
     "argument --tol: invalid float value: 'abc'"),
])
def test_usage_error_exits_1(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: weylseq")
    assert message in captured.err


def test_usage_error_exits_1_without_traceback():
    proc = run_cli("sequential", "run")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: weylseq sequential run: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [["--help"], ["sequential", "run", "--help"], ["verify", "-h"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: weylseq")


# ==================== loader classification ====================


def _out_of_range_input(tmp_path, case):
    """argv of a command whose input file holds a JSON number that fits no float."""
    half = np.eye(2, dtype=complex) / 2
    state = json.dumps(matrix_to_json(half))
    mm = json.dumps(measure_to_json(
        CovariantMeasure.point_mass(WeylSystem(Group((2,))), (0,), half)))
    argv, text = {
        "state_entry": (["cpso", "--state"],
                        state.replace("[0.5, 0.0]", "[1" + "0" * 400 + ", 0.0]", 1)),
        "state_rows": (["cpso", "--state"], state.replace('"rows": 2', '"rows": 1e400')),
        "measure_moduli": (["sequential", "run", "--measure"],
                           mm.replace('"moduli": [2]', '"moduli": [1e400]')),
    }[case]
    assert text not in (state, mm)
    path = tmp_path / "input.json"
    path.write_text(text)
    return argv + [str(path)]


@pytest.mark.parametrize("case", ["state_entry", "state_rows", "measure_moduli"])
def test_number_beyond_float_range_exits_1(case, tmp_path, capsys):
    assert main(_out_of_range_input(tmp_path, case)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad ")
    assert captured.err.count("\n") == 1


def test_number_beyond_float_range_exits_1_without_traceback(tmp_path):
    proc = run_cli(*_out_of_range_input(tmp_path, "state_entry"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: bad matrix")
    assert proc.stdout == ""


@pytest.mark.parametrize("defect, message", [
    ("not_cp", "not positive semidefinite"),
    ("not_trace_preserving", "not trace preserving"),
])
@pytest.mark.parametrize("command", ["verify", "reconstruct"])
def test_invalid_instrument_exits_2(instrument_file, tmp_path, capsys, defect, message,
                                    command):
    obj = json.loads(Path(instrument_file).read_text())
    for k, m in enumerate(obj["maps"]):
        choi = np.zeros((4, 4), dtype=complex)
        if defect == "not_cp" and k == 0:
            choi[0, 0] = -1.0
        m["choi"] = matrix_to_json(choi)
    path = write_json(tmp_path / "bad_instr.json", obj)
    assert main(["instrument", command, "--in", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant failure: instrument in ")
    assert message in captured.err


def _truncated_input(tmp_path, kind, change):
    """argv of a command whose input file holds a matrix with one entry too
    few or too many for its rows and cols."""
    ws = WeylSystem(Group((2,)))
    half = np.eye(2, dtype=complex) / 2
    mm = CovariantMeasure.point_mass(ws, (0,), half)
    obj, argv = {
        "state": (matrix_to_json(half), ["cpso", "--state"]),
        "measure": (measure_to_json(mm), ["sequential", "run", "--measure"]),
        "instrument": (instrument_to_json(ws, covariant_instrument(ws, mm)),
                       ["instrument", "verify", "--in"]),
    }[kind]
    mat = {"state": lambda o: o, "measure": lambda o: o["m"][0],
           "instrument": lambda o: o["maps"][0]["choi"]}[kind](obj)
    if change == "short":
        mat["data"].pop()
    else:
        mat["data"].append([0.0, 0.0])
    return argv + [write_json(tmp_path / f"{kind}.json", obj)]


@pytest.mark.parametrize("change", ["short", "long"])
@pytest.mark.parametrize("kind", ["state", "measure", "instrument"])
def test_matrix_data_of_the_wrong_length_exits_1(kind, change, tmp_path, capsys):
    assert main(_truncated_input(tmp_path, kind, change)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad ")
    assert "entries, expected" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("kind", ["state", "measure", "instrument"])
def test_matrix_data_of_the_wrong_length_exits_1_without_traceback(kind, tmp_path):
    proc = run_cli(*_truncated_input(tmp_path, kind, "short"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: bad ")
    assert proc.stdout == ""


MISSHAPEN = {
    "density_1x1": lambda o: o["m"][1].update(rows=1, cols=1, data=[[0.0, 0.0]]),
    "three_densities": lambda o: o["m"].append(o["m"][1]),
    "no_densities": lambda o: o["m"].clear(),
    "one_map_too_few": lambda o: o["maps"].pop(),
    "choi_2x2": lambda o: o["maps"][0].update(choi=matrix_to_json(np.eye(2) / 2)),
}


def _misshapen_input(tmp_path, case):
    """argv of a command whose Z_2 measure or instrument file holds a stack
    of the wrong length or a matrix of the wrong size."""
    ws = WeylSystem(Group((2,)))
    mm = CovariantMeasure.point_mass(ws, (0,), np.eye(2, dtype=complex) / 2)
    if case.endswith(("densities", "1x1")):
        obj, argv = measure_to_json(mm), ["sequential", "run", "--measure"]
    else:
        obj = instrument_to_json(ws, covariant_instrument(ws, mm))
        argv = ["instrument", "verify", "--in"]
    MISSHAPEN[case](obj)
    return argv + [write_json(tmp_path / "input.json", obj)]


@pytest.mark.parametrize("case", sorted(MISSHAPEN))
def test_stack_of_the_wrong_shape_exits_1(case, tmp_path, capsys):
    assert main(_misshapen_input(tmp_path, case)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad ")
    assert captured.err.count("\n") == 1


def test_stack_of_the_wrong_shape_exits_1_without_traceback(tmp_path):
    proc = run_cli(*_misshapen_input(tmp_path, "three_densities"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: bad measure in ")
    assert proc.stdout == ""


@pytest.mark.parametrize("moduli", ['"23"', "[2.5]", "[true]", "[2, 3.0]", '{"2": 3}'])
def test_moduli_that_are_not_a_list_of_integers_exit_1(moduli, tmp_path, capsys):
    # the file is a valid 2x3 measure but for the spelling of its moduli
    mm = rand.covariant_measure(np.random.default_rng(0), Group((2, 3)))
    text = json.dumps(measure_to_json(mm)).replace('"moduli": [2, 3]', f'"moduli": {moduli}')
    path = tmp_path / "measure.json"
    path.write_text(text)
    assert main(["sequential", "run", "--measure", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad measure in ")
    assert "not a list of integers" in captured.err
