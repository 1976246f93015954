"""Command-line interface.

Exit codes: 0 success, 1 usage, I/O or parse error, 2 invariant failure
(invalid measure or state, residual beyond tolerance). Each command
accepts only the options it reads. Reports are JSON
with a fixed field order and shortest round-trip float formatting, trees
in the codec's layouts written by `codec.dump` exactly as `json.dumps`
writes their list form, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import rand
from .algebra import RESIDUAL_GATE
from .codec import (JSONDecodeError, _instrument_layout, _measure_layout, _povm_layout,
                    dump, instrument_from_json, loads, matrix_from_json, measure_from_json,
                    prob_to_json)
from .errors import GroupError, WeylseqError
from .group import Group
from .instruments import (
    COVARIANCE_GATE,
    covariant_instrument,
    reconstruct_measure,
    verify_covariance,
)
from .observables import (
    cpso_from_state,
    effect_span_dimension,
    ensure_state,
    measure,
    smear_momentum,
    smear_position,
)
from .sequential import cpso_defect, run_sequential
from .spin import SpinFrame, kronecker_factorization_check, unsharp_spin
from .suites import SUITE_NAMES, run_suite
from .weyl import WeylSystem

DEFAULT_SEED = 42
# Largest dense Weyl system a --group may ask for: the U and V stacks, which
# only dump-weyl and the verify snag check still build, take 2 * 16 * n^3
# bytes, the index, character and Fourier tables 40 * n^2.
MAX_WEYL_BYTES = 1 << 30


class _InputError(Exception):
    """Maps to exit code 1."""


class _InvariantError(Exception):
    """Maps to exit code 2."""


# ==================== small helpers ====================


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    try:
        return loads(text)
    except JSONDecodeError as exc:
        raise _InputError(f"cannot parse {path}: {exc}") from exc


def _load_state(path: str) -> np.ndarray:
    """A malformed matrix file exits 1, a matrix that is no state 2."""
    try:
        mat = matrix_from_json(_load_json(path))
    except (ValueError, TypeError, KeyError) as exc:
        raise _InputError(f"bad matrix in {path}: {exc}") from exc
    try:
        return ensure_state(mat)
    except ValueError as exc:
        raise _InvariantError(f"state in {path} is invalid: {exc}") from exc


def _load_object(path: str, what: str, from_json):
    """Decode a measure or an instrument: an invalid object exits 2, a
    malformed file 1."""
    obj = _load_json(path)
    try:
        return from_json(obj)
    except WeylseqError as exc:
        raise _InvariantError(f"{what} in {path}: {exc}") from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise _InputError(f"bad {what} in {path}: {exc}") from exc


def _parse_group(spec: str) -> Group:
    try:
        group = Group.from_spec(spec)
    except GroupError as exc:
        raise _InputError(str(exc)) from exc
    n = group.order
    need = 32 * n**3 + 40 * n**2
    if need > MAX_WEYL_BYTES:
        gib = need / 2**30 if need.bit_length() <= 1024 else math.inf  # too large for a float
        raise _InputError(
            f"group {spec} of order {n} needs about {gib:.1f} GiB "
            f"of dense Weyl operators; the limit is {MAX_WEYL_BYTES / 2**30:.0f} GiB"
        )
    return group


def _check_options(args) -> None:
    """Reject a --tol that cannot gate anything and a --seed numpy cannot take."""
    tol = getattr(args, "tol", RESIDUAL_GATE)
    if not (math.isfinite(tol) and tol >= 0):
        raise _InputError(f"--tol must be finite and non-negative, got {tol}")
    if getattr(args, "seed", 0) < 0:
        raise _InputError(f"--seed must be non-negative, got {args.seed}")


def _emit(report: dict, out: str | None) -> None:
    if not out:
        dump(report, sys.stdout)
        sys.stdout.write("\n")
        return
    try:
        with open(out, "w") as fh:
            dump(report, fh)
            fh.write("\n")
    except OSError as exc:
        raise _InputError(f"cannot write {out}: {exc}") from exc


def _label_text(label) -> str:
    if isinstance(label, tuple):
        return ",".join(_label_text(v) for v in label)
    return str(label)


# ==================== commands ====================


def cmd_sequential_run(args) -> int:
    mm = _load_object(args.measure, "measure", measure_from_json)
    if args.group and _parse_group(args.group) != mm.group:
        raise _InputError(
            f"--group {args.group} does not match the measure's group"
        )
    ws = WeylSystem(mm.group)
    rho = ws.require_dim(_load_state(args.state), "state") if args.state else None
    result = run_sequential(ws, mm)

    residuals = {
        "covariance": result.covariance_defect,
        "joint_vs_cpso": cpso_defect(ws, result),
        "marginal_a_vs_smear": float(np.abs(
            result.marginal_a.effects - smear_position(ws, result.sigma).effects).max()),
        "marginal_b_vs_smear": float(np.abs(
            result.marginal_b.effects - smear_momentum(ws, result.tau).effects).max()),
    }
    report = {
        "command": "sequential run",
        "tolerance": args.tol,
        "group": mm.group.to_json(),
        "sigma": prob_to_json(result.sigma),
        "tau": prob_to_json(result.tau),
        "generating_state": result.generating_state,
        "joint": _povm_layout(result.joint),
        "marginal_a": _povm_layout(result.marginal_a),
        "marginal_b": _povm_layout(result.marginal_b),
        "residuals": residuals,
    }
    # CSV files first, so that a CSV directory that cannot be written
    # leaves stdout empty
    if args.csv:
        try:
            _export_csv(Path(args.csv), result, rho)
        except OSError as exc:
            raise _InputError(f"cannot write CSV files to {args.csv}: {exc}") from exc
    _emit(report, args.out)

    worst = float(np.max(list(residuals.values())))  # NaN if any is
    if not worst <= args.tol:
        raise _InvariantError(f"residual {worst:.3e} beyond tolerance {args.tol}")
    return 0


def _export_csv(csv_dir: Path, result, rho: np.ndarray | None) -> None:
    dist = measure(result.joint, rho) if rho is not None else None  # before any file
    csv_dir.mkdir(parents=True, exist_ok=True)
    for name, pv in (("sigma", result.sigma), ("tau", result.tau)):
        _write_csv(csv_dir / f"{name}.csv", ["outcome", "probability"],
                   ([_label_text(o), repr(float(w))] for o, w in zip(pv.outcomes, pv.weights)))
    if dist is not None:
        _write_csv(csv_dir / "joint.csv", ["position", "momentum", "probability"],
                   ([_label_text(x), _label_text(chi), repr(float(w))]
                    for (x, chi), w in zip(dist.outcomes, dist.weights)))


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_instrument_build(args) -> int:
    mm = _load_object(args.measure, "measure", measure_from_json)
    ws = WeylSystem(mm.group)
    _emit(_instrument_layout(ws, covariant_instrument(ws, mm)), args.out)
    return 0


def cmd_instrument_verify(args) -> int:
    group, instr = _load_object(args.infile, "instrument", instrument_from_json)
    defect = verify_covariance(WeylSystem(group), instr)
    _emit(
        {
            "command": "instrument verify",
            "group": group.to_json(),
            "covariance_residual": defect,
            "tolerance": args.tol,
            "pass": bool(defect <= args.tol),
        },
        args.out,
    )
    if not defect <= args.tol:
        raise _InvariantError(
            f"covariance residual {defect:.3e} beyond tolerance {args.tol}"
        )
    return 0


def cmd_instrument_reconstruct(args) -> int:
    group, instr = _load_object(args.infile, "instrument", instrument_from_json)
    _emit(_measure_layout(reconstruct_measure(WeylSystem(group), instr)), args.out)
    return 0


def cmd_cpso(args) -> int:
    group = _parse_group(args.group or "2")
    rho = _load_state(args.state)
    ws = WeylSystem(group)
    if rho.shape[0] != ws.dim:
        raise _InputError(
            f"state dimension {rho.shape[0]} does not match group order {ws.dim}"
        )
    povm = cpso_from_state(ws, rho)
    report = {
        "command": "cpso",
        "group": group.to_json(),
        "povm": _povm_layout(povm),
    }
    if args.check_ic:
        report["span_dimension"] = span = effect_span_dimension(povm)
        report["informationally_complete"] = span == ws.dim**2
    _emit(report, args.out)
    return 0


def cmd_demo_spin(args) -> int:
    try:
        a = tuple(float(v) for v in args.a.split(","))
        b = tuple(float(v) for v in args.b.split(","))
        if len(a) != 3 or len(b) != 3:
            raise ValueError("axes need exactly three components")
    except ValueError as exc:
        raise _InputError(f"bad axis: {exc}") from exc
    try:
        frame = SpinFrame(a, b)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc

    if args.probe:
        omega = _load_state(args.probe)
    else:
        omega = np.zeros((2, 2), dtype=complex)
        omega[0, 0] = 1.0
    if omega.shape != (2, 2):
        raise _InputError("probe must be a 2x2 state")

    s, t, povm_a, povm_b = unsharp_spin(frame, omega)
    rng = np.random.default_rng(args.seed)
    fact = max(
        kronecker_factorization_check(frame, omega, rand.bloch_state(rng))
        for _ in range(5)
    )
    report = {
        "command": "demo spin",
        "seed": args.seed,
        "a": [float(v) for v in frame.a],
        "b": [float(v) for v in frame.b],
        "s": s,
        "t": t,
        "tradeoff": s * s + t * t,
        "povm_a": _povm_layout(povm_a),
        "povm_b": _povm_layout(povm_b),
        "factorization_residual": fact,
    }
    _emit(report, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.suite not in SUITE_NAMES:
        raise _InputError(
            f"unknown suite {args.suite!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    group = _parse_group(args.group or "2")
    if args.suite == "spin" and group.moduli != (2,):
        raise _InputError(f"the spin suite runs on the group 2 only, not {args.group}")
    results = run_suite(args.suite, group, args.seed)
    all_ok = True
    sys.stdout.write(
        f"suite={args.suite} group={'x'.join(map(str, group.moduli))} "
        f"seed={args.seed}\n"
    )
    for label, (value, tol) in results.items():
        ok = value <= tol
        all_ok = all_ok and ok
        sys.stdout.write(
            f"{label}: residual={value:.3e} tol={tol:.3e} "
            f"{'PASS' if ok else 'FAIL'}\n"
        )
    if not all_ok:
        raise _InvariantError("one or more residuals beyond tolerance")
    return 0


def cmd_dump_weyl(args) -> int:
    group = _parse_group(args.group or "2")
    ws = WeylSystem(group)
    _emit({"command": "dump-weyl", "group": group.to_json(), "u": ws.translations,
           "v": ws.modulations, "fourier": ws.fourier}, args.out)
    return 0


# ==================== parser ====================


class _Parser(argparse.ArgumentParser):
    """Sends usage errors down the exit-1 path; --help still exits 0."""

    def error(self, message):
        raise _InputError(f"{self.prog}: {message}")


_SHARED_OPTIONS = {
    "--group": dict(help="group spec like 2 or 2x3 (default 2 where one is needed)"),
    "--tol": dict(type=float, default=RESIDUAL_GATE,
                  help="residual gate, finite and >= 0 (default %(default)g)"),
    "--seed": dict(type=int, default=DEFAULT_SEED),
    "--out": dict(help="write JSON here, not stdout"),
}


def _leaf(sub, name: str, func, *shared: str) -> argparse.ArgumentParser:
    """A command parser with the named shared options; the caller adds the
    command's own."""
    p = sub.add_parser(name)
    for flag in shared:
        p.add_argument(flag, **_SHARED_OPTIONS[flag])
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weylseq",
        description="Sequential measurements of conjugate observables "
        "on finite abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq_sub = sub.add_parser("sequential").add_subparsers(dest="subcmd", required=True)
    p_run = _leaf(seq_sub, "run", cmd_sequential_run, "--group", "--tol", "--out")
    p_run.add_argument("--measure", required=True, help="measure JSON file")
    p_run.add_argument("--state", default=None, help="input state JSON file")
    p_run.add_argument("--csv", default=None,
                       help="directory for sigma/tau/joint CSV export")

    ins_sub = sub.add_parser("instrument").add_subparsers(dest="subcmd", required=True)
    _leaf(ins_sub, "build", cmd_instrument_build, "--out").add_argument(
        "--measure", required=True)
    _leaf(ins_sub, "verify", cmd_instrument_verify, "--tol", "--out").add_argument(
        "--in", dest="infile", required=True)
    _leaf(ins_sub, "reconstruct", cmd_instrument_reconstruct, "--out").add_argument(
        "--in", dest="infile", required=True,
        help=f"instrument JSON file, checked for covariance at {COVARIANCE_GATE:g}")

    p_cpso = _leaf(sub, "cpso", cmd_cpso, "--group", "--out")
    p_cpso.add_argument("--state", required=True)
    p_cpso.add_argument("--check-ic", action="store_true")

    demo_sub = sub.add_parser("demo").add_subparsers(dest="subcmd", required=True)
    p_spin = _leaf(demo_sub, "spin", cmd_demo_spin, "--seed", "--out")
    p_spin.add_argument("--a", default="0,0,1")
    p_spin.add_argument("--b", default="1,0,0")
    p_spin.add_argument("--probe", default=None)

    _leaf(sub, "verify", cmd_verify, "--group", "--seed").add_argument("--suite", required=True)
    _leaf(sub, "dump-weyl", cmd_dump_weyl, "--group", "--out")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_options(args)
        return args.func(args)
    except _InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (_InvariantError, WeylseqError) as exc:
        sys.stderr.write(f"invariant failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
