"""Command-line interface.

Exit codes: 0 success, 1 I/O or parse error, 2 invariant failure
(invalid measure or state, residual beyond tolerance). Reports are JSON
with a fixed field order and shortest round-trip float formatting, so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import rand
from .algebra import matrix_from_json, matrix_to_json
from .errors import GroupError, WeylseqError
from .group import Group
from .instruments import (
    covariant_instrument,
    instrument_from_json,
    instrument_to_json,
    measure_from_json,
    measure_to_json,
    reconstruct_measure,
    verify_covariance,
)
from .observables import (
    cpso_from_state,
    effect_span_dimension,
    ensure_state,
    is_informationally_complete,
    measure,
    povm_to_json,
    smear_momentum,
    smear_position,
)
from .sequential import cpso_defect, run_sequential
from .spin import SpinFrame, kronecker_factorization_check, unsharp_spin
from .suites import SUITE_NAMES, run_suite
from .weyl import WeylSystem

DEFAULT_SEED = 42
DEFAULT_GATE = 1e-9
# Largest dense Weyl system a --group may ask for: the U and V stacks take
# 2 * 16 * n^3 bytes, the index, character and Fourier tables 40 * n^2.
MAX_WEYL_BYTES = 1 << 30


class _InputError(Exception):
    """Maps to exit code 1."""


class _InvariantError(Exception):
    """Maps to exit code 2."""


# ==================== small helpers ====================


def _load_json(path: str) -> dict:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"cannot parse {path}: {exc}") from exc


def _load_matrix(path: str) -> np.ndarray:
    try:
        return matrix_from_json(_load_json(path))
    except _InputError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise _InputError(f"bad matrix in {path}: {exc}") from exc


def _load_state(path: str) -> np.ndarray:
    mat = _load_matrix(path)
    try:
        return ensure_state(mat)
    except (ValueError, WeylseqError) as exc:
        raise _InvariantError(f"state in {path} is invalid: {exc}") from exc


def _load_measure(path: str):
    obj = _load_json(path)
    try:
        return measure_from_json(obj)
    except WeylseqError as exc:
        raise _InvariantError(f"measure in {path}: {exc}") from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise _InputError(f"bad measure in {path}: {exc}") from exc


def _load_instrument(path: str):
    obj = _load_json(path)
    try:
        return instrument_from_json(obj)
    except WeylseqError as exc:
        raise _InvariantError(f"instrument in {path}: {exc}") from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise _InputError(f"bad instrument in {path}: {exc}") from exc


def _parse_group(spec: str) -> Group:
    try:
        group = Group.from_spec(spec)
    except GroupError as exc:
        raise _InputError(str(exc)) from exc
    n = group.order
    need = 32 * n**3 + 40 * n**2
    if need > MAX_WEYL_BYTES:
        raise _InputError(
            f"group {spec} of order {n} needs about {need / 2**30:.1f} GiB "
            f"of dense Weyl operators; the limit is {MAX_WEYL_BYTES / 2**30:.0f} GiB"
        )
    return group


def _gate(args) -> float:
    """The residual gate: --tol if given, else the default."""
    return DEFAULT_GATE if args.tol is None else args.tol


def _check_tol(args) -> None:
    """Reject a --tol that cannot gate anything or that the command ignores."""
    if args.tol is None:
        return
    if args.command == "verify":
        raise _InputError(
            "verify does not take --tol: each suite gates every residual "
            "with its own tolerance"
        )
    if not math.isfinite(args.tol) or args.tol < 0:
        raise _InputError(f"--tol must be finite and non-negative, got {args.tol}")


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _prob_to_json(pv) -> dict:
    return {
        "outcomes": [list(o) if isinstance(o, tuple) else o for o in pv.outcomes],
        "weights": [float(w) for w in pv.weights],
    }


def _label_text(label) -> str:
    if isinstance(label, tuple):
        return ",".join(_label_text(v) for v in label)
    return str(label)


# ==================== commands ====================


def cmd_sequential_run(args) -> int:
    mm = _load_measure(args.measure)
    if args.group and _parse_group(args.group) != mm.group:
        raise _InputError(
            f"--group {args.group} does not match the measure's group"
        )
    ws = WeylSystem(mm.group)
    result = run_sequential(ws, mm)
    gate = _gate(args)

    residuals = {
        "covariance": result.covariance_defect,
        "joint_vs_cpso": cpso_defect(ws, result),
        "marginal_a_vs_smear": float(
            np.abs(
                result.marginal_a.effects
                - smear_position(ws, result.sigma).effects
            ).max()
        ),
        "marginal_b_vs_smear": float(
            np.abs(
                result.marginal_b.effects
                - smear_momentum(ws, result.tau).effects
            ).max()
        ),
    }
    report = {
        "command": "sequential run",
        "tolerance": gate,
        "group": mm.group.to_json(),
        "sigma": _prob_to_json(result.sigma),
        "tau": _prob_to_json(result.tau),
        "generating_state": matrix_to_json(result.generating_state),
        "joint": povm_to_json(result.joint),
        "marginal_a": povm_to_json(result.marginal_a),
        "marginal_b": povm_to_json(result.marginal_b),
        "residuals": residuals,
    }
    _emit(report, args.out)

    if args.csv:
        csv_dir = Path(args.csv)
        csv_dir.mkdir(parents=True, exist_ok=True)
        _write_dist_csv(csv_dir / "sigma.csv", result.sigma)
        _write_dist_csv(csv_dir / "tau.csv", result.tau)
        if args.state:
            rho = _load_state(args.state)
            joint_dist = measure(result.joint, rho)
            with open(csv_dir / "joint.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["position", "momentum", "probability"])
                for (x, chi), w in zip(joint_dist.outcomes, joint_dist.weights):
                    writer.writerow([_label_text(x), _label_text(chi), repr(float(w))])

    worst = max(residuals.values())
    if worst > gate:
        raise _InvariantError(f"residual {worst:.3e} beyond tolerance {gate}")
    return 0


def _write_dist_csv(path: Path, pv) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["outcome", "probability"])
        for o, w in zip(pv.outcomes, pv.weights):
            writer.writerow([_label_text(o), repr(float(w))])


def cmd_instrument(args) -> int:
    gate = _gate(args)
    if args.subcmd == "build":
        mm = _load_measure(args.measure)
        ws = WeylSystem(mm.group)
        instr = covariant_instrument(ws, mm)
        _emit(instrument_to_json(ws, instr), args.out)
        return 0
    group, instr = _load_instrument(args.infile)
    ws = WeylSystem(group)
    if args.subcmd == "verify":
        defect = verify_covariance(ws, instr)
        _emit(
            {
                "command": "instrument verify",
                "group": group.to_json(),
                "covariance_residual": defect,
                "tolerance": gate,
                "pass": bool(defect <= gate),
            },
            args.out,
        )
        if defect > gate:
            raise _InvariantError(
                f"covariance residual {defect:.3e} beyond tolerance {gate}"
            )
        return 0
    if args.subcmd == "reconstruct":
        mm = reconstruct_measure(ws, instr)
        _emit(measure_to_json(mm), args.out)
        return 0
    raise _InputError(f"unknown instrument subcommand {args.subcmd!r}")


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
        "povm": povm_to_json(povm),
    }
    if args.check_ic:
        report["span_dimension"] = effect_span_dimension(povm)
        report["informationally_complete"] = bool(is_informationally_complete(povm))
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
        "povm_a": povm_to_json(povm_a),
        "povm_b": povm_to_json(povm_b),
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
    report = {
        "command": "dump-weyl",
        "group": group.to_json(),
        "u": [matrix_to_json(m) for m in ws.translations],
        "v": [matrix_to_json(m) for m in ws.modulations],
        "fourier": matrix_to_json(ws.fourier),
    }
    _emit(report, args.out)
    return 0


# ==================== parser ====================


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", default=None, help="group spec like 2 or 2x3 (default 2 where one is needed)")
    common.add_argument("--tol", type=float, default=None,
                        help="residual gate, finite and >= 0 (default 1e-9; "
                        "verify gates each residual itself and refuses it)")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--out", default=None, help="write JSON here, not stdout")

    parser = argparse.ArgumentParser(
        prog="weylseq",
        description="Sequential measurements of conjugate observables "
        "on finite abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("sequential")
    seq_sub = p_seq.add_subparsers(dest="subcmd", required=True)
    p_run = seq_sub.add_parser("run", parents=[common])
    p_run.add_argument("--measure", required=True, help="measure JSON file")
    p_run.add_argument("--state", default=None, help="input state JSON file")
    p_run.add_argument("--csv", default=None,
                       help="directory for sigma/tau/joint CSV export")
    p_run.set_defaults(func=cmd_sequential_run)

    p_ins = sub.add_parser("instrument")
    ins_sub = p_ins.add_subparsers(dest="subcmd", required=True)
    p_build = ins_sub.add_parser("build", parents=[common])
    p_build.add_argument("--measure", required=True)
    p_build.set_defaults(func=cmd_instrument)
    p_iverify = ins_sub.add_parser("verify", parents=[common])
    p_iverify.add_argument("--in", dest="infile", required=True)
    p_iverify.set_defaults(func=cmd_instrument)
    p_irec = ins_sub.add_parser("reconstruct", parents=[common])
    p_irec.add_argument("--in", dest="infile", required=True)
    p_irec.set_defaults(func=cmd_instrument)

    p_cpso = sub.add_parser("cpso", parents=[common])
    p_cpso.add_argument("--state", required=True)
    p_cpso.add_argument("--check-ic", action="store_true")
    p_cpso.set_defaults(func=cmd_cpso)

    p_demo = sub.add_parser("demo")
    demo_sub = p_demo.add_subparsers(dest="subcmd", required=True)
    p_spin = demo_sub.add_parser("spin", parents=[common])
    p_spin.add_argument("--a", default="0,0,1")
    p_spin.add_argument("--b", default="1,0,0")
    p_spin.add_argument("--probe", default=None)
    p_spin.set_defaults(func=cmd_demo_spin)

    p_verify = sub.add_parser("verify", parents=[common])
    p_verify.add_argument("--suite", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_dump = sub.add_parser("dump-weyl", parents=[common])
    p_dump.set_defaults(func=cmd_dump_weyl)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_tol(args)
        return args.func(args)
    except _InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except _InvariantError as exc:
        sys.stderr.write(f"invariant failure: {exc}\n")
        return 2
    except WeylseqError as exc:
        sys.stderr.write(f"invariant failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
