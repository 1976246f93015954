"""Digest of the CLI's outputs, to check that two checkouts write the same bytes.

    python tools/cli_digest.py --src OTHER_CHECKOUT/src > parent.txt
    python tools/cli_digest.py > change.txt
    diff parent.txt change.txt

Writes its inputs to a temporary directory: a measure and a state for
each of the groups 8, 2x3 and 2x2x2, a state for each of the groups 16
and 4x4, whose ``cpso --check-ic`` reports are the smallest of the
benchmark's and repeat floats across effects, a measure with one non-Hermitian
density, a Z_2 measure and state whose traces sit just inside the
validation allowance, and a Z_8 instrument that is not covariant (the
closed form of the Z_8 measure mixed with its copy in which outcomes 0
and 1 trade places), so that its covariance defect is printed. Four more
instrument files each fail a check of the loaded maps: a Z_8 closed form
with map 3's smallest eigenvalue moved to -1e-6 (not CP), the Z_4 closed
form of the measure 0.8 |e_y><e_y| at y = 0 and 1 (every map increases
trace), a Z_8 closed form times 1 - 1e-6 (not trace preserving) and a
Z_8 closed form whose map 0 increases trace and whose map 2 is not CP.
They are drawn with numpy from fixed seeds and written as JSON here,
never by the package under test. Then it runs a fixed list of
``weylseq`` commands in that directory, with --src (default: this
checkout's src/) on PYTHONPATH; the last ones pass option values that
must be refused with exit 1 (a negative --seed, a spin axis with a NaN
component or an overflowing norm, a group whose size overflows a float).
It prints one line per output of each command (stdout, stderr, each
--out file and each CSV file): its SHA-256, the command's exit code and
a label. An output that was not written prints ``absent``
in place of the digest.

The lines depend only on the bytes the commands write, so ``diff`` of
two runs on the same host lists exactly the outputs that differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GROUPS = ("8", "2x3", "2x2x2")
CPSO_GROUPS = ("16", "4x4")
SEED = 2011


def _matrix(t: np.ndarray) -> dict:
    """The package's JSON form of a complex matrix: row-major [re, im] pairs."""
    t = np.asarray(t, dtype=complex)
    return {"rows": t.shape[0], "cols": t.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in t.reshape(-1)]}


def _positive(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T


def _state(rng: np.random.Generator, n: int) -> np.ndarray:
    rho = _positive(rng, n)
    return rho / np.trace(rho).real


def _measure(rng: np.random.Generator, moduli: list) -> tuple[dict, np.ndarray]:
    """A measure file of the group with these moduli, and its densities."""
    n = int(np.prod(moduli))
    m = np.array([_positive(rng, n) for _ in range(n)])
    m /= np.trace(m.sum(axis=0)).real
    return {"group": {"moduli": moduli}, "m": [_matrix(d) for d in m]}, m


def _closed_form(m: np.ndarray) -> np.ndarray:
    """Choi stack of the covariant instrument of a Z_n measure, indices mod n:
    Choi_k[a, i, b, j] = delta(i - a = j - b) herm(m(i - a))[k - a, k - b]."""
    n = len(m)
    herm = (m + m.conj().transpose(0, 2, 1)) / 2
    k, a, b, y = np.ix_(*(np.arange(n),) * 4)
    chois = np.zeros((n,) * 5, dtype=complex)
    chois[k, a, (a + y) % n, b, (b + y) % n] = herm[y, (k - a) % n, (k - b) % n]
    return chois.reshape(n, n * n, n * n)


def write_inputs(work: Path) -> None:
    for i, spec in enumerate(GROUPS):
        moduli = [int(d) for d in spec.split("x")]
        rng = np.random.default_rng([SEED, i])
        (work / spec).mkdir()
        measure, m = _measure(rng, moduli)
        _dump(work / spec / "m.json", measure)
        _dump(work / spec / "s.json", _matrix(_state(rng, m.shape[1])))
        if spec == "8":
            # defect about 3e-9: beyond verify's gate 1e-9, within reconstruct's 1e-6
            chois = _closed_form(m)
            swapped = chois[[1, 0, *range(2, len(chois))]]
            mix = (1 - 1e-7) * chois + 1e-7 * swapped
            _dump(work / "swapped.json", {"group": {"moduli": moduli},
                                          "maps": [{"choi": _matrix(c)} for c in mix]})
    rng = np.random.default_rng([SEED, len(GROUPS)])
    measure, m = _measure(rng, [8])
    m[1, 0, 1] += 1e-3
    measure["m"][1] = _matrix(m[1])
    _dump(work / "nonherm.json", measure)
    # each within 1e-9 of trace 1, but the checks after them add the excess up
    measure, m = _measure(rng, [2])
    measure["m"] = [_matrix(d * (1 + 6e-10)) for d in m]
    _dump(work / "m2_scaled.json", measure)
    _dump(work / "s2_scaled.json", _matrix(_state(rng, 2) * (1 + 8e-10)))
    rng = np.random.default_rng([SEED, len(GROUPS) + 1])
    _, m8 = _measure(rng, [8])
    excess = np.zeros((4, 4, 4), dtype=complex)
    excess[0, 0, 0] = excess[1, 1, 1] = 0.8
    two = _closed_form(m8)
    red = np.einsum("aiaj->ij", two[0].reshape(8, 8, 8, 8))
    two[0] *= 2.0 / np.linalg.eigvalsh(red).max()
    for name, moduli, chois in [
            ("not_cp", [8], _lowest_at(_closed_form(m8), 3, -1e-6)),
            ("excess_trace", [4], _closed_form(excess)),
            ("not_tp", [8], _closed_form(m8) * (1 - 1e-6)),
            ("two_defects", [8], _lowest_at(two, 2, -1e-6))]:
        _dump(work / f"{name}.json", {"group": {"moduli": moduli},
                                      "maps": [{"choi": _matrix(c)} for c in chois]})
    rng = np.random.default_rng([SEED, len(GROUPS) + 2])
    for spec in CPSO_GROUPS:
        order = int(np.prod([int(d) for d in spec.split("x")]))
        _dump(work / f"s{spec}.json", _matrix(_state(rng, order)))


def _lowest_at(chois: np.ndarray, k: int, value: float) -> np.ndarray:
    """Move map k's smallest eigenvalue to value, in place; returns chois."""
    w, q = np.linalg.eigh(chois[k])
    chois[k] += (value - w[0]) * np.outer(q[:, 0], q[:, 0].conj())
    return chois


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


def commands() -> list:
    """(label, argv, output paths) of each command; a path may be a CSV directory."""
    out = []
    for spec in GROUPS:
        m, s = f"{spec}/m.json", f"{spec}/s.json"
        out += [
            (f"{spec} sequential run", ["sequential", "run", "--measure", m, "--state", s,
                                        "--csv", f"{spec}/csv"], [f"{spec}/csv"]),
            (f"{spec} verify", ["verify", "--suite", "all", "--group", spec], []),
            (f"{spec} instrument build", ["instrument", "build", "--measure", m,
                                          "--out", f"{spec}/instr.json"], [f"{spec}/instr.json"]),
            (f"{spec} instrument verify", ["instrument", "verify", "--in", f"{spec}/instr.json"],
             []),
            (f"{spec} instrument reconstruct", ["instrument", "reconstruct", "--in",
                                                f"{spec}/instr.json", "--out",
                                                f"{spec}/back.json"], [f"{spec}/back.json"]),
            (f"{spec} cpso", ["cpso", "--check-ic", "--group", spec, "--state", s,
                              "--out", f"{spec}/cpso.json"], [f"{spec}/cpso.json"]),
            (f"{spec} dump-weyl", ["dump-weyl", "--group", spec], []),
        ]
    return out + [
        *[(f"{spec} cpso", ["cpso", "--check-ic", "--group", spec, "--state", f"s{spec}.json",
                             "--out", f"cpso{spec}.json"], [f"cpso{spec}.json"])
          for spec in CPSO_GROUPS],
        ("demo spin", ["demo", "spin"], []),
        ("non-Hermitian density", ["sequential", "run", "--measure", "nonherm.json"], []),
        ("2 cpso scaled state", ["cpso", "--group", "2", "--state", "s2_scaled.json"], []),
        ("2 sequential run scaled", ["sequential", "run", "--measure", "m2_scaled.json",
                                     "--state", "s2_scaled.json", "--csv", "csv2"], ["csv2"]),
        ("8 swapped instrument verify", ["instrument", "verify", "--in", "swapped.json"], []),
        ("8 swapped instrument reconstruct", ["instrument", "reconstruct", "--in",
                                              "swapped.json", "--out", "swapped_back.json"],
         ["swapped_back.json"]),
        *[(f"{name} instrument {cmd}", ["instrument", cmd, "--in", f"{name}.json", *out],
           out[1:])
          for name in ("not_cp", "excess_trace", "not_tp", "two_defects")
          for cmd, out in (("verify", []),
                           ("reconstruct", ["--out", f"{name}_back.json"]))],
        ("demo spin negative seed", ["demo", "spin", "--seed", "-1"], []),
        ("verify negative seed", ["verify", "--suite", "spin", "--seed", "-5"], []),
        ("demo spin overflowing axis", ["demo", "spin", "--a", "1e308,1e308,0",
                                        "--b", "0,0,1"], []),
        ("demo spin NaN axis", ["demo", "spin", "--a", "nan,0,1"], []),
        ("dump-weyl 400-digit group", ["dump-weyl", "--group", "9" * 400], []),
    ]


def _digest(data: bytes | None) -> str:
    return "absent" if data is None else hashlib.sha256(data).hexdigest()


def run(src: Path, work: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(src))
    lines = []
    for label, argv, outputs in commands():
        proc = subprocess.run([sys.executable, "-m", "weylseq.cli", *argv], cwd=work,
                              env=env, capture_output=True, check=False)
        found = [(f"{label} stdout", proc.stdout), (f"{label} stderr", proc.stderr)]
        for rel in outputs:
            path = work / rel
            if path.is_dir():
                found += [(f"{label} {rel}/{f.name}", f.read_bytes())
                          for f in sorted(path.iterdir())]
            else:
                found.append((f"{label} {rel}", path.read_bytes() if path.exists() else None))
        lines += [f"{_digest(data)} {proc.returncode} {name}" for name, data in found]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the weylseq package to run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cli_digest_") as tmp:
        work = Path(tmp)
        write_inputs(work)
        sys.stdout.write("".join(f"{line}\n" for line in run(args.src.resolve(), work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
