"""The CLI workloads: one ``weylseq`` process per call, checked from outside.

Every call's exit code and report are checked against the gates, with
the expected values recomputed by ``reference`` from the input files.
Repeated calls on the same input (and the traced twin of an untraced
call) must write byte-identical output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import harness
import reference
import tracing

GATE = reference.GATE
ROUNDTRIP_GATE = 1e-8  # measure round trip, as in the theorem41 suite
VERIFY_LINE = re.compile(r"^(\S+): residual=(\S+) tol=(\S+) (PASS|FAIL)$")
# Residual labels `weylseq verify --suite all` must report. The spin
# trade-off line is a bound near 1, not a residual, so it is checked but
# left out of the headroom.
VERIFY_LABELS = (
    "weyl.weyl_relation", "weyl.snag_translation", "weyl.snag_modulation",
    "theorem41.covariance", "theorem41.measure_roundtrip",
    "prop42.position_margin", "prop42.momentum_margin",
    "prop43.joint_is_cpso", "prop43.expansion_identity",
    "corollary44.cpso_realized", "corollary44.state_roundtrip",
    "spin.factorization", "spin.tradeoff_bound",
)
NOT_A_RESIDUAL = "spin.tradeoff_bound"


class CheckError(Exception):
    """An output that fails its check."""


class CliRunner:
    """Runs and checks the CLI calls of one workload in one work directory."""

    def __init__(self, root: Path, workdir: Path, env: dict, hard_deadline: float):
        self.root = root
        self.workdir = workdir
        self.env = env
        self.hard_deadline = hard_deadline
        self.inputs = json.loads((workdir / "inputs.json").read_text())
        # op id -> (digest, worst ratio) of its first checked output; a
        # later output with the same digest needs no check of its own.
        self.digests = {}
        self.tables = {}

    # ---------- processes ----------

    def _proc(self, args: list, traced: bool, tag: str):
        """One CLI process; returns (wall, exit code, rss KB, stdout, spans)."""
        spans_path = self.workdir / f"{tag}.spans.json"
        if traced:
            argv = [sys.executable, str(self.root / "perfbench" / "traced_cli.py"),
                    str(spans_path)] + args
        else:
            argv = [sys.executable, "-m", "weylseq.cli"] + args
        out_path = self.workdir / f"{tag}.stdout"
        timeout = max(1.0, self.hard_deadline - time.perf_counter())
        with open(out_path, "wb") as out, open(self.workdir / f"{tag}.stderr", "wb") as err:
            wall, rc, rss, _ = harness.run_child(argv, self.env, self.root, timeout,
                                                 stdout=out, stderr=err)
        spans = None
        if traced:
            spans = json.loads(spans_path.read_text()) if spans_path.exists() else None
            spans_path.unlink(missing_ok=True)
        return wall, rc, rss, out_path.read_bytes(), spans

    def calibrate(self) -> float:
        """One calibration process (calibrate.py); returns its wall time."""
        argv = [sys.executable, str(self.root / "perfbench" / "calibrate.py"),
                str(self.workdir / "calibrate.json")]
        timeout = max(1.0, self.hard_deadline - time.perf_counter())
        wall, rc, _, _ = harness.run_child(argv, self.env, self.root, timeout)
        if rc != 0:
            raise RuntimeError(f"calibration process exited with code {rc}")
        return wall

    def call(self, op: dict, k: int, traced: bool) -> dict:
        """One timed operation (closed_loop's callback). Each step function
        runs its processes and returns (digest of the outputs, check), where
        check() compares the outputs with the reference and returns the
        worst residual over its gate."""
        steps = {"verify": self._verify, "roundtrip": self._roundtrip,
                 "cpso": self._cpso}[op["kind"]]
        r = {"dt": 0.0, "ratio": 0.0, "error": None, "rss_kb": 0,
             "spans": {}, "uncovered": 0.0, "counters": {}}
        procs = []

        def run(args, tag):
            wall, rc, rss, stdout, spans = self._proc(args, traced, tag)
            procs.append((wall, spans))
            r["dt"] += wall
            r["rss_kb"] = max(r["rss_kb"], rss)
            if rc != 0:
                raise CheckError(f"{tag} exited with code {rc}")
            return stdout

        try:
            digest, check = steps(op, run)
            seen = self.digests.get(op["id"])
            if seen is None:
                seen = self.digests[op["id"]] = (digest, check())
            elif seen[0] != digest:
                raise CheckError("output differs from an earlier call on the same input")
            r["ratio"] = seen[1]
        except (CheckError, ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            r["error"] = f"{type(exc).__name__}: {exc}"
        if traced:
            r["spans"], r["uncovered"], r["counters"] = _merge_spans(procs)
        return r

    # ---------- operations ----------

    def _tables(self, spec: str) -> reference.Tables:
        if spec not in self.tables:
            self.tables[spec] = reference.Tables(reference.parse_group(spec))
        return self.tables[spec]

    def _verify(self, op, run):
        spec, seed = op["group"], self.inputs[op["id"]]
        out = run(["verify", "--suite", "all", "--group", spec, "--seed", str(seed)], "verify")
        return _digest([out]), lambda: self._check_verify(spec, seed, out.decode())

    def _check_verify(self, spec, seed, text):
        lines = text.splitlines()
        if not lines or lines[0] != f"suite=all group={spec} seed={seed}":
            raise CheckError(f"unexpected verify header {lines[:1]}")
        found = {}
        for line in lines[1:]:
            m = VERIFY_LINE.match(line)
            if not m:
                raise CheckError(f"unparsed verify line {line!r}")
            label, value, tol, verdict = m.group(1), float(m.group(2)), float(m.group(3)), m.group(4)
            if verdict != "PASS" or not value <= tol:
                raise CheckError(f"{label}: residual {value:.3e} beyond {tol:.3e}")
            found[label] = value / tol
        missing = set(VERIFY_LABELS) - set(found)
        if missing:
            raise CheckError(f"verify did not report {sorted(missing)}")
        return max(v for label, v in found.items() if label != NOT_A_RESIDUAL)

    def _roundtrip(self, op, run):
        """instrument build -> verify -> reconstruct -> sequential run."""
        spec = op["group"]
        w = self.workdir
        files = {name: str(w / f"{name}_{spec}.json") for name in "mrivbq"}
        csv_dir = w / f"csv_{spec}"
        run(["instrument", "build", "--measure", files["m"], "--out", files["i"]], "build")
        run(["instrument", "verify", "--in", files["i"], "--out", files["v"]], "iverify")
        run(["instrument", "reconstruct", "--in", files["i"], "--out", files["b"]], "reconstruct")
        run(["sequential", "run", "--measure", files["b"], "--state", files["r"],
             "--csv", str(csv_dir), "--out", files["q"]], "seqrun")
        outputs = [Path(files[k]).read_bytes() for k in "ivbq"]
        outputs += [(csv_dir / f"{name}.csv").read_bytes() for name in ("sigma", "tau", "joint")]
        return _digest(outputs), lambda: self._check_roundtrip(spec, files, outputs)

    def _check_roundtrip(self, spec, files, outputs):
        tables = self._tables(spec)
        m_in = _measure(json.loads(Path(files["m"]).read_text()))
        rho = reference.matrix_from_json(json.loads(Path(files["r"]).read_text()))
        ratios = []

        report = json.loads(outputs[1])
        if report.get("pass") is not True:
            raise CheckError("instrument verify did not pass")
        ratios.append(report["covariance_residual"] / GATE)

        back = _measure(json.loads(outputs[2]))
        ratios.append(float(np.abs(back - m_in).max()) / ROUNDTRIP_GATE)

        seq = json.loads(outputs[3])
        ratios += [value / GATE for value in seq["residuals"].values()]
        state = reference.matrix_from_json(seq["generating_state"])
        expected_state = tables.generating_state(m_in)
        ratios.append(float(np.abs(state - expected_state).max()) / GATE)
        sigma, tau = tables.noise(m_in)
        ratios.append(float(np.abs(np.array(seq["sigma"]["weights"]) - sigma).max()) / GATE)
        ratios.append(float(np.abs(np.array(seq["tau"]["weights"]) - tau).max()) / GATE)

        rows = list(csv.reader(outputs[6].decode().splitlines()))
        probs = np.array([float(row[2]) for row in rows[1:]])
        n = tables.n
        expected = np.array([np.trace(tables.conjugate_by_weyl(expected_state, x, c) @ rho).real / n
                             for x in range(n) for c in range(n)])
        if rows[0] != ["position", "momentum", "probability"] or probs.shape != expected.shape:
            raise CheckError("joint.csv has the wrong layout")
        ratios.append(float(np.abs(probs - expected).max()) / GATE)
        return max(ratios)

    def _cpso(self, op, run):
        spec = op["group"]
        state_file = self.workdir / f"s_{spec}.json"
        out_file = self.workdir / f"c_{spec}.json"
        run(["cpso", "--state", str(state_file), "--group", spec, "--check-ic",
             "--out", str(out_file)], "cpso")
        text = out_file.read_bytes()
        out_file.unlink()
        return _digest([text]), lambda: self._check_cpso(spec, state_file, text)

    def _check_cpso(self, spec, state_file, text):
        tables = self._tables(spec)
        n = tables.n
        report = json.loads(text)
        if report.get("informationally_complete") is not True:
            raise CheckError("cpso state reported not informationally complete")
        if report.get("span_dimension") != n * n:
            raise CheckError(f"span dimension {report.get('span_dimension')} != {n * n}")
        if report["group"]["moduli"] != list(tables.moduli):
            raise CheckError("cpso report has the wrong group")
        effects = np.array([reference.matrix_from_json(e) for e in report["povm"]["effects"]])
        s = reference.matrix_from_json(json.loads(state_file.read_text()))
        # effect(x, chi) = W s W^dag / n with W = U_x V_chi, x-major
        moved = tables.chars[:, :, None] * s[None] * tables.chars.conj()[:, None, :]
        worst = 0.0
        for x in range(n):
            sub = tables.add[:, tables.neg[x]]  # index(a - x)
            ref = moved[:, sub][:, :, sub] / n
            worst = max(worst, float(np.abs(effects[x * n:(x + 1) * n] - ref).max()))
        identity = float(np.abs(effects.sum(axis=0) - np.eye(n)).max())
        return max(worst, identity) / GATE


def _measure(obj: dict) -> np.ndarray:
    return np.array([reference.matrix_from_json(mx) for mx in obj["m"]])


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _merge_spans(procs):
    """Aggregate the span files of one operation's traced processes; the
    uncovered time is each process's wall time outside its root spans
    (interpreter start and exit)."""
    spans, uncovered, counters = defaultdict(lambda: [0.0, 0]), 0.0, defaultdict(float)
    for wall, dump in procs:
        if dump is None:
            uncovered += wall
            continue
        tracing.aggregate(dump["spans"], spans)
        uncovered += wall - tracing.root_coverage(dump["spans"])
        for name, value in dump["counters"].items():
            counters[name] += value
    return dict(spans), uncovered, dict(counters)
