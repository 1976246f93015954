"""weylseq benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``
and writes only under ``.perfbench_work/``, which it removes again.

Workloads (closed loop, one caller, one call at a time; inputs are drawn
with ``weylseq.rand`` from the workload seed):

* ``seq_ladder`` -- ``run_sequential`` in one child process on the groups
  2, 3, 2x2, 5, 2x3, 8, 2x2x2, 3x3, 10, 12, 2x6, 2x2x3. The dense
  instrument path (``covariant_instrument``, ``verify_covariance``,
  ``joint_observable``) does nearly all the work; no IC test, no JSON.
* ``cli_verify`` -- one ``weylseq`` process per call:
  ``verify --suite all`` on 2x3 and 8, and the file round trip
  ``instrument build -> instrument verify -> instrument reconstruct ->
  sequential run --state --csv`` at order 8 (Z_8 and 2x2x2). Process
  start, imports and JSON decoding are a large share here.
* ``phase_space_io`` -- ``weylseq cpso --check-ic --out FILE`` on random
  states at orders 16, 20 and 24, one cyclic and one composite group per
  order. Conjugations, the SVD rank test and the JSON encoder, never the
  instruments.

End-to-end metrics (``--trace 0``), the same names on every workload:

* ``setup_s`` -- median over 9 fresh interpreters of the time from spawn
  until imports, Weyl systems and seeded inputs are done. The seq_ladder
  worker's untimed warm-up call (``run_sequential`` on Z_8) comes after
  that and is not counted: it is the benchmark's device, not the
  package's set-up.
* ``op_small_rel``, ``op_mid_rel``, ``op_large_rel`` -- time per
  operation in the workload's three size classes, as a multiple of the
  fixed calibration work (calibrate.py) timed just before and just after
  it: the host's speed drifts by 15-40% over seconds to minutes, and the
  quotient cancels most of that drift (wall-time medians spread by up
  to 0.26 of the median between runs of one workload). The CLI workloads run the
  calibration as a process of its own, seq_ladder runs it in its worker.
  Per class: the median quotient per group, then the geometric mean over
  the class's groups, which all have one order but can differ in cost (a
  composite group's JSON is shorter). The plain wall times, median and
  tail with their sample counts, are printed above the result line. Per
  workload:

  ==============  ==================  ==============  ==================
  workload        op_small_rel        op_mid_rel      op_large_rel
  ==============  ==================  ==============  ==================
  seq_ladder      seq_s.n8            seq_s.n10       seq_s.n12
  cli_verify      verify_suite_s.2x3  roundtrip_s.n8  verify_suite_s.8
  phase_space_io  cpso_ic_s.n16       cpso_ic_s.n20   cpso_ic_s.n24
  ==============  ==================  ==============  ==================

* ``scaling_exp`` -- least-squares slope of log(median calibrated time)
  against log(n) over the groups marked ``fit`` below.
* ``peak_rss_mb`` -- highest peak RSS of any one child process.
* ``residual_headroom_digits`` -- min over every checked residual of
  log10(gate / residual).

Failed operations (nonzero exit, exception, residual beyond its gate,
output that changed between calls on one input) are the ``failed`` count
of the result line; a failure keeps its time in the samples.

Per-layer metrics (``--trace 1``): every call runs untraced and then
traced on the same input, in whole passes. Values are per pass: self
time of each span (its duration minus its child spans), call counts,
JSON bytes, the validation share, and the tracing overhead and the time
no span covers. The ``setup.*`` metrics are the self times of the import
and input spans in one worker's traced set-up, taken once per run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import cliwork
import harness
import reference
import tracing

SETUPS = 9  # fresh interpreters timed for setup_s
RUN_LIMIT_S = 170.0  # every child is killed by then; a run must end in 180 s


def _op(kind: str, group: str, cls: str | None = None, fit: bool = False) -> dict:
    return {"id": f"{kind}:{group}", "kind": kind, "group": group, "cls": cls, "fit": fit}


WORKLOADS = {
    # The order-8 and order-10 calls are cheap, so they run several times
    # per pass; each size class then gets 15-40 samples in one run.
    "seq_ladder": {
        "ops": [_op("seq", g) for g in ("2", "3", "2x2", "5", "2x3")]
        + [_op("seq", "8", "small", True), _op("seq", "2x2x2", "small", True)] * 4
        + [_op("seq", "3x3", None, True)] + [_op("seq", "10", "mid", True)] * 3
        + [_op("seq", "12", "large", True), _op("seq", "2x6", "large", True),
           _op("seq", "2x2x3", "large", True)],
        "classes": {"small": "seq_s.n8", "mid": "seq_s.n10", "large": "seq_s.n12"},
    },
    # Cheap calls appear more than once per pass, so that every size class
    # gets several samples in one run.
    "cli_verify": {
        "ops": [_op("verify", "2x3", "small", True), _op("roundtrip", "8", "mid"),
                _op("verify", "8", "large", True), _op("verify", "2x3", "small", True),
                _op("roundtrip", "2x2x2", "mid")],
        "classes": {"small": "verify_suite_s.2x3", "mid": "roundtrip_s.n8",
                    "large": "verify_suite_s.8"},
    },
    # Order 32 is left out: one call takes 7-11 s, so a run could time it
    # only once or twice, too few for a steady median. The order-16 calls
    # run twice per pass because they are cheap; each class still gets
    # 6-12 samples in a 40 s run.
    "phase_space_io": {
        "ops": [_op("cpso", "16", "small", True), _op("cpso", "20", "mid", True),
                _op("cpso", "24", "large", True), _op("cpso", "4x4", "small", True),
                _op("cpso", "2x10", "mid", True), _op("cpso", "2x12", "large", True),
                _op("cpso", "16", "small", True), _op("cpso", "4x4", "small", True)],
        "classes": {"small": "cpso_ic_s.n16", "mid": "cpso_ic_s.n20",
                    "large": "cpso_ic_s.n24"},
    },
}

END_TO_END = (
    ("setup_s", "s"),
    ("op_small_rel", "ratio"),
    ("op_mid_rel", "ratio"),
    ("op_large_rel", "ratio"),
    ("scaling_exp", "1"),
    ("peak_rss_mb", "MB"),
    ("residual_headroom_digits", "digits"),
)

# Spans reported per layer as self seconds per pass ("<span>_s") ...
LAYER_SPANS = (
    "group.add_table", "group.character_table",
    "weyl.WeylSystem", "weyl.weyl_relation_residual",
    "algebra.is_psd", "algebra.matrix_to_json", "algebra.matrix_from_json",
    "observables.Povm_init", "observables.ensure_state",
    "observables.cpso_from_state", "observables.effect_span_dimension",
    "observables.smear_position", "observables.smear_momentum",
    "observables.povm_to_json",
    "instruments.CpMap_init", "instruments.Instrument_init",
    "instruments.CovariantMeasure_init", "instruments.covariant_instrument",
    "instruments.verify_covariance", "instruments.reconstruct_measure",
    "instruments.standard_instrument", "instruments.reconstruction_residual",
    "sequential.joint_observable", "sequential.run_sequential",
    "sequential.noise_measures",
    "spin.kronecker_factorization_check",
    "suites.weyl", "suites.theorem41", "suites.prop42", "suites.prop43",
    "suites.corollary44", "suites.spin",
    "rand.covariant_measure", "rand.state",
    "cli.import", "cli.main", "cli.emit", "cli.load_json",
)
# ... in the traced set-up of one worker, once ("setup.<span>_s") ...
SETUP_SPANS = ("cli.import", "weyl.WeylSystem", "rand.covariant_measure", "rand.state")
# ... and as calls per pass ("<span>.calls").
LAYER_CALLS = (
    "weyl.WeylSystem", "algebra.is_psd", "algebra.matrix_to_json",
    "observables.effect_span_dimension", "instruments.covariant_instrument",
    "instruments.verify_covariance",
)
PER_LAYER = (
    [(f"{s}_s", "s") for s in LAYER_SPANS]
    + [(f"setup.{s}_s", "s") for s in SETUP_SPANS]
    + [(f"{s}.calls", "count") for s in LAYER_CALLS]
    + [("algebra.json_bytes_out", "bytes"), ("algebra.json_bytes_in", "bytes"),
       ("validation_share", "ratio"), ("trace.wall_s", "s"),
       ("trace.overhead_s", "s"), ("trace.uncovered_s", "s")]
)


# ==================== statistics ====================


def tail(values: list) -> tuple:
    """(label, value) of the highest percentile with at least ten samples
    beyond it; the maximum when there are fewer than twenty samples."""
    xs = sorted(values)
    if len(xs) < 20:
        return "max", xs[-1]
    q = math.floor(100 * (1 - 10 / len(xs)))
    return f"p{q}", xs[min(len(xs) - 1, math.ceil(q / 100 * len(xs)) - 1)]


def geomean(values: list) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def loglog_slope(points: list) -> float:
    """Least-squares slope of log(t) against log(n) over (n, t) points."""
    x = np.log([n for n, _ in points])
    y = np.log([t for _, t in points])
    return float(np.polyfit(x, y, 1)[0])


# ==================== running ====================


def _cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(_cores())  # never more BLAS threads than cores
    return env


def run_setups(root, env, cfg, count: int, measure_last: bool, hard_deadline: float):
    """``count`` fresh worker processes; returns (set-up times, peak RSS of
    each in KB, the last worker's result line: its loop results when
    measuring, its set-up spans when traced)."""
    times, rss, result = [], [], {}
    for i in range(count):
        measure = measure_last and i == count - 1

        def reader(proc, t0):
            ready = proc.stdout.readline().strip() == b"ready"
            elapsed = time.perf_counter() - t0
            return ready, elapsed, proc.stdout.read()

        argv = [sys.executable, str(root / "perfbench" / "worker.py"),
                json.dumps(dict(cfg, measure=measure))]
        _, rc, kb, (ready, elapsed, rest) = harness.run_child(
            argv, env, root, max(1.0, hard_deadline - time.perf_counter()),
            stdout=subprocess.PIPE, reader=reader)
        if rc != 0 or not ready:
            raise RuntimeError(f"benchmark worker failed (exit code {rc})")
        times.append(elapsed)
        rss.append(kb)
        if i == count - 1 and rest.strip():
            result = json.loads(rest.decode().splitlines()[-1])
    return times, rss, result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path, ops: list | None = None) -> dict:
    """Set up and measure one workload; returns the raw results."""
    hard_deadline = time.perf_counter() + RUN_LIMIT_S
    spec = WORKLOADS[name]
    ops = ops if ops is not None else spec["ops"]
    work_root = root / ".perfbench_work"
    workdir = work_root / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    try:
        cfg = {"workload": name, "seed": seed, "workdir": str(workdir), "ops": ops,
               "seconds": seconds, "trace": trace}
        in_process = ops[0]["kind"] == "seq"
        # Half the set-ups before the measured loop and half after it, so
        # that setup_s samples the host at both ends of the run.
        before = SETUPS // 2 + 1
        setup_times, setup_rss, last = run_setups(root, env, cfg, before, in_process,
                                                  hard_deadline)
        loop = last
        if not in_process:
            runner = cliwork.CliRunner(root, workdir, env, hard_deadline)
            loop = harness.closed_loop(ops, seconds, runner.call, trace,
                                       None if trace else runner.calibrate)
        after_times, after_rss, _ = run_setups(root, env, dict(cfg, trace=False),
                                               SETUPS - before, False, hard_deadline)
        setup_times += after_times
        setup_rss += after_rss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work_root.exists() and not any(work_root.iterdir()):
            work_root.rmdir()
    return {"ops": ops, "setup_times": setup_times, "setup_spans": last.get("setup_spans", {}),
            "rss_kb": setup_rss + list(loop["rss_kb"]), "loop": loop}


# ==================== metrics ====================


def _order(op: dict) -> int:
    return math.prod(reference.parse_group(op["group"]))


def _unique(ops: list) -> list:
    return list({op["id"]: op for op in ops}.values())


def _pooled(loop: dict, ops: list, cls: str) -> list:
    """Every sample of the groups in a size class."""
    return [t for op in ops if op["cls"] == cls for t in loop["samples"][op["id"]]]


def end_to_end(raw: dict) -> dict:
    loop, ops = raw["loop"], _unique(raw["ops"])
    med = {op["id"]: statistics.median(loop["rel"][op["id"]]) for op in ops
           if op["cls"] is not None or op["fit"]}
    values = {"setup_s": statistics.median(raw["setup_times"])}
    for cls in ("small", "mid", "large"):
        values[f"op_{cls}_rel"] = geomean([med[op["id"]] for op in ops if op["cls"] == cls])
    values["scaling_exp"] = loglog_slope([(_order(op), med[op["id"]])
                                          for op in ops if op["fit"]])
    values["peak_rss_mb"] = max(raw["rss_kb"]) / 1024.0
    values["residual_headroom_digits"] = -math.log10(max(loop["worst_ratio"], 1e-30))
    return values


def per_layer(raw: dict) -> dict:
    loop = raw["loop"]
    passes = max(loop["passes"], 1)
    ops = loop["spans"]

    def per_pass(span: str, field: int) -> float:
        return ops.get(span, [0.0, 0])[field] / passes

    values = {f"{s}_s": per_pass(s, 0) for s in LAYER_SPANS}
    values.update({f"setup.{s}_s": raw["setup_spans"].get(s, [0.0, 0])[0]
                   for s in SETUP_SPANS})
    values.update({f"{s}.calls": per_pass(s, 1) for s in LAYER_CALLS})
    for counter in ("algebra.json_bytes_out", "algebra.json_bytes_in"):
        values[counter] = loop["counters"].get(counter, 0.0) / passes
    validation = sum(ops.get(s, [0.0, 0])[0] for s in tracing.VALIDATION_SPANS)
    values["validation_share"] = validation / loop["traced_wall"] if loop["traced_wall"] else 0.0
    values["trace.wall_s"] = loop["untraced_wall"] / passes
    values["trace.overhead_s"] = (loop["traced_wall"] - loop["untraced_wall"]) / passes
    values["trace.uncovered_s"] = loop["uncovered"] / passes
    return values


# ==================== reporting ====================


def environment(name: str, seed: int, seconds: float, trace: bool) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": _cores(), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _cores(),
        "machine": platform.machine(),
    }


def report_lines(name: str, raw: dict, trace: bool) -> list:
    loop, ops = raw["loop"], _unique(raw["ops"])
    lines = [f"setup_s samples: {' '.join(f'{t:.4f}' for t in raw['setup_times'])}"]
    for cls, label in WORKLOADS[name]["classes"].items():
        pooled = _pooled(loop, ops, cls)
        if pooled:
            q, v = tail(pooled)
            lines.append(f"op_{cls}_rel = {label}, wall time: pooled median {statistics.median(pooled):.4f} s, "
                         f"{q} {v:.4f} s, N={len(pooled)}")
    for op in ops:
        xs, rel = loop["samples"][op["id"]], loop["rel"].get(op["id"])
        lines.append(f"  {op['id']:<16} n={_order(op):<3} "
                     f"median {statistics.median(xs):.4f} s  N={len(xs)}"
                     + (f"  calibrated median {statistics.median(rel):.4f}" if rel else ""))
    lines.append(f"failed_frac = {loop['failed']}/{loop['attempted']}")
    lines += [f"  failure: {e}" for e in loop["errors"]]
    if trace:
        for cls, label in WORKLOADS[name]["classes"].items():
            count = sum(len(loop["samples"][op["id"]]) for op in ops if op["cls"] == cls)
            spans = loop["by_class"].get(cls, {})
            if not count or not spans:
                continue
            top = sorted(spans.items(), key=lambda kv: -kv[1])[:5]
            lines.append(f"top self time per call at {label}: " + ", ".join(
                f"{s} {t / count:.4f} s" for s, t in top))
    return lines


def result_line(raw: dict, trace: bool) -> dict:
    loop = raw["loop"]
    if trace:
        values, units = per_layer(raw), dict(PER_LAYER)
    else:
        values, units = end_to_end(raw), dict(END_TO_END)
    return {
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None, ops=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "weylseq" / "cli.py").is_file():
        sys.stderr.write(f"error: no weylseq sources under {root / 'src'}\n")
        return 2
    try:
        raw = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root, ops)
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print("env " + json.dumps(environment(args.workload, args.seed, args.seconds,
                                          bool(args.trace))))
    for line in report_lines(args.workload, raw, bool(args.trace)):
        print(line)
    result = result_line(raw, bool(args.trace))
    for key, m in result["metrics"].items():
        print(f"metric {key} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
