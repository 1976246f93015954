"""Child process of the benchmark: workload set-up and the in-process loop.

Started by run.py as ``python3 perfbench/worker.py '<json config>'``. It
imports the package, builds the Weyl systems and the seeded inputs (for
the CLI workloads it writes them as JSON files into the work directory),
and prints ``ready``. With ``measure`` set it then makes one untimed
warm-up call and runs the seq_ladder loop. With ``measure`` or ``trace``
set it ends by printing one JSON line: the loop's results, if any, and
the spans of the traced set-up.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # before numpy, as traced_cli.py times the import

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np

import calibrate
import harness
import reference
import tracing

POOL = 2  # seeded measures per seq_ladder group, used in turn


def setup(cfg: dict, tracer):
    """Build everything the workload needs; returns (weyl systems, inputs)."""
    import weylseq.cli  # noqa: F401  (the whole package)
    from weylseq import Group, WeylSystem, matrix_to_json, measure_to_json, rand

    if tracer is not None:
        tracer.spans.append(["cli.import", T0, time.perf_counter(), -1])
        tracing.install(tracer)

    rng = np.random.default_rng(cfg["seed"])
    workdir = Path(cfg["workdir"])
    systems, inputs = {}, {}
    for op in {op["id"]: op for op in cfg["ops"]}.values():
        spec = op["group"]
        if spec not in systems:
            systems[spec] = WeylSystem(Group.from_spec(spec))
        group = systems[spec].group
        if op["kind"] == "seq":
            inputs[op["id"]] = [rand.covariant_measure(rng, group) for _ in range(POOL)]
        elif op["kind"] == "verify":
            inputs[op["id"]] = int(rng.integers(1, 2**31 - 1))
        elif op["kind"] == "roundtrip":
            mm = rand.covariant_measure(rng, group)
            (workdir / f"m_{spec}.json").write_text(json.dumps(measure_to_json(mm)))
            rho = rand.state(rng, group.order)
            (workdir / f"r_{spec}.json").write_text(json.dumps(matrix_to_json(rho)))
        elif op["kind"] == "cpso":
            rho = rand.state(rng, group.order)
            (workdir / f"s_{spec}.json").write_text(json.dumps(matrix_to_json(rho)))
    if cfg["ops"][0]["kind"] != "seq":
        (workdir / "inputs.json").write_text(json.dumps(inputs))
    return systems, inputs


def warm_up() -> None:
    """The first multi-threaded BLAS call of a fresh process can stall for
    about a second; pay it here, not in the first timed call."""
    from weylseq import Group, WeylSystem, rand, run_sequential

    warm = Group((8,))
    run_sequential(WeylSystem(warm), rand.covariant_measure(np.random.default_rng(0), warm))


def check_seq(ws, mm, result, tables) -> float:
    """Checks one run_sequential result against Props 4.2/4.3 and the
    independent reference; returns the worst residual / gate ratio."""
    from weylseq import smear_momentum, smear_position
    from weylseq.sequential import cpso_defect

    sigma, tau = tables.noise(mm.m)
    residuals = (
        cpso_defect(ws, result),
        float(np.abs(result.marginal_a.effects
                     - smear_position(ws, result.sigma).effects).max()),
        float(np.abs(result.marginal_b.effects
                     - smear_momentum(ws, result.tau).effects).max()),
        float(np.abs(result.sigma.weights - sigma).max()),
        float(np.abs(result.tau.weights - tau).max()),
        float(np.abs(result.generating_state - tables.generating_state(mm.m)).max()),
    )
    return max(residuals) / reference.GATE


def measure_seq(cfg: dict, systems: dict, inputs: dict, tracer) -> dict:
    """The seq_ladder loop: run_sequential on each ladder group in turn."""
    from weylseq import run_sequential

    tables = {spec: reference.Tables(reference.parse_group(spec)) for spec in systems}

    def call(op, k, traced):
        ws, mm = systems[op["group"]], inputs[op["id"]][k % POOL]
        mark = len(tracer.spans) if tracer is not None else 0
        if tracer is not None:
            tracer.enabled = traced
        t0 = time.perf_counter()
        try:
            result, error = run_sequential(ws, mm), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        r = {"dt": time.perf_counter() - t0, "error": error, "ratio": 0.0}
        if tracer is not None:
            tracer.enabled = False
        if result is not None:
            try:
                r["ratio"] = check_seq(ws, mm, result, tables[op["group"]])
            except Exception as exc:  # a result too broken to check
                r["error"] = f"check failed: {type(exc).__name__}: {exc}"
        if traced:
            spans = [[n, a, b, p - mark if p >= 0 else -1]
                     for n, a, b, p in tracer.spans[mark:]]
            r["spans"] = tracing.aggregate(spans)
            r["uncovered"] = r["dt"] - tracing.root_coverage(spans)
            r["counters"] = {}
        return r

    def calibrate_here() -> float:
        t0 = time.perf_counter()
        calibrate.work()
        return time.perf_counter() - t0

    return harness.closed_loop(cfg["ops"], cfg["seconds"], call, tracer is not None,
                               None if tracer is not None else calibrate_here)


def main() -> int:
    cfg = json.loads(sys.argv[1])
    tracer = tracing.Tracer() if cfg.get("trace") else None
    systems, inputs = setup(cfg, tracer)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    result = {}
    if tracer is not None:
        result["setup_spans"] = tracing.aggregate(tracer.spans)
        tracer.enabled = False
    if cfg.get("measure"):
        warm_up()
        result.update(measure_seq(cfg, systems, inputs, tracer))
    if result:
        sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
