"""Layer ladder: wall time and peak memory of the sequential pipeline's layers.

    python tools/bench_layers.py --label change
    python tools/bench_layers.py --label parent --src OTHER_CHECKOUT/src

Imports weylseq from --src (default: this checkout's src/) and, on each
group of a fixed ladder, times these layers on one seeded measure:

* ``group_tables`` -- a fresh ``Group``'s addition, subtraction, negation
  and character tables, and the ``WeylSystem`` on it;
* ``covariant_instrument`` -- the closed-form instrument with its checks;
* ``verify_covariance`` -- the covariance check of that instrument;
* ``joint_from_measure`` -- the joint observable's effects read off the
  measure, without the check (``joint_observable`` is exactly these two);
* ``run_sequential`` -- the whole pipeline;
* ``instrument_from_json`` -- the instrument decoded from its JSON dict,
  with the checks of every loaded map;
* ``instrument_verify`` -- that decoding and the covariance check of the
  decoded instrument, as ``weylseq instrument verify`` runs them after
  reading the file;
* ``cpso_from_state`` -- the phase-space observable of one seeded state,
  with its checks;
* ``cpso_write`` -- the ``weylseq cpso --check-ic`` report of that
  observable encoded to a file by the CLI's ``_emit``, the report built
  as that CLI builds it: from the codec's private POVM layout where
  --src has one, else from ``povm_to_json``.

The two loaded layers run on the groups of order <= 20 only: the JSON
dict of an order-24 instrument holds 8 million float pairs (its file is
about 300 MB).

Wall time is the median of repeated calls (at least 3, more while a layer
takes under 0.2 s, up to 15); peak memory is the tracemalloc peak of one
more call above what was allocated before it, in this process only. For
each layer the script fits the exponent p of time ~ n^p (and of memory)
by least squares over the groups of order >= 8. The entry is stored under
--label in BENCH_layers.json at the root of this checkout, keeping the
other labels' entries, with the git revision of --src (``git describe
--always``, and ``-dirty`` if a tracked file other than BENCH_layers.json
differs from it), so measure a commit from a clean clone of it; one clone
can record both labels. The file's ladder and layer lists are rewritten
to this script's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_layers.json"
LADDER = ("2", "3", "4", "6", "8", "12", "16", "20", "24", "32", "2x3", "2x2x2", "3x4", "2x12")
LAYERS = ("group_tables", "covariant_instrument", "verify_covariance", "joint_from_measure",
          "run_sequential", "instrument_from_json", "instrument_verify", "cpso_from_state",
          "cpso_write")
LOADED_MAX_ORDER = 20
FIT_MIN_ORDER = 8
SEED = 2011


def _timed(fn) -> float:
    """Median wall time of repeated calls of fn."""
    times = []
    while len(times) < 3 or (sum(times) < 0.2 * len(times) and len(times) < 15):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _peak_bytes(fn) -> int:
    """tracemalloc peak of one call of fn, above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _fit(points: list) -> float | None:
    """Least-squares slope of log(value) against log(n)."""
    pts = [(math.log(n), math.log(v)) for n, v in points if v > 0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return round(sum((x - mx) * (y - my) for x, y in pts) / sxx, 3)


def _git_rev(src: Path) -> str | None:
    """The revision of src's checkout; BENCH_layers.json, which this script
    rewrites, does not make it dirty."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        rev = git("describe", "--always")
        dirty = git("status", "--porcelain", "--untracked-files=no", "--", ":/",
                    f":(top,exclude){OUT.name}")
    except (OSError, subprocess.CalledProcessError):
        return None
    return rev + "-dirty" * bool(dirty)


def measure_ladder(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import numpy as np
    from weylseq import (Group, WeylSystem, covariant_instrument, cpso_from_state,
                         effect_span_dimension, instrument_from_json, instrument_to_json, rand,
                         run_sequential, verify_covariance)
    from weylseq import cli, codec
    from weylseq.sequential import joint_from_measure

    povm_report = getattr(codec, "_povm_layout", codec.povm_to_json)

    def group_tables(moduli):
        g = Group(moduli)
        return g.add_table, g.sub_table, g.neg_table, g.character_table, WeylSystem(g)

    def instrument_verify(obj):
        group, instr = instrument_from_json(obj)
        return verify_covariance(WeylSystem(group), instr)

    def cpso_write(ws, povm, span, path):
        cli._emit({"command": "cpso", "group": ws.group.to_json(), "povm": povm_report(povm),
                   "span_dimension": span, "informationally_complete": span == ws.dim**2},
                  str(path))

    groups = {}
    with tempfile.TemporaryDirectory(prefix="bench_layers_") as tmp:
        report = Path(tmp) / "cpso.json"
        for spec in LADDER:
            group = Group.from_spec(spec)
            ws = WeylSystem(group)
            rng = np.random.default_rng(SEED)
            mm = rand.covariant_measure(rng, group)
            instr = covariant_instrument(ws, mm)
            state = rand.state(rng, group.order)
            povm = cpso_from_state(ws, state)
            span = effect_span_dimension(povm)
            calls = {
                "group_tables": lambda: group_tables(group.moduli),
                "covariant_instrument": lambda: covariant_instrument(ws, mm),
                "verify_covariance": lambda: verify_covariance(ws, instr),
                "joint_from_measure": lambda: joint_from_measure(ws, mm),
                "run_sequential": lambda: run_sequential(ws, mm),
                "cpso_from_state": lambda: cpso_from_state(ws, state),
                "cpso_write": lambda: cpso_write(ws, povm, span, report),
            }
            obj = instrument_to_json(ws, instr) if group.order <= LOADED_MAX_ORDER else None
            if obj is not None:
                calls["instrument_from_json"] = lambda: instrument_from_json(obj)
                calls["instrument_verify"] = lambda: instrument_verify(obj)
            row = {"order": group.order}
            for layer, fn in calls.items():
                row[f"{layer}_s"] = float(f"{_timed(fn):.4g}")
                row[f"{layer}_peak_mib"] = round(_peak_bytes(fn) / 2**20, 3)
            groups[spec] = row
            sys.stderr.write(f"{spec}: run_sequential {row['run_sequential_s']:.4f} s, "
                             f"cpso_write {row['cpso_write_s']:.4f} s\n")
    exponents = {}
    for layer in LAYERS:
        for kind in ("s", "peak_mib"):
            key = f"{layer}_{kind}"
            exponents[key] = _fit([(r["order"], r[key]) for r in groups.values()
                                   if r["order"] >= FIT_MIN_ORDER and key in r])
    return {
        "groups": groups,
        "exponent_in_n": exponents,
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="entry name, e.g. parent or change")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the weylseq package to measure")
    args = parser.parse_args(argv)

    entry = measure_ladder(args.src.resolve())
    entry = {
        "rev": _git_rev(args.src),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        **entry,
    }
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["ladder"] = list(LADDER)
    doc["layers"] = list(LAYERS)
    doc["exponent_fit"] = f"least squares of log(value) on log(n), orders >= {FIT_MIN_ORDER}"
    doc.setdefault("entries", {})[args.label] = entry
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
