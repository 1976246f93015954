"""Spans around the public functions of every weylseq module.

The tracer is installed from outside the package: each target function is
replaced by a wrapper in *every* loaded ``weylseq`` module namespace that
holds it (and in module-level dicts such as the suite table), because
``from .instruments import verify_covariance`` binds the name at import
time. Without that, the calls nested inside ``joint_observable`` or
``reconstruct_measure`` would not show up as child spans.

Spans are kept in memory as ``[name, start, end, parent_index]`` and are
only aggregated or written out when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (module, attribute path, span name). A dotted attribute path names a
# method or cached property of a class in that module. Spans that run.py
# does not report as metrics still take their time out of their parents'
# self time, and show in the per-size lists of the largest spans.
TARGETS = (
    ("group", "Group.add_table", "group.add_table"),
    ("group", "Group.character_table", "group.character_table"),
    ("group", "Group.fourier_matrix", "group.fourier_matrix"),
    ("weyl", "WeylSystem.__init__", "weyl.WeylSystem"),
    ("weyl", "WeylSystem.momentum_effects", "weyl.momentum_effects"),
    ("weyl", "weyl_relation_residual", "weyl.weyl_relation_residual"),
    ("weyl", "snag_residuals", "weyl.snag_residuals"),
    ("algebra", "is_psd", "algebra.is_psd"),
    ("algebra", "matrix_to_json", "algebra.matrix_to_json"),
    ("algebra", "matrix_from_json", "algebra.matrix_from_json"),
    ("observables", "ProbVector.__post_init__", "observables.ProbVector_init"),
    ("observables", "Povm.__post_init__", "observables.Povm_init"),
    ("observables", "ensure_state", "observables.ensure_state"),
    ("observables", "measure", "observables.measure"),
    ("observables", "smear_position", "observables.smear_position"),
    ("observables", "smear_momentum", "observables.smear_momentum"),
    ("observables", "cpso_from_state", "observables.cpso_from_state"),
    ("observables", "effect_span_dimension", "observables.effect_span_dimension"),
    ("observables", "is_informationally_complete",
     "observables.is_informationally_complete"),
    ("observables", "povm_to_json", "observables.povm_to_json"),
    ("instruments", "CpMap.__post_init__", "instruments.CpMap_init"),
    ("instruments", "Instrument.__post_init__", "instruments.Instrument_init"),
    ("instruments", "CovariantMeasure.__post_init__",
     "instruments.CovariantMeasure_init"),
    ("instruments", "standard_instrument", "instruments.standard_instrument"),
    ("instruments", "covariant_instrument", "instruments.covariant_instrument"),
    ("instruments", "verify_covariance", "instruments.verify_covariance"),
    ("instruments", "reconstruct_measure", "instruments.reconstruct_measure"),
    ("instruments", "reconstruction_residual",
     "instruments.reconstruction_residual"),
    ("instruments", "instrument_to_json", "instruments.instrument_to_json"),
    ("instruments", "instrument_from_json", "instruments.instrument_from_json"),
    ("instruments", "measure_to_json", "instruments.measure_to_json"),
    ("instruments", "measure_from_json", "instruments.measure_from_json"),
    ("sequential", "joint_observable", "sequential.joint_observable"),
    ("sequential", "noise_measures", "sequential.noise_measures"),
    ("sequential", "generating_state", "sequential.generating_state"),
    ("sequential", "sequential_from_cpso", "sequential.sequential_from_cpso"),
    ("sequential", "run_sequential", "sequential.run_sequential"),
    ("sequential", "cpso_defect", "sequential.cpso_defect"),
    ("spin", "SpinFrame.__init__", "spin.SpinFrame"),
    ("spin", "unsharp_spin", "spin.unsharp_spin"),
    ("spin", "kronecker_factorization_check", "spin.kronecker_factorization_check"),
    ("suites", "suite_weyl", "suites.weyl"),
    ("suites", "suite_theorem41", "suites.theorem41"),
    ("suites", "suite_prop42", "suites.prop42"),
    ("suites", "suite_prop43", "suites.prop43"),
    ("suites", "suite_corollary44", "suites.corollary44"),
    ("suites", "suite_spin", "suites.spin"),
    ("suites", "run_suite", "suites.run_suite"),
    ("rand", "state", "rand.state"),
    ("rand", "covariant_measure", "rand.covariant_measure"),
    ("rand", "bloch_state", "rand.bloch_state"),
    ("cli", "main", "cli.main"),
    ("cli", "_load_json", "cli.load_json"),
    ("cli", "_emit", "cli.emit"),
)

# Constructors and checks that validate every object built.
VALIDATION_SPANS = (
    "algebra.is_psd",
    "observables.ProbVector_init",
    "observables.Povm_init",
    "observables.ensure_state",
    "instruments.CpMap_init",
    "instruments.Instrument_init",
    "instruments.CovariantMeasure_init",
)


class Tracer:
    """In-memory span recorder; ``enabled`` switches recording off without
    unwrapping, so untraced and traced calls can alternate in one process."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.enabled = True
        self._stack = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return wrapper


def _count_file_bytes(tracer: Tracer, counter: str, fn, path_arg: int):
    """Wrap fn so that the size of the file named by its path argument is
    added to a counter after the call (JSON bytes read or written)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        path = args[path_arg] if len(args) > path_arg else None
        if tracer.enabled and path:
            tracer.counters[counter] += os.path.getsize(path)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded weylseq module that refers to it."""
    import weylseq.cli  # noqa: F401  (loads every module of the package)

    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "weylseq" or n.startswith("weylseq."))]
    for mod_name, path, span in TARGETS:
        home = sys.modules[f"weylseq.{mod_name}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, functools.cached_property):
                raw.func = tracer.wrap(span, raw.func)
            else:
                setattr(cls, attr, tracer.wrap(span, raw))
            continue
        original = getattr(home, path)
        wrapped = tracer.wrap(span, original)
        if span == "cli.load_json":
            wrapped = _count_file_bytes(tracer, "algebra.json_bytes_in", wrapped, 0)
        elif span == "cli.emit":
            wrapped = _count_file_bytes(tracer, "algebra.json_bytes_out", wrapped, 1)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is original:
                            value[k] = wrapped


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its interval
    that its direct child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children[parent].append((max(start, p_start), min(end, p_end)))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        out.append((end - start) - _covered(children.get(i, ())))
    return out


def aggregate(spans, into=None) -> dict:
    """{span name: [self seconds, calls]} summed over spans. Every span is
    closed by then: the wrapper closes it in a ``finally``."""
    out = into if into is not None else defaultdict(lambda: [0.0, 0])
    for (name, *_), own in zip(spans, self_times(spans)):
        out[name][0] += own
        out[name][1] += 1
    return out


def root_coverage(spans) -> float:
    """Seconds covered by root spans (spans without a parent)."""
    return _covered([(a, b) for _, a, b, p in spans if p < 0])
