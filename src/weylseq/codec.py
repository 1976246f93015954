"""The package's JSON codec.

A matrix travels as {"rows": n, "cols": m, "data": [[re, im], ...]}, data
row-major; floats round-trip bit-exactly. An object's private layout holds
its matrices as one 2-d or 3-d array; the CLI writes it, and the public
converters map it through `_as_lists`. `dumps` gives exactly
`json.dumps(_as_lists(obj), indent=2)`, but fills one %-template per matrix
with one `float.__repr__` per distinct bit pattern (not value: -0.0 keeps
its repr). By Prop 4.3 the n^4 entries of a phase-space observable hold at
most n^3 distinct values: 12,208 floats of 663,552 at n = 24.
"""

from __future__ import annotations

import json
from json import JSONDecodeError, loads  # noqa: F401  (the standard decoder)
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import GroupError
from .group import Group


def matrix_to_json(t: np.ndarray) -> dict:
    t = as_cmatrix(t)
    data = t.reshape(-1).view(float).reshape(-1, 2).tolist()
    return {"rows": t.shape[0], "cols": t.shape[1], "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
        if rows <= 0 or cols <= 0:
            raise ValueError(f"bad matrix shape {rows}x{cols}")
        if len(data) != rows * cols:
            raise ValueError(f"matrix data has {len(data)} entries, expected {rows * cols}")
        out = np.array([complex(re, im) for re, im in data])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a number beyond the float range, such as 1e400. A
        # shape that does not fit the data is malformed too, not an invalid
        # matrix: every loader reports it like a missing key.
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix data has non-finite entries")
    return out.reshape(rows, cols)


def prob_to_json(pv) -> dict:
    return {"outcomes": _as_lists(pv.outcomes), "weights": [float(w) for w in pv.weights]}


def povm_to_json(povm: Povm) -> dict:
    return _as_lists(_povm_layout(povm))


def _povm_layout(povm: Povm) -> dict:
    return {"outcomes": povm.outcomes, "effects": povm.effects}


def povm_from_json(obj: dict) -> Povm:
    try:
        outcomes = [_label_from_json(o) for o in obj["outcomes"]]
        effects = [matrix_from_json(e) for e in obj["effects"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed POVM object: {exc}") from exc
    return Povm(tuple(outcomes), np.array(effects))


def _label_from_json(obj):
    if isinstance(obj, list):
        return tuple(_label_from_json(v) for v in obj)
    return obj


def instrument_to_json(ws, instr: Instrument) -> dict:
    return _as_lists(_instrument_layout(ws, instr))


def _instrument_layout(ws, instr: Instrument) -> dict:
    _require_group_instrument(ws, instr)
    return {"group": ws.group.to_json(), "maps": [{"choi": c} for c in instr.maps.choi]}


def instrument_from_json(obj: dict):
    """Returns (group, instrument); outcomes are the group elements. Each
    map is decoded straight into the one Choi stack, allocated at the first
    map of the right size."""
    try:
        group = Group.from_json(obj["group"])
        n, side, chois, shapes = group.order, group.order**2, None, []
        for m in obj["maps"]:
            t = matrix_from_json(m["choi"])
            if t.shape == (side, side) and len(shapes) < n:
                if chois is None:
                    chois = np.empty((n, side, side), dtype=complex)
                chois[len(shapes)] = t
            shapes.append(t.shape)
            del t  # before the next map is decoded: the peak is the stack and one map
    except (KeyError, TypeError, GroupError) as exc:
        raise ValueError(f"malformed instrument object: {exc}") from exc
    _require_stack("instrument", "maps", "maps[{}].choi", shapes, n, side)
    return group, Instrument(group.elements, CpMap(n, n, chois))


def measure_to_json(mm: CovariantMeasure) -> dict:
    return _as_lists(_measure_layout(mm))


def _measure_layout(mm: CovariantMeasure) -> dict:
    return {"group": mm.group.to_json(), "m": mm.m}


def _as_lists(obj):
    """The tree in plain JSON: tuples are lists, a 2-d array its
    `matrix_to_json` object, a 3-d array the list of those of its matrices."""
    if isinstance(obj, np.ndarray) and obj.ndim in (2, 3):
        return [matrix_to_json(t) for t in obj] if obj.ndim == 3 else matrix_to_json(obj)
    if isinstance(obj, dict):
        return {key: _as_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(item) for item in obj]
    return obj


def measure_from_json(obj: dict) -> CovariantMeasure:
    try:
        group = Group.from_json(obj["group"])
        stacks = [matrix_from_json(mx) for mx in obj["m"]]
    except (KeyError, TypeError, GroupError) as exc:
        raise ValueError(f"malformed measure object: {exc}") from exc
    _require_stack("measure", "m", "m[{}]", [t.shape for t in stacks], group.order,
                   group.order)
    return CovariantMeasure(group, np.array(stacks))


def _require_stack(what: str, key: str, entry: str, shapes: list, n: int, side: int) -> None:
    """A malformed `what` object, not an invalid one, unless its list `key`
    holds n matrices of shape side x side (`shapes`): a stack of the wrong
    shape is no measure or instrument of the group at all."""
    if len(shapes) != n:
        raise ValueError(f'malformed {what} object: "{key}" has {len(shapes)} entries, '
                         f"expected {n}")
    for k, (rows, cols) in enumerate(shapes):
        if (rows, cols) != (side, side):
            raise ValueError(f"malformed {what} object: {entry.format(k)} is "
                             f"{rows}x{cols}, expected {side}x{side}")


def dumps(obj) -> str:
    """`json.dumps(_as_lists(obj), indent=2)`, byte for byte."""
    parts = []
    _write(obj, "\n", parts.append)
    return "".join(parts)


def dump(obj, fp) -> None:
    """Write `dumps(obj)` to the text stream fp, one piece at a time."""
    _write(obj, "\n", fp.write)


def _write(obj, newline: str, out) -> None:
    """Send the encoding of obj, nested at the indent that `newline` ends in, to out."""
    inner = newline + "  "
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        sep = "{" + inner
        for key, value in obj.items():
            out(sep + encode_basestring_ascii(key) + ": ")
            _write(value, inner, out)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(obj, np.ndarray) and obj.ndim in (2, 3) and obj.size:
        _write_stack(obj, newline, out)
    elif isinstance(obj, (list, tuple)) and obj:
        sep = "[" + inner
        for item in obj:
            out(sep)
            _write(item, inner, out)
            sep = "," + inner
        out(newline + "]")
    else:
        # Scalars, empty containers and arrays, dicts with non-string keys.
        # Every line break in json output is structural, so re-indenting
        # them nests the standard encoding. A scalar takes the C encoder.
        indent = 2 if isinstance(obj, (dict, list, tuple, np.ndarray)) else None
        out(json.dumps(_as_lists(obj), indent=indent).replace("\n", newline))


def _write_stack(a: np.ndarray, newline: str, out) -> None:
    """A non-empty 2-d or 3-d array; non-finite entries raise as in `as_cmatrix`."""
    a = np.ascontiguousarray(a, dtype=complex)
    bits, inverse = np.unique(a.view(np.uint64), return_inverse=True)
    if not np.isfinite(bits.view(float)).all():
        raise ValueError("matrix has non-finite entries")
    reprs = np.array(list(map(float.__repr__, bits.view(float).tolist())), dtype=object)
    floats = reprs[inverse.reshape(-1)].tolist()
    at = newline + "  " if a.ndim == 3 else newline  # the indent of each matrix object
    rows, cols = a.shape[-2:]
    body = ",\n    ".join(["[\n      %s,\n      %s\n    ]"] * (rows * cols))
    template = f'{{\n  "rows": {rows},\n  "cols": {cols},\n  "data": [\n    {body}\n  ]\n}}'
    template, size = template.replace("\n", at), 2 * rows * cols
    sep, tail = ("[" + at, newline + "]") if a.ndim == 3 else ("", "")
    for start in range(0, len(floats), size):
        out(sep + template % tuple(floats[start:start + size]))
        sep = "," + at
    out(tail)


# Imported last: algebra, instruments and observables re-export this module.
from .algebra import as_cmatrix  # noqa: E402
from .instruments import CovariantMeasure, CpMap, Instrument  # noqa: E402
from .instruments import _require_group_instrument  # noqa: E402
from .observables import Povm  # noqa: E402
