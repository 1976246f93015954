"""Mutated input files and option values through the CLI.

Every mutant of a valid file, fed to every command that reads a file,
and every drawn value of --seed, --a, --b, --tol and --group must end in
exit 0, 1 or 2 without an exception escaping `main`, and never in exit 0
with a report that says "pass": false.
"""

import contextlib
import io
import json
import warnings
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from weylseq import (Group, WeylSystem, covariant_instrument, instrument_to_json,
                     matrix_to_json, measure_to_json, rand)
from weylseq.cli import main

GROUPS = [(2,), (3,), (4,), (2, 2)]
OUT_OF_RANGE = "__1e400__"  # written as the bare number 1e400
REPLACEMENTS = [10**400, OUT_OF_RANGE, "x", None, [1], [], -1, 0, 1.5, {}]


@lru_cache(maxsize=None)
def valid_text(moduli, kind):
    ws = WeylSystem(Group(moduli))
    rng = np.random.default_rng(ws.dim)
    mm = rand.covariant_measure(rng, ws.group)
    obj = {
        "measure": lambda: measure_to_json(mm),
        "state": lambda: matrix_to_json(rand.state(rng, ws.dim)),
        "instrument": lambda: instrument_to_json(ws, covariant_instrument(ws, mm)),
    }[kind]()
    return json.dumps(obj)


def nodes(node, path=()):
    """Every (path, node) of a decoded JSON document, the root first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from nodes(child, path + (key,))


def parent_of(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutants(draw):
    moduli = draw(st.sampled_from(GROUPS))
    doc = json.loads(valid_text(moduli, draw(st.sampled_from(["measure", "state", "instrument"]))))
    everything = list(nodes(doc))
    matrices = [p for p, v in everything if isinstance(v, dict) and "data" in v]
    how = draw(st.sampled_from(["drop_key", "replace", "truncate", "reshape", "moduli"]))
    if how == "drop_key":
        path = draw(st.sampled_from([p for p, v in everything if p and isinstance(p[-1], str)]))
        del parent_of(doc, path)[path[-1]]
    elif how == "replace":
        path = draw(st.sampled_from([p for p, _ in everything if p]))
        parent_of(doc, path)[path[-1]] = draw(st.sampled_from(REPLACEMENTS))
    elif how == "truncate":
        data = parent_of(doc, draw(st.sampled_from(matrices)) + ("data",))["data"]
        del data[draw(st.integers(0, len(data) - 1)):]
    elif how == "reshape":
        mat = parent_of(doc, draw(st.sampled_from(matrices)) + ("data",))
        mat[draw(st.sampled_from(["rows", "cols"]))] = draw(st.integers(-1, 20))
    elif "group" in doc:
        doc["group"]["moduli"] = draw(st.lists(st.integers(-1, 6), max_size=3))
    else:
        moduli = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=2)))
    text = json.dumps(doc).replace(json.dumps(OUT_OF_RANGE), "1e400")
    return moduli, text


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(mutant=mutants())
def test_mutated_files_exit_cleanly(mutant, tmp_path_factory):
    moduli, text = mutant
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(text)
    for argv in (["sequential", "run", "--measure", str(path)],
                 ["cpso", "--group", "x".join(map(str, moduli)), "--state", str(path)],
                 ["instrument", "verify", "--in", str(path)],
                 ["instrument", "reconstruct", "--in", str(path)]):
        code, out, err = run(argv)
        assert code in (0, 1, 2), (argv, err)
        assert (code == 0) == (err == ""), (argv, err)
        if code == 0:
            assert json.loads(out).get("pass") is not False, argv
        else:
            assert err.count("\n") == 1, (argv, err)


# Option values: negative, huge, not a number, infinite, empty; the groups
# are either rejected before anything is built or of order at most 4.
NUMBER_TEXTS = ["0", "-0", "-1", "1", "nan", "-nan", "inf", "-inf", "1e308", "-1e308",
                "1e309", "1e-320", "", "x"]
GROUP_TEXTS = ["", "0", "1", "-2", "2", "3", "4", "2x2", "nan", "inf", "1e308", "2x", "x",
               "2x-3", "2x1", str(10**20), "9" * 400]
numbers = st.one_of(st.sampled_from(NUMBER_TEXTS), st.floats().map(repr),
                    st.integers(-2**70, 2**70).map(str))
axes = st.one_of(st.sampled_from(["0,0,1", "1,0,0", "0,1,0", "0,0,0"]),
                 st.lists(numbers, min_size=0, max_size=4).map(",".join))


@settings(max_examples=60, deadline=None)
@given(seed=numbers, a=axes, b=axes, tol=numbers, group=st.sampled_from(GROUP_TEXTS))
def test_option_values_exit_cleanly(seed, a, b, tol, group, tmp_path_factory):
    path = tmp_path_factory.mktemp("options") / "m.json"
    path.write_text(valid_text((2,), "measure"))
    for argv in (["demo", "spin", f"--seed={seed}", f"--a={a}", f"--b={b}"],
                 ["verify", "--suite", "spin", f"--seed={seed}", f"--group={group}"],
                 ["sequential", "run", "--measure", str(path), f"--tol={tol}",
                  f"--group={group}"],
                 ["dump-weyl", f"--group={group}"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning is output beyond the one error line
            code, out, err = run(argv)
        assert code in (0, 1, 2), (argv, err)
        assert (code == 0) == (err == ""), (argv, err)
        if code != 0:
            assert err.count("\n") == 1, (argv, err)
