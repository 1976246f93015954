"""The report writer against the standard encoder, which is its oracle."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylseq.cli
from weylseq import Group, WeylSystem, cpso_from_state, rand
from weylseq.codec import (_as_lists, dump, dumps, matrix_from_json, matrix_to_json,
                           measure_to_json, povm_to_json)


def oracle(obj) -> str:
    return json.dumps(obj, indent=2)


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 1 / 3, -1.5e300]

pair_floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
)
matrix_data = st.lists(st.lists(pair_floats, min_size=2, max_size=2), min_size=1, max_size=6)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(),  # NaN and +-inf included
    st.sampled_from(SPECIAL_FLOATS),
)
reports = st.recursive(
    st.one_of(scalars, matrix_data, st.builds(dict, data=matrix_data)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(reports)
def test_dumps_matches_the_standard_encoder(obj):
    assert dumps(obj) == oracle(obj)


@settings(max_examples=50, deadline=None)
@given(reports)
def test_dump_writes_what_dumps_returns(obj):
    fp = io.StringIO()
    dump(obj, fp)
    assert fp.getvalue() == dumps(obj)


@pytest.mark.parametrize("data", [
    [[1.0]],                      # a pair of length 1
    [[1.0, 2.0, 3.0]],            # ... or 3
    [[1.0, 2.0], [3.0]],          # lengths that add up to pairs
    [[1.0, 2.0, 3.0], [4.0]],
    [[1, 2.0]],                   # an int entry
    [[1.0, True]],                # a bool entry
    [[1.0, None]],
    [[1.0, float("nan")]],        # non-finite entries
    [[float("inf"), 0.0], [0.0, -float("inf")]],
    [[1e308, 0.0], [1e308, 0.0]],  # finite entries whose sum overflows
    [(1.0, 2.0)],                 # a tuple
    [[1.0, 2.0], 3.0],
    [[[1.0, 2.0]]],
    [[], []],
])
def test_non_pair_lists_take_the_generic_path(data):
    for obj in (data, {"rows": 1, "data": data}, [{"data": data}, data]):
        assert dumps(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [
    {1: "int key", "1": "str key"},
    {True: [1.0, 2.0], None: {}, 2.5: [], float("nan"): [[0.0, 1.0]]},
    {"outer": {3: [[0.5, -0.0]]}},
    {"é中\U0001f600": "☃\n\t\"\\"},
    [[], {}, (), ""],
])
def test_unusual_keys_and_strings(obj):
    assert dumps(obj) == oracle(obj)


def test_unencodable_objects_raise_like_the_standard_encoder():
    for obj in ({"a": object()}, [np.float32(1.0)], {(1, 2): 3}):
        with pytest.raises(TypeError):
            oracle(obj)
        with pytest.raises(TypeError):
            dumps(obj)


# ==================== arrays in the report tree ====================


def complex_stack(shape, pool, seed):
    """A complex array of the shape whose floats are drawn from pool, so
    that bit patterns repeat; its first two floats are -0.0 and 0.0."""
    floats = np.random.default_rng(seed).choice(np.array([-0.0, 0.0, *pool]),
                                                size=2 * math.prod(shape))
    floats[:2] = -0.0, 0.0
    return floats.view(complex).reshape(shape)


stacks = st.builds(
    complex_stack,
    st.lists(st.integers(1, 4), min_size=2, max_size=3).map(tuple),
    st.lists(pair_floats, max_size=6),
    st.integers(0, 2**32 - 1),
)
array_reports = st.recursive(
    st.one_of(stacks, scalars),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(array_reports)
def test_arrays_are_written_as_their_list_form(tree):
    assert dumps(tree) == oracle(_as_lists(tree))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2)])
def test_non_finite_arrays_are_refused_in_both_forms(bad, shape):
    a = np.zeros(shape, dtype=complex)
    a.flat[-1] = complex(0.5, bad)
    for tree in (a, {"m": a}, [1.0, {"m": [a]}]):
        with pytest.raises(ValueError) as listed:
            oracle(_as_lists(tree))
        with pytest.raises(ValueError) as written:
            dumps(tree)
        assert str(written.value) == str(listed.value) == "matrix has non-finite entries"


def test_order_16_cpso_report_is_the_list_form_bytes(tmp_path):
    ws = WeylSystem(Group.from_spec("16"))
    state = tmp_path / "s.json"
    state.write_text(json.dumps(matrix_to_json(rand.state(np.random.default_rng(16), 16))))
    out = tmp_path / "cpso.json"
    assert weylseq.cli.main(["cpso", "--check-ic", "--group", "16", "--state", str(state),
                             "--out", str(out)]) == 0
    povm = cpso_from_state(ws, matrix_from_json(json.loads(state.read_text())))
    # the effects share floats, as Prop 4.3 says: one repr serves many entries
    assert np.unique(povm.effects.view(np.uint64)).size < povm.effects.size
    want = {"command": "cpso", "group": {"moduli": [16]}, "povm": povm_to_json(povm),
            "span_dimension": 256, "informationally_complete": True}
    assert out.read_text() == oracle(want) + "\n"


def old_matrix_data(t):
    return [[float(z.real), float(z.imag)] for z in np.asarray(t, dtype=complex).reshape(-1)]


@pytest.mark.parametrize("make", [
    lambda rng: rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
    lambda rng: (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))).T,
    lambda rng: rng.standard_normal((2, 3)),  # real input
    lambda rng: np.array([[-0.0 - 0.0j, 5e-324j], [1e16 + 1e-5j, 1 / 3]]),
    lambda rng: (rng.standard_normal((6, 6)) + 0j)[::2, ::-3],
])
def test_matrix_to_json_equals_the_per_entry_list(rng, make):
    t = make(rng)
    data = matrix_to_json(t)["data"]
    old = old_matrix_data(t)
    assert [[x.hex() for x in pair] for pair in data] == [[x.hex() for x in pair] for pair in old]
    assert all(type(x) is float for pair in data for x in pair)


# ==================== every command's report, both encoders ====================


def oracle_dump(obj, fp):
    fp.write(oracle(_as_lists(obj)))


def command_lines(tmp_path, spec):
    """The argv of every JSON-writing command on the group, after writing
    the input files they read."""
    g = Group.from_spec(spec)
    rng = np.random.default_rng(5)
    measure = tmp_path / f"m_{spec}.json"
    measure.write_text(json.dumps(measure_to_json(rand.covariant_measure(rng, g))))
    state = tmp_path / f"s_{spec}.json"
    state.write_text(json.dumps(matrix_to_json(rand.state(rng, g.order))))
    instr = tmp_path / f"i_{spec}.json"
    assert weylseq.cli.main(["instrument", "build", "--measure", str(measure),
                             "--out", str(instr)]) == 0
    return [
        ["sequential", "run", "--measure", str(measure), "--state", str(state)],
        ["instrument", "build", "--measure", str(measure)],
        ["instrument", "verify", "--in", str(instr)],
        ["instrument", "reconstruct", "--in", str(instr)],
        ["cpso", "--group", spec, "--state", str(state), "--check-ic"],
        ["dump-weyl", "--group", spec],
        ["demo", "spin", "--a", "0,1,0", "--b", "0,0,1"],
    ]


@pytest.mark.parametrize("spec", ["8", "2x2x2", "2x3"])
def test_every_command_writes_the_oracle_bytes(tmp_path, monkeypatch, capsys, spec):
    commands = command_lines(tmp_path, spec)

    def run_all(tag):
        outputs = []
        for k, argv in enumerate(commands):
            out = tmp_path / f"{tag}_{k}.json"
            assert weylseq.cli.main(argv + ["--out", str(out)]) == 0
            assert weylseq.cli.main(argv) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        return outputs

    ours = run_all("codec")
    monkeypatch.setattr(weylseq.cli, "dump", oracle_dump)
    theirs = run_all("oracle")
    for argv, (file_a, out_a), (file_b, out_b) in zip(commands, ours, theirs):
        assert file_a == file_b, argv
        assert out_a == out_b, argv
        assert file_a.decode() == out_a
