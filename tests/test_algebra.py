import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylseq import DimensionError, HermiticityError, is_psd, matrix_from_json, matrix_to_json
from weylseq.rand import complex_matrix
from oracles import partial_trace_first, partial_trace_second, trace_norm

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_matrix(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def test_partial_trace_bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = np.outer(v, v.conj())
    red = partial_trace_second(rho, 2, 2)
    assert_allclose(red, np.eye(2) / 2, atol=1e-15)
    red1 = partial_trace_first(rho, 2, 2)
    assert_allclose(red1, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_product(rng):
    a = complex_matrix(rng, 3)
    b = complex_matrix(rng, 2)
    t = np.kron(a, b)
    assert_allclose(partial_trace_second(t, 3, 2), a * np.trace(b), atol=1e-12)
    assert_allclose(partial_trace_first(t, 3, 2), b * np.trace(a), atol=1e-12)


def test_partial_trace_shape_check():
    with pytest.raises(DimensionError):
        partial_trace_second(np.eye(5), 2, 2)


def test_is_psd():
    assert is_psd(np.eye(3)) is True  # a Python bool for one matrix
    assert is_psd(np.zeros((2, 2)))
    assert not is_psd(np.diag([1.0, -0.1]))
    sx_sy_sz = SX + np.array([[0, -1j], [1j, 0]]) + SZ
    s = (np.eye(2) + sx_sy_sz / np.sqrt(3)) / 2
    assert is_psd(s)


def test_is_psd_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("shape", [(5, 5), (7, 4, 4), (3, 2, 6, 6)])
def test_is_psd_eigensolves_the_hermitian_part_bit_for_bit(shape, rng, monkeypatch):
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    t = a @ a.conj().swapaxes(-1, -2) + 1e-12 * noise  # Hermitian within the slack
    before = t.copy()
    seen = []

    def spy(h, _orig=np.linalg.eigvalsh):
        seen.append(np.array(h))
        return _orig(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    is_psd(t)
    want = (t + t.conj().swapaxes(-1, -2)) / 2.0
    assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()
    assert t.tobytes() == before.tobytes()  # the input is not overwritten


def test_trace_norm_values():
    assert trace_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)
    assert trace_norm(np.diag([1.0, -3.0])) == pytest.approx(4.0)
    assert trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_unitary_invariance(rng):
    for _ in range(20):
        t = complex_matrix(rng, 4)
        u = unitary(rng, 4)
        v = unitary(rng, 4)
        assert abs(trace_norm(u @ t @ v) - trace_norm(t)) < 1e-10


def test_matrix_json_roundtrip_bit_exact(rng):
    t = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    blob = json.dumps(matrix_to_json(t))
    back = matrix_from_json(json.loads(blob))
    assert back.shape == (3, 4)
    assert np.array_equal(back, t)


def test_matrix_json_rejects_bad_data():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"cols": 1, "data": [[0.0, 0.0]]})
