"""Core linear algebra: eigendecomposition, Schatten norms, PSD tests."""

import math

import numpy as np
import pytest

from abssep import matcore
from abssep.errors import InvalidMatrix


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def test_eigh_diagonal():
    dec = matcore.eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [3.0, 2.0, 1.0])


def test_eigh_analytic_2x2():
    dec = matcore.eigh(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert np.allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-12)


def test_eigh_swap_two_qubits():
    # swap on C2 ⊗ C2: +1 on the three symmetric directions, -1 on the singlet
    s = np.zeros((4, 4))
    for i in range(2):
        for k in range(2):
            s[i * 2 + k, k * 2 + i] = 1.0
    dec = matcore.eigh(s)
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0, -1.0], atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33])
def test_eigh_reconstruction_and_orthonormality(n):
    rng = np.random.default_rng(100 + n)
    a = random_hermitian(rng, n)
    vals, vecs = matcore.eigh(a)
    fro = np.linalg.norm(a)
    assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.conj().T - a) <= 1e-10 * (1 + fro)
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)) <= 1e-10 * n
    assert np.all(np.diff(vals) <= 1e-12)


def test_eigh_against_numpy_oracle():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(2, 25))
        a = random_hermitian(rng, n)
        ours = matcore.eigvalsh(a)
        ref = np.linalg.eigvalsh(a)[::-1]
        assert np.allclose(ours, ref, atol=1e-11 * (1 + np.abs(ref).max()))


def test_eigh_degenerate_spectra():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        target = np.sort(rng.integers(-2, 3, size=n).astype(float))[::-1]
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q = np.linalg.qr(g)[0]
        a = q @ np.diag(target) @ q.conj().T
        vals = matcore.eigvalsh(a)
        assert np.allclose(vals, target, atol=1e-10)


def test_eigh_trace_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_hermitian(rng, int(rng.integers(2, 20)))
        vals = matcore.eigvalsh(a)
        tr = float(np.trace(a).real)
        assert abs(vals.sum() - tr) <= 1e-10 * (1 + abs(tr))


def test_eigh_deterministic():
    rng = np.random.default_rng(4)
    a = random_hermitian(rng, 12)
    d1 = matcore.eigh(a)
    d2 = matcore.eigh(a.copy())
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_eigh_rejects_bad_input():
    with pytest.raises(InvalidMatrix):
        matcore.eigh(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(InvalidMatrix):
        matcore.eigh(np.array([[0, 1], [0, 0]]))  # not Hermitian
    with pytest.raises(InvalidMatrix):
        matcore.eigh(np.zeros((2, 3)))


def test_hermitize_symmetrizes_small_defect():
    a = np.array([[1.0, 0.1 + 1e-12j], [0.1, 2.0]])
    h = matcore.hermitize(a)
    assert np.array_equal(h, h.conj().T)


def test_schatten_identity_frobenius():
    for n in (2, 5, 9):
        assert np.isclose(matcore.schatten_norm(np.eye(n), "frobenius"), np.sqrt(n))


def test_schatten_rank_one_projector():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    v /= np.linalg.norm(v)
    p = np.outer(v, v.conj())
    assert np.isclose(matcore.schatten_norm(p, "frobenius"), 1.0, atol=1e-12)


def test_schatten_scaled_swap():
    # ||alpha S||_F = |alpha| n on M_n ⊗ M_n
    from abssep.bipartite import swap_operator

    for n, alpha in ((2, 0.3), (3, -1.7)):
        s = swap_operator(n)
        assert np.isclose(
            matcore.schatten_norm(alpha * s, "frobenius"), abs(alpha) * n, atol=1e-12
        )


def test_schatten_norm_ordering():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        op = matcore.schatten_norm(a, "operator")
        fro = matcore.schatten_norm(a, "frobenius")
        tr = matcore.schatten_norm(a, "trace")
        assert op <= fro + 1e-10
        assert fro <= tr + 1e-10
        assert tr <= np.sqrt(n) * fro + 1e-10


def test_schatten_unknown_kind():
    with pytest.raises(ValueError):
        matcore.schatten_norm(np.eye(2), "nuclear")


def test_is_psd_identity():
    report = matcore.is_psd(np.eye(3))
    assert report
    assert np.isclose(report.min_eigenvalue, 1.0)


def test_is_psd_small_negative():
    assert not matcore.is_psd(np.diag([1.0, -1e-3]), tol=1e-9)


def test_is_psd_uniform_spectrum_submatrix():
    # 2x2 necessary matrix of the uniform spectrum: zero off-diagonal
    m = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert matcore.is_psd(m)


def test_is_psd_closed_under_sum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a, b = g1 @ g1.conj().T, g2 @ g2.conj().T
        assert matcore.is_psd(a) and matcore.is_psd(b)
        assert matcore.is_psd(a + b)


def test_singular_values_match_numpy():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    ours = matcore.singular_values(a)
    ref = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(ours[: ref.size], ref, atol=1e-9)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    back = matcore.matrix_from_json(matcore.matrix_to_json(a))
    assert np.allclose(back, a, atol=1e-15)


def test_matrix_json_rejects_mismatch():
    with pytest.raises(InvalidMatrix):
        matcore.matrix_from_json({"rows": 2, "cols": 2, "re": [1.0, 2.0, 3.0]})
    with pytest.raises(InvalidMatrix):
        matcore.matrix_from_json({"rows": 2, "cols": 2, "re": [0.0] * 4, "im": [0.0] * 3})
    # a scalar re or im is not a list of rows*cols entries
    with pytest.raises(InvalidMatrix):
        matcore.matrix_from_json({"rows": 1, "cols": 1, "re": 5})
    with pytest.raises(InvalidMatrix):
        matcore.matrix_from_json({"rows": 1, "cols": 1, "re": [5.0], "im": 0.0})
    # a dimension must be an integer, not truncated to one, and a JSON number:
    # int() reads true as 1 and "2" as 2
    for rows in (1.5, math.inf, math.nan, True, False, "2", "1"):
        with pytest.raises(InvalidMatrix, match="malformed"):
            matcore.matrix_from_json({"rows": rows, "cols": 1, "re": [1.0]})
        with pytest.raises(InvalidMatrix, match="malformed"):
            matcore.matrix_from_json({"rows": 1, "cols": rows, "re": [1.0]})
    assert matcore.matrix_from_json({"rows": 2.0, "cols": 1, "re": [1.0, 2.0]}).shape == (2, 1)


def test_stacked_eigvalsh_and_singular_values_match_per_matrix():
    rng = np.random.default_rng(12)
    stack = np.array([[random_hermitian(rng, 5) for _ in range(3)] for _ in range(2)])
    eigs = matcore.eigvalsh(stack)
    svals = matcore.singular_values(stack)
    assert eigs.shape == svals.shape == (2, 3, 5)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(eigs[i, j], matcore.eigvalsh(stack[i, j]))
            assert np.array_equal(svals[i, j], matcore.singular_values(stack[i, j]))
    dec = matcore.eigh(stack)
    assert np.array_equal(dec.eigenvalues[1, 2], matcore.eigh(stack[1, 2]).eigenvalues)
    assert np.array_equal(dec.eigenvectors[1, 2], matcore.eigh(stack[1, 2]).eigenvectors)


def test_stack_gates_apply_to_each_matrix():
    rng = np.random.default_rng(13)
    stack = np.array([random_hermitian(rng, 4) for _ in range(16)])
    skewed = stack.copy()
    skewed[9, 0, 1] += 1e-3  # one matrix far from Hermitian
    with pytest.raises(InvalidMatrix, match="not Hermitian"):
        matcore.eigvalsh(skewed)
    # a defect that the norm of the whole stack would hide is still caught
    mixed = 1e6 * stack
    mixed[3] = np.eye(4)
    mixed[3, 0, 1] = 1e-4
    with pytest.raises(InvalidMatrix, match="not Hermitian"):
        matcore.eigvalsh(mixed)
    broken = stack.copy()
    broken[15, 2, 2] = np.nan
    with pytest.raises(InvalidMatrix, match="non-finite"):
        matcore.eigvalsh(broken)
    with pytest.raises(InvalidMatrix, match="non-finite"):
        matcore.singular_values(broken)
    with pytest.raises(InvalidMatrix):
        matcore.is_psd(stack)
    with pytest.raises(InvalidMatrix):
        matcore.schatten_norm(stack, "trace")
