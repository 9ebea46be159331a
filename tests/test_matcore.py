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
    obj = {"rows": 3, "cols": 4, "re": a.real.ravel().tolist(), "im": a.imag.ravel().tolist()}
    back = matcore.matrix_from_json(obj)
    assert back.dtype == np.complex128 and np.array_equal(back, a)


def test_matrix_from_json_keeps_a_real_matrix_real():
    # float64 where im is absent or all zero, -0.0 included; complex128 where
    # any im entry is not zero, however small
    re = [1.0, -2.0, 0.5, 3.0]
    for im in ({}, {"im": [0.0] * 4}, {"im": [-0.0, 0.0, 0.0, -0.0]}):
        m = matcore.matrix_from_json({"rows": 2, "cols": 2, "re": re, **im})
        assert m.dtype == np.float64 and np.array_equal(m, np.reshape(re, (2, 2)))
    m = matcore.matrix_from_json({"rows": 2, "cols": 2, "re": re, "im": [0.0, 5e-324, 0.0, 0.0]})
    assert m.dtype == np.complex128 and m[0, 1] == complex(-2.0, 5e-324)


def test_every_builder_of_a_real_operator_returns_float64():
    # the dtype rule: real data is float64, so it reaches the real LAPACK drivers
    from abssep import bipartite, families, posmaps

    maps = [posmaps.MapSpec("identity", 3), posmaps.MapSpec("transpose", 3),
            posmaps.reduction_map(3), posmaps.choi_map(), posmaps.generalized_choi_map(0.5, 1.2),
            posmaps.breuer_hall_map(4), posmaps.breuer_hall_map(6)]
    built = {
        "swap_operator": bipartite.swap_operator(3),
        "max_entangled": bipartite.max_entangled(3),
        "max_entangled_projector": bipartite.max_entangled_projector(3),
        "upb_complement_state": families.upb_complement_state(),
        "upb_state": families.upb_state(0.5),
        "breuer_hall_default_v": posmaps.breuer_hall_default_v(4),
        "matrix_from_json": matcore.matrix_from_json(
            {"rows": 2, "cols": 2, "re": [1.0, 2.0, 2.0, 1.0], "im": [0.0] * 4}),
    }
    built.update((f"tiles_upb[{k}]", v) for k, v in enumerate(families.tiles_upb()))
    built.update((f"choi_matrix({phi.kind}, {phi.dim})", posmaps.choi_matrix(phi)) for phi in maps)
    assert [name for name, a in built.items() if a.dtype != np.float64] == []


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


# reference for eigvalsh, eigh and psd_test, which must match it bit for bit:
# always symmetrize to (m + m†)/2, in float64 for real m and complex128 for any
# other, then sort the eigenvalues descending
def _symmetrized(m):
    m = np.asarray(m)
    m = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64)
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _old_eigvalsh(m):
    return -np.sort(-np.linalg.eigvalsh(_symmetrized(m)), axis=-1, kind="stable")


def _old_eigh(m):
    d, q = np.linalg.eigh(_symmetrized(m))
    order = np.argsort(-d, axis=-1, kind="stable")
    return np.take_along_axis(d, order, -1), np.take_along_axis(q, order[..., np.newaxis, :], -1)


def _old_psd_test(m, tol=matcore.DEFAULT_PSD_TOL):
    w = _old_eigvalsh(m)
    op = np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))
    return w[..., -1] >= -tol * np.maximum(1.0, op), w[..., -1]


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def _gateway_inputs():
    from abssep import bipartite, posmaps, sdpsolve

    rng = np.random.default_rng(15)
    real = rng.standard_normal((6, 5, 5))
    m = np.array([[2, 0, -1], [0, -0.0, -1], [-1, -1, 0]], dtype=np.complex128)
    signed = np.array([random_hermitian(rng, 4) for _ in range(3)])
    signed[1, 0, 2] = signed[1, 2, 0] = -0.0  # a real part of -0.0 on both sides
    signed[2, 1, 3] = complex(0.5, -0.0)
    signed[2, 3, 1] = complex(0.5, 0.0)
    mirrored_zero = real[0] + real[0].T
    mirrored_zero[1, 3], mirrored_zero[3, 1] = -0.0, 0.0  # equal by value, not by bits
    grid = np.linspace(0.0, 4.0 / 3.0, 31)
    b, c = (v.ravel() for v in np.meshgrid(grid, grid))
    gen = sdpsolve.gen_choi_certificates(b, c)
    bh = sdpsolve.breuer_hall_certificates(posmaps.breuer_hall_map(8))
    skewed = random_hermitian(rng, 6)
    skewed[0, 3] += 1e-12
    return {
        "real": real + real.swapaxes(-1, -2),
        "complex": np.array([random_hermitian(rng, n) for n in (7, 7, 7)]),
        "M": m,
        "real-M": m.real,
        "signed-zero": signed,
        "mirrored-zero": mirrored_zero,
        "gen-choi-jmats": gen.jmats,
        "gen-choi-diamond": gen.diamond_ys - gen.jmats,
        "gen-choi-max-eig": bipartite.partial_transpose(gen.max_eig_ys, 3, 3) + gen.jmats,
        "breuer-hall-8": bh.diamond_ys + bh.jmats,
        "breuer-hall-8-max-eig": bh.max_eig_ys,
        "defect-1e-12": skewed,
        "real-defect-1e-12": skewed.real,
        "half-max": np.array([[matcore._HALF_MAX, 1.0], [1.0, -matcore._HALF_MAX]]),
        "transposed": random_hermitian(rng, 5).T,
        "real-transposed": (real[1] + real[1].T).T,
    }


# every input as given, and every real one also as complex128, which must take
# the complex path exactly as before: symmetrized in complex arithmetic
_GATEWAY_CASES = [(name, cast) for name, a in _gateway_inputs().items()
                  for cast in ((None,) if np.iscomplexobj(a) else (None, np.complex128))]


@pytest.mark.parametrize("name, cast", _GATEWAY_CASES,
                         ids=[name + ("-as-complex" if cast else "") for name, cast in _GATEWAY_CASES])
def test_gateway_is_bit_identical_to_symmetrizing_first(name, cast):
    # a real stack runs the real LAPACK driver on float64 (a + aᵀ)/2, a complex
    # one the complex driver on (a + a†)/2; each keeps its dtype throughout
    a = _gateway_inputs()[name]
    if cast is not None:
        a = a.astype(cast)
    before = a.copy()
    assert np.array_equal(_bits(matcore.eigvalsh(a)), _bits(_old_eigvalsh(a)))
    d, q = matcore.eigh(a)
    d_old, q_old = _old_eigh(a)
    assert q.dtype == q_old.dtype == a.dtype
    assert np.array_equal(_bits(d), _bits(d_old))
    assert np.array_equal(_bits(q), _bits(q_old))
    (ok, lam_min), (ok_old, lam_min_old) = matcore.psd_test(a), _old_psd_test(a)
    assert np.array_equal(ok, ok_old)
    assert np.array_equal(_bits(lam_min), _bits(lam_min_old))
    h = matcore.hermitize(a)  # a itself where it already has these bits
    assert h.dtype == a.dtype
    assert np.array_equal(_bits(h), _bits(_symmetrized(a)))
    assert np.array_equal(_bits(a), _bits(before))  # no call wrote to its input


def test_gateway_passes_exact_input_uncopied_and_symmetrizes_the_rest():
    inputs = _gateway_inputs()
    # complex: equal to m† with no -0.0 part; real: equal to mᵀ bit for bit,
    # -0.0 included, so the real certificate stacks pass as they are built
    for name in ("complex", "gen-choi-diamond", "breuer-hall-8", "half-max"):
        a = inputs[name].astype(np.complex128)
        assert matcore.hermitize(a) is a, name
    for name in ("real", "real-M", "gen-choi-jmats", "gen-choi-diamond", "gen-choi-max-eig",
                 "breuer-hall-8", "breuer-hall-8-max-eig", "half-max", "real-transposed"):
        assert inputs[name].dtype == np.float64, name
        assert matcore.hermitize(inputs[name]) is inputs[name], name
    # -0.0 parts, mirrored zeros of opposite sign, a defect, and a complex
    # transposed view, which is copied first
    for name in ("M", "signed-zero", "gen-choi-jmats", "mirrored-zero", "defect-1e-12",
                 "real-defect-1e-12", "transposed"):
        a = inputs[name].astype(np.complex128) if name == "gen-choi-jmats" else inputs[name]
        assert matcore.hermitize(a) is not a, name


def test_m_with_a_negative_zero_is_not_its_own_hermitian_part():
    # LAPACK reads the -0.0 of M differently from the +0.0 that (M + M†)/2
    # holds there, so a fast path that hands M over because M == M† by value
    # changes the middle eigenvalue in its last bits
    m = _gateway_inputs()["M"]
    assert np.array_equal(m, m.conj().T)
    assert not np.array_equal(_bits(np.linalg.eigvalsh(m)), _bits(_old_eigvalsh(m)))
    assert np.array_equal(_bits(matcore.eigvalsh(m)), _bits(_old_eigvalsh(m)))


def test_gateway_keeps_the_overflow_of_a_part_above_half_max():
    # m + m† overflows, so (m + m†)/2 is not m: the gateway symmetrizes, and
    # LAPACK returns the same NaNs as before, not the finite eigenvalues of m
    big = np.array([[2.0**1023, 1.0], [1.0, 0.0]])
    assert np.isfinite(np.linalg.eigvalsh(big)).all()
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(matcore.eigvalsh(big)).all()
        assert np.array_equal(_bits(matcore.eigvalsh(big)), _bits(_old_eigvalsh(big)))


@pytest.mark.parametrize("norm", [1.0, 1e6])
@pytest.mark.parametrize("factor, rejected", [(2.0, True), (0.5, False)])
def test_hermitize_tolerance_is_pinned_from_both_sides(norm, factor, rejected):
    # the gate is defect > 1e-8 (1 + ||m||_F), stated here and not read from
    # HERMITIZE_TOL, so a loosened or purely absolute gate fails one case
    rng = np.random.default_rng(16)
    h = random_hermitian(rng, 4)
    h *= norm / np.linalg.norm(h)
    delta = factor * 1e-8 * (1.0 + norm) / math.sqrt(2.0)  # ||m - m†||_F = sqrt(2) delta
    skewed = h.copy()
    skewed[0, 1] += delta
    assert abs(np.linalg.norm(skewed) - norm) <= 1e-6 * norm
    if rejected:
        with pytest.raises(InvalidMatrix, match="not Hermitian"):
            matcore.hermitize(skewed)
        with pytest.raises(InvalidMatrix, match="not Hermitian"):
            matcore.eigvalsh(skewed)
    else:
        sym = matcore.hermitize(skewed)
        assert np.array_equal(sym, _symmetrized(skewed))
        assert np.array_equal(sym, sym.conj().T)
        assert np.array_equal(_bits(matcore.eigvalsh(skewed)), _bits(_old_eigvalsh(skewed)))


def _eigvalsh_rows(monkeypatch) -> list[int]:
    """The number of matrices each numpy.linalg.eigvalsh call decomposes, from now on."""
    rows, eigvalsh = [], np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        rows.append(int(np.prod(a.shape[:-2], dtype=int)))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return rows


@pytest.mark.parametrize("real", [True, False])
def test_least_eigenvalue_decomposes_no_matrix_well_above_its_floor(monkeypatch, real):
    # 30 matrices with least eigenvalue 1 or more: against the floor 0.5 none
    # reaches eigvalsh; with an infinite floor only the SCREEN_SEEDS = 8 seeds
    # do, the first of them at 0.25 and the rest screened against it
    rng = np.random.default_rng(41)
    g = rng.standard_normal((30, 6, 6)) + (0.0 if real else 1j * rng.standard_normal((30, 6, 6)))
    stack = g @ g.conj().swapaxes(-1, -2) + np.eye(6)
    rows = _eigvalsh_rows(monkeypatch)
    assert matcore.least_eigenvalue(stack, 0.5) == 0.5 and rows == []
    stack[0] = np.diag([0.25, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert matcore.least_eigenvalue(stack) == 0.25 and rows == [8]


def test_least_eigenvalue_screens_a_matrix_three_margins_above_its_floor(monkeypatch):
    # H = diag(floor + 3 delta, 1) with floor 0.25 and delta = 8 d³ u (ν + |floor|)
    # = 80 u, stated here and not read from SCREEN_MARGIN. H passes the screen,
    # which a margin 10x larger would send to eigvalsh. A tighter margin stays
    # valid down to the true rounding, far below delta, so no test pins the
    # other side
    floor = 0.25
    delta = 8.0 * 2**3 * 2.0**-53 * (1.0 + floor)
    h = np.diag([floor + 3.0 * delta, 1.0])
    rows = _eigvalsh_rows(monkeypatch)
    assert matcore.least_eigenvalue(h, floor) == floor
    assert rows == []


def test_least_eigenvalue_keeps_the_gateway():
    # the whole stack passes hermitize, screened matrices and seeds alike
    rng = np.random.default_rng(42)
    stack = np.array([random_hermitian(rng, 3) + 10.0 * np.eye(3) for _ in range(12)])
    stack[10, 0, 1] += 1e-3
    with pytest.raises(InvalidMatrix, match="not Hermitian"):
        matcore.least_eigenvalue(stack, 0.0)
    stack[10, 0, 1] = np.nan
    with pytest.raises(InvalidMatrix, match="non-finite"):
        matcore.least_eigenvalue(stack)
