"""Tensor structure: partial operations, realignment, Schmidt, Haar sampling."""

import math

import numpy as np
import pytest

from abssep import bipartite, matcore
from abssep.errors import InvalidDim, InvalidMatrix, InvalidVector


def random_state(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_kron_identities():
    assert np.array_equal(bipartite.kron(np.eye(2), np.eye(3)), np.eye(6))
    out = bipartite.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_block_structure():
    s = bipartite.swap_operator(2)
    out = bipartite.kron(np.diag([1.0, 0.0]), s)
    # entrywise from the definition (A ⊗ B)[(i,k),(j,l)] = A[i,j] B[k,l]
    for i in range(2):
        for j in range(2):
            block = out[i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4]
            expect = s if (i, j) == (0, 0) else np.zeros((4, 4))
            assert np.array_equal(block, expect)


def test_partial_transpose_product_state():
    rng = np.random.default_rng(0)
    s1, s2 = random_state(rng, 2), random_state(rng, 3)
    out = bipartite.partial_transpose(bipartite.kron(s1, s2), 2, 3)
    assert np.allclose(out, bipartite.kron(s1, s2.T), atol=1e-14)
    assert matcore.is_psd(out)


def test_partial_transpose_max_entangled():
    for n in (2, 3, 4):
        rho = bipartite.max_entangled_projector(n)
        vals = matcore.eigvalsh(bipartite.partial_transpose(rho, n, n))
        assert np.isclose(vals[-1], -1.0 / n, atol=1e-12)
        # partial transpose of the projector is S/n
        assert np.allclose(
            bipartite.partial_transpose(rho, n, n), bipartite.swap_operator(n) / n
        )


def test_partial_transpose_isotropic_boundary():
    # PPT boundary of isotropic states sits at alpha = 1/(n+1)
    n = 3
    alpha = 1.0 / (n + 1)
    rho = (1 - alpha) / n**2 * np.eye(n * n) + alpha * bipartite.max_entangled_projector(n)
    vals = matcore.eigvalsh(bipartite.partial_transpose(rho, n, n))
    assert abs(vals[-1]) <= 1e-12


def test_partial_transpose_involution_and_norms():
    rng = np.random.default_rng(1)
    rho = random_state(rng, 6)
    pt = bipartite.partial_transpose(rho, 2, 3)
    assert np.allclose(bipartite.partial_transpose(pt, 2, 3), rho)
    assert np.isclose(np.trace(pt).real, np.trace(rho).real, atol=1e-14)
    assert np.isclose(np.linalg.norm(pt), np.linalg.norm(rho), atol=1e-13)


def test_partial_trace_product():
    rng = np.random.default_rng(2)
    a, b = random_state(rng, 3), random_state(rng, 4)
    x = bipartite.kron(a, b)
    assert np.allclose(bipartite.partial_trace(x, 3, 4, "second"), a, atol=1e-13)
    assert np.allclose(bipartite.partial_trace(x, 3, 4, "first"), b, atol=1e-13)


def test_partial_trace_max_entangled_marginal():
    n = 3
    out = bipartite.partial_trace(bipartite.max_entangled_projector(n), n, n)
    assert np.allclose(out, np.eye(n) / n, atol=1e-14)


def test_realign_elementary_tensor():
    # R(|0><1| ⊗ |0><1|) = |0><0| ⊗ |1><1|
    m = n = 2
    x = bipartite.kron(np.outer([1, 0], [0, 1]), np.outer([1, 0], [0, 1]))
    r = bipartite.realign(x, m, n)
    expect = bipartite.kron(np.outer([1, 0], [1, 0]), np.outer([0, 1], [0, 1]))
    assert np.array_equal(r, expect)


def test_realign_identity_is_scaled_max_entangled():
    n = 3
    r = bipartite.realign(np.eye(n * n) / n**2, n, n)
    assert np.allclose(r, bipartite.max_entangled_projector(n) / n, atol=1e-14)
    assert np.isclose(bipartite.realign_trace_norm(np.eye(n * n) / n**2, n, n), 1.0 / n)


def test_realign_max_entangled_trace_norm():
    for n in (2, 3):
        value = bipartite.realign_trace_norm(bipartite.max_entangled_projector(n), n, n)
        assert np.isclose(value, n, atol=1e-9)


def test_realign_preserves_frobenius_and_is_involutive():
    rng = np.random.default_rng(3)
    rho = random_state(rng, 9)
    r = bipartite.realign(rho, 3, 3)
    assert np.isclose(np.linalg.norm(r), np.linalg.norm(rho), atol=1e-13)
    assert np.allclose(bipartite.realign(r, 3, 3), rho)


def test_realign_local_unitary_invariance():
    rng = np.random.default_rng(4)
    rho = random_state(rng, 9)
    base = bipartite.realign_trace_norm(rho, 3, 3)
    for seed in range(3):
        ua = bipartite.haar_unitary(3, seed)
        ub = bipartite.haar_unitary(3, seed + 100)
        u = bipartite.kron(ua, ub)
        rotated = u @ rho @ u.conj().T
        assert np.isclose(bipartite.realign_trace_norm(rotated, 3, 3), base, atol=1e-9)


def test_operator_schmidt_product_state():
    rng = np.random.default_rng(5)
    s1, s2 = random_state(rng, 3), random_state(rng, 3)
    rho = bipartite.kron(s1, s2)
    os = bipartite.operator_schmidt(rho, 3, 3)
    expect = np.linalg.norm(s1) * np.linalg.norm(s2)
    assert np.isclose(os.coefficients[0], expect, atol=1e-10)
    assert np.all(os.coefficients[1:] == 0.0)
    # the orthonormal completion at zero coefficients stays orthonormal
    gram = np.array(
        [[np.trace(x.conj().T @ y) for y in os.left_ops] for x in os.left_ops]
    )
    assert np.linalg.norm(gram - np.eye(9)) <= 1e-9
    rebuilt = sum(
        c * bipartite.kron(a, b)
        for c, a, b in zip(os.coefficients, os.left_ops, os.right_ops)
    )
    assert np.linalg.norm(rebuilt - rho) <= 1e-9


def test_operator_schmidt_max_entangled_sum():
    n = 3
    os = bipartite.operator_schmidt(bipartite.max_entangled_projector(n), n, n)
    assert np.isclose(os.coefficients.sum(), n, atol=1e-9)


def test_operator_schmidt_reconstruction_and_orthonormality():
    rng = np.random.default_rng(6)
    rho = random_state(rng, 9)
    os = bipartite.operator_schmidt(rho, 3, 3)
    rebuilt = sum(
        c * bipartite.kron(a, b)
        for c, a, b in zip(os.coefficients, os.left_ops, os.right_ops)
    )
    assert np.linalg.norm(rebuilt - rho) <= 1e-9
    for ops in (os.left_ops, os.right_ops):
        gram = np.array(
            [[np.trace(x.conj().T @ y) for y in ops] for x in ops]
        )
        assert np.linalg.norm(gram - np.eye(len(ops))) <= 1e-9


def test_operator_schmidt_sum_equals_realign_trace_norm():
    rng = np.random.default_rng(7)
    for _ in range(5):
        rho = random_state(rng, 9)
        os = bipartite.operator_schmidt(rho, 3, 3)
        # independent oracle: numpy SVD of the realignment
        ref = np.linalg.svd(bipartite.realign(rho, 3, 3), compute_uv=False).sum()
        assert np.isclose(os.coefficients.sum(), ref, atol=1e-9)
        assert np.isclose(bipartite.realign_trace_norm(rho, 3, 3), ref, atol=1e-9)


def test_vector_schmidt_examples():
    assert np.allclose(bipartite.vector_schmidt([1, 0, 0, 0], 2, 2), [1.0, 0.0])
    n = 3
    coeffs = bipartite.vector_schmidt(bipartite.max_entangled(n), n, n)
    assert np.allclose(coeffs, np.full(n, 1 / np.sqrt(n)), atol=1e-12)
    # product vector has a single Schmidt coefficient
    w = np.zeros(9, dtype=complex)
    w[0], w[1] = 1 / np.sqrt(3), np.sqrt(2.0 / 3.0)
    coeffs = bipartite.vector_schmidt(w, 3, 3)
    assert np.isclose(coeffs[0], 1.0, atol=1e-12)
    assert np.all(coeffs[1:] <= 1e-12)


def test_vector_schmidt_product_bound():
    rng = np.random.default_rng(8)
    for _ in range(200):
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        v /= np.linalg.norm(v)
        g = bipartite.vector_schmidt(v, 3, 3)
        assert g[0] * g[1] <= 0.5 + 1e-12


def test_vector_schmidt_rejects_non_unit():
    with pytest.raises(InvalidVector):
        bipartite.vector_schmidt([1.0, 1.0, 0.0, 0.0], 2, 2)


def test_max_entangled_and_swap():
    v = bipartite.max_entangled(3)
    assert np.isclose(np.vdot(v, v).real, 1.0, atol=1e-14)
    s = bipartite.swap_operator(2)
    e01 = np.kron([1, 0], [0, 1.0])
    e10 = np.kron([0, 1.0], [1, 0])
    assert np.allclose(s @ e01, e10)
    assert np.allclose(s @ s, np.eye(4))
    assert np.array_equal(s, s.conj().T)
    with pytest.raises(InvalidDim):
        bipartite.max_entangled(0)


def test_swap_operator_swaps_the_factors():
    # S(|a> ⊗ |b>) = |b> ⊗ |a> on every pair of basis vectors, exactly
    for n in range(1, 5):
        s, e = bipartite.swap_operator(n), np.eye(n)
        for a in range(n):
            for b in range(n):
                assert np.array_equal(s @ np.kron(e[a], e[b]), np.kron(e[b], e[a]))
        assert np.array_equal(s, s.T) and np.array_equal(s @ s, np.eye(n * n))


def test_haar_unitary_is_unitary_and_deterministic():
    for seed in range(5):
        u = bipartite.haar_unitary(5, seed)
        assert np.linalg.norm(u.conj().T @ u - np.eye(5)) <= 1e-10
        assert np.array_equal(u, bipartite.haar_unitary(5, seed))


def test_haar_first_moment():
    # mean of U|0><0|U† over Haar samples is I/n within 3 standard errors
    n, count = 3, 10_000
    rng = bipartite.rng_stream(123)
    acc = np.zeros((n, n), dtype=complex)
    for _ in range(count):
        u = bipartite.haar_unitary(n, rng)
        acc += np.outer(u[:, 0], u[:, 0].conj())
    mean = acc / count
    # per-entry std of the projector entries is <= 1/n, so 3 SE ~ 3/(n sqrt(N))
    assert np.abs(mean - np.eye(n) / n).max() <= 3.0 / (n * np.sqrt(count))


def test_rng_stream_split_determinism():
    a1 = bipartite.rng_stream(9, stream=4).standard_normal(3)
    a2 = bipartite.rng_stream(9, stream=4).standard_normal(3)
    b = bipartite.rng_stream(9, stream=5).standard_normal(3)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_realign_trace_norm_exact_on_product_pure_states():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(300):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        rho = np.outer(v, v.conj())
        worst = max(worst, abs(bipartite.realign_trace_norm(rho, 3, 3) - 1.0))
    assert worst <= 1e-12


def test_realign_trace_norm_of_maximally_mixed_state():
    value = bipartite.realign_trace_norm(np.eye(9) / 9.0, 3, 3)
    assert abs(value - 1.0 / 3.0) <= 1e-15


def test_operator_schmidt_zeroes_only_below_rank_tolerance():
    rng = np.random.default_rng(12)
    # operator-Schmidt rank 2: two product terms
    x = sum(
        bipartite.kron(random_state(rng, 3), random_state(rng, 2)) for _ in range(2)
    )
    os = bipartite.operator_schmidt(x, 3, 2)
    assert len(os.left_ops) == len(os.right_ops) == os.coefficients.size == 4
    assert np.all(os.coefficients[:2] > 0.0)
    assert np.all(os.coefficients[2:] == 0.0)
    ref = np.linalg.svd(bipartite.realign(x, 3, 2), compute_uv=False)
    assert np.allclose(os.coefficients[:2], ref[:2], atol=1e-14)


def test_stacked_ginibre_draw_matches_single_draws():
    # slice i of one stacked draw is the i-th single draw of the same generator,
    # which haar_unitary turns into a unitary, and stacks drawn one after another
    # equal one stack drawn whole
    for n in (1, 4, 9, 16):
        stack = bipartite._ginibre(bipartite.rng_stream(4, 0), n, 3)
        assert stack.shape == (3, n, n)
        rng, haar_rng = bipartite.rng_stream(4, 0), bipartite.rng_stream(4, 0)
        for z in stack:
            assert np.array_equal(z, bipartite._ginibre(rng, n))
            u = bipartite.haar_unitary(n, haar_rng)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10
            # U = Q D: the QR factor of the same draw up to diagonal phases
            q = np.linalg.qr(z)[0]
            phases = np.diagonal(q.conj().T @ u)
            assert np.allclose(np.abs(phases), 1.0, rtol=0.0, atol=1e-12)
            assert np.allclose(q * phases, u, rtol=0.0, atol=1e-12)
    rng = bipartite.rng_stream(9, 0)
    chunks = [bipartite._ginibre(rng, 4, k) for k in (3, 1, 0, 3)]
    assert chunks[2].shape == (0, 4, 4)
    assert np.array_equal(np.concatenate(chunks), bipartite._ginibre(bipartite.rng_stream(9, 0), 4, 7))


def test_stacked_realign_matches_per_matrix():
    rng = np.random.default_rng(14)
    stack = np.array([random_state(rng, 6) for _ in range(4)])
    out = bipartite.realign(stack, 2, 3)
    assert out.shape == (4, 4, 9)
    for i in range(4):
        assert np.array_equal(out[i], bipartite.realign(stack[i], 2, 3))
    with pytest.raises(InvalidDim):
        bipartite.realign(stack, 3, 2 + 1)
    with pytest.raises(InvalidMatrix):
        bipartite.kron(stack, stack)  # single-matrix operations stay 2-d only


def test_stacked_partial_transpose_and_trace_match_per_matrix():
    rng = np.random.default_rng(15)
    stack = np.array([random_state(rng, 6) for _ in range(5)])
    pt = bipartite.partial_transpose(stack, 2, 3)
    traces = {sub: bipartite.partial_trace(stack, 2, 3, sub) for sub in ("first", "second")}
    assert pt.shape == (5, 6, 6)
    assert traces["second"].shape == (5, 2, 2) and traces["first"].shape == (5, 3, 3)
    for i in range(5):
        t = stack[i].reshape(2, 3, 2, 3)
        assert np.array_equal(pt[i], t.transpose(0, 3, 2, 1).reshape(6, 6))
        assert np.array_equal(traces["second"][i], np.einsum("ikjk->ij", t))
        assert np.array_equal(traces["first"][i], np.einsum("ikil->kl", t))
    with pytest.raises(InvalidDim):
        bipartite.partial_transpose(stack, 3, 3)


def test_partial_transpose_and_trace_keep_real_input_real():
    # a real stack stays float64, with the entries the complex path gives;
    # complex input, and integer input, come out as before
    stack = np.random.default_rng(16).standard_normal((4, 6, 6))
    for op in (lambda x: bipartite.partial_transpose(x, 2, 3),
               lambda x: bipartite.partial_trace(x, 2, 3, "first"),
               lambda x: bipartite.partial_trace(x, 2, 3, "second")):
        real = op(stack)
        assert real.dtype == np.float64
        assert np.array_equal(real, op(stack.astype(np.complex128)).real)
        assert op(stack + 0j).dtype == np.complex128
        assert op(np.eye(6, dtype=int)).dtype == np.float64
    with pytest.raises(InvalidMatrix):
        bipartite.partial_transpose(np.full((6, 6), np.nan), 2, 3)


@pytest.mark.parametrize("count, n", [(100, 4), (100, 6), (50, 9), (16, 16), (None, 3)])
def test_ginibre_has_the_bits_of_a_plus_ib(count, n):
    # the orbit stack shapes, and one matrix: writing the real and imaginary
    # parts of one complex stack gives the bits A + 1j B gives
    z = bipartite._ginibre(bipartite.rng_stream(36, 0), n, count)
    g = bipartite.rng_stream(36, 0).standard_normal((2, n, n) if count is None else (count, 2, n, n))
    old = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    assert z.dtype == np.complex128 and z.shape == old.shape
    assert np.array_equal(z.view(np.int64), old.view(np.int64))


def test_kron_realign_and_projector_keep_real_input_real():
    rng = np.random.default_rng(17)
    a, b = rng.standard_normal((2, 2)), rng.standard_normal((3, 3))
    assert bipartite.kron(a, b).dtype == np.float64
    assert np.array_equal(bipartite.kron(a, b), bipartite.kron(a + 0j, b).real)
    assert bipartite.kron(a, b + 0j).dtype == np.complex128
    x = rng.standard_normal((4, 6, 6))
    assert bipartite.realign(x, 2, 3).dtype == np.float64
    assert np.array_equal(bipartite.realign(x, 2, 3), bipartite.realign(x + 0j, 2, 3).real)
    for n in (1, 3, 8):
        p = bipartite.max_entangled_projector(n)
        v = bipartite.max_entangled(n)
        assert p.dtype == np.float64
        assert np.array_equal(p, np.outer(v, v.conj()).real)


def test_max_entangled_and_unit_vectors_keep_real_input_real():
    # real input stays float64 and complex input complex128
    for n in (1, 3, 4):
        v = bipartite.max_entangled(n)
        assert v.dtype == np.float64
        assert np.array_equal(v, np.eye(n).ravel() / np.sqrt(n))
    assert bipartite._check_unit_vector([0.6, 0.8]).dtype == np.float64
    assert bipartite._check_unit_vector(np.array([1.0, 0.0], dtype=np.float32)).dtype == np.float64
    assert bipartite._check_unit_vector([0.6, 0.8j]).dtype == np.complex128
    real = bipartite.vector_schmidt(bipartite.max_entangled(3), 3, 3)
    cplx = bipartite.vector_schmidt(bipartite.max_entangled(3) + 0j, 3, 3)
    assert np.allclose(real, cplx, rtol=0.0, atol=1e-15)
    with pytest.raises(InvalidVector, match="non-finite"):
        bipartite._check_unit_vector([np.nan, 1.0])
    with pytest.raises(InvalidVector, match="non-finite"):
        bipartite._check_unit_vector([1.0, complex(0.0, np.inf)])


@pytest.mark.parametrize("excess, rejected", [
    (0.9e-9, False), (-0.9e-9, False), (1.1e-9, True), (-1.1e-9, True)])
def test_vector_norm_tol_boundary(excess, rejected):
    # |v| = 1 + excess, exactly up to one rounding of 1 + excess: a unit vector
    # within 1e-9 in norm is accepted, one further out refused
    v = [1.0 + excess, 0.0, 0.0, 0.0]
    if rejected:
        with pytest.raises(InvalidVector, match="not unit norm"):
            bipartite.vector_schmidt(v, 2, 2)
    else:
        assert np.array_equal(bipartite.vector_schmidt(v, 2, 2), [1.0 + excess, 0.0])


@pytest.mark.parametrize("scale", [0.5, 5e5])
@pytest.mark.parametrize("factor, rejected", [(0.9, False), (1.1, True)])
def test_realign_trace_norm_hermitian_gate_boundary(scale, factor, rejected):
    # X = scale I_4 + i s E_00 on M_2 ⊗ M_2: ||X - X†||_F = 2s and ||X||_F ~ 2 scale,
    # so matcore's gate, defect > 1e-8 (1 + ||X||_F), sits at s = 0.5e-8 (1 + 2 scale);
    # realign_trace_norm refuses what eigvalsh refuses, at ||X||_F 1 and 1e6
    s = factor * 0.5e-8 * (1.0 + 2.0 * scale)
    x = scale * np.eye(4) + 0j
    x[0, 0] += 1j * s
    if rejected:
        with pytest.raises(InvalidMatrix, match="not Hermitian"):
            bipartite.realign_trace_norm(x, 2, 2)
        with pytest.raises(InvalidMatrix, match="not Hermitian"):  # screened or not
            bipartite.realign_trace_norm_max(x, 2, 2, 1e9)
        with pytest.raises(InvalidMatrix, match="not Hermitian"):
            matcore.eigvalsh(x)
    else:
        # the value of the Hermitian part scale I_4, whose realignment is scale vec(I) vec(I)ᵀ
        assert abs(bipartite.realign_trace_norm(x, 2, 2) - 2.0 * scale) <= 1e-15 * scale
        assert bipartite.realign_trace_norm_max(x, 2, 2) == bipartite.realign_trace_norm(x, 2, 2)
        matcore.eigvalsh(x)


def test_stacked_realign_trace_norm_equals_one_matrix_at_a_time():
    rng = np.random.default_rng(38)
    for m, n in [(1, 1), (1, 4), (2, 3), (3, 2), (3, 3), (4, 4)]:
        rho = np.array([random_state(rng, m * n) for _ in range(5)])
        got = bipartite.realign_trace_norm(rho, m, n)
        assert got.shape == (5,)
        for k in range(5):
            one = bipartite.realign_trace_norm(rho[k], m, n)
            assert isinstance(one, float) and one == got[k]
    # a real symmetric input gives the value of its complex copy
    x = rng.standard_normal((3, 6, 6))
    x = x + x.swapaxes(-1, -2)
    assert np.allclose(bipartite.realign_trace_norm(x, 2, 3),
                       bipartite.realign_trace_norm(x + 0j, 2, 3), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("dims", [(2, 2), (2, 4)])
def test_realign_trace_norm_max_screens_an_operator_three_margins_below_its_floor(lapack_rows, dims):
    # X = I/d, d = mn: R(X) = vec(I_m) vec(I_n)ᵀ / d has rank one, so its row
    # bound B equals ||R(X)||_1 = √(mn)/d, and the largest |c_ij| is 1/d. With
    # delta = 8 b³ u / d, b = n², stated here and not read from
    # REALIGN_SCREEN_MARGIN, and the floor 3 delta above B, X passes the screen,
    # which a margin 10x larger would send to the SVD. A tighter margin stays
    # valid down to the true rounding (~√b u), far below delta, so no test pins
    # the other side
    m, n = dims
    d = m * n
    delta = 8.0 * n**6 * 2.0**-53 / d
    floor = np.sqrt(d) / d + 3.0 * delta
    rows = lapack_rows("svd")
    assert bipartite.realign_trace_norm_max(np.eye(d) / d, m, n, floor) == floor
    assert rows == []
    assert abs(bipartite.realign_trace_norm_max(np.eye(d) / d, m, n) - np.sqrt(d) / d) <= 1e-15
    assert rows == [1]  # an infinite floor is seeded by the SVD


@pytest.mark.parametrize("n", [2, 3, 4])
def test_realign_trace_norm_max_keeps_an_operator_whose_bound_is_its_trace_norm(n):
    # X = I/2 ⊗ σ: R(X) = vec(I/2) vec(σ)ᵀ has rank one, and the Helmert rotation
    # leaves C one nonzero row, so the row bound B equals ||R(X)||_1 in exact
    # arithmetic. Computed, B reads below the SVD sum for 4, 8 and 11 of these 40
    # σ at n = 2, 3 and 4. With the floor 1 ulp below that sum, only the margin
    # keeps such an operator from being screened out: a margin of 0 returns the floor
    rng = np.random.default_rng(45)
    for _ in range(40):
        x = np.kron(np.eye(2) / 2.0, random_state(rng, n))
        svd_sum = bipartite.realign_trace_norm(x, 2, n)
        assert bipartite.realign_trace_norm_max(x, 2, n, np.nextafter(svd_sum, -np.inf)) == svd_sum


@pytest.mark.parametrize("dims", [(1, 3), (3, 3), (4, 4), (3, 2), (4, 2), (2, 1)])
def test_realign_trace_norm_max_sends_the_whole_stack_to_one_svd_off_2_by_n(lapack_rows, dims):
    # no screen unless m = 2 and n >= 2, even under a floor above every operator
    m, n = dims
    x = np.broadcast_to(np.eye(m * n) / (m * n), (5, m * n, m * n))
    rows = lapack_rows("svd")
    assert bipartite.realign_trace_norm_max(x, m, n, 10.0) == 10.0
    assert rows == [5]


@pytest.mark.parametrize("floor", [10.0, -math.inf])
def test_realign_trace_norm_max_refuses_an_operator_whose_correlation_overflows(floor):
    # 1.7e308 (I ⊗ σ_x) is finite and Hermitian, but its C has entries
    # (1.7e308 + 1.7e308)/√2 = inf in both diagonal rows, which the Helmert
    # rotation turns into inf - inf: a NaN row bound. It must reach the SVD and
    # be refused as realign_trace_norm refuses it, not be screened out under
    # the floor, among four ordinary operators (more than REALIGN_SCREEN_SEEDS)
    x = np.broadcast_to(np.eye(4) / 4, (5, 4, 4)).copy()
    x[2] = 1.7e308 * np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the input's
        with pytest.raises(InvalidMatrix, match="non-finite"):
            bipartite.realign_trace_norm(x, 2, 2)
        with pytest.raises(InvalidMatrix, match="non-finite"):
            bipartite.realign_trace_norm_max(x, 2, 2, floor)


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_correlation_basis_is_unitary_and_hermitian(h):
    # row a is vec(G_a)†, G_a Hermitian with unit Hilbert-Schmidt norm
    rows = bipartite._correlation_basis(h)
    assert np.allclose(rows @ rows.conj().T, np.eye(h * h), rtol=0.0, atol=1e-15)
    g = rows.conj().reshape(h * h, h, h)
    assert np.array_equal(g, g.conj().swapaxes(-1, -2))
    assert not rows.flags.writeable
