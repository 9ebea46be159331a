"""Positive maps: actions, Choi matrices, duals, witnesses, (b,c) predicates."""

import math

import numpy as np
import pytest

from abssep import bipartite, matcore, posmaps
from abssep.errors import DegenerateWitness, InvalidDim, InvalidMatrix, InvalidVector


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def test_choi_map_on_identity():
    assert np.allclose(posmaps.apply_id_tensor(posmaps.choi_map(), np.eye(3), 1), np.eye(3))


def test_reduction_equals_phi11():
    rng = np.random.default_rng(0)
    phi11 = posmaps.generalized_choi_map(1.0, 1.0)
    red = posmaps.reduction_map(3)
    for _ in range(10):
        x = random_hermitian(rng, 3)
        expect = (np.trace(x) * np.eye(3) - x) / 2
        assert np.allclose(posmaps.apply_id_tensor(phi11, x, 1), expect, atol=1e-13)
        assert np.allclose(posmaps.apply_id_tensor(red, x, 1), expect, atol=1e-13)


def test_breuer_hall_on_identity():
    for n in (4, 6):
        out = posmaps.apply_id_tensor(posmaps.breuer_hall_map(n), np.eye(n), 1)
        assert np.allclose(out, np.eye(n), atol=1e-13)


def test_generalized_at_10_equals_choi():
    rng = np.random.default_rng(1)
    gen = posmaps.generalized_choi_map(1.0, 0.0)
    choi = posmaps.choi_map()
    assert choi == gen  # one representation: the Choi map is Phi_{1,0}
    for _ in range(10):
        x = random_hermitian(rng, 3)
        assert np.array_equal(posmaps.apply_id_tensor(gen, x, 1),
                              posmaps.apply_id_tensor(choi, x, 1))


def test_maps_are_linear_and_hermiticity_preserving():
    rng = np.random.default_rng(2)
    maps = [
        posmaps.MapSpec("identity", 3),
        posmaps.MapSpec("transpose", 3),
        posmaps.reduction_map(3),
        posmaps.choi_map(),
        posmaps.generalized_choi_map(0.7, 1.2),
        posmaps.breuer_hall_map(4),
    ]
    for phi in maps:
        d = phi.dim
        x, y = random_hermitian(rng, d), random_hermitian(rng, d)
        lhs = posmaps.apply_id_tensor(phi, 2.0 * x - 0.5 * y, 1)
        rhs = 2.0 * posmaps.apply_id_tensor(phi, x, 1) - 0.5 * posmaps.apply_id_tensor(phi, y, 1)
        assert np.allclose(lhs, rhs, atol=1e-12)
        out = posmaps.apply_id_tensor(phi, x, 1)
        assert np.linalg.norm(out - out.conj().T) <= 1e-12


def test_choi_matrix_of_identity():
    n = 2
    expect = 2.0 * bipartite.max_entangled_projector(n)
    assert np.allclose(posmaps.choi_matrix(posmaps.MapSpec("identity", n)), expect, atol=1e-14)


def test_choi_matrix_dual_max_eigenvalue_formula():
    for b in np.linspace(0.0, 4.0 / 3.0, 7):
        for c in np.linspace(0.0, 4.0 / 3.0, 7):
            phi = posmaps.dual_map(posmaps.generalized_choi_map(b, c))
            lam = matcore.eigvalsh(posmaps.choi_matrix(phi))[0]
            assert np.isclose(lam, max(b, c, 3.0 - b - c) / 2.0, atol=1e-12)


def test_choi_dual_choi_matrix_matches_display():
    # 9x9 matrix of J(Phi_{b,c}†) at (b,c) = (1,0): diagonal pattern
    # (a,b,c,c,a,b,b,c,a)/2 with -1/2 entries linking |11>,|22>,|33>
    j = posmaps.choi_matrix(posmaps.dual_map(posmaps.choi_map()))
    b, c = 1.0, 0.0
    a = 2.0 - b - c
    expect = np.zeros((9, 9))
    np.fill_diagonal(expect, np.array([a, b, c, c, a, b, b, c, a]) / 2.0)
    for r, s in ((0, 4), (0, 8), (4, 8)):
        expect[r, s] = expect[s, r] = -0.5
    assert np.allclose(j, expect, atol=1e-14)


def test_dual_identity_on_random_pairs():
    rng = np.random.default_rng(3)
    maps = [
        posmaps.MapSpec("transpose", 3),
        posmaps.reduction_map(3),
        posmaps.choi_map(),
        posmaps.generalized_choi_map(0.4, 1.1),
        posmaps.breuer_hall_map(4),
    ]
    for phi in maps:
        d = phi.dim
        dual = posmaps.dual_map(phi)
        for _ in range(100):
            x, y = random_hermitian(rng, d), random_hermitian(rng, d)
            lhs = np.trace(posmaps.apply_id_tensor(phi, x, 1) @ y)
            rhs = np.trace(x @ posmaps.apply_id_tensor(dual, y, 1))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_transpose_and_reduction_self_dual():
    assert posmaps.dual_map(posmaps.MapSpec("transpose", 3)) == posmaps.MapSpec("transpose", 3)
    assert posmaps.dual_map(posmaps.reduction_map(3)) == posmaps.reduction_map(3)


def test_apply_id_tensor_matches_partial_transpose():
    rng = np.random.default_rng(4)
    x = random_hermitian(rng, 12)
    out = posmaps.apply_id_tensor(posmaps.MapSpec("transpose", 4), x, 3)
    assert np.allclose(out, bipartite.partial_transpose(x, 3, 4), atol=1e-14)


def test_choi_dual_witness_extremes():
    phi = posmaps.dual_map(posmaps.choi_map())
    w_min = posmaps.apply_id_tensor(phi, bipartite.max_entangled_projector(3), 3)
    assert np.isclose(matcore.eigvalsh(w_min)[-1], -1.0 / 6.0, atol=1e-12)
    # the eigenvalue 2/3 is attained at |0> ⊗ (sqrt(2)|0> + |1>)/sqrt(3)
    v = np.zeros(9, dtype=complex)
    v[0], v[1] = np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 3.0)
    w_max = posmaps.apply_id_tensor(phi, np.outer(v, v.conj()), 3)
    assert np.isclose(matcore.eigvalsh(w_max)[0], 2.0 / 3.0, atol=1e-12)


def test_choi_primal_witness_max_at_mirrored_vector():
    # for the undualized Choi map the attaining vector mirrors the weights
    v = np.zeros(9, dtype=complex)
    v[0], v[1] = np.sqrt(1.0 / 3.0), np.sqrt(2.0 / 3.0)
    w = posmaps.witness_from_map(posmaps.choi_map(), v)
    assert np.isclose(matcore.eigvalsh(w)[0], 2.0 / 3.0, atol=1e-12)


def test_witness_from_map_unit_trace():
    rng = np.random.default_rng(5)
    phi = posmaps.dual_map(posmaps.choi_map())
    for _ in range(20):
        w = posmaps.witness_from_map(phi, random_unit(rng, 9))
        assert abs(np.trace(w).real - 1.0) <= 1e-12


def test_choi_dual_witness_single_negative_eigenvalue():
    rng = np.random.default_rng(6)
    phi = posmaps.dual_map(posmaps.choi_map())
    for _ in range(1000):
        w = posmaps.witness_from_map(phi, random_unit(rng, 9))
        eigs = matcore.eigvalsh(w)
        assert np.sum(eigs < -1e-12) <= 1


def test_breuer_hall_witness_eigenvalue_window():
    rng = np.random.default_rng(7)
    n = 4
    phi = posmaps.dual_map(posmaps.breuer_hall_map(n))
    for _ in range(1000):
        eigs = matcore.eigvalsh(posmaps.witness_from_map(phi, random_unit(rng, n * n)))
        assert eigs[-1] >= -1.0 / n - 1e-9
        assert eigs[0] <= 1.0 / (n - 2) + 1e-9


def test_witness_property_on_product_states():
    rng = np.random.default_rng(8)
    maps = [
        posmaps.dual_map(posmaps.choi_map()),
        posmaps.dual_map(posmaps.generalized_choi_map(1.0, 1.0)),
        posmaps.dual_map(posmaps.breuer_hall_map(4)),
    ]
    for phi in maps:
        d = phi.dim
        w = posmaps.witness_from_map(phi, random_unit(rng, d * d))
        for _ in range(1000):
            sigma = np.kron(
                np.outer((a := random_unit(rng, d)), a.conj()),
                np.outer((b := random_unit(rng, d)), b.conj()),
            )
            assert np.trace(w @ sigma).real >= -1e-9


def test_witness_from_schmidt_separable_input():
    rho = np.eye(9) / 9.0
    os = bipartite.operator_schmidt(rho, 3, 3)
    w = posmaps.witness_from_schmidt(os, 3, 3)
    assert abs(np.trace(w).real - 1.0) <= 1e-12
    assert np.trace(w @ rho).real > 0.0


def test_witness_from_schmidt_detects_max_entangled():
    n = 3
    rho = bipartite.max_entangled_projector(n)
    os = bipartite.operator_schmidt(rho, n, n)
    w = posmaps.witness_from_schmidt(os, n, n)
    overlap = np.trace(w @ rho).real
    # Tr(W rho) = (1 - sum of Schmidt coefficients) / Tr(I - sum A_i x B_i)
    wt = np.eye(9) - sum(
        bipartite.kron(a, b) for a, b in zip(os.left_ops, os.right_ops)
    )
    assert np.isclose(overlap, (1.0 - n) / np.trace(wt).real, atol=1e-10)
    assert overlap < 0.0


@pytest.mark.parametrize("trace, degenerate", [
    (0.9e-12, True), (-0.9e-12, True), (1.1e-12, False), (-1.1e-12, False)])
def test_witness_trace_floor_boundary(trace, degenerate):
    # I - I ⊗ sI on M_2 ⊗ M_2 has trace 4(1 - s): this trace, exactly. Below
    # 1e-12 in size it is rounding and the witness is refused; above, it is
    # normalized to I/4
    os = bipartite.OperatorSchmidt(np.ones(1), [np.eye(2)], [(1.0 - trace / 4.0) * np.eye(2)])
    if degenerate:
        with pytest.raises(DegenerateWitness, match="vanishes"):
            posmaps.witness_from_schmidt(os, 2, 2)
    else:
        assert np.array_equal(posmaps.witness_from_schmidt(os, 2, 2), np.eye(4) / 4.0)


def test_witness_from_schmidt_frobenius_bound():
    rng = np.random.default_rng(9)
    bound = np.sqrt(2.0 / (9.0 - 3.0))
    for _ in range(1000):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        w = posmaps.witness_from_schmidt(bipartite.operator_schmidt(rho, 3, 3), 3, 3)
        assert np.linalg.norm(w) <= bound + 1e-9


def test_bc_predicates():
    assert posmaps.is_positive_bc(1.0, 0.0)
    assert posmaps.is_indecomposable_bc(1.0, 0.0)
    assert posmaps.is_positive_bc(1.0, 1.0)
    assert not posmaps.is_indecomposable_bc(1.0, 1.0)
    assert posmaps.is_completely_positive_bc(0.0, 0.0)
    assert not posmaps.is_indecomposable_bc(0.0, 0.0)
    # exposed boundary: b+c > 1, bc = (b+c-1)^2, b != c
    b = 1.2
    # solve bc = (b+c-1)^2 for c given b: c from the exposed curve
    for c in np.linspace(0.0, 1.5, 301):
        if posmaps.is_exposed_bc(b, float(c)):
            assert abs(b * c - (b + c - 1.0) ** 2) <= 1e-9
    assert not posmaps.is_exposed_bc(1.0, 1.0)


BC_PREDICATES = (posmaps.is_positive_bc, posmaps.is_completely_positive_bc,
                 posmaps.is_indecomposable_bc, posmaps.is_exposed_bc)


@pytest.mark.parametrize("predicate", BC_PREDICATES, ids=lambda p: p.__name__)
@pytest.mark.parametrize("b, c, message", [
    (-1e-10, 0.0, "b, c >= 0"), (0.5, -1.0, "b, c >= 0"),
    (math.nan, 0.5, "finite"), (math.inf, 0.0, "finite"), (0.0, -math.inf, "finite"),
])
def test_bc_predicates_take_the_mapspec_parameter_rule(predicate, b, c, message):
    # MapSpec("generalized_choi", 3, b, c) rejects each of these; so does every
    # predicate, on scalars and inside an array, rather than return a verdict
    with pytest.raises(ValueError):
        posmaps.MapSpec("generalized_choi", 3, b, c)
    with pytest.raises(ValueError, match=message):
        predicate(b, c)
    with pytest.raises(ValueError, match=message):
        predicate(np.array([1.0, b]), np.array([1.0, c]))


def test_mapspec_validation():
    with pytest.raises(InvalidDim):
        posmaps.breuer_hall_map(3)
    with pytest.raises(InvalidDim):
        posmaps.breuer_hall_map(2)
    with pytest.raises(ValueError):
        posmaps.generalized_choi_map(-0.1, 0.0)
    for b, c in ((math.nan, 0.5), (0.5, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            posmaps.generalized_choi_map(b, c)
    with pytest.raises(InvalidMatrix):
        posmaps.breuer_hall_map(4, v=np.eye(4))  # symmetric, not skew
    with pytest.raises(InvalidVector):
        posmaps.witness_from_map(posmaps.choi_map(), np.ones(9))
    with pytest.raises(InvalidDim):
        posmaps.apply_id_tensor(posmaps.choi_map(), np.eye(4), 1)
    # the reduction map divides by n - 1, so M_1 is rejected by MapSpec itself
    for make in (lambda: posmaps.MapSpec("reduction", 1), lambda: posmaps.reduction_map(1)):
        with pytest.raises(InvalidDim, match="n >= 2"):
            make()
    # a field that the kind never reads is an error, not silently kept
    with pytest.raises(ValueError, match="'identity'"):
        posmaps.MapSpec("identity", 3, b=2.0, c=5.0)
    with pytest.raises(ValueError, match="'reduction'"):
        posmaps.MapSpec("reduction", 3, c=0.5)
    with pytest.raises(ValueError, match="'transpose'"):
        posmaps.MapSpec("transpose", 3, v=np.eye(3))
    with pytest.raises(ValueError, match="'generalized_choi'"):
        posmaps.MapSpec("generalized_choi", 3, b=0.3, v=np.eye(3))
    with pytest.raises(ValueError, match="'breuer_hall'"):
        posmaps.MapSpec("breuer_hall", 4, b=0.1)
    with pytest.raises(ValueError, match="unknown map kind 'choi'"):
        posmaps.MapSpec("choi", 3, b=0.3)


def test_mapspec_equality_and_hash():
    # Breuer-Hall maps compare V entrywise and hash it by value; two default
    # maps are equal, and a rotated V, U V U^T, makes another map
    first, second = posmaps.breuer_hall_map(4), posmaps.breuer_hall_map(4)
    assert first == second and hash(first) == hash(second)
    assert first.v is not second.v and not first.v.flags.writeable
    v = posmaps.breuer_hall_default_v(4)
    signed_zero = v.astype(np.complex128)  # the default V is float64
    signed_zero[0, 0] = complex(-0.0, -0.0)  # np.array_equal to v
    assert posmaps.breuer_hall_map(4, signed_zero) == first
    assert hash(posmaps.breuer_hall_map(4, signed_zero)) == hash(first)
    u = bipartite.haar_unitary(4, 5)
    assert posmaps.breuer_hall_map(4, u @ v @ u.T) != first
    assert posmaps.breuer_hall_map(6) != first
    assert len({first, second, posmaps.breuer_hall_map(6)}) == 2
    # the other kinds, as before: equal fields, equal maps
    assert posmaps.choi_map() == posmaps.generalized_choi_map(1.0, 0.0)
    assert hash(posmaps.choi_map()) == hash(posmaps.generalized_choi_map(1.0, 0.0))
    assert posmaps.generalized_choi_map(0.3, 0.7) != posmaps.generalized_choi_map(0.7, 0.3)
    assert posmaps.MapSpec("identity", 3) == posmaps.MapSpec("identity", 3)
    assert posmaps.MapSpec("identity", 3) != posmaps.MapSpec("transpose", 3)
    assert posmaps.reduction_map(3) != posmaps.reduction_map(4)
    assert posmaps.MapSpec("identity", 3) != "identity"


def test_mapspec_stores_a_v_with_zero_imaginary_part_as_float64():
    # the default V, a real V and the same V as complex128 with +0.0 or -0.0
    # imaginary parts are one float64 V, one map and one hash; i V stays complex
    v = posmaps.breuer_hall_default_v(6)
    negative_zero = v.astype(np.complex128)
    negative_zero.imag = -0.0
    assert np.signbit(negative_zero.imag).all()
    maps = [posmaps.breuer_hall_map(6), posmaps.breuer_hall_map(6, v.real),
            posmaps.breuer_hall_map(6, v.astype(np.complex128)),
            posmaps.breuer_hall_map(6, negative_zero)]
    assert all(phi.v.dtype == np.float64 and np.array_equal(phi.v, v) for phi in maps)
    assert len(set(maps)) == 1 and len({hash(phi) for phi in maps}) == 1
    rotated = posmaps.breuer_hall_map(6, 1j * v)
    assert rotated.v.dtype == np.complex128 and rotated != maps[0]
    assert posmaps.choi_matrix(maps[0]).dtype == np.float64
    assert posmaps.choi_matrix(rotated).dtype == np.complex128


@pytest.mark.parametrize("phase", [1.0, 1j])
@pytest.mark.parametrize("factor, rejected", [(1.1, True), (0.9, False)])
def test_breuer_hall_skew_tolerance_is_pinned_from_both_sides(phase, factor, rejected):
    # ||V^T + V||_F = 2 delta from delta on one diagonal entry, against 1e-10
    # stated here; V^H V - I moves by ~sqrt(2) delta, still inside its own 1e-10
    v = phase * posmaps.breuer_hall_default_v(4)
    v[0, 0] += factor * 1e-10 / 2.0
    assert np.linalg.norm(v.conj().T @ v - np.eye(4)) < 0.8e-10
    if rejected:
        with pytest.raises(InvalidMatrix, match="skew-symmetric"):
            posmaps.breuer_hall_map(4, v)
    else:
        assert np.array_equal(posmaps.breuer_hall_map(4, v).v, v)


@pytest.mark.parametrize("phase", [1.0, 1j])
@pytest.mark.parametrize("factor, rejected", [(1.1, True), (0.9, False)])
def test_breuer_hall_unitary_tolerance_is_pinned_from_both_sides(phase, factor, rejected):
    # (1 + eps) V stays exactly skew-symmetric, and ||V^H V - I||_F is
    # ((1 + eps)² - 1) sqrt(4) ~ 4 eps, against 1e-10 stated here
    v = phase * (1.0 + factor * 1e-10 / 4.0) * posmaps.breuer_hall_default_v(4)
    assert np.linalg.norm(v.T + v) == 0.0
    if rejected:
        with pytest.raises(InvalidMatrix, match="unitary"):
            posmaps.breuer_hall_map(4, v)
    else:
        assert np.array_equal(posmaps.breuer_hall_map(4, v).v, v)


def test_breuer_hall_custom_v():
    # any skew-symmetric unitary is accepted; rotate the default one
    n = 4
    rng = np.random.default_rng(10)
    u = bipartite.haar_unitary(n, rng)
    v = u @ posmaps.breuer_hall_default_v(n) @ u.T
    phi = posmaps.breuer_hall_map(n, v=v)
    assert np.allclose(posmaps.apply_id_tensor(phi, np.eye(n), 1), np.eye(n), atol=1e-12)


def random_antisymmetric_unitary(rng, n):
    """U J U^T with U Haar and J the standard symplectic form."""
    u = bipartite.haar_unitary(n, rng)
    j = np.kron(np.eye(n // 2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return u @ j @ u.T


def reference_action(phi, x):
    """Each map's defining formula on one matrix, written out independently."""
    n = phi.dim
    if phi.kind == "identity":
        return x
    if phi.kind == "transpose":
        return x.T
    if phi.kind == "reduction":
        return (np.trace(x) * np.eye(n) - x) / (n - 1)
    if phi.kind == "generalized_choi":
        b, c = phi.b, phi.c
        a = 2.0 - b - c
        diag = np.diag(x)
        mixed = [
            a * diag[0] + b * diag[1] + c * diag[2],
            c * diag[0] + a * diag[1] + b * diag[2],
            b * diag[0] + c * diag[1] + a * diag[2],
        ]
        return (np.diag(mixed) + np.diag(diag) - x) / 2.0
    if phi.kind == "breuer_hall":
        v = phi.v
        return (np.trace(x) * np.eye(n) - x - v @ x.T @ v.conj().T) / (n - 2)
    raise AssertionError(phi.kind)


@pytest.mark.parametrize(
    "make_phi",
    [
        lambda rng: posmaps.MapSpec("identity", 3),
        lambda rng: posmaps.MapSpec("transpose", 4),
        lambda rng: posmaps.reduction_map(3),
        lambda rng: posmaps.choi_map(),
        lambda rng: posmaps.generalized_choi_map(0.7, 0.4),
        lambda rng: posmaps.breuer_hall_map(4),
        lambda rng: posmaps.breuer_hall_map(4, random_antisymmetric_unitary(rng, 4)),
        lambda rng: posmaps.breuer_hall_map(6, random_antisymmetric_unitary(rng, 6)),
    ],
    ids=["identity", "transpose", "reduction", "choi", "gen_choi", "bh4", "bh4_v", "bh6_v"],
)
@pytest.mark.parametrize("id_dim", [1, 2, 3])
def test_stacked_apply_id_tensor_matches_blockwise_loop(make_phi, id_dim):
    rng = np.random.default_rng(30 + id_dim)
    phi = make_phi(rng)
    d = phi.dim
    x = rng.standard_normal((id_dim * d,) * 2) + 1j * rng.standard_normal((id_dim * d,) * 2)
    x0 = x.copy()
    expect = np.zeros_like(x)
    for i in range(id_dim):
        for j in range(id_dim):
            block = x[i * d:(i + 1) * d, j * d:(j + 1) * d]
            expect[i * d:(i + 1) * d, j * d:(j + 1) * d] = reference_action(phi, block)
    out = posmaps.apply_id_tensor(phi, x, id_dim)
    assert np.allclose(out, expect, rtol=0.0, atol=1e-13)
    # the action never writes into its input
    assert np.array_equal(x, x0)
    # a stack of operators maps each one as a single operator would
    stack = np.array([x, 2.0 * x0.conj(), x0.T])
    out_stack = posmaps.apply_id_tensor(phi, stack, id_dim)
    for k in range(3):
        assert np.array_equal(out_stack[k], posmaps.apply_id_tensor(phi, stack[k], id_dim))


def block_breuer_hall(v, x, m):
    """The Breuer-Hall formula (Tr(Y) I - Y - V Yᵀ V†)/(n - 2) on every n x n block Y
    of each operator of a stack x[..., mn, mn], all blocks as one stack."""
    n = v.shape[0]
    blocks = x.reshape(x.shape[:-2] + (m, n, m, n)).swapaxes(-3, -2)
    trace = np.trace(blocks, axis1=-2, axis2=-1)[..., np.newaxis, np.newaxis]
    out = (trace * np.eye(n) - blocks - v @ blocks.swapaxes(-1, -2) @ v.conj().T) / (n - 2)
    return out.swapaxes(-3, -2).reshape(x.shape)


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("complex_v", [False, True], ids=["default_v", "complex_v"])
def test_whole_matrix_breuer_hall_equals_the_block_formula(n, complex_v):
    # for the default V, I ⊗ V is a signed permutation and both forms are exact:
    # the same bits. For a complex V the two products sum the same terms in a
    # different order, within 4 n u ||X||_F (0.17 n u ||X||_F was the largest seen
    # over 180 stacks)
    rng = np.random.default_rng(380 + n)
    phi = posmaps.breuer_hall_map(n, random_antisymmetric_unitary(rng, n) if complex_v else None)
    assert (phi.v.dtype == np.complex128) is complex_v
    for m in (1, 2, 3):
        x = rng.standard_normal((4, m * n, m * n)) + 1j * rng.standard_normal((4, m * n, m * n))
        got = posmaps.apply_id_tensor(phi, x, m)
        expect = block_breuer_hall(phi.v, x, m)
        if complex_v:
            err = np.linalg.norm(got - expect, axis=(-2, -1))
            assert (err <= 4 * n * 2.0**-53 * np.linalg.norm(x, axis=(-2, -1))).all()
        else:
            assert np.array_equal(got, expect)
    if not complex_v:  # a real operator and a real V give a real image
        p = bipartite.max_entangled_projector(n)
        assert posmaps.apply_id_tensor(phi, p, n).dtype == np.float64
        assert np.array_equal(posmaps.apply_id_tensor(phi, p, n), block_breuer_hall(phi.v, p, n))


def test_witness_builders_keep_real_input_real():
    # float64 from real vectors, maps and Schmidt terms; complex128 where any is complex
    phi = posmaps.dual_map(posmaps.choi_map())
    w = posmaps.witness_from_map(phi, bipartite.max_entangled(3))
    assert w.dtype == np.float64
    assert np.array_equal(w, posmaps.witness_from_map(phi, bipartite.max_entangled(3) + 0j).real)
    assert posmaps.witness_from_map(phi, bipartite.max_entangled(3) + 0j).dtype == np.complex128
    v = posmaps.breuer_hall_default_v(4) * 1j
    assert posmaps.witness_from_map(posmaps.breuer_hall_map(4, v),
                                    bipartite.max_entangled(4)).dtype == np.complex128
    rng = np.random.default_rng(38)
    g = rng.standard_normal((9, 9))
    rho = g @ g.T / np.trace(g @ g.T)
    real = posmaps.witness_from_schmidt(bipartite.operator_schmidt(rho, 3, 3), 3, 3)
    cplx = posmaps.witness_from_schmidt(bipartite.operator_schmidt(rho + 0j, 3, 3), 3, 3)
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    assert np.allclose(real, cplx, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("factor, inside", [(0.9, True), (1.1, False)])
def test_bc_predicate_tol_boundary(factor, inside):
    # b or |b - c| at 0.9e-9 reads as 0 (CP, decomposable), at 1.1e-9 as positive
    e = factor * 1e-9
    assert bool(posmaps.is_completely_positive_bc(e, 0.0)) is inside
    assert bool(posmaps.is_completely_positive_bc(0.0, e)) is inside
    # Phi_{0.5, 0.5 + e} is positive (b + c <= 1 + 1e-9 or bc >= (b + c - 1)²)
    # and not CP, so it is indecomposable exactly when |b - c| > 1e-9
    assert bool(posmaps.is_positive_bc(0.5, 0.5 + e))
    assert bool(posmaps.is_indecomposable_bc(0.5, 0.5 + e)) is not inside
    # (1 + e, 0) is on the curve bc = (b + c - 1)² up to e² ~ 1e-18, and b != c:
    # it is exposed exactly when b + c > 1 + 1e-9
    assert bool(posmaps.is_exposed_bc(1.0 + e, 0.0)) is not inside
