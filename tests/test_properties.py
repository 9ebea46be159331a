"""Hypothesis properties of the linear-algebra and tensor kernels, and of the
CLI's CSV and JSON writers.

Every property runs under a fixed profile: derandomized example search and
a bounded example count, so the suite stays deterministic and its run time
stays flat. Matrices are drawn from numpy generators seeded by hypothesis.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abssep import bipartite, cli, matcore, posmaps, sdpsolve

PROPERTY = settings(derandomize=True, max_examples=20, deadline=None, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
factor_dims = st.integers(min_value=1, max_value=4)


def random_matrix(seed, rows, cols=None):
    rng = np.random.default_rng(seed)
    shape = (rows, rows if cols is None else cols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(seed, n):
    g = random_matrix(seed, n)
    return (g + g.conj().T) / 2


@PROPERTY
@given(n=st.sampled_from([1, 2, 3, 9, 16, 36, 81]), seed=seeds)
def test_eigvalsh_descending_and_matches_numpy(n, seed):
    a = random_hermitian(seed, n)
    ours = matcore.eigvalsh(a)
    assert ours.shape == (n,)
    assert np.all(np.diff(ours) <= 0.0)
    ref = np.linalg.eigvalsh(a)[::-1]
    assert np.allclose(ours, ref, rtol=0.0, atol=1e-12 * (1.0 + np.abs(ref).max()))


@PROPERTY
@given(n=st.sampled_from([2, 3, 4, 6, 9]), seed=seeds)
def test_eigenvalues_invariant_under_unitary_conjugation(n, seed):
    a = random_hermitian(seed, n)
    u = bipartite.haar_unitary(n, seed)
    rotated = u @ a @ u.conj().T
    scale = 1.0 + np.abs(a).max()
    assert np.allclose(matcore.eigvalsh(rotated), matcore.eigvalsh(a), rtol=0.0, atol=1e-12 * n * scale)


# |lambda_i(real path) - lambda_i(complex path)| <= REAL_PATH_C d u ||A||_F on a real
# symmetric A. Each LAPACK driver is backward stable, its eigenvalues exact for
# A + E with ||E||_2 <= p(d) u ||A||_2 (Demmel, Applied Numerical Linear Algebra,
# sec. 5.3), so by Weyl's inequality each is within ||E||_2 of the exact one, and
# ||A||_2 <= ||A||_F. The largest ratio seen over 3000 random stacks was 2.1.
REAL_PATH_C = 8.0


@PROPERTY
@given(d=st.integers(min_value=1, max_value=64), count=st.integers(min_value=1, max_value=4),
       log_norm=st.floats(min_value=-6.0, max_value=6.0), integral=st.booleans(), seed=seeds)
@example(d=9, count=4, log_norm=0.0, integral=True, seed=0)
def test_real_path_eigenvalues_match_the_complex_path(d, count, log_norm, integral, seed):
    # integral entries give clustered and repeated eigenvalues
    g = np.random.default_rng(seed).standard_normal((count, d, d))
    if integral:
        g = np.round(4.0 * g)
    a = 10.0**log_norm * (g + g.swapaxes(-1, -2))
    real, cplx = matcore.eigvalsh(a), matcore.eigvalsh(a.astype(np.complex128))
    bound = REAL_PATH_C * d * 2.0**-53 * np.linalg.norm(a, axis=(-2, -1))
    assert real.dtype == cplx.dtype == np.float64
    assert (np.abs(real - cplx).max(axis=-1) <= bound).all()


PLANTED_K = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0)


def planted_blocks(d, real, norm, k_drawn, seed):
    """(k, A) for each k of PLANTED_K and k_drawn: A = Q diag(lambda) Q^H, exactly
    Hermitian, with Q Haar (orthogonal when real), lambda_max = norm (none for
    d = 1), the rest in [0, norm] and the least eigenvalue planted at -k tau,
    tau = CERT_PSD_TOL max(1, ||A||_op)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + (0.0 if real else 1j * rng.standard_normal((d, d)))
    q = np.linalg.qr(g)[0]
    top = norm if d > 1 else 0.0
    tau = sdpsolve.CERT_PSD_TOL * max(1.0, top)
    middle = rng.uniform(0.0, top, max(d - 2, 0))
    for k in (*PLANTED_K, k_drawn):
        spectrum = np.concatenate([[top] if d > 1 else [], middle, [-k * tau]])
        a = (q * spectrum) @ q.conj().T
        yield k, (a + a.conj().T) / 2.0


def negative_zero_imag(a):
    signed = np.array(a, dtype=np.complex128)
    signed.imag[signed.imag == 0.0] = -0.0
    return signed


def screen_agrees_with_psd_test(a, k=None):
    # the screen accepts only what psd_test accepts; it rejects every block
    # whose least eigenvalue lies below -0.75 tau, since its shift is at most
    # tau/2 and the rounding of the factorization far below tau/4; and it
    # accepts every PSD block, so no PSD certificate falls back to eigvalsh
    tol = sdpsolve.CERT_PSD_TOL
    screened = matcore.psd_screen(a, tol)
    if screened:
        assert matcore.psd_test(a, tol)[0].all()
    if k is not None and k >= 0.75:
        assert not screened
    if k == 0.0:
        assert screened
    return screened


@PROPERTY
@given(d=st.integers(min_value=1, max_value=64), real=st.booleans(),
       log_norm=st.floats(min_value=-4.0, max_value=8.0),
       k=st.floats(min_value=0.0, max_value=3.0), seed=seeds)
@example(d=16, real=False, log_norm=0.0, k=0.8, seed=1)
@example(d=64, real=True, log_norm=8.0, k=0.8, seed=2)
@example(d=1, real=True, log_norm=-4.0, k=0.0, seed=3)
def test_psd_screen_accepts_only_what_psd_test_accepts(d, real, log_norm, k, seed):
    # dims 1-64, real and complex, norms 1e-4 to 1e8, least eigenvalue -k tau
    for planted, a in planted_blocks(d, real, 10.0**log_norm, k, seed):
        screened = screen_agrees_with_psd_test(a, planted)
        # the same block with -0.0 imaginary parts, which the gateway symmetrizes
        assert screen_agrees_with_psd_test(negative_zero_imag(a), planted) == screened


@PROPERTY
@given(d=st.integers(min_value=1, max_value=64), real=st.booleans(),
       log_norm=st.floats(min_value=-4.0, max_value=8.0), seed=seeds)
def test_psd_screen_accepts_exactly_rank_one_blocks(d, real, log_norm, seed):
    # v v^H is exactly Hermitian and PSD with d - 1 zero eigenvalues; with its
    # zero imaginary parts negated, and the zero matrix with +0.0 and -0.0
    # parts, a stack of them passes whole, and one block whose least
    # eigenvalue is -2 tau fails the whole stack
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + (0.0 if real else 1j * rng.standard_normal(d))
    a = 10.0**log_norm * np.outer(v, v.conj()) / np.vdot(v, v).real
    blocks = np.stack([a, negative_zero_imag(a), np.zeros((d, d)), -np.zeros((d, d))])
    assert screen_agrees_with_psd_test(blocks) and all(map(screen_agrees_with_psd_test, blocks))
    bad = next(a for k, a in planted_blocks(d, real, 10.0**log_norm, 2.0, seed) if k == 2.0)
    assert not screen_agrees_with_psd_test(np.concatenate([blocks, bad[np.newaxis]]))


def float_bits(x) -> int:
    return int(np.float64(x).view(np.int64))


@PROPERTY
@given(d=st.integers(min_value=1, max_value=16), count=st.integers(min_value=1, max_value=40),
       real=st.booleans(), log_norm=st.floats(min_value=-4.0, max_value=4.0),
       exact=st.booleans(), duplicated=st.booleans(), planted=st.booleans(),
       floor=st.sampled_from(["inf", "member", "ulp above the least", "negative", "above"]),
       seed=seeds)
@example(d=9, count=50, real=False, log_norm=0.0, exact=False, duplicated=True, planted=True,
         floor="inf", seed=0)
@example(d=1, count=12, real=True, log_norm=0.0, exact=True, duplicated=False, planted=True,
         floor="member", seed=1)
@example(d=16, count=40, real=False, log_norm=0.0, exact=False, duplicated=False, planted=False,
         floor="ulp above the least", seed=2)
def test_least_eigenvalue_has_the_bits_of_eigvalsh(d, count, real, log_norm, exact, duplicated,
                                                  planted, floor, seed):
    # least_eigenvalue(a, floor) against min(floor, eigvalsh(a)[..., -1].min()),
    # bit for bit: real and complex stacks, exactly Hermitian or Hermitian only
    # to rounding (the gateway's two paths), with matrices repeated, with two
    # diagonal matrices whose least eigenvalues lie 1 ulp apart at the bottom of
    # the stack, and with an infinite floor, the least eigenvalue of one of its
    # matrices, the float 1 ulp above the least of them (whose matrix a screen
    # with no margin lets through now and then), a negative floor below the
    # stack, or one above all of it
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, d, d)) + (0.0 if real else 1j * rng.standard_normal((count, d, d)))
    a = 10.0**log_norm * (g + g.conj().swapaxes(-1, -2))
    if not exact:
        a = a + 1e-14 * 10.0**log_norm * rng.standard_normal(a.shape)
    if duplicated:
        a[count // 2:] = a[: count - count // 2]
    if planted and count >= 2:
        low = matcore.eigvalsh(a)[..., -1].min()
        i, j = rng.choice(count, 2, replace=False)
        for k, value in ((i, low), (j, np.nextafter(low, -np.inf))):
            a[k] = np.diag(np.r_[value, value + 10.0**log_norm * rng.uniform(0.1, 1.0, d - 1)])
    least = matcore.eigvalsh(a)[..., -1]
    floor = {"inf": math.inf, "member": least.flat[rng.integers(least.size)],
             "ulp above the least": np.nextafter(least.min(), np.inf),
             "negative": -10.0**log_norm * rng.uniform(4.0 * d, 8.0 * d),
             "above": least.max() + 10.0**log_norm}[floor]
    stack = a[0] if count == 1 else a
    got = matcore.least_eigenvalue(stack, floor)
    assert type(got) is float
    assert float_bits(got) == float_bits(min(floor, matcore.eigvalsh(stack)[..., -1].min()))


@PROPERTY
@given(seed=st.integers(min_value=0, max_value=2**160 - 1), n=factor_dims,
       sizes=st.lists(st.integers(min_value=0, max_value=5), max_size=4))
def test_stacked_ginibre_draws_do_not_depend_on_the_split(seed, n, sizes):
    # consecutive stacks from one generator concatenate to one stack drawn whole
    rng = bipartite.rng_stream(seed, 0)
    parts = [bipartite._ginibre(rng, n, k) for k in sizes]
    whole = bipartite._ginibre(bipartite.rng_stream(seed, 0), n, sum(sizes))
    assert np.array_equal(np.concatenate(parts) if parts else whole, whole)


@PROPERTY
@given(m=factor_dims, n=factor_dims, seed=seeds)
def test_partial_transpose_is_an_involution(m, n, seed):
    x = random_matrix(seed, m * n)
    once = bipartite.partial_transpose(x, m, n)
    assert np.array_equal(bipartite.partial_transpose(once, m, n), x)


@PROPERTY
@given(m=factor_dims, n=factor_dims, seed=seeds)
def test_realignment_is_an_entry_permutation(m, n, seed):
    labels = np.arange((m * n) ** 2, dtype=np.float64).reshape(m * n, m * n)
    perm = bipartite.realign(labels, m, n).real.astype(np.int64).ravel()
    assert np.array_equal(np.sort(perm), np.arange((m * n) ** 2))
    x = random_matrix(seed, m * n)
    r = bipartite.realign(x, m, n)
    assert r.shape == (m * m, n * n)
    assert np.array_equal(r.ravel(), x.ravel()[perm])


# |realign_trace_norm(rho) - sum of the complex SVD of R(rho)| <= REALIGN_C d u ||rho||_F,
# d = mn. The two SVDs are backward stable, each singular value within p u ||R||_2 of
# the exact one (Demmel, Applied Numerical Linear Algebra, sec. 5.2), ||R||_2 <=
# ||R||_F = ||rho||_F, and there are min(m², n²) <= d of them. The largest ratio seen
# over 3000 random stacks was 2.1
REALIGN_C = 8.0


@PROPERTY
@given(dims=st.sampled_from([(m, n) for m in range(1, 17) for n in range(1, 17) if m * n <= 16]),
       count=st.integers(min_value=1, max_value=4), rank=st.integers(min_value=1, max_value=16),
       log_norm=st.floats(min_value=-6.0, max_value=6.0), seed=seeds)
@example(dims=(3, 3), count=3, rank=1, log_norm=0.0, seed=0)
@example(dims=(4, 4), count=2, rank=16, log_norm=0.0, seed=1)
def test_stacked_realign_trace_norm_matches_the_complex_svd(dims, count, rank, log_norm, seed):
    # rho = G G† of rank min(rank, d), rank-deficient stacks included
    m, n = dims
    d = m * n
    r = min(rank, d)
    g = np.random.default_rng(seed).standard_normal((count, d, r, 2)) @ [1.0, 1j]
    rho = 10.0**log_norm * (g @ g.conj().swapaxes(-1, -2))
    got = bipartite.realign_trace_norm(rho, m, n)
    ref = np.linalg.svd(bipartite.realign(rho, m, n), compute_uv=False).sum(axis=-1)
    assert got.shape == (count,)
    bound = REALIGN_C * d * 2.0**-53 * np.linalg.norm(rho, axis=(-2, -1))
    assert (np.abs(got - ref) <= bound).all()


@PROPERTY
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (1, 3)]),
       count=st.integers(min_value=1, max_value=40),
       spectrum=st.sampled_from(["near uniform", "maximally mixed", "pure"]),
       duplicated=st.booleans(),
       floor=st.sampled_from(["-inf", "member", "ulp above the largest", "above"]), seed=seeds)
@example(dims=(2, 4), count=40, spectrum="near uniform", duplicated=False, floor="-inf", seed=0)
@example(dims=(3, 2), count=40, spectrum="near uniform", duplicated=True, floor="member", seed=1)
@example(dims=(2, 2), count=40, spectrum="maximally mixed", duplicated=False,
         floor="ulp above the largest", seed=2)
def test_realign_trace_norm_max_has_the_bits_of_the_stacked_svd(dims, count, spectrum, duplicated,
                                                               floor, seed):
    # realign_trace_norm_max(x, m, n, floor) against max(floor,
    # realign_trace_norm(x, m, n).max()), bit for bit: Haar rotations Q Λ Q† of a
    # spectrum near the uniform one, of the maximally mixed one (every sample
    # the same state) and of a pure one, samples repeated, and an infinite
    # floor, one sample's own value, the float 1 ulp above the largest (which
    # a screen with no margin could let through) or one above every sample
    m, n = dims
    d = m * n
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((count, d, d, 2)) @ [1.0, 1j])[0]
    values = {"near uniform": rng.dirichlet(np.full(d, 50.0)), "maximally mixed": np.full(d, 1.0 / d),
              "pure": np.eye(d)[0]}[spectrum]
    rho = (q * values) @ q.conj().swapaxes(-1, -2)
    if duplicated:
        rho[count // 2:] = rho[: count - count // 2]
    norms = bipartite.realign_trace_norm(rho, m, n)
    floor = {"-inf": -math.inf, "member": float(norms[rng.integers(count)]),
             "ulp above the largest": float(np.nextafter(norms.max(), np.inf)),
             "above": float(norms.max()) + 1.0}[floor]
    got = bipartite.realign_trace_norm_max(rho[0] if count == 1 else rho, m, n, floor)
    assert type(got) is float
    assert float_bits(got) == float_bits(max(floor, norms.max()))


bc_params = st.floats(min_value=0.0, max_value=4.0 / 3.0)


@PROPERTY
@given(points=st.lists(st.tuples(bc_params, bc_params), min_size=1, max_size=12))
def test_stacked_choi_matrices_equal_one_map_builds(points):
    # the Choi map and its dual beside drawn Phi_{b,c}, built from (b, c) arrays
    # with no MapSpec; each map's parameters must reach its own slice
    points = [(1.0, 0.0), (0.0, 1.0)] + points
    bs, cs = (np.array(axis) for axis in zip(*points))
    stacked = posmaps.generalized_choi_matrices(bs, cs)
    assert stacked.shape == (len(points), 9, 9)
    for (b, c), jmat in zip(points, stacked):
        assert np.array_equal(jmat, posmaps.choi_matrix(posmaps.generalized_choi_map(b, c)))


# (b, c) stacks over [0, 2]², with points on the lines where the closed forms
# switch case: 2b + c = 3 and b + 2c = 3 (gen_choi_outer), b + c = 2 (the
# second-case denominator 6(2 - b - c) is 0) and b = c (indecomposability)
bc_free = st.floats(min_value=0.0, max_value=2.0)
bc_half = st.floats(min_value=0.5, max_value=1.5)
bc_points = st.one_of(
    st.tuples(bc_free, bc_free),
    bc_half.map(lambda t: (t, 3.0 - 2.0 * t)),
    bc_half.map(lambda t: (3.0 - 2.0 * t, t)),
    bc_free.map(lambda t: (t, 2.0 - t)),
    bc_free.map(lambda t: (t, t)),
    st.sampled_from([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (1.5, 0.0), (0.2, 0.2), (1.2, 1.2),
                     # libm pow and an exact multiply round (3 - 2b - c)² apart here
                     (0.03917829033376763, 0.3457169660282551),
                     (0.3457169660282551, 0.03917829033376763)]),
)
bc_stacks = st.lists(bc_points, min_size=1, max_size=12)


# the scalar closed forms, one (b, c) at a time, as stated before they took arrays


def scalar_outer(b, c):
    return 2.0 * b + c >= 3.0 or b + 2.0 * c >= 3.0


def scalar_xy(b, c):
    den = 6.0 * (2.0 - b - c)
    return (3.0 - 2.0 * b - c) ** 2 / den, (3.0 - b - 2.0 * c) ** 2 / den


def scalar_bound(b, c):
    if scalar_outer(b, c):
        return max(b, c) / 2.0
    x, y = scalar_xy(b, c)
    bound = (b * b + c * c - 6.0 * (b + c) + b * c + 9.0) / (6.0 * (2.0 - b - c))
    root = math.sqrt(x * y)
    if 2.0 * root > 1.0:
        bound += 1.5 * (2.0 * root - 1.0)
    return bound


def scalar_certificate_y(b, c):
    y = np.zeros((9, 9), dtype=np.complex128)
    if not scalar_outer(b, c):
        x, yv = scalar_xy(b, c)
        root = math.sqrt(x * yv)
        for idx in (1, 5, 6):
            y[idx, idx] = x
        for idx in (2, 3, 7):
            y[idx, idx] = yv
        for r, s in ((1, 3), (2, 6), (5, 7)):
            y[r, s] = y[s, r] = root
    return y


def scalar_predicates(b, c):
    tol = posmaps.BC_PREDICATE_TOL
    positive = b + c <= 1.0 + tol or b * c >= (b + c - 1.0) ** 2 - tol
    cp = abs(b) <= tol and abs(c) <= tol
    indecomposable = positive and not cp and abs(b - c) > tol
    exposed = (abs(b - c) > tol and b + c > 1.0 + tol
               and abs(b * c - (b + c - 1.0) ** 2) <= tol)
    return positive, cp, indecomposable, exposed


def bc_arrays(points):
    return tuple(np.array(axis) for axis in zip(*points))


@PROPERTY
@given(points=bc_stacks)
def test_gen_choi_closed_forms_match_the_scalar_formulas(points):
    bs, cs = bc_arrays(points)
    assert sdpsolve.gen_choi_outer(bs, cs).tolist() == [scalar_outer(b, c) for b, c in points]
    bounds = sdpsolve.gen_choi_max_eig_bound(bs, cs)
    assert bounds.shape == bs.shape
    assert bounds.tolist() == [scalar_bound(b, c) for b, c in points]  # exact, not close
    b, c = points[0]
    assert sdpsolve.gen_choi_max_eig_bound(b, c) == scalar_bound(b, c)
    inner = [(b, c) for b, c in points if not scalar_outer(b, c)]
    if inner:
        x, y = sdpsolve.gen_choi_xy(*bc_arrays(inner))
        assert list(zip(x.tolist(), y.tolist())) == [scalar_xy(b, c) for b, c in inner]
    if len(inner) < len(points):
        with pytest.raises(ValueError, match="only defined"):
            sdpsolve.gen_choi_xy(bs, cs)


@PROPERTY
@given(points=bc_stacks)
def test_bc_predicates_match_the_scalar_formulas(points):
    bs, cs = bc_arrays(points)
    stacked = [posmaps.is_positive_bc(bs, cs), posmaps.is_completely_positive_bc(bs, cs),
               posmaps.is_indecomposable_bc(bs, cs), posmaps.is_exposed_bc(bs, cs)]
    assert [p.tolist() for p in stacked] == [list(v) for v in zip(*map(scalar_predicates, bs, cs))]
    b, c = points[0]
    one = (posmaps.is_positive_bc(b, c), posmaps.is_completely_positive_bc(b, c),
           posmaps.is_indecomposable_bc(b, c), posmaps.is_exposed_bc(b, c))
    assert tuple(bool(v) for v in one) == scalar_predicates(b, c)


@PROPERTY
@given(points=bc_stacks)
def test_max_eig_certificates_match_the_scalar_build(points):
    # the stack certifies the duals of Phi_{b,c}, read from the (b, c) arrays
    certs = sdpsolve.gen_choi_certificates(*bc_arrays(points))
    assert certs.max_eig_ys.shape == (len(points), 9, 9)
    for (b, c), y, expected in zip(points, certs.max_eig_ys, certs.max_eig_expected.tolist()):
        assert np.array_equal(y, scalar_certificate_y(b, c))
        assert expected == scalar_bound(b, c)
    b, c = points[0]
    y = sdpsolve.max_eig_certificate(posmaps.dual_map(posmaps.generalized_choi_map(b, c)))
    assert np.array_equal(y, scalar_certificate_y(b, c))


@PROPERTY
@given(points=bc_stacks, data=st.data())
def test_bc_predicates_reject_a_negative_parameter(points, data):
    k = data.draw(st.integers(min_value=0, max_value=len(points) - 1))
    negative = data.draw(st.floats(min_value=-2.0, max_value=-5e-324))
    bs, cs = bc_arrays(points)
    (bs if data.draw(st.booleans()) else cs)[k] = negative
    for predicate in (posmaps.is_positive_bc, posmaps.is_completely_positive_bc,
                      posmaps.is_indecomposable_bc, posmaps.is_exposed_bc):
        with pytest.raises(ValueError, match="b, c >= 0"):
            predicate(bs, cs)
        with pytest.raises(ValueError, match="b, c >= 0"):
            predicate(float(bs[k]), float(cs[k]))


def value_by_value_fmt(value) -> str:
    """The CSV field of one value as the row-by-row writer formatted it; the column
    writer must print the same string."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.12g" % float(value)


# zeros of both signs, NaNs of both signs, infinities, subnormals and integers
# of 1e16 and more stored as floats, where %.12g switches to exponent form
SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
                  2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 2.0**53 + 2.0]
float_values = st.one_of(
    st.floats(),
    st.integers(min_value=10**16, max_value=10**22).map(float),
    st.integers(min_value=-(10**22), max_value=-(10**16)).map(float),
)


def float_columns(size):
    # drawn with replacement from the special values and a few others, so most
    # values repeat and the two zeros often sit in one column
    pools = st.lists(float_values, max_size=4).map(lambda extra: SPECIAL_FLOATS + extra)
    return pools.flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=size, max_size=size)
    ).map(lambda values: np.array(values, dtype=np.float64))


def int_columns(size):
    return st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1),
                    min_size=size, max_size=size).map(lambda v: np.array(v, dtype=np.int64))


def bool_columns(size):
    return st.lists(st.booleans(), min_size=size, max_size=size).map(
        lambda v: np.array(v, dtype=bool))


def str_columns(size):
    return st.lists(st.text(max_size=6), min_size=size, max_size=size)


COLUMN_KINDS = [float_columns, int_columns, bool_columns, str_columns]
sizes = st.integers(min_value=0, max_value=30)


@PROPERTY
@given(column=sizes.flatmap(float_columns))
@example(column=np.array([0.0, -0.0, 0.0, math.nan, -0.0]))  # equal values, two bit patterns
def test_float_column_strings_match_the_value_by_value_formatter(column):
    assert cli._column_strings(column) == [value_by_value_fmt(v) for v in column]


@PROPERTY
@given(column=st.one_of(*(sizes.flatmap(kind) for kind in (int_columns, bool_columns,
                                                             str_columns))))
def test_int_bool_and_str_column_strings_match_the_value_by_value_formatter(column):
    assert cli._column_strings(column) == [value_by_value_fmt(v) for v in column]


@PROPERTY
@given(size=sizes, data=st.data())
def test_columns_csv_matches_the_row_by_row_writer(size, data):
    kinds = data.draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=5))
    columns = [data.draw(kind(size)) for kind in kinds]
    header = [f"h{k}" for k in range(len(columns))]
    rows = [",".join(map(value_by_value_fmt, row)) for row in zip(*columns)]
    assert cli._columns_csv(header, columns) == "\n".join([",".join(header), *rows]) + "\n"


# quotes, backslashes, control characters, '%' and non-ASCII text, which JSON
# escapes, among any other characters
json_text = st.text(alphabet=st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t%é€\U0001f600'),
                                       st.characters()), max_size=6)


def json_columns(size):
    return st.one_of(float_columns(size),
                     st.lists(json_text, min_size=size, max_size=size))


@PROPERTY
@given(size=sizes, data=st.data())
def test_columns_json_matches_json_dumps_of_the_row_dicts(size, data):
    # NaN is a missing value and prints null, as the row dicts' None did
    header = data.draw(st.lists(json_text, min_size=1, max_size=5, unique=True))
    columns = [data.draw(json_columns(size)) for _ in header]
    lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    rows = [{h: None if isinstance(v, float) and math.isnan(v) else v for h, v in zip(header, row)}
            for row in zip(*lists)]
    assert cli._columns_json(header, columns) == json.dumps(rows, sort_keys=True) + "\n"


@PROPERTY
@given(points=st.lists(st.tuples(bc_params, bc_params), min_size=1, max_size=12))
def test_grid_certificate_rows_equal_stacks_of_one(points):
    # verify-certificates' stacked path against each map's own stack of one,
    # verified against the J of its MapSpec, for the duals of Phi_{b,c}: the
    # same value, expected value and status, compared as repr strings
    tol = 1e-12
    bs, cs = bc_arrays(points)
    names, values, expected, status = cli._map_certificate_columns(
        [f"map {k}" for k in range(len(points))], sdpsolve.gen_choi_certificates(bs, cs), tol)
    one_map = []
    for b, c in points:
        certs = sdpsolve.gen_choi_certificates(np.array([b]), np.array([c]))
        jmats = posmaps.choi_matrix(posmaps.dual_map(posmaps.generalized_choi_map(b, c)))[np.newaxis]
        for verify, ys, claimed in (
                (sdpsolve.verify_diamond_certificates, certs.diamond_ys, certs.diamond_expected),
                (sdpsolve.verify_max_eig_certificates, certs.max_eig_ys, certs.max_eig_expected)):
            value, claimed = sdpsolve._one(*verify(jmats, ys)), float(claimed[0])
            ok = "ok" if abs(value - claimed) <= tol else "mismatch"
            one_map.append((repr(value), repr(claimed), ok))
    assert names == [f"{kind} map {k}" for k in range(len(points))
                     for kind in ("diamond", "max-eig")]
    assert list(zip(map(repr, values.tolist()), map(repr, expected.tolist()), status)) == one_map


def assert_windows_hold(phi, certs, seed):
    # the verified max-eig value bounds lambda_max of every W_v = (id ⊗ phi)(|v><v|),
    # and min_eig_lb_from_diamond of the verified diamond value bounds lambda_min,
    # for 64 random unit v and |psi+>, to a slack of 8 ulps of ||W_v||
    diamond, checks = sdpsolve.verify_diamond_certificates(certs.jmats, certs.diamond_ys)
    assert sdpsolve.certificate_failures(checks) == {}
    max_eig, checks = sdpsolve.verify_max_eig_certificates(certs.jmats, certs.max_eig_ys)
    assert sdpsolve.certificate_failures(checks) == {}
    floor = sdpsolve.min_eig_lb_from_diamond(float(diamond[0]))
    n = phi.dim
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((64, n * n)) + 1j * rng.standard_normal((64, n * n))
    v = np.concatenate([v / np.linalg.norm(v, axis=1, keepdims=True),
                        bipartite.max_entangled(n)[np.newaxis]])
    lam = matcore.eigvalsh(posmaps.apply_id_tensor(phi, v[:, :, None] * v.conj()[:, None, :], n))
    slack = 8 * 2.0**-52 * np.abs(lam).max(axis=1)
    assert np.all(lam[:, 0] <= max_eig[0] + slack)
    assert np.all(lam[:, -1] >= floor - slack)


bc_grid = st.sampled_from(np.linspace(0.0, 4.0 / 3.0, 31).tolist())


@PROPERTY
@given(bc=st.one_of(st.tuples(bc_params, bc_params), st.tuples(bc_grid, bc_grid)), seed=seeds)
@example(bc=(0.0, 0.0), seed=0)
@example(bc=(1.0, 1.0), seed=1)
def test_certified_gen_choi_windows_hold_against_sampled_witnesses(bc, seed):
    # gen_choi_certificates(b, c) certifies the dual of Phi_{b,c}, Phi_{c,b}:
    # the oracle is W_v's own spectrum, which shares no formula with the bounds
    b, c = bc
    certs = sdpsolve.gen_choi_certificates(np.array([b]), np.array([c]))
    assert_windows_hold(posmaps.generalized_choi_map(c, b), certs, seed)


@pytest.mark.parametrize("n", [4, 6])
def test_certified_breuer_hall_windows_hold_against_sampled_witnesses(n):
    # a complex V = Uᵀ V0 U, skew-symmetric and unitary for a Haar U
    u = bipartite.haar_unitary(n, 7)
    phi = posmaps.breuer_hall_map(n, u.T @ posmaps.breuer_hall_default_v(n) @ u)
    assert np.iscomplexobj(phi.v)
    assert_windows_hold(phi, sdpsolve.breuer_hall_certificates(phi), n)
