"""Tensor-product structure on M_m ⊗ M_n.

Kronecker products, partial trace/transpose, the realignment rearrangement
and its trace norm, operator- and vector-Schmidt decompositions, standard
states and operators, and Haar-random unitary sampling. Both trace-norm
kernels read one correlation matrix C (_correlation), whose Hermitian gate
runs on every stack: realign_trace_norm returns each operator's value, and
realign_trace_norm_max only the largest above a floor, which at 2 ⊗ n a
row-norm bound on C decides for most operators with no SVD. A stack
of k Ginibre matrices is drawn from one generator in one call, _ginibre(rng,
n, k): slice i is the i-th of k single draws, so a stack drawn in chunks
equals one drawn whole.

Index convention: an operator X on M_m ⊗ M_n is an (mn)x(mn) array whose
row index is the row-major pair (i, k) with i in [m], k in [n]. The
realignment maps X to an m² x n² array with rows (i, j) and columns (k, l),
i.e. R(|i><j| ⊗ |k><l|) = |i><k| ⊗ |j><l|.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import matcore
from .errors import InvalidDim, InvalidVector

VECTOR_NORM_TOL = 1e-9
# realign_trace_norm_max decomposes this many operators of a stack to seed an infinite floor
REALIGN_SCREEN_SEEDS = 4
# realign_trace_norm_max's margin above its row bound, in units of b³ u ν (derived there)
REALIGN_SCREEN_MARGIN = 8.0
# the orthogonal Helmert rotation of M_2's correlation basis (_correlation_basis(2)):
# row 0 picks out (G_0 + G_1)/√2 = I/√2, row 1 (G_0 - G_1)/√2 = σ_z/√2, and rows 2
# and 3 keep the off-diagonal pair
_HELMERT_2 = np.eye(4)
_HELMERT_2[:2, :2] = np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]])
_HELMERT_2.flags.writeable = False


class OperatorSchmidt(NamedTuple):
    coefficients: np.ndarray       # nonnegative, descending
    left_ops: list[np.ndarray]     # HS-orthonormal, m x m
    right_ops: list[np.ndarray]    # HS-orthonormal, n x n


def _check_dims(x: np.ndarray, m: int, n: int, stack: bool = False) -> np.ndarray:
    return _check_shape(matcore._as_matrix(x, stack=stack), m, n)


def _check_shape(x: np.ndarray, m: int, n: int) -> np.ndarray:
    if m < 1 or n < 1:
        raise InvalidDim(f"factor dims must be positive, got ({m}, {n})")
    if x.shape[-2:] != (m * n, m * n):
        raise InvalidDim(f"operator shape {x.shape} does not match dims ({m}, {n})")
    return x


def kron(a, b) -> np.ndarray:
    """Kronecker product with the (i,k),(j,l) pairing convention; float64 where
    a and b are both real, else complex128."""
    return np.kron(matcore._as_matrix(a), matcore._as_matrix(b))


def partial_transpose(x, m: int, n: int) -> np.ndarray:
    """Transpose the second tensor factor, of X or of each operator of a stack X[..., mn, mn].
    A real X comes back float64, any other complex128."""
    x = _check_shape(matcore._as_matrix(x, stack=True), m, n)
    return x.reshape(x.shape[:-2] + (m, n, m, n)).swapaxes(-3, -1).reshape(x.shape)


def partial_trace(x, m: int, n: int, subsystem: str = "second") -> np.ndarray:
    """Trace out one tensor factor, of X or of each operator of a stack X[..., mn, mn];
    'second' leaves an m x m matrix. A real X comes back float64, any other complex128."""
    x = _check_shape(matcore._as_matrix(x, stack=True), m, n)
    t = x.reshape(x.shape[:-2] + (m, n, m, n))
    if subsystem == "second":
        return np.einsum("...ikjk->...ij", t)
    if subsystem == "first":
        return np.einsum("...ikil->...kl", t)
    raise ValueError(f"subsystem must be 'first' or 'second', got {subsystem!r}")


def realign(x, m: int, n: int) -> np.ndarray:
    """Realignment rearrangement, an m² x n² matrix with the same entries as X.

    Accepts a stack X[..., mn, mn] and realigns each operator.
    """
    x = _check_dims(x, m, n, stack=True)
    lead = x.shape[:-2]
    return x.reshape(lead + (m, n, m, n)).swapaxes(-3, -2).reshape(lead + (m * m, n * n))


def _hermitian_basis(h: int, real: bool = False) -> np.ndarray:
    """Real basis of the Hermitian h x h matrices: E_ii, then E_ij + E_ji and iE_ij - iE_ji
    for each i < j in row-major order. With real, of the real symmetric ones, h(h+1)/2
    of them: E_ii, symmetric. An SDP builder passes real when its data J is real: then
    the average of an optimal Hermitian Y and its conjugate is feasible and optimal too."""
    out = np.zeros((h * (h + 1) // 2 if real else h * h, h, h),
                   dtype=np.float64 if real else np.complex128)
    out[np.arange(h), np.arange(h), np.arange(h)] = 1.0
    i, j = np.triu_indices(h, 1)
    k = h + (1 if real else 2) * np.arange(i.size)
    out[k, i, j] = out[k, j, i] = 1.0
    if not real:
        out[k + 1, i, j], out[k + 1, j, i] = 1.0j, -1.0j
    return out


@functools.cache
def _correlation_basis(h: int) -> np.ndarray:
    """V_h†, read-only: row a is vec(G_a)†, G_a = _hermitian_basis(h)[a] / ||.||_F."""
    rows = _hermitian_basis(h).reshape(h * h, h * h).conj()
    rows[h:] /= np.sqrt(2.0)  # the off-diagonal pairs, of norm √2
    rows.flags.writeable = False
    return rows


def _correlation(x, m: int, n: int) -> np.ndarray:
    """The real C = V_m† R(X) conj(V_n), C_ab = Tr(X (G_a ⊗ H_b)) (de Vicente, QIC 7,
    2007), of a Hermitian X or of each operator of a Hermitian stack: C has the
    singular values of R(X). As ||X - X†||_F = 2 ||Im C||_F and ||X||_F = ||C||_F, X is
    refused as matcore's Hermitian gateway refuses it."""
    c = _correlation_basis(m) @ realign(x, m, n) @ _correlation_basis(n).T
    matcore._defect_gate(2.0 * matcore._frobenius(c.imag), c)
    return c.real


def realign_trace_norm(x, m: int, n: int) -> float | np.ndarray:
    """||R(X)||_1 of a Hermitian X, or of each operator of a Hermitian stack: the
    sum of the real SVD of its correlation matrix C (_correlation)."""
    return matcore.singular_values(_correlation(x, m, n)).sum(axis=-1)


def _top(c: np.ndarray, floor: float) -> float:
    """max(floor, the largest SVD sum of the stack c[k, a, b]), from LAPACK."""
    return max(floor, float(matcore.singular_values(c).sum(axis=-1).max()))


def realign_trace_norm_max(x, m: int, n: int, floor: float = -math.inf) -> float:
    """max(floor, realign_trace_norm(x, m, n).max()), with the same bits, sending
    to the SVD only the operators of the stack that can move the result.

    floor is -inf or finite. Every operator passes _correlation's Hermitian gate.
    Where m = 2 and n >= 2, C is 4 x b, b = n², with one row per entry of M_2's
    basis. Rotate its rows by the orthogonal Helmert rotation O (_HELMERT_2),
    whose first row picks out the identity component. As ||C||_1 = ||OC||_1 <=
    sum_i ||(OC)_i||_2, each operator's trace norm is at most its row bound B.
    With an infinite floor, the REALIGN_SCREEN_SEEDS operators of largest B are
    decomposed to seed it; then only the operators with fl(B + delta) > floor
    go to the SVD, and those whose B is NaN (a C that overflowed, which the
    SVD refuses) with them. Elsewhere the whole stack goes to one stacked SVD:
    at min(m, n) = 1, B is ||C||_F = ||X||_F, the same for every operator of
    an orbit; at min(m, n) >= 3 the bound sends nearly every orbit sample to
    the SVD (82-100 of 100 at (3,3), 100 of 100 at (4,4), over ten spectra
    drawn at radius 0.5-0.95 in the Gurvits-Barnum ball); and n ⊗ 2, n >= 3,
    whose bound would sum C's columns, is left unscreened until a measured
    workload scans it.

    The saving rests on one property of the stack: most operators' bounds
    fall more than delta below the largest trace norm found so far. Where all
    lie within delta of it, each pays the bound and the SVD both. A 100-sample
    orbit scan of the maximally mixed spectrum is that case: every sample is
    the same state and all 100 are decomposed. In ten alternating process
    pairs against one stacked SVD (one BLAS thread, 2-core x86-64 host), such
    a scan took 0.648 -> 0.701 ms at (2,2) (+8%) and 1.279 -> 1.350 ms at (2,4)
    (+6%).

    The margin delta = REALIGN_SCREEN_MARGIN b³ u ν, u = 2^-53 and ν the largest
    |c_ij| of the stack, so that ||C||_2 <= ||C||_F <= 2√b ν, ||C||_1 <= 4√b ν
    and each row of OC has norm at most √(2b) ν. With exact ||C||_1 <= B and
    B̂, ŝ the computed bound and SVD sum, ŝ <= floor whenever fl(B̂ + delta)
    <= floor, once delta covers, in units of u ν:
    - the rotation's rounding: a row of OC that mixes two rows of C is
      fl(r c_0 ± r c_1), r = fl(1/√2), each entry within 3.01 √2 of the exact
      one, so the two mixed rows' norms move by at most 8.6 √b in all;
    - the rounding of the bound: each row norm fl(√Σ y_j²) carries a relative
      error below (b/2 + 2) u (Higham, 2nd ed., §3.1), on a norm of at most
      √(2b) ν, and the sum of the 4 norms one of 3.01 u: (2b + 8)√(2b) + 17√b;
    - gesdd's per-value error, |σ̂_i - σ_i| <= p u ||C||_2 (LAPACK Users'
      Guide, 3rd ed., §4.9), summed over the 4 values: 8 p √b.
      The Guide only calls p "a modestly growing function" of the shape:
      p = b² is assumed here, not proved, and the bits of the result rest
      on it;
    - the rounding of the sum of the 4 singular values, 3.01 u ŝ <= 12.1 √b,
      and of fl(B̂ + delta) against floor, u (B̂ + delta) <= 5.7 √b.
    With p = b² these add to at most 8 b^{5/2} + 2.9 b^{3/2} + 55 √b, below
    6.1 b³ at b >= 4; REALIGN_SCREEN_MARGIN = 8 leaves room. At (2,4), b = 16
    and ν <= 1 for a state, delta is at most 3.6e-12. The rounding errors seen
    in practice are ~√b u ν for the bound and the SVD alike, so delta exceeds
    them by a factor of about 8 b^{5/2}; that headroom, not the assumed p, is
    what the bits lean on in practice. A larger margin sends more operators
    to the SVD. A smaller one, down to those errors, changes no result, only
    the count of operators decomposed.
    """
    c = _correlation(x, m, n)
    c = c.reshape(-1, *c.shape[-2:])
    if m != 2 or n == 1:
        return _top(c, floor)
    bound = np.sqrt(np.square(_HELMERT_2 @ c).sum(axis=-1)).sum(axis=-1)
    if floor == -math.inf:
        seeds = np.argsort(-bound, kind="stable")[:REALIGN_SCREEN_SEEDS]
        floor, bound[seeds] = _top(c[seeds], floor), -math.inf
    delta = REALIGN_SCREEN_MARGIN * n**6 * 2.0**-53 * float(np.abs(c).max())
    fails = ~(bound + delta <= floor)  # a NaN bound fails
    return _top(c[fails], floor) if fails.any() else floor


def operator_schmidt(x, m: int, n: int) -> OperatorSchmidt:
    """Operator-Schmidt decomposition X = sum_i c_i A_i ⊗ B_i.

    Returns min(m², n²) terms; coefficients are the singular values of the
    realignment, with those below the SVD rank tolerance set to exactly 0.
    Zero-coefficient terms carry the remaining singular vectors, which
    complete both operator families orthonormally.
    """
    r = realign(x, m, n)
    k = min(m * m, n * n)
    u, coeffs, vh = np.linalg.svd(r, full_matrices=True)
    # the numpy.linalg.matrix_rank default tolerance
    coeffs[coeffs <= coeffs[0] * max(m * m, n * n) * np.finfo(np.float64).eps] = 0.0
    left_ops = [u[:, i].reshape(m, m) for i in range(k)]
    right_ops = [vh[i].reshape(n, n) for i in range(k)]
    return OperatorSchmidt(coeffs, left_ops, right_ops)


def _check_unit_vector(v, length: int | None = None) -> np.ndarray:
    v = np.ravel(v).astype(np.complex128 if np.iscomplexobj(v) else np.float64, copy=False)
    if length is not None and v.size != length:
        raise InvalidVector(f"expected a vector of length {length}, got {v.size}")
    if not np.isfinite(v).all():
        raise InvalidVector("vector has non-finite entries")
    nv = float(np.linalg.norm(v))
    if abs(nv - 1.0) > VECTOR_NORM_TOL:
        raise InvalidVector(f"vector is not unit norm (|v| = {nv:.12g})")
    return v


def vector_schmidt(v, m: int, n: int) -> np.ndarray:
    """Schmidt coefficients of a unit vector in C^m ⊗ C^n, descending."""
    v = _check_unit_vector(v, m * n)
    return matcore.singular_values(v.reshape(m, n))[: min(m, n)]


def max_entangled(n: int) -> np.ndarray:
    """The standard maximally entangled unit vector (1/sqrt(n)) sum_i |ii>, float64."""
    if n < 1:
        raise InvalidDim("n must be >= 1")
    v = np.zeros(n * n)
    v[:: n + 1] = 1.0 / np.sqrt(n)
    return v


def max_entangled_projector(n: int) -> np.ndarray:
    """|psi+><psi+| for max_entangled(n), as a real float64 matrix."""
    v = max_entangled(n)
    return np.outer(v, v)


def swap_operator(n: int) -> np.ndarray:
    """The swap S(|a> ⊗ |b>) = |b> ⊗ |a> on C^n ⊗ C^n, a permutation, as float64:
    row (i, k) of S is row (k, i) of the identity."""
    if n < 1:
        raise InvalidDim("n must be >= 1")
    return np.eye(n * n)[np.arange(n * n).reshape(n, n).T.ravel()]


def rng_stream(seed: int, stream: int | None = None) -> np.random.Generator:
    """Counter-based generator; stream splits are independent and reproducible."""
    if stream is None:
        seq = np.random.SeedSequence(int(seed))
    else:
        seq = np.random.SeedSequence(int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(seq))


def _ginibre(rng: np.random.Generator, n: int, count: int | None = None) -> np.ndarray:
    """Complex Ginibre matrix A + iB, A and B drawn from rng in one call; or a
    [count, n, n] stack of them, all drawn in one call, whose slice i is the
    matrix that the i-th of count single calls would draw."""
    g = rng.standard_normal((2, n, n) if count is None else (count, 2, n, n))
    z = np.empty(g.shape[:-3] + (n, n), dtype=np.complex128)
    z.real, z.imag = g[..., 0, :, :], g[..., 1, :, :]
    return z


def haar_unitary(n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from a seed or a generator: the QR factor of a Ginibre
    draw, R's diagonal phases divided out (Mezzadri, Notices AMS 54, 2007)."""
    if n < 1:
        raise InvalidDim("n must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else rng_stream(seed)
    q, r = np.linalg.qr(_ginibre(rng, n) / np.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix from a Ginibre factor (GG†, normalized)."""
    if dim < 1:
        raise InvalidDim("dim must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else rng_stream(seed)
    g = _ginibre(rng, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real

