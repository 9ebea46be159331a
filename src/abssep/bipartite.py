"""Tensor-product structure on M_m ⊗ M_n.

Kronecker products, partial trace/transpose, the realignment rearrangement
and its trace norm, operator- and vector-Schmidt decompositions, standard
states and operators, and Haar-random unitary sampling. A stack of k Ginibre
matrices is drawn from one generator in one call, _ginibre(rng, n, k): slice
i is the i-th of k single draws, so a stack drawn in chunks equals one drawn
whole.

Index convention: an operator X on M_m ⊗ M_n is an (mn)x(mn) array whose
row index is the row-major pair (i, k) with i in [m], k in [n]. The
realignment maps X to an m² x n² array with rows (i, j) and columns (k, l),
i.e. R(|i><j| ⊗ |k><l|) = |i><k| ⊗ |j><l|.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import matcore
from .errors import InvalidDim, InvalidVector

VECTOR_NORM_TOL = 1e-9


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


def realign_trace_norm(x, m: int, n: int) -> float | np.ndarray:
    """||R(X)||_1 of a Hermitian X, or of each operator of a Hermitian stack: the real
    SVD of C = V_m† R(X) conj(V_n), C_ab = Tr(X (G_a ⊗ H_b)) (de Vicente, QIC 7, 2007),
    which has the singular values of R(X). As ||X - X†||_F = 2 ||Im C||_F and ||X||_F =
    ||C||_F, X is refused as matcore's Hermitian gateway refuses it."""
    c = _correlation_basis(m) @ realign(x, m, n) @ _correlation_basis(n).T
    matcore._defect_gate(2.0 * matcore._frobenius(c.imag), c)
    return matcore.singular_values(c.real).sum(axis=-1)


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

