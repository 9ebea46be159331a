"""Dense Hermitian linear algebra, real symmetric or complex.

Eigenvalues and singular values come from LAPACK through numpy
(``numpy.linalg.eigh``/``eigvalsh`` and ``svd``); this module adds the
package's contract on top: Hermitian gating, descending order with a
deterministic tie order, and PSD tests with explicit tolerances. Where a
bound is all a caller reads, one shifted Cholesky per matrix with a proved
rounding bound (_cholesky_floor) shows lambda_min >= t with no eigenvalue:
psd_screen decides a stack that psd_test would accept whole, and
least_eigenvalue sends to eigvalsh only the matrices that could lie below
the least eigenvalue found so far.

Matrices are plain numpy arrays throughout, read through one normalizer,
_as_matrix: a real one is float64 and goes to the real LAPACK drivers, any
other is complex128. ``hermitize`` is the one Hermitian gateway: inputs
further than HERMITIZE_TOL from their Hermitian part are rejected, anything
closer is symmetrized to (A + A†)/2, and input that already has exactly the
bits of (A + A†)/2 is handed over uncopied. eigvalsh, eigh and psd_screen
hand LAPACK what it returns, and so does least_eigenvalue.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InvalidMatrix

HERMITIZE_TOL = 1e-8
DEFAULT_PSD_TOL = 1e-9
# least_eigenvalue decomposes this many matrices of a stack to seed an infinite floor
SCREEN_SEEDS = 8
# least_eigenvalue's margin for eigvalsh's error, in units of d³ u (ν + |floor|) (derived there)
SCREEN_MARGIN = 2.0
_U, _ETA = 2.0**-53, 2.0**-1074  # float64's unit roundoff and least positive subnormal


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray   # real, descending
    eigenvectors: np.ndarray  # unitary, column i pairs with eigenvalues[i]


class PsdReport:
    """Boolean verdict of a PSD test together with the minimum eigenvalue."""

    __slots__ = ("ok", "min_eigenvalue")

    def __init__(self, ok: bool, min_eigenvalue: float):
        self.ok = bool(ok)
        self.min_eigenvalue = float(min_eigenvalue)

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"PsdReport(ok={self.ok}, min_eigenvalue={self.min_eigenvalue:.3e})"


def _as_matrix(a, stack: bool = False) -> np.ndarray:
    """Validate and return a finite matrix, or with stack=True a stack [..., r, c]:
    float64 where a is real, else complex128: the package's one matrix
    normalizer, so that real data stays real."""
    m = np.asarray(a)
    m = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)
    if (m.ndim < 2 if stack else m.ndim != 2) or m.shape[-2] < 1 or m.shape[-1] < 1:
        raise InvalidMatrix(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidMatrix("matrix has non-finite entries")
    return m


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack x[..., r, c]."""
    return np.sqrt(np.square(np.abs(x)).sum(axis=(-2, -1)))


def _defect_gate(defect: np.ndarray, m: np.ndarray) -> None:
    """Refuse a defect ||A - A†||_F above HERMITIZE_TOL (1 + ||A||_F), ||A||_F that of m."""
    if (defect > HERMITIZE_TOL).any():  # a smaller defect passes whatever the norm of the matrix
        bad = defect > HERMITIZE_TOL * (1.0 + _frobenius(m))
        if bad.any():
            raise InvalidMatrix(f"matrix is not Hermitian (defect {defect[bad].flat[0]:.3e})")


# the bits of -0.0, read as an int64
_NEGATIVE_ZERO = np.float64(-0.0).view(np.int64)
_HALF_MAX = np.finfo(np.float64).max / 2.0


def hermitize(a) -> np.ndarray:
    """The Hermitian gateway: (A + A†)/2 of a matrix, or of each matrix of a stack
    [..., n, n], float64 where a is real, refusing input further than
    HERMITIZE_TOL from it (_defect_gate).

    The input itself comes back, uncopied, where it has exactly the bits
    (A + A†)/2 would have. That holds where no part is above half the float64
    maximum, so A + A† does not overflow, and a real A equals Aᵀ bit for bit
    (-0.0 facing +0.0 would halve to +0.0), or a complex A equals A† with no
    -0.0 part (complex halving turns it into +0.0). Input that is not A† goes
    to the defect gate before anything is copied. Callers must not write to
    the result.
    """
    m = _as_matrix(a, stack=True)
    if m.shape[-2] != m.shape[-1]:
        raise InvalidMatrix(f"Hermitian matrix must be square, got {m.shape}")
    mh = m.conj().swapaxes(-1, -2)
    if m.dtype == np.float64:
        exact, parts = (m.view(np.int64) == mh.view(np.int64)).all(), m
    elif exact := (m == mh).all():
        m = np.ascontiguousarray(m)  # for the float64 view of its parts
        parts = m.view(np.float64)
        exact = not (parts.view(np.int64) == _NEGATIVE_ZERO).any()
    if exact and -_HALF_MAX <= parts.min(initial=0.0) and parts.max(initial=0.0) <= _HALF_MAX:
        return m
    _defect_gate(_frobenius(m - mh), m)
    return (m + mh) / 2.0


def eigh(a) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix (or stack), eigenvalues descending.

    Ties are broken deterministically by LAPACK's ascending index.
    """
    d, q = np.linalg.eigh(hermitize(a))
    order = np.argsort(-d, axis=-1, kind="stable")
    return EigenDecomposition(
        np.take_along_axis(d, order, -1),
        np.ascontiguousarray(np.take_along_axis(q, order[..., np.newaxis, :], -1)),
    )


def eigvalsh(a) -> np.ndarray:
    """Eigenvalues only (descending), of a matrix or of each matrix of a stack."""
    d = np.linalg.eigvalsh(hermitize(a))
    return -np.sort(-d, axis=-1, kind="stable")  # the same tie order as eigh


def singular_values(a) -> np.ndarray:
    """Singular values (descending), of a matrix or of each matrix of a stack, by SVD."""
    return np.linalg.svd(_as_matrix(a, stack=True), compute_uv=False)


def schatten_norm(a, kind: str) -> float:
    """Schatten norm: kind is 'trace', 'frobenius' or 'operator'."""
    m = _as_matrix(a)
    if kind == "frobenius":
        return float(np.linalg.norm(m))
    if kind == "trace":
        return float(np.sum(singular_values(m)))
    if kind == "operator":
        return float(singular_values(m)[0])
    raise ValueError(f"unknown Schatten norm selector {kind!r}")


def psd_test(a, tol: float = DEFAULT_PSD_TOL) -> tuple[np.ndarray, np.ndarray]:
    """PSD test of a matrix, or of each matrix of a stack, with relative tolerance:
    (min eig >= -tol * max(1, operator norm), min eig)."""
    w = eigvalsh(a)
    lam_min = w[..., -1]
    op = np.maximum(np.abs(w[..., 0]), np.abs(lam_min))
    return lam_min >= -tol * np.maximum(1.0, op), lam_min


def _cholesky_floor(m: np.ndarray, t) -> np.ndarray:
    """Whether one Cholesky proves lambda_min(H) >= t, for each matrix H of the
    Hermitian stack m[..., d, d], t a float or one per matrix: True where the
    Cholesky of S = fl(fl(H - tI) - cI) completes, read off its last pivot
    (numpy's potrf gufunc writes NaN over a factor that fails, and a NaN pivot,
    which potrf lets through, reaches the last one). False decides nothing.
    The shift c = 3(d+1) u τ + 4d(d+1) η, g_i = fl(h_ii - t),
    τ = fl(Σ|g_i|), u = 2^-53, η = 2^-1074, bounds the rounding. Rump (BIT
    Numer. Math. 46, 2006) proves such a bound for real data; here it is
    derived for complex data too, underflow included (sections of Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed.):
    - Model. Each factor entry comes from the Cholesky formulas, blocked or
      not, a sum in any order (Lemma 8.4 holds for any order), divided by a
      pivot or multiplied by its reciprocal; an operation gives (x op y)(1 + δ)
      + ε, |δ| <= u, |ε| <= η/2, ε = 0 for + and -. Complex data are real
      arithmetic on parts (§3.6): a part of a sum of k complex products is a
      real sum of 2k products, and |Re a Re b| + |Im a Im b| <= |a||b|. A completed
      factorization had no overflow, which would reach a later pivot as -inf or NaN.
    - So LLᴴ = S + E, |e_ij| <= α (|L||Lᴴ|)_ij + β_ij, α = √2 γ_2d (γ_k = ku/(1 - ku);
      real data need γ_{d+1}, Thm 10.3), underflow β_ij <= √2 (2d + l_jj) η, β_ii <= 2dη.
    - Rump's step. ||l_i||² = s_ii + e_ii gives Σ||l_i||² <= Λ = (tr S + 2d²η)/(1 - α);
      |L||Lᴴ| <= ρρᵀ, ρ_i = ||l_i|| (Cauchy-Schwarz), and l_jj <= (1 + Λ)/2, so
      ||E||_2 <= (α + dη) Λ + √2 d(2d + 1) η.
    - The pivots are positive and rounding is monotone, so 0 < s_ii <= g_i and
      tr S <= Σ|g_i|; the two subtractions move h_ii - t - c by <= 2u g_i (2.5).
    So lambda_min(H) - t >= c - ||E||_2 - 2u max g_i >= 0: for d up to 10^7 the
    computed c, its own rounding included, exceeds ((α + dη)/(1 - α) + 2u)
    Σ|g_i| + (α + dη) 2d²η/(1 - α) + √2 d(2d + 1) η.
    """
    d = m.shape[-1]
    shifted = m.copy()  # contiguous, so its diagonal is every (d + 1)-th entry
    diagonal = shifted.reshape(*m.shape[:-2], d * d)[..., :: d + 1]
    signature = "D->D" if m.dtype == np.complex128 else "d->d"
    with np.errstate(all="ignore"):  # an overflow fails the matrix, here as in potrf
        g = diagonal.real - np.asarray(t)[..., np.newaxis]
        diagonal[...] = g - (3 * (d + 1) * _U * np.abs(g).sum(axis=-1, keepdims=True)
                             + 4 * d * (d + 1) * _ETA)
        factor = _umath_linalg.cholesky_lo(shifted, signature=signature)
    return ~np.isnan(factor[..., -1, -1])


def psd_screen(a, tol: float) -> bool:
    """True only if psd_test(a, tol) accepts every matrix of the stack, decided
    with no eigenvalue; False decides nothing, and the caller runs psd_test.

    The stack passes hermitize, as in eigvalsh (the same checks and
    InvalidMatrix messages), and keeps its dtype. Each d x d matrix A needs
    lambda_min(A) >= -(tol/2) max(1, max_i |a_ii|) proved by _cholesky_floor:
    as |a_ii| <= ||A||_2, half of psd_test's allowance tol max(1, ||A||_2). The
    other half holds eigvalsh's error p(d) u ||A||_2 (p(d) = d² assumed, as in
    least_eigenvalue) once d² u <= tol/4, so for d up to 470 at tol = 1e-10.
    """
    m = hermitize(a)
    diagonal = np.abs(np.diagonal(m, axis1=-2, axis2=-1)).max(axis=-1)
    return bool(_cholesky_floor(m, -(tol / 2.0) * np.maximum(1.0, diagonal)).all())


def _least(m: np.ndarray, floor: float) -> float:
    """min(floor, least eigenvalue of the Hermitian stack m[k, d, d]), from LAPACK."""
    return min(floor, float(np.linalg.eigvalsh(m)[:, 0].min()))


def least_eigenvalue(a, floor: float = math.inf) -> float:
    """min(floor, eigvalsh(a)[..., -1].min()), with the same bits (up to the
    sign of a zero), deciding most matrices of the stack with no eigenvalue.

    floor is +inf or finite. The stack passes hermitize, as in eigvalsh. With
    an infinite floor the first SCREEN_SEEDS matrices are decomposed to seed
    it. Every other matrix H (d x d) goes to eigvalsh only where
    _cholesky_floor does not prove lambda_min(H) >= t = fl(floor + delta).
    Where it does, eigvalsh returns at least floor, so H cannot move the
    result, given eigvalsh's error |λ̂ - λ| <= p(d) u ||H||_2 (LAPACK Users'
    Guide, 3rd ed., §4.7). The Guide only calls p(d) "a modestly growing
    function of d": p(d) = d² is assumed here, not proved, and the bits rest
    on it. With ν the largest |h_ij| of the stack, ||H||_2 <= dν, so the error
    is at most d³ u ν; delta = SCREEN_MARGIN d³ u (ν + |floor|), SCREEN_MARGIN
    = 2, covers it and the roundings of delta and t. That is ~2d² times the
    ~d u ||H|| eigvalsh's error reads in practice, a headroom the bits lean on
    more than on the assumed p(d); a smaller margin, down to that error, moves
    only the count of matrices decomposed. Where the least eigenvalues all lie
    within delta of each other (the maximally mixed orbit), each matrix pays
    the Cholesky and eigvalsh both: a 100-sample (3,3) Choi scan runs ~4% slower.
    """
    m = hermitize(a)
    d = m.shape[-1]
    m = m.reshape(-1, d, d)
    if floor == math.inf:
        floor, m = _least(m[:SCREEN_SEEDS], floor), m[SCREEN_SEEDS:]
    if len(m):
        delta = SCREEN_MARGIN * d**3 * _U * (float(np.abs(m).max()) + abs(floor))
        fails = ~_cholesky_floor(m, floor + delta)
        if fails.any():
            floor = _least(m[fails], floor)
    return float(floor)


def is_psd(a, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """psd_test of one matrix, as a PsdReport."""
    ok, lam_min = psd_test(a, tol)
    if ok.ndim != 0:
        raise InvalidMatrix(f"is_psd takes one matrix, got a stack of shape {ok.shape}")
    return PsdReport(ok, lam_min)


def _json_int(value) -> int:
    """A dimension read from JSON as int(value); it must be a JSON number, so
    true and "2" raise TypeError, and a float must be integral, so that 1.5 is
    not read as 1 and 1e400 (inf) raises TypeError, not OverflowError."""
    if isinstance(value, (bool, str)) or isinstance(value, float) and not value.is_integer():
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the shared matrix JSON format, rejecting length mismatches: float64
    where "im" is absent or all zero, else complex128."""
    try:
        rows, cols = _json_int(obj["rows"]), _json_int(obj["cols"])
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidMatrix(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1:
        raise InvalidMatrix("matrix dims must be positive")
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise InvalidMatrix("re/im length does not match rows*cols")
    return _as_matrix((re + 1j * im if im.any() else re).reshape(rows, cols))
