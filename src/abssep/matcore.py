"""Dense Hermitian linear algebra, real symmetric or complex.

Eigenvalues and singular values come from LAPACK through numpy
(``numpy.linalg.eigh``/``eigvalsh`` and ``svd``); this module adds the
package's contract on top: Hermitian gating, descending order with a
deterministic tie order, and PSD tests with explicit tolerances. One
shifted Cholesky per matrix (_cholesky_passes, numpy's own LAPACK potrf
gufunc) stands in for eigenvalues where a bound is all a caller reads:
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
# least_eigenvalue's shift above its floor, in units of d³ u (ν + |floor|) (derived there)
SCREEN_MARGIN = 8.0


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


def _cholesky_passes(m: np.ndarray, shift) -> np.ndarray:
    """Whether each matrix of the Hermitian stack m[..., n, n], its diagonal
    moved by shift (a scalar, or [..., 1]), has a Cholesky factorization that
    runs to completion: one stacked LAPACK potrf through numpy's own gufunc,
    which writes NaN over the factor of a matrix that fails and raises the
    invalid flag, here ignored."""
    n = m.shape[-1]
    shifted = m.copy()  # contiguous, so its diagonal is every (n + 1)-th entry
    shifted.reshape(*m.shape[:-2], n * n)[..., :: n + 1] += shift
    signature = "D->D" if m.dtype == np.complex128 else "d->d"
    with np.errstate(all="ignore"):  # as numpy.linalg runs it, less the LinAlgError
        factor = _umath_linalg.cholesky_lo(shifted, signature=signature)
    return ~np.isnan(factor[..., 0, 0])


def psd_screen(a, tol: float) -> bool:
    """True only if psd_test(a, tol) accepts every matrix of the stack, decided
    with no eigenvalue; False decides nothing, and the caller runs psd_test.

    The stack passes hermitize, as in eigvalsh (the same checks and
    InvalidMatrix messages), and keeps its dtype. Each d x d matrix A is
    shifted to A + sI, s = (tol/2) max(1, max_i |a_ii|), for one Cholesky
    each (_cholesky_passes). As |a_ii| <= ||A||_op, s is at most half of
    psd_test's allowance tol max(1, ||A||_op). A factorization that completes
    is exact for A + sI + E with ||E||_2 <= ~d² u ||A + sI|| (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., Thm 10.5; u = 2^-53), so
    lambda_min(A) >= -s - ||E||. Precondition: tol/2 far above d² u, so that
    ||E|| and eigvalsh's own error fit in the other half of the allowance; at
    tol = 1e-10 and d = 64, d² u is 5e-13 against 5e-11. The stack passes
    when every matrix does.
    """
    m = hermitize(a)
    diagonal = np.diagonal(m, axis1=-2, axis2=-1)
    shift = (tol / 2.0) * np.maximum(1.0, np.abs(diagonal).max(axis=-1, keepdims=True))
    return bool(_cholesky_passes(m, shift).all())


def _least(m: np.ndarray, floor: float) -> float:
    """min(floor, least eigenvalue of the Hermitian stack m[k, d, d]), from LAPACK."""
    return min(floor, float(np.linalg.eigvalsh(m)[:, 0].min()))


def least_eigenvalue(a, floor: float = math.inf) -> float:
    """min(floor, eigvalsh(a)[..., -1].min()), with the same bits (up to the
    sign of a zero), deciding most matrices of the stack with no eigenvalue.

    floor is +inf or finite. The stack passes hermitize, as in eigvalsh. With
    an infinite floor the first SCREEN_SEEDS matrices are decomposed to seed
    it. Every other matrix H (d x d) gets one Cholesky of S = fl(H - tI),
    t = fl(floor + delta) (_cholesky_passes); only the matrices where that
    fails go to eigvalsh. A pass shows that eigvalsh would return
    lambda_min(H) >= floor, so that H cannot move the result, under the one
    assumption on eigvalsh's error stated below.

    The saving rests on one property of the stack: most matrices have a least
    eigenvalue more than delta above the least one. Where nearly all lie
    within delta of each other, each pays the Cholesky and eigvalsh both. A
    100-sample orbit scan of the maximally mixed spectrum is that case: every
    sample is the same state, all 100 are decomposed, and the scan is ~4%
    slower than eigvalsh alone at (3,3) with the Choi map and ~10% slower at
    (4,4) with the Breuer-Hall map (five alternating process pairs, one BLAS
    thread, a shared 2-core x86-64 host).

    The margin delta = SCREEN_MARGIN d³ u (ν + |floor|), u = 2^-53 and ν the
    largest |h_ij| of the stack, so that ||H||_2 <= dν. It covers:
    - the shift's rounding: S = H - tI + D, ||D||_2 <= u(ν + |t|);
    - the Cholesky backward error: a factorization that completes is exact
      for S + E, |E| <= γ_{d+1} |R̂ᵀ||R̂| (Higham, Accuracy and Stability of
      Numerical Algorithms, 2nd ed., Thm 10.5), so ||E||_2 <= 1.02 d(d+1) u
      ||S||_2 <= 2.04 d³ u (ν + |t|), and lambda_min(H) >= t - ||D|| - ||E||;
    - eigvalsh's own error, |λ̂ - λ| <= p(d) u ||H||_2 (LAPACK Users' Guide,
      3rd ed., §4.7), so at most d³ u ν if p(d) <= d². The Guide only calls
      p(d) "a modestly growing function of d": p(d) = d² is assumed here, not
      proved, and the bits of the result rest on it;
    - the rounding of t, u |floor + delta|.
    These add to below 5.2 d³ u (ν + |floor|) once delta <= (ν + |floor|)/100,
    which holds for d³ below 1e13; SCREEN_MARGIN = 8 leaves room, complex
    arithmetic's larger rounding constants among it. At d = 9 and
    ν + |floor| = 1, delta is 6.5e-13. The rounding errors seen in practice
    are ~d u ||H|| for the Cholesky and for eigvalsh alike, so delta exceeds
    them by a factor of about 8d² (~650 at d = 9); that headroom, not the
    assumed p(d), is what the bits lean on in practice. A larger margin sends
    more matrices to eigvalsh. A smaller one, down to those errors, changes no
    result, only the count of matrices decomposed.
    """
    m = hermitize(a)
    d = m.shape[-1]
    m = m.reshape(-1, d, d)
    if floor == math.inf:
        floor, m = _least(m[:SCREEN_SEEDS], floor), m[SCREEN_SEEDS:]
    if len(m):
        delta = SCREEN_MARGIN * d**3 * 2.0**-53 * (float(np.abs(m).max()) + abs(floor))
        fails = ~_cholesky_passes(m, -(floor + delta))
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
