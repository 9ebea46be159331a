"""Parametric state families with closed-form absolute-separability thresholds.

Werner states (I - alpha S)/(n² - n alpha), isotropic states
(1-alpha)/n² I + alpha |psi+><psi+|, and full-rank mixtures of the
maximally mixed state with a UPB-complement state on M_3 ⊗ M_3.
Classification thresholds are stored as exact expressions and compared
with 1e-12 slack.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from . import absppt, bipartite, matcore
from .errors import InvalidDim, InvalidState, InvalidVector

THRESHOLD_SLACK = 1e-12
# what validate_upb lets a UPB vector keep of |‖v‖ - 1|, of its second Schmidt
# coefficient and of |<v_i|v_j>|: the rounding of vectors built in floating point
UPB_VECTOR_TOL = 1e-10

UPB_ABS_PPT_THRESHOLD = 9.0 * (10.0 - math.sqrt(17.0)) / 83.0   # approx 0.6373
UPB_ABS_SEP_THRESHOLD = 1.0 - 1.0 / math.sqrt(10.0)             # approx 0.6838


class WernerClass(Enum):
    ABS_SEP = "AbsSep"
    NOT_ABS_PPT = "NotAbsPPT"
    UNKNOWN = "Unknown"


class IsotropicClass(Enum):
    ABS_SEP = "AbsSep"
    NOT_ABS_PPT = "NotAbsPPT"


class UpbClass(Enum):
    ABS_PPT_AND_ABS_SEP = "AbsPPT_and_AbsSep"
    ABS_PPT_ONLY_KNOWN = "AbsPPT_only_known"
    NOT_ABS_PPT = "NotAbsPPT"


def _check_werner(n: int, alpha: float):
    if n < 2:
        raise InvalidDim("Werner states need n >= 2")
    if not -1.0 <= alpha <= 1.0:
        raise InvalidState(f"Werner parameter alpha = {alpha} outside [-1, 1]")


def _check_isotropic(n: int, alpha: float):
    if n < 2:
        raise InvalidDim("isotropic states need n >= 2")
    lo = -1.0 / (n * n - 1.0)
    if not lo - THRESHOLD_SLACK <= alpha <= 1.0 + THRESHOLD_SLACK:
        raise InvalidState(f"isotropic parameter alpha = {alpha} outside [{lo:.6g}, 1]")


def _check_upb_p(p) -> np.ndarray:
    """p as a float64 array; raises InvalidState naming the first p outside (0, 1)."""
    arr = np.asarray(p, dtype=np.float64)
    inside = (0.0 < arr) & (arr < 1.0)
    if not inside.all():
        bad = p if arr.ndim == 0 else arr[~inside][0]
        raise InvalidState(f"mixture parameter p = {bad} outside (0, 1)")
    return arr


def werner_spectrum(n: int, alpha: float) -> absppt.Spectrum:
    """(1 -+ alpha) eigenvalues with multiplicities n(n+1)/2 and n(n-1)/2."""
    _check_werner(n, alpha)
    norm = n * n - n * alpha
    sym = np.full(n * (n + 1) // 2, (1.0 - alpha) / norm)
    anti = np.full(n * (n - 1) // 2, (1.0 + alpha) / norm)
    return absppt.Spectrum(n, n, np.concatenate([sym, anti]))


def isotropic_spectrum(n: int, alpha: float) -> absppt.Spectrum:
    """alpha + (1-alpha)/n² once, (1-alpha)/n² with multiplicity n²-1."""
    _check_isotropic(n, alpha)
    vals = np.full(n * n, (1.0 - alpha) / (n * n))
    vals[0] += alpha
    return absppt.Spectrum(n, n, vals)


def tiles_upb() -> list[np.ndarray]:
    """The Tiles unextendible product basis in C³ ⊗ C³ (five real product vectors)."""
    e = np.eye(3)
    r2 = math.sqrt(2.0)
    ones = (e[0] + e[1] + e[2]) / math.sqrt(3.0)
    vecs = [
        np.kron(e[0], (e[0] - e[1]) / r2),
        np.kron(e[2], (e[1] - e[2]) / r2),
        np.kron((e[0] - e[1]) / r2, e[2]),
        np.kron((e[1] - e[2]) / r2, e[0]),
        np.kron(ones, ones),
    ]
    return vecs


def validate_upb(vectors: list[np.ndarray]) -> None:
    """Check five mutually orthogonal product unit vectors in C³ ⊗ C³."""
    if len(vectors) != 5:
        raise InvalidVector("a UPB in C³ ⊗ C³ has exactly five vectors")
    for v in vectors:
        vv = np.asarray(v).ravel()
        if vv.size != 9:
            raise InvalidVector("UPB vectors must live in C³ ⊗ C³")
        if abs(np.linalg.norm(vv) - 1.0) > UPB_VECTOR_TOL:
            raise InvalidVector("UPB vectors must be unit norm")
        if bipartite.vector_schmidt(vv, 3, 3)[1] > UPB_VECTOR_TOL:
            raise InvalidVector("UPB vectors must be product vectors")
    for i in range(5):
        for j in range(i + 1, 5):
            if abs(np.vdot(vectors[i], vectors[j])) > UPB_VECTOR_TOL:
                raise InvalidVector(f"UPB vectors {i} and {j} are not orthogonal")


def upb_complement_state(vectors: list[np.ndarray] | None = None) -> np.ndarray:
    """The PPT entangled state (I - sum |v_i><v_i|) / 4 from a UPB: float64 for
    real vectors, as the Tiles UPB, else complex128."""
    vecs = tiles_upb() if vectors is None else vectors
    validate_upb(vecs)
    proj = np.eye(9)
    for v in vecs:
        proj = proj - np.outer(v, np.conj(v))
    return proj / 4.0


def upb_state(p: float, vectors: list[np.ndarray] | None = None) -> np.ndarray:
    """Full-rank mixture p I/9 + (1-p) * (UPB complement state)."""
    _check_upb_p(p)
    return p * np.eye(9) / 9.0 + (1.0 - p) * upb_complement_state(vectors)


def upb_spectrum(p: float) -> absppt.Spectrum:
    """p/9 with multiplicity 5 and (9-5p)/36 with multiplicity 4.

    Depends only on |UPB| = 5, not on which UPB was mixed in.
    """
    _check_upb_p(p)
    vals = np.concatenate([np.full(5, p / 9.0), np.full(4, (9.0 - 5.0 * p) / 36.0)])
    return absppt.Spectrum(3, 3, vals)


def werner_lmi_case_matrices(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The two special-form LMIs from the Werner analysis.

    Case 1 (alpha > 0 side): all diagonal 2-2alpha, off-diagonal -2alpha.
    Case 2 (alpha < 0 side): (n-1)-block with diagonal 2+2alpha and
    off-diagonal 2alpha, plus an isolated 2-2alpha entry.
    """
    _check_werner(n, alpha)
    case1 = np.full((n, n), -2.0 * alpha)
    np.fill_diagonal(case1, 2.0 - 2.0 * alpha)
    case2 = np.zeros((n, n))
    case2[: n - 1, : n - 1] = 2.0 * alpha
    np.fill_diagonal(case2, 2.0 + 2.0 * alpha)
    case2[n - 1, n - 1] = 2.0 - 2.0 * alpha
    return case1, case2


def werner_lmi_min_eigs(n: int, alpha: float) -> tuple[float, float]:
    """Closed-form minimum eigenvalues of the two Werner LMIs."""
    _check_werner(n, alpha)
    case1 = min(2.0 - 2.0 * n * alpha, 2.0)
    case2 = min(2.0 + 2.0 * (n - 1.0) * alpha, 2.0, 2.0 - 2.0 * alpha)
    return case1, case2


def werner_classify(n: int, alpha: float) -> WernerClass:
    """Absolutely separable for |alpha| <= 1/n, not absolutely PPT outside
    [-1/(n-1), 1/n]; the band [-1/(n-1), -1/n) is open."""
    _check_werner(n, alpha)
    if -1.0 / n - THRESHOLD_SLACK <= alpha <= 1.0 / n + THRESHOLD_SLACK:
        return WernerClass.ABS_SEP
    if alpha > 1.0 / n or alpha < -1.0 / (n - 1.0) - THRESHOLD_SLACK:
        return WernerClass.NOT_ABS_PPT
    return WernerClass.UNKNOWN


def isotropic_threshold(n: int) -> float:
    """2/(2+n²): the isotropic state is absolutely separable iff alpha <= this."""
    return 2.0 / (2.0 + n * n)


def isotropic_classify(n: int, alpha: float) -> IsotropicClass:
    """Absolutely separable iff absolutely PPT iff alpha <= 2/(2+n²)."""
    _check_isotropic(n, alpha)
    if alpha <= isotropic_threshold(n) + THRESHOLD_SLACK:
        return IsotropicClass.ABS_SEP
    return IsotropicClass.NOT_ABS_PPT


# upb_lmi_matrix(p) = (p _UPB_LMI_SLOPE + _UPB_LMI_OFFSET) / 36, the offset
# added as the scalar formulas subtract it, so each entry is theirs to the bit
_UPB_LMI_SLOPE = np.array([[8.0, 9.0, 9.0], [9.0, 8.0, 9.0], [9.0, 9.0, -10.0]])
_UPB_LMI_OFFSET = np.array([[0.0, -9.0, -9.0], [-9.0, 0.0, -9.0], [-9.0, -9.0, 18.0]])


def upb_lmi_matrix(p) -> np.ndarray:
    """The (coinciding) LMIs of the UPB mixture, (1/36)[[8p, 9p-9, ...]];
    (3, 3) for a scalar p, (..., 3, 3) for an array of them."""
    p = _check_upb_p(p)[..., np.newaxis, np.newaxis]
    return (p * _UPB_LMI_SLOPE + _UPB_LMI_OFFSET) / 36.0


# band edges of upb_classify: NOT_ABS_PPT below the first, ABS_PPT_AND_ABS_SEP from the second
_UPB_EDGES = np.array([UPB_ABS_PPT_THRESHOLD, UPB_ABS_SEP_THRESHOLD]) - THRESHOLD_SLACK
_UPB_BANDS = np.array(
    [UpbClass.NOT_ABS_PPT, UpbClass.ABS_PPT_ONLY_KNOWN, UpbClass.ABS_PPT_AND_ABS_SEP], dtype=object
)


def upb_classify(p):
    """Threshold trichotomy; the middle band is only known to be abs PPT. A
    UpbClass for a scalar p, an object array of them for an array."""
    return _UPB_BANDS[np.searchsorted(_UPB_EDGES, _check_upb_p(p), side="right")]
