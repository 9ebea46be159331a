"""Spectral tests for the absolutely PPT property.

For min{m,n} <= 3 the finitely many linear matrix inequalities in the
sorted eigenvalues decide absolute PPT exactly (one 2x2 matrix for
min = 2, two 3x3 matrices for min = 3). For min{m,n} >= 4 only the
universal top-left 2x2 necessary condition is evaluated and the verdict
is downgraded accordingly; the exact families for large dimensions are
deliberately not constructed here.

build_lmis states each family once (Hildebrand, PRA 76, 052325, 2007), as
an LmiSet: one read-only (g, mn, q, q) stack whose LMI i at a spectrum is
sum_j values[j] coeffs[i, j]. Every verdict evaluates it with one stacked
eigvalsh, and sdpsolve.min_witness_problem takes the same array as its LMI
block.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import bipartite, matcore
from .errors import InvalidDim, InvalidState, Unsupported

LMI_PSD_TOL = 1e-10  # absolute tolerance on LMI minimum eigenvalues
SPECTRUM_CLAMP_TOL = 1e-12  # eigenvalues down to -this are a PSD state's rounding, clipped to 0
SPECTRUM_SUM_TOL = 1e-10  # |sum - 1| a Spectrum may keep: JSON decimals and rounding
GB_RADIUS_SLACK = 1e-12  # rounding of gurvits_barnum_value (~mn u) still inside radius 1
RANK_ZERO_TOL = 1e-12  # a least eigenvalue at or below this counts as 0 in the rank logic


class AbsPptVerdict(Enum):
    YES = "Yes"
    NO = "No"
    NECESSARY_PASSED_ONLY = "NecessaryPassedOnly"


class RankVerdict(Enum):
    ABSOLUTELY_SEPARABLE = "AbsolutelySeparable"
    FULL_RANK_REQUIRED = "FullRankRequired"


@dataclass(frozen=True)
class Spectrum:
    """Descending, nonnegative eigenvalue list of a state on M_m ⊗ M_n."""

    m: int
    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InvalidDim(f"dims must be positive, got ({self.m}, {self.n})")
        v = np.asarray(self.values, dtype=np.float64).ravel()
        if v.size != self.m * self.n:
            raise InvalidState(f"expected {self.m * self.n} eigenvalues, got {v.size}")
        if not np.all(np.isfinite(v)):
            raise InvalidState("spectrum has non-finite entries")
        if np.min(v) < -SPECTRUM_CLAMP_TOL:
            raise InvalidState(f"negative eigenvalue {np.min(v):.3e} below clamp tolerance")
        v = np.clip(v, 0.0, None)
        v = np.sort(v)[::-1]
        if abs(float(np.sum(v)) - 1.0) > SPECTRUM_SUM_TOL:
            raise InvalidState(f"spectrum sums to {np.sum(v):.12g}, expected 1")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_state(cls, rho, m: int, n: int) -> "Spectrum":
        return cls(m, n, matcore.eigvalsh(bipartite._check_dims(rho, m, n)))

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "values": [float(x) for x in self.values]}

    @classmethod
    def from_json(cls, obj: dict) -> "Spectrum":
        try:
            return cls(matcore._json_int(obj["m"]), matcore._json_int(obj["n"]), obj["values"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise InvalidState(f"malformed spectrum JSON: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json())


def _lmi(total: int, diag: tuple[int, ...], off: dict) -> np.ndarray:
    """One spectral LMI as its (total, q, q) coefficients: 2*lambda_j on the
    diagonal, lambda_j - lambda_k off it.

    diag[i] = j puts 2*lambda_j at (i, i); off[(r, c)] = (j, k) puts
    lambda_j - lambda_k at (r, c) and (c, r), with 1-based positions in the
    descending spectrum. coeffs[j, r, c] is the coefficient of lambda_{j+1}
    in entry (r, c).
    """
    q = len(diag)
    coeffs = np.zeros((total, q, q))
    for i, idx in enumerate(diag):
        coeffs[idx - 1, i, i] = 2.0
    for (r, c), (plus, minus) in off.items():
        coeffs[plus - 1, r, c] = coeffs[plus - 1, c, r] = 1.0
        coeffs[minus - 1, r, c] = coeffs[minus - 1, c, r] = -1.0
    return coeffs


@dataclass(frozen=True)
class LmiSet:
    """g spectral LMIs of one size q on an mn-entry spectrum, as one read-only
    (g, mn, q, q) stack: LMI i at a spectrum is sum_j values[j] coeffs[i, j].
    The same array is the LMI block of sdpsolve.min_witness_problem."""

    exact: bool          # False: only the 2x2 necessary condition
    coeffs: np.ndarray   # (g, mn, q, q)

    def __post_init__(self):
        self.coeffs.flags.writeable = False

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """The (g, q, q) stack of the LMIs at values."""
        g, total, q, _ = self.coeffs.shape
        return (values @ self.coeffs.reshape(g, total, q * q)).reshape(g, q, q)


@functools.cache
def necessary_lmis(m: int, n: int) -> LmiSet:
    """The universal top-left 2x2 condition on an m x n spectrum; the empty
    family when min{m,n} = 1, where every state is separable (this holds every
    mn < 3, whose spectrum has no lambda_{mn-2})."""
    total = m * n
    if min(m, n) == 1:
        return LmiSet(False, np.zeros((0, total, 2, 2)))
    return LmiSet(False, _lmi(total, (total, total - 2), {(0, 1): (total - 1, 1)})[None])


@functools.cache
def build_lmis(m: int, n: int) -> LmiSet:
    """The LMI family deciding absolute PPT (exact for min{m,n} <= 3)."""
    if m < 1 or n < 1:
        raise InvalidDim(f"dims must be positive, got ({m}, {n})")
    total = m * n
    q = min(m, n)
    if q == 1:
        return LmiSet(True, np.zeros((0, total, 1, 1)))
    if q == 2:
        return LmiSet(True, necessary_lmis(m, n).coeffs)
    if q == 3:
        return LmiSet(True, np.stack([
            _lmi(total, (total, total - 2, total - 5),
                 {(0, 1): (total - 1, 1), (0, 2): (total - 3, 2), (1, 2): (total - 4, 3)}),
            _lmi(total, (total, total - 3, total - 5),
                 {(0, 1): (total - 1, 1), (0, 2): (total - 2, 2), (1, 2): (total - 4, 3)}),
        ]))
    return necessary_lmis(m, n)


def lmi_min_eigenvalues(s: Spectrum) -> np.ndarray:
    return matcore.eigvalsh(build_lmis(s.m, s.n).evaluate(s.values))[:, -1]


def lmi_verdict(s: Spectrum, mins: np.ndarray, tol: float = LMI_PSD_TOL) -> AbsPptVerdict:
    """The verdict on s from its LMI minimum eigenvalues, mins =
    lmi_min_eigenvalues(s): No when one is below -tol, else Yes where the LMIs
    are exact and NecessaryPassedOnly where they are not."""
    if mins.size and float(np.min(mins)) < -tol:
        return AbsPptVerdict.NO
    return AbsPptVerdict.YES if build_lmis(s.m, s.n).exact else AbsPptVerdict.NECESSARY_PASSED_ONLY


def is_abs_ppt(s: Spectrum, tol: float = LMI_PSD_TOL) -> AbsPptVerdict:
    """Exact Yes/No for min{m,n} <= 3; NecessaryPassedOnly above that."""
    return lmi_verdict(s, lmi_min_eigenvalues(s), tol)


def necessary_2x2(s: Spectrum, tol: float = LMI_PSD_TOL) -> bool:
    """The universal top-left 2x2 condition, necessary for absolute PPT;
    vacuous when min{m,n} = 1."""
    lam_min = matcore.eigvalsh(necessary_lmis(s.m, s.n).evaluate(s.values))[:, -1]
    return bool((lam_min >= -tol).all())


def gurvits_barnum_value(x, m: int, n: int) -> float:
    """min over scalings s>0 of ||I - X/s||_F, in closed form.

    The minimizer is s = ||X||_F² / Tr(X); a value <= 1 certifies that X is
    proportional to an absolutely separable state.
    """
    x = matcore.hermitize(bipartite._check_dims(x, m, n))
    tr = float(np.trace(x).real)
    if tr <= 0.0:
        raise InvalidState("operator must have positive trace")
    fro2 = float(np.linalg.norm(x)) ** 2
    return float(np.sqrt(max(0.0, m * n - tr * tr / fro2)))


def gurvits_barnum_abs_sep(x, m: int, n: int) -> bool:
    """True certifies absolute separability (ball of radius 1 around I)."""
    return gurvits_barnum_value(x, m, n) <= 1.0 + GB_RADIUS_SLACK


def rank_deficient_classification(s: Spectrum) -> RankVerdict:
    """Rank logic: when min{m,n} >= 2, a rank-deficient spectrum can only be
    absolutely PPT if it is the uniform rank-(mn-1) projector spectrum, which
    sits inside the separable ball; when min{m,n} = 1 every spectrum is
    absolutely separable. Full-rank spectra carry no such shortcut."""
    if s.values[-1] > RANK_ZERO_TOL:
        return RankVerdict.FULL_RANK_REQUIRED
    if not necessary_2x2(s):
        raise InvalidState(
            "rank-deficient spectrum fails the 2x2 necessary condition; "
            "it is not absolutely PPT"
        )
    return RankVerdict.ABSOLUTELY_SEPARABLE


def sample_abs_ppt_spectrum(m: int, n: int, seed: int | np.random.Generator) -> Spectrum:
    """Random spectrum passing the exact absolute-PPT test (min{m,n} <= 3).

    A flat-Dirichlet draw is mixed toward the uniform spectrum with a weight
    drawn uniformly below the largest admissible one, which covers the
    boundary of the feasible region. The LMIs are linear in the spectrum and
    equal (2/mn)·I at the uniform one, so along the mix each LMI's minimum
    eigenvalue is (1 − β)·2/mn + β·λ_min(L(draw)), and the largest weight
    keeping every one >= −LMI_PSD_TOL comes in closed form from one LMI evaluation.
    """
    if min(m, n) > 3:
        raise Unsupported("exact absolute-PPT sampling needs min{m,n} <= 3")
    rng = seed if isinstance(seed, np.random.Generator) else bipartite.rng_stream(seed)
    total = m * n
    uniform = np.full(total, 1.0 / total)
    draw = np.sort(rng.dirichlet(np.ones(total)))[::-1]
    at_uniform = 2.0 / total
    slope = at_uniform - lmi_min_eigenvalues(Spectrum(m, n, draw))
    falling = slope[slope > 0.0]
    beta_ok = min(1.0, float(np.min((at_uniform + LMI_PSD_TOL) / falling))) if falling.size else 1.0
    beta = rng.uniform(0.0, beta_ok)
    return Spectrum(m, n, (1.0 - beta) * uniform + beta * draw)
