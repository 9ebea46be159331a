"""Eigenvalue-based detection tests for entanglement witnesses.

A unit-trace witness is summarized by its largest eigenvalue mu1 and the
sum ell of its negative eigenvalues. The piecewise threshold curve gives,
for each ell in [-1/2, 0], the largest mu1 for which the witness provably
cannot detect entanglement in any absolutely PPT state; the guarantee is
certified by an explicit feasible point of the dual of the corresponding
witness-minimization SDP: detection_dual_certificate builds it as arrays
(mu, Z), and sdpsolve.verify_min_witness_certificate checks it against
sdpsolve.min_witness_problem in submatrix2x2 mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import matcore
from .errors import DomainError, ToolkitError, UnnormalizedWitness

# branch split points of the threshold curve
SPLIT_LOW = -1.0 / (2.0 * math.sqrt(2.0))   # approx -0.353553
SPLIT_HIGH = (1.0 - math.sqrt(2.0)) / 2.0   # approx -0.207107

_DOMAIN_SLACK = 1e-12
TRACE_TOL = 1e-9  # |tr W - 1| a witness may have; summarize does not renormalize
THRESHOLD_SLACK = 1e-12  # mu1 this far above the threshold is rounding: still Guaranteed
# schmidt_trace_bound's checks. A family of k operators is HS-orthonormal while its
# Gram matrix G has ||G - I||_F <= k HS_ORTHONORMAL_TOL. Its trace sum may exceed
# sqrt(mn) by TRACE_BOUND_SLACK: A = I/sqrt(m), B = I/sqrt(n) reach the bound, and
# their computed sum rounds a few ulps either side of it. A family inside
# HS_ORTHONORMAL_TOL can still exceed the slack, and is refused: A = B =
# sqrt(1 + e) I/sqrt(2) at m = n = 2 exceeds sqrt(mn) by 2e
HS_ORTHONORMAL_TOL = 1e-8
TRACE_BOUND_SLACK = 1e-8


class DetectionVerdict(Enum):
    GUARANTEED = "Guaranteed"       # cannot detect in any absolutely PPT state
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class WitnessSummary:
    mu1: float        # largest eigenvalue
    ell: float        # sum of negative eigenvalues, equals (1 - ||W||_tr)/2
    neg_count: int
    trace: float


def detection_threshold(x):
    """Largest safe witness eigenvalue as a function of the negative-sum x.

    Nondecreasing on [-1/2, 0] with range in [1/2, 1]; jumps at SPLIT_HIGH.
    A float for a scalar x, an array of them for an array, each entry to the
    bit what the scalar call gives. Raises DomainError naming the first x
    outside [-1/2, 0] by more than _DOMAIN_SLACK, or NaN.
    """
    arr = np.asarray(x, dtype=np.float64)
    inside = (-0.5 - _DOMAIN_SLACK <= arr) & (arr <= _DOMAIN_SLACK)
    if not inside.all():
        bad = float(arr) if arr.ndim == 0 else float(arr[~inside][0])
        raise DomainError(f"threshold argument {bad} outside [-1/2, 0]")
    arr = np.minimum(0.0, np.maximum(-0.5, arr))
    low = (np.sqrt(np.maximum(0.0, 1.0 - 4.0 * arr * arr)) - 2.0 * arr + 1.0) / 4.0
    high = (np.sqrt(np.maximum(0.0, 1.0 + 4.0 * arr - 4.0 * arr * arr)) - 2.0 * arr + 3.0) / 4.0
    middle = (1.0 + math.sqrt(2.0)) / 4.0
    f = np.where(arr <= SPLIT_LOW, low, np.where(arr < SPLIT_HIGH, middle, high))
    return float(f) if f.ndim == 0 else f


def summarize(w) -> WitnessSummary:
    """Eigenvalue summary of a unit-trace Hermitian witness."""
    eigs = matcore.eigvalsh(w)
    trace = float(np.sum(eigs))
    if abs(trace - 1.0) > TRACE_TOL:
        raise UnnormalizedWitness(f"witness trace is {trace:.12g}, expected 1")
    neg = eigs[eigs < 0.0]
    ell = float(np.sum(neg))
    # count only eigenvalues beyond the eigensolver's backward error, size*eps*max|lambda|
    noise = eigs.size * np.finfo(np.float64).eps * float(np.max(np.abs(eigs)))
    return WitnessSummary(
        mu1=float(eigs[0]), ell=ell, neg_count=int(np.count_nonzero(neg < -noise)), trace=trace
    )


def cannot_detect_abs_ppt(ws: WitnessSummary) -> DetectionVerdict:
    """Guaranteed iff ell >= -1/2 and mu1 <= threshold(ell).

    Inconclusive never asserts detectability; beyond the threshold the
    guarantee simply does not apply.
    """
    if not ws.ell >= -0.5 - _DOMAIN_SLACK:
        return DetectionVerdict.INCONCLUSIVE
    if ws.mu1 <= detection_threshold(ws.ell) + THRESHOLD_SLACK:
        return DetectionVerdict.GUARANTEED
    return DetectionVerdict.INCONCLUSIVE


def extremal_witness_spectrum(ell: float, mu1: float, mn: int) -> np.ndarray:
    """Worst-case witness spectrum with the given (ell, mu1) summary.

    (mu1, mu2, mu3, 0, ..., 0, ell) with mu2 = min(mu1, 1-mu1-ell) and
    mu3 = max(0, 1-2*mu1-ell); sums to 1 by construction.
    """
    if mn < 4:
        raise ValueError("extremal spectrum construction needs mn >= 4")
    mu2 = min(mu1, 1.0 - mu1 - ell)
    mu3 = max(0.0, 1.0 - 2.0 * mu1 - ell)
    spec = np.zeros(mn)
    spec[0], spec[1], spec[2], spec[-1] = mu1, mu2, mu3, ell
    return spec


def detection_dual_certificate(ell: float, mn: int) -> tuple[np.ndarray, np.ndarray]:
    """Analytic dual feasible point of the witness minimization at mu1 = f(ell).

    Returns (mu, Z): the extremal witness spectrum of length mn it certifies,
    and the 2x2 dual block [[aa, bb], [bb, cc]] of the submatrix2x2 LMI of
    sdpsolve.min_witness_problem, which verify_min_witness_certificate turns
    into the lower bound 0 on the overlap. detection_threshold raises the
    DomainError of an ell outside [-1/2, 0]. The middle branch delegates to
    the low branch at SPLIT_LOW (monotonicity of the threshold covers the gap).
    """
    mu1 = detection_threshold(ell)
    if SPLIT_LOW < ell < SPLIT_HIGH:  # middle branch: the low branch's point at SPLIT_LOW
        ell, mu1 = SPLIT_LOW, detection_threshold(SPLIT_LOW)
    if ell <= SPLIT_LOW:  # low branch
        aa, bb, cc = (ell + 2.0 * mu1) / 2.0, -ell / 2.0, (1.0 - 2.0 * mu1 - ell) / 2.0
    else:  # high branch
        aa, bb, cc = mu1 / 2.0, (1.0 - mu1 - ell) / 2.0, (1.0 - mu1) / 2.0
    return extremal_witness_spectrum(ell, mu1, mn), np.array([[aa, bb], [bb, cc]])


def realignment_witness_bounds(m: int, n: int) -> tuple[float, float]:
    """(lower bound on ell, upper bound on mu1) for realignment witnesses.

    Valid for every unit-trace witness of the form
    (I - sum_i A_i ⊗ B_i)/Tr(...) with HS-orthonormal families.
    """
    if m < 2 or n < 2:
        raise ValueError("bounds require m, n >= 2")
    root = math.sqrt(m * n)
    ell_lower = (1.0 - math.sqrt(2.0 * root / (root - 1.0))) / 2.0
    mu1_upper = math.sqrt(2.0 / (m * n - root))
    return ell_lower, mu1_upper


def schmidt_trace_bound(a_ops, b_ops) -> float:
    """|Tr(sum_i A_i ⊗ B_i)| for HS-orthonormal families; at most sqrt(mn)."""
    if len(a_ops) != len(b_ops) or not a_ops:
        raise ValueError("need equally many nonzero left and right operators")
    for ops in (a_ops, b_ops):
        k = len(ops)
        gram = np.array(
            [[np.trace(ops[i].conj().T @ ops[j]) for j in range(k)] for i in range(k)]
        )
        if np.linalg.norm(gram - np.eye(k)) > HS_ORTHONORMAL_TOL * k:
            raise ValueError("operator family is not Hilbert-Schmidt orthonormal")
    m = a_ops[0].shape[0]
    n = b_ops[0].shape[0]
    value = abs(sum(np.trace(a) * np.trace(b) for a, b in zip(a_ops, b_ops)))
    bound = math.sqrt(m * n)
    if value > bound + TRACE_BOUND_SLACK:
        raise ToolkitError(
            f"trace bound violated: {value:.12g} > sqrt(mn) = {bound:.12g}"
        )
    return float(value)
