"""Eigenvalue-based detection tests for entanglement witnesses.

A unit-trace witness is summarized by its largest eigenvalue mu1 and the
sum ell of its negative eigenvalues. The piecewise threshold curve gives,
for each ell in [-1/2, 0], the largest mu1 for which the witness provably
cannot detect entanglement in any absolutely PPT state; the guarantee is
certified by an explicit feasible point of the dual of the corresponding
witness-minimization SDP (see sdpsolve.min_witness_over_abs_ppt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import matcore
from .errors import CertificateRejected, DomainError, ToolkitError, UnnormalizedWitness

# branch split points of the threshold curve
SPLIT_LOW = -1.0 / (2.0 * math.sqrt(2.0))   # approx -0.353553
SPLIT_HIGH = (1.0 - math.sqrt(2.0)) / 2.0   # approx -0.207107

_DOMAIN_SLACK = 1e-12


class DetectionVerdict(Enum):
    GUARANTEED = "Guaranteed"       # cannot detect in any absolutely PPT state
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class WitnessSummary:
    mu1: float        # largest eigenvalue
    ell: float        # sum of negative eigenvalues, equals (1 - ||W||_tr)/2
    neg_count: int
    trace: float


@dataclass(frozen=True)
class DetectionDualCertificate:
    """Feasible point (t=0) of the dual witness-minimization SDP.

    ell/mu1 are the parameters the certificate is verified against; for the
    middle branch they are the delegated values at the low split point.
    """

    case: str       # 'a', 'b' or 'c'
    ell: float
    mu1: float
    t: float
    aa: float
    bb: float
    cc: float
    y: np.ndarray   # y_1 .. y_{mn-1}


def detection_threshold(x: float) -> float:
    """Largest safe witness eigenvalue as a function of the negative-sum x.

    Nondecreasing on [-1/2, 0] with range in [1/2, 1]; jumps at SPLIT_HIGH.
    """
    x = float(x)
    if x < -0.5 - _DOMAIN_SLACK or x > _DOMAIN_SLACK:
        raise DomainError(f"threshold argument {x} outside [-1/2, 0]")
    x = min(0.0, max(-0.5, x))
    if x <= SPLIT_LOW:
        return (math.sqrt(max(0.0, 1.0 - 4.0 * x * x)) - 2.0 * x + 1.0) / 4.0
    if x < SPLIT_HIGH:
        return (1.0 + math.sqrt(2.0)) / 4.0
    return (math.sqrt(max(0.0, 1.0 + 4.0 * x - 4.0 * x * x)) - 2.0 * x + 3.0) / 4.0


def summarize(w, trace_tol: float = 1e-9) -> WitnessSummary:
    """Eigenvalue summary of a unit-trace Hermitian witness."""
    eigs = matcore.eigvalsh(w)
    trace = float(np.sum(eigs))
    if abs(trace - 1.0) > trace_tol:
        raise UnnormalizedWitness(f"witness trace is {trace:.12g}, expected 1")
    neg = eigs[eigs < 0.0]
    ell = float(np.sum(neg))
    ell_from_trace_norm = (1.0 - float(np.sum(np.abs(eigs)))) / 2.0
    if abs(ell - ell_from_trace_norm) > 1e-9:
        raise ToolkitError("negative-eigenvalue sum disagrees with trace-norm formula")
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
    if ws.ell < -0.5 - _DOMAIN_SLACK:
        return DetectionVerdict.INCONCLUSIVE
    if ws.mu1 <= detection_threshold(ws.ell) + 1e-12:
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


def detection_dual_certificate(ell: float, mu1: float, mn: int) -> DetectionDualCertificate:
    """Analytic dual feasible point with t = 0 at the threshold mu1 = f(ell).

    The middle branch delegates to the low branch at SPLIT_LOW (monotonicity
    of the threshold covers the gap).
    """
    if not (-0.5 - _DOMAIN_SLACK <= ell <= _DOMAIN_SLACK):
        raise DomainError(f"ell = {ell} outside [-1/2, 0]")
    if abs(mu1 - detection_threshold(ell)) > 1e-9:
        raise DomainError("certificate is only defined on the threshold mu1 = f(ell)")
    if ell <= SPLIT_LOW:
        case = "a"
    elif ell < SPLIT_HIGH:
        case, ell, mu1 = "b", SPLIT_LOW, detection_threshold(SPLIT_LOW)
    else:
        case = "c"

    y = np.zeros(mn - 1)
    if case in ("a", "b"):
        aa = (ell + 2.0 * mu1) / 2.0
        bb = -ell / 2.0
        cc = (1.0 - 2.0 * mu1 - ell) / 2.0
        y[mn - 2] = mu1 + ell
    else:
        aa = mu1 / 2.0
        bb = (1.0 - mu1 - ell) / 2.0
        cc = (1.0 - mu1) / 2.0
        y[: mn - 3] = 1.0 - mu1
    return DetectionDualCertificate(
        case=case, ell=ell, mu1=mu1, t=0.0, aa=aa, bb=bb, cc=cc, y=y
    )


def verify_detection_certificate(
    cert: DetectionDualCertificate, mn: int, tol: float = 1e-10
) -> float:
    """Check every dual constraint; returns the worst equality residual.

    Raises CertificateRejected on any sign/PSD violation, so a verified
    certificate proves (weak duality) that no witness with the certified
    summary attains a negative overlap with an absolutely PPT spectrum.
    """
    if mn < 4:
        raise CertificateRejected("dual certificate verification needs mn >= 4")
    ell, mu1, t = cert.ell, cert.mu1, cert.t
    y = np.asarray(cert.y, dtype=np.float64)
    if y.size != mn - 1:
        raise CertificateRejected(f"expected {mn - 1} multipliers, got {y.size}")
    if np.min(y) < -1e-12:
        raise CertificateRejected(f"negative multiplier y = {np.min(y):.3e}")
    block = np.array([[cert.aa, cert.bb], [cert.bb, cert.cc]])
    lam_min = float(matcore.eigvalsh(block)[-1])
    if lam_min < -tol:
        raise CertificateRejected(f"2x2 dual block not PSD (min eig {lam_min:.3e})")

    mu2, mu3 = extremal_witness_spectrum(ell, mu1, mn)[1:3]
    # y[i] stores y_{i+1}
    residuals = [
        t - 2.0 * cert.bb + y[0] - ell,
        t + 2.0 * cert.bb + y[mn - 2] - y[mn - 3] - mu2,
        t + 2.0 * cert.cc + y[mn - 3] - y[mn - 4] - mu3,
    ]
    residuals.extend(t + y[i + 1] - y[i] for i in range(mn - 4))
    slack = mu1 - (t + 2.0 * cert.aa - y[mn - 2])
    if slack < -tol:
        raise CertificateRejected(f"inequality constraint violated by {slack:.3e}")
    residual = float(np.max(np.abs(residuals)))
    if residual > tol:
        raise CertificateRejected(f"equality residual {residual:.3e} exceeds {tol:.1e}")
    return residual


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


def schmidt_trace_bound(a_ops, b_ops, ortho_tol: float = 1e-8) -> float:
    """|Tr(sum_i A_i ⊗ B_i)| for HS-orthonormal families; at most sqrt(mn)."""
    if len(a_ops) != len(b_ops) or not a_ops:
        raise ValueError("need equally many nonzero left and right operators")
    for ops in (a_ops, b_ops):
        k = len(ops)
        gram = np.array(
            [[np.trace(ops[i].conj().T @ ops[j]) for j in range(k)] for i in range(k)]
        )
        if np.linalg.norm(gram - np.eye(k)) > ortho_tol * k:
            raise ValueError("operator family is not Hilbert-Schmidt orthonormal")
    m = a_ops[0].shape[0]
    n = b_ops[0].shape[0]
    value = abs(sum(np.trace(a) * np.trace(b) for a, b in zip(a_ops, b_ops)))
    bound = math.sqrt(m * n)
    if value > bound + 1e-8:
        raise ToolkitError(
            f"trace bound violated: {value:.12g} > sqrt(mn) = {bound:.12g}"
        )
    return float(value)
