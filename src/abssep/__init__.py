"""Spectral separability toolkit.

Decides absolute PPT from eigenvalues (exact for min{m,n} <= 3), analyzes
entanglement witnesses by their extreme eigenvalues, verifies analytic SDP
certificates for the Choi / generalized Choi / Breuer-Hall maps and the
realignment criterion, and classifies Werner, isotropic and UPB-mixture
state families against their closed-form thresholds.
"""

from . import absppt, bipartite, families, matcore, posmaps, sdpsolve, witness
from .absppt import AbsPptVerdict, Spectrum, is_abs_ppt, sample_abs_ppt_spectrum
from .bipartite import (
    haar_unitary,
    kron,
    max_entangled,
    operator_schmidt,
    partial_trace,
    partial_transpose,
    realign,
    swap_operator,
    vector_schmidt,
)
from .matcore import eigh, eigvalsh, is_psd, schatten_norm
from .posmaps import (
    MapSpec,
    apply_id_tensor,
    breuer_hall_map,
    choi_map,
    choi_matrix,
    dual_map,
    generalized_choi_map,
    reduction_map,
    witness_from_map,
    witness_from_schmidt,
)
from .sdpsolve import diamond_norm_ub, max_eig_ub, min_witness_over_abs_ppt, solve
from .witness import (
    DetectionVerdict,
    WitnessSummary,
    cannot_detect_abs_ppt,
    detection_threshold,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "AbsPptVerdict",
    "DetectionVerdict",
    "MapSpec",
    "Spectrum",
    "WitnessSummary",
    "absppt",
    "apply_id_tensor",
    "bipartite",
    "breuer_hall_map",
    "cannot_detect_abs_ppt",
    "choi_map",
    "choi_matrix",
    "detection_threshold",
    "diamond_norm_ub",
    "dual_map",
    "eigh",
    "eigvalsh",
    "families",
    "generalized_choi_map",
    "haar_unitary",
    "is_abs_ppt",
    "is_psd",
    "kron",
    "matcore",
    "max_eig_ub",
    "max_entangled",
    "min_witness_over_abs_ppt",
    "operator_schmidt",
    "partial_trace",
    "partial_transpose",
    "posmaps",
    "realign",
    "reduction_map",
    "sample_abs_ppt_spectrum",
    "schatten_norm",
    "sdpsolve",
    "solve",
    "summarize",
    "swap_operator",
    "vector_schmidt",
    "witness",
    "witness_from_map",
    "witness_from_schmidt",
]
