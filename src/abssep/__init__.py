"""Spectral separability toolkit.

Decides absolute PPT from eigenvalues (exact for min{m,n} <= 3), analyzes
entanglement witnesses by their extreme eigenvalues, verifies analytic SDP
certificates for the Choi / generalized Choi / Breuer-Hall maps and the
realignment criterion, and classifies Werner, isotropic and UPB-mixture
state families against their closed-form thresholds.

``import abssep`` loads no submodule. Each of the seven submodules, and each
name below re-exported from one, is loaded on first access through the
module ``__getattr__`` (PEP 562), so a process pays only for what it uses.
"""

import importlib

__version__ = "0.1.0"

# each submodule, with the names re-exported from it (families has none)
_EXPORTS = {
    "absppt": "AbsPptVerdict Spectrum is_abs_ppt sample_abs_ppt_spectrum",
    "bipartite": "haar_unitary kron max_entangled operator_schmidt partial_trace"
                 " partial_transpose realign swap_operator vector_schmidt",
    "families": "",
    "matcore": "eigh eigvalsh is_psd schatten_norm",
    "posmaps": "MapSpec apply_id_tensor breuer_hall_map choi_map choi_matrix dual_map"
               " generalized_choi_map reduction_map witness_from_map witness_from_schmidt",
    "sdpsolve": "diamond_norm_ub max_eig_ub min_witness_over_abs_ppt solve",
    "witness": "DetectionVerdict WitnessSummary cannot_detect_abs_ppt detection_threshold"
               " summarize",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    """Import a submodule, or the submodule that defines a re-exported name,
    and bind the result here, so that only the first access comes here."""
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
