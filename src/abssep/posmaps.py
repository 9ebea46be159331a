"""Positive linear maps as first-class objects.

Ships the maps used throughout the toolkit: identity, transpose, the
reduction map, the Choi map on M_3, its two-parameter generalization
Phi_{b,c} (with a := 2-b-c), and the Breuer-Hall map on even dimensions.
Each map exposes a closed-form action; Choi matrices, duals and
id ⊗ map applications are materialized on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bipartite, matcore
from .errors import DegenerateWitness, InvalidDim, InvalidMatrix, InvalidVector

BC_PREDICATE_TOL = 1e-9


def breuer_hall_default_v(n: int) -> np.ndarray:
    """The anti-diagonal skew-symmetric unitary (+1 top half, -1 bottom half)."""
    if n < 4 or n % 2 != 0:
        raise InvalidDim("Breuer-Hall dimension must be even and >= 4")
    v = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        v[i, n - 1 - i] = 1.0 if i < n // 2 else -1.0
    return v


@dataclass(frozen=True)
class MapSpec:
    """A positive linear map given by kind and parameters; dims are equal in/out."""

    kind: str
    dim: int
    b: float = 0.0
    c: float = 0.0
    v: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in {
            "identity", "transpose", "reduction", "choi",
            "generalized_choi", "breuer_hall",
        }:
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.dim < 1:
            raise InvalidDim("map dimension must be positive")
        if self.kind == "choi" and self.dim != 3:
            raise InvalidDim("the Choi map lives on M_3")
        if self.kind == "generalized_choi":
            if self.dim != 3:
                raise InvalidDim("generalized Choi maps live on M_3")
            if not (math.isfinite(self.b) and math.isfinite(self.c)):
                raise ValueError(
                    f"generalized Choi parameters must be finite, got b={self.b}, c={self.c}"
                )
            if self.b < 0 or self.c < 0:
                raise ValueError("generalized Choi parameters must satisfy b, c >= 0")
        if self.kind == "breuer_hall":
            n = self.dim
            if n < 4 or n % 2 != 0:
                raise InvalidDim("Breuer-Hall dimension must be even and >= 4")
            v = self.v if self.v is not None else breuer_hall_default_v(n)
            v = matcore.as_complex_matrix(v)
            if v.shape != (n, n):
                raise InvalidMatrix("Breuer-Hall V has the wrong shape")
            if np.linalg.norm(v.T + v) > 1e-10:
                raise InvalidMatrix("Breuer-Hall V must be skew-symmetric")
            if np.linalg.norm(v.conj().T @ v - np.eye(n)) > 1e-10:
                raise InvalidMatrix("Breuer-Hall V must be unitary")
            object.__setattr__(self, "v", v)

    @property
    def in_dim(self) -> int:
        return self.dim

    @property
    def out_dim(self) -> int:
        return self.dim


def identity_map(n: int) -> MapSpec:
    return MapSpec("identity", n)


def transpose_map(n: int) -> MapSpec:
    return MapSpec("transpose", n)


def reduction_map(n: int) -> MapSpec:
    """X -> (Tr(X) I - X) / (n - 1); on M_3 this equals Phi_{1,1}."""
    if n < 2:
        raise InvalidDim("reduction map needs n >= 2")
    return MapSpec("reduction", n)


def choi_map() -> MapSpec:
    return MapSpec("choi", 3)


def generalized_choi_map(b: float, c: float) -> MapSpec:
    return MapSpec("generalized_choi", 3, b=float(b), c=float(c))


def breuer_hall_map(n: int, v: np.ndarray | None = None) -> MapSpec:
    return MapSpec("breuer_hall", n, v=v)


def _act(phis, x: np.ndarray) -> np.ndarray:
    """The closed-form action of a group of maps of one kind and dimension on a
    stack x[k, ..., d, d]: phis[k] maps every matrix of x[k]. Per-map parameters
    are broadcast over the stack, so the whole group takes one pass."""
    kind = phis[0].kind
    if kind == "identity":
        return x.copy()
    if kind == "transpose":
        return np.swapaxes(x, -1, -2).copy()
    per_map = (len(phis),) + (1,) * (x.ndim - 3)  # one value per map, broadcast over x[k]
    if kind in {"choi", "generalized_choi"}:
        bc = [(1.0, 0.0) if phi.kind == "choi" else (phi.b, phi.c) for phi in phis]
        b, c = np.array(bc).T.reshape((2,) + per_map)
        a = 2.0 - b - c
        d0, d1, d2 = x[..., 0, 0], x[..., 1, 1], x[..., 2, 2]
        out = -x
        out[..., 0, 0] = a * d0 + b * d1 + c * d2
        out[..., 1, 1] = c * d0 + a * d1 + b * d2
        out[..., 2, 2] = b * d0 + c * d1 + a * d2
        return out / 2.0
    n = phis[0].dim
    trace_part = np.trace(x, axis1=-2, axis2=-1)[..., np.newaxis, np.newaxis] * np.eye(n)
    if kind == "reduction":
        return (trace_part - x) / (n - 1)
    if kind == "breuer_hall":
        v = np.stack([phi.v for phi in phis]).reshape(per_map + (n, n))
        vh = v.conj().swapaxes(-1, -2)
        return (trace_part - x - v @ np.swapaxes(x, -1, -2) @ vh) / (n - 2)
    raise AssertionError(kind)


def apply(phi: MapSpec, x) -> np.ndarray:
    """Apply the map's closed-form action to an in_dim x in_dim matrix."""
    x = matcore.as_complex_matrix(x)
    if x.shape != (phi.in_dim, phi.in_dim):
        raise InvalidDim(f"matrix shape {x.shape} does not match map dim {phi.in_dim}")
    return _act((phi,), x[np.newaxis])[0]


def dual_map(phi: MapSpec) -> MapSpec:
    """Adjoint in the Hilbert-Schmidt inner product: Tr(Phi(X)Y) = Tr(X Phi†(Y))."""
    if phi.kind in {"identity", "transpose", "reduction", "breuer_hall"}:
        return phi
    if phi.kind == "choi":
        return generalized_choi_map(0.0, 1.0)
    if phi.kind == "generalized_choi":
        return generalized_choi_map(phi.c, phi.b)
    raise AssertionError(phi.kind)


def _id_tensor(phis, x: np.ndarray, id_dim: int) -> np.ndarray:
    """(id_{id_dim} ⊗ phis[k])(X) for every operator X of a checked stack
    x[k, ..., id_dim·d, id_dim·d], applying each map to all d x d blocks at once."""
    d = phis[0].in_dim
    lead = x.shape[:-2]
    blocks = x.reshape(lead + (id_dim, d, id_dim, d)).swapaxes(-3, -2)
    out = _act(phis, blocks).swapaxes(-3, -2)
    return out.reshape(lead + (id_dim * d, id_dim * d))


def apply_id_tensor(phi: MapSpec, x, id_dim: int) -> np.ndarray:
    """(id_{id_dim} ⊗ Phi)(X), applying the map to every d x d block at once.

    Accepts a stack X[..., id_dim·d, id_dim·d] and maps each operator.
    """
    x = bipartite._check_dims(x, id_dim, phi.in_dim, stack=True)
    return _id_tensor((phi,), x[np.newaxis], id_dim)[0]


def choi_matrices(phis) -> np.ndarray:
    """J(Phi) = n (id_n ⊗ Phi)(|psi+><psi+|) of each map of a group of one kind
    and dimension, as a [k, n², n²] stack built in one pass."""
    kind, n = phis[0].kind, phis[0].in_dim
    if any((phi.kind, phi.in_dim) != (kind, n) for phi in phis):
        raise ValueError("choi_matrices takes maps of one kind and dimension")
    p = bipartite.max_entangled_projector(n)
    return n * _id_tensor(phis, np.broadcast_to(p, (len(phis),) + p.shape), n)


def choi_matrix(phi: MapSpec) -> np.ndarray:
    """J(Phi) = n (id_n ⊗ Phi)(|psi+><psi+|)."""
    return choi_matrices((phi,))[0]


def witness_from_map(phi: MapSpec, v) -> np.ndarray:
    """(id ⊗ Phi)(|v><v|); unit trace whenever the map is trace-preserving.

    Callers interested in the witness of a map's dual pass dual_map(phi).
    """
    v = np.asarray(v, dtype=np.complex128).ravel()
    if v.size % phi.in_dim != 0:
        raise InvalidVector("vector length is not a multiple of the map dimension")
    m = v.size // phi.in_dim
    v = bipartite._check_unit_vector(v, m * phi.in_dim)
    return apply_id_tensor(phi, np.outer(v, v.conj()), m)


def witness_from_schmidt(
    os: bipartite.OperatorSchmidt, m: int, n: int, k: int | None = None
) -> np.ndarray:
    """Unit-trace witness (I - sum_{i<=k} A_i ⊗ B_i) / Tr(...).

    Only the terms of the decomposition count: k defaults to the Schmidt
    rank, and the orthonormal completion at zero coefficients never enters.
    """
    rank = int(np.count_nonzero(os.coefficients))
    if k is None:
        k = rank
    if not 1 <= k <= rank:
        raise ValueError(f"k must be in 1..{rank} (the Schmidt rank), got {k}")
    w = np.eye(m * n, dtype=np.complex128)
    for i in range(k):
        w -= bipartite.kron(os.left_ops[i], os.right_ops[i])
    tr = np.trace(w)
    if abs(tr) < 1e-12:
        raise DegenerateWitness("witness trace vanishes; cannot normalize")
    return matcore.hermitize(w / tr)


def is_positive_bc(b: float, c: float) -> bool:
    """Positivity of Phi_{b,c}: b+c <= 1 or bc >= (b+c-1)²."""
    if b < 0 or c < 0:
        raise ValueError("parameters must satisfy b, c >= 0")
    return b + c <= 1.0 + BC_PREDICATE_TOL or b * c >= (b + c - 1.0) ** 2 - BC_PREDICATE_TOL


def is_completely_positive_bc(b: float, c: float) -> bool:
    """Phi_{b,c} is completely positive only at (0, 0)."""
    return abs(b) <= BC_PREDICATE_TOL and abs(c) <= BC_PREDICATE_TOL


def is_indecomposable_bc(b: float, c: float) -> bool:
    """Among positive non-CP members, indecomposability holds exactly for b != c."""
    return (
        is_positive_bc(b, c)
        and not is_completely_positive_bc(b, c)
        and abs(b - c) > BC_PREDICATE_TOL
    )


def is_exposed_bc(b: float, c: float) -> bool:
    """Exposedness: b != c, b+c > 1 and bc = (b+c-1)² (within tolerance)."""
    if b < 0 or c < 0:
        raise ValueError("parameters must satisfy b, c >= 0")
    return (
        abs(b - c) > BC_PREDICATE_TOL
        and b + c > 1.0 + BC_PREDICATE_TOL
        and abs(b * c - (b + c - 1.0) ** 2) <= BC_PREDICATE_TOL
    )
