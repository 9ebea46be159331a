"""Positive linear maps as first-class objects, one MapSpec each.

Ships the maps used throughout the toolkit: identity, transpose, the
reduction map, the two-parameter generalized Choi family Phi_{b,c} on M_3
(a := 2-b-c; the Choi map is Phi_{1,0}), which alone reads b and c, and the
Breuer-Hall map on even dimensions, which alone reads V. Each map exposes a
closed-form action; Choi matrices, duals and id ⊗ map applications are
materialized on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bipartite, matcore
from .errors import DegenerateWitness, InvalidDim, InvalidMatrix, InvalidVector

BC_PREDICATE_TOL = 1e-9

# kind: (the fields it reads, its rule on the dimension n >= 1, the error when n
# breaks that rule); a field that a kind does not read must keep its default
_KINDS = {
    "identity": ((), lambda n: True, None),
    "transpose": ((), lambda n: True, None),
    "reduction": ((), lambda n: n >= 2, "reduction map needs n >= 2"),
    "generalized_choi": (("b", "c"), lambda n: n == 3, "generalized Choi maps live on M_3"),
    "breuer_hall": (("v",), lambda n: n >= 4 and n % 2 == 0,
                    "Breuer-Hall dimension must be even and >= 4"),
}


def breuer_hall_default_v(n: int) -> np.ndarray:
    """The anti-diagonal skew-symmetric unitary (+1 top half, -1 bottom half)."""
    _, admits, message = _KINDS["breuer_hall"]
    if not admits(n):
        raise InvalidDim(message)
    v = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        v[i, n - 1 - i] = 1.0 if i < n // 2 else -1.0
    return v


@dataclass(frozen=True)
class MapSpec:
    """A positive linear map on M_dim, checked against its kind's rules in
    _KINDS: only generalized_choi reads b and c (finite, >= 0), and only
    breuer_hall reads v (a skew-symmetric unitary, default
    breuer_hall_default_v(dim))."""

    kind: str
    dim: int
    b: float = 0.0
    c: float = 0.0
    v: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        kind, n = self.kind, self.dim
        rule = _KINDS.get(kind)
        if rule is None:
            raise ValueError(f"unknown map kind {kind!r}")
        reads, admits, message = rule
        if n < 1:
            raise InvalidDim("map dimension must be positive")
        if not admits(n):
            raise InvalidDim(message)
        if (self.b or self.c) and "b" not in reads:
            raise ValueError(f"map kind {kind!r} reads no b or c, got b={self.b}, c={self.c}")
        if self.v is not None and "v" not in reads:
            raise ValueError(f"map kind {kind!r} reads no V")
        if kind == "generalized_choi":
            if not (math.isfinite(self.b) and math.isfinite(self.c)):
                raise ValueError(
                    f"generalized Choi parameters must be finite, got b={self.b}, c={self.c}")
            if self.b < 0 or self.c < 0:
                raise ValueError("generalized Choi parameters must satisfy b, c >= 0")
        elif kind == "breuer_hall":
            v = matcore.as_complex_matrix(breuer_hall_default_v(n) if self.v is None else self.v)
            if v.shape != (n, n):
                raise InvalidMatrix("Breuer-Hall V has the wrong shape")
            if np.linalg.norm(v.T + v) > 1e-10:
                raise InvalidMatrix("Breuer-Hall V must be skew-symmetric")
            if np.linalg.norm(v.conj().T @ v - np.eye(n)) > 1e-10:
                raise InvalidMatrix("Breuer-Hall V must be unitary")
            object.__setattr__(self, "v", v)


def identity_map(n: int) -> MapSpec:
    return MapSpec("identity", n)


def transpose_map(n: int) -> MapSpec:
    return MapSpec("transpose", n)


def reduction_map(n: int) -> MapSpec:
    """X -> (Tr(X) I - X) / (n - 1); on M_3 this equals Phi_{1,1}."""
    return MapSpec("reduction", n)


def choi_map() -> MapSpec:
    """The Choi map, Phi_{1,0} of the generalized Choi family."""
    return generalized_choi_map(1.0, 0.0)


def generalized_choi_map(b: float, c: float) -> MapSpec:
    return MapSpec("generalized_choi", 3, float(b), float(c))


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
    if kind == "generalized_choi":
        b, c = np.array([(phi.b, phi.c) for phi in phis]).T.reshape((2,) + per_map)
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
    """Apply the map's closed-form action to a dim x dim matrix."""
    x = matcore.as_complex_matrix(x)
    if x.shape != (phi.dim, phi.dim):
        raise InvalidDim(f"matrix shape {x.shape} does not match map dim {phi.dim}")
    return _act((phi,), x[np.newaxis])[0]


def dual_map(phi: MapSpec) -> MapSpec:
    """Adjoint in the Hilbert-Schmidt inner product: Tr(Phi(X)Y) = Tr(X Phi†(Y)).
    The dual of Phi_{b,c} is Phi_{c,b}; every other kind is self-dual."""
    if phi.kind == "generalized_choi":
        return generalized_choi_map(phi.c, phi.b)
    return phi


def _id_tensor(phis, x: np.ndarray, id_dim: int) -> np.ndarray:
    """(id_{id_dim} ⊗ phis[k])(X) for every operator X of a checked stack
    x[k, ..., id_dim·d, id_dim·d], applying each map to all d x d blocks at once."""
    d = phis[0].dim
    lead = x.shape[:-2]
    blocks = x.reshape(lead + (id_dim, d, id_dim, d)).swapaxes(-3, -2)
    out = _act(phis, blocks).swapaxes(-3, -2)
    return out.reshape(lead + (id_dim * d, id_dim * d))


def apply_id_tensor(phi: MapSpec, x, id_dim: int) -> np.ndarray:
    """(id_{id_dim} ⊗ Phi)(X), applying the map to every d x d block at once.

    Accepts a stack X[..., id_dim·d, id_dim·d] and maps each operator.
    """
    x = bipartite._check_dims(x, id_dim, phi.dim, stack=True)
    return _id_tensor((phi,), x[np.newaxis], id_dim)[0]


def choi_matrices(phis) -> np.ndarray:
    """J(Phi) = n (id_n ⊗ Phi)(|psi+><psi+|) of each map of a group of one kind
    and dimension, as a [k, n², n²] stack built in one pass."""
    kind, n = phis[0].kind, phis[0].dim
    if any((phi.kind, phi.dim) != (kind, n) for phi in phis):
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
    if v.size % phi.dim != 0:
        raise InvalidVector("vector length is not a multiple of the map dimension")
    m = v.size // phi.dim
    v = bipartite._check_unit_vector(v, m * phi.dim)
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
