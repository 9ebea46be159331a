"""Positive linear maps as first-class objects, one MapSpec each.

Ships the maps used throughout the toolkit: identity, transpose, the
reduction map, the two-parameter generalized Choi family Phi_{b,c} on M_3
(a := 2-b-c; the Choi map is Phi_{1,0}), which alone reads b and c, and the
Breuer-Hall map on even dimensions, which alone reads V. Each map exposes a
closed-form action, applied to one matrix or a whole stack; Choi matrices,
duals and id ⊗ map applications are materialized on demand. Only
generalized_choi_matrices builds many maps at once, from (b, c) arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bipartite, matcore
from .errors import DegenerateWitness, InvalidDim, InvalidMatrix, InvalidVector

BC_PREDICATE_TOL = 1e-9
BH_SKEW_TOL = 1e-10  # ||V^T + V||_F a Breuer-Hall V may have, far above its rounding
BH_UNITARY_TOL = 1e-10  # ||V^H V - I||_F it may have
WITNESS_TRACE_FLOOR = 1e-12  # a |Tr W| below this is rounding, not a trace to normalize by

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
    """The anti-diagonal skew-symmetric unitary (+1 top half, -1 bottom half), a
    signed permutation, as float64."""
    _, admits, message = _KINDS["breuer_hall"]
    if not admits(n):
        raise InvalidDim(message)
    v = np.zeros((n, n))
    v[np.arange(n), np.arange(n)[::-1]] = np.repeat([1.0, -1.0], n // 2)
    return v


@dataclass(frozen=True)
class MapSpec:
    """A positive linear map on M_dim, checked against its kind's rules in
    _KINDS: only generalized_choi reads b and c (finite, >= 0), and only
    breuer_hall reads v (a skew-symmetric unitary, default
    breuer_hall_default_v(dim), stored as a read-only copy, float64 where it
    is real or its imaginary part is zero). Equal maps hash equal; two V
    compare as np.array_equal does."""

    kind: str
    dim: int
    b: float = 0.0
    c: float = 0.0
    v: np.ndarray | None = field(default=None, repr=False, compare=False)
    _v_key: bytes | None = field(default=None, init=False, repr=False)  # compares v

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
            v = matcore._as_matrix(breuer_hall_default_v(n) if self.v is None else self.v)
            if v.shape != (n, n):
                raise InvalidMatrix("Breuer-Hall V has the wrong shape")
            if np.linalg.norm(v.T + v) > BH_SKEW_TOL:
                raise InvalidMatrix("Breuer-Hall V must be skew-symmetric")
            if np.linalg.norm(v.conj().T @ v - np.eye(n)) > BH_UNITARY_TOL:
                raise InvalidMatrix("Breuer-Hall V must be unitary")
            v = (v if v.imag.any() else v.real).copy()
            v.flags.writeable = False
            object.__setattr__(self, "v", v)
            # + 0.0 turns -0.0 into 0.0, so equal keys are exactly np.array_equal
            object.__setattr__(self, "_v_key", (v + 0.0).tobytes())


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


def _gen_choi_act(b, c, x: np.ndarray) -> np.ndarray:
    """Phi_{b,c} on every 3 x 3 matrix of a stack x, with b and c broadcast
    against the leading axes of x."""
    a = 2.0 - b - c
    d0, d1, d2 = x[..., 0, 0], x[..., 1, 1], x[..., 2, 2]
    out = -x
    out[..., 0, 0] = a * d0 + b * d1 + c * d2
    out[..., 1, 1] = c * d0 + a * d1 + b * d2
    out[..., 2, 2] = b * d0 + c * d1 + a * d2
    return out / 2.0


def _act(phi: MapSpec, x: np.ndarray) -> np.ndarray:
    """The closed-form action of phi on every dim x dim matrix of a stack x (not breuer_hall)."""
    kind = phi.kind
    if kind == "identity":
        return x.copy()
    if kind == "transpose":
        return np.swapaxes(x, -1, -2).copy()
    if kind == "generalized_choi":
        return _gen_choi_act(phi.b, phi.c, x)
    if kind == "reduction":
        trace = np.trace(x, axis1=-2, axis2=-1)[..., np.newaxis, np.newaxis]
        return (trace * np.eye(phi.dim) - x) / (phi.dim - 1)
    raise AssertionError(kind)


def dual_map(phi: MapSpec) -> MapSpec:
    """Adjoint in the Hilbert-Schmidt inner product: Tr(Phi(X)Y) = Tr(X Phi†(Y)).
    The dual of Phi_{b,c} is Phi_{c,b}; every other kind is self-dual."""
    if phi.kind == "generalized_choi":
        return generalized_choi_map(phi.c, phi.b)
    return phi


def _id_tensor(act, d: int, x: np.ndarray, id_dim: int) -> np.ndarray:
    """(id_{id_dim} ⊗ Phi)(X) for every operator X of a checked stack
    x[..., id_dim·d, id_dim·d], where act(blocks) applies Phi on M_d to all
    d x d blocks at once."""
    lead = x.shape[:-2]
    blocks = x.reshape(lead + (id_dim, d, id_dim, d)).swapaxes(-3, -2)
    out = act(blocks).swapaxes(-3, -2)
    return out.reshape(lead + (id_dim * d, id_dim * d))


def apply_id_tensor(phi: MapSpec, x, id_dim: int) -> np.ndarray:
    """(id_{id_dim} ⊗ Phi)(X), applying the map to every d x d block at once.

    Accepts a stack X[..., id_dim·d, id_dim·d] and maps each operator. Breuer-Hall
    takes two products per operator, (Tr_2 X ⊗ I - X - (I ⊗ V) X^Γ (I ⊗ V)†)/(d - 2),
    exact for a real V, where I ⊗ V is a signed permutation.
    """
    x = bipartite._check_dims(x, id_dim, phi.dim, stack=True)
    if phi.kind != "breuer_hall":
        return _id_tensor(functools.partial(_act, phi), phi.dim, x, id_dim)
    n, w = phi.dim, np.kron(np.eye(id_dim), phi.v)
    blocks = x.reshape(x.shape[:-2] + (id_dim, n, id_dim, n))
    trace = np.trace(blocks, axis1=-3, axis2=-1)[..., :, None, :, None] * np.eye(n)[:, None]
    x_gamma = blocks.swapaxes(-3, -1).reshape(x.shape)
    return (trace.reshape(x.shape) - x - w @ x_gamma @ w.conj().T) / (n - 2)


def generalized_choi_matrices(b, c) -> np.ndarray:
    """J(Phi_{b[k],c[k]}) for (b, c) arrays of shape (k,), as a [k, 9, 9] float64
    stack built in one pass with no MapSpec; entry k equals
    choi_matrix(generalized_choi_map(b[k], c[k])) bit for bit. A non-finite or
    negative entry is a ValueError."""
    b, c = _bc(b, c)
    per_map = (b.size, 1, 1)  # one value per map, broadcast over its 3 x 3 blocks
    act = functools.partial(_gen_choi_act, b.reshape(per_map), c.reshape(per_map))
    p = bipartite.max_entangled_projector(3)
    return 3 * _id_tensor(act, 3, np.broadcast_to(p, (b.size,) + p.shape), 3)


def choi_matrix(phi: MapSpec) -> np.ndarray:
    """J(Phi) = n (id_n ⊗ Phi)(|psi+><psi+|): float64, but complex128 for a
    Breuer-Hall map with a complex V."""
    return phi.dim * apply_id_tensor(phi, bipartite.max_entangled_projector(phi.dim), phi.dim)


def witness_from_map(phi: MapSpec, v) -> np.ndarray:
    """(id ⊗ Phi)(|v><v|), float64 where v and the map are real; unit trace
    whenever the map is trace-preserving.

    Callers interested in the witness of a map's dual pass dual_map(phi).
    """
    v = np.asarray(v)
    if v.size % phi.dim != 0:
        raise InvalidVector("vector length is not a multiple of the map dimension")
    m = v.size // phi.dim
    v = bipartite._check_unit_vector(v)
    return apply_id_tensor(phi, np.outer(v, v.conj()), m)


def witness_from_schmidt(
    os: bipartite.OperatorSchmidt, m: int, n: int, k: int | None = None
) -> np.ndarray:
    """Unit-trace witness (I - sum_{i<=k} A_i ⊗ B_i) / Tr(...), float64 for real terms.

    Only the terms of the decomposition count: k defaults to the Schmidt
    rank, and the orthonormal completion at zero coefficients never enters.
    """
    rank = int(np.count_nonzero(os.coefficients))
    if k is None:
        k = rank
    if not 1 <= k <= rank:
        raise ValueError(f"k must be in 1..{rank} (the Schmidt rank), got {k}")
    w = np.eye(m * n)
    for i in range(k):
        w = w - bipartite.kron(os.left_ops[i], os.right_ops[i])
    tr = np.trace(w)
    if abs(tr) < WITNESS_TRACE_FLOOR:
        raise DegenerateWitness("witness trace vanishes; cannot normalize")
    return matcore.hermitize(w / tr)


def _bc(b, c) -> tuple[np.ndarray, np.ndarray]:
    """b and c as float arrays, over which the predicates below work elementwise; as
    in MapSpec, a non-finite or negative entry is a ValueError. Their np.float_power
    calls libm pow as Python's ** does, so each verdict matches the scalar formula's."""
    b, c = np.asarray(b, dtype=np.float64), np.asarray(c, dtype=np.float64)
    if not (np.isfinite(b).all() and np.isfinite(c).all()):
        raise ValueError("parameters b, c must be finite")
    if np.any(b < 0) or np.any(c < 0):
        raise ValueError("parameters must satisfy b, c >= 0")
    return b, c


def is_positive_bc(b, c):
    """Positivity of Phi_{b,c}: b+c <= 1 or bc >= (b+c-1)²."""
    b, c = _bc(b, c)
    return (b + c <= 1.0 + BC_PREDICATE_TOL) | (
        b * c >= np.float_power(b + c - 1.0, 2) - BC_PREDICATE_TOL)


def is_completely_positive_bc(b, c):
    """Phi_{b,c} is completely positive only at (0, 0)."""
    b, c = _bc(b, c)
    return (b <= BC_PREDICATE_TOL) & (c <= BC_PREDICATE_TOL)


def is_indecomposable_bc(b, c):
    """Among positive non-CP members, indecomposability holds exactly for b != c."""
    b, c = _bc(b, c)
    return (is_positive_bc(b, c) & ~is_completely_positive_bc(b, c)
            & (np.abs(b - c) > BC_PREDICATE_TOL))


def is_exposed_bc(b, c):
    """Exposedness: b != c, b+c > 1 and bc = (b+c-1)² (within tolerance)."""
    b, c = _bc(b, c)
    return ((np.abs(b - c) > BC_PREDICATE_TOL) & (b + c > 1.0 + BC_PREDICATE_TOL)
            & (np.abs(b * c - np.float_power(b + c - 1.0, 2)) <= BC_PREDICATE_TOL))
