"""Small dense semidefinite programming layer.

Two complementary paths:

* a log-det barrier solver for the problem shapes used in this package:
  linear objective, affine Hermitian PSD blocks, affine equalities, scalar
  inequalities stacked into one diagonal block. Every problem builder
  supplies a strictly feasible start that also satisfies the equalities,
  so each stage centres by feasible-start Newton steps and stops on the
  Newton decrement (Boyd & Vandenberghe, Convex Optimization, ch. 9-11).
  Problems stay below a few hundred variables and blocks below ~100x100,
  so dense Newton steps are both adequate and robust. The Hessian is one
  real Gram product per block, over the h*h real coordinates of each
  L^-1 A_k L^-H, or w^T w for a diagonal block's rows w scaled by their
  slacks. Far from the centre an exact line search sets the step length.
  The diamond SDP is Watrous's in its symmetric form, one Hermitian Y with
  blocks Y - J, Y + J and s I - Tr_2 Y;

* one verifier per problem shape (min-witness, diamond norm, max
  eigenvalue), each checking a dual-feasible point against the problem's
  own data and returning the bound it certifies. The analytic certificates
  (the threshold-curve witness duals, and the Choi, generalized Choi and
  Breuer-Hall map certificates) are exact closed forms, so their
  verification tolerances are much tighter than the solver's. The diamond
  and max-eig verifiers also take a group of maps of one kind and
  dimension as [k, d, d] stacks of Choi matrices and Y, with one stacked
  eigvalsh per PSD block, and report each map's bound or rejection; the
  one-map verifiers are that code on a stack of one. diamond_norm_ub and
  max_eig_ub verify the solver's own Y.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import absppt, bipartite, matcore, posmaps
from .errors import (
    CertificateRejected,
    MaxIterations,
    NoInteriorPoint,
    Unbounded,
    Unsupported,
)

DEFAULT_GAP_TOL = 1e-7
CERT_PSD_TOL = 1e-10
_MU_REDUCTION = 0.2  # barrier parameter shrink per outer step
# a stage is centred once lambda^2/2 (half the squared Newton decrement, an
# affine-invariant estimate of the barrier objective's excess over its
# minimum) falls below this
_CENTERED = 1e-10
# exact line searches until lambda drops below this, then full steps
_QUADRATIC_PHASE = 0.25


@dataclass
class AffineBlock:
    """PSD constraint const + sum_i x_i coeffs[i] >= 0 (Hermitian h x h)."""

    const: np.ndarray   # (h, h)
    coeffs: np.ndarray  # (nv, h, h)
    rows: np.ndarray | None = None  # (h, nv) on a diagonal block: diag(rows @ x) + const

    @property
    def size(self) -> int:
        return self.const.shape[0]

    def lin(self, x: np.ndarray) -> np.ndarray:
        return (x @ self.coeffs.reshape(x.size, -1)).reshape(self.const.shape)

    def eval(self, x: np.ndarray) -> np.ndarray:
        return self.const + self.lin(x)

    @functools.cached_property
    def left(self) -> np.ndarray:
        """coeffs as (h, nv*h), left[a, k*h + b] = coeffs[k, a, b], so that one
        GEMM multiplies every A_k on the left; built on first use."""
        return np.ascontiguousarray(self.coeffs.transpose(1, 0, 2)).reshape(self.size, -1)


@dataclass
class SdpProblem:
    """minimize objective @ x over the blocks/equality constraints.

    interior_point must make every block positive definite and satisfy the
    equalities.
    """

    objective: np.ndarray
    blocks: list[AffineBlock]
    interior_point: np.ndarray
    eq_mat: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    name: str = ""


@dataclass
class SdpSolution:
    primal_value: float   # objective at the returned strictly feasible point
    dual_value: float     # primal_value - duality gap estimate
    x: np.ndarray
    gap: float
    newton_steps: int


@dataclass
class DualCertificate:
    """A dual-feasible point, analytic or from the solver, with its claimed value."""

    name: str
    values: dict[str, np.ndarray] = field(default_factory=dict)
    expected_value: float = math.nan


def scalar_inequality(rows: np.ndarray, lower: float) -> AffineBlock:
    """rows @ x >= lower for a (k, nv) row matrix, as one k x k diagonal block."""
    k, nv = rows.shape
    coeffs = np.zeros((nv, k, k), dtype=np.complex128)
    coeffs[:, np.arange(k), np.arange(k)] = rows.T
    return AffineBlock(-lower * np.eye(k, dtype=np.complex128), coeffs, rows)


@functools.cache
def _hermitian_coordinates(h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fancy index (rows, cols) and weights reading the h*h real coordinates Re M_aa,
    sqrt2 Re M_ab, sqrt2 Im M_ab (a < b) of a Hermitian M from its (h, 2h) float64
    view; their dot product over two matrices is tr(M_k M_l)."""
    diag = np.arange(h)
    upper, right = np.triu_indices(h, 1)
    rows = np.concatenate([diag, upper, upper])
    cols = np.concatenate([2 * diag, 2 * right, 2 * right + 1])
    weights = np.concatenate([np.ones(h), np.full(2 * upper.size, math.sqrt(2.0))])
    return rows, cols, weights[:, np.newaxis]


def _barrier_derivatives(
    blocks: list[AffineBlock], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Gradient and Hessian of -sum_i log det F_i(x), and per block the
    factor the line search scales by: L^-1, or a diagonal block's slacks.

    With F_i = L L^H and M_k = L^-1 A_k L^-H, the gradient is -tr(M_k) and
    the Hessian tr(M_k M_l). Each M_k is Hermitian, so the Hessian is the
    real Gram matrix V^T V of the columns of V, which hold the h*h real
    coordinates of each M_k. A diagonal block has M_k = diag(w[:, k]) for
    w = rows / slack, so its terms are -w.sum(0) and w^T w. Raises
    LinAlgError when a block is not positive definite at x.
    """
    nv = x.size
    grad = np.zeros(nv)
    hess = np.zeros((nv, nv))
    scales = []
    for b in blocks:
        f = b.eval(x)
        if b.rows is not None:
            slack = f.diagonal().real
            if not np.all(slack > 0.0):
                raise np.linalg.LinAlgError("diagonal block is not positive")
            w = b.rows / slack[:, np.newaxis]
            grad -= w.sum(0)
            hess += w.T @ w
            scales.append(slack)
            continue
        h = b.size
        lo_inv = np.linalg.solve(np.linalg.cholesky(f), np.eye(h))
        # mid[a, k, :] = row a of M_k, as interleaved real and imaginary parts
        mid = ((lo_inv @ b.left).reshape(h * nv, h) @ lo_inv.conj().T).view(np.float64)
        rows, cols, weights = _hermitian_coordinates(h)
        v = mid.reshape(h, nv, 2 * h)[rows, :, cols]
        v *= weights
        grad -= v[:h].sum(0)
        hess += v.T @ v  # v itself on both sides, so numpy calls syrk
        scales.append(lo_inv)
    return grad, hess, scales


def _line_search(slope: float, gamma: np.ndarray) -> float:
    """Step length along a Newton direction: minimizes
    phi(a) = slope a - sum_j log(1 + a gamma_j), which needs some gamma_j < 0
    or slope > 0, by 1-D Newton steps from a = 0, damped by 1/(1 + delta)
    until their decrement delta is at most _QUADRATIC_PHASE, then one full
    step. At a = 0, delta is lambda, so the first iterate is 1/(1 + lambda).
    gamma is short, so Python floats beat numpy calls."""
    gamma = gamma.tolist()
    a = 0.0
    while True:
        d1, d2 = slope, 0.0  # phi'(a), phi''(a)
        for g in gamma:
            ratio = g / (1.0 + a * g)
            d1 -= ratio
            d2 += ratio * ratio
        decrement = abs(d1) / math.sqrt(d2)
        if decrement <= _QUADRATIC_PHASE:
            return a - d1 / d2
        a -= d1 / d2 / (1.0 + decrement)


def solve(
    problem: SdpProblem,
    tol: float = DEFAULT_GAP_TOL,
    max_newton: int = 5000,
) -> SdpSolution:
    """Barrier method; returns values bracketing the optimum within ~tol.

    Stage t centres t c.x - sum_i log det F_i(x) over {A x = b}. While the
    Newton decrement lambda exceeds 1/4, x moves to x + a dx, a from
    _line_search on that objective along the Newton direction dx: the
    barrier keeps x strictly feasible, and a decreases the objective at least
    as much as the damped step 1/(1+lambda) does. Then full steps converge
    quadratically. t grows by 1/_MU_REDUCTION until m/t <= tol, where m is
    the total block size. Raises Unbounded on a ray the objective falls along
    without bound.
    """
    c = np.asarray(problem.objective, dtype=np.float64)
    nv = c.size
    blocks = problem.blocks
    a_mat, b_rhs = problem.eq_mat, problem.eq_rhs
    p = 0 if a_mat is None else a_mat.shape[0]

    x = np.asarray(problem.interior_point, dtype=np.float64).copy()
    if p and not np.allclose(a_mat @ x, b_rhs):
        raise NoInteriorPoint(
            f"starting point violates the equalities of problem {problem.name!r}"
        )
    try:
        grad, hess, scales = _barrier_derivatives(blocks, x)
    except np.linalg.LinAlgError:
        raise NoInteriorPoint(
            f"starting point is not strictly feasible for problem {problem.name!r}"
        ) from None

    # KKT system of the equality-constrained Newton step; the primal
    # residual is zero because every iterate satisfies A x = b
    kkt = np.zeros((nv + p, nv + p))
    if p:
        kkt[:nv, nv:] = a_mat.T
        kkt[nv:, :nv] = a_mat
    rhs = np.zeros(nv + p)

    m_total = sum(b.size for b in blocks)
    t = 1.0
    steps = 0
    while True:
        while True:
            kkt[:nv, :nv] = hess
            rhs[:nv] = -(t * c + grad)
            dx = np.linalg.solve(kkt, rhs)[:nv]
            decrement_sq = float(dx @ hess @ dx)
            if decrement_sq / 2.0 <= _CENTERED:
                break
            if steps >= max_newton:
                raise MaxIterations(
                    f"Newton budget exhausted in problem {problem.name!r}"
                )
            if math.sqrt(decrement_sq) > _QUADRATIC_PHASE:
                # eigenvalues of each L^-1 F_lin(dx) L^-H: the barrier along
                # x + a dx is -sum_j log(1 + a gamma_j) plus a constant
                gamma = np.concatenate([
                    (b.rows @ dx) / scale if b.rows is not None
                    else np.linalg.eigvalsh(scale @ b.lin(dx) @ scale.conj().T)
                    for b, scale in zip(blocks, scales)
                ])
                slope = t * float(c @ dx)
                if gamma.min() >= 0.0 and slope <= 0.0:
                    raise Unbounded(
                        f"objective of problem {problem.name!r} is unbounded below"
                    )
                dx *= _line_search(slope, gamma)
            x = x + dx
            steps += 1
            grad, hess, scales = _barrier_derivatives(blocks, x)
        gap = m_total / t
        if gap <= tol:
            break
        t /= _MU_REDUCTION

    primal = float(c @ x)
    return SdpSolution(
        primal_value=primal,
        dual_value=primal - gap,
        x=x,
        gap=gap,
        newton_steps=steps,
    )


# ----------------------------------------------------------------------------
# witness minimization over absolutely PPT spectra
# ----------------------------------------------------------------------------


def min_witness_problem(
    witness_spectrum, dims: tuple[int, int], lmi_mode: str = "full"
) -> SdpProblem:
    """min sum_j lambda_j mu_{mn-j+1} over absolutely PPT spectra lambda.

    lmi_mode 'full' uses the exact LMI family (min{m,n} <= 3 only);
    'submatrix2x2' keeps only the universal 2x2 necessary condition, a
    relaxation whose optimum can only be lower.
    """
    m, n = dims
    total = m * n
    mu = np.asarray(witness_spectrum, dtype=np.float64)
    if mu.size != total:
        raise ValueError(f"witness spectrum must have length {total}")
    if not np.all(np.isfinite(mu)):
        raise ValueError("witness spectrum must be finite")
    if np.any(np.diff(mu) > 1e-12):
        raise ValueError("witness spectrum must be sorted descending")
    if lmi_mode == "full":
        lmis = absppt.build_lmis(m, n)
        if not lmis.exact:
            raise Unsupported("full LMI mode requires min{m,n} <= 3")
        templates = lmis.matrices
    elif lmi_mode == "submatrix2x2":
        templates = (absppt.necessary_template(total),)
    else:
        raise ValueError(f"unknown lmi_mode {lmi_mode!r}")

    nv = total
    blocks = []
    for tpl in templates:
        q = tpl.coeffs.shape[0]
        coeffs = np.ascontiguousarray(tpl.coeffs.swapaxes(0, 1), dtype=np.complex128)
        blocks.append(AffineBlock(np.zeros((q, q), dtype=np.complex128), coeffs))
    # lambda_1 >= ... >= lambda_mn >= 0: rows e_j - e_{j+1}, then e_mn
    blocks.append(scalar_inequality(np.eye(nv) - np.eye(nv, k=1), 0.0))

    tilt = 1.0 + 0.01 * np.linspace(1.0, -1.0, total)
    start = tilt / tilt.sum()
    return SdpProblem(
        objective=mu[::-1].copy(),
        blocks=blocks,
        eq_mat=np.ones((1, nv)),
        eq_rhs=np.ones(1),
        interior_point=start,
        name=f"min-witness-{lmi_mode}",
    )


def min_witness_over_abs_ppt(
    witness_spectrum,
    dims: tuple[int, int],
    lmi_mode: str = "full",
    tol: float = 1e-8,
) -> float:
    """Minimum witness overlap over absolutely PPT spectra (primal value).

    The returned value is attained by a feasible spectrum, so it always
    upper-bounds the exact optimum; with the default tolerance the two agree
    to ~1e-8.
    """
    return solve(min_witness_problem(witness_spectrum, dims, lmi_mode), tol=tol).primal_value


def verify_min_witness_certificate(
    witness_spectrum, dims: tuple[int, int], lmi_mode: str, zs
) -> float:
    """Verify Z_i >= 0, one per LMI block of min_witness_problem(witness_spectrum,
    dims, lmi_mode), and return the certified lower bound on its optimum.

    With r = c - sum_i A_i*(Z_i), the dual equality asks D^T y + t 1 = r for
    the ordering rows D (e_j - e_{j+1}, then e_mn). D^T is bidiagonal, so
    y_k = cumsum(r)_k - k t, and y >= 0 holds exactly for
    t <= min_k cumsum(r)_k / k. By weak duality every feasible spectrum
    scores at least that t. A Z_i whose least eigenvalue is negative but
    above -CERT_PSD_TOL is used as given, so the bound is certified only up
    to CERT_PSD_TOL times the size of A_i*(I).
    """
    problem = min_witness_problem(witness_spectrum, dims, lmi_mode)
    lmi_blocks = problem.blocks[:-1]
    if len(zs) != len(lmi_blocks):
        raise CertificateRejected(f"expected {len(lmi_blocks)} dual blocks, got {len(zs)}")
    r = problem.objective.copy()
    bound = 0.0
    for i, (block, z) in enumerate(zip(lmi_blocks, zs)):
        z = np.asarray(z)
        if z.shape != block.const.shape:
            raise CertificateRejected(f"Z{i} has shape {z.shape}, expected {block.const.shape}")
        _psd_or_reject(z, f"Z{i}")
        r -= np.real(np.einsum("kab,ba->k", block.coeffs, z))
        bound -= float(np.real(np.trace(block.const @ z)))
    return bound + float(np.min(np.cumsum(r) / np.arange(1, r.size + 1)))


# ----------------------------------------------------------------------------
# Hermitian matrix variables
# ----------------------------------------------------------------------------


def _hermitian_basis(h: int) -> np.ndarray:
    """Real basis of the Hermitian h x h matrices: E_ii, symmetric, antisymmetric."""
    out = np.zeros((h * h, h, h), dtype=np.complex128)
    k = 0
    for i in range(h):
        out[k, i, i] = 1.0
        k += 1
    for i in range(h):
        for j in range(i + 1, h):
            out[k, i, j] = out[k, j, i] = 1.0
            k += 1
            out[k, i, j] = 1.0j
            out[k, j, i] = -1.0j
            k += 1
    return out


def _min_s_problem(
    d: int, blocks: list[AffineBlock], y_diag: float, s: float, name: str
) -> SdpProblem:
    """minimize s over x = (coefficients of a Hermitian d x d Y in
    _hermitian_basis(d), s), from the start Y = y_diag I and the given s."""
    nb = d * d
    objective = np.zeros(nb + 1)
    objective[nb] = 1.0
    start = np.zeros(nb + 1)
    start[:d] = y_diag  # diagonal coefficients of Y = y_diag I
    start[nb] = s
    return SdpProblem(objective=objective, blocks=blocks, interior_point=start, name=name)


def diamond_norm_problem(phi: posmaps.MapSpec) -> SdpProblem:
    """Diamond-norm SDP of phi (Watrous, Theory of Computing 5, 2009) in its
    symmetric form: minimize s over Hermitian Y with Y - J >= 0, Y + J >= 0
    and s I >= Tr_2 Y, for J = J(phi).

    Watrous's form, minimize (s0 + s1)/2 over [[Y0, -J], [-J, Y1]] >= 0 and
    s_i I >= Tr_2 Y_i, is convex and keeps its constraints under swapping Y0
    and Y1 when J is Hermitian, so the average Y0 = Y1 = Y is optimal too;
    conjugating [[Y, -J], [-J, Y]] by (1/sqrt2) [[I, I], [I, -I]] gives
    diag(Y - J, Y + J).
    """
    n = phi.dim
    d = n * n
    jmat = posmaps.choi_matrix(phi)
    basis = _hermitian_basis(d)
    coeffs = np.concatenate([basis, np.zeros((1, d, d))])  # x = (Y coeffs, s)
    traced = bipartite.partial_trace(basis, n, n, "second")
    cap = np.concatenate([-traced, np.eye(n)[np.newaxis]])  # s I - Tr_2 Y
    blocks = [
        AffineBlock(-jmat, coeffs),
        AffineBlock(jmat, coeffs),
        AffineBlock(np.zeros((n, n), dtype=np.complex128), cap),
    ]
    kappa = matcore.schatten_norm(jmat, "operator") + 1.0
    return _min_s_problem(d, blocks, kappa, kappa * n + 1.0, "diamond-norm")


def max_eig_problem(phi: posmaps.MapSpec) -> SdpProblem:
    """sup Tr(J(phi) rho) over PPT rho with Tr(rho) <= 1, as a minimization."""
    n = phi.dim
    d = n * n
    jmat = posmaps.choi_matrix(phi)
    basis = _hermitian_basis(d)
    nv = d * d
    objective = -np.real(np.einsum("kab,ba->k", basis, jmat))
    pt_basis = bipartite.partial_transpose(basis, n, n)
    trace_row = -np.real(np.einsum("kaa->k", basis))[np.newaxis, :]
    blocks = [
        AffineBlock(np.zeros((d, d), dtype=np.complex128), basis.copy()),
        AffineBlock(np.zeros((d, d), dtype=np.complex128), pt_basis),
        scalar_inequality(trace_row, -1.0),
    ]
    start = np.zeros(nv)
    start[:d] = 1.0 / (2.0 * d)
    return SdpProblem(
        objective=objective,
        blocks=blocks,
        interior_point=start,
        name="max-eig-ppt",
    )


def max_eig_dual_problem(phi: posmaps.MapSpec) -> SdpProblem:
    """Dual of sup Tr(J rho) over PPT states rho, whose feasible Y are the
    certificates verify_max_eig_certificate checks: minimize s over Hermitian
    Y with Y >= 0 and s I - J - Y^Gamma >= 0, for J = J(phi) and Gamma the
    partial transpose. Y = I, s = ||J||_op + 2 is strictly feasible, as
    I^Gamma = I.
    """
    n = phi.dim
    d = n * n
    jmat = posmaps.choi_matrix(phi)
    basis = _hermitian_basis(d)
    pt_basis = bipartite.partial_transpose(basis, n, n)
    coeffs = np.concatenate([basis, np.zeros((1, d, d))])  # x = (Y coeffs, s)
    cap = np.concatenate([-pt_basis, np.eye(d)[np.newaxis]])  # s I - J - Y^Gamma
    blocks = [AffineBlock(np.zeros((d, d), dtype=np.complex128), coeffs), AffineBlock(-jmat, cap)]
    s = matcore.schatten_norm(jmat, "operator") + 2.0
    return _min_s_problem(d, blocks, 1.0, s, "max-eig-dual")


# ----------------------------------------------------------------------------
# analytic certificates
# ----------------------------------------------------------------------------


def _certified(values: list[float], blocks) -> list[float | CertificateRejected]:
    """Entry i is values[i] when matrix i of every (what, stack) block is PSD up to
    CERT_PSD_TOL, or else a CertificateRejected naming the first block that is not."""
    tests = [(what, *matcore.psd_test(stack, CERT_PSD_TOL)) for what, stack in blocks]
    results = []
    for i, value in enumerate(values):
        for what, ok, lam_min in tests:
            if not ok[i]:
                value = CertificateRejected(f"{what} is not PSD (min eigenvalue {lam_min[i]:.3e})")
                break
        results.append(value)
    return results


def _one(results: list) -> float:
    """The value certified for a one-certificate stack; raises its rejection."""
    (result,) = results
    if isinstance(result, CertificateRejected):
        raise result
    return result


def _psd_or_reject(mat: np.ndarray, what: str) -> None:
    _one(_certified([0.0], [(what, np.asarray(mat)[np.newaxis])]))


def _y_stack(ys, d: int) -> np.ndarray:
    """ys as a [k, d, d] stack; a Y of another shape is rejected."""
    ys = np.asarray(ys)
    if ys.shape[1:] != (d, d):
        raise CertificateRejected(f"Y has shape {ys.shape[1:]}, expected {(d, d)}")
    return ys


def diamond_certificates(phis, jmats: np.ndarray) -> list[DualCertificate]:
    """diamond_certificate of each map of a group of one kind and dimension, given
    their Choi matrices jmats[k]."""
    n, k = phis[0].dim, len(phis)
    if phis[0].kind == "breuer_hall":
        kappa, expected = np.full(k, 2.0), np.full(k, (n + 2.0) / n)
    else:  # Unsupported outside the generalized Choi family
        kappa = np.array([sum(_gen_choi_params_of_dual(phi)) for phi in phis])
        expected = (3.0 + kappa) / 3.0
    ys = jmats + kappa[:, np.newaxis, np.newaxis] * bipartite.max_entangled_projector(n)
    return [DualCertificate(f"diamond-{phi.kind}", {"Y": y}, e)
            for phi, y, e in zip(phis, ys, expected.tolist())]


def diamond_certificate(phi: posmaps.MapSpec) -> DualCertificate:
    """Feasible Y for the diamond-norm SDP of the given map.

    Y = J(phi) + kappa |psi+><psi+| with kappa = b + c for the (generalized)
    Choi family and kappa = 2 for Breuer-Hall; the certified values are
    (3 + b + c)/3 and (n + 2)/n respectively.
    """
    return diamond_certificates((phi,), posmaps.choi_matrices((phi,)))[0]


def verify_diamond_certificates(phis, jmats: np.ndarray, ys) -> list[float | CertificateRejected]:
    """verify_diamond_certificate for a group of maps of one kind and dimension,
    given their Choi matrices jmats[k] and certificates ys[k], with one stacked
    eigvalsh per block, one partial trace and one SVD. Entry k is the bound
    certified for phis[k], or the CertificateRejected naming the block that
    ys[k] fails; a stack of wrong-shaped Y is rejected as a whole.
    """
    n = phis[0].dim
    ys = _y_stack(ys, n * n)
    values = matcore.singular_values(bipartite.partial_trace(ys, n, n, "second"))[:, 0]
    return _certified(values.tolist(), [("Y - J", ys - jmats), ("Y + J", ys + jmats)])


def verify_diamond_certificate(phi: posmaps.MapSpec, cert: DualCertificate) -> float:
    """Verify Y - J >= 0 and Y + J >= 0, the PSD blocks of diamond_norm_problem,
    and return the certified upper bound ||Tr_2 Y||_op.

    J = J(phi) must be Hermitian: then conjugating Watrous's block matrix
    [[Y, -J], [-J, Y]] by (1/sqrt2) [[I, I], [I, -I]] gives diag(Y - J, Y + J),
    so the two checks are his constraint, and their sum 2Y is PSD too.
    """
    return _one(verify_diamond_certificates(
        (phi,), posmaps.choi_matrices((phi,)), [cert.values["Y"]]))


def gen_choi_outer(b: float, c: float) -> bool:
    """2b+c >= 3 or b+2c >= 3: the max-eigenvalue certificate for the dual of
    Phi_{b,c} is Y = 0 and its bound max{b,c}/2."""
    return 2.0 * b + c >= 3.0 or b + 2.0 * c >= 3.0


def gen_choi_xy(b: float, c: float) -> tuple[float, float]:
    """The (x, y) entries of the max-eigenvalue certificate, second case."""
    if gen_choi_outer(b, c):
        raise ValueError("x, y are only defined when 2b+c < 3 and b+2c < 3")
    den = 6.0 * (2.0 - b - c)
    return (3.0 - 2.0 * b - c) ** 2 / den, (3.0 - b - 2.0 * c) ** 2 / den


def gen_choi_max_eig_bound(b: float, c: float) -> float:
    """Max-eigenvalue bound certified for the dual of Phi_{b,c}.

    max{b,c}/2 when 2b+c >= 3 or b+2c >= 3. Otherwise the certificate's
    shifted matrix is ((b+2x) I + 3(2 sqrt(xy) - 1) psi+)/2, so (b+2x)/2 is
    the bound, plus 1.5 (2 sqrt(xy) - 1) where 2 sqrt(xy) > 1. That needs
    b+c < 2/3 but is not implied by it: at (0, 0.65), 2 sqrt(xy) ~ 0.987
    and nothing is added.
    """
    if gen_choi_outer(b, c):
        return max(b, c) / 2.0
    x, y = gen_choi_xy(b, c)
    bound = (b * b + c * c - 6.0 * (b + c) + b * c + 9.0) / (6.0 * (2.0 - b - c))
    root = math.sqrt(x * y)
    if 2.0 * root > 1.0:
        bound += 1.5 * (2.0 * root - 1.0)
    return bound


def _gen_choi_params_of_dual(phi: posmaps.MapSpec) -> tuple[float, float]:
    """Recover (b, c) with phi = dual of the generalized Choi map Phi_{b,c}."""
    if phi.kind != "generalized_choi":
        raise Unsupported(f"map kind {phi.kind!r} is not in the generalized Choi family")
    return phi.c, phi.b  # the dual of Phi_{b,c} is Phi_{c,b}


def max_eig_certificate(phi: posmaps.MapSpec) -> DualCertificate:
    """Feasible Y >= 0 for the PPT max-eigenvalue SDP of the given map.

    For the generalized Choi family the two parameter regimes use Y = 0 and
    the sqrt(xy)-patterned Y, certifying gen_choi_max_eig_bound(b, c); for
    Breuer-Hall the rank-one rotated maximally entangled Y certifies 1/(n-2).
    """
    if phi.kind == "breuer_hall":
        n = phi.dim
        psi = bipartite.max_entangled(n)
        rotated = bipartite.kron(np.eye(n), phi.v) @ np.outer(psi, psi.conj()) @ bipartite.kron(
            np.eye(n), phi.v
        ).conj().T
        y = n / (n - 2.0) * rotated
        return DualCertificate(
            name="max-eig-breuer-hall", values={"Y": y}, expected_value=1.0 / (n - 2.0)
        )
    b, c = _gen_choi_params_of_dual(phi)
    y = np.zeros((9, 9), dtype=np.complex128)
    if not gen_choi_outer(b, c):
        x, yv = gen_choi_xy(b, c)
        root = math.sqrt(x * yv)
        for idx in (1, 5, 6):
            y[idx, idx] = x
        for idx in (2, 3, 7):
            y[idx, idx] = yv
        for r, s in ((1, 3), (2, 6), (5, 7)):
            y[r, s] = y[s, r] = root
    return DualCertificate(
        name=f"max-eig-gen-choi({b:g},{c:g})",
        values={"Y": y},
        expected_value=gen_choi_max_eig_bound(b, c),
    )


def verify_max_eig_certificates(phis, jmats: np.ndarray, ys) -> list[float | CertificateRejected]:
    """verify_max_eig_certificate for a group of maps of one kind and dimension,
    given their Choi matrices jmats[k] and certificates ys[k], with one stacked
    eigvalsh per constraint and one partial transpose. Entry k is the bound
    certified for phis[k], or the CertificateRejected of ys[k]; a stack of
    wrong-shaped Y is rejected as a whole.
    """
    n = phis[0].dim
    ys = _y_stack(ys, n * n)
    values = matcore.eigvalsh(bipartite.partial_transpose(ys, n, n) + jmats)[:, 0]
    return _certified(values.tolist(), [("Y", ys)])


def verify_max_eig_certificate(phi: posmaps.MapSpec, cert: DualCertificate) -> float:
    """Verify Y >= 0 and return lambda_max((id ⊗ T)(Y) + J(phi))."""
    return _one(verify_max_eig_certificates(
        (phi,), posmaps.choi_matrices((phi,)), [cert.values["Y"]]))


def _solver_certificate(problem: SdpProblem, tol: float) -> DualCertificate:
    """The solver's Y for a min-s problem whose block 0 is Y plus a constant."""
    return DualCertificate(problem.name, {"Y": problem.blocks[0].lin(solve(problem, tol=tol).x)})


def diamond_norm_ub(phi: posmaps.MapSpec, tol: float = DEFAULT_GAP_TOL) -> float:
    """Upper bound on the diamond norm: the verified bound of the solver's Y."""
    return verify_diamond_certificate(phi, _solver_certificate(diamond_norm_problem(phi), tol))


def max_eig_ub(phi: posmaps.MapSpec, tol: float = DEFAULT_GAP_TOL) -> float:
    """Upper bound on eigenvalues of (id ⊗ phi)(|v><v|) over unit vectors:
    the verified bound of the solver's Y for max_eig_dual_problem."""
    return verify_max_eig_certificate(phi, _solver_certificate(max_eig_dual_problem(phi), tol))


def min_eig_lb_from_diamond(diamond_ub: float) -> float:
    """(1 - diamond upper bound)/2 lower-bounds the witness eigenvalues."""
    if diamond_ub < 1.0 - 1e-9:
        raise ValueError("a diamond norm upper bound cannot be below 1")
    return (1.0 - diamond_ub) / 2.0
