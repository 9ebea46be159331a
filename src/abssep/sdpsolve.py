"""Small dense semidefinite programming layer.

Two complementary paths:

* a log-det barrier solver for the problem shapes used in this package:
  linear objective, affine PSD constraints, affine equalities and scalar
  inequalities. A problem comes in the one layout the barrier evaluates:
  each AffineBlock is a stack of g PSD constraints of one size h, its
  const (g, h, h) and its coeffs (g, nv, h, h), or (1, nv, h, h) when all
  g share one array, and the scalar inequalities are the rows of
  ineq_mat @ x >= ineq_rhs. Every problem builder supplies a strictly
  feasible start that also satisfies the equalities, so each stage centres
  by feasible-start Newton steps (Boyd & Vandenberghe, Convex Optimization,
  ch. 9-11). Every stage stops by one loose rule on the Newton decrement,
  and the reported gap (m + sqrt m)/t bounds c.x - p* at such a point
  (Nesterov, Introductory Lectures on Convex Optimization, 2004, Theorem
  4.2.7). The Newton system is solved Jacobi-scaled, which keeps A x = b
  to rounding. Each solve lays out every block once, as views of its
  coefficients, and writes each step's scaled KKT system in place into
  arrays it allocates once.
  Problems stay below a few hundred variables and blocks below ~100x100,
  so dense Newton steps are both adequate and robust. A block whose data
  is real is stored and solved in float64; only truly complex data, such
  as a Breuer-Hall map with a complex V, runs in complex arithmetic. Each
  Newton step evaluates every block with one batched Cholesky factor,
  inverse and GEMM pair; the Hessian gains one real Gram product per block,
  over the entries of every L^-1 A_k L^-H, and w^T w for the inequality
  rows w scaled by their slacks. Far from the centre an exact line search
  sets the step length, from the eigenvalues of sum_k dx_k L^-1 A_k L^-H
  over the stored matrices of that step.
  The diamond SDP is Watrous's in its symmetric form, one Y with blocks
  Y - J, Y + J and s I - Tr_2 Y. Y is real symmetric when J is real, since
  the average of an optimal Y and its conjugate is then optimal too
  (the simplest case of symmetry reduction: Gatermann & Parrilo, J. Pure
  Appl. Algebra 192, 2004), and Hermitian otherwise;

* one verifier per problem shape (min-witness, diamond norm, max
  eigenvalue), each checking a dual-feasible point against the problem's
  own data and returning the bound it certifies. The analytic certificates
  (the threshold-curve witness duals, and the Choi, generalized Choi and
  Breuer-Hall map certificates) are exact closed forms, so their
  verification tolerances are much tighter than the solver's. Each is plain
  arrays: a witness dual its spectrum and Z blocks, a map certificate its Y.
  The map certificates are built as stacks: gen_choi_certificates takes
  (b, c) arrays and builds, for the duals of Phi_{b,c}, the [k, 9, 9] Choi
  matrices, both SDPs' Y and their expected values with no per-map object;
  breuer_hall_certificates does the same for one Breuer-Hall map, as a
  stack of one. The diamond and max-eig verifiers take
  [k, d, d] stacks of Choi matrices and Y, read n from their shape, and
  return the values and, per PSD block, its (ok, min eigenvalue) checks:
  matcore.psd_screen, one stacked Cholesky with a proved rounding bound,
  passes a block whole, and only a block it does not pass gets a stacked eigvalsh
  (matcore.psd_test); certificate_failures builds a rejection message only
  for the certificates that fail. diamond_norm_ub and max_eig_ub verify the
  solver's own Y through them as a stack of one, and max_eig_certificate
  and verify_max_eig_certificate are one map's max-eig case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from . import absppt, bipartite, matcore, posmaps
from .errors import (
    CertificateRejected,
    InvalidMatrix,
    MaxIterations,
    NoInteriorPoint,
    Unbounded,
    Unsupported,
)

DEFAULT_GAP_TOL = 1e-7
# the gap bound (m + sqrt m)/t at which min_witness_over_abs_ppt stops by
# default: how far its value may lie above the exact minimum overlap
MIN_WITNESS_GAP_TOL = 1e-8
CERT_PSD_TOL = 1e-10
# |sum(lambda) - 1| a min-witness spectrum may show before its value is used;
# the solver keeps sum(lambda) = 1 to a few ulps over a solve
MIN_WITNESS_SUM_TOL = 1e-12
# |A x0 - b| a start may show, relative to max(1, |b|): a builder's start is
# on its equalities to the rounding of one dot product, 1 ulp up to 8 x 8
EQ_START_TOL = 8 * 2.0**-52  # 8 ulps of 1; np.finfo at import cost ~0.3 MiB of peak RSS
# rise a witness spectrum may show between neighbours and still count as
# sorted descending: tied entries from two closed forms differ by ~1e-16
WITNESS_SORT_SLACK = 1e-12
# how far below 1 a diamond-norm upper bound may read: a trace-preserving
# positive map has norm >= 1, which a bound misses only by rounding, ~1e-15
DIAMOND_FLOOR_SLACK = 1e-9
_MU_REDUCTION = 0.2  # barrier parameter shrink per outer step
# every stage stops once lambda^2/2, half the squared Newton decrement,
# falls below this: lambda <= 0.045, well inside the full-step region
# lambda <= _QUADRATIC_PHASE (stopping near its edge left the primal max-eig
# solve a singular KKT system), and small enough that the gap (m + sqrt m)/t
# that solve reports covers the centring error
_CENTERED = 1e-3
# exact line searches until lambda drops below this, then full steps
_QUADRATIC_PHASE = 0.25


@dataclass
class AffineBlock:
    """g PSD constraints of one size h, const[i] + sum_k x_k coeffs[i, k] >= 0
    (Hermitian h x h); coeffs is (1, nv, h, h) when all g share one. Data
    whose imaginary part is all zero is stored as float64."""

    const: np.ndarray   # (g, h, h)
    coeffs: np.ndarray  # (g, nv, h, h) or (1, nv, h, h)

    def __post_init__(self):
        if not (np.imag(self.const).any() or np.imag(self.coeffs).any()):
            self.const = np.ascontiguousarray(np.real(self.const), dtype=np.float64)
            self.coeffs = np.ascontiguousarray(np.real(self.coeffs), dtype=np.float64)

    def lin(self, x: np.ndarray) -> np.ndarray:
        """sum_k x_k coeffs[:, k], one (h, h) matrix per coeffs array."""
        h = self.const.shape[-1]
        return (x @ self.coeffs.reshape(-1, x.size, h * h)).reshape(-1, h, h)


@dataclass
class SdpProblem:
    """minimize objective @ x subject to the PSD blocks, eq_mat @ x = eq_rhs
    and ineq_mat @ x >= ineq_rhs.

    interior_point must make every block positive definite, satisfy the
    equalities and satisfy the inequalities strictly.
    """

    objective: np.ndarray
    blocks: list[AffineBlock]
    interior_point: np.ndarray
    eq_mat: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    ineq_mat: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    name: str = ""


@dataclass
class SdpSolution:
    primal_value: float   # objective at the returned strictly feasible point
    dual_value: float     # primal_value - gap, a lower bound on the optimum
    x: np.ndarray
    gap: float
    newton_steps: int


def _layout(problem: SdpProblem, nv: int) -> list[tuple]:
    """Each block as the barrier reads it, built once per solve: its coeffs
    viewed (-1, nv, h*h) for F_lin(x) and (-1, nv*h, h) for every A_k L^-H,
    views and not copies; its const, or None where const is all zero and
    coeffs holds all g arrays; and whether F, const + F_lin, is complex."""
    return [(b.coeffs.reshape(-1, nv, h * h), b.coeffs.reshape(-1, nv * h, h),
             None if len(b.coeffs) == len(b.const) and not b.const.any() else b.const,
             np.iscomplexobj(b.const) or np.iscomplexobj(b.coeffs))
            for b in problem.blocks for h in [b.const.shape[-1]]]


def _lapack_errors(message: str) -> np.errstate:
    """The errstate numpy.linalg runs its LAPACK gufuncs under, as a
    decorator: a gufunc that fails sets the invalid flag, which raises
    LinAlgError(message); over, divide and under are ignored."""
    def call(err, flag):
        raise np.linalg.LinAlgError(message)
    return np.errstate(call=call, invalid="call", over="ignore", divide="ignore", under="ignore")


# numpy.linalg's own gufuncs, called as np.linalg calls them (see solve);
# each errstate covers only the gufuncs, not the caller's other ufuncs
@_lapack_errors("Matrix is not positive definite")
def _inverse_factor(f: np.ndarray, is_complex: bool) -> np.ndarray:
    """L^-1 for each F = L L^H of the (g, h, h) stack f."""
    sig = "D->D" if is_complex else "d->d"
    return _umath_linalg.inv(_umath_linalg.cholesky_lo(f, signature=sig), signature=sig)


@_lapack_errors("Singular matrix")
def _kkt_solve(kkt: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return _umath_linalg.solve1(kkt, rhs, signature="dd->d")


@_lapack_errors("Eigenvalues did not converge")
def _eigenvalues(stacks: list[tuple[np.ndarray, bool]]) -> list[np.ndarray]:
    """The eigenvalues of each Hermitian (g, h, h) stack, flat, given with its
    complex flag."""
    return [_umath_linalg.eigvalsh_lo(s, signature="D->d" if is_complex else "d->d").ravel()
            for s, is_complex in stacks]


def _barrier_derivatives(
    problem: SdpProblem, x: np.ndarray, layout: list[tuple]
) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Gradient and Hessian of -sum_i log det F_i(x), and the map from a
    direction dx to the eigenvalues gamma of every L^-1 F_lin(dx) L^-H, along
    which the barrier is -sum_j log(1 + a gamma_j) plus a constant.

    With F_i = L L^H and M_k = L^-1 A_k L^-H, the gradient is -tr(M_k) and
    the Hessian tr(M_k M_l). The g constraints of a block are evaluated
    together: one batched Cholesky and inverse, one batched GEMM for every
    A_k L^-H and one stacked matmul for every M_k^T = (A_k L^-H)^T L^-T,
    laid out (nv, g, h, h). M_k^T is Hermitian as M_k is, so tr(M_k M_l) is
    the sum over entries of N_k N_l for N_k = Re M_k^T + Im M_k^T: the cross
    terms pair a symmetric with an antisymmetric matrix and vanish. The
    Hessian gains the real Gram matrix V V^T, row k of V the g*h*h entries
    of N_k, which in a float64 block is M_k^T itself. gamma is the
    eigenvalues of sum_k dx_k M_k^T, from the complex M_k^T where the block
    is complex. An inequality row is a 1 x 1 constraint: with
    w = ineq_mat / slack its terms are -w.sum(0) and w^T w, and its gamma
    w @ dx. The factor and inverse (_inverse_factor) and gamma's eigenvalues
    (_eigenvalues) call LAPACK directly, since np.linalg's wrapper costs more
    than LAPACK on these small stacks. Raises LinAlgError when a constraint
    does not hold strictly at x. layout is _layout(problem, x.size), which
    solve builds once.
    """
    nv = x.size
    terms, mts = [], []  # (tr M_k, Gram matrix) per block, then the rows'
    for lin, gemm, const, is_complex in layout:
        h = gemm.shape[-1]
        f = (x @ lin).reshape(-1, h, h)
        if const is not None:
            f = const + f
        g = len(f)
        lo_inv = _inverse_factor(f, is_complex)
        right = gemm @ (lo_inv.conj() if is_complex else lo_inv).swapaxes(1, 2)  # A_k L^-H
        mt = np.empty((nv, g, h, h), dtype=right.dtype)  # laid out so that V is a view
        np.matmul(right.reshape(g, nv, h, h).transpose(1, 0, 3, 2), lo_inv.swapaxes(1, 2), out=mt)
        del right  # before the fold below allocates
        v = mt.reshape(nv, g * h * h)
        if is_complex:
            v = v.real + v.imag
        terms.append((np.einsum("kjaa->k", mt).real, v @ v.T))  # v on both sides: syrk
        mts.append((mt, is_complex))
    w = None
    if problem.ineq_mat is not None:
        slack = problem.ineq_mat @ x - problem.ineq_rhs
        if not slack.min() > 0.0:
            row = int(np.flatnonzero(~(slack > 0.0))[0])
            raise np.linalg.LinAlgError(f"inequality row {row} has slack {slack[row]:.3e}, not > 0")
        w = problem.ineq_mat / slack[:, np.newaxis]
        terms.append((w.sum(0), w.T @ w))
    grad, hess = -terms[0][0], terms[0][1]  # the sums start from the first terms
    for trace, gram in terms[1:]:
        grad -= trace
        hess += gram

    def gamma(dx: np.ndarray) -> np.ndarray:
        parts = _eigenvalues([((dx @ mt.reshape(nv, -1)).reshape(mt.shape[1:]), is_complex)
                              for mt, is_complex in mts])
        if w is not None:
            parts.append(w @ dx)
        return np.concatenate(parts)

    return grad, hess, gamma


def _line_search(slope: float, gamma: np.ndarray) -> float:
    """Step length along a Newton direction: minimizes
    phi(a) = slope a - sum_j log(1 + a gamma_j), which needs some gamma_j < 0
    or slope > 0, by 1-D Newton steps from a = 0, damped by 1/(1 + delta)
    until their decrement delta is at most _QUADRATIC_PHASE, then one full
    step. At a = 0, delta is lambda, so the first iterate is 1/(1 + lambda).
    gamma is short, so Python floats beat numpy calls. Where phi'' is 0 to
    working precision, phi is linear and has no minimizer to step to: that
    raises Unbounded if phi falls along the direction, Unsupported if not."""
    gamma = gamma.tolist()
    a = 0.0
    while True:
        d1, d2 = slope, 0.0  # phi'(a), phi''(a)
        for g in gamma:
            ratio = g / (1.0 + a * g)
            d1 -= ratio
            d2 += ratio * ratio
        if d2 == 0.0:
            if d1 < 0.0:
                raise Unbounded(f"line search: phi is linear to working precision "
                                f"with phi' = {d1:.3e} < 0, so it has no minimizer")
            raise Unsupported(f"line search needs a descent direction, "
                              f"but phi is linear with phi' = {d1:.3e} >= 0")
        decrement = abs(d1) / math.sqrt(d2)
        if decrement <= _QUADRATIC_PHASE:
            return a - d1 / d2
        a -= d1 / d2 / (1.0 + decrement)


def solve(
    problem: SdpProblem,
    tol: float = DEFAULT_GAP_TOL,
    max_newton: int = 5000,
) -> SdpSolution:
    """Barrier method; returns values bracketing the optimum within tol.

    Stage t centres t c.x - sum_i log det F_i(x) over {A x = b}. While the
    Newton decrement lambda exceeds 1/4, x moves to x + a dx, a from
    _line_search on that objective along the Newton direction dx: the
    barrier keeps x strictly feasible, and a decreases the objective at least
    as much as the damped step 1/(1+lambda) does. Then full steps converge
    quadratically; one whose end the barrier refuses, as where a near
    singular K gives a wrong lambda, is replaced by the line search's step.
    Every stage stops at lambda^2/2 <= _CENTERED, and t grows
    by 1/_MU_REDUCTION until gap = (m + sqrt m)/t <= tol, m the total size of
    the PSD constraints plus the number of inequality rows. A point with
    lambda = beta < 1 has c.x - p* <= (m + (beta + sqrt m) beta/(1 - beta))/t
    (Nesterov, Introductory Lectures on Convex Optimization, 2004, Theorem
    4.2.7), within gap for beta <= 0.045. The Newton system is Jacobi-scaled
    by diag(H)^-1/2, so that a Hessian diagonal spanning many orders does not
    lose A dx = 0 to rounding. The block layout is built once per solve, and
    every step writes H, D, r, D K D and D r in place, into arrays allocated
    once. A step is a few LAPACK calls on small arrays, on which np.linalg's
    per-call wrapper (conversion, type promotion, a fresh errstate) cost more
    than LAPACK, so the factor, inverse, KKT solve and eigenvalues call
    numpy.linalg's gufuncs directly: the same kernels, so every iterate keeps
    its bits, and a failure raises np.linalg's LinAlgError. The start must
    satisfy A x = b to EQ_START_TOL relative to max(1, |b|). Raises Unbounded
    on a ray the objective falls along without bound.
    """
    c = np.asarray(problem.objective, dtype=np.float64)
    nv = c.size
    a_mat, b_rhs = problem.eq_mat, problem.eq_rhs
    p = 0 if a_mat is None else a_mat.shape[0]

    x = np.asarray(problem.interior_point, dtype=np.float64).copy()
    if p and not np.all(np.abs(a_mat @ x - b_rhs) <= EQ_START_TOL * np.maximum(1.0, np.abs(b_rhs))):
        raise NoInteriorPoint(
            f"starting point violates the equalities of problem {problem.name!r}"
        )
    layout = _layout(problem, nv)
    try:
        grad, hess, gamma_of = _barrier_derivatives(problem, x, layout)
    except np.linalg.LinAlgError:
        raise NoInteriorPoint(
            f"starting point is not strictly feasible for problem {problem.name!r}"
        ) from None

    # KKT system of the equality-constrained Newton step; the primal
    # residual is zero because every iterate satisfies A x = b. Each step
    # writes H, D and r into these arrays and D K D, D r into the scaled pair
    kkt = np.zeros((nv + p, nv + p))
    if p:
        kkt[:nv, nv:] = a_mat.T
        kkt[nv:, :nv] = a_mat
    rhs = np.zeros(nv + p)
    scale = np.ones(nv + p)  # D: diag(H)^-1/2 on the x rows, 1 on the multipliers
    kkt_h, rhs_x, scale_x = kkt[:nv, :nv], rhs[:nv], scale[:nv]
    scaled_kkt, scaled_rhs = np.empty_like(kkt), np.empty_like(rhs)

    def searched(dx: np.ndarray, gamma_of) -> np.ndarray:
        # dx scaled by the exact line search of stage t: the barrier along
        # x + a dx is -sum_j log(1 + a gamma_j) plus a constant
        gamma = gamma_of(dx)
        slope = t * float(c @ dx)
        if gamma.min() >= 0.0 and slope <= 0.0:
            raise Unbounded(f"objective of problem {problem.name!r} is unbounded below")
        return dx * _line_search(slope, gamma)

    m_total = sum(b.const.shape[0] * b.const.shape[1] for b in problem.blocks)
    if problem.ineq_rhs is not None:
        m_total += problem.ineq_rhs.size
    t, steps = 1.0, 0
    while True:
        while True:
            kkt_h[...] = hess
            np.divide(1.0, np.sqrt(hess.diagonal(), out=scale_x), out=scale_x)
            np.negative(np.add(np.multiply(t, c, out=rhs_x), grad, out=rhs_x), out=rhs_x)
            np.multiply(np.multiply.outer(scale, scale, out=scaled_kkt), kkt, out=scaled_kkt)
            np.multiply(scale, rhs, out=scaled_rhs)  # (D K D) z = D r, dx = D z
            dx = scale_x * _kkt_solve(scaled_kkt, scaled_rhs)[:nv]
            decrement_sq = float(dx @ hess @ dx)
            if decrement_sq / 2.0 <= _CENTERED:
                break
            if steps >= max_newton:
                raise MaxIterations(
                    f"Newton budget exhausted in problem {problem.name!r}"
                )
            full = math.sqrt(decrement_sq) <= _QUADRATIC_PHASE
            if not full:
                dx = searched(dx, gamma_of)
            steps += 1
            del gamma_of  # the old M_k, before the new ones are formed
            x_next = x + dx
            try:
                grad, hess, gamma_of = _barrier_derivatives(problem, x_next, layout)
            except np.linalg.LinAlgError:
                if not full:
                    raise
                # the full step left the cone, which the computed lambda can
                # hide where K is near singular: search along dx from x instead
                dx = searched(dx, _barrier_derivatives(problem, x, layout)[2])
                x_next = x + dx
                grad, hess, gamma_of = _barrier_derivatives(problem, x_next, layout)
            x = x_next
        gap = (m_total + math.sqrt(m_total)) / t
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
    relaxation whose optimum can only be lower. The mode's LmiSet is the
    problem's one AffineBlock as it stands: its (g, mn, q, q) coeffs array
    is absppt's, not a copy, with const zero; g = 0 leaves no block.
    """
    m, n = dims
    total = m * n
    mu = np.asarray(witness_spectrum, dtype=np.float64)
    if mu.size != total:
        raise ValueError(f"witness spectrum must have length {total}")
    if not np.all(np.isfinite(mu)):
        raise ValueError("witness spectrum must be finite")
    if np.any(np.diff(mu) > WITNESS_SORT_SLACK):
        raise ValueError("witness spectrum must be sorted descending")
    if lmi_mode == "full":
        lmis = absppt.build_lmis(m, n)
        if not lmis.exact:
            raise Unsupported("full LMI mode requires min{m,n} <= 3")
    elif lmi_mode == "submatrix2x2":
        lmis = absppt.necessary_lmis(m, n)
    else:
        raise ValueError(f"unknown lmi_mode {lmi_mode!r}")

    blocks = [AffineBlock(np.zeros_like(lmis.coeffs[:, 0]), lmis.coeffs)] if len(lmis.coeffs) else []

    tilt = 1.0 + 0.01 * np.linspace(1.0, -1.0, total)
    start = tilt / tilt.sum()
    return SdpProblem(
        objective=mu[::-1].copy(),
        blocks=blocks,
        eq_mat=np.ones((1, total)),
        eq_rhs=np.ones(1),
        # lambda_1 >= ... >= lambda_mn >= 0: rows e_j - e_{j+1}, then e_mn
        ineq_mat=np.eye(total) - np.eye(total, k=1),
        ineq_rhs=np.zeros(total),
        interior_point=start,
        name=f"min-witness-{lmi_mode}",
    )


def min_witness_over_abs_ppt(
    witness_spectrum,
    dims: tuple[int, int],
    lmi_mode: str = "full",
    tol: float = MIN_WITNESS_GAP_TOL,
) -> float:
    """Minimum witness overlap over absolutely PPT spectra (primal value).

    The returned value is attained by the solver's spectrum, which
    _verify_min_witness_point checks before it is used, so it upper-bounds
    the exact optimum, by at most the solver's gap bound, tol. A problem with
    no LMI block (min{m,n} = 1) is the ordering LP alone, whose optimum is
    the vertex lambda = e_1 by rearrangement: its value mu_mn is returned
    exactly, with no solve.
    """
    problem = min_witness_problem(witness_spectrum, dims, lmi_mode)
    if not problem.blocks:
        vertex = np.eye(1, problem.objective.size)[0]
        _verify_min_witness_point(problem, vertex)
        return float(problem.objective[0])
    sol = solve(problem, tol=tol)
    _verify_min_witness_point(problem, sol.x)
    return sol.primal_value


def _verify_min_witness_point(problem: SdpProblem, lam: np.ndarray) -> None:
    """Raise CertificateRejected unless lam is feasible for problem, a
    min_witness_problem: its ordering rows >= 0, its row sum(lambda) = 1
    within MIN_WITNESS_SUM_TOL, and its LMIs PSD within absppt.LMI_PSD_TOL."""
    slack = problem.ineq_mat @ lam - problem.ineq_rhs
    if not slack.min() >= 0.0:
        j = int(np.argmin(slack))
        raise CertificateRejected(f"ordering row {j} of the spectrum is {slack[j]:.3e} < 0")
    drift = float(problem.eq_mat[0] @ lam - problem.eq_rhs[0])
    if abs(drift) > MIN_WITNESS_SUM_TOL:
        raise CertificateRejected(f"spectrum sums to 1 {drift:+.3e}, beyond {MIN_WITNESS_SUM_TOL:g}")
    for block in problem.blocks:
        lam_min = matcore.eigvalsh(block.lin(lam))[:, -1]
        bad = np.flatnonzero(lam_min < -absppt.LMI_PSD_TOL)
        if bad.size:
            raise CertificateRejected(f"LMI {bad[0]} is not PSD (min eigenvalue {lam_min[bad[0]]:.3e})")


def verify_min_witness_certificate(
    witness_spectrum, dims: tuple[int, int], lmi_mode: str, zs
) -> float:
    """Verify Z_i >= 0, one per LMI constraint of min_witness_problem(witness_spectrum,
    dims, lmi_mode), and return the certified lower bound on its optimum.

    With r = c - sum_i A_i*(Z_i), the dual equality asks D^T y + t 1 = r for
    the ordering rows D (e_j - e_{j+1}, then e_mn). D^T is bidiagonal, so
    y_k = cumsum(r)_k - k t, and y >= 0 holds exactly for
    t <= min_k cumsum(r)_k / k. By weak duality every feasible spectrum
    scores at least that t. A Z_i whose least eigenvalue is negative but
    above -CERT_PSD_TOL is used as given, so the bound is certified only up
    to CERT_PSD_TOL times the size of A_i*(I). Every Z_i's shape is checked
    first, then each Z_i in turn through _psd_checks, before the bound is
    computed, and the first Z_i that fails is named.
    """
    problem = min_witness_problem(witness_spectrum, dims, lmi_mode)
    lmis = [coeffs for block in problem.blocks for coeffs in block.coeffs]  # A_i, (mn, q, q)
    if len(zs) != len(lmis):
        raise CertificateRejected(f"expected {len(lmis)} dual blocks, got {len(zs)}")
    zs = [np.asarray(z) for z in zs]
    for i, (coeffs, z) in enumerate(zip(lmis, zs)):
        if z.shape != coeffs.shape[1:]:
            raise CertificateRejected(f"Z{i} has shape {z.shape}, expected {coeffs.shape[1:]}")
    checks = _psd_checks([(f"Z{i}", z[np.newaxis]) for i, z in enumerate(zs)])
    r = problem.objective.copy()
    for coeffs, z in zip(lmis, zs):
        r -= np.real(np.einsum("kab,ba->k", coeffs, z))
    return _one([np.min(np.cumsum(r) / np.arange(1, r.size + 1))], checks)


# ----------------------------------------------------------------------------
# Hermitian matrix variables
# ----------------------------------------------------------------------------


def _min_s_problem(
    d: int, blocks: list[AffineBlock], y_diag: float, s: float, name: str
) -> SdpProblem:
    """minimize s over x = (coefficients of a d x d Y in bipartite._hermitian_basis(d)
    of blocks[0], s), from the start Y = y_diag I and the given s."""
    nb = blocks[0].coeffs.shape[1] - 1
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
    diag(Y - J, Y + J). For a real J, Y is taken real symmetric.
    """
    n = phi.dim
    d = n * n
    jmat = posmaps.choi_matrix(phi)
    basis = bipartite._hermitian_basis(d, real=not jmat.imag.any())
    coeffs = np.concatenate([basis, np.zeros((1, d, d))])[np.newaxis]  # x = (Y coeffs, s)
    traced = bipartite.partial_trace(basis, n, n, "second")
    cap = np.concatenate([-traced, np.eye(n)[np.newaxis]])[np.newaxis]  # s I - Tr_2 Y
    blocks = [AffineBlock(np.stack([-jmat, jmat]), coeffs), AffineBlock(np.zeros((1, n, n)), cap)]
    kappa = matcore.schatten_norm(jmat, "operator") + 1.0
    return _min_s_problem(d, blocks, kappa, kappa * n + 1.0, "diamond-norm")


def max_eig_problem(phi: posmaps.MapSpec) -> SdpProblem:
    """sup Tr(J(phi) rho) over PPT rho with Tr(rho) <= 1, as a minimization."""
    n = phi.dim
    d = n * n
    jmat = posmaps.choi_matrix(phi)
    basis = bipartite._hermitian_basis(d, real=not jmat.imag.any())
    objective = -np.real(np.einsum("kab,ba->k", basis, jmat))
    coeffs = np.empty((2,) + basis.shape, dtype=basis.dtype)  # rho, rho^Gamma
    coeffs[0] = basis
    coeffs[1] = bipartite.partial_transpose(basis, n, n)
    start = np.zeros(len(basis))
    start[:d] = 1.0 / (2.0 * d)
    return SdpProblem(
        objective=objective,
        blocks=[AffineBlock(np.zeros((2, d, d)), coeffs)],
        ineq_mat=-np.real(np.einsum("kaa->k", basis))[np.newaxis, :],  # -Tr rho >= -1
        ineq_rhs=np.array([-1.0]),
        interior_point=start,
        name="max-eig-ppt",
    )


def max_eig_dual_problem(phi: posmaps.MapSpec) -> SdpProblem:
    """Dual of sup Tr(J rho) over PPT states rho, whose feasible Y are the
    certificates verify_max_eig_certificates checks: minimize s over Y (real
    symmetric when J is real, else Hermitian) with Y >= 0 and
    s I - J - Y^Gamma >= 0, for J = J(phi) and Gamma the partial transpose.
    Y = I, s = ||J||_op + 2 is strictly feasible, as I^Gamma = I.
    """
    n = phi.dim
    d = n * n
    jmat = posmaps.choi_matrix(phi)
    basis = bipartite._hermitian_basis(d, real=not jmat.imag.any())
    nb = len(basis)
    coeffs = np.zeros((2, nb + 1, d, d), dtype=basis.dtype)  # x = (Y coeffs, s)
    coeffs[0, :nb] = basis  # Y
    np.negative(bipartite.partial_transpose(basis, n, n), out=coeffs[1, :nb])
    coeffs[1, nb] = np.eye(d)  # s I - J - Y^Gamma
    blocks = [AffineBlock(np.stack([np.zeros_like(jmat), -jmat]), coeffs)]
    s = matcore.schatten_norm(jmat, "operator") + 2.0
    return _min_s_problem(d, blocks, 1.0, s, "max-eig-dual")


# ----------------------------------------------------------------------------
# analytic certificates
# ----------------------------------------------------------------------------


def gen_choi_outer(b, c):
    """2b+c >= 3 or b+2c >= 3, elementwise: where it holds, the max-eigenvalue
    certificate for the dual of Phi_{b,c} is Y = 0 and its bound max{b,c}/2."""
    return (2.0 * b + c >= 3.0) | (b + 2.0 * c >= 3.0)


def _gen_choi_closed_forms(b, c) -> tuple[np.ndarray, ...]:
    """Elementwise over (b, c) arrays: the certificate entries x, y and sqrt(xy),
    zero where gen_choi_outer, and the bound gen_choi_max_eig_bound. np.float_power
    calls libm pow as Python's ** does, so each value is the scalar formula's.
    Where gen_choi_outer fails, 6(2-b-c) is positive, in rounded arithmetic too;
    where it holds, 1 stands in for it, so nothing divides by 0.
    """
    b, c = np.broadcast_arrays(np.asarray(b, dtype=np.float64), np.asarray(c, dtype=np.float64))
    outer = gen_choi_outer(b, c)
    den = np.where(outer, 1.0, 6.0 * (2.0 - b - c))
    x = np.where(outer, 0.0, np.float_power(3.0 - 2.0 * b - c, 2) / den)
    y = np.where(outer, 0.0, np.float_power(3.0 - b - 2.0 * c, 2) / den)
    root = np.sqrt(x * y)
    inner = (b * b + c * c - 6.0 * (b + c) + b * c + 9.0) / den
    inner = np.where(2.0 * root > 1.0, inner + 1.5 * (2.0 * root - 1.0), inner)
    return x, y, root, np.where(outer, np.maximum(b, c) / 2.0, inner)


def gen_choi_xy(b, c) -> tuple:
    """The (x, y) entries of the max-eigenvalue certificate, second case, elementwise."""
    if np.any(gen_choi_outer(b, c)):
        raise ValueError("x, y are only defined when 2b+c < 3 and b+2c < 3")
    x, y, _, _ = _gen_choi_closed_forms(b, c)
    return x[()], y[()]


def gen_choi_max_eig_bound(b, c):
    """Max-eigenvalue bound certified for the dual of Phi_{b,c}, elementwise.

    max{b,c}/2 when 2b+c >= 3 or b+2c >= 3. Otherwise the certificate's
    shifted matrix is ((b+2x) I + 3(2 sqrt(xy) - 1) psi+)/2, so (b+2x)/2 is
    the bound, plus 1.5 (2 sqrt(xy) - 1) where 2 sqrt(xy) > 1. That needs
    b+c < 2/3 but is not implied by it: at (0, 0.65), 2 sqrt(xy) ~ 0.987
    and nothing is added.
    """
    return _gen_choi_closed_forms(b, c)[3][()]


class CertificateStack(NamedTuple):
    """The analytic diamond and max-eig certificates of k maps of one kind on
    M_n: their Choi matrices and, for each SDP, every map's Y with the value
    that Y should certify."""

    jmats: np.ndarray             # [k, n², n²]
    diamond_ys: np.ndarray        # [k, n², n²]
    diamond_expected: np.ndarray  # [k]
    max_eig_ys: np.ndarray        # [k, n², n²]
    max_eig_expected: np.ndarray  # [k]


def gen_choi_certificates(b, c) -> CertificateStack:
    """The certificates of the duals of Phi_{b[k],c[k]}, for (b, c) arrays of
    shape (k,), built as stacks with no per-map object; the dual of Phi_{b,c}
    is Phi_{c,b}. The diamond Y = J + (b + c) |psi+><psi+| certifies
    (3 + b + c)/3. The max-eig Y is 0 where gen_choi_outer and the
    sqrt(xy)-patterned Y elsewhere, certifying gen_choi_max_eig_bound(b, c).
    Every stack is float64."""
    b, c = np.asarray(b, dtype=np.float64), np.asarray(c, dtype=np.float64)
    jmats = posmaps.generalized_choi_matrices(c, b)
    kappa = b + c
    x, y, root, bound = _gen_choi_closed_forms(b, c)
    ys = np.zeros((b.size, 9, 9))
    ys[:, [1, 5, 6], [1, 5, 6]] = x[:, np.newaxis]
    ys[:, [2, 3, 7], [2, 3, 7]] = y[:, np.newaxis]
    ys[:, [1, 2, 5, 3, 6, 7], [3, 6, 7, 1, 2, 5]] = root[:, np.newaxis]  # (1,3), (2,6), (5,7)
    diamond_ys = jmats + kappa[:, np.newaxis, np.newaxis] * bipartite.max_entangled_projector(3)
    return CertificateStack(jmats, diamond_ys, (3.0 + kappa) / 3.0, ys, bound)


def breuer_hall_certificates(phi: posmaps.MapSpec) -> CertificateStack:
    """The certificates of one Breuer-Hall map on M_n, its own dual, as stacks
    of one. The diamond Y = J + 2 |psi+><psi+| certifies (n + 2)/n; the
    max-eig Y, rank one, n/(n-2) (I ⊗ V*) |psi+><psi+| (I ⊗ V*)^H, certifies
    1/(n - 2): its partial transpose cancels the V X^T V^H term of J. Real V
    gives float64 stacks."""
    n = phi.dim
    jmats = posmaps.choi_matrix(phi)[np.newaxis]
    r = bipartite.kron(np.eye(n), phi.v.conj())
    y = n / (n - 2.0) * (r @ bipartite.max_entangled_projector(n) @ r.conj().T)
    return CertificateStack(jmats, jmats + 2.0 * bipartite.max_entangled_projector(n),
                            np.array([(n + 2.0) / n]), y[np.newaxis], np.array([1.0 / (n - 2.0)]))


def _psd_checks(blocks) -> list[tuple[str, np.ndarray, np.ndarray | None]]:
    """(what, ok, min eigenvalue) of each (what, stack) block: the verdict of
    psd_test with CERT_PSD_TOL on every matrix of the stack. matcore.psd_screen
    passes a stack whole with no eigenvalue, and then ok is all True and the
    min eigenvalue None; only a stack it does not pass goes to psd_test, whose
    verdicts and min eigenvalues name the failures. A block the Hermitian
    gateway of the screen refuses, a non-finite one or one too far from
    Hermitian, raises CertificateRejected naming it, as in "Y: matrix is not
    Hermitian (defect ...)"; so verifiers run these checks before computing
    a value from the blocks."""
    checks = []
    for what, stack in blocks:
        try:
            screened = matcore.psd_screen(stack, CERT_PSD_TOL)
        except InvalidMatrix as exc:
            raise CertificateRejected(f"{what}: {exc}") from None
        if screened:
            checks.append((what, np.ones(np.shape(stack)[:-2], dtype=bool), None))
        else:
            checks.append((what, *matcore.psd_test(stack, CERT_PSD_TOL)))
    return checks


def certificate_failures(checks) -> dict[int, str]:
    """{k: message} for every certificate k that fails one of a verifier's
    checks: the CertificateRejected message naming the first block, in the
    order of checks, that it fails. Certificates that pass build no message."""
    passed = np.logical_and.reduce([ok for _, ok, _ in checks])
    failures = {}
    for k in np.flatnonzero(~passed).tolist():
        what, _, lam_min = next(check for check in checks if not check[1][k])
        failures[k] = f"{what} is not PSD (min eigenvalue {lam_min[k]:.3e})"
    return failures


def _one(values, checks) -> float:
    """The value certified by a one-certificate stack; raises its rejection."""
    failures = certificate_failures(checks)
    if failures:
        raise CertificateRejected(failures[0])
    return float(values[0])


def _y_stack(ys, jmats: np.ndarray) -> np.ndarray:
    """ys as a stack shaped like jmats, [k, d, d]; any other shape is rejected."""
    ys = np.asarray(ys)
    d = jmats.shape[-1]
    if ys.shape[1:] != (d, d):
        raise CertificateRejected(f"Y has shape {ys.shape[1:]}, expected {(d, d)}")
    if len(ys) != len(jmats):
        raise CertificateRejected(f"expected {len(jmats)} Y, one per Choi matrix, got {len(ys)}")
    return ys


def verify_diamond_certificates(jmats: np.ndarray, ys) -> tuple[np.ndarray, list]:
    """Verify Y - J >= 0 and Y + J >= 0, the PSD blocks of diamond_norm_problem,
    for k maps on M_n at once: jmats[k] is the Choi matrix of map k and ys[k]
    its Y, [k, n², n²] stacks (n read from their shape; a stack of another
    shape is rejected whole). Returns each map's certified upper bound
    ||Tr_2 Y||_op, from one partial trace and one SVD, and the _psd_checks
    of its two blocks, whose failures certificate_failures names. Each J must
    be Hermitian: then conjugating Watrous's [[Y, -J], [-J, Y]] by
    (1/sqrt2) [[I, I], [I, -I]] gives diag(Y - J, Y + J), so the two checks
    are his constraint, and their sum 2Y is PSD too.
    """
    ys = _y_stack(ys, jmats)
    checks = _psd_checks([("Y - J", ys - jmats), ("Y + J", ys + jmats)])
    n = math.isqrt(jmats.shape[-1])
    values = matcore.singular_values(bipartite.partial_trace(ys, n, n, "second"))[:, 0]
    return values, checks


def verify_max_eig_certificates(jmats: np.ndarray, ys) -> tuple[np.ndarray, list]:
    """Verify Y >= 0 for k maps on M_n at once, with jmats and ys as in
    verify_diamond_certificates. Returns each map's certified bound
    lambda_max((id ⊗ T)(Y) + J), from one partial transpose and one stacked
    eigvalsh, and the checks of its Y block."""
    ys = _y_stack(ys, jmats)
    checks = _psd_checks([("Y", ys)])
    n = math.isqrt(jmats.shape[-1])
    values = matcore.eigvalsh(bipartite.partial_transpose(ys, n, n) + jmats)[:, 0]
    return values, checks


def max_eig_certificate(phi: posmaps.MapSpec) -> np.ndarray:
    """Feasible Y >= 0 for the PPT max-eigenvalue SDP of the given map, from
    breuer_hall_certificates, or from gen_choi_certificates for Phi_{c,b},
    the dual of Phi_{b,c}, on a stack of one."""
    if phi.kind == "breuer_hall":
        certs = breuer_hall_certificates(phi)
    elif phi.kind == "generalized_choi":
        certs = gen_choi_certificates(np.array([phi.c]), np.array([phi.b]))
    else:
        raise Unsupported(f"map kind {phi.kind!r} is not in the generalized Choi family")
    return certs.max_eig_ys[0]


def verify_max_eig_certificate(phi: posmaps.MapSpec, y) -> float:
    """verify_max_eig_certificates of Y for J(phi), a stack of one."""
    return _one(*verify_max_eig_certificates(posmaps.choi_matrix(phi)[np.newaxis], [y]))


def diamond_norm_ub(phi: posmaps.MapSpec, tol: float = DEFAULT_GAP_TOL) -> float:
    """Upper bound on the diamond norm: the verified bound of the solver's Y."""
    problem = diamond_norm_problem(phi)
    ys = problem.blocks[0].lin(solve(problem, tol=tol).x)[:1]  # Y, the linear part of constraint 0
    return _one(*verify_diamond_certificates(posmaps.choi_matrix(phi)[np.newaxis], ys))


def max_eig_ub(phi: posmaps.MapSpec, tol: float = DEFAULT_GAP_TOL) -> float:
    """Upper bound on eigenvalues of (id ⊗ phi)(|v><v|) over unit vectors:
    the verified bound of the solver's Y for max_eig_dual_problem."""
    problem = max_eig_dual_problem(phi)
    ys = problem.blocks[0].lin(solve(problem, tol=tol).x)[:1]  # Y, the linear part of constraint 0
    return _one(*verify_max_eig_certificates(posmaps.choi_matrix(phi)[np.newaxis], ys))


def min_eig_lb_from_diamond(diamond_ub: float) -> float:
    """(1 - diamond upper bound)/2 lower-bounds the witness eigenvalues."""
    if not diamond_ub >= 1.0 - DIAMOND_FLOOR_SLACK:
        raise ValueError(f"a diamond norm upper bound cannot be below 1, got {diamond_ub}")
    return (1.0 - diamond_ub) / 2.0
