"""Barrier solver and analytic certificate verifiers."""

import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abssep import absppt, bipartite, matcore, posmaps, sdpsolve, witness
from abssep.errors import (
    CertificateRejected,
    InvalidMatrix,
    MaxIterations,
    NoInteriorPoint,
    Unbounded,
    Unsupported,
)

R2 = math.sqrt(2.0)


def _ordering_problem(nv):
    # x_1 >= x_2 >= ... >= x_nv >= 0 as inequality rows, with no PSD block
    obj = np.zeros(nv)
    obj[0] = 1.0
    tilt = 1.0 + 0.01 * np.linspace(1.0, -1.0, nv)
    return sdpsolve.SdpProblem(
        objective=obj,
        blocks=[],
        eq_mat=np.ones((1, nv)),
        eq_rhs=np.ones(1),
        ineq_mat=np.eye(nv) - np.eye(nv, k=1),
        ineq_rhs=np.zeros(nv),
        interior_point=tilt / tilt.sum(),
        name="toy-ordering",
    )


def test_solve_toy_ordering_lp():
    sol = sdpsolve.solve(_ordering_problem(4), tol=1e-7)
    assert abs(sol.primal_value - 0.25) <= 1e-6
    assert sol.dual_value <= sol.primal_value
    assert abs(sol.dual_value - 0.25) <= 1e-6


def test_solve_requires_interior_point():
    prob = _ordering_problem(4)
    prob.interior_point = np.array([0.4, 0.3, 0.2, 0.1])[::-1].copy()  # not descending
    with pytest.raises(NoInteriorPoint):
        sdpsolve.solve(prob)


@pytest.mark.parametrize("start", [
    np.array([0.4, 0.3, 0.2, 0.05]),  # strictly ordered, sums to 0.95
    # np.allclose's rtol of 1e-5 once let this start through, and the solve
    # returned a point summing to 1 + 1e-7
    _ordering_problem(4).interior_point * (1.0 + 1e-7),
], ids=["off-by-5e-2", "off-by-1e-7"])
def test_solve_rejects_start_off_the_equalities(start):
    prob = _ordering_problem(4)
    prob.interior_point = start
    with pytest.raises(NoInteriorPoint, match="violates the equalities"):
        sdpsolve.solve(prob)


def _start_is_accepted(prob):
    # with no Newton step allowed, a start that passes every check of solve
    # ends in MaxIterations, or returns where it is centred already (1 x 1);
    # a rejected one raises NoInteriorPoint first
    try:
        sdpsolve.solve(prob, max_newton=0)
    except MaxIterations:
        pass
    return True


# EQ_START_TOL is 8 ulps of 1, 1.78e-15, and the builder's start is within 1
# ulp: 4 ulps more pass, and 40 fail, as they would not at a tolerance 10x looser
@pytest.mark.parametrize("shift, accepted", [(8.9e-16, True), (8.9e-15, False)])
def test_eq_start_tol_is_pinned_from_both_sides(shift, accepted):
    prob = _threshold_problem((3, 3), "full")
    prob.interior_point = prob.interior_point.copy()
    prob.interior_point[0] += shift
    if accepted:
        assert _start_is_accepted(prob)
    else:
        with pytest.raises(NoInteriorPoint):
            sdpsolve.solve(prob, max_newton=0)


def test_every_builder_start_is_accepted():
    choi_dual = posmaps.dual_map(posmaps.choi_map())
    for build in (sdpsolve.diamond_norm_problem, sdpsolve.max_eig_problem, sdpsolve.max_eig_dual_problem):
        assert _start_is_accepted(build(choi_dual))
    for m in range(1, 9):
        for n in range(m, 9):
            mu = np.linspace(1.0, -1.0, m * n) / (m * n)
            modes = ("full", "submatrix2x2") if min(m, n) <= 3 else ("submatrix2x2",)
            for mode in modes:
                assert _start_is_accepted(sdpsolve.min_witness_problem(mu, (m, n), mode)), (m, n, mode)


@pytest.mark.filterwarnings("error")
def test_solve_raises_unbounded_at_once():
    # minimize -x subject to x >= 0: the first Newton ray stays feasible and
    # the objective falls without bound along it, so no step is taken
    prob = sdpsolve.SdpProblem(
        objective=np.array([-1.0]),
        blocks=[],
        ineq_mat=np.ones((1, 1)),
        ineq_rhs=np.zeros(1),
        interior_point=np.ones(1),
        name="ray",
    )
    with pytest.raises(Unbounded, match="'ray'"):
        sdpsolve.solve(prob, max_newton=1)


def test_barrier_names_the_inequality_row_that_fails():
    # x_2 > x_1 breaks the first ordering row, x_1 - x_2 >= 0
    prob = _ordering_problem(3)
    with pytest.raises(np.linalg.LinAlgError,
                       match=re.escape("inequality row 0 has slack -1.000e-01, not > 0")):
        sdpsolve._barrier_derivatives(prob, np.array([0.3, 0.4, 0.3]), sdpsolve._layout(prob, 3))


@pytest.mark.parametrize("slope", [-1.5, -2.0, -5.0, -100.0])
def test_line_search_finds_closed_form_minimizer(slope):
    # slope a - log(1 - a) is least at a = 1 + 1/slope for slope < -1
    a = sdpsolve._line_search(slope, np.array([-1.0]))
    assert abs(a - (1.0 + 1.0 / slope)) <= 1e-12


@pytest.mark.parametrize("slope, gamma, error", [
    (-1.0, 0.0, Unbounded),
    (-1.0, -1e-170, Unbounded),  # gamma^2 underflows: phi is linear to working precision
    (1.0, 0.0, Unsupported),
], ids=["falling", "falling-underflow", "rising"])
def test_line_search_on_a_linear_phi_raises_a_named_error(slope, gamma, error):
    # phi'' = 0, so Newton's step -phi'/phi'' once divided by zero
    with pytest.raises(error, match="linear"):
        sdpsolve._line_search(slope, np.array([gamma]))


def test_line_search_beats_the_damped_step():
    # along a Newton direction, slope - sum(gamma) = -lambda^2 with
    # lambda^2 = sum(gamma^2), and the damped step was 1/(1 + lambda)
    rng = np.random.default_rng(5)
    for _ in range(200):
        gamma = rng.standard_normal(int(rng.integers(1, 30))) * rng.uniform(0.1, 20.0)
        lam_sq = float(gamma @ gamma)
        slope = float(gamma.sum()) - lam_sq
        if gamma.min() >= 0.0 and slope <= 0.0 or lam_sq <= 0.25**2:
            continue  # unbounded, or a full step

        def phi(a, slope=slope, gamma=gamma):
            return slope * a - np.log1p(a * gamma).sum()

        a = sdpsolve._line_search(slope, gamma)
        assert np.all(1.0 + a * gamma > 0.0)
        assert phi(a) <= phi(1.0 / (1.0 + math.sqrt(lam_sq))) + 1e-12


def test_threshold_witness_solve_takes_few_newton_steps():
    # the branch-a midpoint, and 40 of these 60 seeded points, once ran the
    # final stage into a 400-step stall
    ells = [(-0.5 + witness.SPLIT_LOW) / 2.0]
    ells += [float(np.random.default_rng(seed).uniform(-0.5, 0.0)) for seed in range(60)]
    for ell in ells:
        spec = witness.extremal_witness_spectrum(ell, witness.detection_threshold(ell), 9)
        sol = sdpsolve.solve(sdpsolve.min_witness_problem(spec, (3, 3), "full"), tol=1e-8)
        assert sol.newton_steps <= 100  # 31-52 measured
        assert sol.primal_value >= -1e-9
        assert sol.gap <= 1e-8


def test_max_eig_solve_takes_few_newton_steps():
    phi = posmaps.dual_map(posmaps.generalized_choi_map(6.0 / 5.0, 6.0 / 5.0))
    sol = sdpsolve.solve(sdpsolve.max_eig_problem(phi), tol=1e-7)
    assert sol.newton_steps <= 60  # 23 measured
    # the maximization's bracket is [-primal, -dual]
    assert -sol.primal_value <= 0.6 <= -sol.dual_value


def test_min_witness_uniform_spectrum():
    value = sdpsolve.min_witness_over_abs_ppt(np.full(9, 1.0 / 9.0), (3, 3), "full")
    assert abs(value - 1.0 / 9.0) <= 1e-6


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_min_witness_objective_is_the_unitary_orbit_minimum(dims):
    # the rearrangement lemma behind the objective mu[::-1]: for descending
    # lambda and mu, Tr(diag(mu) U diag(lambda) U†) over unitaries U is least,
    # sum_j lambda_j mu_{mn-j+1}, where U reverses the order
    total = dims[0] * dims[1]
    flip = np.eye(total)[:, ::-1]
    rng = bipartite.rng_stream(19)
    for _ in range(5):
        lam = np.sort(rng.dirichlet(np.ones(total)))[::-1]
        mu = np.sort(rng.uniform(-1.0, 1.0, total))[::-1]
        value = sdpsolve.min_witness_problem(mu, dims).objective @ lam
        for _ in range(40):
            u = bipartite.haar_unitary(total, rng)
            assert value <= np.trace(np.diag(mu) @ u @ np.diag(lam) @ u.conj().T).real + 1e-12
        assert abs(np.trace(np.diag(mu) @ flip @ np.diag(lam) @ flip.T) - value) <= 1e-15


def test_min_witness_boundary_witness_is_zero():
    spec = witness.extremal_witness_spectrum(-0.4, 0.6, 9)
    relaxed = sdpsolve.min_witness_over_abs_ppt(spec, (3, 3), "submatrix2x2")
    assert abs(relaxed) <= 1e-6
    full = sdpsolve.min_witness_over_abs_ppt(spec, (3, 3), "full")
    assert abs(full) <= 1e-6
    # the relaxation can only go lower
    assert relaxed <= full + 1e-8


def test_min_witness_detects_beyond_threshold():
    spec = witness.extremal_witness_spectrum(-0.4, 0.62, 9)
    value = sdpsolve.min_witness_over_abs_ppt(spec, (3, 3), "full")
    assert value < -1e-4


def test_min_witness_relaxation_dominated_on_random_witnesses():
    rng = bipartite.rng_stream(3)
    for _ in range(5):
        mu = np.sort(rng.standard_normal(9))[::-1]
        mu = mu - (mu.sum() - 1.0) / 9.0  # unit trace
        full = sdpsolve.min_witness_over_abs_ppt(mu, (3, 3), "full", tol=1e-7)
        relaxed = sdpsolve.min_witness_over_abs_ppt(mu, (3, 3), "submatrix2x2", tol=1e-7)
        assert relaxed <= full + 1e-6


def test_min_witness_rejects_non_finite_spectrum():
    for bad in (math.nan, math.inf):
        mu = np.full(9, 1.0 / 9.0)
        mu[4] = bad
        with pytest.raises(ValueError, match="finite"):
            sdpsolve.min_witness_problem(mu, (3, 3), "submatrix2x2")


@pytest.mark.parametrize("rise, accepted", [(5e-13, True), (5e-12, False)])
def test_witness_sort_slack_is_pinned_from_both_sides(rise, accepted):
    # mu_5 above mu_4 by half WITNESS_SORT_SLACK still counts as sorted; by 5x,
    # which a slack 10x looser would accept, it does not
    mu = np.linspace(0.3, -0.1, 9)
    mu[4] = mu[3] + rise
    if accepted:
        assert sdpsolve.min_witness_problem(mu, (3, 3), "submatrix2x2").objective[4] == mu[4]
    else:
        with pytest.raises(ValueError, match="sorted descending"):
            sdpsolve.min_witness_problem(mu, (3, 3), "submatrix2x2")


def test_verify_min_witness_certificate_closed_form_multipliers():
    rng = bipartite.rng_stream(7)
    for mode in ("full", "submatrix2x2"):
        mu = np.sort(rng.standard_normal(9))[::-1]
        mu = mu - (mu.sum() - 1.0) / 9.0
        zs = [np.zeros_like(const)
              for b in sdpsolve.min_witness_problem(mu, (3, 3), mode).blocks for const in b.const]
        # with Z = 0 the bound is min_k cumsum(c)_k / k; c = mu reversed is
        # ascending, so that is c_1 = mu_9, the ordering-only optimum at e_1
        lb = sdpsolve.verify_min_witness_certificate(mu, (3, 3), mode, zs)
        assert abs(lb - mu[-1]) <= 1e-15
        assert lb <= sdpsolve.min_witness_over_abs_ppt(mu, (3, 3), mode, tol=1e-7)


def test_verify_min_witness_certificate_rejects_malformed_duals():
    mu = np.full(9, 1.0 / 9.0)
    q = [len(const) for b in sdpsolve.min_witness_problem(mu, (3, 3), "full").blocks for const in b.const]
    with pytest.raises(CertificateRejected, match="dual blocks"):
        sdpsolve.verify_min_witness_certificate(mu, (3, 3), "full", [np.eye(q[0])])
    with pytest.raises(CertificateRejected, match="shape"):
        zs = [np.eye(q[0] + 1)] + [np.eye(k) for k in q[1:]]
        sdpsolve.verify_min_witness_certificate(mu, (3, 3), "full", zs)
    with pytest.raises(CertificateRejected, match="Z1 is not PSD"):
        sdpsolve.verify_min_witness_certificate(
            mu, (3, 3), "full", [np.eye(q[0]), -np.eye(q[1])]
        )


def test_verify_min_witness_certificate_checks_every_shape_before_psd():
    # the full (3, 3) problem has two 3 x 3 blocks; as _y_stack orders it for
    # the map verifiers, a wrong shape anywhere is named before any PSD failure
    mu = witness.extremal_witness_spectrum(-0.3, witness.detection_threshold(-0.3), 9)
    zero = np.zeros((3, 3))
    ordering_bound = np.min(np.cumsum(mu[::-1]) / np.arange(1, 10))  # Z = 0: the ordering LP's
    assert sdpsolve.verify_min_witness_certificate(mu, (3, 3), "full", [zero, zero]) == ordering_bound
    indefinite = np.diag([1.0, -1e-3, 1.0])
    with pytest.raises(CertificateRejected, match=r"^Z1 is not PSD \(min eigenvalue -1.000e-03\)$"):
        sdpsolve.verify_min_witness_certificate(mu, (3, 3), "full", [zero, indefinite])
    with pytest.raises(CertificateRejected, match=r"^Z1 has shape \(2, 2\), expected \(3, 3\)$"):
        sdpsolve.verify_min_witness_certificate(mu, (3, 3), "full", [indefinite, np.eye(2)])


def _generic_witness_spectra():
    # 10 random witness spectra for each shape: generic optima are degenerate,
    # with ordering rows and lambda_mn >= 0 active, so the Hessian's diagonal
    # spans many orders of magnitude
    rng = np.random.default_rng(11)
    out = []
    for dims in ((2, 3), (2, 4), (3, 4), (3, 3)):
        for _ in range(10):
            mu = np.sort(rng.normal(size=dims[0] * dims[1]))[::-1]
            out.append((mu / np.abs(mu).sum(), dims))
    return out


@functools.cache
def _generic_min_witness_solutions(tol):
    # (mu, dims, mode, solution) for the 80 generic solves at tol; a solve
    # that raises fails every test that reads them
    return [(mu, dims, mode, sdpsolve.solve(sdpsolve.min_witness_problem(mu, dims, mode), tol=tol))
            for mu, dims in _generic_witness_spectra() for mode in ("full", "submatrix2x2")]


@pytest.mark.parametrize("tol", [1e-7, 1e-8, 1e-9])
def test_min_witness_solves_generic_witnesses_to_feasible_points(tol):
    # the Jacobi-scaled KKT solve keeps A dx = 0 to rounding on these
    # degenerate optima: |sum(lambda) - 1| <= 3e-15 measured. Unscaled, the
    # drift reached 1.9e-9 at 1e-7, and 1 and 15 solves raised at 1e-8 and 1e-9
    for mu, dims, mode, sol in _generic_min_witness_solutions(tol):
        lam = sol.x
        assert abs(lam.sum() - 1.0) <= 1e-12, (dims, mode)
        assert np.all(np.diff(lam) <= 0.0) and lam[-1] >= 0.0, (dims, mode)
        spectrum = absppt.Spectrum(dims[0], dims[1], lam)
        if mode == "full":
            assert absppt.is_abs_ppt(spectrum) is absppt.AbsPptVerdict.YES, dims
        else:
            assert absppt.necessary_2x2(spectrum), dims
        assert abs(sol.primal_value - float(mu[::-1] @ lam)) <= 1e-15
        assert sol.gap <= tol
        sdpsolve._verify_min_witness_point(sdpsolve.min_witness_problem(mu, dims, mode), lam)


@pytest.mark.parametrize("loose, tight", [(1e-7, 1e-8), (1e-8, 1e-9)])
def test_min_witness_generic_values_agree_across_tolerances(loose, tight):
    # each value lies in [optimum, optimum + tol]
    for (_, dims, mode, a), (_, _, _, b) in zip(_generic_min_witness_solutions(loose),
                                                _generic_min_witness_solutions(tight)):
        assert abs(a.primal_value - b.primal_value) <= loose, (dims, mode)


@pytest.mark.parametrize(
    "lam, mode, message",
    [
        ([0.3, 0.4, 0.1, 0.1, 0.1, 0.0], "full", "ordering row 0 of the spectrum is -1.000e-01"),
        ([0.5, 0.3, 0.1, 0.1, 0.1, -0.1], "full", "ordering row 5 of the spectrum is -1.000e-01"),
        ([0.2, 0.2, 0.2, 0.2, 0.1 + 1e-11, 0.1], "full", "sums to 1 \\+1.000e-11"),
        ([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], "full", "LMI 0 is not PSD"),
        ([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], "submatrix2x2", "LMI 0 is not PSD"),
    ],
)
def test_verify_min_witness_point_names_the_failed_check(lam, mode, message):
    problem = sdpsolve.min_witness_problem(np.full(6, 1.0 / 6.0), (2, 3), mode)
    with pytest.raises(CertificateRejected, match=message):
        sdpsolve._verify_min_witness_point(problem, np.array(lam))


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("drift, accepted", [(0.9e-12, True), (1.1e-12, False)])
def test_min_witness_sum_tol_is_pinned_from_both_sides(sign, drift, accepted):
    # the uniform (3, 3) spectrum scaled by 1 ± drift sums to 1 ± drift, to ~1e-16;
    # MIN_WITNESS_SUM_TOL = 1e-12 accepts 0.9e-12 and refuses 1.1e-12
    problem = sdpsolve.min_witness_problem(np.full(9, 1.0 / 9.0), (3, 3), "full")
    lam = np.full(9, 1.0 / 9.0) * (1.0 + sign * drift)
    if accepted:
        sdpsolve._verify_min_witness_point(problem, lam)
    else:
        with pytest.raises(CertificateRejected, match=r"sums to 1 [+-]1.100e-12, beyond 1e-12"):
            sdpsolve._verify_min_witness_point(problem, lam)


def test_verify_min_witness_point_reads_the_least_eigenvalue_of_each_lmi():
    # the pure spectrum e1 on (3, 3): both full LMIs are 3 x 3 with eigenvalues
    # 1, 0 and -1, so only the least one rejects this state, which is not
    # absolutely PPT; a check of the middle eigenvalue would accept it
    lam = np.eye(9)[0]
    assert np.array_equal(matcore.eigvalsh(absppt.build_lmis(3, 3).evaluate(lam)), [[1, 0, -1]] * 2)
    problem = sdpsolve.min_witness_problem(np.full(9, 1.0 / 9.0), (3, 3), "full")
    with pytest.raises(CertificateRejected, match=r"LMI 0 is not PSD \(min eigenvalue -1.000e\+00\)"):
        sdpsolve._verify_min_witness_point(problem, lam)


@pytest.mark.parametrize("dims, mode", [((2, 3), "full"), ((3, 3), "full"), ((3, 4), "submatrix2x2"),
                                        ((4, 4), "submatrix2x2")])
def test_min_witness_problem_reads_the_read_only_lmi_stack(dims, mode):
    # the problem's LMI block is absppt's (g, mn, q, q) array itself, not a copy
    total = dims[0] * dims[1]
    lmis = absppt.build_lmis(*dims) if mode == "full" else absppt.necessary_lmis(*dims)
    assert not lmis.coeffs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        lmis.coeffs[0, 0, 0, 0] = 1.0
    (block,) = sdpsolve.min_witness_problem(np.full(total, 1.0 / total), dims, mode).blocks
    assert block.coeffs is lmis.coeffs
    assert block.const.shape == lmis.coeffs[:, 0].shape and not block.const.any()


def test_min_witness_problem_has_no_lmi_block_for_min_dim_one():
    # the empty g = 0 stack of (1, n): the ordering rows and sum(lambda) = 1 alone
    problem = sdpsolve.min_witness_problem(np.array([0.5, 0.3, 0.2]), (1, 3), "full")
    assert problem.blocks == []
    assert problem.ineq_mat.shape == (3, 3) and problem.eq_mat.shape == (1, 3)


def _min_dim_one_witness_spectra():
    # 10 random witness spectra for each (1, n): the ordering LP with no LMI block
    rng = np.random.default_rng(5)
    out = []
    for dims in ((1, 2), (1, 3), (1, 4), (1, 6)):
        for _ in range(10):
            mu = np.sort(rng.normal(size=dims[1]))[::-1]
            out.append((mu / np.abs(mu).sum(), dims))
    return out


@pytest.mark.parametrize("mode", ["full", "submatrix2x2"])
def test_min_witness_on_one_or_two_levels_is_mu_mn(mode):
    # mn < 3 has no lambda_{mn-2}, so the 2x2 relaxation is the empty family
    # too, and may not read above the full mode's exact mu_mn: at (1, 2) it
    # used to build [[2 l2, -l1], [-l1, 2 l2]] and return 0.4333 here
    assert sdpsolve.min_witness_over_abs_ppt([1.0], (1, 1), mode) == 1.0
    assert sdpsolve.min_witness_over_abs_ppt([0.7, 0.3], (1, 2), mode) == 0.3
    # on 1 x 3 and 3 x 1 every spectrum is absolutely separable, so the 2x2
    # relaxation is the empty family there too: it used to return 0.1475 at (1, 3)
    for dims in ((1, 3), (3, 1)):
        assert sdpsolve.min_witness_over_abs_ppt([0.7, 0.2, 0.1], dims, mode) == 0.1


@pytest.mark.parametrize("tol", [1e-7, 1e-8, 1e-9])
def test_min_witness_without_an_lmi_block_is_the_vertex_e1(tol):
    # the LP's vertices are the flat spectra (1/k, ..., 1/k, 0, ...), worth the
    # mean of the k smallest mu, so the optimum is lambda = e_1, worth mu_mn.
    # All 40 solves at each tol used to raise: CertificateRejected on a point
    # off sum(lambda) = 1, Unbounded, or ZeroDivisionError in the line search
    for mu, dims in _min_dim_one_witness_spectra():
        vertices = np.cumsum(mu[::-1]) / np.arange(1, mu.size + 1)
        assert sdpsolve.min_witness_over_abs_ppt(mu, dims, "full", tol=tol) == mu[-1] == vertices.min()


def test_min_witness_over_abs_ppt_rejects_an_infeasible_point(monkeypatch):
    # a solve that returned a point off sum(lambda) = 1 raises, not its value
    mu = np.full(6, 1.0 / 6.0)
    bad = sdpsolve.SdpSolution(primal_value=0.2, dual_value=0.2, x=np.full(6, 0.2), gap=0.0,
                               newton_steps=1)
    monkeypatch.setattr(sdpsolve, "solve", lambda problem, tol: bad)
    with pytest.raises(CertificateRejected, match="sums to 1"):
        sdpsolve.min_witness_over_abs_ppt(mu, (2, 3), "full")


def test_min_witness_full_mode_needs_small_dims():
    with pytest.raises(Unsupported):
        sdpsolve.min_witness_over_abs_ppt(np.full(16, 1.0 / 16.0), (4, 4), "full")


def _one_map_certificates(phi):
    # the analytic certificates of one map, a stack of one from the builders the
    # CLI's grid reads: a Breuer-Hall map, or Phi_{c,b}, the dual of Phi_{b,c}
    if phi.kind == "breuer_hall":
        return sdpsolve.breuer_hall_certificates(phi)
    return sdpsolve.gen_choi_certificates(np.array([phi.c]), np.array([phi.b]))


def _verify_one(kind, phi, y):
    # the value the stacked verifier of kind certifies for J(phi) and one Y;
    # raises its rejection
    verify = getattr(sdpsolve, f"verify_{kind}_certificates")
    return sdpsolve._one(*verify(posmaps.choi_matrix(phi)[np.newaxis], np.asarray(y)[np.newaxis]))


def test_diamond_certificate_choi_dual():
    phi = posmaps.dual_map(posmaps.choi_map())
    value = _verify_one("diamond", phi, _one_map_certificates(phi).diamond_ys[0])
    assert abs(value - 4.0 / 3.0) <= 1e-12


def test_diamond_certificate_matches_literal_display():
    phi = posmaps.dual_map(posmaps.choi_map())
    y = _one_map_certificates(phi).diamond_ys[0]
    literal = np.zeros((9, 9))
    sixth = [
        (0, 0, 5.0), (1, 1, 3.0), (4, 4, 5.0), (5, 5, 3.0), (6, 6, 3.0), (8, 8, 5.0),
        (0, 4, -1.0), (0, 8, -1.0), (4, 8, -1.0),
    ]
    for r, s, v in sixth:
        literal[r, s] = literal[s, r] = v / 6.0
    assert np.allclose(y, literal, atol=1e-14)


def test_max_eig_certificate_choi_dual():
    phi = posmaps.dual_map(posmaps.choi_map())
    y = sdpsolve.max_eig_certificate(phi)
    value = sdpsolve.verify_max_eig_certificate(phi, y)
    assert abs(value - 2.0 / 3.0) <= 1e-12
    literal = np.zeros((9, 9))
    sixth = [
        (1, 1, 1.0), (2, 2, 4.0), (3, 3, 4.0), (5, 5, 1.0), (6, 6, 1.0), (7, 7, 4.0),
        (1, 3, 2.0), (2, 6, 2.0), (5, 7, 2.0),
    ]
    for r, s, v in sixth:
        literal[r, s] = literal[s, r] = v / 6.0
    assert np.allclose(y, literal, atol=1e-14)


def test_gen_choi_certificates_on_grid():
    for b in np.linspace(0.0, 4.0 / 3.0, 5):
        for c in np.linspace(0.0, 4.0 / 3.0, 5):
            phi = posmaps.dual_map(posmaps.generalized_choi_map(float(b), float(c)))
            certs = _one_map_certificates(phi)
            dval = _verify_one("diamond", phi, certs.diamond_ys[0])
            assert abs(dval - (3.0 + b + c) / 3.0) <= 1e-12
            mval = sdpsolve.verify_max_eig_certificate(phi, sdpsolve.max_eig_certificate(phi))
            assert abs(mval - certs.max_eig_expected[0]) <= 1e-12
            assert certs.max_eig_expected[0] == sdpsolve.gen_choi_max_eig_bound(float(b), float(c))
    # the psi+ correction below b + c = 2/3, and the first case
    assert sdpsolve.gen_choi_max_eig_bound(0.0, 0.0) == 1.5
    assert sdpsolve.gen_choi_max_eig_bound(1.2, 1.2) == 0.6


def test_gen_choi_psi_term_is_added_only_where_2_sqrt_xy_exceeds_1():
    # b + c < 2/3 here, yet 2 sqrt(xy) ~ 0.987 < 1: no psi+ term, and the bound
    # is the (b + 2x)/2 formula of the b + c >= 2/3 regime
    b, c = 0.0, 0.65
    x, y = sdpsolve.gen_choi_xy(b, c)
    assert 0.98 < 2.0 * math.sqrt(x * y) < 1.0
    plain = (b * b + c * c - 6.0 * (b + c) + b * c + 9.0) / (6.0 * (2.0 - b - c))
    assert sdpsolve.gen_choi_max_eig_bound(b, c) == plain
    assert abs(plain - (b + 2.0 * x) / 2.0) <= 1e-12


def test_gen_choi_xy_identity():
    # b + 2x = c + 2y = 2 - b - c - (2 sqrt(xy) - 1) across the second case
    for b in np.linspace(0.0, 1.3, 14):
        for c in np.linspace(0.0, 1.3, 14):
            if 2 * b + c >= 3.0 or b + 2 * c >= 3.0:
                continue
            x, y = sdpsolve.gen_choi_xy(float(b), float(c))
            lhs = b + 2.0 * x
            mid = c + 2.0 * y
            rhs = 2.0 - b - c - (2.0 * math.sqrt(x * y) - 1.0)
            assert abs(lhs - mid) <= 1e-12
            assert abs(lhs - rhs) <= 1e-12


def test_breuer_hall_certificates():
    for n in (4, 6):
        phi = posmaps.dual_map(posmaps.breuer_hall_map(n))
        y = _one_map_certificates(phi).diamond_ys[0]
        dval = _verify_one("diamond", phi, y)
        assert abs(dval - (n + 2.0) / n) <= 1e-12
        # the partial trace of Y collapses to ((n+2)/n) I
        traced = bipartite.partial_trace(y, n, n, "second")
        assert np.allclose(traced, (n + 2.0) / n * np.eye(n), atol=1e-12)
        mval = sdpsolve.verify_max_eig_certificate(phi, sdpsolve.max_eig_certificate(phi))
        assert abs(mval - 1.0 / (n - 2.0)) <= 1e-12


def test_breuer_hall_with_a_rotated_v():
    # V = U V0 U^T, complex and skew-symmetric: J(phi) is sum_ij |i><j| ⊗ Phi(|i><j|)
    # for the closed form Phi(X) = (Tr X I - X - V X^T V^H)/(n - 2) written here,
    # and both certificates, built from this V, certify the default V's values
    n = 4
    u = bipartite.haar_unitary(n, 7)
    v = u @ posmaps.breuer_hall_default_v(n) @ u.T
    assert v.imag.any()
    phi = posmaps.breuer_hall_map(n, v)
    expect = np.zeros((n * n, n * n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            expect += np.kron(e, (np.trace(e) * np.eye(n) - e - v @ e.T @ v.conj().T) / (n - 2))
    assert np.allclose(posmaps.choi_matrix(phi), expect, rtol=0.0, atol=1e-14)
    y = sdpsolve.max_eig_certificate(phi)
    assert abs(sdpsolve.verify_max_eig_certificate(phi, y) - 1.0 / (n - 2.0)) <= 1e-12
    dval = _verify_one("diamond", phi, sdpsolve.breuer_hall_certificates(phi).diamond_ys[0])
    assert abs(dval - (n + 2.0) / n) <= 1e-12
    assert not np.allclose(y, sdpsolve.max_eig_certificate(posmaps.breuer_hall_map(n)))


def test_certificates_reject_perturbations():
    phi = posmaps.dual_map(posmaps.choi_map())
    y = _one_map_certificates(phi).diamond_ys[0].copy()
    y[2, 2] -= 1e-3  # breaks PSD of the Y - J block
    with pytest.raises(CertificateRejected):
        _verify_one("diamond", phi, y)
    y2 = sdpsolve.max_eig_certificate(phi).copy()
    y2[1, 1] -= 1e-3  # drives an eigenvalue of Y negative
    with pytest.raises(CertificateRejected):
        sdpsolve.verify_max_eig_certificate(phi, y2)


@pytest.mark.parametrize("kind", ["diamond", "max_eig"])
def test_verifiers_reject_a_wrong_shaped_y(kind):
    # a 4 x 4 Y for the 9 x 9 Choi dual is a failed certificate, not a numpy or
    # dimension error, in a stack of one and in a longer stack
    phi = posmaps.dual_map(posmaps.choi_map())
    message = re.escape("Y has shape (4, 4), expected (9, 9)")
    with pytest.raises(CertificateRejected, match=message):
        _verify_one(kind, phi, np.eye(4))
    with pytest.raises(CertificateRejected, match=message):
        getattr(sdpsolve, f"verify_{kind}_certificates")(
            np.stack([posmaps.choi_matrix(phi)] * 2), np.stack([np.eye(4)] * 2))


@pytest.mark.parametrize("defect, message", [
    ("nan", "matrix has non-finite entries"),
    ("far", "matrix is not Hermitian (defect 1.414e+00)"),
])
def test_psd_checks_raise_the_gateway_messages(defect, message):
    # the screen runs first, through the gateway of eigvalsh, so NaN input and
    # far-from-Hermitian input raise psd_test's InvalidMatrix, message and all;
    # _psd_checks raises it as a rejected certificate that names the block
    stack = np.stack([np.eye(3, dtype=np.complex128)] * 4)
    if defect == "nan":
        stack[2, 1, 1] = np.nan
    else:
        stack[2, 0, 1] = 1.0  # its mirror stays 0
    for check in (lambda: matcore.psd_test(stack, sdpsolve.CERT_PSD_TOL),
                  lambda: matcore.psd_screen(stack, sdpsolve.CERT_PSD_TOL)):
        with pytest.raises(InvalidMatrix, match=f"^{re.escape(message)}$"):
            check()
    with pytest.raises(CertificateRejected, match=f"^Y: {re.escape(message)}$"):
        sdpsolve._psd_checks([("Y", stack)])


def test_a_non_hermitian_or_non_finite_block_is_a_rejected_certificate():
    # a Z or Y that the Hermitian gateway refuses is a failed certificate, named
    # by its block, not an InvalidMatrix from inside the value's computation
    mu, z = witness.detection_dual_certificate(-0.45, 9)
    with pytest.raises(CertificateRejected,
                       match=r"^Z0: matrix is not Hermitian \(defect 7\.071e\+00\)$"):
        sdpsolve.verify_min_witness_certificate(mu, (3, 3), "submatrix2x2",
                                                [z + np.array([[0.0, 5.0], [0.0, 0.0]])])
    phi = posmaps.breuer_hall_map(4)
    y = sdpsolve.max_eig_certificate(phi)
    skew, nan = y.copy(), y.copy()
    skew[0, 1] += 1.0
    nan[0, 1] = np.nan
    with pytest.raises(CertificateRejected,
                       match=r"^Y: matrix is not Hermitian \(defect 1\.414e\+00\)$"):
        sdpsolve.verify_max_eig_certificate(phi, skew)
    for kind, block in (("diamond", "Y - J"), ("max_eig", "Y")):
        with pytest.raises(CertificateRejected, match=f"^{re.escape(block)}: matrix has non-finite"):
            _verify_one(kind, phi, nan)
    # the gateway's own slack still passes: a defect below HERMITIZE_TOL verifies
    # to the value of the exact certificate, to rounding
    near = y.copy()
    near[0, 1] += 1e-10
    assert abs(sdpsolve.verify_max_eig_certificate(phi, near) - 0.5) <= 1e-9


def test_psd_checks_fall_back_to_psd_test_for_a_failing_stack_only():
    # a stack the screen passes reports no eigenvalue; the stack with one
    # failing matrix is decided by psd_test, bit for bit, every verdict and
    # least eigenvalue of it
    good = np.stack([np.eye(4), np.diag([1.0, 2.0, 0.0, 3.0])])
    bad = good.copy()
    bad[1, 2, 2] = -1e-3
    checks = sdpsolve._psd_checks([("Y - J", good), ("Y + J", bad)])
    assert [what for what, _, _ in checks] == ["Y - J", "Y + J"]
    assert checks[0][1].tolist() == [True, True] and checks[0][2] is None
    ok, lam_min = matcore.psd_test(bad, sdpsolve.CERT_PSD_TOL)
    assert checks[1][1].tolist() == ok.tolist() == [True, False]
    assert np.array_equal(checks[1][2], lam_min)
    assert sdpsolve.certificate_failures(checks) == {
        1: "Y + J is not PSD (min eigenvalue -1.000e-03)"}


@pytest.mark.parametrize("count", [0, 1, 2, 4])
@pytest.mark.parametrize("kind", ["diamond", "max_eig"])
def test_verifiers_reject_a_stack_of_another_length(kind, count):
    # one Y would broadcast over all 3 maps and "certify" them with one PSD
    # check, and 2 Y for 3 maps would raise numpy's broadcast error: both are
    # failed certificates that name the two lengths
    certs = sdpsolve.gen_choi_certificates(np.array([1.0, 1.2, 0.5]), np.array([0.0, 1.2, 0.9]))
    verify = getattr(sdpsolve, f"verify_{kind}_certificates")
    ys = getattr(certs, f"{kind}_ys")
    values, checks = verify(certs.jmats, ys)
    assert values.shape == (3,) and not sdpsolve.certificate_failures(checks)
    with pytest.raises(CertificateRejected, match=f"^expected 3 Y, one per Choi matrix, got {count}$"):
        verify(certs.jmats, np.concatenate([ys, ys])[:count])


def _watrous_block_bound(phi, y0, y1):
    # Watrous's general two-variable check: [[Y0, -J], [-J^H, Y1]] >= 0, then
    # the bound (||Tr_2 Y0||_op + ||Tr_2 Y1||_op)/2
    n = m = phi.dim
    jmat = posmaps.choi_matrix(phi)
    big = np.block([[y0, -jmat], [-jmat.conj().T, y1]])
    sdpsolve._one([0.0], sdpsolve._psd_checks([("diamond block matrix", big[np.newaxis])]))
    val0 = matcore.schatten_norm(bipartite.partial_trace(y0, n, m, "second"), "operator")
    val1 = matcore.schatten_norm(bipartite.partial_trace(y1, n, m, "second"), "operator")
    return 0.5 * (val0 + val1)


def test_diamond_verifier_equals_watrous_block_reference():
    axis = np.linspace(0.0, 4.0 / 3.0, 21)
    maps = [posmaps.dual_map(posmaps.generalized_choi_map(float(b), float(c)))
            for b in axis for c in axis]
    maps += [posmaps.dual_map(posmaps.breuer_hall_map(n)) for n in (4, 6)]
    for phi in maps:
        y = _one_map_certificates(phi).diamond_ys[0]
        assert _verify_one("diamond", phi, y) == _watrous_block_bound(phi, y, y)


@pytest.mark.parametrize("sign, failing", [(1.0, "Y + J"), (-1.0, "Y - J")])
def test_diamond_verifier_and_reference_reject_the_same_y(sign, failing):
    # Y = +-J + 1e-3 I: one block is 1e-3 I and the other +-2J + 1e-3 I, which
    # fails because J has eigenvalues of both signs
    phi = posmaps.dual_map(posmaps.choi_map())
    jmat = posmaps.choi_matrix(phi)
    y = sign * jmat + 1e-3 * np.eye(9)
    with pytest.raises(CertificateRejected):
        _watrous_block_bound(phi, y, y)
    with pytest.raises(CertificateRejected, match=re.escape(f"{failing} is not PSD")):
        _verify_one("diamond", phi, y)


def test_gen_choi_bound_never_below_the_solver_value():
    # the solver's value is attained at a feasible point, so an analytic
    # bound below it would be wrong; the last four points are where the
    # bound is loose (b + c < 2/3)
    axis = np.linspace(0.0, 4.0 / 3.0, 4)
    points = [(float(b), float(c)) for b in axis for c in axis]
    points += [(0.2, 0.2), (0.1, 0.3), (0.3, 0.3), (0.0, 0.5)]
    for b, c in points:
        phi = posmaps.dual_map(posmaps.generalized_choi_map(b, c))
        attained = -sdpsolve.solve(sdpsolve.max_eig_problem(phi)).primal_value
        assert sdpsolve.gen_choi_max_eig_bound(b, c) >= attained - 1e-9


def test_max_eig_certificate_dominates_sampled_witnesses():
    rng = bipartite.rng_stream(4)
    duals = [
        posmaps.dual_map(posmaps.choi_map()),
        posmaps.dual_map(posmaps.generalized_choi_map(6.0 / 5.0, 6.0 / 5.0)),
        posmaps.dual_map(posmaps.generalized_choi_map(0.5, 0.9)),
    ]
    for phi in duals:
        bound = sdpsolve.verify_max_eig_certificate(phi, sdpsolve.max_eig_certificate(phi))
        for _ in range(1000):
            v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            v /= np.linalg.norm(v)
            w = posmaps.witness_from_map(phi, v)
            assert matcore.eigvalsh(w)[0] <= bound + 1e-8


def test_solver_newton_budget():
    with pytest.raises(MaxIterations):
        sdpsolve.solve(_ordering_problem(6), tol=1e-9, max_newton=2)


def test_min_eig_lb_from_diamond():
    assert np.isclose(sdpsolve.min_eig_lb_from_diamond(4.0 / 3.0), -1.0 / 6.0)
    for b, c in ((0.3, 0.9), (1.2, 0.1)):
        lb = sdpsolve.min_eig_lb_from_diamond((3.0 + b + c) / 3.0)
        assert np.isclose(lb, -(b + c) / 6.0, atol=1e-14)
    for n in (4, 6):
        assert np.isclose(sdpsolve.min_eig_lb_from_diamond((n + 2.0) / n), -1.0 / n)
    with pytest.raises(ValueError):
        sdpsolve.min_eig_lb_from_diamond(0.5)
    with pytest.raises(ValueError, match="got nan"):
        sdpsolve.min_eig_lb_from_diamond(math.nan)


@pytest.mark.parametrize("below, accepted", [(5e-10, True), (5e-9, False)])
def test_diamond_floor_slack_is_pinned_from_both_sides(below, accepted):
    # half DIAMOND_FLOOR_SLACK below 1 is accepted; 5x, which a slack 10x
    # looser would accept, is not
    ub = 1.0 - below
    if accepted:
        assert sdpsolve.min_eig_lb_from_diamond(ub) == (1.0 - ub) / 2.0
    else:
        with pytest.raises(ValueError, match="cannot be below 1"):
            sdpsolve.min_eig_lb_from_diamond(ub)


def test_diamond_norm_solver_path():
    # the verified bound of the solver's Y can only be at or below the primal
    # value, since s >= ||Tr_2 Y|| at a feasible point
    phi = posmaps.dual_map(posmaps.choi_map())
    value = sdpsolve.diamond_norm_ub(phi, tol=1e-7)
    primal = sdpsolve.solve(sdpsolve.diamond_norm_problem(phi), tol=1e-7).primal_value
    assert value <= primal
    assert abs(value - 4.0 / 3.0) <= 1e-6
    for b, c in ((1.2, 1.2), (0.5, 0.9)):
        phi = posmaps.dual_map(posmaps.generalized_choi_map(b, c))
        value = sdpsolve.diamond_norm_ub(phi, tol=1e-7)
        assert abs(value - (3.0 + b + c) / 3.0) <= 1e-6


def test_max_eig_solver_path():
    # the verified bound of the dual form's Y dominates the value the primal
    # solver attains at a feasible point
    phi = posmaps.dual_map(posmaps.choi_map())
    value = sdpsolve.max_eig_ub(phi, tol=1e-7)
    sol = sdpsolve.solve(sdpsolve.max_eig_problem(phi), tol=1e-7)
    assert value >= -sol.primal_value
    assert abs(value - 2.0 / 3.0) <= 1e-6
    cert_value = sdpsolve.verify_max_eig_certificate(phi, sdpsolve.max_eig_certificate(phi))
    assert value >= cert_value - 1e-6


@pytest.mark.parametrize("ub, failing, x0", [(sdpsolve.diamond_norm_ub, "Y - J", 0.0),
                                             (sdpsolve.max_eig_ub, "Y", -1.0)])
def test_solver_bounds_reject_an_indefinite_y(monkeypatch, ub, failing, x0):
    # a solve whose Y fails the verifier raises the verifier's rejection, not
    # a bound: x = 0 gives the diamond Y = 0, so Y - J = -J, and x = -e_0 the
    # max-eig Y = -E_00, the first basis matrix
    phi = posmaps.dual_map(posmaps.choi_map())

    def fake_solve(problem, tol):
        x = np.zeros(problem.objective.size)
        x[0] = x0
        return sdpsolve.SdpSolution(primal_value=0.0, dual_value=0.0, x=x, gap=0.0, newton_steps=0)

    monkeypatch.setattr(sdpsolve, "solve", fake_solve)
    lam_min = matcore.eigvalsh(-posmaps.choi_matrix(phi))[-1] if failing == "Y - J" else -1.0
    assert lam_min < -0.5
    message = f"{failing} is not PSD (min eigenvalue {lam_min:.3e})"
    with pytest.raises(CertificateRejected, match=f"^{re.escape(message)}$"):
        ub(phi)


def _tol_cases(maps):
    # each map at the default tol under its own id, then at 1e-8 and 1e-9
    return [
        pytest.param(phi, optimum, tol, id=name if tol == sdpsolve.DEFAULT_GAP_TOL else f"{name}-{tol:g}")
        for tol in (sdpsolve.DEFAULT_GAP_TOL, 1e-8, 1e-9)
        for name, phi, optimum in maps
    ]


@pytest.mark.parametrize(
    "phi, optimum, tol",
    _tol_cases([
        ("choi-dual", posmaps.dual_map(posmaps.choi_map()), 2.0 / 3.0),
        ("gen-choi-1.2-1.2", posmaps.dual_map(posmaps.generalized_choi_map(1.2, 1.2)), 0.6),
        ("gen-choi-0.2-0.2", posmaps.dual_map(posmaps.generalized_choi_map(0.2, 0.2)), 0.8),
        ("breuer-hall-4", posmaps.dual_map(posmaps.breuer_hall_map(4)), 0.5),
    ]),
)
def test_max_eig_ub_certifies_within_the_gap(phi, optimum, tol):
    # the solver's Y is feasible for the dual form and its s is within the
    # gap of the optimum, so the certified bound lambda_max(Y^Gamma + J) <= s
    # is too
    value = sdpsolve.max_eig_ub(phi, tol=tol)
    assert optimum <= value <= optimum + tol


@pytest.mark.parametrize(
    "phi, optimum, tol",
    _tol_cases([
        ("choi-dual", posmaps.dual_map(posmaps.choi_map()), 4.0 / 3.0),
        ("gen-choi-1.2-1.2", posmaps.dual_map(posmaps.generalized_choi_map(1.2, 1.2)), 1.8),
        ("breuer-hall-4", posmaps.breuer_hall_map(4), 1.5),
    ]),
)
def test_diamond_norm_ub_certifies_within_the_gap(phi, optimum, tol):
    # (3 + b + c)/3 for the generalized Choi duals, (n + 2)/n for Breuer-Hall
    value = sdpsolve.diamond_norm_ub(phi, tol=tol)
    assert optimum <= value <= optimum + tol


def test_diamond_solve_takes_few_newton_steps():
    phi = posmaps.dual_map(posmaps.choi_map())
    problem = sdpsolve.diamond_norm_problem(phi)
    assert [b.const.shape for b in problem.blocks] == [(2, 9, 9), (1, 3, 3)]
    sol = sdpsolve.solve(problem, tol=1e-7)
    assert sol.newton_steps <= 60  # 26 measured
    assert sol.gap <= 1e-7
    assert sol.primal_value - sol.gap <= 4.0 / 3.0 <= sol.primal_value


def _final_half_decrement_sq(problem, sol):
    # lambda^2/2 of the Newton step at the returned x, for the final stage's
    # t = (m + sqrt m)/gap, from an unscaled KKT solve: the quantity solve
    # compares with _CENTERED before it returns
    nv, p = sol.x.size, 0 if problem.eq_mat is None else problem.eq_mat.shape[0]
    m = sum(len(const) for const, _ in _constraints(problem))
    t = (m + math.sqrt(m)) / sol.gap
    grad, hess, _ = sdpsolve._barrier_derivatives(problem, sol.x, sdpsolve._layout(problem, nv))
    kkt = np.zeros((nv + p, nv + p))
    kkt[:nv, :nv] = hess
    if p:
        kkt[:nv, nv:] = problem.eq_mat.T
        kkt[nv:, :nv] = problem.eq_mat
    rhs = np.concatenate([-(t * problem.objective + grad), np.zeros(p)])
    dx = np.linalg.solve(kkt, rhs)[:nv]
    return float(dx @ hess @ dx) / 2.0


def test_only_the_final_stage_is_centred_tightly_on_threshold_witnesses():
    # named for the tight final centre it once pinned: every stage, the final
    # one too, now stops at _CENTERED. 31-52 steps measured, where the tight
    # final centre took 33-61. On the threshold curve the optimum is 0, so
    # the value attained at the returned point lies in [0, tol]
    tol = 1e-8
    ells = [(-0.5 + witness.SPLIT_LOW) / 2.0]
    ells += [float(np.random.default_rng(seed).uniform(-0.5, 0.0)) for seed in range(60)]
    for ell in ells:
        spec = witness.extremal_witness_spectrum(ell, witness.detection_threshold(ell), 9)
        problem = sdpsolve.min_witness_problem(spec, (3, 3), "full")
        sol = sdpsolve.solve(problem, tol=tol)
        assert sol.newton_steps <= 56, ell
        assert _final_half_decrement_sq(problem, sol) <= sdpsolve._CENTERED, ell
        assert sol.gap <= tol, ell
        assert 0.0 <= sol.primal_value <= tol, ell


_DUAL_FORMS = [
    pytest.param(sdpsolve.diamond_norm_problem, "diamond",
                 posmaps.dual_map(posmaps.choi_map()), 4.0 / 3.0, id="diamond-choi-dual"),
    pytest.param(sdpsolve.max_eig_dual_problem, "max_eig",
                 posmaps.dual_map(posmaps.generalized_choi_map(1.2, 1.2)), 0.6,
                 id="max-eig-gen-choi-1.2-1.2"),
    pytest.param(sdpsolve.max_eig_dual_problem, "max_eig",
                 posmaps.dual_map(posmaps.generalized_choi_map(0.2, 0.2)), 0.8,
                 id="max-eig-gen-choi-0.2-0.2"),
    pytest.param(sdpsolve.max_eig_dual_problem, "max_eig",
                 posmaps.dual_map(posmaps.breuer_hall_map(4)), 0.5, id="max-eig-breuer-hall-4"),
    pytest.param(sdpsolve.diamond_norm_problem, "diamond",
                 posmaps.dual_map(posmaps.generalized_choi_map(1.2, 1.2)), 1.8,
                 id="diamond-gen-choi-1.2-1.2"),
    pytest.param(sdpsolve.diamond_norm_problem, "diamond",
                 posmaps.breuer_hall_map(4), 1.5, id="diamond-breuer-hall-4"),
    pytest.param(sdpsolve.max_eig_dual_problem, "max_eig",
                 posmaps.dual_map(posmaps.choi_map()), 2.0 / 3.0, id="max-eig-choi-dual"),
]


@pytest.mark.parametrize("tol", [1e-7, 1e-8, 1e-9, 1e-10, 1e-11])
@pytest.mark.parametrize("build, kind, phi, optimum", _DUAL_FORMS)
def test_only_the_final_stage_is_centred_tightly_on_dual_forms(build, kind, phi, optimum, tol):
    # named for the tight final centre it once pinned, which ran out of
    # Newton steps at 1e-10 and 1e-11: every stage now stops at _CENTERED,
    # and the gap bound (m + sqrt m)/t covers the loose centre. 24-35 steps
    # measured (31-33 at 1e-10, 32-35 at 1e-11), and the certified value of
    # the solver's Y within [optimum, optimum + tol]
    problem = build(phi)
    sol = sdpsolve.solve(problem, tol=tol)
    assert sol.newton_steps <= 36
    assert _final_half_decrement_sq(problem, sol) <= sdpsolve._CENTERED
    assert sol.gap <= tol
    value = _verify_one(kind, phi, problem.blocks[0].lin(sol.x)[0])
    assert optimum <= value <= optimum + tol


def _watrous_two_variable_problem(phi):
    # minimize (s0 + s1)/2 over Hermitian Y0, Y1 with [[Y0, -J], [-J^H, Y1]] >= 0
    # and s_i I >= Tr_2 Y_i, the form diamond_norm_problem reduces
    n = m = phi.dim
    d = n * m
    jmat = posmaps.choi_matrix(phi)
    basis = bipartite._hermitian_basis(d)
    nb = d * d
    nv = 2 * nb + 2  # Y0 coeffs, Y1 coeffs, s0, s1
    big_const = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    big_const[:d, d:] = -jmat
    big_const[d:, :d] = -jmat.conj().T
    big_coeffs = np.zeros((nv, 2 * d, 2 * d), dtype=np.complex128)
    big_coeffs[:nb, :d, :d] = basis
    big_coeffs[nb : 2 * nb, d:, d:] = basis
    traced = np.stack([bipartite.partial_trace(basis[k], n, m, "second") for k in range(nb)])
    caps = np.zeros((2, nv, n, n), dtype=np.complex128)
    for i in (0, 1):
        caps[i, i * nb : (i + 1) * nb] = -traced
        caps[i, 2 * nb + i] = np.eye(n)
    blocks = [sdpsolve.AffineBlock(big_const[np.newaxis], big_coeffs[np.newaxis]),
              sdpsolve.AffineBlock(np.zeros((2, n, n), dtype=np.complex128), caps)]
    objective = np.zeros(nv)
    objective[2 * nb] = objective[2 * nb + 1] = 0.5
    kappa = matcore.schatten_norm(jmat, "operator") + 1.0
    start = np.zeros(nv)
    start[:d] = start[nb : nb + d] = kappa
    start[2 * nb] = start[2 * nb + 1] = kappa * m + 1.0
    return sdpsolve.SdpProblem(objective=objective, blocks=blocks, interior_point=start)


def test_diamond_symmetric_form_matches_two_variable_watrous_sdp():
    # each primal value lies within its gap above the common optimum
    phi = posmaps.dual_map(posmaps.choi_map())
    full = _watrous_two_variable_problem(phi)
    assert [b.const.shape for b in full.blocks] == [(1, 18, 18), (2, 3, 3)]
    old = sdpsolve.solve(full, tol=1e-7)
    new = sdpsolve.solve(sdpsolve.diamond_norm_problem(phi), tol=1e-7)
    assert abs(old.primal_value - new.primal_value) <= old.gap + new.gap


def test_diamond_norm_ub_breuer_hall():
    # outside the generalized Choi family; the analytic value is (n + 2)/n
    value = sdpsolve.diamond_norm_ub(posmaps.breuer_hall_map(4))
    assert 1.5 <= value <= 1.5 + 1e-6


@pytest.mark.parametrize("build", [sdpsolve.diamond_norm_problem, sdpsolve.max_eig_dual_problem])
def test_real_choi_matrix_gives_a_real_symmetric_y(build):
    # a real J takes the d(d+1)/2 coefficients of a real symmetric Y, plus s,
    # and every block is float64
    for phi, nv in ((posmaps.dual_map(posmaps.choi_map()), 46), (posmaps.breuer_hall_map(4), 137)):
        problem = build(phi)
        assert problem.objective.size == nv
        assert all(b.const.dtype == b.coeffs.dtype == np.float64 for b in problem.blocks)


def test_solvers_on_a_complex_breuer_hall_map():
    # V = U V0 U^T, U Haar, is again a skew-symmetric unitary, and
    # Phi_V = Ad_U . Phi_V0 . Ad_U^dagger, so both optima are those of V0
    u = bipartite.haar_unitary(4, 7)
    phi = posmaps.breuer_hall_map(4, u @ posmaps.breuer_hall_default_v(4) @ u.T)
    assert posmaps.choi_matrix(phi).imag.any()
    assert sdpsolve.diamond_norm_problem(phi).blocks[0].coeffs.dtype == np.complex128
    tol = sdpsolve.DEFAULT_GAP_TOL
    assert 1.5 <= sdpsolve.diamond_norm_ub(phi, tol) <= 1.5 + tol
    assert 0.5 <= sdpsolve.max_eig_ub(phi, tol) <= 0.5 + tol


@pytest.mark.parametrize(
    "phi",
    [
        posmaps.MapSpec("identity", 3),
        posmaps.MapSpec("transpose", 3),
        # choi_map() is Phi_{1,0}; its case keeps the name "choi"
        pytest.param(posmaps.choi_map(), id="choi-3-0-0"),
        posmaps.generalized_choi_map(1.2, 1.2),
        posmaps.generalized_choi_map(0.2, 0.3),  # b + c < 2/3
        posmaps.reduction_map(3),
        posmaps.breuer_hall_map(4),
        posmaps.breuer_hall_map(6),
    ],
    ids=lambda phi: f"{phi.kind}-{phi.dim}-{phi.b:g}-{phi.c:g}",
)
def test_choi_matrix_is_hermitian(phi):
    # diamond_norm_problem's symmetric form needs a Hermiticity-preserving map
    jmat = posmaps.choi_matrix(phi)
    assert np.abs(jmat - jmat.conj().T).max() <= 1e-12


def _constraints(problem):
    # every constraint as its own (const, coeffs) pair, (h, h) and (nv, h, h):
    # constraint i of each block, then each inequality row a x >= b as the
    # 1 x 1 constraint [-b] + sum_k x_k [a_k] >= 0
    for block in problem.blocks:
        for i, const in enumerate(block.const):
            yield const, block.coeffs[i if len(block.coeffs) > 1 else 0]
    if problem.ineq_mat is not None:
        for row, rhs in zip(problem.ineq_mat, problem.ineq_rhs):
            yield np.array([[-rhs]]), row[:, np.newaxis, np.newaxis]


def _affine(const, coeffs, x):
    # const + sum_k x_k coeffs[k], summed in the order AffineBlock.lin sums
    # it: near the optimum one rounding of F moves F^-1 by ~1e-8 relative
    return const + (x @ coeffs.reshape(x.size, -1)).reshape(coeffs.shape[1:])


def _reference_barrier_derivatives(problem, x):
    # -tr(F^-1 A_k) and tr(F^-1 A_k F^-1 A_l), one constraint matrix and one
    # (k, l) at a time. F^-1 is formed from the Cholesky factor as L^-H L^-1:
    # near the optimum F has condition numbers of ~1e8, and inverses of F by
    # two routes differ by ~1e-9 relative, far above the 1e-12 checked here
    nv = x.size
    grad = np.zeros(nv)
    hess = np.zeros((nv, nv))
    for const, coeffs in _constraints(problem):
        lo_inv = np.linalg.inv(np.linalg.cholesky(_affine(const, coeffs, x)))
        f_inv = lo_inv.conj().T @ lo_inv
        fa = [f_inv @ coeffs[k] for k in range(nv)]
        for k in range(nv):
            grad[k] -= np.trace(fa[k]).real
            for l in range(nv):
                hess[k, l] += np.sum(fa[k] * fa[l].T).real  # tr(F^-1 A_k F^-1 A_l)
    return grad, hess


def _reference_gamma(problem, x, dx):
    # the line search's gamma one constraint matrix at a time: the eigenvalues
    # of L^-1 F_lin(dx) L^-H, for an inequality row (a @ dx) / slack
    parts = []
    for const, coeffs in _constraints(problem):
        f = _affine(const, coeffs, x)
        lo_inv = np.linalg.solve(np.linalg.cholesky(f), np.eye(len(f)))
        parts.append(np.linalg.eigvalsh(lo_inv @ _affine(0.0, coeffs, dx) @ lo_inv.conj().T))
    return np.concatenate(parts)


def _assert_derivatives_match_reference(problem, x, dx):
    grad, hess, gamma = sdpsolve._barrier_derivatives(problem, x, sdpsolve._layout(problem, x.size))
    ref_grad, ref_hess = _reference_barrier_derivatives(problem, x)
    assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
    assert np.abs(hess - ref_hess).max() <= 1e-12 * np.abs(ref_hess).max()
    ref_gamma = np.sort(_reference_gamma(problem, x, dx))
    assert np.abs(np.sort(gamma(dx)) - ref_gamma).max() <= 1e-12 * np.abs(ref_gamma).max()


def _complex_block_problem():
    # minimize tr Y over Hermitian 3x3 Y with Y + C >= 0 for a complex C: one
    # block that stays complex128
    c = np.array([[1.0, 0.5j, 0.2 - 0.3j], [-0.5j, 0.4, 0.1j], [0.2 + 0.3j, -0.1j, -0.6]])
    basis = bipartite._hermitian_basis(3)
    start = np.zeros(9)
    start[:3] = matcore.schatten_norm(c, "operator") + 1.0  # Y = start I
    block = sdpsolve.AffineBlock(c[np.newaxis], basis[np.newaxis])
    assert block.coeffs.dtype == np.complex128
    return sdpsolve.SdpProblem(objective=np.real(np.einsum("kaa->k", basis)), blocks=[block],
                               interior_point=start, name="complex-block")


def _threshold_problem(dims, mode):
    ell = -0.3
    spec = witness.extremal_witness_spectrum(ell, witness.detection_threshold(ell), dims[0] * dims[1])
    return sdpsolve.min_witness_problem(spec, dims, mode)


@pytest.mark.parametrize(
    "build",
    [
        lambda: _threshold_problem((3, 3), "full"),
        lambda: _threshold_problem((3, 4), "full"),
        lambda: _threshold_problem((3, 3), "submatrix2x2"),
        lambda: sdpsolve.max_eig_problem(posmaps.dual_map(posmaps.choi_map())),
        lambda: sdpsolve.max_eig_dual_problem(posmaps.dual_map(posmaps.choi_map())),
        lambda: sdpsolve.diamond_norm_problem(posmaps.dual_map(posmaps.choi_map())),
        _complex_block_problem,
    ],
    ids=[
        "min-witness-full-3x3", "min-witness-full-3x4", "min-witness-2x2", "max-eig", "max-eig-dual",
        "diamond", "complex-block",
    ],
)
def test_barrier_derivatives_match_reference(build):
    # gamma along a seeded direction, as gamma is linear in dx
    problem = build()
    late = sdpsolve.solve(problem, tol=1e-7).x
    dx = np.random.default_rng(11).standard_normal(late.size)
    for x in (problem.interior_point, late):
        _assert_derivatives_match_reference(problem, x, dx)


# (size h, constraints g, complex, one coeffs array shared by all g)
block_specs = st.lists(st.tuples(st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=3),
                                 st.booleans(), st.booleans()),
                       min_size=1, max_size=5)


def _hermitian(rng, shape, is_complex):
    g = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if is_complex else 0)
    return g + g.conj().swapaxes(-1, -2)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(specs=block_specs, nv=st.integers(min_value=1, max_value=6),
       n_rows=st.integers(min_value=0, max_value=3), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_barrier_derivatives_match_reference_on_mixed_block_lists(specs, nv, n_rows, seed):
    # sizes repeat across blocks, as in [3, 9, 3]; a block's g constraints
    # may share one coeffs array, as diamond's Y - J and Y + J do; real and
    # complex blocks mix; 0-3 inequality rows
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(nv)
    blocks = []
    for h, g, is_complex, shared in specs:
        coeffs = _hermitian(rng, (1 if shared else g, nv, h, h), is_complex)
        lin = (x @ coeffs.reshape(-1, nv, h * h)).reshape(-1, h, h)
        a = rng.standard_normal((g, h, h)) + (1j * rng.standard_normal((g, h, h)) if is_complex else 0)
        blocks.append(sdpsolve.AffineBlock(a @ a.conj().swapaxes(1, 2) + np.eye(h) - lin, coeffs))  # F(x) > 0
    problem = sdpsolve.SdpProblem(objective=np.zeros(nv), blocks=blocks, interior_point=x)
    if n_rows:
        problem.ineq_mat = rng.standard_normal((n_rows, nv))
        problem.ineq_rhs = problem.ineq_mat @ x - rng.uniform(0.1, 1.0, n_rows)
    _assert_derivatives_match_reference(problem, x, rng.standard_normal(nv))


def test_builders_emit_one_block_per_constraint_size():
    # the layout the barrier reads, as each builder writes it: (const, coeffs)
    # shapes per block, then the inequality rows
    choi_dual = posmaps.dual_map(posmaps.choi_map())

    def layout(problem):
        rows = None if problem.ineq_mat is None else (problem.ineq_mat.shape, problem.ineq_rhs.shape)
        return [(b.const.shape, b.coeffs.shape) for b in problem.blocks], rows

    assert layout(sdpsolve.diamond_norm_problem(choi_dual)) == (
        [((2, 9, 9), (1, 46, 9, 9)), ((1, 3, 3), (1, 46, 3, 3))], None)
    assert layout(sdpsolve.max_eig_dual_problem(choi_dual)) == ([((2, 9, 9), (2, 46, 9, 9))], None)
    assert layout(sdpsolve.max_eig_problem(choi_dual)) == ([((2, 9, 9), (2, 45, 9, 9))], ((1, 45), (1,)))
    assert layout(_threshold_problem((3, 3), "full")) == ([((2, 3, 3), (2, 9, 3, 3))], ((9, 9), (9,)))
    assert layout(_threshold_problem((3, 3), "submatrix2x2")) == ([((1, 2, 2), (1, 9, 2, 2))], ((9, 9), (9,)))
    # min{m, n} = 1 has no LMI: the ordering rows alone
    assert layout(sdpsolve.min_witness_problem(np.full(3, 1.0 / 3.0), (1, 3))) == ([], ((3, 3), (3,)))


def test_one_cholesky_per_block_size_per_newton_step(monkeypatch):
    # the (3,3) full min-witness problem has one block of two 3 x 3 LMIs,
    # factored together, and inequality rows, which need no factor: one
    # Cholesky at the start and one after each Newton step
    problem = _threshold_problem((3, 3), "full")
    assert [b.const.shape for b in problem.blocks] == [(2, 3, 3)]
    calls = []
    inverse_factor = sdpsolve._inverse_factor
    monkeypatch.setattr(sdpsolve, "_inverse_factor",
                        lambda f, is_complex: calls.append(f.shape) or inverse_factor(f, is_complex))
    sol = sdpsolve.solve(problem, tol=1e-8)
    assert calls == [(2, 3, 3)] * (sol.newton_steps + 1)


def test_newton_steps_call_no_numpy_linalg_function(monkeypatch):
    # the step calls LAPACK's gufuncs itself: a problem from each builder, and
    # a complex block, solves with np.linalg's cholesky, inv, solve and
    # eigvalsh all raising, and each solve runs the line search, whose gamma
    # takes eigenvalues
    choi_dual = posmaps.dual_map(posmaps.choi_map())
    problems = [_threshold_problem((3, 3), "full"), sdpsolve.diamond_norm_problem(choi_dual),
                sdpsolve.max_eig_problem(choi_dual), sdpsolve.max_eig_dual_problem(choi_dual),
                _complex_block_problem()]

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called in a Newton step")

    for name in ("cholesky", "inv", "solve", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    calls = []
    line_search = sdpsolve._line_search
    monkeypatch.setattr(sdpsolve, "_line_search", lambda *args: calls.append(1) or line_search(*args))
    for problem in problems:
        calls.clear()
        assert sdpsolve.solve(problem).newton_steps > 0 and calls, problem.name


def _hermitian_stack(rng, shape, is_complex, shift):
    a = rng.standard_normal(shape)
    if is_complex:
        a = a + 1j * rng.standard_normal(shape)
    return a @ a.conj().swapaxes(1, 2) + shift * np.eye(shape[-1])


@pytest.mark.parametrize("shape, is_complex", [((2, 3, 3), False), ((1, 2, 2), False), ((2, 9, 9), False),
                                               ((1, 3, 3), True)])
def test_direct_lapack_calls_equal_numpy_linalg_bit_for_bit(shape, is_complex):
    # the solver's block shapes; the direct gufunc calls return np.linalg's
    # arrays, dtype and bits, and leave the caller's errstate as it was
    rng = np.random.default_rng(shape[-1] + 10 * is_complex)
    f = _hermitian_stack(rng, shape, is_complex, 0.1)
    before = np.geterr()
    ours, ref = sdpsolve._inverse_factor(f, is_complex), np.linalg.inv(np.linalg.cholesky(f))
    assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()
    indefinite = _hermitian_stack(rng, shape, is_complex, -2.0)
    (ours,) = sdpsolve._eigenvalues([(indefinite, is_complex)])
    ref = np.linalg.eigvalsh(indefinite).ravel()
    assert ours.dtype == ref.dtype == np.float64 and ours.tobytes() == ref.tobytes()
    assert np.geterr() == before


@pytest.mark.parametrize("n", [10, 46])
def test_kkt_solve_equals_numpy_linalg_bit_for_bit(n):
    # a bordered system [[H, a], [a^T, 0]] of the sizes of the (3,3)
    # min-witness and Choi diamond steps
    rng = np.random.default_rng(n)
    kkt = np.zeros((n, n))
    kkt[:-1, :-1] = _hermitian_stack(rng, (1, n - 1, n - 1), False, 0.1)[0]
    kkt[:-1, -1] = kkt[-1, :-1] = 1.0
    rhs = rng.standard_normal(n)
    before = np.geterr()
    assert sdpsolve._kkt_solve(kkt, rhs).tobytes() == np.linalg.solve(kkt, rhs).tobytes()
    assert np.geterr() == before


def _numpy_message(call, *args):
    with pytest.raises(np.linalg.LinAlgError) as info:
        call(*args)
    return str(info.value)


def test_direct_lapack_calls_raise_numpy_linalg_errors():
    # a non-PD block, a singular KKT system and a stack LAPACK cannot
    # diagonalize raise np.linalg's own LinAlgError texts, and the caller's
    # errstate is the same after the raise
    before = np.geterr()
    not_pd = np.array([[[1.0, 2.0], [2.0, 1.0]]])
    for is_complex in (False, True):
        f = not_pd.astype(np.complex128) if is_complex else not_pd
        assert _numpy_message(sdpsolve._inverse_factor, f, is_complex) == _numpy_message(np.linalg.cholesky, f) == (
            "Matrix is not positive definite")
    singular = np.ones((10, 10))
    assert _numpy_message(sdpsolve._kkt_solve, singular, np.ones(10)) == _numpy_message(
        np.linalg.solve, singular, np.ones(10)) == "Singular matrix"
    nan = np.full((1, 3, 3), np.nan)
    assert _numpy_message(sdpsolve._eigenvalues, [(nan, False)]) == _numpy_message(np.linalg.eigvalsh, nan) == (
        "Eigenvalues did not converge")
    assert np.geterr() == before


def test_primal_max_eig_grid_outcomes_are_pinned():
    # the README's count for the primal max-eig SDP, a known open defect, on
    # the duals of Phi_{b,c} over linspace(0, 4/3, 9)^2 at tol 1e-8: 65 solve
    # and 16 raise on a singular KKT system. At four points a full step leaves
    # the cone (6 times in all), and the solver falls back to the line search
    # along that step. Each of the four returns a value at most 2 tol below the
    # optimum 2/3, as the other solves do: their reported gap (3.8e-9) is not
    # a certified bound, and the bracket against the dual form reaches 1.2e-8
    axis = np.linspace(0.0, 4.0 / 3.0, 9)
    fallback = [(axis[3], axis[8]), (axis[5], axis[8]), (axis[8], axis[5]), (axis[8], axis[7])]
    outcomes = {}
    for b in axis:
        for c in axis:
            phi = posmaps.dual_map(posmaps.generalized_choi_map(b, c))
            try:
                sol = sdpsolve.solve(sdpsolve.max_eig_problem(phi), tol=1e-8)
                outcome = "ok"
            except np.linalg.LinAlgError as exc:
                outcome = str(exc)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if (b, c) in fallback:
                assert outcome == "ok" and 0.0 <= 2.0 / 3.0 + sol.primal_value <= 2e-8
    assert outcomes == {"ok": 65, "Singular matrix": 16}


def test_a_full_step_out_of_the_cone_falls_back_to_the_line_search(monkeypatch):
    # at (b, c) = (0.5, 4/3) the one full step whose end fails the Cholesky is
    # searched again from its start: the barrier is evaluated there twice, and
    # the solve goes on from the searched point
    phi = posmaps.dual_map(posmaps.generalized_choi_map(0.5, 4.0 / 3.0))
    problem = sdpsolve.max_eig_problem(phi)
    points, failed = [], []
    derivatives = sdpsolve._barrier_derivatives

    def recorded(problem, x, layout):
        points.append(x)
        try:
            return derivatives(problem, x, layout)
        except np.linalg.LinAlgError:
            failed.append(len(points) - 1)
            raise

    monkeypatch.setattr(sdpsolve, "_barrier_derivatives", recorded)
    sol = sdpsolve.solve(problem, tol=1e-8)
    assert len(failed) == 1 and len(points) == sol.newton_steps + 3
    at = failed[0]
    assert points[at + 1] is points[at - 1]  # back at the step's start
    searched = points[at + 2] - points[at - 1]
    full = points[at] - points[at - 1]
    ratio = searched @ full / (full @ full)
    assert 0.0 < ratio < 1.0 and np.allclose(searched, ratio * full, rtol=0, atol=1e-12)


def _complex_breuer_hall_4():
    # V = U V0 U^T for a Haar U: complex data, so its blocks stay complex128
    u = bipartite.haar_unitary(4, 7)
    return posmaps.breuer_hall_map(4, u @ posmaps.breuer_hall_default_v(4) @ u.T)


def test_layout_holds_views_of_the_block_data():
    # the once-per-solve layout copies nothing, drops an all-zero const, and
    # keeps one whose coeffs are shared, where const broadcasts lin to g
    problem = _threshold_problem((3, 3), "full")
    (block,), ((lin, gemm, const, is_complex),) = problem.blocks, sdpsolve._layout(problem, 9)
    assert lin.shape == (2, 9, 9) and gemm.shape == (2, 27, 3)
    assert np.shares_memory(lin, block.coeffs) and np.shares_memory(gemm, block.coeffs)
    assert const is None and not is_complex
    diamond = sdpsolve.diamond_norm_problem(posmaps.dual_map(posmaps.choi_map()))
    assert [lay[2] is block.const for lay, block in zip(sdpsolve._layout(diamond, 46), diamond.blocks)] == [
        True, False]
    assert sdpsolve._layout(sdpsolve.max_eig_dual_problem(_complex_breuer_hall_4()), 257)[0][3]
    shared = sdpsolve.AffineBlock(np.zeros((2, 3, 3)), bipartite._hermitian_basis(3)[np.newaxis])
    shared_problem = sdpsolve.SdpProblem(objective=np.zeros(9), blocks=[shared],
                                         interior_point=np.r_[np.ones(3), np.zeros(6)])
    assert sdpsolve._layout(shared_problem, 9)[0][2] is shared.const
    x = shared_problem.interior_point
    _assert_derivatives_match_reference(shared_problem, x, np.random.default_rng(3).standard_normal(9))
    # a complex const with real coeffs makes F, and so L^-1, complex
    const = _complex_block_problem().blocks[0].const
    mixed = sdpsolve.AffineBlock(const, bipartite._hermitian_basis(3, real=True)[np.newaxis])
    mixed_problem = sdpsolve.SdpProblem(objective=np.zeros(6), blocks=[mixed],
                                        interior_point=np.r_[np.full(3, 2.0), np.zeros(3)])  # F = 2 I + C > 0
    assert mixed.coeffs.dtype == np.float64 and sdpsolve._layout(mixed_problem, 6)[0][3]
    _assert_derivatives_match_reference(mixed_problem, mixed_problem.interior_point,
                                        np.random.default_rng(4).standard_normal(6))


# sha256 of sol.x and the Newton steps of _solver_bits, with one BLAS thread
# (numpy 2.4, OpenBLAS 0.3.31): a change that moves the rounding of any
# iterate must replace these and say why
_SOLVER_BITS = {
    "min-witness-3x3-full": ("62b9cace1e7ee596ce6c302f6a077aa3320ab53fa257e1e6ef0e55d5bb4625ec", 51),
    "min-witness-3x3-2x2": ("e29962ee7c4141f3f0a9bca43de623220baf4999387d09a7e3e4750f2f6522f0", 30),
    "min-witness-3x4-full": ("689f5c95fa1007c1eb6b0bedcaafdd280c4b7f8fd36604f2a36c89a677a24d0f", 52),
    "max-eig-choi-dual": ("e14bc2108a3d3d60d7c6d15efe0b76a415ecd4623311002b591e8111e86601d6", 23),
    "diamond-choi-dual": ("bc1391ace0df6fb7957ff10c55ec64eff5c7aa5cfa585b37552a38f4d9dd4285", 26),
    "max-eig-dual-complex-bh4": ("80dd85494a3de6782d61f5ff101a252d61bcd0ee682b3c26a4977037809bb501", 25),
}


def _solver_bits():
    # {name: (sha256 of sol.x, newton_steps)} for one problem of each shape;
    # the Breuer-Hall problem runs the complex path
    ell = (-0.5 + witness.SPLIT_LOW) / 2.0
    choi_dual = posmaps.dual_map(posmaps.choi_map())

    def branch_a(dims, mode):
        spec = witness.extremal_witness_spectrum(ell, witness.detection_threshold(ell), dims[0] * dims[1])
        return sdpsolve.min_witness_problem(spec, dims, mode)

    cases = {
        "min-witness-3x3-full": (branch_a((3, 3), "full"), 1e-8),
        "min-witness-3x3-2x2": (branch_a((3, 3), "submatrix2x2"), 1e-8),
        "min-witness-3x4-full": (branch_a((3, 4), "full"), 1e-8),
        "max-eig-choi-dual": (sdpsolve.max_eig_problem(choi_dual), 1e-7),
        "diamond-choi-dual": (sdpsolve.diamond_norm_problem(choi_dual), 1e-7),
        "max-eig-dual-complex-bh4": (sdpsolve.max_eig_dual_problem(_complex_breuer_hall_4()), 1e-7),
    }
    assert cases["max-eig-dual-complex-bh4"][0].blocks[0].coeffs.dtype == np.complex128
    bits = {}
    for name, (problem, tol) in cases.items():
        sol = sdpsolve.solve(problem, tol=tol)
        bits[name] = (hashlib.sha256(sol.x.tobytes()).hexdigest(), sol.newton_steps)
    return bits


def test_solver_bits_are_pinned():
    # in a fresh process with one BLAS thread, as perfbench runs: the
    # Breuer-Hall solve's 257-variable Gram and KKT products round
    # differently when OpenBLAS splits them over threads
    env = dict(os.environ, PYTHONPATH=str(Path(sdpsolve.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", "import json, test_sdpsolve; print(json.dumps(test_sdpsolve._solver_bits()))"],
        cwd=Path(__file__).parent, capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert {k: tuple(v) for k, v in json.loads(proc.stdout).items()} == _SOLVER_BITS


def test_real_certificates_stay_float64_down_to_lapack(monkeypatch):
    # the grid chunk with the Choi dual, and Breuer-Hall n = 4, 6, 8 with the
    # default V: every Choi matrix and Y is float64, and so is every stack the
    # verifiers hand to LAPACK; a complex V keeps the complex path and 0.5
    from abssep import cli

    seen = []

    def recording(lapack):
        def call(a, *args, **kwargs):
            seen.append(a.dtype)
            return lapack(a, *args, **kwargs)
        return call

    for name in ("eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    # matcore.psd_screen factors through numpy's own Cholesky gufunc
    lapack = matcore._umath_linalg
    monkeypatch.setattr(lapack, "cholesky_lo", recording(lapack.cholesky_lo))
    grid = np.linspace(0.0, 4.0 / 3.0, 31)
    b, c = (v.ravel()[: cli.CERT_CHUNK - 1] for v in np.meshgrid(grid, grid, indexing="ij"))
    stacks = [sdpsolve.gen_choi_certificates(np.r_[1.0, b], np.r_[0.0, c])]
    stacks += [sdpsolve.breuer_hall_certificates(posmaps.breuer_hall_map(n)) for n in (4, 6, 8)]
    assert posmaps.choi_matrix(posmaps.dual_map(posmaps.choi_map())).dtype == np.float64
    for n in (4, 6, 8):
        assert posmaps.choi_matrix(posmaps.breuer_hall_map(n)).dtype == np.float64
    for certs in stacks:
        assert certs.jmats.dtype == certs.diamond_ys.dtype == certs.max_eig_ys.dtype == np.float64
        _, diamond = sdpsolve.verify_diamond_certificates(certs.jmats, certs.diamond_ys)
        _, max_eig = sdpsolve.verify_max_eig_certificates(certs.jmats, certs.max_eig_ys)
        assert not sdpsolve.certificate_failures(diamond + max_eig)
    assert len(seen) >= 3 * len(stacks) and set(seen) == {np.dtype(np.float64)}
    seen.clear()
    complex_v = _complex_breuer_hall_4()
    certs = sdpsolve.breuer_hall_certificates(complex_v)
    assert certs.jmats.dtype == certs.diamond_ys.dtype == certs.max_eig_ys.dtype == np.complex128
    value = sdpsolve.verify_max_eig_certificate(complex_v, certs.max_eig_ys[0])
    assert value == pytest.approx(0.5, abs=1e-12)
    assert np.dtype(np.complex128) in seen
