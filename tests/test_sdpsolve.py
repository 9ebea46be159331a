"""Barrier solver and analytic certificate verifiers."""

import math
import re

import numpy as np
import pytest

from abssep import bipartite, matcore, posmaps, sdpsolve, witness
from abssep.errors import CertificateRejected, NoInteriorPoint, Unbounded, Unsupported

R2 = math.sqrt(2.0)


def _ordering_problem(nv):
    # x_1 >= x_2 >= ... >= x_nv >= 0 as one stacked diagonal block
    rows = np.eye(nv) - np.eye(nv, k=1)
    obj = np.zeros(nv)
    obj[0] = 1.0
    tilt = 1.0 + 0.01 * np.linspace(1.0, -1.0, nv)
    return sdpsolve.SdpProblem(
        objective=obj,
        blocks=[sdpsolve.scalar_inequality(rows, 0.0)],
        eq_mat=np.ones((1, nv)),
        eq_rhs=np.ones(1),
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


def test_solve_rejects_start_off_the_equalities():
    prob = _ordering_problem(4)
    prob.interior_point = np.array([0.4, 0.3, 0.2, 0.05])  # strictly ordered, sums to 0.95
    with pytest.raises(NoInteriorPoint):
        sdpsolve.solve(prob)


@pytest.mark.filterwarnings("error")
def test_solve_raises_unbounded_at_once():
    # minimize -x subject to x >= 0: the first Newton ray stays feasible and
    # the objective falls without bound along it, so no step is taken
    prob = sdpsolve.SdpProblem(
        objective=np.array([-1.0]),
        blocks=[sdpsolve.scalar_inequality(np.ones((1, 1)), 0.0)],
        interior_point=np.ones(1),
        name="ray",
    )
    with pytest.raises(Unbounded, match="'ray'"):
        sdpsolve.solve(prob, max_newton=1)


@pytest.mark.parametrize("slope", [-1.5, -2.0, -5.0, -100.0])
def test_line_search_finds_closed_form_minimizer(slope):
    # slope a - log(1 - a) is least at a = 1 + 1/slope for slope < -1
    a = sdpsolve._line_search(slope, np.array([-1.0]))
    assert abs(a - (1.0 + 1.0 / slope)) <= 1e-12


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


def test_scalar_inequality_stacks_rows_into_one_diagonal_block():
    rows = np.array([[1.0, -1.0, 0.0], [0.0, 2.0, 1.0]])
    block = sdpsolve.scalar_inequality(rows, 0.5)
    assert block.size == 2
    x = np.array([0.3, 0.7, -0.4])
    assert np.allclose(block.eval(x), np.diag(rows @ x - 0.5))


def test_threshold_witness_solve_takes_few_newton_steps():
    # the branch-a midpoint, and 40 of these 60 seeded points, once ran the
    # final stage into a 400-step stall
    ells = [(-0.5 + witness.SPLIT_LOW) / 2.0]
    ells += [float(np.random.default_rng(seed).uniform(-0.5, 0.0)) for seed in range(60)]
    for ell in ells:
        spec = witness.extremal_witness_spectrum(ell, witness.detection_threshold(ell), 9)
        sol = sdpsolve.solve(sdpsolve.min_witness_problem(spec, (3, 3), "full"), tol=1e-8)
        assert sol.newton_steps <= 100  # 54-86 measured
        assert sol.primal_value >= -1e-9
        assert sol.gap <= 1e-8


def test_max_eig_solve_takes_few_newton_steps():
    phi = posmaps.dual_map(posmaps.generalized_choi_map(6.0 / 5.0, 6.0 / 5.0))
    sol = sdpsolve.solve(sdpsolve.max_eig_problem(phi), tol=1e-7)
    assert sol.newton_steps <= 60  # 45 measured
    # the maximization's bracket is [-primal, -dual]
    assert -sol.primal_value <= 0.6 <= -sol.dual_value


def test_min_witness_uniform_spectrum():
    value = sdpsolve.min_witness_over_abs_ppt(np.full(9, 1.0 / 9.0), (3, 3), "full")
    assert abs(value - 1.0 / 9.0) <= 1e-6


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


def test_verify_min_witness_certificate_closed_form_multipliers():
    rng = bipartite.rng_stream(7)
    for mode in ("full", "submatrix2x2"):
        mu = np.sort(rng.standard_normal(9))[::-1]
        mu = mu - (mu.sum() - 1.0) / 9.0
        zs = [np.zeros((b.size, b.size))
              for b in sdpsolve.min_witness_problem(mu, (3, 3), mode).blocks[:-1]]
        # with Z = 0 the bound is min_k cumsum(c)_k / k; c = mu reversed is
        # ascending, so that is c_1 = mu_9, the ordering-only optimum at e_1
        lb = sdpsolve.verify_min_witness_certificate(mu, (3, 3), mode, zs)
        assert abs(lb - mu[-1]) <= 1e-15
        assert lb <= sdpsolve.min_witness_over_abs_ppt(mu, (3, 3), mode, tol=1e-7)


def test_verify_min_witness_certificate_rejects_malformed_duals():
    mu = np.full(9, 1.0 / 9.0)
    q = [b.size for b in sdpsolve.min_witness_problem(mu, (3, 3), "full").blocks[:-1]]
    with pytest.raises(CertificateRejected, match="dual blocks"):
        sdpsolve.verify_min_witness_certificate(mu, (3, 3), "full", [np.eye(q[0])])
    with pytest.raises(CertificateRejected, match="shape"):
        zs = [np.eye(q[0] + 1)] + [np.eye(k) for k in q[1:]]
        sdpsolve.verify_min_witness_certificate(mu, (3, 3), "full", zs)
    with pytest.raises(CertificateRejected, match="Z1 is not PSD"):
        sdpsolve.verify_min_witness_certificate(
            mu, (3, 3), "full", [np.eye(q[0]), -np.eye(q[1])]
        )


def test_min_witness_full_mode_needs_small_dims():
    with pytest.raises(Unsupported):
        sdpsolve.min_witness_over_abs_ppt(np.full(16, 1.0 / 16.0), (4, 4), "full")


def test_diamond_certificate_choi_dual():
    phi = posmaps.dual_map(posmaps.choi_map())
    value = sdpsolve.verify_diamond_certificate(phi, sdpsolve.diamond_certificate(phi))
    assert abs(value - 4.0 / 3.0) <= 1e-12


def test_diamond_certificate_matches_literal_display():
    phi = posmaps.dual_map(posmaps.choi_map())
    y = sdpsolve.diamond_certificate(phi).values["Y"]
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
    cert = sdpsolve.max_eig_certificate(phi)
    value = sdpsolve.verify_max_eig_certificate(phi, cert)
    assert abs(value - 2.0 / 3.0) <= 1e-12
    literal = np.zeros((9, 9))
    sixth = [
        (1, 1, 1.0), (2, 2, 4.0), (3, 3, 4.0), (5, 5, 1.0), (6, 6, 1.0), (7, 7, 4.0),
        (1, 3, 2.0), (2, 6, 2.0), (5, 7, 2.0),
    ]
    for r, s, v in sixth:
        literal[r, s] = literal[s, r] = v / 6.0
    assert np.allclose(cert.values["Y"], literal, atol=1e-14)


def test_gen_choi_certificates_on_grid():
    for b in np.linspace(0.0, 4.0 / 3.0, 5):
        for c in np.linspace(0.0, 4.0 / 3.0, 5):
            phi = posmaps.dual_map(posmaps.generalized_choi_map(float(b), float(c)))
            dval = sdpsolve.verify_diamond_certificate(phi, sdpsolve.diamond_certificate(phi))
            assert abs(dval - (3.0 + b + c) / 3.0) <= 1e-12
            cert = sdpsolve.max_eig_certificate(phi)
            mval = sdpsolve.verify_max_eig_certificate(phi, cert)
            assert abs(mval - cert.expected_value) <= 1e-12
            assert cert.expected_value == sdpsolve.gen_choi_max_eig_bound(float(b), float(c))
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
        cert = sdpsolve.diamond_certificate(phi)
        dval = sdpsolve.verify_diamond_certificate(phi, cert)
        assert abs(dval - (n + 2.0) / n) <= 1e-12
        # the partial trace of Y collapses to ((n+2)/n) I
        traced = bipartite.partial_trace(cert.values["Y"], n, n, "second")
        assert np.allclose(traced, (n + 2.0) / n * np.eye(n), atol=1e-12)
        mcert = sdpsolve.max_eig_certificate(phi)
        mval = sdpsolve.verify_max_eig_certificate(phi, mcert)
        assert abs(mval - 1.0 / (n - 2.0)) <= 1e-12


def test_certificates_reject_perturbations():
    phi = posmaps.dual_map(posmaps.choi_map())
    cert = sdpsolve.diamond_certificate(phi)
    cert.values["Y"] = cert.values["Y"].copy()
    cert.values["Y"][2, 2] -= 1e-3  # breaks PSD of the Y - J block
    with pytest.raises(CertificateRejected):
        sdpsolve.verify_diamond_certificate(phi, cert)
    cert2 = sdpsolve.max_eig_certificate(phi)
    cert2.values["Y"] = cert2.values["Y"].copy()
    cert2.values["Y"][1, 1] -= 1e-3  # drives an eigenvalue of Y negative
    with pytest.raises(CertificateRejected):
        sdpsolve.verify_max_eig_certificate(phi, cert2)


@pytest.mark.parametrize("kind", ["diamond", "max_eig"])
def test_verifiers_reject_a_wrong_shaped_y(kind):
    # a 4 x 4 Y for the 9 x 9 Choi dual is a failed certificate, not a numpy or
    # dimension error, in the one-map verifier and in the stacked one
    phi = posmaps.dual_map(posmaps.choi_map())
    message = re.escape("Y has shape (4, 4), expected (9, 9)")
    with pytest.raises(CertificateRejected, match=message):
        getattr(sdpsolve, f"verify_{kind}_certificate")(
            phi, sdpsolve.DualCertificate("wrong shape", {"Y": np.eye(4)}))
    with pytest.raises(CertificateRejected, match=message):
        getattr(sdpsolve, f"verify_{kind}_certificates")(
            (phi, phi), posmaps.choi_matrices((phi, phi)), np.stack([np.eye(4)] * 2))


def _watrous_block_bound(phi, y0, y1):
    # Watrous's general two-variable check: [[Y0, -J], [-J^H, Y1]] >= 0, then
    # the bound (||Tr_2 Y0||_op + ||Tr_2 Y1||_op)/2
    n = m = phi.dim
    jmat = posmaps.choi_matrix(phi)
    big = np.block([[y0, -jmat], [-jmat.conj().T, y1]])
    sdpsolve._psd_or_reject(big, "diamond block matrix")
    val0 = matcore.schatten_norm(bipartite.partial_trace(y0, n, m, "second"), "operator")
    val1 = matcore.schatten_norm(bipartite.partial_trace(y1, n, m, "second"), "operator")
    return 0.5 * (val0 + val1)


def test_diamond_verifier_equals_watrous_block_reference():
    axis = np.linspace(0.0, 4.0 / 3.0, 21)
    maps = [posmaps.dual_map(posmaps.generalized_choi_map(float(b), float(c)))
            for b in axis for c in axis]
    maps += [posmaps.dual_map(posmaps.breuer_hall_map(n)) for n in (4, 6)]
    for phi in maps:
        cert = sdpsolve.diamond_certificate(phi)
        y = cert.values["Y"]
        assert sdpsolve.verify_diamond_certificate(phi, cert) == _watrous_block_bound(phi, y, y)


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
        sdpsolve.verify_diamond_certificate(phi, sdpsolve.DualCertificate("perturbed", {"Y": y}))


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
    from abssep.errors import MaxIterations

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
    assert [b.size for b in problem.blocks] == [9, 9, 3]
    sol = sdpsolve.solve(problem, tol=1e-7)
    assert sol.newton_steps <= 60  # 45 measured
    assert sol.gap <= 1e-7
    assert sol.primal_value - sol.gap <= 4.0 / 3.0 <= sol.primal_value


def _watrous_two_variable_problem(phi):
    # minimize (s0 + s1)/2 over Hermitian Y0, Y1 with [[Y0, -J], [-J^H, Y1]] >= 0
    # and s_i I >= Tr_2 Y_i, the form diamond_norm_problem reduces
    n = m = phi.dim
    d = n * m
    jmat = posmaps.choi_matrix(phi)
    basis = sdpsolve._hermitian_basis(d)
    nb = d * d
    nv = 2 * nb + 2  # Y0 coeffs, Y1 coeffs, s0, s1
    big_const = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    big_const[:d, d:] = -jmat
    big_const[d:, :d] = -jmat.conj().T
    big_coeffs = np.zeros((nv, 2 * d, 2 * d), dtype=np.complex128)
    big_coeffs[:nb, :d, :d] = basis
    big_coeffs[nb : 2 * nb, d:, d:] = basis
    traced = np.stack([bipartite.partial_trace(basis[k], n, m, "second") for k in range(nb)])
    blocks = [sdpsolve.AffineBlock(big_const, big_coeffs)]
    for i in (0, 1):
        cap = np.zeros((nv, n, n), dtype=np.complex128)
        cap[i * nb : (i + 1) * nb] = -traced
        cap[2 * nb + i] = np.eye(n)
        blocks.append(sdpsolve.AffineBlock(np.zeros((n, n), dtype=np.complex128), cap))
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
    assert [b.size for b in full.blocks] == [18, 3, 3]
    old = sdpsolve.solve(full, tol=1e-7)
    new = sdpsolve.solve(sdpsolve.diamond_norm_problem(phi), tol=1e-7)
    assert abs(old.primal_value - new.primal_value) <= old.gap + new.gap


def test_diamond_norm_ub_breuer_hall():
    # outside the generalized Choi family; the analytic value is (n + 2)/n
    value = sdpsolve.diamond_norm_ub(posmaps.breuer_hall_map(4))
    assert 1.5 <= value <= 1.5 + 1e-6


@pytest.mark.parametrize(
    "phi",
    [
        posmaps.identity_map(3),
        posmaps.transpose_map(3),
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


def _reference_barrier_derivatives(blocks, x):
    # -tr(F^-1 A_k) and tr(F^-1 A_k F^-1 A_l), one block and one (k, l) at a
    # time. F^-1 is formed from the Cholesky factor as L^-H L^-1: near the
    # optimum F has condition numbers of ~1e8, and inverses of F by two
    # routes differ by ~1e-9 relative, far above the 1e-12 checked here
    nv = x.size
    grad = np.zeros(nv)
    hess = np.zeros((nv, nv))
    for block in blocks:
        lo_inv = np.linalg.inv(np.linalg.cholesky(block.eval(x)))
        f_inv = lo_inv.conj().T @ lo_inv
        fa = [f_inv @ block.coeffs[k] for k in range(nv)]
        for k in range(nv):
            grad[k] -= np.trace(fa[k]).real
            for l in range(nv):
                hess[k, l] += np.sum(fa[k] * fa[l].T).real  # tr(F^-1 A_k F^-1 A_l)
    return grad, hess


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
    ],
    ids=[
        "min-witness-full-3x3", "min-witness-full-3x4", "min-witness-2x2", "max-eig", "max-eig-dual",
        "diamond",
    ],
)
def test_barrier_derivatives_match_reference(build):
    problem = build()
    late = sdpsolve.solve(problem, tol=1e-7).x
    for x in (problem.interior_point, late):
        grad, hess, _ = sdpsolve._barrier_derivatives(problem.blocks, x)
        ref_grad, ref_hess = _reference_barrier_derivatives(problem.blocks, x)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
        assert np.abs(hess - ref_hess).max() <= 1e-12 * np.abs(ref_hess).max()

