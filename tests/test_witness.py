"""Witness summaries, the detection threshold curve, and dual certificates."""

import math
import re

import numpy as np
import pytest

from abssep import bipartite, matcore, posmaps, sdpsolve, witness
from abssep.errors import CertificateRejected, DomainError, ToolkitError, UnnormalizedWitness
from abssep.witness import DetectionVerdict

R2 = math.sqrt(2.0)


def test_threshold_special_values():
    f = witness.detection_threshold
    assert abs(f(-0.5) - 0.5) <= 1e-12
    assert abs(f(-2.0 / 5.0) - 3.0 / 5.0) <= 1e-12
    assert abs(f(-1.0 / 5.0) - 9.0 / 10.0) <= 1e-12
    assert abs(f((1.0 - R2) / 2.0) - (2.0 + R2) / 4.0) <= 1e-12
    assert abs(f(-1.0 / 6.0) - (10.0 + R2) / 12.0) <= 1e-12
    assert abs(f(0.0) - 1.0) <= 1e-12
    assert abs(f(-0.25) - (1.0 + R2) / 4.0) <= 1e-12


def test_threshold_monotone_and_bounded():
    f = witness.detection_threshold
    xs = np.linspace(-0.5, 0.0, 2001)
    ys = np.array([f(float(x)) for x in xs])
    assert np.all(np.diff(ys) >= -1e-14)
    assert ys.min() >= 0.5 - 1e-14
    assert ys.max() <= 1.0 + 1e-14


def test_threshold_jump_and_continuity():
    f = witness.detection_threshold
    eps = 1e-9
    # continuous at the low split
    assert abs(f(witness.SPLIT_LOW - eps) - (1.0 + R2) / 4.0) <= 1e-8
    assert abs(f(witness.SPLIT_LOW + eps) - (1.0 + R2) / 4.0) <= 1e-12
    # jump discontinuity at the high split: left limit (1+sqrt2)/4, value (2+sqrt2)/4
    assert abs(f(witness.SPLIT_HIGH - eps) - (1.0 + R2) / 4.0) <= 1e-12
    assert abs(f(witness.SPLIT_HIGH) - (2.0 + R2) / 4.0) <= 1e-12


def test_threshold_domain():
    with pytest.raises(DomainError):
        witness.detection_threshold(-0.51)
    with pytest.raises(DomainError):
        witness.detection_threshold(0.01)
    with pytest.raises(DomainError):  # NaN fails both one-sided comparisons
        witness.detection_threshold(math.nan)


def test_threshold_domain_edges_are_pinned_by_the_slack():
    # _DOMAIN_SLACK = 1e-12: 5e-13 beyond an edge is clipped onto it, 1e-11
    # beyond it is rejected, alone or as one entry of an array
    for inside in (-0.5 - 5e-13, 5e-13):
        assert witness.detection_threshold(inside) == witness.detection_threshold(
            min(0.0, max(-0.5, inside)))
    np.testing.assert_array_equal(witness.detection_threshold(np.array([-0.5 - 5e-13, 5e-13])),
                                  [0.5, 1.0])
    for outside in (-0.5 - 1e-11, 1e-11):
        with pytest.raises(DomainError, match=re.escape(f"argument {outside} outside")):
            witness.detection_threshold(outside)
        with pytest.raises(DomainError, match=re.escape(f"argument {outside} outside")):
            witness.detection_threshold(np.array([-0.3, 0.0, outside, -0.2, math.nan]))
    with pytest.raises(DomainError, match="argument nan outside"):  # the first bad entry
        witness.detection_threshold(np.array([[-0.3, math.nan], [1e-11, -0.1]]))


def _threshold_points():
    # the 1008 ell values of fig-data f_curve, the split points and their
    # neighbours, and random points of the domain
    low, high = witness.SPLIT_LOW, witness.SPLIT_HIGH
    near = [np.nextafter(x, d) for x in (low, high, -0.5, 0.0) for d in (-1.0, 1.0)]
    rng = np.random.default_rng(24)
    return np.concatenate([np.linspace(-0.5, 0.0, 1001),
                           [-0.5, -0.4, low, low, high, -0.2, 0.0, *near],
                           rng.uniform(-0.5 - 1e-12, 1e-12, 2000)])


def test_threshold_on_an_array_equals_the_scalar_calls_bit_for_bit():
    xs = _threshold_points()
    scalar = [witness.detection_threshold(float(x)) for x in xs]
    assert all(type(f) is float for f in scalar)
    array = witness.detection_threshold(xs)
    assert array.shape == xs.shape and array.dtype == np.float64
    assert array.tolist() == scalar
    assert array.view(np.int64).tolist() == np.array(scalar).view(np.int64).tolist()
    grid = witness.detection_threshold(xs[:1000].reshape(10, 100))
    np.testing.assert_array_equal(grid, array[:1000].reshape(10, 100))


def test_cannot_detect_slack_is_pinned_from_both_sides():
    # mu1 <= f(ell) + 1e-12: 5e-13 above the threshold is still guaranteed,
    # 1e-11 above it is not; ell = -1/2 - 1e-11 lies outside the domain even
    # with a small mu1, ell = -1/2 - 5e-13 inside it
    for ell in (-0.45, witness.SPLIT_LOW, -0.3, -0.1, 0.0):
        f = witness.detection_threshold(ell)
        inside = witness.WitnessSummary(mu1=f + 5e-13, ell=ell, neg_count=1, trace=1.0)
        beyond = witness.WitnessSummary(mu1=f + 1e-11, ell=ell, neg_count=1, trace=1.0)
        assert witness.cannot_detect_abs_ppt(inside) is DetectionVerdict.GUARANTEED, ell
        assert witness.cannot_detect_abs_ppt(beyond) is DetectionVerdict.INCONCLUSIVE, ell
    edge = witness.WitnessSummary(mu1=0.4, ell=-0.5 - 5e-13, neg_count=2, trace=1.0)
    assert witness.cannot_detect_abs_ppt(edge) is DetectionVerdict.GUARANTEED
    deep = witness.WitnessSummary(mu1=0.4, ell=-0.5 - 1e-11, neg_count=2, trace=1.0)
    assert witness.cannot_detect_abs_ppt(deep) is DetectionVerdict.INCONCLUSIVE


def test_summarize_scaled_identity():
    ws = witness.summarize(np.eye(9) / 9.0)
    assert np.isclose(ws.mu1, 1.0 / 9.0)
    assert ws.ell == 0.0
    assert ws.neg_count == 0


@pytest.mark.parametrize("eigs, neg_count", [
    ([0.5, 0.5, 1e-15, -1e-15], 1),  # noise floor 4 eps 0.5 = 4.4e-16 < 1e-15
    ([2.0, 1e-15, -1e-15, -1.0], 1),  # noise floor 4 eps 2 = 1.8e-15 > 1e-15
])
def test_summarize_counts_negative_eigenvalues_beyond_the_noise_floor(eigs, neg_count):
    # the floor is size eps max|lambda|: -1e-15 counts where max|lambda| = 0.5
    # and is noise where it is 2, the other way round from eps / max|lambda|
    ws = witness.summarize(np.diag(eigs))
    assert ws.neg_count == neg_count


def test_summarize_choi_dual_witness_at_max_entangled():
    w = posmaps.witness_from_map(
        posmaps.dual_map(posmaps.choi_map()), bipartite.max_entangled(3)
    )
    ws = witness.summarize(w)
    assert np.isclose(ws.ell, -1.0 / 6.0, atol=1e-12)
    assert ws.neg_count == 1


def test_summarize_neg_count_ignores_rounding_noise():
    # five exact zeros come back from the eigensolver as +-1e-17-sized values
    spectrum = np.diag([0.6, 0.5, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, -0.4])
    for seed in range(40):
        u = bipartite.haar_unitary(9, bipartite.rng_stream(seed))
        ws = witness.summarize(u @ spectrum @ u.conj().T)
        assert ws.neg_count == 1
        assert abs(ws.ell + 0.4) <= 1e-12


def test_summarize_realignment_witness_bound():
    rng = bipartite.rng_stream(5)
    for _ in range(50):
        rho = bipartite.random_density(9, rng)
        w = posmaps.witness_from_schmidt(bipartite.operator_schmidt(rho, 3, 3), 3, 3)
        ws = witness.summarize(w)
        assert ws.mu1 <= 1.0 / math.sqrt(3.0) + 1e-9
        assert ws.ell >= (1.0 - math.sqrt(3.0)) / 2.0 - 1e-9


def test_summarize_rejects_unnormalized():
    with pytest.raises(UnnormalizedWitness):
        witness.summarize(np.eye(4))


def test_cannot_detect_known_pairs():
    cases = [
        (-1.0 / 6.0, 2.0 / 3.0),            # Choi-family witnesses
        (-0.25, 0.5),                       # Breuer-Hall witnesses at n = 4
        ((1.0 - math.sqrt(3.0)) / 2.0, 1.0 / math.sqrt(3.0)),  # realignment
        (0.0, 1.0),
    ]
    for ell, mu1 in cases:
        ws = witness.WitnessSummary(mu1=mu1, ell=ell, neg_count=1, trace=1.0)
        assert witness.cannot_detect_abs_ppt(ws) is DetectionVerdict.GUARANTEED


def test_cannot_detect_inconclusive_beyond_threshold():
    ws = witness.WitnessSummary(mu1=0.62, ell=-0.4, neg_count=1, trace=1.0)
    assert witness.cannot_detect_abs_ppt(ws) is DetectionVerdict.INCONCLUSIVE
    deep = witness.WitnessSummary(mu1=0.4, ell=-0.6, neg_count=2, trace=1.0)
    assert witness.cannot_detect_abs_ppt(deep) is DetectionVerdict.INCONCLUSIVE
    # a NaN ell is outside the domain: no guarantee, though mu1 = 0.3 < 1/2
    unknown = witness.WitnessSummary(mu1=0.3, ell=math.nan, neg_count=1, trace=1.0)
    assert witness.cannot_detect_abs_ppt(unknown) is DetectionVerdict.INCONCLUSIVE


def test_extremal_witness_spectrum_boundary_case():
    spec = witness.extremal_witness_spectrum(-0.4, 0.6, 9)
    assert np.allclose(spec, [0.6, 0.6, 0.2, 0, 0, 0, 0, 0, -0.4])
    assert np.isclose(spec.sum(), 1.0)
    # always a valid unit-trace descending spectrum
    for ell in np.linspace(-0.5, 0.0, 11):
        mu1 = witness.detection_threshold(float(ell))
        spec = witness.extremal_witness_spectrum(float(ell), mu1, 9)
        assert np.isclose(spec.sum(), 1.0, atol=1e-12)
        assert np.all(np.diff(spec) <= 1e-12)


def _certified_bound(mu, z, dims=(3, 3)):
    return sdpsolve.verify_min_witness_certificate(mu, dims, "submatrix2x2", [z])


@pytest.mark.parametrize(
    "ell",
    [-0.5, -0.45, -1.0 / (2.0 * R2), -0.3, -0.25, (1.0 - R2) / 2.0, -0.15, -1.0 / 6.0, 0.0],
)
def test_dual_certificate_verifies(ell):
    mu, z = witness.detection_dual_certificate(ell, 9)
    assert abs(_certified_bound(mu, z)) <= 1e-10
    # the dual block is rank one: bb^2 = aa cc
    assert abs(np.linalg.det(z)) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 4), (4, 4)])
def test_dual_certificate_verifies_for_other_sizes(dims):
    mn = dims[0] * dims[1]
    for ell in np.linspace(-0.5, 0.0, 21):
        mu, z = witness.detection_dual_certificate(float(ell), mn)
        assert abs(_certified_bound(mu, z, dims)) <= 1e-10


def _low_branch_block(ell, mu1):
    return np.array([[(ell + 2.0 * mu1) / 2.0, -ell / 2.0],
                     [-ell / 2.0, (1.0 - 2.0 * mu1 - ell) / 2.0]])


def test_dual_certificate_case_assignment():
    # each branch by its closed-form dual block: the low branch at ell, the
    # middle one at the low branch's point SPLIT_LOW, the high one at ell
    low_mu, low_z = witness.detection_dual_certificate(-0.5, 9)
    assert witness.detection_threshold(-0.5) == 0.5
    assert np.array_equal(low_z, _low_branch_block(-0.5, 0.5))
    assert np.array_equal(low_mu, witness.extremal_witness_spectrum(-0.5, 0.5, 9))
    assert abs(witness.detection_threshold(-0.3) - (1.0 + R2) / 4.0) <= 1e-9
    mid_mu, mid_z = witness.detection_dual_certificate(-0.3, 9)
    split_mu1 = witness.detection_threshold(witness.SPLIT_LOW)
    assert np.array_equal(mid_z, _low_branch_block(witness.SPLIT_LOW, split_mu1))
    split = witness.extremal_witness_spectrum(witness.SPLIT_LOW, split_mu1, 9)
    assert np.array_equal(mid_mu, split)
    mu1 = witness.detection_threshold(-0.1)
    hi_mu, hi_z = witness.detection_dual_certificate(-0.1, 9)
    bb = (1.0 - mu1 + 0.1) / 2.0
    assert np.array_equal(hi_z, [[mu1 / 2.0, bb], [bb, (1.0 - mu1) / 2.0]])
    assert np.array_equal(hi_mu, witness.extremal_witness_spectrum(-0.1, mu1, 9))


def test_dual_certificate_at_split_high_certifies_its_own_point():
    # f jumps at SPLIT_HIGH, where it takes the high branch's value (2 + √2)/4;
    # the certificate there is the high branch's at (SPLIT_HIGH, f(SPLIT_HIGH)),
    # not the middle branch's point at SPLIT_LOW, which also verifies to 0
    ell = witness.SPLIT_HIGH
    mu1 = witness.detection_threshold(ell)
    assert abs(mu1 - (2.0 + R2) / 4.0) <= 1e-12
    mu, z = witness.detection_dual_certificate(ell, 9)
    assert np.array_equal(mu, witness.extremal_witness_spectrum(ell, mu1, 9))
    bb = (1.0 - mu1 - ell) / 2.0
    assert np.array_equal(z, [[mu1 / 2.0, bb], [bb, (1.0 - mu1) / 2.0]])
    assert abs(_certified_bound(mu, z)) <= 1e-10


def test_dual_certificate_rejects_perturbations():
    mu, z = witness.detection_dual_certificate(-0.45, 9)
    with pytest.raises(CertificateRejected):
        _certified_bound(mu, z - np.diag([1e-3, 0.0]))  # no longer PSD
    assert _certified_bound(mu, z + np.diag([1e-3, 0.0])) < -1e-5  # PSD, but certifies less than 0


@pytest.mark.parametrize("ell", [-0.51, 0.01, math.nan])
def test_dual_certificate_rejects_ell_outside_the_domain(ell):
    with pytest.raises(DomainError):
        witness.detection_dual_certificate(ell, 9)


def test_realignment_witness_bounds_values():
    ell_lower, mu1_upper = witness.realignment_witness_bounds(3, 3)
    assert np.isclose(ell_lower, (1.0 - math.sqrt(3.0)) / 2.0, atol=1e-14)
    assert np.isclose(mu1_upper, 1.0 / math.sqrt(3.0), atol=1e-14)
    _, mu_big = witness.realignment_witness_bounds(40, 40)
    assert mu_big < 0.04


@pytest.mark.parametrize("dims, ell_lower, mu1_upper", [
    ((2, 2), -0.5, 1.0), ((2, 3), -0.419211, 0.750533), ((3, 2), -0.419211, 0.750533),
    ((3, 3), -0.366025, 0.577350), ((3, 4), -0.338399, 0.484050), ((4, 4), -0.316497, 0.408248),
])
def test_realignment_witness_bounds_match_the_table(dims, ell_lower, mu1_upper):
    # the closed forms at six decimals, m = 2 and n = 2 included; (2, 2) is exact
    got = witness.realignment_witness_bounds(*dims)
    assert abs(got[0] - ell_lower) <= 5e-7 and abs(got[1] - mu1_upper) <= 5e-7
    if dims == (2, 2):
        assert got == (-0.5, 1.0)
    for bad in ((1, dims[1]), (dims[0], 1)):
        with pytest.raises(ValueError, match="m, n >= 2"):
            witness.realignment_witness_bounds(*bad)


def test_schmidt_trace_bound_saturation_and_zero():
    m = n = 3
    ident = [np.eye(m) / math.sqrt(m)]
    assert np.isclose(
        witness.schmidt_trace_bound(ident, ident), math.sqrt(m * n), atol=1e-12
    )
    traceless = [np.diag([1.0, -1.0, 0.0]) / math.sqrt(2.0)]
    assert witness.schmidt_trace_bound(traceless, traceless) <= 1e-14


def test_schmidt_trace_bound_random_rotations():
    rng = bipartite.rng_stream(6)
    for _ in range(50):
        ua = bipartite.haar_unitary(9, rng)
        ub = bipartite.haar_unitary(9, rng)
        a_ops = [ua[:, i].reshape(3, 3) for i in range(9)]
        b_ops = [ub[:, i].reshape(3, 3) for i in range(9)]
        value = witness.schmidt_trace_bound(a_ops, b_ops)
        assert value <= 3.0 + 1e-8


def test_schmidt_trace_bound_rejects_non_orthonormal():
    bad = [np.eye(3), np.eye(3)]
    with pytest.raises(ValueError):
        witness.schmidt_trace_bound(bad, bad)


def test_guaranteed_witness_never_detects_sampled_orbits():
    # empirical soundness: a Guaranteed witness keeps Tr(W U rho U†) >= -1e-8
    # for absolutely PPT spectra across Haar orbits
    from abssep import absppt

    w = posmaps.witness_from_map(
        posmaps.dual_map(posmaps.choi_map()), bipartite.max_entangled(3)
    )
    assert witness.cannot_detect_abs_ppt(witness.summarize(w)) is DetectionVerdict.GUARANTEED
    rng = bipartite.rng_stream(17)
    for _ in range(200):
        spec = absppt.sample_abs_ppt_spectrum(3, 3, rng)
        for _ in range(20):
            u = bipartite.haar_unitary(9, rng)
            rho = (u * spec.values) @ u.conj().T
            assert np.trace(w @ rho).real >= -1e-8


def _diagonal_witness(trace_error: float) -> np.ndarray:
    # a witness with one negative eigenvalue and trace 1 + trace_error
    return np.diag([0.6 + trace_error, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0, -0.2])


@pytest.mark.parametrize("trace_error, accepted", [(0.9e-9, True), (1.1e-9, False)])
def test_trace_tol_boundary(trace_error, accepted):
    # TRACE_TOL = 1e-9: a witness off unit trace by 0.9e-9 is summarized, by
    # 1.1e-9 refused. The accepted one's ell is the sum of its negative
    # eigenvalues: (1 - ||W||_tr)/2 differs from it by |tr W - 1|/2 = 4.5e-10
    w = _diagonal_witness(trace_error)
    if not accepted:
        with pytest.raises(UnnormalizedWitness):
            witness.summarize(w)
        return
    summary = witness.summarize(w)
    assert summary.ell == -0.2 and summary.neg_count == 1
    trace_norm_ell = (1.0 - float(np.sum(np.abs(np.diag(w))))) / 2.0
    assert abs(summary.ell - trace_norm_ell) > 4e-10


@pytest.mark.parametrize("excess, verdict", [
    (0.9e-12, DetectionVerdict.GUARANTEED), (1.1e-12, DetectionVerdict.INCONCLUSIVE)])
def test_threshold_slack_boundary(excess, verdict):
    # THRESHOLD_SLACK = 1e-12: mu1 that far above the threshold is still Guaranteed
    for ell in (-0.45, -0.3, -0.1):
        mu1 = witness.detection_threshold(ell) + excess
        summary = witness.WitnessSummary(mu1=mu1, ell=ell, neg_count=1, trace=1.0)
        assert witness.cannot_detect_abs_ppt(summary) is verdict


def _scaled(ops, scale):
    return [math.sqrt(scale) * op for op in ops]


@pytest.mark.parametrize("fraction, accepted", [(0.9, True), (1.1, False)])
def test_hs_orthonormal_tol_boundary(fraction, accepted):
    # HS_ORTHONORMAL_TOL = 1e-8 per operator: three traceless matrix units scaled
    # by sqrt(1 + e) have ||G - I||_F = e sqrt(3), set to fraction * 3e-8
    units = [np.zeros((3, 3)) for _ in range(3)]
    for op, (i, j) in zip(units, [(0, 1), (1, 0), (1, 2)]):
        op[i, j] = 1.0
    a_ops = _scaled(units, 1.0 + fraction * 1e-8 * math.sqrt(3.0))
    if accepted:
        assert witness.schmidt_trace_bound(a_ops, units) == 0.0
    else:
        with pytest.raises(ValueError, match="not Hilbert-Schmidt orthonormal"):
            witness.schmidt_trace_bound(a_ops, units)


@pytest.mark.parametrize("fraction, accepted", [(0.9, True), (1.1, False)])
def test_trace_bound_slack_boundary(fraction, accepted):
    # TRACE_BOUND_SLACK = 1e-8: at m = n = 2, A = B = sqrt(1 + e) I/sqrt(2) passes
    # the orthonormality check (e < HS_ORTHONORMAL_TOL) and exceeds sqrt(mn) = 2
    # by 2e, set to fraction * 1e-8
    ops = _scaled([np.eye(2) / math.sqrt(2.0)], 1.0 + fraction * 1e-8 / 2.0)
    if accepted:
        assert witness.schmidt_trace_bound(ops, ops) == pytest.approx(2.0 + fraction * 1e-8, abs=1e-14)
    else:
        with pytest.raises(ToolkitError, match="trace bound violated"):
            witness.schmidt_trace_bound(ops, ops)
