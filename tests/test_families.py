"""Werner, isotropic, and UPB-mixture families against closed-form thresholds."""

import math
import re

import numpy as np
import pytest

from abssep import absppt, bipartite, families, matcore
from abssep.absppt import AbsPptVerdict
from abssep.errors import InvalidDim, InvalidState, InvalidVector
from abssep.families import IsotropicClass, UpbClass, WernerClass


def test_family_spectra_match_materialized_states():
    # the states built here from their definitions: Werner (I - alpha S)/(n² - n alpha),
    # isotropic (1 - alpha)/n² I + alpha |psi+><psi+|
    for n, alpha in ((2, 0.4), (3, -0.3), (3, 0.25), (3, 0.0)):
        rho = (np.eye(n * n) - alpha * bipartite.swap_operator(n)) / (n * n - n * alpha)
        assert np.allclose(
            matcore.eigvalsh(rho), families.werner_spectrum(n, alpha).values, atol=1e-10
        )
    for n, alpha in ((2, 0.3), (3, 0.15), (3, -0.05)):
        rho = (1.0 - alpha) / (n * n) * np.eye(n * n) + alpha * bipartite.max_entangled_projector(n)
        assert np.allclose(
            matcore.eigvalsh(rho), families.isotropic_spectrum(n, alpha).values, atol=1e-10
        )
    for p in (0.3, 0.65, 0.9):
        rho = families.upb_state(p)
        assert np.allclose(
            matcore.eigvalsh(rho), families.upb_spectrum(p).values, atol=1e-10
        )


def test_isotropic_eigenvalue_formulas():
    n, alpha = 3, 0.15
    vals = families.isotropic_spectrum(n, alpha).values
    assert np.isclose(vals[0], alpha + (1 - alpha) / n**2, atol=1e-14)
    assert np.allclose(vals[1:], (1 - alpha) / n**2, atol=1e-14)


def test_upb_eigenvalue_formulas():
    p = 0.7
    vals = families.upb_spectrum(p).values
    small, big = p / 9.0, (9.0 - 5.0 * p) / 36.0
    assert np.isclose(np.sort(vals)[:5], small, atol=1e-14).all()
    assert np.isclose(np.sort(vals)[5:], big, atol=1e-14).all()


def test_werner_classify_trichotomy():
    assert families.werner_classify(3, 1.0 / 3.0) is WernerClass.ABS_SEP
    assert families.werner_classify(3, 0.34) is WernerClass.NOT_ABS_PPT
    assert families.werner_classify(3, -0.45) is WernerClass.UNKNOWN
    assert families.werner_classify(3, -0.6) is WernerClass.NOT_ABS_PPT
    assert families.werner_classify(3, -1.0 / 3.0) is WernerClass.ABS_SEP


@pytest.mark.parametrize("n", [2, 3, 4])
def test_werner_lower_edge_of_the_open_band_holds_the_slack(n):
    # alpha = -1/(n-1) closes the open band from below: on the edge, and within
    # THRESHOLD_SLACK = 1e-12 beyond it, the class is unknown; 2e-12 beyond, not
    # absolutely PPT (at n = 2 the edge is alpha = -1, the end of the domain)
    edge = -1.0 / (n - 1.0)
    assert families.werner_classify(n, edge) is WernerClass.UNKNOWN
    if n > 2:
        assert families.werner_classify(n, edge - 0.5e-12) is WernerClass.UNKNOWN
        assert families.werner_classify(n, edge - 2e-12) is WernerClass.NOT_ABS_PPT


# (edge, the side beyond it, the classifier, the class at the edge and up to
# THRESHOLD_SLACK beyond it, the class further out): each edge keeps its inside
# class 0.5e-12 beyond it and loses it 2e-12 beyond, so THRESHOLD_SLACK = 1e-12
# loosened or tightened tenfold fails a side. The offsets are literals, so
# that the inputs do not move with the constant. The open band's lower edge
# -1/(n-1) is pinned the same way above
SLACK_EDGES = [
    ("werner 1/n", 1.0 / 3.0, 1.0, lambda a: families.werner_classify(3, a),
     WernerClass.ABS_SEP, WernerClass.NOT_ABS_PPT),
    ("werner -1/n", -1.0 / 3.0, -1.0, lambda a: families.werner_classify(3, a),
     WernerClass.ABS_SEP, WernerClass.UNKNOWN),
    ("isotropic", 2.0 / 11.0, 1.0, lambda a: families.isotropic_classify(3, a),
     IsotropicClass.ABS_SEP, IsotropicClass.NOT_ABS_PPT),
    ("upb abs ppt", families.UPB_ABS_PPT_THRESHOLD, -1.0, families.upb_classify,
     UpbClass.ABS_PPT_ONLY_KNOWN, UpbClass.NOT_ABS_PPT),
    ("upb abs sep", families.UPB_ABS_SEP_THRESHOLD, -1.0, families.upb_classify,
     UpbClass.ABS_PPT_AND_ABS_SEP, UpbClass.ABS_PPT_ONLY_KNOWN),
]


@pytest.mark.parametrize("edge, beyond, classify, inside, outside", [e[1:] for e in SLACK_EDGES],
                         ids=[e[0] for e in SLACK_EDGES])
def test_threshold_slack_holds_every_edge_from_both_sides(edge, beyond, classify, inside, outside):
    assert classify(edge) is inside
    assert classify(edge + beyond * 0.5e-12) is inside
    assert classify(edge + beyond * 2e-12) is outside


def test_werner_lmi_min_eigs_closed_form_vs_numeric():
    for n in range(2, 7):
        for alpha in np.linspace(-1.0, 1.0, 21):
            case1, case2 = families.werner_lmi_min_eigs(n, float(alpha))
            m1, m2 = families.werner_lmi_case_matrices(n, float(alpha))
            assert abs(case1 - matcore.eigvalsh(m1)[-1]) <= 1e-10
            assert abs(case2 - matcore.eigvalsh(m2)[-1]) <= 1e-10
    assert np.isclose(families.werner_lmi_min_eigs(3, 1.0 / 3.0)[0], 0.0, atol=1e-14)
    assert np.isclose(families.werner_lmi_min_eigs(3, -0.5)[1], 0.0, atol=1e-14)
    assert families.werner_lmi_min_eigs(4, 0.0) == (2.0, 2.0)


def test_werner_gurvits_barnum_mechanism():
    for n in (2, 3):
        for alpha in np.linspace(-1.0 / n, 1.0 / n, 9):
            x = np.eye(n * n) - float(alpha) * bipartite.swap_operator(n)
            assert absppt.gurvits_barnum_abs_sep(x, n, n)


def test_werner_gap_band_is_abs_ppt_at_n_3():
    # the open band is absolutely PPT at desk scale
    for alpha in np.linspace(-0.5, -1.0 / 3.0, 7):
        assert absppt.is_abs_ppt(families.werner_spectrum(3, float(alpha))) is AbsPptVerdict.YES
    assert absppt.is_abs_ppt(families.werner_spectrum(3, -0.51)) is AbsPptVerdict.NO


def test_isotropic_classify_boundary():
    assert families.isotropic_classify(3, 2.0 / 11.0) is IsotropicClass.ABS_SEP
    assert families.isotropic_classify(3, 2.0 / 11.0 + 1e-6) is IsotropicClass.NOT_ABS_PPT
    assert families.isotropic_classify(2, 1.0 / 3.0) is IsotropicClass.ABS_SEP


def test_isotropic_vt99_sufficiency_mechanism():
    # at the threshold, (1-alpha)/(n² alpha) >= gamma_1 gamma_2 for Haar vectors
    n = 3
    alpha = 2.0 / (2.0 + n * n)
    margin = (1.0 - alpha) / (n * n * alpha)
    assert margin >= 0.5 - 1e-12
    rng = bipartite.rng_stream(8)
    for _ in range(100):
        u = bipartite.haar_unitary(n * n, rng)
        v = u @ bipartite.max_entangled(n)
        g = bipartite.vector_schmidt(v, n, n)
        assert margin >= g[0] * g[1] - 1e-12


def test_upb_classify_bands():
    assert families.upb_classify(0.60) is UpbClass.NOT_ABS_PPT
    assert families.upb_classify(0.65) is UpbClass.ABS_PPT_ONLY_KNOWN
    assert families.upb_classify(families.UPB_ABS_SEP_THRESHOLD) is UpbClass.ABS_PPT_AND_ABS_SEP
    assert families.upb_classify(0.95) is UpbClass.ABS_PPT_AND_ABS_SEP


def test_upb_lmi_boundary_matches_closed_form():
    # bisect the PSD boundary of the LMI and compare with 9(10-sqrt(17))/83
    lo, hi = 0.5, 0.8
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if matcore.eigvalsh(families.upb_lmi_matrix(mid))[-1] >= 0.0:
            hi = mid
        else:
            lo = mid
    assert abs(hi - families.UPB_ABS_PPT_THRESHOLD) <= 1e-10
    lam = matcore.eigvalsh(families.upb_lmi_matrix(families.UPB_ABS_PPT_THRESHOLD))[-1]
    assert abs(lam) <= 1e-12


def test_upb_gurvits_barnum_boundary_value():
    x = 8.0 * families.upb_state(families.UPB_ABS_SEP_THRESHOLD)
    assert abs(np.linalg.norm(x - np.eye(9)) ** 2 - 1.0) <= 1e-10


def test_tiles_upb_properties():
    vecs = families.tiles_upb()
    families.validate_upb(vecs)  # orthogonality + product structure
    rho = families.upb_complement_state()
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    assert matcore.is_psd(rho)
    # PPT with rank 4 and the UPB in its kernel
    pt = bipartite.partial_transpose(rho, 3, 3)
    assert matcore.is_psd(pt, tol=1e-10)
    eigs = matcore.eigvalsh(rho)
    assert np.sum(eigs > 1e-10) == 4
    kernel_ok = all(np.linalg.norm(rho @ v) <= 1e-12 for v in vecs)
    realign_value = bipartite.realign_trace_norm(rho, 3, 3)
    assert realign_value > 1.0 + 1e-6 or kernel_ok


def test_validate_upb_rejects_bad_sets():
    vecs = families.tiles_upb()
    with pytest.raises(InvalidVector):
        families.validate_upb(vecs[:4])
    tampered = [v.copy() for v in vecs]
    tampered[0] = bipartite.max_entangled(3)  # not a product vector
    with pytest.raises(InvalidVector):
        families.validate_upb(tampered)


@pytest.mark.parametrize("factor, accepted", [(0.9, True), (1.1, False)])
@pytest.mark.parametrize("check", ["unit norm", "product", "orthogonal"])
def test_upb_vector_tol_boundary(check, factor, accepted):
    # each check of validate_upb at e = 0.9 and 1.1 times 1e-10: vector 0 off
    # unit norm by e; vector 0 with second Schmidt coefficient e; vector 2 at
    # overlap e with vector 0 and e/2 with vector 3, still a unit product vector
    e, basis, r2 = factor * 1e-10, np.eye(3), math.sqrt(2.0)
    vecs = families.tiles_upb()
    if check == "unit norm":
        vecs[0] = (1.0 + e) * vecs[0]
    elif check == "product":  # vecs[0] is e_0 ⊗ (e_0 - e_1)/√2
        other = np.kron(basis[1], (basis[0] + basis[1]) / r2)
        vecs[0] = math.sqrt(1.0 - e * e) * vecs[0] + e * other
    else:  # vecs[2] is (e_0 - e_1)/√2 ⊗ e_2
        second = math.sqrt(1.0 - 2.0 * e * e) * basis[2] + e * (basis[0] - basis[1])
        vecs[2] = np.kron((basis[0] - basis[1]) / r2, second)
    if accepted:
        families.validate_upb(vecs)
    else:
        with pytest.raises(InvalidVector, match="0 and 2" if check == "orthogonal" else check):
            families.validate_upb(vecs)


def test_small_dims_agreement_with_lmi_classification():
    # exact LMI test agrees with the closed-form family classifications
    for alpha in np.linspace(-1.0, 1.0, 41):
        verdict = absppt.is_abs_ppt(families.werner_spectrum(3, float(alpha)))
        cls = families.werner_classify(3, float(alpha))
        if cls is WernerClass.ABS_SEP:
            assert verdict is AbsPptVerdict.YES
        if verdict is AbsPptVerdict.NO:
            assert cls is WernerClass.NOT_ABS_PPT
    for n in (2, 3):
        lo = -1.0 / (n * n - 1.0)
        for alpha in np.linspace(lo + 1e-9, 1.0, 41):
            spec = families.isotropic_spectrum(n, float(alpha))
            expect = families.isotropic_classify(n, float(alpha))
            verdict = absppt.is_abs_ppt(spec)
            if expect is IsotropicClass.ABS_SEP:
                assert verdict is AbsPptVerdict.YES
            else:
                assert verdict is AbsPptVerdict.NO
    for p in np.linspace(0.05, 0.95, 37):
        spec = families.upb_spectrum(float(p))
        verdict = absppt.is_abs_ppt(spec)
        expect = families.upb_classify(float(p))
        if expect is UpbClass.NOT_ABS_PPT:
            assert verdict is AbsPptVerdict.NO
        else:
            assert verdict is AbsPptVerdict.YES


def test_parameter_validation():
    with pytest.raises(InvalidState):
        families.werner_spectrum(3, 1.5)
    with pytest.raises(InvalidDim):
        families.werner_spectrum(1, 0.0)
    with pytest.raises(InvalidState):
        families.isotropic_spectrum(3, -0.2)
    with pytest.raises(InvalidState):
        families.upb_state(0.0)


def _reference_upb_lmi(p):
    q = 9.0 * p - 9.0
    return np.array([[8.0 * p, q, q], [q, 8.0 * p, q], [q, q, 18.0 - 10.0 * p]]) / 36.0


def _reference_upb_class(p):
    if p < families.UPB_ABS_PPT_THRESHOLD - families.THRESHOLD_SLACK:
        return UpbClass.NOT_ABS_PPT
    if p >= families.UPB_ABS_SEP_THRESHOLD - families.THRESHOLD_SLACK:
        return UpbClass.ABS_PPT_AND_ABS_SEP
    return UpbClass.ABS_PPT_ONLY_KNOWN


def test_upb_lmi_matrix_and_classify_take_an_array_of_p():
    # entry by entry the scalar formulas, bit for bit, with the band edges and
    # their neighbours among the points
    edges = [t - families.THRESHOLD_SLACK for t in (families.UPB_ABS_PPT_THRESHOLD,
                                                    families.UPB_ABS_SEP_THRESHOLD)]
    p = np.concatenate([np.linspace(0.01, 0.99, 37), edges, np.nextafter(edges, 0.0)])
    stack = families.upb_lmi_matrix(p)
    classes = families.upb_classify(p)
    assert stack.shape == (p.size, 3, 3) and classes.shape == p.shape
    for k, x in enumerate(p.tolist()):
        assert np.array_equal(stack[k], _reference_upb_lmi(x))
        assert np.array_equal(families.upb_lmi_matrix(x), _reference_upb_lmi(x))
        assert classes[k] is families.upb_classify(x) is _reference_upb_class(x)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.25, math.nan])
def test_upb_array_rejects_any_p_outside_the_open_interval(bad):
    p = np.array([0.5, bad, 0.7, 1.5])
    message = re.escape(f"mixture parameter p = {bad} outside (0, 1)")
    for build in (families.upb_lmi_matrix, families.upb_classify):
        with pytest.raises(InvalidState, match=message):
            build(p)
        with pytest.raises(InvalidState, match=message):
            build(bad)
