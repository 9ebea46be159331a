"""Spectral absolute-PPT tests, separability ball, rank logic, sampler."""

import math

import numpy as np
import pytest

from abssep import absppt, bipartite, matcore
from abssep.absppt import AbsPptVerdict, RankVerdict, Spectrum
from abssep.errors import InvalidState, Unsupported


def dirichlet_spectrum(rng, m, n):
    return Spectrum(m, n, np.sort(rng.dirichlet(np.ones(m * n)))[::-1])


def test_build_lmis_shapes():
    # one (g, mn, q, q) stack per family: g = 0 for min{m,n} = 1, 1 for 2,
    # 2 for 3, and the necessary 2x2 condition alone above that
    assert absppt.build_lmis(2, 2).exact
    assert absppt.build_lmis(1, 3).coeffs.shape == (0, 3, 1, 1)
    assert absppt.build_lmis(2, 5).coeffs.shape == (1, 10, 2, 2)
    assert absppt.build_lmis(3, 3).coeffs.shape == (2, 9, 3, 3)
    assert absppt.build_lmis(3, 7).coeffs.shape == (2, 21, 3, 3)
    big = absppt.build_lmis(4, 4)
    assert not big.exact and big.coeffs.shape == (1, 16, 2, 2)
    assert big is absppt.necessary_lmis(4, 4)


@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (1, 3), (4, 1)])
def test_necessary_lmis_is_empty_below_three_levels(dims):
    # every state on a 1 x n system is separable, and mn < 3 has no
    # lambda_{mn-2} for the 2x2 condition to read: the empty family, as
    # necessary_2x2 holds it true there, on the pure spectrum e_1 too, which
    # the 2x2 condition fails at (1, 3) and (4, 1)
    m, n = dims
    lmis = absppt.necessary_lmis(m, n)
    assert not lmis.exact and lmis.coeffs.shape == (0, m * n, 2, 2)
    pure = np.eye(m * n)[0]
    assert absppt.is_abs_ppt(Spectrum(m, n, pure)) is absppt.AbsPptVerdict.YES
    assert absppt.necessary_2x2(Spectrum(m, n, np.full(m * n, 1.0 / (m * n)))) is True
    assert absppt.necessary_2x2(Spectrum(m, n, pure)) is True


def test_lmi_2x2_equivalent_inequality():
    # L1 >= 0 on (2,2) iff lambda_1 <= lambda_3 + 2 sqrt(lambda_2 lambda_4)
    rng = np.random.default_rng(0)
    for _ in range(300):
        s = dirichlet_spectrum(rng, 2, 2)
        v = s.values
        direct = v[0] <= v[2] + 2.0 * np.sqrt(v[1] * v[3]) + 1e-12
        assert (absppt.is_abs_ppt(s) is AbsPptVerdict.YES) == direct


def test_lmi_2x3_equivalent_inequality():
    rng = np.random.default_rng(1)
    for _ in range(300):
        s = dirichlet_spectrum(rng, 2, 3)
        v = s.values
        direct = v[0] <= v[4] + 2.0 * np.sqrt(v[3] * v[5]) + 1e-12
        assert (absppt.is_abs_ppt(s) is AbsPptVerdict.YES) == direct


def literal_lmis(lam, q):
    """The LMIs of a 1-indexed spectrum lam of length N = mn, transcribed entry
    by entry: the 2x2 condition for q = 2, the two 3x3 LMIs for q = 3."""
    N = lam.size - 1
    if q == 2:
        return np.array([[[2 * lam[N], lam[N - 1] - lam[1]], [lam[N - 1] - lam[1], 2 * lam[N - 2]]]])
    l1 = [
        [2 * lam[N], lam[N - 1] - lam[1], lam[N - 3] - lam[2]],
        [lam[N - 1] - lam[1], 2 * lam[N - 2], lam[N - 4] - lam[3]],
        [lam[N - 3] - lam[2], lam[N - 4] - lam[3], 2 * lam[N - 5]],
    ]
    l2 = [
        [2 * lam[N], lam[N - 1] - lam[1], lam[N - 2] - lam[2]],
        [lam[N - 1] - lam[1], 2 * lam[N - 3], lam[N - 4] - lam[3]],
        [lam[N - 2] - lam[2], lam[N - 4] - lam[3], 2 * lam[N - 5]],
    ]
    return np.array([l1, l2])


def test_lmi_3x3_matches_literal_transcription():
    # the name is the first shape it pinned; the stacked evaluate of every
    # family, and the necessary-only set of (4,4), match the transcription bit for bit
    rng = np.random.default_rng(2)
    for (m, n), q in (((3, 3), 3), ((2, 2), 2), ((2, 3), 2), ((3, 4), 3), ((4, 4), 2)):
        for _ in range(5):
            s = dirichlet_spectrum(rng, m, n)
            lam = np.concatenate([[np.nan], s.values])  # 1-indexed view
            assert np.array_equal(absppt.build_lmis(m, n).evaluate(s.values), literal_lmis(lam, q))
    lam = np.concatenate([[np.nan], dirichlet_spectrum(rng, 3, 3).values])
    assert np.array_equal(absppt.necessary_lmis(3, 3).evaluate(lam[1:]), literal_lmis(lam, 2))
    assert absppt.build_lmis(1, 3).evaluate(np.full(3, 1.0 / 3.0)).shape == (0, 1, 1)


def test_is_abs_ppt_uniform():
    for m, n in ((2, 2), (2, 4), (3, 3), (3, 5)):
        s = Spectrum(m, n, np.full(m * n, 1.0 / (m * n)))
        assert absppt.is_abs_ppt(s) is AbsPptVerdict.YES


def test_is_abs_ppt_isotropic_past_threshold():
    from abssep.families import isotropic_spectrum

    s = isotropic_spectrum(3, 2.0 / 11.0 + 1e-3)
    assert absppt.is_abs_ppt(s) is AbsPptVerdict.NO


def test_is_abs_ppt_upb_boundary():
    from abssep.families import UPB_ABS_PPT_THRESHOLD, upb_spectrum

    assert absppt.is_abs_ppt(upb_spectrum(UPB_ABS_PPT_THRESHOLD)) is AbsPptVerdict.YES


def test_is_abs_ppt_necessary_only_for_large_dims():
    s = Spectrum(4, 4, np.full(16, 1.0 / 16.0))
    assert absppt.is_abs_ppt(s) is AbsPptVerdict.NECESSARY_PASSED_ONLY


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4)])
def test_lmi_verdict_holds_an_lmi_at_minus_tol(dims):
    # the edge is exact: a least LMI eigenvalue of exactly -LMI_PSD_TOL passes,
    # the float just below it fails; where the LMIs are not exact, passing
    # them reads NecessaryPassedOnly
    s = Spectrum(*dims, np.full(dims[0] * dims[1], 1.0 / (dims[0] * dims[1])))
    passed = AbsPptVerdict.YES if dims != (4, 4) else AbsPptVerdict.NECESSARY_PASSED_ONLY
    edge = -absppt.LMI_PSD_TOL
    assert absppt.lmi_verdict(s, np.array([edge])) is passed
    assert absppt.lmi_verdict(s, np.array([0.5, edge])) is passed
    assert absppt.lmi_verdict(s, np.array([np.nextafter(edge, -1.0)])) is AbsPptVerdict.NO
    assert absppt.lmi_verdict(s, np.array([0.5, np.nextafter(edge, -1.0)])) is AbsPptVerdict.NO


@pytest.mark.parametrize("factor, passed", [(0.9, True), (1.1, False)])
def test_lmi_psd_tol_is_pinned_from_both_sides(factor, passed):
    # the allowance on a least LMI eigenvalue is 1e-10, stated here and not
    # read from LMI_PSD_TOL: 0.9 of it below 0 passes, 1.1 of it fails
    s = Spectrum(3, 3, np.full(9, 1.0 / 9.0))
    verdict = absppt.lmi_verdict(s, np.array([0.5, -factor * 1e-10]))
    assert verdict is (AbsPptVerdict.YES if passed else AbsPptVerdict.NO)


def test_yes_implies_necessary_2x2():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = absppt.sample_abs_ppt_spectrum(3, 3, rng)
        assert absppt.necessary_2x2(s)


def test_necessary_2x2_examples():
    s = Spectrum(3, 3, np.full(9, 1.0 / 9.0))
    assert absppt.necessary_2x2(s)
    # lambda_mn = 0 with lambda_1 > lambda_{mn-1} fails
    vals = np.array([0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.0])
    assert not absppt.necessary_2x2(Spectrum(3, 3, vals))
    # rank-(mn-1) projector spectrum passes (zero off-diagonal)
    proj = np.concatenate([np.full(8, 1.0 / 8.0), [0.0]])
    assert absppt.necessary_2x2(Spectrum(3, 3, proj))


def test_soundness_against_partial_transpose_orbits():
    # Yes on (3,3) implies the partial transpose stays PSD on Haar orbits
    rng = bipartite.rng_stream(11)
    for trial in range(3):
        s = absppt.sample_abs_ppt_spectrum(3, 3, rng)
        assert absppt.is_abs_ppt(s) is AbsPptVerdict.YES
        for _ in range(100):
            u = bipartite.haar_unitary(9, rng)
            rho = (u * s.values) @ u.conj().T
            pt = bipartite.partial_transpose(rho, 3, 3)
            assert matcore.is_psd(pt, tol=1e-9)


def test_gurvits_barnum_examples():
    assert absppt.gurvits_barnum_abs_sep(np.eye(9) / 9.0, 3, 3)
    # Werner-form X = I - alpha S certified exactly up to |alpha| = 1/n
    for n in (2, 3, 4):
        s = bipartite.swap_operator(n)
        x = np.eye(n * n) - (1.0 / n) * s
        assert absppt.gurvits_barnum_abs_sep(x, n, n)
        assert np.isclose(absppt.gurvits_barnum_value(x, n, n), 1.0, atol=1e-12)
        x_bad = np.eye(n * n) - (1.2 / n) * s
        assert not absppt.gurvits_barnum_abs_sep(x_bad, n, n)


def test_gurvits_barnum_upb_boundary():
    from abssep.families import UPB_ABS_SEP_THRESHOLD, upb_state

    x = 8.0 * upb_state(UPB_ABS_SEP_THRESHOLD)
    assert np.isclose(np.linalg.norm(x - np.eye(9)) ** 2, 1.0, atol=1e-10)
    assert absppt.gurvits_barnum_abs_sep(x, 3, 3)


def test_gurvits_barnum_scale_invariance():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((9, 9))
    x = np.eye(9) + 0.05 * (g + g.T)
    v1 = absppt.gurvits_barnum_value(x, 3, 3)
    v2 = absppt.gurvits_barnum_value(7.3 * x, 3, 3)
    assert np.isclose(v1, v2, atol=1e-12)


def test_gurvits_barnum_implies_abs_ppt():
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(200):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        h = (g + g.conj().T) / 2
        x = np.eye(9) + 0.4 * h / np.linalg.norm(h)
        if absppt.gurvits_barnum_abs_sep(x, 3, 3):
            hits += 1
            s = Spectrum(3, 3, matcore.eigvalsh(x / np.trace(x).real))
            assert absppt.is_abs_ppt(s) is AbsPptVerdict.YES
    assert hits > 0


def test_gurvits_barnum_rejects_nonpositive_trace():
    with pytest.raises(InvalidState):
        absppt.gurvits_barnum_value(-np.eye(9), 3, 3)


def test_rank_deficient_classification():
    proj = Spectrum(3, 3, np.concatenate([np.full(8, 1.0 / 8.0), [0.0]]))
    assert absppt.rank_deficient_classification(proj) is RankVerdict.ABSOLUTELY_SEPARABLE
    full = Spectrum(3, 3, np.full(9, 1.0 / 9.0))
    assert absppt.rank_deficient_classification(full) is RankVerdict.FULL_RANK_REQUIRED
    bad = Spectrum(3, 3, [0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.0])
    with pytest.raises(InvalidState):
        absppt.rank_deficient_classification(bad)
    # on 1 x 3 every spectrum is absolutely separable, the pure one too
    pure = Spectrum(1, 3, [1.0, 0.0, 0.0])
    assert absppt.rank_deficient_classification(pure) is RankVerdict.ABSOLUTELY_SEPARABLE


def test_sampler_outputs_pass_independent_lmi_check():
    # re-check sampled spectra through a literal LMI evaluation with the
    # numpy eigensolver as an independent oracle
    rng = bipartite.rng_stream(21)
    for _ in range(1000):
        s = absppt.sample_abs_ppt_spectrum(3, 3, rng)
        assert absppt.is_abs_ppt(s) is AbsPptVerdict.YES
        lam = np.concatenate([[np.nan], s.values])
        l1 = np.array(
            [
                [2 * lam[9], lam[8] - lam[1], lam[6] - lam[2]],
                [lam[8] - lam[1], 2 * lam[7], lam[5] - lam[3]],
                [lam[6] - lam[2], lam[5] - lam[3], 2 * lam[4]],
            ]
        )
        l2 = np.array(
            [
                [2 * lam[9], lam[8] - lam[1], lam[7] - lam[2]],
                [lam[8] - lam[1], 2 * lam[6], lam[5] - lam[3]],
                [lam[7] - lam[2], lam[5] - lam[3], 2 * lam[4]],
            ]
        )
        assert np.linalg.eigvalsh(l1)[0] >= -1e-10
        assert np.linalg.eigvalsh(l2)[0] >= -1e-10


def test_sampler_reaches_uniform_and_requires_small_dims():
    rng = bipartite.rng_stream(31)
    samples = [absppt.sample_abs_ppt_spectrum(3, 3, rng) for _ in range(50)]
    dists = [np.linalg.norm(s.values - 1.0 / 9.0) for s in samples]
    assert min(dists) < 0.05  # mixes all the way down to uniform
    with pytest.raises(Unsupported):
        absppt.sample_abs_ppt_spectrum(4, 4, 0)


def bisection_sample(m, n, rng, tol=absppt.LMI_PSD_TOL):
    """The sampler as a 60-step bisection on the mixing weight.

    Returns (beta_ok, beta, draw), consuming the generator as the sampler does.
    """
    total = m * n
    uniform = np.full(total, 1.0 / total)
    draw = np.sort(rng.dirichlet(np.ones(total)))[::-1]
    lmis = absppt.build_lmis(m, n)

    def passes(beta):
        mix = (1.0 - beta) * uniform + beta * draw
        return all(np.linalg.eigvalsh(lmis.evaluate(mix))[:, 0] >= -tol)

    lo, hi = 0.0, 1.0
    if passes(1.0):
        lo = 1.0
    else:
        for _ in range(60):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return lo, rng.uniform(0.0, lo), draw


def test_closed_form_sampler_matches_bisection():
    capped = 0
    for m, n in [(2, 2), (2, 3), (3, 3), (3, 4), (2, 5)]:
        total = m * n
        uniform = np.full(total, 1.0 / total)
        rng = np.random.default_rng(100 + total)
        ref_rng = np.random.default_rng(100 + total)
        for _ in range(200):
            s = absppt.sample_abs_ppt_spectrum(m, n, rng)
            beta_ok, beta, draw = bisection_sample(m, n, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert absppt.is_abs_ppt(s) is AbsPptVerdict.YES
            # the same draw and the same uniform variate, so beta scales with beta_ok
            step = draw - uniform
            drawn_beta = float(np.dot(s.values - uniform, step) / np.dot(step, step))
            assert abs(drawn_beta * beta_ok / beta - beta_ok) <= 1e-12
            capped += beta_ok == 1.0
    assert 0 < capped < 1000  # draws that pass outright and draws that need mixing


def test_spectrum_validation_and_json():
    with pytest.raises(InvalidState):
        Spectrum(3, 3, np.full(8, 1.0 / 8.0))
    with pytest.raises(InvalidState):
        Spectrum(2, 2, [0.5, 0.5, 0.2, -0.2])
    with pytest.raises(InvalidState):
        Spectrum(2, 2, [0.3, 0.3, 0.3, 0.3])
    s = Spectrum(2, 3, [0.3, 0.3, 0.1, 0.1, 0.1, 0.1])
    back = Spectrum.from_json(s.to_json())
    assert back.m == 2 and back.n == 3
    assert np.array_equal(back.values, s.values)
    # 1e400 parses as inf; a dimension must be an integer, not truncated to
    # one, and a JSON number, not true or "1", which int() reads as 1
    for m in (math.inf, math.nan, 1.5, True, "1"):
        with pytest.raises(InvalidState, match="malformed"):
            Spectrum.from_json({"m": m, "n": 1, "values": [1.0]})
        with pytest.raises(InvalidState, match="malformed"):
            Spectrum.from_json({"m": 1, "n": m, "values": [1.0]})
    # tiny negatives clamp to zero
    s2 = Spectrum(2, 2, [0.5, 0.3, 0.2 + 1e-13, -1e-13])
    assert s2.values[-1] == 0.0


def test_spectrum_from_state():
    rng = np.random.default_rng(6)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    s = Spectrum.from_state(rho, 3, 3)
    assert np.allclose(s.values, np.linalg.eigvalsh(rho)[::-1], atol=1e-10)


def _gb_operator(value: float) -> np.ndarray:
    """A diagonal (2, 2) operator whose gurvits_barnum_value is value: 1 + a u
    with u a unit vector orthogonal to the ones, a² = d v² / (d - v²)."""
    u = np.array([3.0, -1.0, -1.0, -1.0]) / math.sqrt(12.0)
    return np.diag(1.0 + math.sqrt(4.0 * value**2 / (4.0 - value**2)) * u)


# (what, the tolerance's value, a call at a multiple x of it that returns
# whether the input is accepted): SPECTRUM_CLAMP_TOL, SPECTRUM_SUM_TOL,
# GB_RADIUS_SLACK and RANK_ZERO_TOL each accept at 0.9 of the value and refuse
# at 1.1, so loosening or tightening one tenfold fails a side. The values are
# literals, so that the inputs do not move with the constants
TOLERANCE_BOUNDARIES = [
    ("clamp", 1e-12, lambda x: Spectrum(2, 2, [0.4, 0.3, 0.3 + x, -x]).values[-1] == 0.0),
    ("sum", 1e-10, lambda x: Spectrum(2, 2, [0.4 + x, 0.3, 0.2, 0.1]).values[0] == 0.4 + x),
    ("gurvits-barnum", 1e-12,
     lambda x: absppt.gurvits_barnum_abs_sep(_gb_operator(1.0 + x), 2, 2)),
    ("rank", 1e-12,
     lambda x: absppt.rank_deficient_classification(
         Spectrum(2, 2, [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0 - x, x]))
     is RankVerdict.ABSOLUTELY_SEPARABLE),
]


@pytest.mark.parametrize("what, tol, accepts", TOLERANCE_BOUNDARIES,
                         ids=[t[0] for t in TOLERANCE_BOUNDARIES])
def test_named_tolerances_hold_their_boundary(what, tol, accepts):
    assert accepts(0.9 * tol)
    try:
        refused = not accepts(1.1 * tol)
    except InvalidState:  # the spectrum checks refuse by raising
        refused = True
    assert refused


def test_gb_operator_lands_on_its_value():
    # the gurvits-barnum boundary inputs sit where they are meant to, well
    # within the 0.1 tol margin of the test above
    for value in (1.0 + 0.9e-12, 1.0 + 1.1e-12):
        assert abs(absppt.gurvits_barnum_value(_gb_operator(value), 2, 2) - value) <= 2e-14
