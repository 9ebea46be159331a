"""Output checks for the benchmark, written apart from the program.

Every checker uses only numpy and the closed forms of the paper
(arXiv:1405.5853) and of the works it cites; none imports abssep. A
checker raises CheckFailed naming the first property that does not hold,
and otherwise returns the number of work items it checked.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

R2 = math.sqrt(2.0)
SPLIT_LOW = -1.0 / (2.0 * R2)
SPLIT_HIGH = (1.0 - R2) / 2.0
UPB_ABS_PPT = 9.0 * (10.0 - math.sqrt(17.0)) / 83.0
UPB_ABS_SEP = 1.0 - 1.0 / math.sqrt(10.0)

LMI_TOL = 1e-10        # sampled spectra must clear the LMIs by this much
CERT_TOL = 1e-12       # analytic certificate values against closed forms
CSV_TOL = 1e-11        # CSV output carries 12 significant digits
ORBIT_TOL = 1e-8       # the orbit-scan violation tolerance
# the A†A singular-value route over-reports trace norms by up to ~4e-8
# on pure states, so the negative control's upper bound gets this slack
TRACE_NORM_BIAS = 1e-7


class CheckFailed(AssertionError):
    """An output of the program does not have a property it must have."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def near(value, expected, tol: float, what: str) -> None:
    require(
        value is not None and abs(float(value) - float(expected)) <= tol,
        f"{what}: {value!r} differs from {expected!r} by more than {tol:g}",
    )


# ----------------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------------


def threshold(x: float) -> float:
    """The paper's witness threshold curve f on [-1/2, 0]."""
    if x <= SPLIT_LOW:
        return (math.sqrt(max(0.0, 1.0 - 4.0 * x * x)) - 2.0 * x + 1.0) / 4.0
    if x < SPLIT_HIGH:
        return (1.0 + R2) / 4.0
    return (math.sqrt(max(0.0, 1.0 + 4.0 * x - 4.0 * x * x)) - 2.0 * x + 3.0) / 4.0


def extremal_witness(ell: float, mu1: float, mn: int) -> np.ndarray:
    """(mu1, mu2, mu3, 0, ..., 0, ell), the worst witness spectrum for (ell, mu1)."""
    out = np.zeros(mn)
    out[0] = mu1
    out[1] = min(mu1, 1.0 - mu1 - ell)
    out[2] = max(0.0, 1.0 - 2.0 * mu1 - ell)
    out[-1] = ell
    return out


def hildebrand_lmis(values, m: int, n: int) -> list[np.ndarray]:
    """Hildebrand's (2007) LMIs in the descending spectrum.

    Exact for min{m,n} <= 3; for larger dimensions only the universal 2x2
    condition is returned.
    """
    lam = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    t = lam.size

    def at(k):  # 1-based position in the descending spectrum
        return lam[k - 1]

    if min(m, n) == 1:
        return []
    if min(m, n) != 3:
        return [np.array([[2 * at(t), at(t - 1) - at(1)], [at(t - 1) - at(1), 2 * at(t - 2)]])]
    l1 = np.array(
        [
            [2 * at(t), at(t - 1) - at(1), at(t - 3) - at(2)],
            [at(t - 1) - at(1), 2 * at(t - 2), at(t - 4) - at(3)],
            [at(t - 3) - at(2), at(t - 4) - at(3), 2 * at(t - 5)],
        ]
    )
    l2 = np.array(
        [
            [2 * at(t), at(t - 1) - at(1), at(t - 2) - at(2)],
            [at(t - 1) - at(1), 2 * at(t - 3), at(t - 4) - at(3)],
            [at(t - 2) - at(2), at(t - 4) - at(3), 2 * at(t - 5)],
        ]
    )
    return [l1, l2]


def lmi_min_eig(values, m: int, n: int) -> float:
    mats = hildebrand_lmis(values, m, n)
    return min((float(np.linalg.eigvalsh(a)[0]) for a in mats), default=math.inf)


def werner_spectrum(n: int, alpha: float) -> np.ndarray:
    norm = n * n - n * alpha
    return np.concatenate(
        [np.full(n * (n + 1) // 2, (1.0 - alpha) / norm), np.full(n * (n - 1) // 2, (1.0 + alpha) / norm)]
    )


def isotropic_spectrum(n: int, alpha: float) -> np.ndarray:
    vals = np.full(n * n, (1.0 - alpha) / (n * n))
    vals[0] += alpha
    return vals


def upb_spectrum(p: float) -> np.ndarray:
    return np.concatenate([np.full(5, p / 9.0), np.full(4, (9.0 - 5.0 * p) / 36.0)])


def gen_choi_apply(b: float, c: float, x: np.ndarray) -> np.ndarray:
    """The generalized Choi map Phi_{b,c} with a = 2 - b - c, trace-preserving."""
    a = 2.0 - b - c
    d = np.real(np.diagonal(x))
    out = -x.astype(np.complex128)
    out[np.diag_indices(3)] = [
        a * d[0] + b * d[1] + c * d[2],
        c * d[0] + a * d[1] + b * d[2],
        b * d[0] + c * d[1] + a * d[2],
    ]
    return out / 2.0


def gen_choi_choi_matrix(b: float, c: float) -> np.ndarray:
    """J(Phi_{b,c}) = sum_ij |i><j| ⊗ Phi_{b,c}(|i><j|)."""
    j = np.zeros((9, 9), dtype=np.complex128)
    for r in range(3):
        for s in range(3):
            e = np.zeros((3, 3))
            e[r, s] = 1.0
            j[3 * r:3 * r + 3, 3 * s:3 * s + 3] = gen_choi_apply(b, c, e)
    return j


def max_eig_closed_form(b: float, c: float) -> float | None:
    """Max-eigenvalue bound for the dual of Phi_{b,c}; None where b+c < 2/3."""
    if 2.0 * b + c >= 3.0 or b + 2.0 * c >= 3.0:
        return max(b, c) / 2.0
    if b + c >= 2.0 / 3.0:
        return (b * b + c * c - 6.0 * (b + c) + b * c + 9.0) / (6.0 * (2.0 - b - c))
    return None


def max_eig_certificate_value(b: float, c: float) -> float:
    """lambda_max(Y^Γ + J) for the paper's certificate Y of the dual of Phi_{b,c}."""
    y = np.zeros((9, 9))
    if not (2.0 * b + c >= 3.0 or b + 2.0 * c >= 3.0):
        den = 6.0 * (2.0 - b - c)
        x, yv = (3.0 - 2.0 * b - c) ** 2 / den, (3.0 - b - 2.0 * c) ** 2 / den
        for k in (1, 5, 6):
            y[k, k] = x
        for k in (2, 3, 7):
            y[k, k] = yv
        for r, s in ((1, 3), (2, 6), (5, 7)):
            y[r, s] = y[s, r] = math.sqrt(x * yv)
    require(np.linalg.eigvalsh(y)[0] >= -1e-12, "certificate Y is not PSD")
    y_pt = y.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
    return float(np.linalg.eigvalsh(y_pt + gen_choi_choi_matrix(c, b))[-1])


# ----------------------------------------------------------------------------
# orbit workload
# ----------------------------------------------------------------------------


def check_spectrum_values(values, m: int, n: int) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    require(v.shape == (m * n,), f"spectrum has {v.size} entries, expected {m * n}")
    require(np.all(np.isfinite(v)) and np.all(v >= 0.0), "spectrum has a negative or non-finite entry")
    require(np.all(np.diff(v) <= 0.0), "spectrum is not sorted descending")
    near(np.sum(v), 1.0, 1e-10, "spectrum sum")
    return v


def check_sampled_spectrum(values, m: int, n: int) -> int:
    """A sampler draw must pass the absolute-PPT LMIs."""
    v = check_spectrum_values(values, m, n)
    lam = lmi_min_eig(v, m, n)
    require(lam >= -LMI_TOL, f"sampled spectrum fails the absolute-PPT LMIs (min eig {lam:.3e})")
    return 0


def check_orbit_report(code: int, report: dict, *, criterion: str, values, m: int, n: int,
                       samples: int, seed: int, expect_violation: bool) -> int:
    """orbit-scan output: verdict flag, exit code and the bounds every orbit obeys."""
    v = np.asarray(values, dtype=np.float64)
    require(report.get("criterion") == criterion, f"criterion {report.get('criterion')!r}")
    require(report.get("samples") == samples, f"samples {report.get('samples')!r} != {samples}")
    require(report.get("seed") == seed, f"seed {report.get('seed')!r} != {seed}")
    viol = report.get("max_violation")
    require(isinstance(viol, float) and math.isfinite(viol), f"max_violation {viol!r}")
    if criterion == "realignment":
        # ||R(rho)||_1 >= ||R(rho)||_F = ||rho||_F = ||lambda||_2
        floor = float(np.linalg.norm(v)) - 1.0
        require(viol >= floor - 1e-12, f"realignment violation {viol:.6g} below ||lambda||_2 - 1 = {floor:.6g}")
    else:
        # trace-preserving maps keep unit trace, so lambda_min <= 1/(mn)
        require(viol >= -1.0 / (m * n) - 1e-12, f"map violation {viol:.6g} below -1/(mn)")
    if expect_violation:
        require(code == 2, f"negative control exited {code}, expected 2")
        require(report.get("violated") is True, "negative control not reported as violated")
        top = min(m, n) - 1.0 + TRACE_NORM_BIAS
        require(0.0 < viol <= top, f"negative-control violation {viol:.6g} outside (0, {top:.6g}]")
    else:
        require(code == 0, f"orbit-scan exited {code}, expected 0")
        require(report.get("violated") is False, "absolutely PPT spectrum reported as violated")
        require(viol <= ORBIT_TOL, f"max_violation {viol:.3e} above the tolerance")
    return samples


# ----------------------------------------------------------------------------
# certify workload
# ----------------------------------------------------------------------------


WITNESS_ELLS = (-0.5, -0.4, SPLIT_LOW, -0.3, SPLIT_HIGH, -1.0 / 6.0, -0.2, 0.0)


def grid_axis(grid_n: int) -> list[float]:
    return [float(x) for x in np.linspace(0.0, 4.0 / 3.0, grid_n)]


def expected_certificates(grid_n: int, bh_dims) -> list[tuple[str, str, float | None, tuple]]:
    """(row name, kind, closed-form value or None, parameters) in output order."""
    rows = [(f"witness-dual ell={ell:.6g}", "witness", None, ()) for ell in WITNESS_ELLS]
    # the Choi map is Phi_{1,0}; its dual is certified with (b, c) = (1, 0)
    rows.append(("diamond choi-dual", "diamond", 4.0 / 3.0, (1.0, 0.0)))
    rows.append(("max-eig choi-dual", "max-eig", max_eig_closed_form(1.0, 0.0), (1.0, 0.0)))
    axis = grid_axis(grid_n)
    for b in axis:
        for c in axis:
            if b + c > 3.0:
                continue
            rows.append((f"diamond gen-choi({b:.6g},{c:.6g})", "diamond", (3.0 + b + c) / 3.0, (b, c)))
            rows.append((f"max-eig gen-choi({b:.6g},{c:.6g})", "max-eig", max_eig_closed_form(b, c), (b, c)))
    for n in bh_dims:
        rows.append((f"diamond breuer-hall n={n}", "diamond", (n + 2.0) / n, (n,)))
        rows.append((f"max-eig breuer-hall n={n}", "max-eig", 1.0 / (n - 2.0), (n,)))
    return rows


def check_certificates(code: int, rows: list, grid_n: int, bh_dims) -> int:
    """verify-certificates --format json: every row present, ok and equal to its closed form.

    The witness-dual rows always print value = expected = 0, so only their
    status is checked.
    """
    require(code == 0, f"verify-certificates exited {code}, expected 0")
    expected = expected_certificates(grid_n, bh_dims)
    require(len(rows) == len(expected), f"{len(rows)} certificate rows, expected {len(expected)}")
    for row, (name, kind, closed, params) in zip(rows, expected):
        require(row.get("name") == name, f"row {row.get('name')!r} where {name!r} was expected")
        require(row.get("status") == "ok", f"{name}: status {row.get('status')!r}")
        if kind == "witness":
            continue
        value = row.get("value")
        if closed is None:
            # b + c < 2/3: no closed form; recompute the certificate's value
            closed = max_eig_certificate_value(*params)
        elif kind == "max-eig" and len(params) == 2:
            near(value, max_eig_certificate_value(*params), 1e-10, f"{name} against lambda_max(Y^Γ + J)")
        near(value, closed, CERT_TOL, name)
        near(row.get("expected"), closed, CERT_TOL, f"{name} expected")
    return len(rows)


def parse_csv(text: str, header: list[str]) -> list[list[str]]:
    require(text.endswith("\n") and "\r" not in text, "CSV is not LF-terminated")
    rows = list(csv.reader(io.StringIO(text)))
    require(rows and rows[0] == header, f"CSV header {rows[0] if rows else None!r}, expected {header!r}")
    return rows[1:]


def check_f_curve(code: int, text: str) -> int:
    """Threshold curve: equals f on every row, never decreases, hits the special values."""
    require(code == 0, f"fig-data f_curve exited {code}")
    rows = parse_csv(text, ["ell", "mu1_bound", "label"])
    curve = [(float(r[0]), float(r[1])) for r in rows if r[2] == ""]
    labeled = {r[2]: (float(r[0]), float(r[1])) for r in rows if r[2] != ""}
    xs = np.linspace(-0.5, 0.0, 1001)
    require(len(curve) == xs.size, f"{len(curve)} curve rows, expected {xs.size}")
    for (ell, mu), x in zip(curve, xs):
        near(ell, x, CSV_TOL, "curve abscissa")
        near(mu, threshold(float(x)), CSV_TOL, f"f({x:.6g})")
    mus = [mu for _, mu in curve]
    require(all(b >= a for a, b in zip(mus, mus[1:])), "threshold curve decreases")
    special = {
        "i": (-0.5, 0.5),
        "ii": (-0.4, 0.6),
        "iii": (SPLIT_LOW, (1.0 + R2) / 4.0),
        "iv": (SPLIT_HIGH, (1.0 + R2) / 4.0),
        "v": (SPLIT_HIGH, (2.0 + R2) / 4.0),
        "vi": (-0.2, 0.9),
        "vii": (0.0, 1.0),
    }
    require(sorted(labeled) == sorted(special), f"labeled points {sorted(labeled)!r}")
    for label, (ell, mu) in special.items():
        near(labeled[label][0], ell, CSV_TOL, f"point {label} abscissa")
        near(labeled[label][1], mu, CSV_TOL, f"point {label}")
    for x, mu in ((-0.5, 0.5), (-0.4, 0.6), (-0.2, 0.9), (0.0, 1.0)):
        k = int(round((x + 0.5) / 0.0005))
        near(curve[k][1], mu, CSV_TOL, f"curve at {x}")
    return len(rows)


def check_phi_bc_region(code: int, text: str, grid_n: int) -> int:
    """Positivity of Phi_{b,c}: b + c <= 1 or bc >= (b + c - 1)²."""
    require(code == 0, f"fig-data phi_bc_region exited {code}")
    rows = parse_csv(text, ["b", "c", "positive", "indecomposable", "exposed", "hull_member"])
    axis = grid_axis(grid_n)
    require(len(rows) == grid_n * grid_n, f"{len(rows)} rows, expected {grid_n * grid_n}")
    band = 1e-9  # points this close to the boundary may go either way
    for k, row in enumerate(rows):
        b, c = axis[k // grid_n], axis[k % grid_n]
        near(float(row[0]), b, CSV_TOL, "b")
        near(float(row[1]), c, CSV_TOL, "c")
        margin = max(1.0 - (b + c), b * c - (b + c - 1.0) ** 2)
        if abs(margin) > band:
            require(row[2] == ("1" if margin > 0 else "0"), f"positive={row[2]} at ({b:.6g},{c:.6g})")
    return len(rows)


def check_gen_choi_ub(code: int, text: str, grid_n: int) -> int:
    """Case-1 and case-2 rows carry max(b,c)/2 and the case-2 formula.

    Rows with b + c < 2/3 print NaN although a verified certificate bound
    exists there, so they are not counted as checked items.
    """
    require(code == 0, f"fig-data gen_choi_ub exited {code}")
    rows = parse_csv(text, ["b", "c", "case", "mu1_bound"])
    axis = grid_axis(grid_n)
    require(len(rows) == grid_n * grid_n, f"{len(rows)} rows, expected {grid_n * grid_n}")
    checked = 0
    for k, row in enumerate(rows):
        b, c = axis[k // grid_n], axis[k % grid_n]
        near(float(row[0]), b, CSV_TOL, "b")
        near(float(row[1]), c, CSV_TOL, "c")
        case = row[2]
        if 2.0 * b + c >= 3.0 + 1e-12 or b + 2.0 * c >= 3.0 + 1e-12:
            require(case == "1", f"case {case} at ({b:.6g},{c:.6g}), expected 1")
        elif abs(2.0 * b + c - 3.0) <= 1e-12 or abs(b + 2.0 * c - 3.0) <= 1e-12:
            require(case in ("1", "2"), f"case {case} on the case-1 boundary")
        elif b + c >= 2.0 / 3.0 + 1e-12:
            require(case == "2", f"case {case} at ({b:.6g},{c:.6g}), expected 2")
        elif b + c > 2.0 / 3.0 - 1e-12:
            require(case in ("0", "2"), f"case {case} on the case-2 boundary")
        else:
            require(case == "0", f"case {case} at ({b:.6g},{c:.6g}), expected 0")
        if case == "1":
            near(float(row[3]), max(b, c) / 2.0, CSV_TOL, f"case-1 bound at ({b:.6g},{c:.6g})")
            checked += 1
        elif case == "2":
            bound = (b * b + c * c - 6.0 * (b + c) + b * c + 9.0) / (6.0 * (2.0 - b - c))
            near(float(row[3]), bound, CSV_TOL, f"case-2 bound at ({b:.6g},{c:.6g})")
            checked += 1
    return checked


def check_upb_interval(code: int, text: str, samples: int) -> int:
    """abs_ppt flips once, at 9(10 - sqrt 17)/83; the LMI value and class agree."""
    require(code == 0, f"fig-data upb_interval exited {code}")
    rows = parse_csv(text, ["p", "lmi_min_eig", "abs_ppt", "classification"])
    ps = np.linspace(0.5, 0.8, samples)
    require(len(rows) == samples, f"{len(rows)} rows, expected {samples}")
    flags = []
    for row, p in zip(rows, ps):
        p = float(p)
        near(float(row[0]), p, CSV_TOL, "p")
        near(float(row[1]), lmi_min_eig(upb_spectrum(p), 3, 3), CSV_TOL, f"LMI value at p={p:.6g}")
        flags.append(row[2])
        if p < UPB_ABS_PPT - 1e-12:
            cls = "NotAbsPPT"
        elif p >= UPB_ABS_SEP - 1e-12:
            cls = "AbsPPT_and_AbsSep"
        else:
            cls = "AbsPPT_only_known"
        require(row[3] == cls, f"class {row[3]} at p={p:.6g}, expected {cls}")
    flips = [k for k in range(1, len(flags)) if flags[k] != flags[k - 1]]
    require(len(flips) == 1, f"abs_ppt flips {len(flips)} times, expected once")
    k = flips[0]
    require(flags[k - 1] == "0" and flags[k] == "1", "abs_ppt flips the wrong way")
    require(ps[k - 1] < UPB_ABS_PPT <= ps[k], f"abs_ppt flips at p={ps[k]:.6g}, not at 9(10-sqrt17)/83")
    return len(rows)


def check_spectrum_verdict(code: int, report: dict, values, m: int, n: int) -> int:
    """check-spectrum: the verdict and LMI value agree with the LMIs evaluated here."""
    lam = lmi_min_eig(values, m, n)
    require(abs(lam) > 1e-8, "input spectrum sits on the LMI boundary")
    want = "Yes" if lam > 0 else "No"
    require(report.get("verdict") == want, f"verdict {report.get('verdict')!r}, expected {want!r}")
    require(code == (0 if want == "Yes" else 2), f"check-spectrum exited {code} for verdict {want}")
    near(report.get("lmi_min_eigenvalue"), lam, 1e-12, "lmi_min_eigenvalue")
    require(report.get("dims") == [m, n], f"dims {report.get('dims')!r}")
    return 1


def werner_class(n: int, alpha: float) -> str:
    if abs(alpha) <= 1.0 / n:
        return "AbsSep"
    if alpha > 1.0 / n or alpha < -1.0 / (n - 1.0):
        return "NotAbsPPT"
    return "Unknown"


def check_family(code: int, report: dict, kind: str, n: int | None, param: float) -> int:
    """family: class against the closed-form thresholds, spectrum against its closed form."""
    require(code == 0, f"family exited {code}")
    require(report.get("family") == kind, f"family {report.get('family')!r}")
    if kind == "werner":
        spec = werner_spectrum(n, param)
        want = werner_class(n, param)
        case1 = np.full((n, n), -2.0 * param)
        np.fill_diagonal(case1, 2.0 - 2.0 * param)
        case2 = np.zeros((n, n))
        case2[: n - 1, : n - 1] = 2.0 * param
        np.fill_diagonal(case2, 2.0 + 2.0 * param)
        case2[n - 1, n - 1] = 2.0 - 2.0 * param
        mins = report.get("lmi_min_eigs") or [None, None]
        near(mins[0], np.linalg.eigvalsh(case1)[0], 1e-12, "Werner case-1 LMI")
        near(mins[1], np.linalg.eigvalsh(case2)[0], 1e-12, "Werner case-2 LMI")
    elif kind == "isotropic":
        spec = isotropic_spectrum(n, param)
        want = "AbsSep" if param <= 2.0 / (2.0 + n * n) else "NotAbsPPT"
        near(report.get("threshold"), 2.0 / (2.0 + n * n), 1e-15, "isotropic threshold")
    else:
        spec = upb_spectrum(param)
        if param < UPB_ABS_PPT:
            want = "NotAbsPPT"
        elif param >= UPB_ABS_SEP:
            want = "AbsPPT_and_AbsSep"
        else:
            want = "AbsPPT_only_known"
        near(report.get("abs_ppt_threshold"), UPB_ABS_PPT, 1e-15, "UPB absolute-PPT threshold")
        near(report.get("abs_sep_threshold"), UPB_ABS_SEP, 1e-15, "UPB absolute-separability threshold")
        near(report.get("lmi_min_eig"), lmi_min_eig(spec, 3, 3), 1e-12, "UPB LMI value")
    require(report.get("classification") == want,
            f"{kind} class {report.get('classification')!r}, expected {want!r}")
    got = np.asarray(report.get("spectrum") or [], dtype=np.float64)
    require(got.shape == spec.shape, "spectrum length")
    require(np.max(np.abs(got - np.sort(spec)[::-1])) <= 1e-12, f"{kind} spectrum differs from its closed form")
    return 1


# ----------------------------------------------------------------------------
# solve workload
# ----------------------------------------------------------------------------


def check_min_witness(sol, mu, m: int, n: int, mode: str) -> float:
    """The returned point is a feasible spectrum and attains the returned value."""
    x = np.asarray(sol.x, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    require(x.shape == (m * n,), "solution has the wrong length")
    require(math.isfinite(sol.gap) and 0.0 <= sol.gap <= 1e-8, f"gap {sol.gap!r} above the requested 1e-8")
    near(np.sum(x), 1.0, 1e-9, "solution trace")
    require(np.all(x >= -1e-12) and np.all(np.diff(x) <= 1e-12), "solution is not a sorted nonnegative spectrum")
    if mode == "full":
        lam = lmi_min_eig(x, m, n)
    else:
        lam = float(np.linalg.eigvalsh(hildebrand_lmis(x, 2, m * n // 2)[0])[0])
    require(lam >= -1e-9, f"solution violates the {mode} LMIs by {-lam:.3e}")
    near(sol.primal_value, float(np.dot(x, mu[::-1])), 1e-12, "objective at the returned point")
    return float(sol.primal_value)


def check_at_threshold(value: float) -> None:
    # weak duality with the paper's dual certificate: no absolutely PPT
    # spectrum is detected by a witness on the threshold curve
    require(value >= -1e-9, f"min-witness value {value:.3e} below -1e-9 at the threshold")


def check_sharp(value: float) -> None:
    require(value < -1e-4, f"min-witness value {value:.3e} not below -1e-4 above the threshold")


def check_relaxation(value: float, gap: float, full_value: float) -> None:
    """The 2x2 relaxation's optimum is at most the full optimum, itself at most the full value."""
    require(value <= full_value + gap,
            f"submatrix2x2 value {value:.9g} above the full value {full_value:.9g} plus its gap {gap:.2g}")


def check_max_eig_solve(sol, b: float, c: float) -> None:
    """The solver brackets the closed form; below b + c = 2/3 it stays under the certificate."""
    lower, upper = -sol.primal_value, -sol.dual_value
    require(0.0 <= sol.gap <= 1e-7 and upper >= lower, f"bracket [{lower:.9g}, {upper:.9g}]")
    closed = max_eig_closed_form(b, c)
    if closed is None:
        cert = max_eig_certificate_value(b, c)
        require(lower <= cert + 1e-9, f"max-eig value {lower:.9g} above the certificate {cert:.9g}")
    else:
        require(lower - 1e-9 <= closed <= upper + 1e-9,
                f"closed form {closed:.12g} outside the solver bracket [{lower:.12g}, {upper:.12g}]")


def check_diamond_solve(sol, expected: float) -> None:
    lower, upper = sol.primal_value - sol.gap, sol.primal_value
    require(0.0 <= sol.gap <= 1e-7, f"gap {sol.gap!r}")
    require(lower - 1e-9 <= expected <= upper + 1e-9,
            f"diamond closed form {expected:.12g} outside [{lower:.12g}, {upper:.12g}]")
