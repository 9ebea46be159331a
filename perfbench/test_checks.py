"""Tests of the benchmark's own parts: each checker accepts the program's
real output and rejects a corrupted copy of it.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

from abssep import absppt, cli, posmaps, sdpsolve  # noqa: E402


def cli_json(argv):
    code, text = workloads.run_cli(argv)
    return code, json.loads(text)


@pytest.fixture(scope="module")
def ball_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spectra") / "ball.json"
    values = workloads.gurvits_barnum_spectrum(3, 3, np.random.default_rng(0))
    workloads._write_spectrum(str(path), 3, 3, values)
    return str(path), values


def test_orbit_report_accepts_real_output_and_rejects_a_flipped_flag(ball_file):
    path, values = ball_file
    code, report = cli_json(["orbit-scan", path, "--criterion", "realignment", "--samples", "20", "--seed", "5"])
    kwargs = dict(criterion="realignment", values=values, m=3, n=3, samples=20, seed=5, expect_violation=False)
    assert checks.check_orbit_report(code, report, **kwargs) == 20
    flipped = dict(report, violated=True)
    with pytest.raises(CheckFailed, match="violated"):
        checks.check_orbit_report(code, flipped, **kwargs)
    with pytest.raises(CheckFailed, match="exited"):
        checks.check_orbit_report(2, report, **kwargs)
    below = dict(report, max_violation=float(np.linalg.norm(values)) - 1.0 - 1e-6)
    with pytest.raises(CheckFailed, match="below"):
        checks.check_orbit_report(code, below, **kwargs)


def test_map_criterion_floor(ball_file):
    path, values = ball_file
    code, report = cli_json(["orbit-scan", path, "--criterion", "choi", "--samples", "10", "--seed", "5"])
    kwargs = dict(criterion="choi", values=values, m=3, n=3, samples=10, seed=5, expect_violation=False)
    checks.check_orbit_report(code, report, **kwargs)
    with pytest.raises(CheckFailed, match="-1/\\(mn\\)"):
        checks.check_orbit_report(code, dict(report, max_violation=-0.2), **kwargs)


def test_negative_control_needs_exit_2(tmp_path):
    path = str(tmp_path / "pure.json")
    pure = np.zeros(9)
    pure[0] = 1.0
    workloads._write_spectrum(path, 3, 3, pure)
    code, report = cli_json(["orbit-scan", path, "--criterion", "realignment", "--samples", "10", "--seed", "3"])
    kwargs = dict(criterion="realignment", values=pure, m=3, n=3, samples=10, seed=3, expect_violation=True)
    checks.check_orbit_report(code, report, **kwargs)
    with pytest.raises(CheckFailed, match="expected 2"):
        checks.check_orbit_report(0, report, **kwargs)
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_orbit_report(code, dict(report, max_violation=2.5), **kwargs)


def test_sampled_spectrum_lmis():
    spec = absppt.sample_abs_ppt_spectrum(3, 3, 11)
    checks.check_sampled_spectrum(spec.values, 3, 3)
    with pytest.raises(CheckFailed, match="LMIs"):
        checks.check_sampled_spectrum(checks.isotropic_spectrum(3, 0.5), 3, 3)


def test_lmis_match_the_isotropic_threshold():
    t = 2.0 / 11.0
    assert checks.lmi_min_eig(checks.isotropic_spectrum(3, t - 1e-3), 3, 3) > 0
    assert checks.lmi_min_eig(checks.isotropic_spectrum(3, t + 1e-3), 3, 3) < 0


@pytest.fixture(scope="module")
def certificates():
    code, rows = cli_json(["verify-certificates", "--grid", "5", "--format", "json", "--bh-dims", "4", "6"])
    return code, rows


def test_certificates_accept_real_output(certificates):
    code, rows = certificates
    assert checks.check_certificates(code, rows, 5, (4, 6)) == len(rows)


def test_certificate_value_off_by_1e9_is_rejected(certificates):
    code, rows = certificates
    for k in (8, 9, 12, 13, len(rows) - 1):  # choi dual, a grid pair, Breuer-Hall
        bad = copy.deepcopy(rows)
        bad[k]["value"] += 1e-9
        with pytest.raises(CheckFailed, match="differs"):
            checks.check_certificates(code, bad, 5, (4, 6))


def test_certificate_missing_row_or_bad_status_is_rejected(certificates):
    code, rows = certificates
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_certificates(code, rows[:-1], 5, (4, 6))
    with pytest.raises(CheckFailed, match="expected"):
        checks.check_certificates(code, rows[:20] + rows[21:] + rows[-1:], 5, (4, 6))
    bad = copy.deepcopy(rows)
    bad[0]["status"] = "mismatch"
    with pytest.raises(CheckFailed, match="status"):
        checks.check_certificates(code, bad, 5, (4, 6))
    with pytest.raises(CheckFailed, match="exited"):
        checks.check_certificates(2, rows, 5, (4, 6))


def test_certificate_values_below_two_thirds_match_lambda_max():
    # b + c < 2/3 has no closed form; the recomputed certificate value is used
    phi = posmaps.dual_map(posmaps.generalized_choi_map(0.2, 0.1))
    cert = sdpsolve.max_eig_certificate(phi)
    value = sdpsolve.verify_max_eig_certificate(phi, cert)
    assert abs(value - checks.max_eig_certificate_value(0.2, 0.1)) <= 1e-12


def drop_line(text: str, k: int) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:k] + lines[k + 1:])


def edit_cell(text: str, line: int, col: int, value: str) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[line].rstrip("\n").split(",")
    cells[col] = value
    lines[line] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.mark.parametrize(
    "figure,argv_extra,check,edit",
    [
        ("f_curve", [], lambda c, t: checks.check_f_curve(c, t), (301, 1, "0.7")),
        ("phi_bc_region", ["--grid", "9"], lambda c, t: checks.check_phi_bc_region(c, t, 9), (1, 2, "0")),
        ("gen_choi_ub", ["--grid", "9"], lambda c, t: checks.check_gen_choi_ub(c, t, 9), (81, 3, "0.6")),
        ("upb_interval", ["--samples", "31"], lambda c, t: checks.check_upb_interval(c, t, 31), (20, 2, "0")),
    ],
)
def test_figures(figure, argv_extra, check, edit):
    code, text = workloads.run_cli(["fig-data", figure, *argv_extra])
    assert check(code, text) > 0
    with pytest.raises(CheckFailed):
        check(code, drop_line(text, 5))
    with pytest.raises(CheckFailed):
        check(code, edit_cell(text, *edit))
    with pytest.raises(CheckFailed, match="exited"):
        check(3, text)


def test_check_spectrum_and_family(tmp_path):
    path = str(tmp_path / "iso.json")
    values = checks.isotropic_spectrum(3, 0.3)
    workloads._write_spectrum(path, 3, 3, values)
    code, report = cli_json(["check-spectrum", path])
    checks.check_spectrum_verdict(code, report, values, 3, 3)
    with pytest.raises(CheckFailed, match="exited"):
        checks.check_spectrum_verdict(0, report, values, 3, 3)
    with pytest.raises(CheckFailed, match="verdict"):
        checks.check_spectrum_verdict(code, dict(report, verdict="Yes"), values, 3, 3)

    code, report = cli_json(["family", "werner", "--n", "3", "--alpha", "-0.45"])
    checks.check_family(code, report, "werner", 3, -0.45)
    with pytest.raises(CheckFailed, match="class"):
        checks.check_family(code, dict(report, classification="AbsSep"), "werner", 3, -0.45)
    code, report = cli_json(["family", "upb", "--p", "0.66"])
    checks.check_family(code, report, "upb", None, 0.66)
    bad = dict(report, spectrum=report["spectrum"][:-1])
    with pytest.raises(CheckFailed, match="length"):
        checks.check_family(code, bad, "upb", None, 0.66)


def test_solve_checks():
    ell = workloads.BRANCH_MIDPOINTS["c"]
    mu = checks.extremal_witness(ell, checks.threshold(ell), 6)
    sol = sdpsolve.solve(sdpsolve.min_witness_problem(mu, (2, 3), "full"), tol=1e-8)
    value = checks.check_min_witness(sol, mu, 2, 3, "full")
    checks.check_at_threshold(value)
    with pytest.raises(CheckFailed, match="objective"):
        checks.check_min_witness(dataclasses.replace(sol, primal_value=value + 1e-9), mu, 2, 3, "full")
    with pytest.raises(CheckFailed, match="threshold"):
        checks.check_at_threshold(-1e-6)
    with pytest.raises(CheckFailed, match="above the full value"):
        checks.check_relaxation(1e-6, 1e-9, 0.0)


def test_max_eig_and_diamond_brackets():
    fake = sdpsolve.SdpSolution(primal_value=-0.6, dual_value=-0.6 - 5e-8, x=np.zeros(1), gap=5e-8, newton_steps=1)
    checks.check_max_eig_solve(fake, 1.2, 1.2)
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_max_eig_solve(dataclasses.replace(fake, primal_value=-0.6 + 1e-6, dual_value=-0.6 + 1e-6 - 5e-8),
                                   1.2, 1.2)
    low = sdpsolve.SdpSolution(primal_value=-1.2, dual_value=-1.2 - 5e-8, x=np.zeros(1), gap=5e-8, newton_steps=1)
    with pytest.raises(CheckFailed, match="certificate"):
        checks.check_max_eig_solve(low, 0.2, 0.2)
    dia = sdpsolve.SdpSolution(primal_value=4 / 3 + 1e-8, dual_value=4 / 3 - 2e-8, x=np.zeros(1), gap=3e-8,
                               newton_steps=1)
    checks.check_diamond_solve(dia, 4 / 3)
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_diamond_solve(dataclasses.replace(dia, primal_value=4 / 3 + 1e-6), 4 / 3)


def test_recorder_counts_repeat_and_uninstall_restores(ball_file):
    path, _ = ball_file
    original = cli.main
    counts = []
    for _ in range(2):
        rec = spans.SpanRecorder()
        rec.install()
        try:
            workloads.run_cli(["orbit-scan", path, "--criterion", "choi", "--samples", "7", "--seed", "1"])
        finally:
            rec.uninstall()
        counts.append({k: v for k, v in rec.metrics(1).items() if k.endswith(".calls")})
        total = sum(rec.ends[i] - rec.starts[i] for i in range(len(rec.names)) if rec.parents[i] < 0)
        assert abs(sum(v for k, v in rec.metrics(1).items() if k.count(".") == 1 and k.endswith(".self_s"))
                   - total) < 1e-6
    assert cli.main is original
    assert counts[0] == counts[1]
    assert counts[0]["bipartite.haar_unitary.calls"] == 7
    assert counts[0]["posmaps.apply_id_tensor.calls"] == 7


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.metric_names()
    assert len(bench["per_layer"]) <= 128
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "items_per_s", "op_p50_ms", "peak_rss_mb"}
    assert {f.split(".", 1)[0] for f in spans.FUNCTIONS} <= set(spans.MODULES)
