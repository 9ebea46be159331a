"""Command-line interface: verdicts, exit codes, figure data, determinism."""

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

import abssep
from abssep import bipartite, cli, families, matcore, posmaps


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def write_spectrum(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(spec.dumps())
    return str(path)


def test_check_spectrum_uniform_yes(tmp_path, capsys):
    from abssep.absppt import Spectrum

    path = write_spectrum(tmp_path, Spectrum(3, 3, np.full(9, 1.0 / 9.0)))
    code, out = run_cli(["check-spectrum", path], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["verdict"] == "Yes"


def test_check_spectrum_isotropic_no(tmp_path, capsys):
    path = write_spectrum(tmp_path, families.isotropic_spectrum(3, 0.2))
    code, out = run_cli(["check-spectrum", path], capsys)
    report = json.loads(out)
    assert code == 2
    assert report["verdict"] == "No"
    assert report["lmi_min_eigenvalue"] < 0


def test_check_spectrum_large_dims_necessary_only(tmp_path, capsys):
    from abssep.absppt import Spectrum

    path = write_spectrum(tmp_path, Spectrum(4, 4, np.full(16, 1.0 / 16.0)))
    code, out = run_cli(["check-spectrum", path], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "NecessaryPassedOnly"


def test_witness_analyze_choi_witness(tmp_path, capsys):
    w = posmaps.witness_from_map(
        posmaps.dual_map(posmaps.choi_map()), bipartite.max_entangled(3)
    )
    path = tmp_path / "w.json"
    path.write_text(json.dumps(matcore.matrix_to_json(w)))
    code, out = run_cli(["witness-analyze", str(path)], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["verdict"] == "Guaranteed"
    assert np.isclose(report["ell"], -1.0 / 6.0, atol=1e-9)


def test_witness_analyze_scaled_identity(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(matcore.matrix_to_json(np.eye(9) / 9.0)))
    code, out = run_cli(["witness-analyze", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "Guaranteed"


def test_witness_analyze_inconclusive(tmp_path, capsys):
    # extremal witness spectrum with mu1 beyond the threshold
    from abssep.witness import extremal_witness_spectrum

    w = np.diag(extremal_witness_spectrum(-0.4, 0.62, 9))
    path = tmp_path / "w.json"
    path.write_text(json.dumps(matcore.matrix_to_json(w)))
    code, out = run_cli(["witness-analyze", str(path)], capsys)
    assert code == 2
    assert json.loads(out)["verdict"] == "Inconclusive"


def test_verify_certificates_default_config(capsys):
    # defaults: Breuer-Hall n in {4, 6} and a 21x21 (b, c) grid
    code, out = run_cli(["verify-certificates"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,value,expected,status"
    rows = lines[1:]
    assert len(rows) == 8 + 2 + 2 * 21 * 21 + 4
    assert all(row.endswith(",ok") for row in rows)


def test_verify_certificates_small_grid(tmp_path, capsys):
    code, out = run_cli(
        ["verify-certificates", "--grid", "5", "--bh-dims", "4", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert all(r["status"] == "ok" for r in rows)
    by_name = {r["name"]: r for r in rows}
    assert np.isclose(by_name["diamond choi-dual"]["value"], 4.0 / 3.0, atol=1e-12)
    assert np.isclose(by_name["max-eig choi-dual"]["value"], 2.0 / 3.0, atol=1e-12)
    assert np.isclose(by_name["diamond breuer-hall n=4"]["value"], 1.5, atol=1e-12)
    # witness-dual rows carry the certificate's own lower bound t = 0
    witness_rows = [r for r in rows if r["name"].startswith("witness-dual")]
    assert len(witness_rows) == 8
    assert all(r["value"] == 0.0 == r["expected"] for r in witness_rows)


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        ([], 897, "27a99714b399c9f49e1fd4e817161ad3b45590991cb25cb009ce735a2a252334"),
        (["--grid", "31", "--bh-dims", "4", "6", "8", "--format", "json"], None,
         "240146440dca90ee8cdfbc7ad681750ed43ab78e32f39d4c4f8ef10af2bbbf2e"),
    ],
)
def test_verify_certificates_golden_bytes(capsys, argv, lines, digest):
    # every certified value, byte for byte; a change to any row shows here
    code, out = run_cli(["verify-certificates", *argv], capsys)
    assert code == 0
    if lines is not None:
        assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "figure, lines, digest",
    [
        ("f_curve", 1009, "500192ae0ed0c41d018e5478fed3ff1cc8145d0912ce59be7b98027d3991c73b"),
        ("phi_bc_region", 14642,
         "74f7f81533c55c6f2f78e2ae99db3edbbcb46656fbe844f2b31d2d60e29cd1a4"),
        ("gen_choi_ub", 14642,
         "6f002553439f07dee080909579989c2ee980fcc93ffd96edcde9b316c9ae87f7"),
        ("upb_interval", 302, "a5fe85a6aecf23de7e14d184f83853788214fb761a62312e93c67d98269c0c5b"),
    ],
)
def test_fig_data_golden_bytes(capsys, figure, lines, digest):
    # the default CSV of each figure, byte for byte; its values are closed forms,
    # plus upb_interval's eigenvalues of a small matrix (all above 1e-4 in
    # magnitude), printed with %.12g, far coarser than LAPACK's rounding
    code, out = run_cli(["fig-data", figure], capsys)
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_certificates_rejection_exits_2(monkeypatch, capsys):
    from abssep import sdpsolve
    from abssep.errors import CertificateRejected

    real = sdpsolve.verify_max_eig_certificates

    def flaky(phis, jmats, ys):
        if phis[0].kind == "breuer_hall":
            raise CertificateRejected("injected failure")
        return real(phis, jmats, ys)

    monkeypatch.setattr(sdpsolve, "verify_max_eig_certificates", flaky)
    code, out = run_cli(
        ["verify-certificates", "--grid", "2", "--bh-dims", "4"], capsys
    )
    assert code == 2
    assert "rejected: injected failure" in out


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("argv", [
    [],
    ["--grid", "31", "--bh-dims", "4", "6", "8", "--format", "json"],
    ["--grid", "6", "--bh-dims", "4", "4", "6", "6", "6"],
], ids=["default", "grid31-json", "repeated-bh"])
def test_verify_certificates_bytes_do_not_depend_on_chunk_size(monkeypatch, capsys, argv, chunk):
    # 442, 962 and 37 generalized Choi maps, none a multiple of 7 or 64; the
    # reference checks each run of maps of one kind as a single stack
    monkeypatch.setattr(cli, "CERT_CHUNK", 10**6)
    expected = run_cli(["verify-certificates", *argv], capsys)
    monkeypatch.setattr(cli, "CERT_CHUNK", chunk)
    assert run_cli(["verify-certificates", *argv], capsys) == expected


def _same_map(a, b):
    return (a.kind, a.dim, a.b, a.c) == (b.kind, b.dim, b.b, b.c)


def _grid5_chunk7_jobs(monkeypatch):
    # 26 generalized Choi maps, the Choi dual first, checked 7 at a time: jobs 9
    # and 10 sit inside the second chunk, which holds jobs 7 to 13
    monkeypatch.setattr(cli, "CERT_CHUNK", 7)
    axis = np.linspace(0.0, 4.0 / 3.0, 5)
    return cli._certificate_jobs((4,), [(float(b), float(c)) for b in axis for c in axis])


def _rows_by_name(out):
    return {row.pop("name"): row for row in json.loads(out)}


def test_verify_certificates_rejects_one_map_inside_a_chunk(monkeypatch, capsys):
    from abssep import sdpsolve
    from abssep.errors import CertificateRejected

    jobs = _grid5_chunk7_jobs(monkeypatch)
    (diamond_label, diamond_phi), (max_eig_label, max_eig_phi) = jobs[10], jobs[9]
    broken = {}
    real_diamond, real_max_eig = sdpsolve.diamond_certificates, sdpsolve.max_eig_certificate

    def perturbed_diamond(phis, jmats):
        certs = real_diamond(phis, jmats)
        for phi, cert in zip(phis, certs):
            if _same_map(phi, diamond_phi):
                cert.values["Y"] = cert.values["Y"].copy()
                cert.values["Y"][2, 2] -= 1e-3  # breaks PSD of the Y - J block
                broken["diamond"] = (phi, cert)
        return certs

    def perturbed_max_eig(phi):
        cert = real_max_eig(phi)
        if _same_map(phi, max_eig_phi):
            cert.values["Y"][1, 1] -= 1e-3  # drives an eigenvalue of Y negative
            broken["max-eig"] = (phi, cert)
        return cert

    monkeypatch.setattr(sdpsolve, "diamond_certificates", perturbed_diamond)
    monkeypatch.setattr(sdpsolve, "max_eig_certificate", perturbed_max_eig)
    code, out = run_cli(
        ["verify-certificates", "--grid", "5", "--bh-dims", "4", "--format", "json"], capsys)
    assert code == 2
    rows = _rows_by_name(out)
    assert len(rows) == 8 + 2 * 27
    expected_rejections = {}
    for kind, label in (("diamond", diamond_label), ("max-eig", max_eig_label)):
        phi, cert = broken[kind]
        verify = (sdpsolve.verify_diamond_certificate if kind == "diamond"
                  else sdpsolve.verify_max_eig_certificate)
        with pytest.raises(CertificateRejected) as info:
            verify(phi, cert)  # the one-map verifier's message
        expected_rejections[f"{kind} {label}"] = {
            "value": None, "expected": None, "status": f"rejected: {info.value}"}
    assert "Y - J is not PSD" in expected_rejections[f"diamond {diamond_label}"]["status"]
    assert "Y is not PSD" in expected_rejections[f"max-eig {max_eig_label}"]["status"]
    for name, row in rows.items():
        if name in expected_rejections:
            assert row == expected_rejections[name]
        else:
            assert row["status"] == "ok", name


def test_verify_certificates_flags_one_mismatch_inside_a_chunk(monkeypatch, capsys):
    from abssep import sdpsolve

    jobs = _grid5_chunk7_jobs(monkeypatch)
    label, target = jobs[10]
    real = sdpsolve.diamond_certificates

    def shifted(phis, jmats):
        certs = real(phis, jmats)
        for phi, cert in zip(phis, certs):
            if _same_map(phi, target):
                cert.expected_value += 1e-11  # ten times --tol certificate
        return certs

    monkeypatch.setattr(sdpsolve, "diamond_certificates", shifted)
    code, out = run_cli(
        ["verify-certificates", "--grid", "5", "--bh-dims", "4", "--format", "json"], capsys)
    assert code == 2
    rows = _rows_by_name(out)
    assert rows[f"diamond {label}"]["status"] == "mismatch"
    assert sum(row["status"] != "ok" for row in rows.values()) == 1


@pytest.mark.parametrize("shift, status", [(1e-6, "rejected"), (1e-11, "mismatch")])
def test_verify_certificates_flags_corrupted_witness_dual(monkeypatch, capsys, shift, status):
    from abssep import witness

    real = witness.detection_dual_certificate

    def corrupted(ell, mu1, mn):
        cert = real(ell, mu1, mn)
        if status == "rejected":
            cert.values["Z"][1, 1] -= shift  # the rank-one block loses PSD
        else:
            cert.values["Z"][0, 0] += shift  # still PSD, but certifies less than 0
        return cert

    monkeypatch.setattr(witness, "detection_dual_certificate", corrupted)
    code, out = run_cli(
        ["verify-certificates", "--grid", "2", "--bh-dims", "4", "--format", "json"], capsys
    )
    assert code == 2
    rows = [r for r in json.loads(out) if r["name"].startswith("witness-dual")]
    assert len(rows) == 8
    assert all(r["status"].startswith(status) for r in rows)


def test_fig_data_f_curve(tmp_path, capsys):
    code, out = run_cli(["fig-data", "f_curve"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ell,mu1_bound,label"
    assert "-0.2,0.9,vi" in lines
    row = [l for l in lines if l.startswith("-0.2,") and l.endswith(",")][0]
    assert row.split(",")[1] == "0.9"
    assert sum(1 for l in lines if l.endswith(",i")) == 1


def test_fig_data_phi_bc_region_hull(tmp_path, capsys):
    code, out = run_cli(["fig-data", "phi_bc_region", "--grid", "21"], capsys)
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[1:]]
    table = {(r[0], r[1]): r for r in rows}
    choi_row = table[("1", "0")]
    assert choi_row[2] == "1"  # positive
    assert choi_row[3] == "1"  # indecomposable
    assert choi_row[5] == "1"  # inside the certified hull
    outside = table[("%.12g" % (4.0 / 3.0), "%.12g" % (4.0 / 3.0))]
    assert outside[5] == "0"


def test_fig_data_gen_choi_ub_values(tmp_path, capsys):
    code, out = run_cli(["fig-data", "gen_choi_ub", "--grid", "21"], capsys)
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[1:]]
    table = {(r[0], r[1]): r for r in rows}
    corner = table[("1.2", "1.2")]
    assert corner[2] == "1"
    assert np.isclose(float(corner[3]), 0.6, atol=1e-12)
    case2 = table[("1", "0")]
    assert case2[2] == "2"
    assert np.isclose(float(case2[3]), 2.0 / 3.0, atol=1e-12)


def test_fig_data_gen_choi_ub_case0_rows_are_certified(capsys):
    from abssep import sdpsolve

    code, out = run_cli(["fig-data", "gen_choi_ub", "--grid", "21"], capsys)
    assert code == 0
    case0 = [l.split(",") for l in out.splitlines()[1:] if l.split(",")[2] == "0"]
    assert len(case0) == 55
    for b, c, _, bound in case0:
        assert math.isfinite(float(bound))
        phi = posmaps.dual_map(posmaps.generalized_choi_map(float(b), float(c)))
        value = sdpsolve.verify_max_eig_certificate(phi, sdpsolve.max_eig_certificate(phi))
        assert abs(float(bound) - value) <= 1e-10


def test_fig_data_upb_interval(tmp_path, capsys):
    code, out = run_cli(["fig-data", "upb_interval", "--samples", "7"], capsys)
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[1:]]
    assert rows[0][3] == "NotAbsPPT"
    assert rows[-1][3] == "AbsPPT_and_AbsSep"


def test_fig_data_byte_stable(tmp_path, capsys):
    _, first = run_cli(["fig-data", "f_curve"], capsys)
    _, second = run_cli(["fig-data", "f_curve"], capsys)
    assert first == second
    out_path = tmp_path / "curve.csv"
    code = cli.main(["fig-data", "f_curve", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == first


def test_orbit_scan_deterministic(tmp_path, capsys):
    path = write_spectrum(tmp_path, families.isotropic_spectrum(3, 0.1))
    args = ["orbit-scan", path, "--criterion", "realignment", "--samples", "24", "--seed", "5"]
    code1, out1 = run_cli(args, capsys)
    code2, out2 = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


SPEC_33 = [0.2, 0.15, 0.12, 0.11, 0.1, 0.1, 0.08, 0.07, 0.07]
SPEC_44 = [0.08, 0.075, 0.07, 0.068, 0.066, 0.064, 0.062, 0.062,
           0.06, 0.06, 0.058, 0.056, 0.055, 0.054, 0.052, 0.058]
PURE_33 = [1.0] + [0.0] * 8

# orbit-scan output captured from the per-sample loop the chunked scan replaced
GOLDEN_ORBIT = [
    ((3, 3, SPEC_33), ["--criterion", "realignment", "--samples", "40", "--seed", "9"], 0,
     '{"criterion": "realignment", "max_violation": -0.3853543398703815, "samples": 40, '
     '"seed": 9, "tolerance": 1e-08, "verdict": "Yes", "violated": false}\n'),
    ((3, 3, SPEC_33), ["--criterion", "choi", "--samples", "40", "--seed", "9"], 0,
     '{"criterion": "choi", "max_violation": -0.07418105524737659, "samples": 40, '
     '"seed": 9, "tolerance": 1e-08, "verdict": "Yes", "violated": false}\n'),
    ((3, 3, SPEC_33), ["--criterion", "gen_choi", "--samples", "40", "--seed", "9",
                       "--b", "1.2", "--c", "1.2"], 0,
     '{"criterion": "gen_choi", "max_violation": -0.05637078935413884, "samples": 40, '
     '"seed": 9, "tolerance": 1e-08, "verdict": "Yes", "violated": false}\n'),
    ((4, 4, SPEC_44), ["--criterion", "breuer_hall", "--samples", "40", "--seed", "9"], 0,
     '{"criterion": "breuer_hall", "max_violation": -0.05344286061810128, "samples": 40, '
     '"seed": 9, "tolerance": 1e-08, "verdict": "NecessaryPassedOnly", "violated": false}\n'),
    ((4, 4, SPEC_44), ["--criterion", "realignment", "--samples", "40", "--seed", "9"], 0,
     '{"criterion": "realignment", "max_violation": -0.6523471509714702, "samples": 40, '
     '"seed": 9, "tolerance": 1e-08, "verdict": "NecessaryPassedOnly", "violated": false}\n'),
    ((3, 3, PURE_33), ["--criterion", "realignment", "--samples", "17", "--seed", "2"], 2,
     '{"criterion": "realignment", "max_violation": 1.6566826138580582, "samples": 17, '
     '"seed": 2, "tolerance": 1e-08, "verdict": "No", "violated": true}\n'),
    ((3, 3, PURE_33), ["--criterion", "choi", "--samples", "17", "--seed", "2"], 2,
     '{"criterion": "choi", "max_violation": 0.146834349316344, "samples": 17, '
     '"seed": 2, "tolerance": 1e-08, "verdict": "No", "violated": true}\n'),
]


@pytest.mark.parametrize("spec, argv, code, expected", GOLDEN_ORBIT)
def test_orbit_scan_golden_bytes(tmp_path, capsys, spec, argv, code, expected):
    from abssep.absppt import Spectrum

    path = write_spectrum(tmp_path, Spectrum(*spec))
    assert run_cli(["orbit-scan", path, *argv], capsys) == (code, expected)


def reference_violations(spec, criterion, seed, count, b=1.2, c=1.2):
    """One Haar rotation at a time, through the single-matrix kernels."""
    phi = {
        "choi": posmaps.choi_map,
        "gen_choi": lambda: posmaps.generalized_choi_map(b, c),
        "breuer_hall": lambda: posmaps.breuer_hall_map(spec.n),
    }.get(criterion, lambda: None)()
    out = []
    for i in range(count):
        u = bipartite.haar_unitary(spec.m * spec.n, bipartite.rng_stream(seed, stream=i))
        rho = (u * spec.values) @ u.conj().T
        if phi is None:
            out.append(bipartite.realign_trace_norm(rho, spec.m, spec.n) - 1.0)
        else:
            out.append(-float(matcore.eigvalsh(posmaps.apply_id_tensor(phi, rho, spec.m))[-1]))
    return np.array(out)


@pytest.mark.parametrize("criterion, dims, values", [
    ("realignment", (3, 3), SPEC_33),
    ("realignment", (2, 3), [0.3, 0.2, 0.15, 0.15, 0.1, 0.1]),
    ("choi", (3, 3), SPEC_33),
    ("gen_choi", (3, 3), SPEC_33),
    ("breuer_hall", (4, 4), SPEC_44),
])
@pytest.mark.parametrize("count", [1, 15, 16, 17, 40])
def test_orbit_violations_match_per_sample_loop(criterion, dims, values, count):
    from abssep.absppt import Spectrum

    spec = Spectrum(*dims, values)
    got = cli._orbit_violations(spec, criterion, 1.2, 1.2, 13, count)
    assert np.array_equal(got, reference_violations(spec, criterion, 13, count))


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_orbit_violations_do_not_depend_on_chunk_size(monkeypatch, chunk):
    from abssep.absppt import Spectrum

    spec = Spectrum(3, 3, SPEC_33)
    expected = cli._orbit_violations(spec, "choi", 1.0, 0.0, 4, 33)
    monkeypatch.setattr(cli, "ORBIT_CHUNK", chunk)
    assert np.array_equal(cli._orbit_violations(spec, "choi", 1.0, 0.0, 4, 33), expected)


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_is_an_input_error(tmp_path, capsys, samples):
    path = write_spectrum(tmp_path, families.isotropic_spectrum(3, 0.1))
    for argv in (["orbit-scan", path, "--criterion", "realignment"], ["fig-data", "upb_interval"]):
        code = cli.main(argv + ["--samples", samples])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: --samples must be at least 1, got {samples}\n"


def test_orbit_scan_tolerance_does_not_leak_between_calls(tmp_path, capsys):
    path = write_spectrum(tmp_path, families.isotropic_spectrum(3, 0.1))
    args = ["orbit-scan", path, "--criterion", "realignment", "--samples", "4", "--seed", "5"]
    code, out = run_cli(args + ["--tol", "violation=1"], capsys)
    assert code == 0 and json.loads(out)["tolerance"] == 1.0
    code, out = run_cli(args, capsys)
    assert code == 0 and json.loads(out)["tolerance"] == 1e-8


def test_orbit_scan_finds_violation_for_entangled_family(tmp_path, capsys):
    path = write_spectrum(tmp_path, families.isotropic_spectrum(3, 0.5))
    code, out = run_cli(
        ["orbit-scan", path, "--criterion", "choi", "--samples", "8", "--seed", "3"],
        capsys,
    )
    report = json.loads(out)
    assert code == 2
    assert report["violated"] is True
    assert report["verdict"] == "No"


def test_family_reports(tmp_path, capsys):
    code, out = run_cli(["family", "werner", "--n", "3", "--alpha", "-0.45"], capsys)
    assert code == 0
    assert json.loads(out)["classification"] == "Unknown"
    code, out = run_cli(["family", "isotropic", "--n", "3", "--alpha", "0.18"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == "AbsSep"
    assert np.isclose(report["threshold"], 2.0 / 11.0)
    code, out = run_cli(["family", "upb", "--p", "0.65"], capsys)
    assert code == 0
    assert json.loads(out)["classification"] == "AbsPPT_only_known"


def test_input_errors_exit_3(tmp_path, capsys):
    code, _ = run_cli(["check-spectrum", str(tmp_path / "missing.json")], capsys)
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 3, "n": 3, "values": [0.5, 0.5]}')
    code, _ = run_cli(["check-spectrum", str(bad)], capsys)
    assert code == 3
    notjson = tmp_path / "notjson.json"
    notjson.write_text("not json at all")
    code, _ = run_cli(["check-spectrum", str(notjson)], capsys)
    assert code == 3


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=11\nsamples=6\ntol.violation=1e-6  # loose\n")
    path = write_spectrum(tmp_path, families.isotropic_spectrum(3, 0.1))
    code, out = run_cli(
        ["orbit-scan", path, "--criterion", "realignment", "--config", str(cfg)],
        capsys,
    )
    report = json.loads(out)
    assert code == 0
    assert report["samples"] == 6 and report["seed"] == 11
    assert report["tolerance"] == 1e-6
    code, out = run_cli(
        ["orbit-scan", path, "--criterion", "realignment", "--config", str(cfg),
         "--samples", "3"],
        capsys,
    )
    assert json.loads(out)["samples"] == 3
    code, out = run_cli(
        ["orbit-scan", path, "--criterion", "realignment", "--config", str(cfg),
         "--tol", "violation=0.5"],
        capsys,
    )
    report = json.loads(out)
    assert report["tolerance"] == 0.5 and report["samples"] == 6


# every flag each command reads, and no other
COMMAND_FLAGS = {
    "check-spectrum": {"--tol", "--out", "--config"},
    "witness-analyze": {"--out", "--config"},
    "verify-certificates": {"--bh-dims", "--grid", "--format", "--tol", "--out", "--config"},
    "fig-data": {"--grid", "--samples", "--out", "--config"},
    "orbit-scan": {"--criterion", "--b", "--c", "--seed", "--samples", "--tol", "--out",
                   "--config"},
    "family": {"--n", "--alpha", "--p", "--out", "--config"},
}
TOLERANCE_HELP = {
    "check-spectrum": "lmi=1e-10",
    "verify-certificates": "certificate=1e-12",
    "orbit-scan": "violation=1e-08",
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_exactly_the_command_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    options = text.split("options:", 1)[1]
    listed = set(re.findall(r"^  (?:-h, )?(--[a-z-]+)", options, re.M))
    assert listed == COMMAND_FLAGS[command] | {"--help"}
    if command in TOLERANCE_HELP:
        assert TOLERANCE_HELP[command] in " ".join(options.split())


def input_error(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.endswith("\n")
    return captured.err


@pytest.mark.parametrize("argv, named", [
    (["family", "werner", "--n", "3", "--alpha", "0.1", "--seed", "5"], "--seed"),
    (["fig-data", "f_curve", "--format", "json"], "--format"),
    (["check-spectrum", "SPEC", "--samples", "3"], "--samples"),
    (["orbit-scan", "SPEC", "--criterion", "realignment", "--tol", "violaton=1"], "violaton"),
    (["orbit-scan", "SPEC", "--criterion", "realignment", "--tol", "violation"], "--tol"),
    (["orbit-scan", "SPEC", "--criterion", "realignment", "--tol", "violation=nan"], "--tol"),
    (["check-spectrum", "SPEC", "--tol", "lmi=abc"], "--tol"),
    (["orbit-scan", "SPEC", "--criterion", "choi", "--samples", "abc"], "--samples"),
    (["orbit-scan", "SPEC", "--criterion", "nope"], "--criterion"),
    (["verify-certificates", "--grid", "2", "--bh-dims"], "--bh-dims"),
    (["orbit-scan", "SPEC", "--criterion", "realignment", "--seed", "-1"], "--seed"),
    (["orbit-scan", "SPEC", "--criterion", "gen_choi", "--b", "nan"], "b=nan"),
    (["orbit-scan", "SPEC", "--criterion", "gen_choi", "--c", "inf"], "c=inf"),
])
def test_usage_errors_exit_3(tmp_path, capsys, argv, named):
    path = write_spectrum(tmp_path, families.isotropic_spectrum(3, 0.1))
    assert named in input_error([path if a == "SPEC" else a for a in argv], capsys)


@pytest.mark.parametrize("grid", ["0", "-2"])
@pytest.mark.parametrize("argv", [["fig-data", "phi_bc_region"], ["fig-data", "gen_choi_ub"],
                                  ["verify-certificates"]])
def test_grid_below_one_is_an_input_error(capsys, argv, grid):
    err = input_error(argv + ["--grid", grid], capsys)
    assert err == f"error: --grid must be at least 1, got {grid}\n"


@pytest.mark.parametrize("argv, config, named", [
    (["orbit-scan", "SPEC", "--criterion", "realignment"], "sampels=5\n", "--sampels=5"),
    (["orbit-scan", "SPEC", "--criterion", "realignment"], "tol.violaton=1\n", "violaton"),
    (["orbit-scan", "SPEC", "--criterion", "realignment"], "seed=abc\n", "--seed"),
    (["verify-certificates", "--grid", "2"], "format=xml\n", "--format"),
    (["family", "werner", "--n", "3", "--alpha", "0.1"], "seed=\n", "--seed="),
    (["check-spectrum", "SPEC"], "config=other.cfg\n", "config"),
    (["check-spectrum", "SPEC"], "tol.lmi\n", "malformed config line"),
])
def test_config_errors_exit_3(tmp_path, capsys, argv, config, named):
    path = write_spectrum(tmp_path, families.isotropic_spectrum(3, 0.1))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    argv = [path if a == "SPEC" else a for a in argv] + ["--config", str(cfg)]
    assert named in input_error(argv, capsys)


def test_config_file_sets_any_flag_of_its_command(tmp_path, capsys):
    out = tmp_path / "certs.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid=2\nbh-dims=4\nformat=json\ntol.certificate=1e-11\nout={out}\n")
    assert run_cli(["verify-certificates", "--config", str(cfg)], capsys) == (0, "")
    rows = json.loads(out.read_text())
    assert len(rows) == 8 + 2 + 2 * 2 * 2 + 2
    assert rows[-1]["name"] == "max-eig breuer-hall n=4"


def test_out_into_missing_directory_exits_3(tmp_path, capsys):
    input_error(["fig-data", "f_curve", "--out", str(tmp_path / "missing" / "curve.csv")], capsys)


def test_module_entry_points_run_without_warnings():
    env = dict(os.environ, PYTHONPATH=str(Path(abssep.__file__).resolve().parents[1]))
    argv = ["family", "werner", "--n", "3", "--alpha", "-0.45"]
    outputs = []
    for module in ("abssep.cli", "abssep"):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", module, *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["classification"] == "Unknown"
