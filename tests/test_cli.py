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


def matrix_json(a) -> str:
    """a in the matrix JSON format witness-analyze reads: row-major re and im lists."""
    a = np.asarray(a, dtype=np.complex128)
    return json.dumps({"rows": a.shape[0], "cols": a.shape[1],
                       "re": a.real.ravel().tolist(), "im": a.imag.ravel().tolist()})


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


@pytest.mark.parametrize("alpha", [0.2, 0.1])
def test_check_spectrum_evaluates_the_lmis_once(monkeypatch, tmp_path, capsys, alpha):
    # one stacked eigvalsh gives both the verdict and lmi_min_eigenvalue, and the
    # report is the one that is_abs_ppt and a second evaluation would give
    from abssep import absppt

    spec = families.isotropic_spectrum(3, alpha)
    mins = absppt.lmi_min_eigenvalues(spec)
    expected = json.dumps({"verdict": absppt.is_abs_ppt(spec).value,
                           "lmi_min_eigenvalue": float(np.min(mins)), "dims": [3, 3]},
                          sort_keys=True) + "\n"
    path = write_spectrum(tmp_path, spec)
    calls = []
    eigvalsh = matcore.eigvalsh
    monkeypatch.setattr(matcore, "eigvalsh", lambda a: calls.append(np.shape(a)) or eigvalsh(a))
    code, out = run_cli(["check-spectrum", path], capsys)
    assert len(calls) == 1
    assert out == expected
    assert code == (2 if json.loads(out)["verdict"] == "No" else 0)


def test_check_spectrum_large_dims_necessary_only(tmp_path, capsys):
    from abssep.absppt import Spectrum

    path = write_spectrum(tmp_path, Spectrum(4, 4, np.full(16, 1.0 / 16.0)))
    code, out = run_cli(["check-spectrum", path], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "NecessaryPassedOnly"


def test_check_spectrum_min_dim_one_is_yes_with_no_lmi(tmp_path, capsys):
    # (1, n) has the empty LMI stack: every valid spectrum is absolutely PPT
    from abssep.absppt import Spectrum

    path = write_spectrum(tmp_path, Spectrum(1, 3, [0.5, 0.3, 0.2]))
    code, out = run_cli(["check-spectrum", path], capsys)
    assert code == 0
    assert out == '{"dims": [1, 3], "lmi_min_eigenvalue": null, "verdict": "Yes"}\n'


def test_witness_analyze_choi_witness(tmp_path, capsys):
    w = posmaps.witness_from_map(
        posmaps.dual_map(posmaps.choi_map()), bipartite.max_entangled(3)
    )
    path = tmp_path / "w.json"
    path.write_text(matrix_json(w))
    code, out = run_cli(["witness-analyze", str(path)], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["verdict"] == "Guaranteed"
    assert np.isclose(report["ell"], -1.0 / 6.0, atol=1e-9)


def test_witness_analyze_scaled_identity(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(matrix_json(np.eye(9) / 9.0))
    code, out = run_cli(["witness-analyze", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "Guaranteed"


def test_witness_analyze_prints_the_threshold_it_guarantees_by(tmp_path, capsys):
    # Haar rotations of the (2,2) flip witness S/2, whose ell is -1/2: in some
    # (59 of these 200 with reference LAPACK) it reads just below, where the
    # threshold used to print null beside a Guaranteed verdict
    flip = bipartite.swap_operator(2) / 2.0
    path = tmp_path / "w.json"
    below = 0
    for seed in range(200):
        u = bipartite.haar_unitary(4, seed)
        path.write_text(matrix_json(u @ flip @ u.conj().T))
        code, out = run_cli(["witness-analyze", str(path)], capsys)
        report = json.loads(out)
        assert (code, report["verdict"]) == (0, "Guaranteed")
        assert report["threshold"] is not None
        assert report["mu1"] <= report["threshold"] + 1e-12
        below += report["ell"] < -0.5
    assert below > 0


def test_witness_analyze_inconclusive(tmp_path, capsys):
    # extremal witness spectrum with mu1 beyond the threshold
    from abssep.witness import extremal_witness_spectrum

    w = np.diag(extremal_witness_spectrum(-0.4, 0.62, 9))
    path = tmp_path / "w.json"
    path.write_text(matrix_json(w))
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
         "4ec5599aaf465357e360a5c0cfd4dc07b5ed2c1e4d41ca3d5b47a374b390a268"),
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


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (["fig-data", "phi_bc_region", "--grid", "2"], 5,
         "83516e3b3da812f8ecc03512584d8f2322cff2419e4bc75095a2c9de862b6913"),
        (["fig-data", "phi_bc_region", "--grid", "37"], 1370,
         "e70d9b3ad44d52d4887ff54e1857764cd1abceb408d5823a6c83d82229856a51"),
        (["fig-data", "gen_choi_ub", "--grid", "1"], 2,
         "b891cf741df19e8e79119d3536b4ca4519a9a8c09eee7c5d3d8e27016feb7a0c"),
        (["fig-data", "gen_choi_ub", "--grid", "46"], 2117,
         "9972b39c02edc4a8c313e0258b46c81397f04db5987ff93763c6098e322a210a"),
        # every value at full precision; a port that squares with numpy's ** 2
        # instead of libm pow changes rows here
        (["verify-certificates", "--grid", "80", "--bh-dims", "4", "--format", "json"], 1,
         "addf86c062788014c463b939c7d546ed2f3f7ec9802efe36b8a7ed2645b9c8df"),
        (["fig-data", "upb_interval", "--samples", "1"], 2,
         "471c65a4849baeb6a25c311e534c7c2b7fc876e46145257d37af4c5c9b9bca0a"),
        (["fig-data", "upb_interval", "--samples", "7"], 8,
         "dc284d7be44dcf4a0d8d63de57d5c1e87f52e87671b728f2c6aebbb70b5f0c63"),
        (["verify-certificates", "--grid", "5", "--bh-dims", "4", "6"], 65,
         "9f47f72a302525905e4610cc0fc98a9c616ed9cd1fd79bd45fcb91a6d21a545d"),
    ],
    ids=["phi_bc_region-2", "phi_bc_region-37", "gen_choi_ub-1", "gen_choi_ub-46",
         "verify-certificates-80-json", "upb_interval-1", "upb_interval-7",
         "verify-certificates-5-csv"],
)
def test_golden_bytes_at_other_grids(capsys, argv, lines, digest):
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_certificates_rejection_exits_2(monkeypatch, capsys):
    from abssep import sdpsolve
    from abssep.errors import CertificateRejected

    argv = ["verify-certificates", "--grid", "2", "--bh-dims", "4"]
    clean = run_cli(argv, capsys)[1].splitlines()
    real = sdpsolve.breuer_hall_certificates
    broken = []

    def indefinite(phi):
        certs = real(phi)
        certs.max_eig_ys[:, 1, 1] -= 1e-3  # row 1 of the rank-one Y is zero, so Y loses PSD
        broken.append((phi, certs.max_eig_ys[0].copy()))
        return certs

    monkeypatch.setattr(sdpsolve, "breuer_hall_certificates", indefinite)
    code, out = run_cli(argv, capsys)
    assert code == 2
    ((phi, y),) = broken
    with pytest.raises(CertificateRejected, match="Y is not PSD") as info:
        sdpsolve.verify_max_eig_certificate(phi, y)
    # the rejected row prints nan for both numbers; every other row as before
    row = f"max-eig breuer-hall n=4,nan,nan,rejected: {info.value}"
    lines = out.splitlines()
    assert len(lines) == len(clean) == 21
    assert [line for line in lines if line not in clean] == [row]
    assert [line for line in clean if line not in lines] == [
        line for line in clean if line.startswith("max-eig breuer-hall n=4,")]


@pytest.mark.parametrize("chunk", [1, 7, 64, 128])
@pytest.mark.parametrize("argv", [
    [],
    ["--grid", "31", "--bh-dims", "4", "6", "8", "--format", "json"],
    ["--grid", "6", "--bh-dims", "4", "4", "6", "6", "6"],
], ids=["default", "grid31-json", "repeated-bh"])
def test_verify_certificates_bytes_do_not_depend_on_chunk_size(monkeypatch, capsys, argv, chunk):
    # 442, 962 and 37 generalized Choi maps, none a multiple of 7, 64 or 128; the
    # reference checks each run of maps of one kind as a single stack
    monkeypatch.setattr(cli, "CERT_CHUNK", 10**6)
    expected = run_cli(["verify-certificates", *argv], capsys)
    monkeypatch.setattr(cli, "CERT_CHUNK", chunk)
    assert run_cli(["verify-certificates", *argv], capsys) == expected


def _grid5_chunk7(monkeypatch):
    # 26 generalized Choi maps, the Choi dual first, checked 7 at a time: maps 9
    # and 10 sit inside the second chunk, which holds maps 7 to 13. Map j > 0 is
    # the dual of Phi_{b,c} at grid point j - 1; returns {j: (label, (b, c))}
    monkeypatch.setattr(cli, "CERT_CHUNK", 7)
    axis = np.linspace(0.0, 4.0 / 3.0, 5)
    grid = [(float(b), float(c)) for b in axis for c in axis]
    return {j: (f"gen-choi({grid[j - 1][0]:.6g},{grid[j - 1][1]:.6g})", grid[j - 1])
            for j in (9, 10)}


def _edit_gen_choi_certificates(monkeypatch, edit):
    # run edit(certs, k, (b, c)) on map k of every stack of certificates that
    # verify-certificates builds from its (b, c) arrays
    from abssep import sdpsolve

    real = sdpsolve.gen_choi_certificates

    def edited(b, c):
        certs = real(b, c)
        for k, point in enumerate(zip(b.tolist(), c.tolist())):
            edit(certs, k, point)
        return certs

    monkeypatch.setattr(sdpsolve, "gen_choi_certificates", edited)


def _rows_by_name(out):
    return {row.pop("name"): row for row in json.loads(out)}


def test_verify_certificates_rejects_one_map_inside_a_chunk(monkeypatch, capsys):
    from abssep import sdpsolve
    from abssep.errors import CertificateRejected

    maps = _grid5_chunk7(monkeypatch)
    (diamond_label, diamond_point), (max_eig_label, max_eig_point) = maps[10], maps[9]
    broken = {}

    def edit(certs, k, point):
        if point == diamond_point:
            certs.diamond_ys[k, 2, 2] -= 1e-3  # breaks PSD of the Y - J block
            broken["diamond"] = (point, certs.diamond_ys[k].copy())
        if point == max_eig_point:
            certs.max_eig_ys[k, 1, 1] -= 1e-3  # drives an eigenvalue of Y negative
            broken["max-eig"] = (point, certs.max_eig_ys[k].copy())

    _edit_gen_choi_certificates(monkeypatch, edit)
    code, out = run_cli(
        ["verify-certificates", "--grid", "5", "--bh-dims", "4", "--format", "json"], capsys)
    assert code == 2
    # byte for byte what json.dumps prints for these rows, nulls and all
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    rows = _rows_by_name(out)
    assert len(rows) == 8 + 2 * 27
    expected_rejections = {}
    for kind, label in (("diamond", diamond_label), ("max-eig", max_eig_label)):
        (b, c), y = broken[kind]
        jmats = posmaps.choi_matrix(posmaps.dual_map(posmaps.generalized_choi_map(b, c)))[np.newaxis]
        verify = getattr(sdpsolve, f"verify_{kind.replace('-', '_')}_certificates")
        with pytest.raises(CertificateRejected) as info:  # the message of a stack of one
            sdpsolve._one(*verify(jmats, y[np.newaxis]))
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
    label, target = _grid5_chunk7(monkeypatch)[10]

    def edit(certs, k, point):
        if point == target:
            certs.diamond_expected[k] += 1e-11  # ten times --tol certificate

    _edit_gen_choi_certificates(monkeypatch, edit)
    code, out = run_cli(
        ["verify-certificates", "--grid", "5", "--bh-dims", "4", "--format", "json"], capsys)
    assert code == 2
    rows = _rows_by_name(out)
    assert rows[f"diamond {label}"]["status"] == "mismatch"
    assert sum(row["status"] != "ok" for row in rows.values()) == 1


def test_verify_certificates_builds_no_object_per_grid_point(monkeypatch, capsys):
    # 961 grid points: the certificates come from (b, c) arrays, so the only
    # MapSpecs are the Breuer-Hall maps and the only per-point certificates
    # the witness duals
    from abssep import witness

    built = []
    post_init, dual = posmaps.MapSpec.__post_init__, witness.detection_dual_certificate

    def counted(original, kind):
        def wrapper(*args, **kwargs):
            built.append(kind)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(posmaps.MapSpec, "__post_init__", counted(post_init, "MapSpec"))
    monkeypatch.setattr(witness, "detection_dual_certificate", counted(dual, "witness dual"))
    code, out = run_cli(
        ["verify-certificates", "--grid", "31", "--bh-dims", "4", "6", "8", "--format", "json"],
        capsys)
    assert code == 0
    assert len(json.loads(out)) == 8 + 2 * (1 + 31 * 31 + 3)
    assert built.count("MapSpec") == 3
    assert built.count("witness dual") == 8


def test_verify_certificates_screens_every_psd_block_with_no_fallback(monkeypatch, capsys):
    # 8 generalized-Choi chunks and 3 Breuer-Hall groups, each with a diamond
    # and a max-eig stack: eigvalsh runs only for the 11 stacks of max-eig
    # values, and the screen decides all 41 PSD stacks (3 per stack pair and
    # the 8 witness-dual Z), so a screen constant that sent a valid
    # certificate to psd_test would show here
    calls = {"eigvalsh": 0, "psd_screen": 0, "psd_test": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(matcore, name, counted(name, getattr(matcore, name)))
    code, _ = run_cli(
        ["verify-certificates", "--grid", "31", "--bh-dims", "4", "6", "8", "--format", "json"],
        capsys)
    assert code == 0
    assert calls == {"eigvalsh": 11, "psd_screen": 41, "psd_test": 0}


def _reference_min_eigenvalue(a):
    # psd_test's least eigenvalue, from LAPACK on the symmetrized matrix
    a = np.asarray(a, dtype=np.complex128)
    return np.linalg.eigvalsh((a + a.conj().T) / 2.0)[0]


def test_verify_certificates_rejects_only_the_planted_blocks(monkeypatch, capsys):
    # grid 31 checks maps 0-127 as its first chunk; map j > 0 is the dual of
    # Phi_{b,c} at grid point j - 1. Map 77 gets Y = J, so Y - J = 0 passes and
    # Y + J = 2J fails; map 100 gets Y = 0, which fails both blocks and is named
    # by the first, Y - J; the second of three Breuer-Hall n = 8 maps gets -Y as
    # its max-eig Y. Those three rows print the rejection message and nan; every
    # other row keeps its bytes
    from abssep import sdpsolve

    argv = ["verify-certificates", "--grid", "31", "--bh-dims", "4", "6", "8", "8", "8"]
    clean = run_cli(argv, capsys)[1].splitlines()
    axis = np.linspace(0.0, 4.0 / 3.0, 31)
    grid = [(float(b), float(c)) for b in axis for c in axis]
    planted = {77: grid[76], 100: grid[99]}
    seen, rows = {}, {}

    def label(point):
        return f"gen-choi({point[0]:.6g},{point[1]:.6g})"

    def edit(certs, k, point):
        if point == planted[77]:
            certs.diamond_ys[k] = certs.jmats[k]
            lam = _reference_min_eigenvalue(2.0 * certs.jmats[k])
            rows[f"diamond {label(point)}"] = f"Y + J is not PSD (min eigenvalue {lam:.3e})"
        elif point == planted[100]:
            certs.diamond_ys[k] = 0.0
            lam = _reference_min_eigenvalue(-certs.jmats[k])
            assert lam < -0.1 and _reference_min_eigenvalue(certs.jmats[k]) < -0.1  # both fail
            rows[f"diamond {label(point)}"] = f"Y - J is not PSD (min eigenvalue {lam:.3e})"
        else:
            return
        seen[point] = k

    _edit_gen_choi_certificates(monkeypatch, edit)
    real_bh = sdpsolve.breuer_hall_certificates
    bh8_calls = []

    def breuer_hall(phi):
        certs = real_bh(phi)
        if phi.dim == 8:
            bh8_calls.append(phi)
            if len(bh8_calls) == 2:
                certs.max_eig_ys[0] *= -1.0
                lam = _reference_min_eigenvalue(certs.max_eig_ys[0])
                rows["max-eig breuer-hall n=8"] = f"Y is not PSD (min eigenvalue {lam:.3e})"
        return certs

    monkeypatch.setattr(sdpsolve, "breuer_hall_certificates", breuer_hall)
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert len(bh8_calls) == 3
    assert seen == {planted[77]: 77, planted[100]: 100}  # both in the first chunk of 128
    assert cli.CERT_CHUNK == 128
    lines = out.splitlines()
    assert len(lines) == len(clean)
    changed = [(before, after) for before, after in zip(clean, lines) if before != after]
    assert [after for _, after in changed] == [
        f"{name},nan,nan,rejected: {message}" for name, message in rows.items()]
    assert all(before.startswith(f"{name},") for (before, _), name in zip(changed, rows))
    # the Breuer-Hall n = 8 rows that changed: the second map's max-eig row only
    bh8 = [k for k, line in enumerate(clean) if line.startswith("max-eig breuer-hall n=8,")]
    assert [k for k in bh8 if lines[k] != clean[k]] == bh8[1:2]


@pytest.mark.parametrize("factor, rejected", [(0.5, False), (2.0, True)])
def test_certificate_psd_tolerance_scales_with_the_block_norm(
        monkeypatch, capsys, factor, rejected):
    # a max-eig Y of norm 1e6 whose least eigenvalue is -factor * tol * 1e6: the
    # PSD check accepts up to CERT_PSD_TOL times max(1, ||Y||_op), so half that
    # passes and twice that fails, in the grid path and in the one-map verifier
    from abssep import sdpsolve
    from abssep.errors import CertificateRejected

    tol, scale = 1e-10, 1e6  # CERT_PSD_TOL, stated here so that a changed constant shows
    q, _ = np.linalg.qr(np.random.default_rng(23).standard_normal((9, 9)))
    y = (q * np.r_[scale, np.ones(7), -factor * tol * scale]) @ q.T
    y = (y + y.T) / 2.0
    lam = np.linalg.eigvalsh(y)
    assert abs(lam[0] + factor * tol * scale) < 1e-3 * tol * scale
    assert lam[-1] == pytest.approx(scale)

    def edit(certs, k, point):
        if point == (1.0, 0.0):  # the Choi dual
            certs.max_eig_ys[k] = y

    _edit_gen_choi_certificates(monkeypatch, edit)
    code, out = run_cli(
        ["verify-certificates", "--grid", "2", "--bh-dims", "4", "--format", "json"], capsys)
    assert code == 2
    status = _rows_by_name(out)["max-eig choi-dual"]["status"]
    phi = posmaps.dual_map(posmaps.choi_map())
    if rejected:
        assert status == "rejected: Y is not PSD (min eigenvalue -2.000e-04)"
        with pytest.raises(CertificateRejected, match=re.escape(status[len("rejected: "):])):
            sdpsolve.verify_max_eig_certificate(phi, y)
    else:
        assert status == "mismatch"  # accepted, but Y certifies a far larger value
        assert sdpsolve.verify_max_eig_certificate(phi, y) > scale / 2.0


@pytest.mark.parametrize("shift, status", [(1e-6, "rejected"), (1e-11, "mismatch")])
def test_verify_certificates_flags_corrupted_witness_dual(monkeypatch, capsys, shift, status):
    from abssep import witness

    real = witness.detection_dual_certificate

    def corrupted(ell, mn):
        mu, z = real(ell, mn)
        if status == "rejected":
            z[1, 1] -= shift  # the rank-one block loses PSD
        else:
            z[0, 0] += shift  # still PSD, but certifies less than 0
        return mu, z

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


@pytest.mark.parametrize("fraction, inside", [(0.9, True), (1.1, False)])
def test_hull_edge_tol_boundary(fraction, inside):
    # HULL_EDGE_TOL = 1e-12: a point below the b axis, an edge of the hull, by
    # fraction * 1e-12 in its edge function (3(sqrt2 - 1) c) is in the hull at 0.9
    # and out of it at 1.1; so is one left of the c axis
    (x1, _), (_, y3) = cli.HULL_POINTS[1], cli.HULL_POINTS[3]
    offset = -fraction * 1e-12
    b = np.array([0.5, offset / y3])
    c = np.array([offset / x1, 0.5])
    assert cli._in_hull(b, c).tolist() == [inside, inside]


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("fraction, ok", [(0.9, True), (1.1, False)])
def test_certificate_tol_boundary(monkeypatch, capsys, sign, fraction, ok):
    # CERTIFICATE_TOL = 1e-12, the --tol certificate default: a witness-dual row
    # fraction * 1e-12 from its expected 0 reads ok at 0.9 and mismatch at 1.1
    from abssep import sdpsolve

    monkeypatch.setattr(sdpsolve, "verify_min_witness_certificate",
                        lambda *args: sign * fraction * 1e-12)
    code, out = run_cli(["verify-certificates", "--grid", "3", "--bh-dims", "4"], capsys)
    rows = [line.rsplit(",", 3) for line in out.splitlines()[1:]]  # a map name holds commas
    duals = [row[3] for row in rows if row[0].startswith("witness-dual")]
    assert len(duals) == 8 and len(rows) == 30
    assert all(row[3] == "ok" for row in rows if not row[0].startswith("witness-dual"))
    assert duals == ["ok" if ok else "mismatch"] * 8
    assert code == (cli.EXIT_OK if ok else cli.EXIT_NEGATIVE)


@pytest.mark.parametrize("fraction, violated", [(0.9, False), (1.1, True)])
def test_violation_tol_boundary(monkeypatch, tmp_path, capsys, fraction, violated):
    # VIOLATION_TOL = 1e-8, the --tol violation default: a largest orbit-scan
    # value of fraction * 1e-8 is rounding at 0.9 and a violation at 1.1
    path = write_spectrum(tmp_path, families.isotropic_spectrum(3, 0.1))
    monkeypatch.setattr(cli, "_orbit_violations", lambda *args: fraction * 1e-8)
    code, out = run_cli(["orbit-scan", path, "--criterion", "realignment"], capsys)
    report = json.loads(out)
    assert (report["max_violation"], report["tolerance"]) == (fraction * 1e-8, 1e-8)
    assert report["violated"] is violated
    assert code == (cli.EXIT_NEGATIVE if violated else cli.EXIT_OK)


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
SPEC_23 = [0.3, 0.2, 0.15, 0.15, 0.1, 0.1]
SPEC_24 = [0.2, 0.16, 0.14, 0.12, 0.11, 0.1, 0.09, 0.08]

# orbit-scan output, its max_violation the max of reference_violations below
GOLDEN_ORBIT = [
    ((3, 3, SPEC_33), ["--criterion", "realignment", "--samples", "40", "--seed", "9"], 0,
     '{"criterion": "realignment", "max_violation": -0.38894935205373626, "samples": 40, '
     '"seed": 9, "tolerance": 1e-08, "verdict": "Yes", "violated": false}\n'),
    ((3, 3, SPEC_33), ["--criterion", "choi", "--samples", "40", "--seed", "9"], 0,
     '{"criterion": "choi", "max_violation": -0.07550559459676226, "samples": 40, '
     '"seed": 9, "tolerance": 1e-08, "verdict": "Yes", "violated": false}\n'),
    ((3, 3, SPEC_33), ["--criterion", "gen_choi", "--samples", "40", "--seed", "9",
                       "--b", "1.2", "--c", "1.2"], 0,
     '{"criterion": "gen_choi", "max_violation": -0.05845137872268669, "samples": 40, '
     '"seed": 9, "tolerance": 1e-08, "verdict": "Yes", "violated": false}\n'),
    ((4, 4, SPEC_44), ["--criterion", "breuer_hall", "--samples", "40", "--seed", "9"], 0,
     '{"criterion": "breuer_hall", "max_violation": -0.05346256848479204, "samples": 40, '
     '"seed": 9, "tolerance": 1e-08, "verdict": "NecessaryPassedOnly", "violated": false}\n'),
    ((4, 4, SPEC_44), ["--criterion", "realignment", "--samples", "40", "--seed", "9"], 0,
     '{"criterion": "realignment", "max_violation": -0.6526184375611458, "samples": 40, '
     '"seed": 9, "tolerance": 1e-08, "verdict": "NecessaryPassedOnly", "violated": false}\n'),
    ((3, 3, PURE_33), ["--criterion", "realignment", "--samples", "17", "--seed", "2"], 2,
     '{"criterion": "realignment", "max_violation": 1.4904131648196244, "samples": 17, '
     '"seed": 2, "tolerance": 1e-08, "verdict": "No", "violated": true}\n'),
    ((3, 3, PURE_33), ["--criterion", "choi", "--samples", "17", "--seed", "2"], 2,
     '{"criterion": "choi", "max_violation": 0.14154653208949, "samples": 17, '
     '"seed": 2, "tolerance": 1e-08, "verdict": "No", "violated": true}\n'),
    # one sample past a full stack of ORBIT_ENTRIES // (mn)² samples (113, 64 and 50)
    ((2, 3, SPEC_23), ["--criterion", "realignment", "--samples", "130", "--seed", "11"], 0,
     '{"criterion": "realignment", "max_violation": -0.3139713165350825, "samples": 130, '
     '"seed": 11, "tolerance": 1e-08, "verdict": "Yes", "violated": false}\n'),
    ((2, 4, SPEC_24), ["--criterion", "realignment", "--samples", "65", "--seed", "11"], 0,
     '{"criterion": "realignment", "max_violation": -0.4745141860983835, "samples": 65, '
     '"seed": 11, "tolerance": 1e-08, "verdict": "Yes", "violated": false}\n'),
    ((3, 3, SPEC_33), ["--criterion", "choi", "--samples", "51", "--seed", "11"], 0,
     '{"criterion": "choi", "max_violation": -0.07444202208280364, "samples": 51, '
     '"seed": 11, "tolerance": 1e-08, "verdict": "Yes", "violated": false}\n'),
    ((3, 3, SPEC_33), ["--criterion", "gen_choi", "--samples", "51", "--seed", "11",
                       "--b", "1.2", "--c", "1.2"], 0,
     '{"criterion": "gen_choi", "max_violation": -0.061083836116979304, "samples": 51, '
     '"seed": 11, "tolerance": 1e-08, "verdict": "Yes", "violated": false}\n'),
]


@pytest.mark.parametrize("spec, argv, code, expected", GOLDEN_ORBIT)
def test_orbit_scan_golden_bytes(tmp_path, capsys, spec, argv, code, expected):
    from abssep.absppt import Spectrum

    path = write_spectrum(tmp_path, Spectrum(*spec))
    assert run_cli(["orbit-scan", path, *argv], capsys) == (code, expected)


# max_violation of each GOLDEN_ORBIT scan at --samples 1: the violation of its first
# sample, the state Q Λ Q† of the first Ginibre draw of rng_stream(seed, 0)
ONE_SAMPLE_MAX = ["-0.41311348967158734", "-0.07866299263583672", "-0.0688412658858591",
                  "-0.05471562054954319", "-0.6556351873887281", "1.4653704599281716",
                  "0.11567076943765975", "-0.366683396471005", "-0.49624981911151145",
                  "-0.07939682972993287", "-0.06675062039297422"]


@pytest.mark.parametrize("golden, max_violation", zip(GOLDEN_ORBIT, ONE_SAMPLE_MAX))
def test_one_sample_orbit_scan_bytes_are_pinned(tmp_path, capsys, golden, max_violation):
    from abssep.absppt import Spectrum

    spec, argv, code, expected = golden
    report = json.loads(expected)
    samples = argv.index("--samples") + 1
    argv = argv[:samples] + ["1"] + argv[samples + 1:]
    expected = re.sub(r'"max_violation": [^,]*, "samples": \d+',
                      f'"max_violation": {max_violation}, "samples": 1', expected)
    assert (float(max_violation) > 1e-8) is report["violated"]
    path = write_spectrum(tmp_path, Spectrum(*spec))
    assert run_cli(["orbit-scan", path, *argv], capsys) == (code, expected)


@pytest.mark.parametrize("criterion, dims, values, k", [
    ("realignment", (2, 3), SPEC_23, 1),
    ("realignment", (2, 3), SPEC_23, 40),  # 3k = 120 spans two stacks of 113
    ("choi", (3, 3), SPEC_33, 2),
    ("choi", (3, 3), SPEC_33, 20),  # 3k = 60 spans two stacks of 50
])
def test_short_scan_reports_the_first_samples_of_a_longer_one(tmp_path, capsys, criterion,
                                                               dims, values, k):
    from abssep.absppt import Spectrum

    spec = Spectrum(*dims, values)
    violations = reference_violations(spec, criterion, 7, 3 * k)
    path = write_spectrum(tmp_path, spec)
    for count in (k, 3 * k):
        argv = ["orbit-scan", path, "--criterion", criterion, "--samples", str(count), "--seed", "7"]
        _, out = run_cli(argv, capsys)
        assert json.loads(out)["max_violation"] == np.max(violations[:count])


def reference_violations(spec, criterion, seed, count, b=1.2, c=1.2):
    """One Haar rotation at a time, through the single-matrix kernels: each state
    Q Λ Q†, Q the QR factor of the next single Ginibre draw of one
    rng_stream(seed, 0)."""
    phi = {
        "choi": posmaps.choi_map,
        "gen_choi": lambda: posmaps.generalized_choi_map(b, c),
        "breuer_hall": lambda: posmaps.breuer_hall_map(spec.n),
    }.get(criterion, lambda: None)()
    out = []
    rng = bipartite.rng_stream(seed, 0)
    for _ in range(count):
        q = np.linalg.qr(bipartite._ginibre(rng, spec.m * spec.n))[0]
        rho = (q * spec.values) @ q.conj().T
        if phi is None:
            out.append(bipartite.realign_trace_norm(rho, spec.m, spec.n) - 1.0)
        else:
            out.append(-float(matcore.eigvalsh(posmaps.apply_id_tensor(phi, rho, spec.m))[-1]))
    return np.array(out)


@pytest.mark.parametrize("criterion, dims, values", [
    ("realignment", (3, 3), SPEC_33),
    ("realignment", (2, 3), SPEC_23),
    ("choi", (3, 3), SPEC_33),
    ("gen_choi", (3, 3), SPEC_33),
    ("breuer_hall", (4, 4), SPEC_44),
])
@pytest.mark.parametrize("count", [1, 15, 16, 17, 40])
def test_orbit_violations_match_per_sample_loop(criterion, dims, values, count):
    # the scan's worst violation has the bits of the per-sample maximum, though
    # the map scans decompose only the samples that can set it
    from abssep.absppt import Spectrum

    spec = Spectrum(*dims, values)
    got = cli._orbit_violations(spec, criterion, 1.2, 1.2, 13, count)
    want = reference_violations(spec, criterion, 13, count).max()
    assert type(got) is float and np.float64(got).view(np.int64) == want.view(np.int64)


def test_a_map_scan_decomposes_only_the_samples_that_can_set_its_worst_violation(monkeypatch):
    # 100 choi samples in two stacks of 50: the first stack's 8 seeds set the
    # floor, and the screen sends few of the other 92 samples to eigvalsh
    # (10 at this seed); the scan still reports the per-sample maximum
    from abssep.absppt import Spectrum

    spec = Spectrum(3, 3, SPEC_33)
    want = reference_violations(spec, "choi", 1, 100).max()
    rows, eigvalsh = [], np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        rows.append(int(np.prod(a.shape[:-2], dtype=int)))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert cli._orbit_violations(spec, "choi", 1.2, 1.2, 1, 100) == want
    assert rows[0] == 8 and sum(rows) <= 25


@pytest.mark.parametrize("dims, values", [((2, 3), SPEC_23), ((3, 3), SPEC_33),
                                          ((4, 4), SPEC_44)])
def test_orbit_states_are_the_haar_rotations_up_to_rounding(monkeypatch, dims, values):
    # the scan's rho_i = Q_i Λ Q_i† against U_i Λ U_i† of haar_unitary's U_i = Q_i D_i
    # from the same stream, for i < 40 (one stack at (2,3) and (3,3), three at (4,4)).
    # Each computed QR factor is within O(d u) of an exact unitary whose phases
    # cancel against Λ, so ||rho_i - U_i Λ U_i†||_F <= 16 d u ||Λ||_F, u = 2^-53;
    # 4.5 d u ||Λ||_F was the largest seen over 2400 draws
    from abssep.absppt import Spectrum

    spec = Spectrum(*dims, values)
    d = spec.m * spec.n
    stacks = []

    def capture(x, m, n):
        stacks.append(x)
        return np.zeros(x.shape[0])

    monkeypatch.setattr(bipartite, "realign_trace_norm", capture)
    cli._orbit_violations(spec, "realignment", 0.0, 0.0, 21, 40)
    rho = np.concatenate(stacks)
    assert rho.shape == (40, d, d)
    rng = bipartite.rng_stream(21, 0)
    bound = 16 * d * 2.0**-53 * np.linalg.norm(spec.values)
    for i in range(40):
        u = bipartite.haar_unitary(d, rng)
        assert np.linalg.norm(rho[i] - (u * spec.values) @ u.conj().T) <= bound


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_orbit_violations_do_not_depend_on_chunk_size(monkeypatch, chunk):
    # the default takes 50 samples per stack at d = 9; a budget below one 9 x 9
    # matrix leaves the chunk at the ORBIT_CHUNK floor
    from abssep.absppt import Spectrum

    spec = Spectrum(3, 3, SPEC_33)
    expected = cli._orbit_violations(spec, "choi", 1.0, 0.0, 4, 100)
    monkeypatch.setattr(cli, "ORBIT_CHUNK", chunk)
    monkeypatch.setattr(cli, "ORBIT_ENTRIES", 80)
    assert np.array_equal(cli._orbit_violations(spec, "choi", 1.0, 0.0, 4, 100), expected)


def _orbit_chunks(m, n, count):
    """The number of samples in each stack _orbit_violations draws, for a
    realignment scan of count samples on (m, n)."""
    from abssep.absppt import Spectrum

    sizes = []
    ginibre = bipartite._ginibre

    def counting_ginibre(rng, d, k=None):
        sizes.append(k)
        return ginibre(rng, d, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bipartite, "_ginibre", counting_ginibre)
        cli._orbit_violations(Spectrum(m, n, [1.0 / (m * n)] * (m * n)), "realignment", 0.0, 0.0, 1, count)
    return sizes


@pytest.mark.parametrize("dims, chunk", [((2, 2), 256), ((2, 3), 113), ((2, 4), 64), ((3, 3), 50),
                                         ((4, 4), 16), ((5, 5), 16), ((8, 8), 16)])
def test_orbit_chunk_sizes_are_pinned(dims, chunk):
    # never fewer samples than ORBIT_CHUNK, and up to d = 16 no more entries
    # than ORBIT_ENTRIES
    d = dims[0] * dims[1]
    assert _orbit_chunks(*dims, 2 * chunk + 1) == [chunk, chunk, 1]
    assert chunk * d * d <= cli.ORBIT_ENTRIES or chunk == cli.ORBIT_CHUNK


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
    # a scalar re or im; an overflowing or a non-integral dimension, or one
    # that is not a JSON number
    for argv, text in (
        (["witness-analyze"], '{"rows": 1, "cols": 1, "re": 5}'),
        (["witness-analyze"], '{"rows": 1, "cols": 1, "re": [1.0], "im": 0}'),
        (["witness-analyze"], '{"rows": 1.5, "cols": 1, "re": [1.0]}'),
        (["check-spectrum"], '{"m": 1e400, "n": 1, "values": [1.0]}'),
        (["check-spectrum"], '{"m": 1, "n": 1.5, "values": [1.0]}'),
        (["orbit-scan", "--criterion", "realignment"], '{"m": 1e400, "n": 1, "values": [1.0]}'),
        (["check-spectrum"], '{"m": true, "n": 1, "values": [1.0]}'),
        (["check-spectrum"], '{"m": 1, "n": "1", "values": [1.0]}'),
        (["witness-analyze"], '{"rows": true, "cols": 1, "re": [1.0]}'),
        (["witness-analyze"], '{"rows": 1, "cols": "1", "re": [1.0]}'),
    ):
        bad.write_text(text)
        input_error([argv[0], str(bad), *argv[1:]], capsys)


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
    (["check-spectrum", "SPEC", "--tol", "lmi=-1"], "lmi=-1"),
    (["orbit-scan", "SPEC", "--criterion", "realignment", "--tol", "violation=-1e-9"], "violation=-1e-9"),
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


def test_verify_certificates_prints_a_non_hermitian_dual_as_rejected(monkeypatch, capsys):
    # a witness dual Z off by more than the Hermitian gateway allows is a
    # rejected row, exit 2, not an input error; every other row keeps its bytes
    from abssep import witness

    argv = ["verify-certificates", "--grid", "3", "--bh-dims", "4"]
    clean = run_cli(argv, capsys)[1].splitlines()
    real = witness.detection_dual_certificate

    def skewed(ell, mn):
        mu, z = real(ell, mn)
        return mu, (z + np.array([[0.0, 5.0], [0.0, 0.0]]) if ell == -0.3 else z)

    monkeypatch.setattr(witness, "detection_dual_certificate", skewed)
    code, out = run_cli(argv, capsys)
    assert code == 2
    lines = out.splitlines()
    changed = [k for k, (a, b) in enumerate(zip(clean, lines)) if a != b]
    assert len(lines) == len(clean) and changed == [4]
    assert lines[4] == ("witness-dual ell=-0.3,nan,nan,"
                        "rejected: Z0: matrix is not Hermitian (defect 7.071e+00)")


def test_verify_certificates_rejects_only_the_map_a_stack_verifier_refuses(monkeypatch, capsys):
    # a NaN in one grid map's max-eig Y makes the stacked verifier refuse the whole
    # stack; the maps are then verified one at a time, so only that map's row is
    # rejected, exit 2, and every other row keeps its bytes
    argv = ["verify-certificates", "--grid", "3", "--bh-dims", "4"]
    clean = run_cli(argv, capsys)[1].splitlines()
    target = (float(np.linspace(0.0, 4.0 / 3.0, 3)[1]), 0.0)

    def edit(certs, k, point):
        if point == target:
            certs.max_eig_ys[k, 0, 0] = np.nan

    _edit_gen_choi_certificates(monkeypatch, edit)
    code, out = run_cli(argv, capsys)
    assert code == 2
    lines = out.splitlines()
    changed = [k for k, (a, b) in enumerate(zip(clean, lines)) if a != b]
    assert len(lines) == len(clean) == 31 and len(changed) == 1
    assert lines[changed[0]] == ("max-eig gen-choi(0.666667,0),nan,nan,"
                                 "rejected: Y: matrix has non-finite entries")
