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


@pytest.mark.parametrize("m, n", [(2, 3), (2, 4), (3, 4)])
def test_check_spectrum_is_the_same_at_n_by_m(tmp_path, capsys, m, n):
    # the verdict, exit code and lmi_min_eigenvalue do not depend on which
    # factor is the smaller: a spread spectrum (No), an absolutely PPT draw,
    # the maximally mixed one and a concentrated one (Yes)
    from abssep import absppt

    rng = np.random.default_rng(m * n)
    spectra = [rng.dirichlet(np.ones(m * n)), absppt.sample_abs_ppt_spectrum(m, n, rng).values,
               np.full(m * n, 1.0 / (m * n)), rng.dirichlet(np.full(m * n, 20.0))]
    verdicts = set()
    for values in spectra:
        reports = []
        for dims in ((m, n), (n, m)):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"m": dims[0], "n": dims[1], "values": values.tolist()}))
            code, out = run_cli(["check-spectrum", str(path)], capsys)
            report = json.loads(out)
            assert report.pop("dims") == list(dims)
            reports.append((code, report))
        assert reports[0] == reports[1]
        verdicts.add(reports[0][1]["verdict"])
    assert verdicts == {"No", "Yes"}


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

def _spectrum(m, n, values) -> str:
    return json.dumps({"m": m, "n": n, "values": values})


# the files a CORPUS command names as {name}
CORPUS_INPUTS = {
    "spec33": _spectrum(3, 3, SPEC_33),
    "spec44": _spectrum(4, 4, SPEC_44),
    "pure33": _spectrum(3, 3, PURE_33),
    "spec23": _spectrum(2, 3, SPEC_23),
    "spec24": _spectrum(2, 4, SPEC_24),
    "spec13": _spectrum(1, 3, [0.5, 0.3, 0.2]),
    "short33": _spectrum(3, 3, [0.5, 0.5]),
    "notjson": "not json at all",
    "mixed9": matrix_json(np.eye(9) / 9.0),
    "extremal9": matrix_json(np.diag([0.62, 0.62, 0.16, 0.0, 0.0, 0.0, 0.0, 0.0, -0.4])),
    "skew2": matrix_json([[0.0, 1.0], [0.0, 0.0]]),
    "scan_cfg": "seed = 11\nsamples = 6\ntol.violation = 1e-6  # loose\n",
    "bad_cfg": "tol.lmi\n",
}

# (command, exit code, stdout lines, stdout sha256, stderr): every byte each command
# prints. A change that moves bytes replaces only the entries it moves, each with
# the tuple its failure message gives, and lists them in CHANGES.md
CORPUS = [
    # verify-certificates: every certified value at full precision (repr in JSON); a port
    # that squares with numpy's ** 2 instead of libm pow changes grid 80's rows
    ("verify-certificates", 0, 897,
     "27a99714b399c9f49e1fd4e817161ad3b45590991cb25cb009ce735a2a252334", ""),
    ("verify-certificates --grid 31 --bh-dims 4 6 8 --format json", 0, 1,
     "4ec5599aaf465357e360a5c0cfd4dc07b5ed2c1e4d41ca3d5b47a374b390a268", ""),
    ("verify-certificates --grid 80 --bh-dims 4 --format json", 0, 1,
     "addf86c062788014c463b939c7d546ed2f3f7ec9802efe36b8a7ed2645b9c8df", ""),
    ("verify-certificates --grid 5 --bh-dims 4 6", 0, 65,
     "9f47f72a302525905e4610cc0fc98a9c616ed9cd1fd79bd45fcb91a6d21a545d", ""),
    # exit 2 on the generalized-Choi corner defect: b = c = 1 - 2^-53 lies on these grids,
    # and its row reads max-eig gen-choi(1,1),0.5,2.66666666667,mismatch
    ("verify-certificates --grid 89", 2, 15857,
     "2a96d4ef46ca20931a44925e6498b9dc3bd1b9979ca96294d4dc77603f311acd", ""),
    ("verify-certificates --grid 121", 2, 29297,
     "bb46ea0b4a343c8298d863fbd7789a825b809bb99ad42db77f5fc59247bc1c0c", ""),
    ("verify-certificates --grid 3 --bh-dims 4 --tol certificate=1e-17", 2, 31,
     "c5db9c225e95de9ab0e8dd0b1005a8a80a9b7588140e04cca873fdb326d60d09", ""),
    # fig-data: closed forms, plus upb_interval's eigenvalues of a small matrix (all
    # above 1e-4 in magnitude) printed with %.12g, far coarser than LAPACK's rounding
    ("fig-data f_curve", 0, 1009,
     "500192ae0ed0c41d018e5478fed3ff1cc8145d0912ce59be7b98027d3991c73b", ""),
    ("fig-data phi_bc_region", 0, 14642,
     "74f7f81533c55c6f2f78e2ae99db3edbbcb46656fbe844f2b31d2d60e29cd1a4", ""),
    ("fig-data gen_choi_ub", 0, 14642,
     "6f002553439f07dee080909579989c2ee980fcc93ffd96edcde9b316c9ae87f7", ""),
    ("fig-data upb_interval", 0, 302,
     "a5fe85a6aecf23de7e14d184f83853788214fb761a62312e93c67d98269c0c5b", ""),
    ("fig-data phi_bc_region --grid 2", 0, 5,
     "83516e3b3da812f8ecc03512584d8f2322cff2419e4bc75095a2c9de862b6913", ""),
    ("fig-data phi_bc_region --grid 37", 0, 1370,
     "e70d9b3ad44d52d4887ff54e1857764cd1abceb408d5823a6c83d82229856a51", ""),
    ("fig-data gen_choi_ub --grid 1", 0, 2,
     "b891cf741df19e8e79119d3536b4ca4519a9a8c09eee7c5d3d8e27016feb7a0c", ""),
    ("fig-data gen_choi_ub --grid 46", 0, 2117,
     "9972b39c02edc4a8c313e0258b46c81397f04db5987ff93763c6098e322a210a", ""),
    ("fig-data upb_interval --samples 1", 0, 2,
     "471c65a4849baeb6a25c311e534c7c2b7fc876e46145257d37af4c5c9b9bca0a", ""),
    ("fig-data upb_interval --samples 7", 0, 8,
     "dc284d7be44dcf4a0d8d63de57d5c1e87f52e87671b728f2c6aebbb70b5f0c63", ""),
    # orbit-scan: sample i is Q_i Λ Q_i†, Q_i the QR factor of the i-th Ginibre draw of
    # rng_stream(seed, 0), so --samples 1 pins the first draw of each longer scan
    ("orbit-scan {spec33} --criterion realignment --samples 40 --seed 9", 0, 1,
     "a6a77c34493918152eef8746923b8311b3fb6f6349ba76998dbd7241bf09bce1", ""),
    ("orbit-scan {spec33} --criterion choi --samples 40 --seed 9", 0, 1,
     "ff0aa65be8e264a250563cf55d3442b0901487845b00dffc7dc817c94625205a", ""),
    ("orbit-scan {spec33} --criterion gen_choi --samples 40 --seed 9 --b 1.2 --c 1.2", 0, 1,
     "6228897e92247e504802ce280ffc26bbda444c6da8d0ba85f9cb2bf1eae00651", ""),
    ("orbit-scan {spec44} --criterion breuer_hall --samples 40 --seed 9", 0, 1,
     "b5db06022c0390ef65cba10b27da7156803bbeb1dec98208f4529ca10e3e9f53", ""),
    ("orbit-scan {spec44} --criterion realignment --samples 40 --seed 9", 0, 1,
     "b8aafc7f0921fbf6fc079becc0a91afc5ac9ebb496228ee26bc7fc0d91be772a", ""),
    ("orbit-scan {pure33} --criterion realignment --samples 17 --seed 2", 2, 1,
     "9f6689f3741ef56d18c29a9014a4ddd55d5e836df4521370d2fb34379027633f", ""),
    ("orbit-scan {pure33} --criterion choi --samples 17 --seed 2", 2, 1,
     "70ca67ec18369a2b32c4cac1769a05f096e134f0f3bb3008ee76c6fc156575b5", ""),
    # one sample past a full stack of ORBIT_ENTRIES // (mn)² samples (113, 64 and 50)
    ("orbit-scan {spec23} --criterion realignment --samples 130 --seed 11", 0, 1,
     "35cf357f1c29d4e16668f2af138a683ef6148a1e1c5ad579767aa5444ad31d8e", ""),
    ("orbit-scan {spec24} --criterion realignment --samples 65 --seed 11", 0, 1,
     "b0842c8e9a8f982d5ac61ff6410d606fa97036be747cb63f3e76865cbc1aa3e8", ""),
    ("orbit-scan {spec33} --criterion choi --samples 51 --seed 11", 0, 1,
     "544e4b79cf5b3992d48b8697f62b7f630d743a3c2c4069dd2b75ddabeda7eaf9", ""),
    ("orbit-scan {spec33} --criterion gen_choi --samples 51 --seed 11 --b 1.2 --c 1.2", 0, 1,
     "0a07c7c10597b46dfdabd02ea0b149222497a81a40b09b205d134b0bfe80d61a", ""),
    ("orbit-scan {spec33} --criterion realignment --samples 1 --seed 9", 0, 1,
     "954985ba49e8c568cdc39c6e0f39a29ff4a16fb7c25bd100119b8a748b2a1f27", ""),
    ("orbit-scan {spec33} --criterion choi --samples 1 --seed 9", 0, 1,
     "33823a0ae17959dfdc2d1dd71b4aa6d98526fae38db22c611d4294cf998353fb", ""),
    ("orbit-scan {spec33} --criterion gen_choi --samples 1 --seed 9 --b 1.2 --c 1.2", 0, 1,
     "cbe9e7eba858fdd8bba5abffb318f92e045eb39c1a6d81a451d0327df6599582", ""),
    ("orbit-scan {spec44} --criterion breuer_hall --samples 1 --seed 9", 0, 1,
     "2fd1e18432ba0de70caffbef59e51a704d7cc0d020b3fcc76d983165870f661a", ""),
    ("orbit-scan {spec44} --criterion realignment --samples 1 --seed 9", 0, 1,
     "7f1649b9bfbb2c0fab0dfc8c32aa8ff2c6acc982dd5f48b41088861a4b3d9e5a", ""),
    ("orbit-scan {pure33} --criterion realignment --samples 1 --seed 2", 2, 1,
     "284707a72d3826ab11d79d8035c798d7dcf3649b00481085f3e3a13b4247aee2", ""),
    ("orbit-scan {pure33} --criterion choi --samples 1 --seed 2", 2, 1,
     "3db842f6c181d9ad74559c9dcdd4098dc68074dc121baefb9b4fa3e30f9fe0b3", ""),
    ("orbit-scan {spec23} --criterion realignment --samples 1 --seed 11", 0, 1,
     "2b9179086f387e6057aa4e7a7f1675a9c1cce0e42baedf00fc3b5698c48f9241", ""),
    ("orbit-scan {spec24} --criterion realignment --samples 1 --seed 11", 0, 1,
     "d37f5b661445eff263e189a74544f5e3c0884018e9a6cfc77ba53ec1f9850eb4", ""),
    ("orbit-scan {spec33} --criterion choi --samples 1 --seed 11", 0, 1,
     "b504dab0259c8856af0d21b3489ff2e22261dc1dd7f9dac35efe51301a2e4b22", ""),
    ("orbit-scan {spec33} --criterion gen_choi --samples 1 --seed 11 --b 1.2 --c 1.2", 0, 1,
     "60ca9baa44450275bd6b573c0a7b604067dc21e0992a7180f33a3d11b7022744", ""),
    ("orbit-scan {spec33} --criterion realignment --samples 200 --seed 9", 0, 1,
     "ff0fc8b313779f9776c0c946b792167a3304ac126804695f1a9e588b3d1b3452", ""),
    ("orbit-scan {spec33} --criterion choi --samples 200 --seed 9", 0, 1,
     "ae75d6494b052452e22c1703ff13f71f8838241bd72b017cfdf8057b18cbd5bf", ""),
    ("orbit-scan {spec33} --criterion gen_choi --samples 200 --seed 9 --b 1.2 --c 1.2", 0, 1,
     "16b6b8e04ad3191560673aa8f700c39ae54e51a1cd83c36b8d8a078de38e71ee", ""),
    ("orbit-scan {spec44} --criterion breuer_hall --samples 200 --seed 9", 0, 1,
     "1bc0dc267519d376edc5019fb91b6bc01cad5c9638f8420d165368df23e24512", ""),
    ("orbit-scan {spec44} --criterion realignment --samples 200 --seed 9", 0, 1,
     "b4a215d92ee006d1e2b067fbd29ddcfd6a89e3fa36d08c8e089b0fec122ceba6", ""),
    ("orbit-scan {pure33} --criterion realignment --samples 200 --seed 2", 2, 1,
     "e95ac4fe74ab07108ceb499d54f710d2afe0a81843740615b11ac2861b4f2af1", ""),
    ("orbit-scan {pure33} --criterion choi --samples 200 --seed 2", 2, 1,
     "ff8e8903a88fdd4009c19042f2436301d6e21e60a68d7f03d8f36dfbed9a3901", ""),
    ("orbit-scan {spec23} --criterion realignment --samples 200 --seed 11", 0, 1,
     "95b6380e0d4c1533495840621010eb45baa2bc6daa02991e5f1be68ce2a068ea", ""),
    ("orbit-scan {spec24} --criterion realignment --samples 200 --seed 11", 0, 1,
     "8a135f796b486f2d62743458b2e744fec32216aaf800e482767fbd8a2e9dd114", ""),
    ("orbit-scan {spec33} --criterion choi --samples 200 --seed 11", 0, 1,
     "2c8da0eb6891ad9e7e4bf6afc51eb7b9bec777d511bfe54fdb5f50896b6a9fd6", ""),
    ("orbit-scan {spec33} --criterion gen_choi --samples 200 --seed 11 --b 1.2 --c 1.2", 0, 1,
     "75c8e6bd8c9563ca214d792b287745d4e6f84ff13645f2ccd802a171f48e01d6", ""),
    ("orbit-scan {spec33} --criterion choi --config {scan_cfg}", 0, 1,
     "9ef1134eedd3dd809c594059f0a92dd7dcb67e6d192c001390b30eb998db8a59", ""),
    ("orbit-scan {spec33} --criterion choi --config {scan_cfg} --samples 3", 0, 1,
     "1d3da16b518a43d7de1d93fcba8aa18020945330d6c1351fb6f890ea1a85d54f", ""),
    # check-spectrum Yes, No, NecessaryPassedOnly, and (1, n) with its empty LMI stack
    ("check-spectrum {spec33}", 0, 1,
     "a5d9be9af17cf2ca667098201083066b1fb2205593df9b35d60b5987b5d201a6", ""),
    ("check-spectrum {pure33}", 2, 1,
     "7a6be264c13c56a53b2cbe5fd505da8ef70712826e84a4bc9381e55fcb4781e3", ""),
    ("check-spectrum {spec44}", 0, 1,
     "3526296eef7be1ccce54988f72c069c60137c11d4624399aec6298afb1808b77", ""),
    ("check-spectrum {spec13}", 0, 1,
     "5f0bc698ffcf1ab8309456d1e11fbb72c49754617624fbef05b70b624f634fce", ""),
    # witness-analyze Guaranteed, and Inconclusive with mu1 beyond the threshold
    ("witness-analyze {mixed9}", 0, 1,
     "d545353b52de9fbcc61575f5cdd3e85893c7a543833eef752cb1c77915471872", ""),
    ("witness-analyze {extremal9}", 2, 1,
     "0867a4d0b08d4ebf7c586182dfd3ca1af6449f09428494481f1d3852387d1bc6", ""),
    ("family werner --n 3 --alpha -0.45", 0, 1,
     "300a8690aa1ee4935657c10813b9ddd5068fc413879afbda1ab75130a8c21052", ""),
    ("family isotropic --n 3 --alpha 0.18", 0, 1,
     "81b026eae4e3fb0dffa96473ea0981d5880cc0139bff5c9dea5ef0e94118c23b", ""),
    ("family upb --p 0.65", 0, 1,
     "140de10fc747c34ddf2cd292b2d37f08a5905e26fe3e693ed7016c0df1ab8036", ""),
    # input errors: exit 3, nothing on stdout; a --config cannot supply a required flag
    ("orbit-scan {spec33} --criterion realignment --samples 0", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: --samples must be at least 1, got 0\n"),
    ("orbit-scan {spec33} --criterion realignment --samples -3", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: --samples must be at least 1, got -3\n"),
    ("fig-data upb_interval --samples 0", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: --samples must be at least 1, got 0\n"),
    ("fig-data upb_interval --samples -3", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: --samples must be at least 1, got -3\n"),
    ("fig-data phi_bc_region --grid 0", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: --grid must be at least 1, got 0\n"),
    ("fig-data phi_bc_region --grid -2", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: --grid must be at least 1, got -2\n"),
    ("fig-data gen_choi_ub --grid 0", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: --grid must be at least 1, got 0\n"),
    ("fig-data gen_choi_ub --grid -2", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: --grid must be at least 1, got -2\n"),
    ("verify-certificates --grid 0", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: --grid must be at least 1, got 0\n"),
    ("verify-certificates --grid -2", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: --grid must be at least 1, got -2\n"),
    ("verify-certificates --grid 2 --bh-dims 5", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: Breuer-Hall dimension must be even and >= 4\n"),
    ("orbit-scan {spec33} --criterion realignment --seed -1", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: --seed must be nonnegative, got -1\n"),
    ("orbit-scan {spec33} --criterion realignment --tol violaton=1", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: argument --tol: expected NAME=VALUE, NAME in violation: 'violaton=1'\n"),
    ("orbit-scan {spec33} --criterion breuer_hall", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: Breuer-Hall criterion needs (n, n) dims with even n >= 4\n"),
    ("orbit-scan {spec23} --criterion choi", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: Choi-family criteria need a (3, 3) spectrum\n"),
    ("check-spectrum {short33}", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: expected 9 eigenvalues, got 2\n"),
    ("check-spectrum {notjson}", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: Expecting value: line 1 column 1 (char 0)\n"),
    ("check-spectrum no-such-file.json", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: [Errno 2] No such file or directory: 'no-such-file.json'\n"),
    ("check-spectrum {spec33} --config {bad_cfg}", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: malformed config line 'tol.lmi\\n'\n"),
    ("orbit-scan {spec33} --config {scan_cfg}", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: the following arguments are required: --criterion\n"),
    ("witness-analyze {skew2}", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: matrix is not Hermitian (defect 1.414e+00)\n"),
    ("family werner --n 3", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: werner needs --n and --alpha\n"),
    ("family isotropic --n 3 --alpha 2", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: isotropic parameter alpha = 2.0 outside [-0.125, 1]\n"),
    ("family upb", 3, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: upb needs --p\n"),
]


@pytest.mark.parametrize("entry", CORPUS, ids=[entry[0] for entry in CORPUS])
def test_cli_corpus(tmp_path, capsys, entry):
    paths = {name: tmp_path / name for name in CORPUS_INPUTS}
    for name, text in CORPUS_INPUTS.items():
        paths[name].write_text(text)
    code = cli.main([arg.format(**paths) for arg in entry[0].split()])
    out, err = capsys.readouterr()
    actual = (entry[0], code, len(out.splitlines()), hashlib.sha256(out.encode()).hexdigest(), err)
    assert actual == entry, f"the command now gives {actual!r}"


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
    ("realignment", (3, 2), SPEC_23),
    ("realignment", (2, 4), SPEC_24),
    ("choi", (3, 3), SPEC_33),
    ("gen_choi", (3, 3), SPEC_33),
    ("breuer_hall", (4, 4), SPEC_44),
])
@pytest.mark.parametrize("count", [1, 15, 16, 17, 40])
def test_orbit_violations_match_per_sample_loop(criterion, dims, values, count):
    # the scan's worst violation has the bits of the per-sample maximum, though
    # the map scans and the 2 ⊗ n realignment scans decompose only the samples
    # that can set it; the (3,2) and (3,3) realignment scans decompose them all
    from abssep.absppt import Spectrum

    spec = Spectrum(*dims, values)
    got = cli._orbit_violations(spec, criterion, 1.2, 1.2, 13, count)
    want = reference_violations(spec, criterion, 13, count).max()
    assert type(got) is float and np.float64(got).view(np.int64) == want.view(np.int64)


def test_a_map_scan_decomposes_only_the_samples_that_can_set_its_worst_violation(lapack_rows):
    # 100 choi samples in two stacks of 50: the first stack's 8 seeds set the
    # floor, and the screen sends few of the other 92 samples to eigvalsh
    # (10 at this seed); the scan still reports the per-sample maximum
    from abssep.absppt import Spectrum

    spec = Spectrum(3, 3, SPEC_33)
    want = reference_violations(spec, "choi", 1, 100).max()
    rows = lapack_rows("eigvalsh")
    assert cli._orbit_violations(spec, "choi", 1.2, 1.2, 1, 100) == want
    assert rows[0] == 8 and sum(rows) <= 25


def test_a_2_by_4_realignment_scan_decomposes_only_the_samples_that_can_set_its_worst_violation(
        lapack_rows):
    # 100 samples in stacks of 64 and 36: the first stack's 4 seeds of largest
    # row bound set the floor, and the screen sends few of the other 96 samples
    # to the SVD (13 at this seed, 17 decompositions in all); the scan still
    # reports the per-sample maximum
    from abssep.absppt import Spectrum

    spec = Spectrum(2, 4, SPEC_24)
    want = reference_violations(spec, "realignment", 1, 100).max()
    rows = lapack_rows("svd")
    assert cli._orbit_violations(spec, "realignment", 0.0, 0.0, 1, 100) == want
    assert rows[0] == 4 and sum(rows) <= 17


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

    def capture(x, m, n, floor):
        stacks.append(x)
        return 0.0

    monkeypatch.setattr(bipartite, "realign_trace_norm_max", capture)
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


@pytest.mark.parametrize("argv, module, allocator", [
    (["family", "werner", "--n", "100000", "--alpha", "0.1"], families, "werner_spectrum"),
    (["verify-certificates", "--grid", "100000"], cli, "_bc_grid"),
], ids=["family", "verify-certificates"])
def test_an_allocation_too_large_for_the_host_is_an_input_error(monkeypatch, capsys, argv,
                                                                  module, allocator):
    # the input sizes an array past this host's memory: numpy raises MemoryError
    # (37.3 GiB for family werner --n 100000), which exits 3 with its message
    message = "Unable to allocate 37.3 GiB for an array with shape (100000, 50000)"

    def allocate(*args):
        raise MemoryError(message)

    monkeypatch.setattr(module, allocator, allocate)
    assert input_error(argv, capsys) == f"error: {message}\n"


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
