"""Command-line surface.

Commands: check-spectrum, witness-analyze, verify-certificates, fig-data,
orbit-scan, family. All file I/O uses the shared matrix/spectrum JSON
formats; CSV output is byte-stable (%.12g, LF line endings).

Exit codes: 0 success, 2 verdict-negative (failed check, rejected
certificate, violation found), 3 input error, including a bad flag or
config-file line.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import absppt, bipartite, families, matcore, posmaps, sdpsolve, witness
from .errors import CertificateRejected, ToolkitError

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_INPUT = 3

ORBIT_CHUNK = 16  # Haar samples per stacked draw; bounds orbit-scan's working memory
CERT_CHUNK = 64  # maps per stacked certificate check; bounds verify-certificates' working memory

HULL_POINTS = (
    (0.0, 0.0),
    (3.0 * (math.sqrt(2.0) - 1.0), 0.0),
    (6.0 / 5.0, 6.0 / 5.0),
    (0.0, 3.0 * (math.sqrt(2.0) - 1.0)),
)  # counterclockwise


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.12g" % float(value)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_report(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _count(args, name: str) -> int:
    """The value of --name, which must be at least 1."""
    value = getattr(args, name)
    if value < 1:
        raise ValueError(f"--{name} must be at least 1, got {value}")
    return value


# ----------------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------------


def cmd_check_spectrum(args) -> tuple[str, int]:
    spec = absppt.Spectrum.from_json(_load_json(args.file))
    verdict = absppt.is_abs_ppt(spec, tol=args.tol["lmi"])
    mins = absppt.lmi_min_eigenvalues(spec)
    report = {
        "verdict": verdict.value,
        "lmi_min_eigenvalue": float(np.min(mins)) if mins.size else None,
        "dims": [spec.m, spec.n],
    }
    return _json_report(report), EXIT_NEGATIVE if verdict is absppt.AbsPptVerdict.NO else EXIT_OK


def cmd_witness_analyze(args) -> tuple[str, int]:
    w = matcore.matrix_from_json(_load_json(args.file))
    summary = witness.summarize(w)
    verdict = witness.cannot_detect_abs_ppt(summary)
    threshold = (
        witness.detection_threshold(summary.ell) if summary.ell >= -0.5 else None
    )
    report = {
        "mu1": summary.mu1,
        "ell": summary.ell,
        "neg_count": summary.neg_count,
        "threshold": threshold,
        "verdict": verdict.value,
    }
    code = EXIT_OK if verdict is witness.DetectionVerdict.GUARANTEED else EXIT_NEGATIVE
    return _json_report(report), code


def _certificate_row(name: str, result, expected: float, tol: float) -> list:
    """One verify-certificates row: result is the certified value or the rejection."""
    if isinstance(result, CertificateRejected):
        return [name, math.nan, math.nan, f"rejected: {result}"]
    return [name, result, expected, "ok" if abs(result - expected) <= tol else "mismatch"]


def _witness_dual_rows(tol: float) -> list[list]:
    """The lower bound 0 on the (3, 3) witness minimization, certified at special ell."""
    rows = []
    for ell in (-0.5, -2.0 / 5.0, witness.SPLIT_LOW, -0.3, witness.SPLIT_HIGH,
                -1.0 / 6.0, -1.0 / 5.0, 0.0):
        cert = witness.detection_dual_certificate(ell, witness.detection_threshold(ell), 9)
        try:
            result = sdpsolve.verify_min_witness_certificate(
                cert.values["mu"], (3, 3), "submatrix2x2", [cert.values["Z"]])
        except CertificateRejected as exc:
            result = exc
        rows.append(_certificate_row(f"witness-dual ell={ell:.6g}", result, cert.expected_value, tol))
    return rows


def _certificate_jobs(bh_dims, grid) -> list[tuple[str, posmaps.MapSpec]]:
    """(label, map) for every map whose analytic diamond and max-eig certificates
    verify-certificates checks, in row order: the Choi dual, the duals of the
    generalized Choi maps on the grid, then Breuer-Hall for each n in bh_dims."""
    jobs = [("choi-dual", posmaps.dual_map(posmaps.choi_map()))]
    jobs += [(f"gen-choi({b:.6g},{c:.6g})", posmaps.dual_map(posmaps.generalized_choi_map(b, c)))
             for b, c in grid]
    jobs += [(f"breuer-hall n={n}", posmaps.dual_map(posmaps.breuer_hall_map(n)))
             for n in bh_dims]
    return jobs


def _verify_stack(verify, phis, jmats, certs) -> list:
    """verify's per-map results for the certificates' Y stack; a rejection of the
    whole stack rejects each map."""
    try:
        return verify(phis, jmats, np.stack([cert.values["Y"] for cert in certs]))
    except CertificateRejected as exc:
        return [exc] * len(certs)


def _map_certificate_rows(jobs, tol: float) -> list[list]:
    """The diamond and max-eig rows of each (label, map) job. Consecutive maps of
    one kind and dimension are verified CERT_CHUNK at a time as stacks, from one
    Choi matrix per map; every map keeps its own row and status, whatever the
    chunking."""
    rows = []
    for _, run in itertools.groupby(jobs, key=lambda job: (job[1].kind, job[1].dim)):
        run = list(run)
        for start in range(0, len(run), CERT_CHUNK):
            labels, phis = zip(*run[start:start + CERT_CHUNK])
            jmats = posmaps.choi_matrices(phis)
            diamond = sdpsolve.diamond_certificates(phis, jmats)
            max_eig = [sdpsolve.max_eig_certificate(phi) for phi in phis]
            checked = zip(labels, diamond, max_eig,
                          _verify_stack(sdpsolve.verify_diamond_certificates, phis, jmats, diamond),
                          _verify_stack(sdpsolve.verify_max_eig_certificates, phis, jmats, max_eig))
            for label, dcert, mcert, dres, mres in checked:
                rows.append(_certificate_row(f"diamond {label}", dres, dcert.expected_value, tol))
                rows.append(_certificate_row(f"max-eig {label}", mres, mcert.expected_value, tol))
    return rows


def cmd_verify_certificates(args) -> tuple[str, int]:
    """Check every analytic certificate and print one row each: the witness-dual
    rows, then a diamond and a max-eig row per map of _certificate_jobs. A row is
    ok when the verified value is within --tol certificate of the expected one,
    mismatch when it is not, and rejected when a PSD block or the shape of Y fails;
    any row that is not ok makes the exit code 2."""
    axis = np.linspace(0.0, 4.0 / 3.0, _count(args, "grid"))
    grid = [(float(b), float(c)) for b in axis for c in axis]
    tol = args.tol["certificate"]
    jobs = _certificate_jobs(args.bh_dims, grid)
    rows = _witness_dual_rows(tol) + _map_certificate_rows(jobs, tol)
    failures = sum(1 for row in rows if row[3] != "ok")
    if args.format == "json":
        text = _json_report(
            [
                {"name": r[0], "value": None if math.isnan(r[1]) else r[1],
                 "expected": None if math.isnan(r[2]) else r[2], "status": r[3]}
                for r in rows
            ]
        )
    else:
        text = _csv(["name", "value", "expected", "status"], rows)
    return text, EXIT_NEGATIVE if failures else EXIT_OK


def _point_in_hull(b: float, c: float) -> bool:
    pts = HULL_POINTS
    for i in range(len(pts)):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % len(pts)]
        cross = (x1 - x0) * (c - y0) - (y1 - y0) * (b - x0)
        if cross < -1e-12:
            return False
    return True


def _fig_f_curve() -> str:
    rows = []
    for ell in np.linspace(-0.5, 0.0, 1001):
        rows.append([float(ell), witness.detection_threshold(float(ell)), ""])
    r2 = math.sqrt(2.0)
    labeled = [
        (-0.5, 0.5, "i"),
        (-0.4, 0.6, "ii"),
        (witness.SPLIT_LOW, (1.0 + r2) / 4.0, "iii"),
        (witness.SPLIT_HIGH, (1.0 + r2) / 4.0, "iv"),   # left limit at the jump
        (witness.SPLIT_HIGH, (2.0 + r2) / 4.0, "v"),
        (-0.2, 0.9, "vi"),
        (0.0, 1.0, "vii"),
    ]
    rows.extend([ell, mu, label] for ell, mu, label in labeled)
    return _csv(["ell", "mu1_bound", "label"], rows)


def _fig_phi_bc_region(grid_n: int) -> str:
    axis = np.linspace(0.0, 4.0 / 3.0, grid_n)
    rows = []
    for b in axis:
        for c in axis:
            b, c = float(b), float(c)
            rows.append(
                [
                    b,
                    c,
                    posmaps.is_positive_bc(b, c),
                    posmaps.is_indecomposable_bc(b, c),
                    posmaps.is_exposed_bc(b, c),
                    _point_in_hull(b, c),
                ]
            )
    return _csv(["b", "c", "positive", "indecomposable", "exposed", "hull_member"], rows)


def _fig_gen_choi_ub(grid_n: int) -> str:
    axis = np.linspace(0.0, 4.0 / 3.0, grid_n)
    rows = []
    for b in axis:
        for c in axis:
            b, c = float(b), float(c)
            if sdpsolve.gen_choi_outer(b, c):
                case = 1
            elif b + c >= 2.0 / 3.0:
                case = 2
            else:
                case = 0
            rows.append([b, c, case, sdpsolve.gen_choi_max_eig_bound(b, c)])
    return _csv(["b", "c", "case", "mu1_bound"], rows)


def _fig_upb_interval(samples: int) -> str:
    rows = []
    for p in np.linspace(0.5, 0.8, samples):
        p = float(p)
        lam = float(matcore.eigvalsh(families.upb_lmi_matrix(p))[-1])
        verdict = families.upb_classify(p)
        rows.append([p, lam, lam >= -absppt.LMI_PSD_TOL, verdict.value])
    return _csv(["p", "lmi_min_eig", "abs_ppt", "classification"], rows)


def cmd_fig_data(args) -> tuple[str, int]:
    if args.figure == "f_curve":
        text = _fig_f_curve()
    elif args.figure == "phi_bc_region":
        text = _fig_phi_bc_region(_count(args, "grid"))
    elif args.figure == "gen_choi_ub":
        text = _fig_gen_choi_ub(_count(args, "grid"))
    else:  # upb_interval; argparse admits only the four figures
        text = _fig_upb_interval(_count(args, "samples"))
    return text, EXIT_OK


def _orbit_violations(spec, criterion, b, c, seed, count) -> np.ndarray:
    """Violation of the criterion on each of count Haar rotations of the spectrum.

    Sample i is rotated by a unitary drawn from rng_stream(seed, i), keyed by
    one stream_keys call for all samples; samples are processed ORBIT_CHUNK at
    a time as one stack, so the result does not depend on the chunking.
    """
    m, n = spec.m, spec.n
    if criterion == "realignment":
        phi = None
    elif criterion == "choi":
        phi = posmaps.choi_map()
    elif criterion == "gen_choi":
        phi = posmaps.generalized_choi_map(b, c)
    elif criterion == "breuer_hall":
        phi = posmaps.breuer_hall_map(n)
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    out = np.empty(count)
    keys = bipartite.stream_keys(seed, np.arange(count))
    for start in range(0, count, ORBIT_CHUNK):
        stop = min(start + ORBIT_CHUNK, count)
        u = bipartite.haar_unitaries(m * n, keys[start:stop])
        rho = (u * spec.values) @ u.conj().swapaxes(-1, -2)
        if phi is None:
            trace_norms = matcore.singular_values(bipartite.realign(rho, m, n)).sum(axis=-1)
            out[start:stop] = trace_norms - 1.0
        else:
            out[start:stop] = -matcore.eigvalsh(posmaps.apply_id_tensor(phi, rho, m))[..., -1]
    return out


def cmd_orbit_scan(args) -> tuple[str, int]:
    spec = absppt.Spectrum.from_json(_load_json(args.file))
    if args.criterion in {"choi", "gen_choi"} and (spec.m, spec.n) != (3, 3):
        raise ValueError("Choi-family criteria need a (3, 3) spectrum")
    if args.criterion == "breuer_hall":
        if spec.m != spec.n or spec.n % 2 != 0 or spec.n < 4:
            raise ValueError("Breuer-Hall criterion needs (n, n) dims with even n >= 4")
    count = _count(args, "samples")
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    violations = _orbit_violations(spec, args.criterion, args.b, args.c, args.seed, count)
    tol = args.tol["violation"]
    max_violation = float(np.max(violations))
    report = {
        "criterion": args.criterion,
        "samples": count,
        "seed": args.seed,
        "max_violation": max_violation,
        "tolerance": tol,
        "violated": bool(max_violation > tol),
        "verdict": absppt.is_abs_ppt(spec).value,
    }
    return _json_report(report), EXIT_NEGATIVE if max_violation > tol else EXIT_OK


def cmd_family(args) -> tuple[str, int]:
    if args.kind == "werner":
        if args.n is None or args.alpha is None:
            raise ValueError("werner needs --n and --alpha")
        spec = families.werner_spectrum(args.n, args.alpha)
        case1, case2 = families.werner_lmi_min_eigs(args.n, args.alpha)
        report = {
            "family": "werner",
            "n": args.n,
            "alpha": args.alpha,
            "classification": families.werner_classify(args.n, args.alpha).value,
            "lmi_min_eigs": [case1, case2],
            "spectrum": [float(v) for v in spec.values],
        }
    elif args.kind == "isotropic":
        if args.n is None or args.alpha is None:
            raise ValueError("isotropic needs --n and --alpha")
        spec = families.isotropic_spectrum(args.n, args.alpha)
        report = {
            "family": "isotropic",
            "n": args.n,
            "alpha": args.alpha,
            "classification": families.isotropic_classify(args.n, args.alpha).value,
            "threshold": families.isotropic_threshold(args.n),
            "spectrum": [float(v) for v in spec.values],
        }
    else:  # upb; argparse admits only the three kinds
        if args.p is None:
            raise ValueError("upb needs --p")
        spec = families.upb_spectrum(args.p)
        report = {
            "family": "upb",
            "p": args.p,
            "classification": families.upb_classify(args.p).value,
            "abs_ppt_threshold": families.UPB_ABS_PPT_THRESHOLD,
            "abs_sep_threshold": families.UPB_ABS_SEP_THRESHOLD,
            "lmi_min_eig": float(matcore.eigvalsh(families.upb_lmi_matrix(args.p))[-1]),
            "spectrum": [float(v) for v in spec.values],
        }
    return _json_report(report), EXIT_OK


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so main reports them as input errors."""

    def error(self, message):
        raise ValueError(message)


class _TolAction(argparse.Action):
    """--tol NAME=VALUE; the names are the keys of the command's default."""

    def __call__(self, parser, namespace, value, option_string=None):
        tols = dict(getattr(namespace, self.dest))  # the default belongs to the cached parser
        name, sep, number = value.partition("=")
        if not sep or name not in tols:
            names = ", ".join(tols)
            raise argparse.ArgumentError(self, f"expected NAME=VALUE, NAME in {names}: {value!r}")
        try:
            tols[name] = float(number)
        except ValueError:
            tols[name] = math.nan
        if not math.isfinite(tols[name]):
            raise argparse.ArgumentError(self, f"expected a finite value: {value!r}")
        setattr(namespace, self.dest, tols)


def _add_tol(sub, **defaults):
    listed = ", ".join(f"{name}={value:g}" for name, value in defaults.items())
    sub.add_argument("--tol", action=_TolAction, default=defaults, metavar="NAME=VALUE",
                     help=f"override a tolerance (default: {listed}); tol.NAME=VALUE in --config")


def _config_flags(path: str) -> list[str]:
    """The config file as flags: key=value is --key=value, tol.NAME=V is --tol=NAME=V.

    Each flag is one token, so a value can never be taken for a positional.
    '#' starts a comment.
    """
    flags = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise ValueError(f"malformed config line {raw!r}")
            if key == "config":
                raise ValueError("a config file cannot name another config file")
            if key.startswith("tol."):
                key, value = "tol", f"{key[4:]}={value}"
            flags.append(f"--{key}={value}")
    return flags


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="abssep",
        description="Spectral separability toolkit: absolute-PPT checks, "
        "witness analysis, SDP certificates and parametric families.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check-spectrum", help="absolute-PPT verdict for a spectrum file")
    p.add_argument("file")
    _add_tol(p, lmi=absppt.LMI_PSD_TOL)
    p.set_defaults(func=cmd_check_spectrum)

    p = subs.add_parser("witness-analyze", help="eigenvalue summary and detection verdict")
    p.add_argument("file")
    p.set_defaults(func=cmd_witness_analyze)

    p = subs.add_parser("verify-certificates", help="verify all analytic SDP certificates")
    p.add_argument("--bh-dims", type=int, nargs="+", default=(4, 6), help="default: 4 6")
    p.add_argument("--grid", type=int, default=21, help="points per (b, c) axis; default: 21")
    p.add_argument("--format", choices=["csv", "json"], default="csv", help="default: csv")
    _add_tol(p, certificate=1e-12)
    p.set_defaults(func=cmd_verify_certificates)

    p = subs.add_parser("fig-data", help="emit figure data as CSV")
    p.add_argument(
        "figure", choices=["f_curve", "phi_bc_region", "gen_choi_ub", "upb_interval"]
    )
    p.add_argument("--grid", type=int, default=121, help="points per (b, c) axis; default: 121")
    p.add_argument("--samples", type=int, default=301, help="upb_interval points; default: 301")
    p.set_defaults(func=cmd_fig_data)

    p = subs.add_parser("orbit-scan", help="test a criterion over Haar orbits of a spectrum")
    p.add_argument("file")
    p.add_argument(
        "--criterion",
        choices=["realignment", "choi", "gen_choi", "breuer_hall"],
        required=True,
    )
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=2024, help="default: 2024")
    p.add_argument("--samples", type=int, default=200, help="Haar samples; default: 200")
    _add_tol(p, violation=1e-8)
    p.set_defaults(func=cmd_orbit_scan)

    p = subs.add_parser("family", help="parametric family reports")
    p.add_argument("kind", choices=["werner", "isotropic", "upb"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.set_defaults(func=cmd_family)

    for p in subs.choices.values():
        p.add_argument("--out", help="write the report here instead of to stdout")
        p.add_argument("--config", metavar="FILE",
                       help="key=value lines, each one of these flags; the command line wins")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            at = argv.index(args.command) + 1  # the file's flags go first, so later ones win
            args = parser.parse_args(argv[:at] + _config_flags(args.config) + argv[at:])
        text, code = args.func(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", newline="\n") as fh:
                fh.write(text)
        return code
    except (ToolkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
