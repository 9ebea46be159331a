"""Command-line surface.

Commands: check-spectrum, witness-analyze, verify-certificates, fig-data,
orbit-scan, family. All file I/O uses the shared matrix/spectrum JSON
formats. Tables are written column by column, each distinct value formatted
once and the strings gathered back: CSV byte-stable (%.12g, LF line
endings), and the verify-certificates JSON table byte for byte what
json.dumps(rows, sort_keys=True) gives for its row dicts.

Exit codes: 0 success, 2 verdict-negative (failed check, rejected
certificate, violation found), 3 input error, including a bad flag or
config-file line.

The functions that call the package's modules import them in their own
body, so a process loads only what its command uses. Every command loads
absppt (the parser's LMI tolerance), with matcore and bipartite; orbit-scan
adds posmaps, witness-analyze witness, family families, verify-certificates
sdpsolve, posmaps and witness, and fig-data what its figure needs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from .errors import CertificateRejected, DomainError, ToolkitError

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_INPUT = 3

# An orbit-scan stack holds max(ORBIT_CHUNK, ORBIT_ENTRIES // d²) Haar samples of
# d x d, d = mn. Up to d = 16 the budget bounds the per-chunk stacks (the draws, the
# rotated states and what the criterion builds from them) at the entries of a (4,4)
# stack of 16; above it a stack holds 16 samples. The output stays O(count), at
# 8 bytes per sample.
ORBIT_CHUNK = 16  # fewest Haar samples per stacked draw
ORBIT_ENTRIES = 4096  # matrix entries per stacked draw, where that is more samples
CERT_CHUNK = 128  # grid maps per stack, built and verified at once; bounds working memory
VIOLATION_TOL = 1e-8  # --tol default: an orbit-scan value above it is a violation, not rounding
CERTIFICATE_TOL = 1e-12  # --tol default: a certificate row within it of its closed form is ok

HULL_POINTS = (
    (0.0, 0.0),
    (3.0 * (math.sqrt(2.0) - 1.0), 0.0),
    (6.0 / 5.0, 6.0 / 5.0),
    (0.0, 3.0 * (math.sqrt(2.0) - 1.0)),
)  # counterclockwise
# how far below 0 _in_hull's edge functions may fall at a point it counts as in the
# hull: a point computed on a slanted edge, x0 + t (x1 - x0), y0 + t (y1 - y0),
# reads up to ~1.5e-16 either side of 0. The grid points on edges (the axes and the
# vertex (6/5, 6/5)) read exactly 0, so the phi_bc_region grid never uses it
HULL_EDGE_TOL = 1e-12


def _float_strings(values: np.ndarray, spec: str, special: dict | None = None) -> list[str]:
    """format(v, spec) for each float64 v, formatted once per distinct bit
    pattern, so -0.0 and 0.0 keep their own strings; special, if given, maps
    the text of each non-finite value to the text printed instead."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    floats = bits.view(np.float64)
    text = np.array(list(map(format, floats.tolist(), itertools.repeat(spec))), dtype=object)
    if special is not None:
        odd = ~np.isfinite(floats)
        text[odd] = [special[t] for t in text[odd]]
    return text[inverse].tolist()


def _column_strings(column) -> list[str]:
    """The CSV fields of a column: bools as 1/0, ints by str, strings as given,
    floats by %.12g; each distinct int or float formatted once."""
    col = np.asarray(column)
    if col.dtype.kind == "b":
        return np.where(col, "1", "0").tolist()
    if col.dtype.kind in "iu":
        ints, inverse = np.unique(col, return_inverse=True)
        return np.array(list(map(str, ints.tolist())), dtype=object)[inverse].tolist()
    if col.dtype.kind in "UO":
        return list(column)
    return _float_strings(col, ".12g")  # the kind left: float64


def _columns_csv(header: list[str], columns) -> str:
    """A CSV, LF line endings, from equal-length columns: arrays or sequences."""
    rows = map(",".join, zip(*map(_column_strings, columns), strict=True))
    return "\n".join(itertools.chain([",".join(header)], rows)) + "\n"


# json.dumps spells these floats so; NaN stands for a missing value, None
_JSON_FLOATS = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _json_strings(column) -> list[str]:
    """The JSON texts of a column: a float64 array by repr, each distinct float
    once, NaN as null; any other column is strings, escaped as json.dumps
    escapes them."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return _float_strings(column, "", _JSON_FLOATS)
    return list(map(json.encoder.encode_basestring_ascii, column))


def _columns_json(header: list[str], columns) -> str:
    """json.dumps of the list of row dicts {header[k]: columns[k][i]}, keys
    sorted, plus a newline, byte for byte; written column by column from one
    row template, with no row dict."""
    order = sorted(range(len(header)), key=header.__getitem__)
    template = "{%s}" % ", ".join(
        json.encoder.encode_basestring_ascii(header[k]).replace("%", "%%") + ": %s"
        for k in order)
    rows = zip(*(_json_strings(columns[k]) for k in order), strict=True)
    return "[" + ", ".join(map(template.__mod__, rows)) + "]\n"


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
    from . import absppt
    spec = absppt.Spectrum.from_json(_load_json(args.file))
    mins = absppt.lmi_min_eigenvalues(spec)
    verdict = absppt.lmi_verdict(spec, mins, tol=args.tol["lmi"])
    report = {
        "verdict": verdict.value,
        "lmi_min_eigenvalue": float(np.min(mins)) if mins.size else None,
        "dims": [spec.m, spec.n],
    }
    return _json_report(report), EXIT_NEGATIVE if verdict is absppt.AbsPptVerdict.NO else EXIT_OK


def cmd_witness_analyze(args) -> tuple[str, int]:
    from . import matcore, witness
    w = matcore.matrix_from_json(_load_json(args.file))
    summary = witness.summarize(w)
    verdict = witness.cannot_detect_abs_ppt(summary)
    try:
        threshold = witness.detection_threshold(summary.ell)
    except DomainError:
        threshold = None
    report = {
        "mu1": summary.mu1,
        "ell": summary.ell,
        "neg_count": summary.neg_count,
        "threshold": threshold,
        "verdict": verdict.value,
    }
    code = EXIT_OK if verdict is witness.DetectionVerdict.GUARANTEED else EXIT_NEGATIVE
    return _json_report(report), code


def _certificate_columns(names, values, expected, failures: dict[int, str], tol: float) -> tuple:
    """verify-certificates rows as (name, value, expected, status) columns: status
    is ok where |value - expected| <= tol and mismatch elsewhere, but row k of
    failures is rejected with that message and prints nan for both numbers."""
    values, expected = np.array(values, dtype=np.float64), np.array(expected, dtype=np.float64)
    status = np.where(np.abs(values - expected) <= tol, "ok", "mismatch").tolist()
    for k, message in failures.items():
        values[k] = expected[k] = math.nan
        status[k] = f"rejected: {message}"
    return names, values, expected, status


def _witness_dual_columns(tol: float) -> tuple:
    """The lower bound 0 on the (3, 3) witness minimization, certified at special ell."""
    from . import sdpsolve, witness
    names, values, failures = [], [], {}
    for k, ell in enumerate((-0.5, -2.0 / 5.0, witness.SPLIT_LOW, -0.3, witness.SPLIT_HIGH,
                             -1.0 / 6.0, -1.0 / 5.0, 0.0)):
        mu, z = witness.detection_dual_certificate(ell, 9)
        names.append(f"witness-dual ell={ell:.6g}")
        try:
            values.append(sdpsolve.verify_min_witness_certificate(mu, (3, 3), "submatrix2x2", [z]))
        except CertificateRejected as exc:
            values.append(math.nan)
            failures[k] = str(exc)
    return _certificate_columns(names, values, [0.0] * len(names), failures, tol)


def _verified(verify, jmats: np.ndarray, ys) -> tuple[np.ndarray, dict[int, str]]:
    """(values, {k: message}) of a stacked verifier on k maps, checked in one
    call. A stack it rejects whole (a wrong shape, a non-finite or non-Hermitian
    Y) is checked again one map at a time, so only the maps at fault print
    rejected, with nan for their value."""
    from . import sdpsolve
    try:
        values, checks = verify(jmats, ys)
    except CertificateRejected:
        values, failures = np.full(len(jmats), math.nan), {}
        for k in range(len(jmats)):
            try:
                values[k] = sdpsolve._one(*verify(jmats[k:k + 1], ys[k:k + 1]))
            except CertificateRejected as exc:
                failures[k] = str(exc)
        return values, failures
    return values, sdpsolve.certificate_failures(checks)


def _map_certificate_columns(labels, certs, tol: float) -> tuple:
    """The diamond and max-eig rows of the k maps of an sdpsolve.CertificateStack,
    as columns: map i gives rows 2i and 2i + 1. Each verifier checks the whole
    stack at once, unless it rejects the stack whole (see _verified)."""
    from . import sdpsolve
    diamond, diamond_failures = _verified(
        sdpsolve.verify_diamond_certificates, certs.jmats, certs.diamond_ys)
    max_eig, max_eig_failures = _verified(
        sdpsolve.verify_max_eig_certificates, certs.jmats, certs.max_eig_ys)
    failures = {2 * k: message for k, message in diamond_failures.items()}
    failures.update((2 * k + 1, message) for k, message in max_eig_failures.items())
    names = [f"{kind} {label}" for label in labels for kind in ("diamond", "max-eig")]
    return _certificate_columns(
        names, np.stack([diamond, max_eig], axis=1).ravel(),
        np.stack([certs.diamond_expected, certs.max_eig_expected], axis=1).ravel(), failures, tol)


def _certificate_stacks(bh_dims, b: np.ndarray, c: np.ndarray):
    """(labels, CertificateStack) of every map whose analytic certificates
    verify-certificates checks, in row order: the Choi dual and the duals of the
    generalized Choi maps Phi_{b,c} on the grid, built from (b, c) arrays
    CERT_CHUNK maps at a time, then Breuer-Hall, its own dual, one stack of one
    for each n in bh_dims. The Choi dual is the dual of Phi_{1,0}."""
    from . import posmaps, sdpsolve
    b, c = np.concatenate([[1.0], b]), np.concatenate([[0.0], c])
    labels = ["choi-dual"] + [f"gen-choi({x},{y})" for x, y in
                              zip(_float_strings(b[1:], ".6g"), _float_strings(c[1:], ".6g"))]
    for start in range(0, b.size, CERT_CHUNK):
        chunk = slice(start, start + CERT_CHUNK)
        yield labels[chunk], sdpsolve.gen_choi_certificates(b[chunk], c[chunk])
    for n in bh_dims:
        yield [f"breuer-hall n={n}"], sdpsolve.breuer_hall_certificates(posmaps.breuer_hall_map(n))


def cmd_verify_certificates(args) -> tuple[str, int]:
    """Check every analytic certificate and print one row each: the witness-dual
    rows, then a diamond and a max-eig row per map of _certificate_stacks. A row
    is ok when the verified value is within --tol certificate of the expected
    one, mismatch when it is not, and rejected when a PSD block fails; any row
    that is not ok makes the exit code 2."""
    b, c = _bc_grid(_count(args, "grid"))
    tol = args.tol["certificate"]
    parts = [_witness_dual_columns(tol)]
    parts += [_map_certificate_columns(labels, certs, tol)
              for labels, certs in _certificate_stacks(args.bh_dims, b, c)]
    names, values, expected, status = zip(*parts)
    names, status = list(itertools.chain(*names)), list(itertools.chain(*status))
    columns = [names, np.concatenate(values), np.concatenate(expected), status]
    if args.format == "json":
        text = _columns_json(["name", "value", "expected", "status"], columns)
    else:
        text = _columns_csv(["name", "value", "expected", "status"], columns)
    return text, EXIT_OK if all(s == "ok" for s in status) else EXIT_NEGATIVE


def _bc_grid(grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid_n x grid_n (b, c) grid over [0, 4/3]² as two flat arrays, b-major."""
    axis = np.linspace(0.0, 4.0 / 3.0, grid_n)
    b, c = np.meshgrid(axis, axis, indexing="ij")
    return b.ravel(), c.ravel()


def _in_hull(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Elementwise: (b, c) lies in the convex hull of HULL_POINTS."""
    inside = np.ones(b.shape, dtype=bool)
    for (x0, y0), (x1, y1) in zip(HULL_POINTS, HULL_POINTS[1:] + HULL_POINTS[:1]):
        inside &= (x1 - x0) * (c - y0) - (y1 - y0) * (b - x0) >= -HULL_EDGE_TOL
    return inside


def _fig_f_curve() -> str:
    from . import witness
    low, high = witness.SPLIT_LOW, witness.SPLIT_HIGH
    # (ell, the ell whose threshold is printed, label); iv is the left limit at the jump
    labeled = [(-0.5, -0.5, "i"), (-0.4, -0.4, "ii"), (low, low, "iii"), (high, low, "iv"),
               (high, high, "v"), (-0.2, -0.2, "vi"), (0.0, 0.0, "vii")]
    curve = [(ell, ell, "") for ell in np.linspace(-0.5, 0.0, 1001).tolist()]
    ell, at, label = zip(*curve, *labeled)
    return _columns_csv(["ell", "mu1_bound", "label"],
                        [ell, witness.detection_threshold(at), label])


def _fig_phi_bc_region(grid_n: int) -> str:
    from . import posmaps
    b, c = _bc_grid(grid_n)
    return _columns_csv(
        ["b", "c", "positive", "indecomposable", "exposed", "hull_member"],
        [b, c, posmaps.is_positive_bc(b, c), posmaps.is_indecomposable_bc(b, c),
         posmaps.is_exposed_bc(b, c), _in_hull(b, c)])


def _fig_gen_choi_ub(grid_n: int) -> str:
    from . import sdpsolve
    b, c = _bc_grid(grid_n)
    case = np.where(sdpsolve.gen_choi_outer(b, c), 1, np.where(b + c >= 2.0 / 3.0, 2, 0))
    return _columns_csv(["b", "c", "case", "mu1_bound"],
                        [b, c, case, sdpsolve.gen_choi_max_eig_bound(b, c)])


def _fig_upb_interval(samples: int) -> str:
    from . import absppt, families, matcore
    p = np.linspace(0.5, 0.8, samples)
    lam = matcore.eigvalsh(families.upb_lmi_matrix(p))[:, -1]
    return _columns_csv(["p", "lmi_min_eig", "abs_ppt", "classification"],
                        [p, lam, lam >= -absppt.LMI_PSD_TOL,
                         [c.value for c in families.upb_classify(p)]])


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


def _orbit_violations(spec, criterion, b, c, seed, count) -> float:
    """The criterion's worst violation over count Haar rotations of the spectrum:
    max ||R(rho)||_1 - 1 for realignment, -min lambda_min((id ⊗ Φ)(rho)) for a map.

    Every rotation comes from one generator, rng_stream(seed, 0): sample i is
    Q_i Λ Q_i†, Q_i the QR factor of the i-th Ginibre draw. The i-th
    bipartite.haar_unitary(mn, rng) call returns U_i = Q_i D_i, whose phases
    D_i cancel against Λ, and its 1/√2 prescale leaves Q_i as it is in exact
    arithmetic: the state is U_i Λ U_i† up to rounding. Samples are processed
    max(ORBIT_CHUNK, ORBIT_ENTRIES // d²) at a time as one stack, d = mn, its
    Ginibre normals drawn in one call, the stacks taking the draws in order:
    the result does not depend on the chunking, and the first k samples of a
    scan are those of any longer scan with the same seed. A map criterion
    carries the least eigenvalue found so far from stack to stack
    (matcore.least_eigenvalue), so a sample that cannot go below it is never
    decomposed; the result has the bits of the per-sample maximum.
    """
    from . import bipartite, matcore, posmaps
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
    top, least = -math.inf, math.inf
    rng = bipartite.rng_stream(seed, 0)
    chunk = max(ORBIT_CHUNK, ORBIT_ENTRIES // (m * n) ** 2)
    for start in range(0, count, chunk):
        q = np.linalg.qr(bipartite._ginibre(rng, m * n, min(chunk, count - start)))[0]
        rho = (q * spec.values) @ q.conj().swapaxes(-1, -2)
        if phi is None:
            top = max(top, float(bipartite.realign_trace_norm(rho, m, n).max()))
        else:
            least = matcore.least_eigenvalue(posmaps.apply_id_tensor(phi, rho, m), least)
    return top - 1.0 if phi is None else -least


def cmd_orbit_scan(args) -> tuple[str, int]:
    """Scan count Haar rotations of the spectrum for the criterion's worst
    violation (_orbit_violations), and report it against the violation
    tolerance with the spectrum's absolute-PPT verdict."""
    from . import absppt
    spec = absppt.Spectrum.from_json(_load_json(args.file))
    if args.criterion in {"choi", "gen_choi"} and (spec.m, spec.n) != (3, 3):
        raise ValueError("Choi-family criteria need a (3, 3) spectrum")
    if args.criterion == "breuer_hall":
        if spec.m != spec.n or spec.n % 2 != 0 or spec.n < 4:
            raise ValueError("Breuer-Hall criterion needs (n, n) dims with even n >= 4")
    count = _count(args, "samples")
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    max_violation = _orbit_violations(spec, args.criterion, args.b, args.c, args.seed, count)
    tol = args.tol["violation"]
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
    from . import families, matcore
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
        if not math.isfinite(tols[name]) or tols[name] < 0.0:
            raise argparse.ArgumentError(self, f"expected a finite value >= 0: {value!r}")
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
    from . import absppt
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
    _add_tol(p, certificate=CERTIFICATE_TOL)
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
    _add_tol(p, violation=VIOLATION_TOL)
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
