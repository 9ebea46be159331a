"""The three benchmark workloads, each a fixed round of operations.

A workload is built from the workload seed alone. Its round is a list of
Ops; the benchmark repeats whole rounds, so every run attempts the same
operations in the same proportions. An Op's ``run`` is the timed call into
the program; its ``check`` (untimed) raises checks.CheckFailed on a wrong
output and returns the number of work items it checked.

The program is driven through its public surface only: ``cli.main(argv)``
in-process for the orbit and certify workloads, and the public functions of
``absppt``, ``posmaps`` and ``sdpsolve`` for the sampler draws and the
solves. ``--workers`` is never passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks

WORKLOADS = ("orbit", "certify", "solve")

ORBIT_SAMPLES = 100          # Haar-rotated states per orbit-scan
ORBIT_DRAWS = 2              # sampler draws per dimension pair
SAMPLER_DIMS = ((2, 2), (2, 3), (2, 4), (3, 3))
HULL_POINT = (6.0 / 5.0, 6.0 / 5.0)
CERT_GRID = 31               # finer than the default 21 points per axis
BH_DIMS = (4, 6, 8)
FIG_GRID = 121               # fig-data defaults
UPB_SAMPLES = 301
MIN_WITNESS_TOL = 1e-8
SOLVER_TOL = 1e-7


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], int]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """abssep.cli.main in-process, with its standard output captured."""
    from abssep import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _json_out(result) -> tuple[int, Any]:
    code, text = result
    try:
        return code, json.loads(text)
    except json.JSONDecodeError as exc:
        raise checks.CheckFailed(f"output is not JSON: {exc}") from exc


def _write_spectrum(path: str, m: int, n: int, values) -> None:
    with open(path, "w") as fh:
        json.dump({"m": m, "n": n, "values": [float(v) for v in values]}, fh)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


# ----------------------------------------------------------------------------
# orbit: Haar-orbit scans of absolutely PPT spectra
# ----------------------------------------------------------------------------


def gurvits_barnum_spectrum(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """A spectrum inside the Gurvits-Barnum ball, hence absolutely separable.

    ||lambda - 1/d||_2 <= 1/sqrt(d(d-1)) with d = mn; a unit direction
    orthogonal to the all-ones vector keeps every entry nonnegative.
    """
    d = m * n
    u = rng.standard_normal(d)
    u -= u.mean()
    u /= np.linalg.norm(u)
    radius = rng.uniform(0.5, 0.95) / math.sqrt(d * (d - 1.0))
    return np.sort(np.full(d, 1.0 / d) + radius * u)[::-1]


def _scan_op(path: str, m: int, n: int, values_of: Callable[[], Any], criterion: str,
             seed: int, label: str, expect_violation: bool = False) -> Op:
    argv = ["orbit-scan", path, "--criterion", criterion,
            "--samples", str(ORBIT_SAMPLES), "--seed", str(seed)]
    if criterion == "gen_choi":
        argv += ["--b", repr(HULL_POINT[0]), "--c", repr(HULL_POINT[1])]

    def check(result):
        code, report = _json_out(result)
        return checks.check_orbit_report(
            code, report, criterion=criterion, values=values_of(), m=m, n=n,
            samples=ORBIT_SAMPLES, seed=seed, expect_violation=expect_violation)

    return Op(f"orbit-scan {criterion} {label}", lambda: run_cli(argv), check)


def build_orbit(seed: int, workdir: str) -> list[Op]:
    from abssep import absppt

    rng = _rng(seed, "orbit")
    ops: list[Op] = []

    def seed_int() -> int:
        return int(rng.integers(1, 2**31 - 1))

    for m, n in SAMPLER_DIMS:
        for k in range(ORBIT_DRAWS):
            label = f"sampled ({m},{n})#{k}"
            path = os.path.join(workdir, f"sample-{m}x{n}-{k}.json")
            drawn: dict[str, np.ndarray] = {}
            draw_seed = seed_int()

            # the draw's check also writes the spectrum file the scans after it read
            def check_draw(spec, m=m, n=n, path=path, drawn=drawn):
                checks.check_sampled_spectrum(spec.values, m, n)
                drawn["values"] = np.array(spec.values)
                _write_spectrum(path, m, n, spec.values)
                return 0

            ops.append(Op(f"sample ({m},{n})#{k}",
                          lambda m=m, n=n, s=draw_seed: absppt.sample_abs_ppt_spectrum(m, n, s),
                          check_draw))
            criteria = ["realignment"] + (["choi", "gen_choi"] if (m, n) == (3, 3) else [])
            for criterion in criteria:
                ops.append(_scan_op(path, m, n, lambda d=drawn: d["values"], criterion, seed_int(), label))

    for (m, n), criteria in (((3, 3), ("realignment", "choi", "gen_choi")),
                             ((4, 4), ("realignment", "breuer_hall"))):
        values = gurvits_barnum_spectrum(m, n, rng)
        path = os.path.join(workdir, f"ball-{m}x{n}.json")
        _write_spectrum(path, m, n, values)
        for criterion in criteria:
            ops.append(_scan_op(path, m, n, lambda v=values: v, criterion, seed_int(),
                                f"ball ({m},{n})"))

    # negative control: a pure state is entangled for almost every rotation
    pure = np.zeros(9)
    pure[0] = 1.0
    path = os.path.join(workdir, "rank-one-3x3.json")
    _write_spectrum(path, 3, 3, pure)
    ops.append(_scan_op(path, 3, 3, lambda: pure, "realignment", seed_int(), "rank-one (3,3)",
                        expect_violation=True))
    return ops


# ----------------------------------------------------------------------------
# certify: analytic certificates, figure data and closed-form verdicts
# ----------------------------------------------------------------------------


def build_certify(seed: int, workdir: str) -> list[Op]:
    rng = _rng(seed, "certify")
    ops: list[Op] = []

    def delta() -> float:
        return float(rng.uniform(0.005, 0.05))

    cert_argv = ["verify-certificates", "--grid", str(CERT_GRID), "--format", "json",
                 "--bh-dims", *map(str, BH_DIMS)]
    ops.append(Op("verify-certificates", lambda: run_cli(cert_argv),
                  lambda r: checks.check_certificates(*_json_out(r), CERT_GRID, BH_DIMS)))
    figures = {
        "f_curve": lambda r: checks.check_f_curve(*r),
        "phi_bc_region": lambda r: checks.check_phi_bc_region(*r, FIG_GRID),
        "gen_choi_ub": lambda r: checks.check_gen_choi_ub(*r, FIG_GRID),
        "upb_interval": lambda r: checks.check_upb_interval(*r, UPB_SAMPLES),
    }
    for fig, check in figures.items():
        ops.append(Op(f"fig-data {fig}", lambda f=fig: run_cli(["fig-data", f]), check))

    # check-spectrum on both sides of each family's absolute-PPT threshold
    spectra = []
    for alpha in (1.0 / 3.0 + delta(), 1.0 / 3.0 - delta(), -0.5 - delta(), -0.5 + delta()):
        spectra.append((f"werner n=3 alpha={alpha:.6g}", 3, 3, checks.werner_spectrum(3, alpha)))
    for n in (2, 3):
        t = 2.0 / (2.0 + n * n)
        for alpha in (t - delta(), t + delta()):
            spectra.append((f"isotropic n={n} alpha={alpha:.6g}", n, n, checks.isotropic_spectrum(n, alpha)))
    for p in (checks.UPB_ABS_PPT - delta(), checks.UPB_ABS_PPT + delta()):
        spectra.append((f"upb p={p:.6g}", 3, 3, checks.upb_spectrum(p)))
    for k, (label, m, n, values) in enumerate(spectra):
        path = os.path.join(workdir, f"family-{k}.json")
        _write_spectrum(path, m, n, values)
        ops.append(Op(f"check-spectrum {label}",
                      lambda p=path: run_cli(["check-spectrum", p]),
                      lambda r, v=values, m=m, n=n: checks.check_spectrum_verdict(*_json_out(r), v, m, n)))

    # family reports on both sides of the closed-form thresholds
    reports = [("werner", 3, a) for a in (1.0 / 3.0 + delta(), 1.0 / 3.0 - delta(),
                                          -0.4 - delta(), -0.5 - delta())]
    reports += [("isotropic", n, 2.0 / (2.0 + n * n) + s * delta()) for n in (3, 4) for s in (-1, 1)]
    mid = (checks.UPB_ABS_PPT + checks.UPB_ABS_SEP) / 2.0
    reports += [("upb", None, p) for p in (checks.UPB_ABS_PPT - delta(), mid + 0.01 * (rng.uniform() - 0.5),
                                           checks.UPB_ABS_SEP + delta())]
    for kind, n, param in reports:
        argv = ["family", kind] + (["--n", str(n), "--alpha", repr(param)] if n else ["--p", repr(param)])
        ops.append(Op(f"family {kind} {param:.6g}", lambda a=argv: run_cli(a),
                      lambda r, k=kind, n=n, x=param: checks.check_family(*_json_out(r), k, n, x)))
    return ops


# ----------------------------------------------------------------------------
# solve: barrier SDPs through sdpsolve.solve
# ----------------------------------------------------------------------------

# The solver's Newton-step count is bimodal on neighbouring inputs (about 80
# or about 470 steps), so seeded witness parameters would make one round cost
# anywhere from 10 s to 40 s. The solve inputs are therefore fixed points:
# the midpoint of each threshold branch, the sharpness point and two
# generalized Choi duals; the seed does not enter.
BRANCH_MIDPOINTS = {
    "a": (-0.5 + checks.SPLIT_LOW) / 2.0,
    "b": (checks.SPLIT_LOW + checks.SPLIT_HIGH) / 2.0,
    "c": checks.SPLIT_HIGH / 2.0,
}
SHARPNESS_POINT = (-0.4, 0.6 + 0.02)
GEN_CHOI_DUALS = (HULL_POINT, (0.2, 0.2))


def build_solve(seed: int, workdir: str) -> list[Op]:
    from abssep import posmaps, sdpsolve

    ops: list[Op] = []
    results: dict[str, Any] = {}

    def min_witness(label, mu, dims, mode, property_check):
        def run():
            return sdpsolve.solve(sdpsolve.min_witness_problem(mu, dims, mode), tol=MIN_WITNESS_TOL)

        def check(sol):
            value = checks.check_min_witness(sol, mu, dims[0], dims[1], mode)
            if mode == "full":
                results[label] = sol
                property_check(value)
            else:
                checks.check_relaxation(value, sol.gap, results[label].primal_value)
            return 1

        ops.append(Op(f"min-witness {label} {mode}", run, check))

    for branch, ell in BRANCH_MIDPOINTS.items():
        mu = checks.extremal_witness(ell, checks.threshold(ell), 9)
        for mode in ("full", "submatrix2x2"):
            min_witness(f"(3,3) branch {branch}", mu, (3, 3), mode, checks.check_at_threshold)
    ell, mu1 = SHARPNESS_POINT
    mu = checks.extremal_witness(ell, mu1, 9)
    for mode in ("full", "submatrix2x2"):
        min_witness("(3,3) sharpness", mu, (3, 3), mode, checks.check_sharp)
    # for min{m,n} = 2 the full LMI family is the 2x2 condition, so one mode suffices
    for dims in ((2, 3), (2, 4), (3, 4)):
        for branch, ell in BRANCH_MIDPOINTS.items():
            mu = checks.extremal_witness(ell, checks.threshold(ell), dims[0] * dims[1])
            min_witness(f"({dims[0]},{dims[1]}) branch {branch}", mu, dims, "full", checks.check_at_threshold)

    # dual(Phi_{b,c}) = Phi_{c,b}; the Choi map is Phi_{1,0}, so its dual is (b, c) = (1, 0)
    for b, c in ((1.0, 0.0), *GEN_CHOI_DUALS):
        def run(b=b, c=c):
            phi = posmaps.dual_map(posmaps.generalized_choi_map(b, c))
            return sdpsolve.solve(sdpsolve.max_eig_problem(phi), tol=SOLVER_TOL)

        def check(sol, b=b, c=c):
            checks.check_max_eig_solve(sol, b, c)
            return 1

        ops.append(Op(f"max-eig dual of gen-choi({b:g},{c:g})", run, check))

    def run_diamond():
        phi = posmaps.dual_map(posmaps.choi_map())
        return sdpsolve.solve(sdpsolve.diamond_norm_problem(phi), tol=SOLVER_TOL)

    def check_diamond(sol):
        checks.check_diamond_solve(sol, 4.0 / 3.0)
        return 1

    ops.append(Op("diamond choi-dual", run_diamond, check_diamond))
    return ops


BUILDERS = {"orbit": build_orbit, "certify": build_certify, "solve": build_solve}


def build(name: str, seed: int, workdir: str) -> list[Op]:
    """One round of the named workload; spectrum files go to workdir."""
    return BUILDERS[name](seed, workdir)
