"""Mutation pass over the package's named tolerances.

    python3 tools/mutate.py

Each mutant multiplies one named tolerance of src/abssep by 10 or by 0.1.
It is applied to a temporary copy of src/, never to the tree, and only the
boundary tests that MUTANTS names for that tolerance run against the copy.
A mutant survives when all of its tests pass. The script prints one line per
mutant, then the survivors, and exits 1 if any mutant survives (2 if the
named tests fail on the unmutated copy, or pytest cannot run them).

A tolerance earns a place in MUTANTS once a test pins it from both sides
with literal inputs: one its 0.1x tightening refuses, one its 10x loosening
accepts.
"""

from __future__ import annotations

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
FACTORS = (10.0, 0.1)

# (module file under src/abssep, constant, the tests that pin it)
MUTANTS = [
    ("absppt.py", "SPECTRUM_CLAMP_TOL",
     ["tests/test_absppt.py::test_named_tolerances_hold_their_boundary[clamp]"]),
    ("absppt.py", "SPECTRUM_SUM_TOL",
     ["tests/test_absppt.py::test_named_tolerances_hold_their_boundary[sum]"]),
    ("absppt.py", "GB_RADIUS_SLACK",
     ["tests/test_absppt.py::test_named_tolerances_hold_their_boundary[gurvits-barnum]"]),
    ("absppt.py", "RANK_ZERO_TOL",
     ["tests/test_absppt.py::test_named_tolerances_hold_their_boundary[rank]"]),
    ("witness.py", "_DOMAIN_SLACK",
     ["tests/test_witness.py::test_threshold_domain_edges_are_pinned_by_the_slack",
      "tests/test_witness.py::test_cannot_detect_slack_is_pinned_from_both_sides"]),
    ("witness.py", "TRACE_TOL", ["tests/test_witness.py::test_trace_tol_boundary"]),
    ("witness.py", "THRESHOLD_SLACK",
     ["tests/test_witness.py::test_threshold_slack_boundary",
      "tests/test_witness.py::test_cannot_detect_slack_is_pinned_from_both_sides"]),
    ("witness.py", "HS_ORTHONORMAL_TOL", ["tests/test_witness.py::test_hs_orthonormal_tol_boundary"]),
    ("witness.py", "TRACE_BOUND_SLACK", ["tests/test_witness.py::test_trace_bound_slack_boundary"]),
    ("cli.py", "HULL_EDGE_TOL", ["tests/test_cli.py::test_hull_edge_tol_boundary"]),
    ("cli.py", "VIOLATION_TOL", ["tests/test_cli.py::test_violation_tol_boundary"]),
    ("cli.py", "CERTIFICATE_TOL", ["tests/test_cli.py::test_certificate_tol_boundary"]),
    ("sdpsolve.py", "EQ_START_TOL",
     ["tests/test_sdpsolve.py::test_eq_start_tol_is_pinned_from_both_sides"]),
    ("sdpsolve.py", "WITNESS_SORT_SLACK",
     ["tests/test_sdpsolve.py::test_witness_sort_slack_is_pinned_from_both_sides"]),
    ("sdpsolve.py", "DIAMOND_FLOOR_SLACK",
     ["tests/test_sdpsolve.py::test_diamond_floor_slack_is_pinned_from_both_sides"]),
    ("matcore.py", "HERMITIZE_TOL",
     ["tests/test_matcore.py::test_hermitize_tolerance_is_pinned_from_both_sides",
      "tests/test_bipartite.py::test_realign_trace_norm_hermitian_gate_boundary"]),
    ("bipartite.py", "VECTOR_NORM_TOL", ["tests/test_bipartite.py::test_vector_norm_tol_boundary"]),
    ("posmaps.py", "BC_PREDICATE_TOL", ["tests/test_posmaps.py::test_bc_predicate_tol_boundary"]),
    ("posmaps.py", "BH_SKEW_TOL",
     ["tests/test_posmaps.py::test_breuer_hall_skew_tolerance_is_pinned_from_both_sides"]),
    ("posmaps.py", "BH_UNITARY_TOL",
     ["tests/test_posmaps.py::test_breuer_hall_unitary_tolerance_is_pinned_from_both_sides"]),
    ("posmaps.py", "WITNESS_TRACE_FLOOR", ["tests/test_posmaps.py::test_witness_trace_floor_boundary"]),
    ("families.py", "UPB_VECTOR_TOL", ["tests/test_families.py::test_upb_vector_tol_boundary"]),
]


def substitute(source: str, constant: str, factor: float) -> str:
    """source with the module-level `constant = value` turned into
    `constant = (value) * factor`, a trailing comment kept. The assignment must
    appear exactly once, at the start of a line; otherwise ValueError."""
    pattern = re.compile(rf"^{re.escape(constant)} = ([^#\n]*?)(\s*#.*)?$", re.MULTILINE)
    found = pattern.findall(source)
    if len(found) != 1:
        raise ValueError(f"{constant}: {len(found)} module-level assignments, expected 1")
    return pattern.sub(lambda m: f"{constant} = ({m[1]}) * {factor!r}{m[2] or ''}", source)


def _run_tests(src: pathlib.Path, tests: list[str]) -> int:
    """pytest's exit code for tests run from the repository against the package in src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                          cwd=ROOT, env=env, capture_output=True, check=False).returncode


def main() -> int:
    mutants = [(path, constant, factor, tests)
               for path, constant, tests in MUTANTS for factor in FACTORS]
    with tempfile.TemporaryDirectory(prefix="abssep-mutate-") as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        every_test = sorted({test for _, _, tests in MUTANTS for test in tests})
        if _run_tests(src, every_test) != 0:
            print("the named tests fail on the unmutated copy", file=sys.stderr)
            return 2
        survivors = []
        for path, constant, factor, tests in mutants:
            target = src / "abssep" / path
            original = target.read_text()
            target.write_text(substitute(original, constant, factor))
            try:
                code = _run_tests(src, tests)
            finally:
                target.write_text(original)
            if code not in (0, 1):
                print(f"{path} {constant} x{factor:g}: pytest exit {code}", file=sys.stderr)
                return 2
            print(f"{path} {constant} x{factor:g}: {'survived' if code == 0 else 'killed'}",
                  flush=True)
            if code == 0:
                survivors.append(f"{path} {constant} x{factor:g}")
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    for survivor in survivors:
        print(f"survivor: {survivor}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
