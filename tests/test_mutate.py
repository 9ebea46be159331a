"""The substitution that tools/mutate.py applies to each named tolerance."""

import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

SOURCE = '''BIG_TOL = 1e-6
TOL = 1e-10  # what it guards
TOL_SQUARED = TOL * TOL


def f(x, tol=TOL):
    TOL = 2.0
    return x <= tol
'''


def test_substitute_scales_the_one_module_level_assignment():
    out = mutate.substitute(SOURCE, "TOL", 10.0)
    assert out == SOURCE.replace("TOL = 1e-10  #", "TOL = (1e-10) * 10.0  #", 1)
    assert mutate.substitute("EPS = 8 * 2.0**-52\n", "EPS", 0.1) == "EPS = (8 * 2.0**-52) * 0.1\n"
    namespace = {}
    exec(mutate.substitute(SOURCE, "BIG_TOL", 0.1), namespace)
    assert namespace["BIG_TOL"] == 1e-6 * 0.1 and namespace["TOL"] == 1e-10


@pytest.mark.parametrize("constant", ["MISSING_TOL", "OL", "TOL_SQ"])
def test_substitute_refuses_a_constant_it_cannot_find(constant):
    with pytest.raises(ValueError, match=f"{constant}: 0 module-level assignments"):
        mutate.substitute(SOURCE, constant, 10.0)


def test_substitute_refuses_a_constant_assigned_twice():
    with pytest.raises(ValueError, match="TOL: 2 module-level assignments"):
        mutate.substitute(SOURCE + "TOL = 1e-9\n", "TOL", 10.0)


def test_every_mutant_applies_once_and_names_tests_that_exist():
    for path, constant, tests in mutate.MUTANTS:
        source = (ROOT / "src" / "abssep" / path).read_text()
        for factor in mutate.FACTORS:
            compile(mutate.substitute(source, constant, factor), path, "exec")
        for test in tests:
            file, name = re.fullmatch(r"(tests/\w+\.py)::(\w+)(\[[\w.-]+\])?", test).group(1, 2)
            assert f"\ndef {name}(" in (ROOT / file).read_text(), test
