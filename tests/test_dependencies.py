"""numpy is the package's only runtime dependency: every module under
src/abssep imports only the standard library, numpy and the package itself.
The benchmark harness under perfbench/ reads only names the package has.
The package loads its submodules on first use, with the same public names,
and each command loads only the modules it calls. The private numpy gufuncs
the solver calls exist, with the signatures it passes. Every function and
class the package defines is reached from a command, an export, a paper
claim or the benchmark."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "abssep"


def _imported_roots(path: pathlib.Path):
    """Top-level names of the absolute imports in one module; relative imports
    are the package's own."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_are_stdlib_numpy_or_the_package():
    allowed = set(sys.stdlib_module_names) | {"numpy", "abssep"}
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        extra = set(_imported_roots(path)) - allowed
        assert not extra, f"{path.name} imports {sorted(extra)}"


def _package_imports(path: pathlib.Path):
    """The package's modules that one module imports relatively, by
    `from . import module` or `from .module import name`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield from [node.module] if node.module else (alias.name for alias in node.names)


def test_witness_imports_no_solver():
    # the threshold curve and its dual certificates are closed forms: witness
    # reads and tests with no solver in its import graph
    witness = PACKAGE / "witness.py"
    assert set(_package_imports(witness)) == {"errors", "matcore"}
    assert "abssep" not in set(_imported_roots(witness))
    assert "sdpsolve" in set(_package_imports(PACKAGE / "cli.py"))  # the walk sees imports


def _abssep_reads(path: pathlib.Path):
    """(module, attribute) of every module.attribute read in one file, where
    module is bound by `from abssep import module` anywhere in that file, and
    (module, name) of every `from abssep.module import name`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0):
            continue
        if node.module == "abssep":
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif node.module.startswith("abssep."):
            yield from ((node.module.removeprefix("abssep."), alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield modules[node.value.id], node.attr


def test_perfbench_reads_only_names_the_package_has():
    # perfbench's own tests are outside the tier-1 suite, so a name deleted
    # from the package that perfbench still reads would otherwise go unseen
    reads = [(path.name, *read) for path in sorted((ROOT / "perfbench").glob("*.py"))
             for read in _abssep_reads(path)]
    assert ("test_checks.py", "sdpsolve", "max_eig_certificate") in reads
    missing = sorted({f"{name}: abssep.{module}.{attr}" for name, module, attr in reads
                      if not hasattr(importlib.import_module(f"abssep.{module}"), attr)})
    assert not missing, missing


def _unreached(sources: dict[str, str], roots) -> list[str]:
    """"module.name" of each module-level function and class of a package,
    given as {module: source}, that no root reaches, sorted. roots are (module,
    name) pairs, and every other module-level statement is a root too. From
    each reached node the walk follows a bare name to its module's own
    definition or to one bound by `from .module import name`, and module.attr
    where `from . import module` binds module, anywhere in the file."""
    defs, work, scope, modules = {}, [], {}, {}
    for module, source in sources.items():
        tree = ast.parse(source)
        scope[module] = names = {}
        modules[module] = bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        bound[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = (node.module, alias.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
                names[node.name] = (module, node.name)
            else:
                work.append((module, node))
    reached = {root for root in roots if root in defs}
    work += [(module, defs[module, name]) for module, name in reached]
    while work:
        module, node = work.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                target = scope[module].get(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = (modules[module].get(sub.value.id), sub.attr)
            else:
                continue
            if target in defs and target not in reached:
                reached.add(target)
                work.append((target[0], defs[target]))
    return sorted(f"{module}.{name}" for module, name in defs.keys() - reached)


def _reachability_roots() -> set[tuple[str, str]]:
    """What keeps a definition in the package: the command line (cli.main), the
    exports (__all__ and the PEP 562 hooks that serve them), the paper's claims
    (what tests/test_acceptance.py reads) and the benchmark (what perfbench
    reads)."""
    import abssep

    roots = {("cli", "main"), ("__init__", "__getattr__"), ("__init__", "__dir__")}
    for name in abssep.__all__:
        value = getattr(abssep, name)
        if not isinstance(value, types.ModuleType):
            roots.add((value.__module__.removeprefix("abssep."), name))
    for path in [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]:
        roots.update(_abssep_reads(path))
    return roots


def test_every_definition_is_reached_from_a_root():
    # a function that only its own unit tests call is not kept: delete it, or
    # make a command, an export, a paper claim or the benchmark use it
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreached(sources, _reachability_roots()) == []


def test_the_reachability_walk_reports_what_no_root_reaches():
    # b.only_from_orphan is called, but only from a.orphan, which nothing calls;
    # the rest is reached through each kind of edge the walk follows
    sources = {
        "a": ("from . import b\nfrom .c import helper as h\n\nX = b.used\n\n\n"
              "def main():\n    return h()\n\n\ndef orphan():\n    return b.only_from_orphan()\n"),
        "b": ("def used():\n    pass\n\n\ndef only_from_orphan():\n    pass\n\n\n"
              "class Base:\n    pass\n\n\nclass Child(Base):\n    pass\n"),
        "c": "def helper():\n    from . import b\n    return b.Child\n",
    }
    assert _unreached(sources, {("a", "main")}) == ["a.orphan", "b.only_from_orphan"]
    assert _unreached(sources, {("a", "main"), ("a", "orphan")}) == []
    # planted in the package itself, a function is found, and what it calls stays reached
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    package["posmaps"] += "\n\ndef _planted(phi, x):\n    return apply_id_tensor(phi, x, 1)\n"
    assert _unreached(package, _reachability_roots()) == ["posmaps._planted"]


# the public surface of abssep, as the package listed it when it imported
# every submodule eagerly; loading on first use keeps it name for name
PUBLIC_NAMES = [
    "AbsPptVerdict", "DetectionVerdict", "MapSpec", "Spectrum", "WitnessSummary", "absppt",
    "apply_id_tensor", "bipartite", "breuer_hall_map", "cannot_detect_abs_ppt", "choi_map",
    "choi_matrix", "detection_threshold", "diamond_norm_ub", "dual_map", "eigh", "eigvalsh",
    "families", "generalized_choi_map", "haar_unitary", "is_abs_ppt", "is_psd", "kron",
    "matcore", "max_eig_ub", "max_entangled", "min_witness_over_abs_ppt", "operator_schmidt",
    "partial_trace", "partial_transpose", "posmaps", "realign", "reduction_map",
    "sample_abs_ppt_spectrum", "schatten_norm", "sdpsolve", "solve", "summarize",
    "swap_operator", "vector_schmidt", "witness", "witness_from_map", "witness_from_schmidt",
]
SUBMODULES = ["absppt", "bipartite", "families", "matcore", "posmaps", "sdpsolve", "witness"]


def test_every_public_name_is_its_modules_own_object():
    import abssep

    assert abssep.__all__ == PUBLIC_NAMES
    for name in abssep.__all__:
        value = getattr(abssep, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"abssep.{name}"] is importlib.import_module(f"abssep.{name}")
        else:
            assert value is getattr(sys.modules[value.__module__], name), name


def test_dir_and_star_import_cover_all():
    import abssep

    assert set(abssep.__all__) <= set(dir(abssep))
    namespace = {}
    exec("from abssep import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(abssep.__all__)


def test_an_unknown_name_raises_the_standard_attribute_error():
    import abssep

    with pytest.raises(AttributeError, match=r"^module 'abssep' has no attribute 'no_such_name'$"):
        abssep.no_such_name
    with pytest.raises(ImportError, match="cannot import name 'no_such_name' from 'abssep'"):
        exec("from abssep import no_such_name", {})


# run in a fresh process: print, at exit, the abssep modules it has loaded
_REPORT_MODULES = ("import atexit, sys\n"
                   "atexit.register(lambda: print(*sorted(m for m in sys.modules\n"
                   "    if m.split('.')[0] == 'abssep'), file=sys.stderr))\n")
# `python -m abssep ARGS`, as runpy runs it, after _REPORT_MODULES
_RUN_MAIN = "import runpy\nsys.argv[0] = 'abssep'\nrunpy.run_module('abssep', run_name='__main__')\n"


def _loaded_modules(code: str, *args: str) -> set[str]:
    """The abssep modules loaded by a fresh process that runs code with args."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _REPORT_MODULES + code, *args], env=env,
                          cwd=ROOT, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


@pytest.fixture(scope="module")
def spectrum_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spectra") / "uniform33.json"
    path.write_text(json.dumps({"m": 3, "n": 3, "values": [1.0 / 9.0] * 9}))
    return str(path)


def test_each_command_loads_only_the_modules_it_uses(spectrum_file):
    # every command needs the LMI tolerance absppt defines for its parser; what
    # else a command loads is what it calls, and no command loads them all
    base = {"abssep", "abssep.cli", "abssep.errors", "abssep.matcore", "abssep.bipartite",
            "abssep.absppt"}
    assert _loaded_modules("import abssep") == {"abssep"}
    assert _loaded_modules(_RUN_MAIN, "check-spectrum", spectrum_file) == base
    assert _loaded_modules(_RUN_MAIN, "orbit-scan", spectrum_file, "--criterion", "choi",
                           "--samples", "3") == base | {"abssep.posmaps"}
    assert _loaded_modules(_RUN_MAIN, "family", "werner", "--n", "3", "--alpha", "0.2") == (
        base | {"abssep.families"})
    assert _loaded_modules(_RUN_MAIN, "verify-certificates", "--grid", "2", "--bh-dims", "4") == (
        base | {"abssep.posmaps", "abssep.sdpsolve", "abssep.witness"})


SOLVER_GUFUNCS = [
    ("cholesky_lo", "d->d"), ("cholesky_lo", "D->D"), ("inv", "d->d"), ("inv", "D->D"),
    ("solve1", "dd->d"), ("eigvalsh_lo", "d->d"), ("eigvalsh_lo", "D->d"),
]


@pytest.mark.parametrize("name, signature", SOLVER_GUFUNCS)
def test_the_private_numpy_gufuncs_the_solver_calls(name, signature):
    # sdpsolve calls numpy.linalg's LAPACK gufuncs directly, by these names and
    # signatures; a numpy without one fails here, not inside a solve
    from numpy.linalg import _umath_linalg

    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 4, 4))
    if signature[0] == "D":
        a = a + 1j * rng.standard_normal((2, 4, 4))
    a = a @ a.conj().swapaxes(-1, -2) + 4.0 * np.eye(4)  # Hermitian positive definite
    gufunc = getattr(_umath_linalg, name)
    if name == "solve1":
        b = rng.standard_normal((2, 4))
        got, want = gufunc(a, b, signature=signature), np.linalg.solve(a, b[..., np.newaxis])[..., 0]
    else:
        got = gufunc(a, signature=signature)
        want = {"cholesky_lo": np.linalg.cholesky, "inv": np.linalg.inv,
                "eigvalsh_lo": np.linalg.eigvalsh}[name](a)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _private_linalg(path: pathlib.Path) -> tuple[list[str], set[str]]:
    """(ways in, names read) of numpy.linalg._umath_linalg in one module: each
    import of it, or attribute path to it such as np.linalg._umath_linalg, as
    text, and the names read off an imported alias; a use of the alias other
    than a name read counts as the name "<other use>"."""
    tree = ast.parse(path.read_text(), filename=str(path))
    ways, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                if "_umath_linalg" in f"{node.module}.{alias.name}":
                    ways.append(f"from {node.module} import {alias.name}")
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            ways += [f"import {alias.name}" for alias in node.names if "_umath_linalg" in alias.name]
        elif isinstance(node, ast.Attribute) and node.attr == "_umath_linalg":
            ways.append(ast.unparse(node))
    reads = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in aliases]
    uses = sum(isinstance(node, ast.Name) and node.id in aliases for node in ast.walk(tree))
    return ways, set(reads) | ({"<other use>"} if uses > len(reads) else set())


def test_only_the_solver_calls_private_numpy_gufuncs():
    # numpy.linalg._umath_linalg is private numpy: only sdpsolve imports it, for
    # the gufuncs test_the_private_numpy_gufuncs_the_solver_calls checks, and
    # matcore, for cholesky_lo alone (its shifted-Cholesky screens). Calling
    # another one (a direct QR or SVD, say) means extending that test and
    # settling which numpy versions the package supports
    allowed = {"sdpsolve.py": {name for name, _ in SOLVER_GUFUNCS}, "matcore.py": {"cholesky_lo"}}
    for path in sorted(PACKAGE.glob("*.py")):
        ways, reads = _private_linalg(path)
        if path.name in allowed:
            assert ways == ["from numpy.linalg import _umath_linalg"]
            extra = reads - allowed[path.name]
            assert reads and not extra, f"{path.name} reads {sorted(extra)}"
        else:
            assert not ways and not reads, f"{path.name} reaches _umath_linalg: {ways}"
