"""numpy is the package's only runtime dependency: every module under
src/abssep imports only the standard library, numpy and the package itself.
The benchmark harness under perfbench/ reads only names the package has."""

import ast
import importlib
import pathlib
import sys

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
    module is bound by `from abssep import module` anywhere in that file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "abssep":
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
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
