"""numpy is the package's only runtime dependency: every module under
src/abssep imports only the standard library, numpy and the package itself."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "abssep"


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
