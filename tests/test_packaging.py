"""The third-party modules that the package, its scripts and its tests
import are the ones pyproject.toml declares: numpy alone for the package,
the demos and the benchmark, and the test extra on top for the tests."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parent.parent


def _module_names(requirements) -> set:
    """The importable names of requirement strings such as "numpy>=1.24"."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}


def _third_party_imports(folder: Path) -> set:
    """The top-level modules that the .py files under folder import, at
    module level or inside functions, less the standard library, starprod
    and the folder's own modules."""
    local = {path.stem for path in folder.glob("*.py")} | {"starprod"}
    found = set()
    for path in sorted(folder.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.partition(".")[0])
    return {name for name in found if name not in sys.stdlib_module_names and name not in local}


def test_imports_are_the_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _module_names(project["dependencies"])
    test_extra = _module_names(project["optional-dependencies"]["test"])
    assert runtime == {"numpy"}
    assert _third_party_imports(ROOT / "src" / "starprod") == runtime
    for scripts in ("demos", "perfbench"):
        assert _third_party_imports(ROOT / scripts) <= runtime, scripts
    assert _third_party_imports(ROOT / "tests") <= runtime | test_extra
