"""No module of muntzlab imports a private scipy module or name: scipy
keeps those free to change between releases."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def private_scipy_imports(source: str) -> list[str]:
    """Every dotted name that `source` imports from scipy with a part below
    scipy that starts with "_", such as scipy.optimize._highspy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "scipy" and any(p.startswith("_") for p in parts[1:]):
                found.append(name)
    return found


@pytest.mark.parametrize("source, want", [
    ("from scipy.optimize._highspy import _core",
     ["scipy.optimize._highspy._core"]),
    ("import scipy.optimize._linprog_highs as h",
     ["scipy.optimize._linprog_highs"]),
    ("from scipy.optimize import _linprog, linprog",
     ["scipy.optimize._linprog"]),
    ("from scipy.optimize import linprog\nimport scipy.linalg", []),
    ("from . import _private\nimport numpy._core", []),
])
def test_the_guard_finds_private_scipy_imports(source, want):
    assert private_scipy_imports(source) == want


def test_src_imports_no_private_scipy_module():
    files = sorted(SRC.rglob("*.py"))
    assert files
    bad = [f"{path.relative_to(SRC)}: {name}" for path in files
           for name in private_scipy_imports(path.read_text())]
    assert bad == []
