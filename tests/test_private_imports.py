"""No module of muntzlab imports a private scipy module or name: scipy
keeps those free to change between releases.  And scipy is imported in
two places only, linprog at the top of the minimax module and the
column-pivoted qr inside discrete_minimax_lp, so that moving scipy out of
the dependencies means moving those two lines."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def imported_names(node) -> list[str]:
    """The dotted names that an absolute import statement imports, such as
    scipy.optimize.linprog for `from scipy.optimize import linprog`; none
    for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def private_scipy_imports(source: str) -> list[str]:
    """Every dotted name that `source` imports from scipy with a part below
    scipy that starts with "_", such as scipy.optimize._highspy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for name in imported_names(node):
            parts = name.split(".")
            if parts[0] == "scipy" and any(p.startswith("_") for p in parts[1:]):
                found.append(name)
    return found


def scipy_import_sites(source: str) -> list[tuple[str | None, str]]:
    """(function, name) of each name that `source` imports from scipy, in
    source order: the innermost function whose body holds the import, or
    None at module level, and the dotted name."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            sites.extend((where, name) for name in imported_names(child)
                         if name.split(".")[0] == "scipy")
            visit(child, where)

    visit(ast.parse(source), None)
    return sites


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


@pytest.mark.parametrize("source, want", [
    ("from scipy.optimize import linprog\n"
     "def lp():\n    from scipy.linalg import qr\n",
     [(None, "scipy.optimize.linprog"), ("lp", "scipy.linalg.qr")]),
    # a third site next to the two that src/ may hold
    ("from scipy.optimize import linprog\n"
     "def discrete_minimax_lp():\n    from scipy.linalg import qr\n"
     "def solve():\n    from scipy.linalg import lu_factor, lu_solve\n",
     [(None, "scipy.optimize.linprog"),
      ("discrete_minimax_lp", "scipy.linalg.qr"),
      ("solve", "scipy.linalg.lu_factor"),
      ("solve", "scipy.linalg.lu_solve")]),
    ("import numpy as np\n"
     "class A:\n    def m(self):\n        import scipy.special as sp\n",
     [("m", "scipy.special")]),
    ("def f():\n    def g():\n        from scipy import sparse\n"
     "    import scipy\n",
     [("g", "scipy.sparse"), ("f", "scipy")]),
    ("if True:\n    from scipy.linalg import lu\n",
     [(None, "scipy.linalg.lu")]),
    ("from . import scipy\nimport scipyx\nimport numpy.linalg", []),
])
def test_the_guard_finds_every_scipy_import_site(source, want):
    assert scipy_import_sites(source) == want


def test_src_imports_scipy_in_two_places():
    sites = [(path.relative_to(SRC).as_posix(), where, name)
             for path in sorted(SRC.rglob("*.py"))
             for where, name in scipy_import_sites(path.read_text())]
    assert sites == [
        ("muntzlab/minimax.py", None, "scipy.optimize.linprog"),
        ("muntzlab/minimax.py", "discrete_minimax_lp", "scipy.linalg.qr"),
    ]
