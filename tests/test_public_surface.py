"""Every public name of muntzlab has a caller: each top-level function,
class and constant of src/muntzlab/, and each public method of its
classes, is used by the package itself or by the acceptance criteria.  A name that only the other tests reach is API
that no program path needs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "muntzlab"
CRITERIA = ROOT / "tests" / "test_acceptance.py"


def public_names(source: str) -> list[str]:
    """The top-level def, class and constant names of `source` that do not
    start with "_"."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def public_methods(source: str) -> list[str]:
    """Class.method for the methods of the top-level classes of `source`
    whose names do not start with "_" (so no dunder either)."""
    return [f"{node.name}.{item.name}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def used_names(source: str) -> set[str]:
    """The names that `source` reads, as a bare name or an attribute.  A
    definition, an assignment, an import or a docstring is no use."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    return used


def test_collectors_count_reads_only():
    source = '''
"""helper and LIMIT are named here, which is no use"""
from os import path as helper
LIMIT = 3
_HIDDEN = 4
def helper():
    return np.sum(LIMIT)
class Shape:
    def area(self):
        return self.side
    def _hidden(self):
        pass
    def __len__(self):
        pass
'''
    assert public_names(source) == ["LIMIT", "helper", "Shape"]
    assert public_methods(source) == ["Shape.area"]
    assert used_names(source) == {"np", "sum", "LIMIT", "self", "side"}


def program_uses() -> tuple[list[Path], set[str]]:
    """The package's modules, and the names that they and the criteria
    read."""
    modules = sorted(PACKAGE.glob("*.py"))
    used = set()
    for path in [*modules, CRITERIA]:
        used |= used_names(path.read_text())
    return modules, used


def test_every_public_name_has_a_caller():
    modules, used = program_uses()
    unreached = [f"{path.stem}.{name}" for path in modules
                 for name in public_names(path.read_text()) if name not in used]
    assert unreached == []


def test_every_public_method_has_a_caller():
    modules, used = program_uses()
    unreached = [f"{path.stem}.{name}" for path in modules
                 for name in public_methods(path.read_text())
                 if name.split(".")[1] not in used]
    assert unreached == []
