"""Every public name of muntzlab has a caller: each top-level function,
class and constant of src/muntzlab/, and each public method of its
classes, is used by the package itself or by the acceptance criteria.  A name that only the other tests reach is API
that no program path needs.  Every field of a record (a dataclass or a
NamedTuple of the package) has a reader too."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "muntzlab"
CRITERIA = ROOT / "tests" / "test_acceptance.py"
BENCHMARK = ROOT / "perfbench"


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


def record_fields(source: str) -> list[str]:
    """Class.field for each annotated field of the top-level classes of
    `source` that are a dataclass or a NamedTuple."""
    def is_record(node):
        marks = [d.func if isinstance(d, ast.Call) else d
                 for d in node.decorator_list] + node.bases
        return any(ast.unparse(m).split(".")[-1] in ("dataclass", "NamedTuple")
                   for m in marks)

    return [f"{node.name}.{item.target.id}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and is_record(node)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def attribute_reads(source: str) -> set[str]:
    """The attribute names that `source` reads, as x.name or as
    getattr(x, "name", ...)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)
    return read


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
    records = '''
@dataclasses.dataclass(frozen=True)
class Report:
    value: float
    LIMIT = 3
class Point(typing.NamedTuple):
    x: float
class Plain:
    y: float
def show(r, p):
    r.value = p
    return getattr(p, "x"), getattr(p, NAME), r.total
'''
    assert record_fields(records) == ["Report.value", "Point.x"]
    assert attribute_reads(records) == {"dataclass", "NamedTuple", "x", "total"}


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


def test_every_record_field_has_a_reader():
    """Each field of a package record is read as an attribute by a program
    path, a criterion or a benchmark check (perfbench/ reads result fields
    that the package itself does not).  The match is by attribute name
    alone, so a field that shares its name with an attribute read elsewhere
    passes: the CLI reads its config namespace as c.sequence, c.set,
    c.target and c.restarts, which would have hidden echo fields of those
    names on the result records.  Such a field is found only by hand."""
    modules = sorted(PACKAGE.glob("*.py"))
    read = set()
    for path in [*modules, CRITERIA, *sorted(BENCHMARK.glob("*.py"))]:
        read |= attribute_reads(path.read_text())
    unread = [f"{path.stem}.{field}" for path in modules
              for field in record_fields(path.read_text())
              if field.split(".")[1] not in read]
    assert unread == []
