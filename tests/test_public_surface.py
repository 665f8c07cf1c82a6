"""Every public name of muntzlab has a caller: each top-level function,
class and constant of src/muntzlab/, and each public method of its
classes, is used by the package itself or by the acceptance criteria.  A name that only the other tests reach is API
that no program path needs.  Every field of a record (a dataclass or a
NamedTuple of the package) has a reader too, and every default of a
parameter has a program call that leaves the parameter to it."""

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


def defaulted_parameters(source: str) -> list[tuple[str, int | None, str]]:
    """(function, position, parameter) for each parameter with a default of
    the functions that `source` defines, at any depth.  The position is
    that of the call's positional arguments (a method's self is not one),
    and None for a keyword-only parameter."""
    tree = ast.parse(source)
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        params = (args.posonlyargs + args.args)[id(node) in methods:]
        for pos in range(len(params) - len(args.defaults), len(params)):
            out.append((node.name, pos, params[pos].arg))
        out += [(node.name, None, a.arg)
                for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def calls(source: str) -> list[tuple[str, ast.Call]]:
    """(name, call) for each call in `source` of a bare name or an
    attribute."""
    return [(node.func.id if isinstance(node.func, ast.Name) else node.func.attr, node)
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))]


def omits(call: ast.Call, pos: int | None, param: str) -> bool:
    """Whether `call` may leave the parameter `param` at position `pos` to
    its default.  A call with *args or **kwargs may, whatever they hold."""
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)):
        return True
    if any(k.arg == param for k in call.keywords):
        return False
    return pos is None or len(call.args) <= pos


def test_default_collectors():
    source = '''
def f(a, b=1, *, c=2, d):
    def inner(e=3):
        pass
class Shape:
    def scale(self, by=1.0):
        pass
f(0, 1, c=3, d=4)
shape.scale(by=2.0)
f(*args)
'''
    assert defaulted_parameters(source) == [
        ("f", 1, "b"), ("f", None, "c"), ("inner", 0, "e"), ("scale", 0, "by")]
    (_, full), (_, scale), (_, star) = calls(source)
    assert not omits(full, 1, "b") and not omits(full, None, "c")
    assert not omits(scale, 0, "by")
    assert omits(star, 1, "b") and omits(star, None, "c")
    (_, short), = calls("f(0, d=4)")
    assert omits(short, 1, "b") and omits(short, None, "c")


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
    names on the result records.  Such a field is found only by hand:
    MonomialWitness.factors, which nothing read, passed here because
    ProductPolynomial.factors is read."""
    modules = sorted(PACKAGE.glob("*.py"))
    read = set()
    for path in [*modules, CRITERIA, *sorted(BENCHMARK.glob("*.py"))]:
        read |= attribute_reads(path.read_text())
    unread = [f"{path.stem}.{field}" for path in modules
              for field in record_fields(path.read_text())
              if field.split(".")[1] not in read]
    assert unread == []


def test_every_default_has_a_program_caller():
    """Each default of a parameter of a function in the package is used:
    some call in the package, the criteria or perfbench/ leaves the
    parameter out, so a default that only tests rely on is caught (the
    sequence index j of estimate_alpha and draw_alpha_samples went for
    that).  Calls match by function name alone, and a call with *args or
    **kwargs counts as leaving every parameter out: perfbench passes
    product_approx_search its arguments as **NEWMAN, so this test could not
    have caught restarts=1, which went by reading its callers."""
    modules = sorted(PACKAGE.glob("*.py"))
    program = [call for path in [*modules, CRITERIA, *sorted(BENCHMARK.glob("*.py"))]
               for call in calls(path.read_text())]
    unused = [f"{path.stem}.{name}({param}=)" for path in modules
              for name, pos, param in defaulted_parameters(path.read_text())
              if not any(called == name and omits(call, pos, param)
                         for called, call in program)]
    assert unused == []
