"""Source hygiene of ``src/novlink``, read with the stdlib ``ast`` alone:
every imported name is used, every private module-level name is
referenced somewhere other than its own definition, the JSON shape tests
stay in ``novikov``, each shape refusal is raised from one function,
``NotZeroDimensionalError`` is built in one function, one function tests
a matrix's symmetry, each rule on the Weyl row is written in one
function, each ``*_LIMIT`` constant is named in a refusal of its module,
the value types take equality and hashing from their fields, and no
dataclass writes its own ``__init__``."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "novlink"
MODULES = sorted(SRC.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def loaded_names(tree):
    """Names read anywhere in ``tree``: loads, attribute names, the names
    in string annotations, and the strings of ``__all__`` (re-exports)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            names.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= loaded_names(ast.parse(ann.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = parse(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    assert sorted(imported - loaded_names(tree)) == []


def private_definitions(tree):
    """``(name, node)`` of the module-level functions, classes and
    constants whose name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [getattr(node.target, "id", "")]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def references(tree):
    """How often each name is read or imported in ``tree``."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def test_every_private_name_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    everywhere = sum((references(tree) for tree in trees.values()),
                     Counter())
    unreferenced = [
        f"{name}: {private}"
        for name, tree in trees.items()
        for private, node in private_definitions(tree)
        if everywhere[private] == references(node)[private]]
    assert unreferenced == []


def isinstance_classes(tree):
    """``(class names, line)`` for each ``isinstance`` call in ``tree``:
    the classes it tests against, alone or in a tuple."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            spec = node.args[1]
            yield ({cls.id for cls in (spec.elts if isinstance(spec, ast.Tuple)
                                       else [spec])
                    if isinstance(cls, ast.Name)}, node.lineno)


@pytest.mark.parametrize("cls", ["bool", "dict", "list"])
def test_json_shapes_are_tested_in_novikov_alone(cls):
    """A JSON integer (``bool`` is an ``int``) is told apart by
    ``_parse_json_int``, a JSON object by ``_json_fields`` and a JSON list
    by the list readers beside it; a second copy elsewhere would grow its
    own rules and messages."""
    found = [f"{path.name}:{line}" for path in MODULES
             if path.name != "novikov.py"
             for names, line in isinstance_classes(parse(path))
             if cls in names]
    assert found == []


def functions_writing(phrase):
    """``module:function`` for each function in ``src/novlink`` whose code
    holds a string with ``phrase`` (its docstring aside)."""
    for path in MODULES:
        for func in ast.walk(parse(path)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            doc = ast.get_docstring(func, clean=False)
            if any(isinstance(node, ast.Constant) and node.value != doc
                   and isinstance(node.value, str) and phrase in node.value
                   for node in ast.walk(func)):
                yield f"{path.stem}:{func.name}"


@pytest.mark.parametrize("phrase, reader", [
    ("is not square", "laurent:_square"),
    ("is not symmetric", "cliffordtrace:_form_rows"),
    ("must be a pair", "novikov:_pair"),
])
def test_each_shape_refusal_is_written_in_one_place(phrase, reader):
    """A second copy of a refusal would grow its own rule and message."""
    assert list(functions_writing(phrase)) == [reader]


def test_positive_dimension_is_decided_in_one_function():
    """The leading solve's blocks are data until one verdict reads them; a
    second place that builds the error would decide it a second time."""
    builders = [f"{path.stem}:{func.name}" for path in MODULES
                for func in ast.walk(parse(path))
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "NotZeroDimensionalError"]
    assert builders == ["critlift:_solve_polynomials"]


def names_in(node):
    """The names and attribute names read in ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def functions_comparing(rule):
    """``module:function`` for each function in ``src/novlink`` holding a
    comparison for which ``rule(ops, operands)`` holds."""
    for path in MODULES:
        for func in ast.walk(parse(path)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(rule(node.ops, [node.left, *node.comparators])
                            for node in ast.walk(func)
                            if isinstance(node, ast.Compare)):
                yield f"{path.stem}:{func.name}"


def equality(ops):
    return all(isinstance(op, (ast.Eq, ast.NotEq)) for op in ops)


def trace_against_determinant(ops, operands):
    """An equality with a determinant on one side (``det``, ``det_val``,
    ``hessian_det``, ``det_valuation()``)."""
    return equality(ops) and any("det" in name for operand in operands
                                 for name in names_in(operand))


def entry_against_mirror(ops, operands):
    """``m[i][j] == m[j][i]`` or ``!=``, whatever the names."""
    a, b = operands[0], operands[-1]
    return (equality(ops) and all(isinstance(x, ast.Subscript)
                                  and isinstance(x.value, ast.Subscript)
                                  for x in (a, b))
            and ast.dump(a.value.value) == ast.dump(b.value.value)
            and ast.dump(a.slice) == ast.dump(b.value.slice)
            and ast.dump(a.value.slice) == ast.dump(b.slice))


def annulus_against_disc(ops, operands):
    """An order comparison between the areas ``A`` and ``B``."""
    return (not equality(ops)
            and {"A", "B"} <= {name for operand in operands
                               for name in names_in(operand)})


@pytest.mark.parametrize("rule, owner", [
    (trace_against_determinant, "cliffordtrace:_leading_terms_match"),
    (entry_against_mirror, "laurent:_symmetric"),
    (annulus_against_disc, "linkfam:__post_init__"),
], ids=["trace-determinant", "symmetry", "eta-monotonicity"])
def test_each_rule_on_the_weyl_row_is_written_in_one_function(rule, owner):
    """``trace check`` and ``scan weyl`` read one verdict, the Clifford
    model and the eliminations one symmetry test, and a schedule's areas
    meet ``CircleLinkS2``'s one check; a second copy would drift from the
    first, as a row's valuation-only comparison had."""
    assert list(functions_comparing(rule)) == [owner]


def test_one_reader_decides_symmetry():
    """``laurent._square`` reads a matrix's blocks and whether each is
    symmetric in one pass; an elimination, a solve or the trace that tested
    the matrix again would read it twice."""
    callers = [f"{path.stem}:{func.name}" for path in MODULES
               for func in ast.walk(parse(path))
               if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
               and any(isinstance(node, ast.Call)
                       and "_symmetric" in names_in(node.func)
                       for node in ast.walk(func))]
    assert callers == ["laurent:_square"]


def test_one_bulk_parameter_per_scan():
    """``c0`` is read into a ``BulkParameter`` once, not once per row."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = [f"{path.name}:{node.lineno}" for path in MODULES
             for loop in ast.walk(parse(path)) if isinstance(loop, loops)
             for node in ast.walk(loop)
             if isinstance(node, ast.Call)
             and "BulkParameter" in names_in(node.func)]
    assert found == []


def test_no_from_scalar():
    """``_entry`` reads a scalar coefficient and names it; a second
    reader would refuse it without the name."""
    assert [path.name for path in MODULES
            if "from_scalar" in loaded_names(parse(path))
            or any(isinstance(node, ast.FunctionDef)
                   and node.name == "from_scalar"
                   for node in ast.walk(parse(path)))] == []


def config_error_texts(tree):
    """The literal text of each ``ConfigError`` message in ``tree``, with
    ``{}`` for each formatted field."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "ConfigError" and node.args):
            msg = node.args[0]
            parts = msg.values if isinstance(msg, ast.JoinedStr) else [msg]
            yield "".join(part.value if isinstance(part, ast.Constant)
                          else "{}" for part in parts)


def test_refusals_echo_through_the_bounded_repr():
    """A ``!r`` in a ``ConfigError`` message would write an outside value
    back in full, however large; ``novikov._echo`` bounds it."""
    found = [f"{path.name}:{node.lineno}" for path in MODULES
             for call in ast.walk(parse(path))
             if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Name)
             and call.func.id == "ConfigError"
             for node in ast.walk(call)
             if isinstance(node, ast.FormattedValue)
             and node.conversion == ord("r")]
    assert found == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_each_limit_is_named_in_its_refusal(path):
    """A refusal at a module-level ``*_LIMIT`` names the constant, so the
    reader of the message can find the figure it broke."""
    tree = parse(path)
    limits = [t.id for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets
              if isinstance(t, ast.Name) and t.id.endswith("_LIMIT")]
    texts = list(config_error_texts(tree))
    assert [name for name in limits
            if not any(name in text for text in texts)] == []


def test_value_types_take_equality_and_hashing_from_their_fields():
    """The value types are frozen dataclasses.  Only the series kernel,
    whose canonical form is its hot path, the Clifford reference element
    and the ``INFINITY`` sentinel write ``__eq__`` or ``__hash__``."""
    by_hand = {"novikov:NovikovSeries", "cliffordtrace:CliffordElement",
               "novikov:_Infinity"}
    found = [f"{path.stem}:{cls.name}" for path in MODULES
             for cls in ast.walk(parse(path))
             if isinstance(cls, ast.ClassDef)
             and any(isinstance(node, ast.FunctionDef)
                     and node.name in ("__eq__", "__hash__")
                     for node in cls.body)]
    assert [name for name in found if name not in by_hand] == []


def test_no_dataclass_writes_its_own_init():
    """A dataclass checks its fields in ``__post_init__`` and lets the
    decorator write ``__init__``; a hand-written one declares the fields a
    second time, and ``dataclasses.replace`` and ``fields`` then read the
    class body while the constructor reads its own arguments."""
    def is_dataclass(decorator):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        return isinstance(decorator, ast.Name) and decorator.id == "dataclass"

    found = [f"{path.stem}:{cls.name}" for path in MODULES
             for cls in ast.walk(parse(path))
             if isinstance(cls, ast.ClassDef)
             and any(map(is_dataclass, cls.decorator_list))
             and any(isinstance(node, ast.FunctionDef)
                     and node.name == "__init__" for node in cls.body)]
    assert found == []
