"""Source hygiene of ``src/novlink``, read with the stdlib ``ast`` alone:
every imported name is used, every private module-level name is
referenced somewhere other than its own definition, and the JSON shape
tests stay in ``novikov``."""

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
    """``(class name, line)`` for each class an ``isinstance`` call in
    ``tree`` tests against, alone or in a tuple."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            spec = node.args[1]
            for cls in spec.elts if isinstance(spec, ast.Tuple) else [spec]:
                if isinstance(cls, ast.Name):
                    yield cls.id, node.lineno


@pytest.mark.parametrize("cls", ["bool", "dict"])
def test_json_shapes_are_tested_in_novikov_alone(cls):
    """A JSON integer (``bool`` is an ``int``) is told apart by
    ``_parse_json_int`` and a JSON object by ``_json_fields``; a second
    copy elsewhere would grow its own rules and messages."""
    found = [f"{path.name}:{line}" for path in MODULES
             if path.name != "novikov.py"
             for name, line in isinstance_classes(parse(path)) if name == cls]
    assert found == []
