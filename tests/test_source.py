"""Source hygiene of the library, read from its syntax trees: no unused import and no orphaned
private function or class, the checks a linter such as pyflakes would make."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import retroq

SRC = Path(retroq.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(tree: ast.AST) -> set[str]:
    """Every name a tree reads, as a bare name, an attribute or an imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def test_every_private_function_and_class_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = set().union(*map(_referenced, trees.values()))
    orphans = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")
               and node.name not in referenced]
    assert orphans == []


def test_every_public_class_is_exported():
    defined = {node.name for path in MODULES for node in _tree(path).body
               if isinstance(node, ast.ClassDef) and not node.name.startswith("_")}
    assert sorted(defined - set(retroq.__all__)) == []
    assert [name for name in sorted(defined) if getattr(retroq, name, None) is None] == []


def _assigned(target: ast.AST):
    """The plain targets of an assignment target, tuples, lists and starred names unpacked."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _assigned(element)
    elif isinstance(target, ast.Starred):
        yield from _assigned(target.value)
    else:
        yield target


def _attribute_writes(func: ast.AST):
    """``(line, target, root)`` for each assignment, plain, unpacked, annotated or augmented,
    in ``func`` to an attribute, at any depth, of the name ``root``."""
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in (t for top in targets for t in _assigned(top)):
            root = target
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(target, ast.Attribute) and isinstance(root, ast.Name):
                yield node.lineno, ast.unparse(target), root.id


def _argument_writes(tree: ast.AST) -> list[str]:
    """``line target`` for each assignment, plain, unpacked, annotated or augmented, to an
    attribute of a parameter other than ``self`` or ``cls`` of the function it is in."""
    writes = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = func.args
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None} - {"self", "cls"}
        writes += [f"{line} {target}" for line, target, root in _attribute_writes(func) if root in params]
    return writes


def test_the_argument_write_guard_sees_every_kind_of_assignment():
    source = """
def f(m, *rest, key=None, **extra):
    m.a = 1
    x, (m.b, *m.c) = 1, (2, 3)
    m.d: int = 4
    m.e += 5
    m.f.g = 6
    key.h = 7
    m.i[0] = 8  # writes into an attribute's value, not the attribute
    self.j = 9
    local = m
    local.k = 10  # an alias is not followed
"""
    assert _argument_writes(ast.parse(source)) == [
        "3 m.a", "4 m.b", "4 m.c", "5 m.d", "6 m.e", "7 m.f.g", "8 key.h"]


def test_no_function_assigns_an_attribute_of_its_arguments():
    # a library function reads what it is given; only a method writes, through self or cls
    writes = [f"{path.name}:{write}" for path in MODULES for write in _argument_writes(_tree(path))]
    assert writes == []


def _self_writes(tree: ast.AST) -> list[str]:
    """``Class.target`` for each assignment to an attribute of ``self``, and each ``setattr`` on
    ``self``, in a method that is not a constructor: ``__init__``, ``_hold`` or a classmethod."""
    writes = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for func in cls.body:
            if (not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or func.name in ("__init__", "_hold")
                    or any(ast.unparse(d) == "classmethod" for d in func.decorator_list)):
                continue
            writes += [f"{cls.name}.{target[len('self.'):]}"
                       for _, target, root in _attribute_writes(func) if root == "self"]
            for call in ast.walk(func):
                if (isinstance(call, ast.Call) and len(call.args) > 1
                        and ast.unparse(call.func).rsplit(".")[-1] in ("setattr", "__setattr__")
                        and ast.unparse(call.args[0]) == "self"):
                    name = call.args[1]
                    name = name.value if isinstance(name, ast.Constant) else ast.unparse(name)
                    writes.append(f"{cls.name}.{name}")
    return writes


def test_the_self_write_guard_spares_constructors_alone():
    source = """
class A:
    def __init__(self):
        self.a = 1
    def _hold(self):
        self.b = 2
    @classmethod
    def make(cls):
        made = cls.__new__(cls)
        made.c = 3
        return made
    def later(self):
        self.d, (self.e, *self.f) = 4, (5, 6)
        self.g += 7
        self.h.i = 8
        self.j[0] = 9  # writes into an attribute's value, not the attribute
        setattr(self, "k", 10)
        object.__setattr__(self, "l", 11)
    @property
    def lazy(self):
        self.m: int = 12
"""
    assert _self_writes(ast.parse(source)) == [
        "A.d", "A.e", "A.f", "A.g", "A.h.i", "A.k", "A.l", "A.m"]


def test_only_the_named_caches_write_to_self_outside_a_constructor():
    # each is formed lazily, at most once per key, and justified where it is declared:
    # Retrodictor._elements, the dense elements of a factor, formed on first read, and
    # Measurement._family, the unambiguous final family of the last input state and tolerance,
    # which assess_measurement and then retrodict_unambiguously on its recommended state share
    writes = [f"{path.name}:{write}" for path in MODULES for write in _self_writes(_tree(path))]
    assert sorted(writes) == ["measurement.py:Measurement._family", "measurement.py:Retrodictor._elements"]
