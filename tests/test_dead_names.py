"""Dead-name guard over the package source, by the standard library's ast.

In every module of src/sinrbackbone but __init__.py (which re-exports),
each imported name but a __future__ feature, and each module-level private
(_name) function, class or constant, must be read somewhere in its module
outside its own definition: a name nothing reads is code that nothing
needs. Names in string annotations count as read.

Likewise each field of a private record (a _Name NamedTuple or dataclass)
must be read as an attribute somewhere in the package: a field nothing
reads is computed for nothing.
"""

import ast
from pathlib import Path
from typing import Sequence

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sinrbackbone"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(node: ast.AST) -> list[ast.AST]:
    """The annotations node carries itself: of an argument, a return or an
    annotated assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return [node.annotation] if node.annotation else []
    return []


def _reads(tree: ast.AST) -> list[str]:
    """Every name tree loads, with each string in an annotation read as the
    expression it holds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append(node.id)
        for ann in _annotations(node):
            for c in ast.walk(ann):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    expr = ast.parse(c.value, mode="eval")
                    out += [n.id for n in ast.walk(expr) if isinstance(n, ast.Name)]
    return out


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def dead_names(source: str) -> list[str]:
    """The names of source (a module) that the guard flags, in order."""
    tree = ast.parse(source)
    defined = []  # (name, the node whose own reads do not count)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                defined.append(((alias.asname or alias.name).split(".")[0], None))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _private(node.name):
                defined.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and _private(n.id):
                        defined.append((n.id, None))
    reads = _reads(tree)
    dead = []
    for name, own in defined:
        inside = _reads(own).count(name) if own is not None else 0
        if reads.count(name) == inside:
            dead.append(name)
    return dead


def _is_record(node: ast.ClassDef) -> bool:
    """Whether the class is a NamedTuple or a dataclass."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list] + node.bases
    names = [getattr(m, "id", getattr(m, "attr", None)) for m in marks]
    return "dataclass" in names or "NamedTuple" in names


def dead_fields(sources: Sequence[str]) -> list[str]:
    """The fields of the private records that sources (the modules of one
    package) define, as Class.field, in order, that no attribute load in
    any of sources reads."""
    trees = [ast.parse(source) for source in sources]
    loads = {
        n.attr
        for tree in trees
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return [
        f"{node.name}.{stmt.target.id}"
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _private(node.name) and _is_record(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        if stmt.target.id not in loads
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_and_private_name_is_read(module):
    assert dead_names((SRC / module).read_text()) == []


def test_every_private_record_field_is_read():
    assert dead_fields([p.read_text() for p in sorted(SRC.glob("*.py"))]) == []


def test_the_guard_flags_unread_names():
    source = '''
from __future__ import annotations
import math
import numpy as np
from typing import Optional, Sequence
from .errors import SimulationError as Failure

_LIMIT = 3
_USED: Optional["_Kept"] = None
PUBLIC = 1


def _count(payload):
    return len(payload) + sum(_count(x) - 1 for x in payload if isinstance(x, tuple))


class _Kept:
    pass


def _unused():
    return np.zeros(_LIMIT)


def public(xs: "Sequence[int]"):
    return math.fsum(xs)
'''
    assert dead_names(source) == ["Failure", "_USED", "_count", "_unused"]
    records = '''
from dataclasses import dataclass
from typing import NamedTuple


class _Pair(NamedTuple):
    left: int
    right: int


@dataclass(frozen=True)
class _Box:
    width: int
    height: int = 0


class Public(NamedTuple):
    unread: int


def area(box: "_Box", pair: "_Pair") -> int:
    return box.width * pair.left
'''
    # a read in another module of the package counts; a public record's
    # fields are not checked
    assert dead_fields([records, "def height(box):\n    return box.height\n"]) == ["_Pair.right"]
    assert dead_fields([records]) == ["_Pair.right", "_Box.height"]
