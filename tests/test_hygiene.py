"""Source hygiene that no installed linter checks: every import is used.

A module-level ``__all__`` counts as a use of the names it lists, a name
used only in a quoted annotation counts as used, and ``from __future__``
imports are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "tests", "scripts")
               for path in (ROOT / folder).rglob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its last binding."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def names_in(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def used_names(tree: ast.Module) -> set[str]:
    """Every name read in ``tree``, with those in quoted annotations and in ``__all__``."""
    nodes = list(ast.walk(tree))
    annotations = [node.returns for node in nodes
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    annotations += [node.annotation for node in nodes if isinstance(node, (ast.arg, ast.AnnAssign))]
    used = names_in(tree)
    for part in (part for ann in annotations if ann is not None for part in ast.walk(ann)):
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            used |= names_in(ast.parse(part.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and "__all__" in names_in(node.targets[0]):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}"
            for line, name in sorted((line, name) for name, line in imported_names(tree).items())
            if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import numpy.linalg\n"
              "from typing import IO, Iterator as It\n"
              "from json import dumps, loads\n"
              "__all__ = ['dumps']\n"
              "def f(x: 'IO[str]') -> 'list[int]':\n"
              "    return numpy.linalg.norm(sys.argv)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: It", "line 5: loads"]
    assert FILES and all(path.suffix == ".py" for path in FILES)
