"""Source hygiene that no installed linter checks.

Every import is used: a module-level ``__all__`` counts as a use of the
names it lists, a name used only in a quoted annotation counts as used, and
``from __future__`` imports are exempt.

No cache in ``src/lmlreg`` is unbounded: neither ``functools.cache`` nor an
``lru_cache`` with ``maxsize=None``, since a cache keyed by sizes or shapes
would grow with every table a long-running caller fits.

Every member of the package has a reader besides the tests: each
module-level function and class, and each method, class-level annotated
field and instance attribute (``self.name = …`` in a method) defined in
``src/lmlreg`` is read in ``src/`` outside its own definition, in
``scripts/`` or in ``bench/``; or README.md names it in code; or
``bench/spans.py`` names it in a string, as the traced run wraps functions
by name.  A function or class is read as a name or an attribute, a method,
field or instance attribute only as an attribute: a local variable of the
same name is not a read of a field.  Dunder methods, which Python calls
itself, are exempt.  Reads match by name, not by class, so a member counts
as read when a member of another class with its name is: an unread
``value`` attribute on an exception would pass, as ``_Point.value`` is read.

Every oracle is used: each module-level function and class in
``tests/oracles.py`` is read, as a name or an attribute, by a test module
or by an oracle that is itself used.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
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


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Each module-level function and class, and each method, annotated field and
    instance attribute of a module-level class, as (qualified name, node); an
    instance attribute's node is its first ``self.name`` target.  Dunders are
    left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            attributes = {}
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append((f"{node.name}.{member.name}", member))
                    for part in ast.walk(member):
                        if (isinstance(part, ast.Attribute) and isinstance(part.ctx, ast.Store)
                                and isinstance(part.value, ast.Name) and part.value.id == "self"):
                            attributes.setdefault(f"{node.name}.{part.attr}", part)
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    out.append((f"{node.name}.{member.target.id}", member))
            out += attributes.items()
    return [(name, node) for name, node in out if not re.search(r"(^|\.)__\w+__$", name)]


def loads(tree: ast.AST) -> Counter[str]:
    """How often each name is read in ``tree``: ``name`` as a name, ``.name`` as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else "." + node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load))


def readme_names(text: str) -> set[str]:
    """The identifiers in README's code: fenced blocks and `inline spans`."""
    fences = re.findall(r"^```.*?^```", text, flags=re.S | re.M)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    return set(re.findall(r"\w+", " ".join(fences + re.findall(r"`([^`]*)`", prose))))


def unread_members(src: dict[str, str], outside: list[str], readme: str,
                   wrapped: str) -> list[str]:
    """The members defined in the ``src`` sources that nothing outside the tests reads.

    ``outside`` holds the other sources whose reads count, ``wrapped`` the
    source whose string constants name wrapped members.
    """
    trees = {path: ast.parse(text) for path, text in src.items()}
    read = sum(map(loads, trees.values()), Counter())
    external = set().union(*(loads(ast.parse(text)) for text in outside))
    named = readme_names(readme) | {node.value for node in ast.walk(ast.parse(wrapped))
                                    if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = []
    for path, tree in trees.items():
        for qualified, node in definitions(tree):
            _, dot, name = qualified.rpartition(".")
            ways = ["." + name] if dot else [name, "." + name]
            own = loads(node)
            if (name not in named and not any(way in external for way in ways)
                    and all(read[way] <= own[way] for way in ways)):
                unread.append(f"{path}: {qualified}")
    return unread


def test_every_member_has_a_reader_besides_the_tests():
    src = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
           for path in sorted((ROOT / "src" / "lmlreg").glob("*.py"))}
    outside = [path.read_text(encoding="utf-8")
               for folder in ("scripts", "bench") for path in (ROOT / folder).rglob("*.py")]
    assert unread_members(src, outside, (ROOT / "README.md").read_text(encoding="utf-8"),
                          (ROOT / "bench" / "spans.py").read_text(encoding="utf-8")) == []


def test_the_member_scan_finds_what_it_should():
    source = ("from dataclasses import dataclass\n"
              "@dataclass\n"
              "class Step:\n"
              "    fit: int\n"
              "    scope: int\n"
              "    def __post_init__(self):\n"
              "        pass\n"
              "    def again(self):\n"
              "        self.kept, self.lost = 1, 2\n"
              "        return self.again(), self.kept\n"
              "def helper(step):\n"
              "    scope = 1\n"
              "    return step.fit, scope\n"
              "def listed():\n"
              "    pass\n"
              "def wrapped():\n"
              "    pass\n"
              "def used():\n"
              "    pass\n")
    unread = unread_members({"m.py": source}, ["import m\nm.used()\n"],
                            "Call `listed()`; fit and helper are only prose.",
                            "NAMES = [('m', 'wrapped')]\n")
    assert unread == ["m.py: Step", "m.py: Step.scope", "m.py: Step.again", "m.py: Step.lost",
                      "m.py: helper"]


def unreached_oracles(oracles: str, tests: list[str]) -> list[str]:
    """The module-level functions and classes of the ``oracles`` source, in
    definition order, that no source in ``tests`` reads, directly or through
    the oracles it reads."""
    defined = {node.name: node for node in ast.parse(oracles).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}

    def reads(tree: ast.AST) -> set[str]:
        return {name.lstrip(".") for name in loads(tree)} & defined.keys()

    reached: set[str] = set()
    todo = set().union(*(reads(ast.parse(text)) for text in tests))
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= reads(defined[name]) - reached
    return [name for name in defined if name not in reached]


def test_every_oracle_is_used():
    tests = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "tests").glob("*.py"))
             if path.name != "oracles.py"]
    assert unreached_oracles((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"),
                             tests) == []


def test_the_oracle_scan_finds_what_it_should():
    oracles = ("def direct():\n"
               "    return through()\n"
               "def through():\n"
               "    return through()\n"
               "class ByAttribute:\n"
               "    pass\n"
               "def unread():\n"
               "    return only_by_unread(), unread()\n"
               "def only_by_unread():\n"
               "    pass\n"
               "def imported_only():\n"
               "    pass\n")
    tests = ["from oracles import direct, imported_only\n",
             "import oracles\ndef test_a():\n    assert direct() and oracles.ByAttribute\n"]
    assert unreached_oracles(oracles, tests) == ["unread", "only_by_unread", "imported_only"]


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


def unbounded_caches(source: str) -> list[str]:
    """Each ``functools.cache`` and each ``lru_cache`` called with ``maxsize=None``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "functools.cache") for alias in node.names if alias.name == "cache"]
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append((node.lineno, "functools.cache"))
        elif isinstance(node, ast.Call) and "lru_cache" in (getattr(node.func, "id", None),
                                                            getattr(node.func, "attr", None)):
            size = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg == "maxsize"), None)
            if isinstance(size, ast.Constant) and size.value is None:
                found.append((node.lineno, "lru_cache(maxsize=None)"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "lmlreg").glob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_cache_is_bounded(path):
    assert unbounded_caches(path.read_text(encoding="utf-8")) == []


def test_the_cache_scan_finds_what_it_should():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@functools.cache\n"
              "def a(n): return n\n"
              "@lru_cache(maxsize=None)\n"
              "def b(n): return n\n"
              "@functools.lru_cache(None)\n"
              "def c(n): return n\n"
              "@lru_cache(maxsize=256)\n"
              "def d(n): return n\n"
              "@lru_cache\n"
              "def e(n): return n\n"
              "@functools.lru_cache()\n"
              "def f(n): return n\n")
    assert unbounded_caches(source) == ["line 2: functools.cache", "line 3: functools.cache",
                                        "line 5: lru_cache(maxsize=None)",
                                        "line 7: lru_cache(maxsize=None)"]
