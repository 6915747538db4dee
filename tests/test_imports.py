"""Every name a ``src/noc`` module imports is read somewhere in its scope.

An import is checked against the scope it is made in: a module-level
import against the whole module, an import inside a function against
that function's body.  Names listed in ``__all__`` and ``from
__future__`` imports are exempt, and a name read only in a string
annotation counts as read.

Also: ``noc.optproblem`` imports nothing of the control stack, no
module imports anything of SciPy, at any scope, and none imports
``numpy.random`` or ``hashlib`` or reads ``np.random``.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "noc"
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope):
    """The nodes of ``scope`` outside the functions nested in it."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _own_nodes(child)


def _reads(scope) -> set:
    """Every name loaded in ``scope``, nested functions and string
    annotations included."""
    names = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= _reads(ast.parse(annotation.value, mode="eval"))
    return names


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """(line, name) of every imported name that its scope never reads."""
    tree = ast.parse(source)
    exempt = _exported(tree)
    found = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, _SCOPES))]:
        reads = _reads(scope)
        for node in _own_nodes(scope):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in reads and not (scope is tree and name in exempt):
                    found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_walk_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from a import b as c, d\n"
              "__all__ = ['d']\n"
              "def f(x: 'Path') -> None:\n"
              "    from pathlib import Path, PurePath\n"
              "    return sys.argv\n")
    assert unused_imports(source) == [(2, "os"), (3, "c"), (6, "PurePath")]


def imported_modules(source: str, package: str = "noc") -> set:
    """Every module that ``source``, a module of ``package``, imports from
    at any scope, as an absolute dotted name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package if node.level else ""
            for _ in range(node.level - 1):
                base = base.rpartition(".")[0]
            module = ".".join(p for p in (base, node.module) if p)
            found.add(module)
            if node.module is None:          # from . import name
                found |= {f"{module}.{alias.name}" for alias in node.names}
    return found


def test_optproblem_imports_nothing_of_the_control_stack():
    source = (PACKAGE / "optproblem.py").read_text(encoding="utf-8")
    control = {"noc.dynamics", "noc.conditions", "noc.geometry"}
    assert imported_modules(source) & control == set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # every linear program is noc.polyhedral.linear_program, a NumPy simplex
    source = path.read_text(encoding="utf-8")
    assert not {m for m in imported_modules(source) if m.split(".")[0] == "scipy"}


def _fallback_nodes(tree) -> set:
    """The nodes inside ``except ImportError`` handlers: imports that run
    only where an earlier one failed."""
    return {id(node) for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler)
            and isinstance(handler.type, ast.Name)
            and handler.type.id == "ImportError"
            for stmt in handler.body for node in ast.walk(stmt)}


def openssl_uses(source: str) -> set:
    """The imports of ``numpy.random`` or ``hashlib``, and the reads of
    ``np.random`` or ``numpy.random``, in ``source``; an import in an
    ``except ImportError`` fallback does not count."""
    tree = ast.parse(source)
    fallback = _fallback_nodes(tree)
    found = set()
    for node in ast.walk(tree):
        if id(node) in fallback:
            continue
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names
                      if a.name.startswith(("numpy.random", "hashlib"))}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            if module.startswith(("numpy.random", "hashlib")):
                found.add(module)
            elif module == "numpy":
                found |= {f"numpy.{a.name}" for a in node.names if a.name == "random"}
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            found.add(f"{node.value.id}.random")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_numpy_random_or_hashlib(path):
    # numpy.random and hashlib load OpenSSL (numpy.random through secrets);
    # draws come from noc.draws, the digest from the interpreter's SHA-256
    assert openssl_uses(path.read_text(encoding="utf-8")) == set()


def test_the_walk_finds_numpy_random_and_hashlib():
    source = ("import numpy as np\n"
              "import hashlib\n"
              "from numpy import random\n"
              "from numpy.random import default_rng\n"
              "try:\n"
              "    from _sha256 import sha256\n"
              "except ImportError:\n"
              "    from hashlib import sha256\n"
              "def f():\n"
              "    return np.random.default_rng(0)\n")
    assert openssl_uses(source) == {"hashlib", "numpy.random", "np.random"}


def test_the_walk_finds_a_nested_relative_import():
    source = ("from .cones import Ball\n"
              "def f():\n"
              "    from .dynamics import integrate_state\n"
              "    from . import geometry\n"
              "    import noc.conditions\n")
    assert imported_modules(source) == {
        "noc.cones", "noc.dynamics", "noc", "noc.geometry", "noc.conditions"}
