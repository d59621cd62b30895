"""Every private helper of the library is used somewhere in the library.

A ``_``-prefixed function or class that no other line of ``src/pqcartan``
names is dead code: it is kept in step with the code around it, yet nothing
runs it.  Tests may call private helpers, but they do not keep them alive.
"""

import ast
from pathlib import Path

import pqcartan

SRC = Path(pqcartan.__file__).resolve().parent


def _private_definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                yield node


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    referenced = {name for tree in trees.values() for name in _referenced_names(tree)}
    dead = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
            for node in _private_definitions(tree) if node.name not in referenced]
    assert dead == []
