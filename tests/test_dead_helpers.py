"""Every private helper and module constant of the library is used somewhere in it.

A ``_``-prefixed function or class, or a module-level UPPER_CASE constant,
that no other line of ``src/pqcartan`` names is dead code: it is kept in
step with the code around it, yet nothing runs or reads it.  Tests may
call private helpers and read constants, but they do not keep them alive.
"""

import ast
from pathlib import Path

import pqcartan

SRC = Path(pqcartan.__file__).resolve().parent


def _private_definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                yield node.name, node.lineno


def _module_constants(tree):
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                yield target.id, target.lineno


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _unreferenced(definitions):
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    referenced = {name for tree in trees.values() for name in _referenced_names(tree)}
    return [f"{path}:{lineno} {name}" for path, tree in trees.items()
            for name, lineno in definitions(tree) if name not in referenced]


def test_every_private_helper_is_referenced():
    assert _unreferenced(_private_definitions) == []


def test_every_module_constant_is_referenced():
    assert _unreferenced(_module_constants) == []
