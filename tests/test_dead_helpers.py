"""Every private helper and module constant of the library is used somewhere in it.

A ``_``-prefixed function or class, or a module-level UPPER_CASE constant,
that no other line of ``src/pqcartan`` names is dead code: it is kept in
step with the code around it, yet nothing runs or reads it.  Tests may
call private helpers and read constants, but they do not keep them alive.

A public function, class or method is surface, so a test or the benchmark
may be its only user; one that no line of ``src``, ``tests`` or
``perfbench`` names is dead all the same.  A public module-level function
or class must be named by more than tests: by a line of ``src`` outside its
own definition (an ``__init__`` name counts), or by ``perfbench``.  A
second path to a result the engine already gives, kept alive only by the
test comparing the two, belongs in the tests.  The exceptions are the
acceptance experiments that only the acceptance tests run.

A method or property is used only where it is read as an attribute
(``x.name``): a local variable or argument of the same name keeps nothing
alive.

A private helper belongs to its module: a helper another module needs has
a public name in the module that owns it.
"""

import ast
from collections import Counter
from pathlib import Path

import pqcartan

SRC = Path(pqcartan.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]

# run by tests/test_acceptance.py alone: the paper's experiments, not a second path
ACCEPTANCE_EXPERIMENTS = {"theorem_b_trend", "gromov_comparison", "comparison_boundedness"}


def _definitions(tree):
    """(name, line, whether it is a method) of every function and class definition."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, id(node) in methods


def _private_definitions(tree):
    for name, lineno, method in _definitions(tree):
        if name.startswith("_") and not name.endswith("__"):
            yield name, lineno, method


def _public_definitions(tree):
    for name, lineno, method in _definitions(tree):
        if not name.startswith("_"):
            yield name, lineno, method


def _module_constants(tree):
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                yield target.id, target.lineno, False


def _referenced_names(tree):
    """(name, whether it is read as an attribute) of every name a tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.alias):
            yield node.name, False


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _unreferenced(definitions, users=()):
    trees = {path.name: _parse(path) for path in sorted(SRC.glob("*.py"))}
    reads = {read for tree in [*trees.values(), *map(_parse, users)] for read in _referenced_names(tree)}
    names = {name for name, _ in reads}
    attributes = {name for name, attribute in reads if attribute}
    return [f"{path}:{lineno} {name}" for path, tree in trees.items()
            for name, lineno, method in definitions(tree) if name not in (attributes if method else names)]


def test_every_private_helper_is_referenced():
    assert _unreferenced(_private_definitions) == []


def test_every_module_constant_is_referenced():
    assert _unreferenced(_module_constants) == []


def test_every_public_definition_is_named_in_src_tests_or_perfbench():
    users = sorted((REPO / "tests").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    assert users
    assert _unreferenced(_public_definitions, users) == []


def test_every_public_module_definition_is_named_outside_tests():
    trees = {path.name: _parse(path) for path in sorted(SRC.glob("*.py"))}
    src_reads = Counter(name for tree in trees.values() for name, _ in _referenced_names(tree))
    bench_reads = {name for path in sorted((REPO / "perfbench").glob("*.py"))
                   for name, _ in _referenced_names(_parse(path))}
    unnamed = [f"{path}:{node.lineno} {node.name}" for path, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_") and node.name not in ACCEPTANCE_EXPERIMENTS | bench_reads
               and src_reads[node.name] == sum(name == node.name for name, _ in _referenced_names(node))]
    assert unnamed == []


def test_no_module_names_another_modules_private_definition():
    trees = {path.name: _parse(path) for path in sorted(SRC.glob("*.py"))}
    owners: dict[str, set[str]] = {}
    for path, tree in trees.items():
        for name, _, _ in _private_definitions(tree):
            owners.setdefault(name, set()).add(path)
    borrowed = sorted(f"{path} names {name} of {', '.join(sorted(owners[name]))}"
                      for path, tree in trees.items() for name in {name for name, _ in _referenced_names(tree)}
                      if path not in owners.get(name, {path}))
    assert borrowed == []
