"""Every definition of the library is read by what it serves.

A read resolves to a definition by three rules:

- a bare name read inside a function (or lambda, or comprehension) that
  binds that name itself, as a parameter or by assignment, reads the local
  variable, never a module definition of the same name;
- ``C.m``, with ``C`` a class defined in ``src``, reads only ``C``'s ``m``,
  and ``self.m`` inside a method of ``C`` reads only ``C``'s ``m``;
- ``x.m`` on any other receiver may read any ``m``, so a method or property
  counts as read only as an attribute (``x.m``), a module definition also
  as a bare name or an import.

A read inside a definition's own body does not keep it alive.

A ``_``-prefixed function, class or method, or a module-level UPPER_CASE
constant, that no other line of ``src/pqcartan`` reads is dead code: it is
kept in step with the code around it, yet nothing runs or reads it.  Tests
may call private helpers and read constants, but they do not keep them
alive.

A public definition is surface, so the benchmark may be its only user; one
that no line of ``src``, ``tests`` or ``perfbench`` reads is dead all the
same.  So is an annotated field of a ``src`` class that none of them reads
as an attribute.  Tests alone do not keep these alive:

- a public module-level function or class: a line of ``src`` outside its
  own definition (an ``__init__`` name counts) or a ``perfbench`` file must
  read it.  A second path to a result the engine already gives, kept alive
  only by the test comparing the two, belongs in the tests.  The exceptions
  are the acceptance experiments that only the acceptance tests run;
- a public method or property: the same, unless its class is exported by
  ``pqcartan/__init__`` (``Form``, ``Flag``, ``ScaledMatrix``), whose
  methods are the library's surface.  ``ALLOWED_METHODS`` lists the
  exceptions, each with its reason.

A private helper belongs to its module: a helper another module needs has
a public name in the module that owns it.  The surface is declared once:
no module but ``__init__`` defines ``__all__``.
"""

import ast
import textwrap
from pathlib import Path
from typing import NamedTuple

import pqcartan

SRC = Path(pqcartan.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]

# run by tests/test_acceptance.py alone: the paper's experiments, not a second path
ACCEPTANCE_EXPERIMENTS = {"theorem_b_trend", "gromov_comparison", "comparison_boundedness"}
EXPORTED_CLASSES = {name for name in pqcartan.__all__ if isinstance(getattr(pqcartan, name), type)}
ALLOWED_METHODS = {
    ("ChamberA", "read"),  # the inverse of ``place``, named with it in ROADMAP aim 2 and the README
}

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)
ANY = "*"  # the receiver of ``x.m`` when x is neither a src class nor ``self``


class Definition(NamedTuple):
    name: str
    line: int
    cls: str | None  # the class of a method, None for anything else
    node: ast.AST


def _definitions(tree):
    """Every function and class definition of a tree."""
    owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield Definition(node.name, node.lineno, owner.get(id(node)), node)


def _private_definitions(tree):
    return (d for d in _definitions(tree) if d.name.startswith("_") and not d.name.endswith("__"))


def _public_definitions(tree):
    return (d for d in _definitions(tree) if not d.name.startswith("_"))


def _fields(tree):
    """Every annotated field of a class, as a definition of its class."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield Definition(node.target.id, node.lineno, cls.name, node)


def _module_definitions(tree):
    return (d for d in _public_definitions(tree) if d.node in tree.body and d.name not in ACCEPTANCE_EXPERIMENTS)


def _methods(tree):
    return (d for d in _public_definitions(tree)
            if d.cls and d.cls not in EXPORTED_CLASSES and (d.cls, d.name) not in ALLOWED_METHODS)


def _module_targets(tree):
    """(name, statement) of every module-level assignment to a plain name."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node


def _module_constants(tree):
    for name, node in _module_targets(tree):
        if name.isupper():
            yield Definition(name, node.lineno, None, node)


def _local_names(scope):
    """Names a function or comprehension binds itself: its parameters and assignment targets."""
    bound, declared = set(), set()
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
        if not isinstance(node, (*SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return bound - declared


def _reads(tree, classes):
    """(name, receiver, enclosing definitions) of every read in a tree.

    The receiver is None for a bare name or an import, a class of
    ``classes`` for ``C.m`` and for ``self.m`` in a method of C, and ANY for
    an attribute of any other receiver; a bare name a function binds itself
    is no read.  The enclosing definitions are the ids of the function and
    class nodes around the read.
    """
    def visit(node, local, cls, methods_of, within):
        if isinstance(node, SCOPES):
            local = local | _local_names(node)
            cls = methods_of or cls
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            within = within | {id(node)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            yield node.id, None, within
        elif isinstance(node, ast.alias):
            yield node.name, None, within
        elif isinstance(node, ast.Attribute):
            value = getattr(node.value, "id", None)
            if value == "self" and cls:
                yield node.attr, cls, within
            elif value in classes and value not in local:
                yield node.attr, value, within
            else:
                yield node.attr, ANY, within
        methods_of = node.name if isinstance(node, ast.ClassDef) else None
        for child in ast.iter_child_nodes(node):
            yield from visit(child, local, cls, methods_of, within)

    return visit(tree, frozenset(), None, None, frozenset())


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _src_trees():
    return {path.name: _parse(path) for path in sorted(SRC.glob("*.py"))}


def _unread(definitions, trees, users=()):
    """Definitions that no read of ``trees`` outside their own bodies, nor of ``users``, resolves to."""
    classes = {node.name for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    reads: dict[str, list] = {}
    for tree in [*trees.values(), *users]:
        for name, receiver, within in _reads(tree, classes):
            reads.setdefault(name, []).append((receiver, within))
    unread = []
    for path, tree in trees.items():
        for d in definitions(tree):
            receivers = (ANY, d.cls) if d.cls else (ANY, None)
            hits = reads.get(d.name, ())
            if not any(receiver in receivers and id(d.node) not in within for receiver, within in hits):
                unread.append(f"{path}:{d.line} {d.cls + '.' if d.cls else ''}{d.name}")
    return unread


def _users(*dirs):
    paths = [path for name in dirs for path in sorted((REPO / name).glob("*.py"))]
    assert paths
    return [_parse(path) for path in paths]


def test_every_private_helper_is_referenced():
    assert _unread(_private_definitions, _src_trees()) == []


def test_every_module_constant_is_referenced():
    assert _unread(_module_constants, _src_trees()) == []


def test_every_public_definition_is_named_in_src_tests_or_perfbench():
    assert _unread(_public_definitions, _src_trees(), _users("tests", "perfbench")) == []


def test_every_field_is_read_as_an_attribute():
    assert _unread(_fields, _src_trees(), _users("tests", "perfbench")) == []


def test_every_public_module_definition_is_named_outside_tests():
    assert _unread(_module_definitions, _src_trees(), _users("perfbench")) == []


def test_every_method_of_an_unexported_class_is_named_outside_tests():
    assert EXPORTED_CLASSES == {"Form", "Flag", "ScaledMatrix"}
    assert _unread(_methods, _src_trees(), _users("perfbench")) == []


def test_no_module_names_another_modules_private_definition():
    trees = _src_trees()
    owners: dict[str, set[str]] = {}
    for path, tree in trees.items():
        for d in _private_definitions(tree):
            owners.setdefault(d.name, set()).add(path)
    borrowed = sorted(f"{path} names {name} of {', '.join(sorted(owners[name]))}"
                      for path, tree in trees.items() for name in {name for name, *_ in _reads(tree, set())}
                      if path not in owners.get(name, {path}))
    assert borrowed == []


def test_no_module_but_init_defines_all():
    assert [path for path, tree in _src_trees().items()
            if path != "__init__.py" and any(name == "__all__" for name, _ in _module_targets(tree))] == []


def _unread_names(*sources, definitions=_definitions):
    tree = ast.parse("".join(map(textwrap.dedent, sources)))
    return {label.split()[-1] for label in _unread(definitions, {"m.py": tree})}


def test_check_reads_a_name_its_function_binds_as_the_local():
    shadowed = """
        def f(): pass
        def g(f): return f()
        def h():
            f = 1
            return [f for f in range(f)]
    """
    assert "f" in _unread_names(shadowed)
    assert "f" not in _unread_names(shadowed, "def k(): return f()\n")


def test_check_reads_a_class_attribute_for_that_class_alone():
    source = """
        class A:
            def m(self): pass
        class B:
            def m(self): pass
        def f(): return A.m
    """
    assert {"A.m", "B.m"} & _unread_names(source) == {"B.m"}
    assert {"A.m", "B.m"} & _unread_names(source, "def g(x): return x.m\n") == set()


def test_check_reads_a_self_attribute_for_its_own_class_alone():
    source = """
        class A:
            def m(self): return self.m()
            def n(self): return self.k
        class B:
            def k(self): pass
        class C:
            def k(self): pass
            def f(self): return self.k
    """
    assert {"A.m", "B.k", "C.k"} & _unread_names(source) == {"A.m", "B.k"}


def test_check_reads_a_field_only_as_an_attribute():
    source = """
        class A:
            x: int
            y: int = 0
            z = 0
        class B:
            y: int
        def f(a, y): return a.x + y + A.y
    """
    # a bare name is no field read; A.y reads A's y alone; an unannotated attribute is no field
    assert _unread_names(source, definitions=_fields) == {"B.y"}
    assert _unread_names(source, "def g(b): return b.y\n", definitions=_fields) == set()
