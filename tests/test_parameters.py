"""Every parameter of every library function is read by its body.

A parameter nobody reads is an option that silently does nothing for the
caller who sets it.  Two signatures are exempt: a method's receiver, which
Python binds, and the ``cmd_*(cfg, args)`` signature every CLI subcommand
shares so ``main`` can dispatch through one table.

The number of defaulted parameters may only fall: a value no caller varies
is a module constant, not a keyword.
"""

import ast
from pathlib import Path

import pqcartan

SRC = Path(pqcartan.__file__).resolve().parent


def _functions(tree):
    """(function, has a receiver) for every function definition in the module."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, id(node) in methods


def _unread_parameters(path: Path):
    for fn, has_receiver in _functions(ast.parse(path.read_text(encoding="utf-8"))):
        a = fn.args
        params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
        params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
        if has_receiver and a.posonlyargs + a.args:
            params = params[1:]
        if fn.name.startswith("cmd_") and params == ["cfg", "args"]:
            continue
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name in params:
            if name not in read:
                yield f"{path.name}:{fn.lineno} {fn.name}({name})"


def test_no_function_has_an_unread_parameter():
    unread = [u for path in sorted(SRC.glob("*.py")) for u in _unread_parameters(path)]
    assert unread == []


# Defaulted parameters in src/pqcartan (ast count): 119, then 90, 68, 67,
# 60, 57, 39, 35, 34, 33 (o_generic's degeneracy_rtol), now 27.  A caller who
# wants another threshold compares the margin the result already carries; a
# new knob needs a visible edit to this bound.  Four went as defaults every caller overrides: identity_suite's
# samples and seed, _random_matrix's field and theorem_b_trend's class_length;
# the last, PhiCocycles.of's chamber, went with the class, which only tests used.
# The last six went as defaults only tests took, found by line-tracing the
# benchmark workloads and every CLI subcommand: cone_samples' and
# DirectionsCollector's stride (with the cone config key), phi_entropy's chamber,
# build_schottky's and build_reducible_example's power and gromov_comparison's
# length_min.
MAX_DEFAULTED_PARAMETERS = 27


def _defaulted_parameter_count(path: Path) -> int:
    return sum(len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)
               for fn, _ in _functions(ast.parse(path.read_text(encoding="utf-8"))))


def test_defaulted_parameter_count_does_not_grow():
    count = sum(_defaulted_parameter_count(path) for path in sorted(SRC.glob("*.py")))
    assert count <= MAX_DEFAULTED_PARAMETERS
