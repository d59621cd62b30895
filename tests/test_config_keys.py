"""Every key the CLI reads from a config is named in README.md.

A key the README does not name is a knob no reader of the documentation
sets on purpose.  The keys are read off ``cli.py``'s syntax tree: the string
in ``cfg.get("k")``, ``cfg["k"]`` and ``"k" in cfg``; the string arguments
of a call that also passes ``cfg`` (``_ball_length(rep, cfg, "length_max",
9)`` reads ``cfg.get(key)``); and the same reads on a name bound to a config
read, such as the ``grid`` entry (``g = cfg.get("grid", {})``, then
``g.get("hi")``).  Keys that ``main`` writes into the config itself
(``cfg["k"] = ...`` or ``cfg.setdefault("k", ...)``) are exempt.  README.md
names a key when it holds it in backticks or in double quotes.
"""

import ast
from pathlib import Path

import pqcartan

SRC = Path(pqcartan.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
CONFIG = "cfg"


def _string(node):
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _is_config(node, configs) -> bool:
    return isinstance(node, ast.Name) and node.id in configs


def _config_read(node, configs):
    """The constant key ``node`` reads from one of the ``configs`` names, or None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get"
            and _is_config(node.func.value, configs) and node.args):
        return _string(node.args[0])
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) and _is_config(node.value, configs):
        return _string(node.slice)
    if (isinstance(node, ast.Compare) and len(node.ops) == 1 and isinstance(node.ops[0], (ast.In, ast.NotIn))
            and _is_config(node.comparators[0], configs)):
        return _string(node.left)
    return None


def config_keys(source: str) -> set[str]:
    """Keys the module reads from its configs, less those its ``main`` writes."""
    tree = ast.parse(source)
    configs = {CONFIG}
    while True:
        bound = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and _config_read(node.value, configs) is not None
                 for t in node.targets if isinstance(t, ast.Name)}
        if bound <= configs:
            break
        configs |= bound
    read = set()
    for node in ast.walk(tree):
        read.add(_config_read(node, configs))
        if isinstance(node, ast.Call) and any(_is_config(a, {CONFIG}) for a in node.args):
            read |= {_string(a) for a in node.args}
    written = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "main":
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    written |= {_string(t.slice) for t in node.targets
                                if isinstance(t, ast.Subscript) and _is_config(t.value, {CONFIG})}
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "setdefault" and _is_config(node.func.value, {CONFIG})):
                    written.add(_string(node.args[0]))
    return read - written - {None}


def test_every_config_key_the_cli_reads_is_named_in_the_readme():
    readme = README.read_text(encoding="utf-8")
    keys = config_keys((SRC / "cli.py").read_text(encoding="utf-8"))
    unnamed = sorted(k for k in keys if f"`{k}`" not in readme and f'"{k}"' not in readme)
    assert unnamed == []


def test_config_keys_follow_every_documented_read():
    source = '''
def cmd_x(cfg, args):
    a = cfg.get("a", 1)
    if "c" in cfg:
        b = cfg["b"]
    helper(rep, cfg, "d", 2)
    g = cfg.get("e", {})
    h = g["f"]
    return h.get("i"), other.get("not_a_key"), cfg.get(name)

def main(argv=None):
    cfg = load()
    cfg["w"] = 1
    cfg.setdefault("v", 2)
    return cfg["w"], cfg["v"]
'''
    assert config_keys(source) == {"a", "b", "c", "d", "e", "f", "i"}
