"""No function, class, method or local of micz9 exists for nothing.

AST scans of src/micz9: every definition found, dunders excluded, must be
referenced by name somewhere in the package outside its own body, be
exported by micz9/__init__, or be one of the functions perfbench/tracer.py
wraps; and every local a function stores must be read somewhere in it.
"""

import ast
import collections
import importlib.util
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "micz9"


def _names(node) -> collections.Counter:
    """Names used in code (Name and Attribute nodes, not strings) under node."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _wrapped() -> set:
    path = _ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return set(module.WRAPPED)


def test_every_definition_is_used_exported_or_traced():
    trees = {f"micz9.{path.stem}": ast.parse(path.read_text()) for path in _PACKAGE.glob("*.py")}
    used = sum((_names(tree) for tree in trees.values()), collections.Counter())
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["micz9.__init__"]) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    wrapped = _wrapped()
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] > _names(node)[name] or name in exported or (module, name) in wrapped:
                continue
            unused.append(f"{module}.{name}")
    assert not unused, f"defined but used by nothing in micz9: {unused}"


def test_every_stored_local_is_read():
    # a name a function binds and never reads is dead code; _-prefixed names (so "_") are exempt
    unread = []
    for path in sorted(_PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
            loaded = {n.id for n in names if not isinstance(n.ctx, ast.Store)}
            unread += sorted({f"{path.stem}.{fn.name}: {n.id}" for n in names
                              if isinstance(n.ctx, ast.Store) and not n.id.startswith("_")
                              and n.id not in loaded})
    assert not unread, f"locals stored and never read: {unread}"
