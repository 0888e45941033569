"""Every module-level function, class and constant of the library is read
somewhere in the library or exported by the package's ``__all__``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cubenergy"
MODULES = sorted(SRC.glob("*.py"))


def _definitions(tree: ast.Module):
    """Names of the module-level functions, classes and assigned constants
    of ``tree``, dunders left out, in source order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("__")]


def _reads(tree: ast.Module):
    """Every name that an expression of ``tree`` reads, by itself or as an
    attribute, and every name its ``__all__`` exports."""
    exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                for elt in node.value.elts}
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} |
            {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)} |
            exported)


def _unread(sources):
    """(module, name) for each definition of the ``sources`` (module name
    -> source) that none of them reads or exports."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return [(module, name) for module, tree in trees.items()
            for name in _definitions(tree) if name not in read]


def test_the_check_sees_every_module():
    assert {p.name for p in MODULES} >= {"_fanout.py", "extension.py",
                                         "intervals.py"}


def test_every_definition_is_read_or_exported():
    assert _unread({p.name: p.read_text() for p in MODULES}) == []


def test_dead_code_check_catches_an_orphan():
    sources = {
        "__init__.py": ("from .a import shown\n"
                        "__all__ = [\"shown\"]\n"),
        "a.py": ("_LIMIT = 3\n_unused_flag: bool = False\n"
                 "def _helper(x):\n    return x + _LIMIT\n"
                 "class _Orphan:\n    pass\n"
                 "def shown():\n    pass\n"
                 "def hidden():\n    pass\n"
                 "def __getattr__(name):\n    raise AttributeError(name)\n"),
        "b.py": ("from . import a\n_seen = a._helper(1)\n"
                 "def _left():\n    return _seen\n"),
    }
    assert _unread(sources) == [("a.py", "_unused_flag"), ("a.py", "_Orphan"),
                                ("a.py", "hidden"), ("b.py", "_left")]


def test_dead_code_check_counts_reads_in_the_defining_module():
    source = ("_x = 1\ndef g():\n    global _x\n    _x += 1\n    return _x\n"
              "__all__ = [\"g\"]\n")
    assert _unread({"m.py": source}) == []
