"""Every module-level name in ``src/kqkp`` is read somewhere in ``src/kqkp``.

A name that only tests read (a helper, a constant, an import left behind)
belongs in ``tests/``; one that nothing reads is dead.  The module-level
names are assignments, ``def``s, ``class``es and imports (``from
__future__`` excluded); dunder names such as ``__version__`` and ``__all__``
are read by the interpreter and packaging tools.  A read is a name loaded
or an attribute taken anywhere in the package, so a name counts as read
when any module reads it.  The sources are parsed with ``ast``, never run.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kqkp"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _defined(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Import):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def _read(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_module_level_name_has_a_reader_in_src():
    reads = {name for tree in TREES.values() for name in _read(tree)}
    unread = sorted(f"{module}: {name}" for module, tree in TREES.items()
                    for name in _defined(tree)
                    if not (name.startswith("__") and name.endswith("__"))
                    and name not in reads)
    assert not unread, f"names that src/kqkp never reads: {unread}"
