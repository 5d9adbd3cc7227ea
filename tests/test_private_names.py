"""Every private module-level name of fracteig is read somewhere in the package.

A module-level ``_name`` (a function, a class or an assigned name) of a
module in `src/fracteig` counts as read when some module of the package
loads it, as a name or as an attribute, outside its own definition.  So a
private helper cannot outlive its last caller.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracteig"


def _definitions(tree: ast.Module) -> dict:
    """Private module-level names of a module and the line spans defining them."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                spans[name] = (node.lineno, node.end_lineno)
    return spans


def unread_private_names(sources: dict) -> list:
    """Private module-level names, as "module.name", that no module reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = {module: _definitions(tree) for module, tree in trees.items()}
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            first, last = defined[module].get(name, (0, -1))
            if not first <= node.lineno <= last:  # a call of itself is no caller
                read.add(name)
    return sorted(f"{module}.{name}" for module, spans in defined.items()
                  for name in spans if name not in read)


def test_the_check_finds_an_unread_helper():
    sources = {
        "a": "_LIMIT = 3\ndef _used():\n    return _LIMIT\n"
             "def _loop(n):\n    return _loop(n - 1)\nclass _Unused:\n    pass\n",
        "b": "from a import _used\nprint(_used())\n",
    }
    assert unread_private_names(sources) == ["a._Unused", "a._loop"]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
