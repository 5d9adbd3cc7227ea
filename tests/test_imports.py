"""Every name a fracteig module imports is used in that module.

Each module except the package's `__init__` is parsed with `ast`; an imported
name counts as used when the module reads it as a name (`np.sum` reads `np`)
or lists it in `__all__`.  `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracteig"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom a import b, c as d\n"
                          "__all__ = ['b']\nos.sep\n") == ["math", "d"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
