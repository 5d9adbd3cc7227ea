"""Every name a fracteig module imports is used in that module, and the
modules import each other in layers.

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


# The package modules each module imports: geometry is the base, the finite-p
# energy and the limit equation's scan do not import each other, and only the
# solver combines them.  `cli` and `__init__` sit on top and are not listed.
LAYERS = {
    "geometry": set(),
    "energy": {"geometry"},
    "reports": {"geometry"},
    "closedform1d": {"geometry"},
    "infinity": {"geometry", "reports"},
    "solver": {"energy", "geometry", "infinity"},
}


def package_imports(source: str) -> set:
    """The fracteig modules a module's source imports, wherever it does:
    relative imports (`from .x import y`, `from . import x`) and absolute
    ones (`import fracteig.x`, `from fracteig.x import y`)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                found.add(node.module.split(".")[0])
            elif node.level:
                found.update(a.name for a in node.names)
            elif node.module and node.module.split(".")[0] == "fracteig":
                found.add(node.module.split(".")[1] if "." in node.module else "__init__")
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("fracteig."))
    return found


def test_the_check_finds_every_package_import():
    source = ("import numpy\nfrom .energy import x\nfrom . import reports\n"
              "import fracteig.solver\ndef f():\n    from fracteig.infinity import y\n")
    assert package_imports(source) == {"energy", "reports", "solver", "infinity"}


def test_every_module_is_layered():
    assert {p.stem for p in MODULES} - {"cli"} == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_the_package_is_layered(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert package_imports(source) == LAYERS[module]
