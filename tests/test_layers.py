"""The package imports only what it declares (the standard library and numpy),
and its modules import one another in one order, lowest first."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qcss"
# a module may import only modules of a lower rank; the package's __init__
# re-exports them all
RANK = {"binpoly": 0, "errors": 0, "z4": 1, "diffsets": 2, "correlation": 3, "analysis": 4, "cli": 5,
        "__init__": 6}
# (module, source, name): every private name a module takes from another one
PRIVATE_REACHES = {
    ("correlation", "z4", "_rotations"),
    ("correlation", "z4", "_walsh_hadamard"),
    ("diffsets", "binpoly", "_prime_factors"),
}


def imported(tree):
    """(kind, name) for every import in a module, at any depth: ("qcss",
    module) for a relative import of the package's own, else ("top",
    top-level name), so an absolute import of qcss counts as undeclared."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (("top", alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield "qcss", node.module.partition(".")[0]
            else:  # from . import a, b
                yield from (("qcss", alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "top", node.module.partition(".")[0]


def test_every_module_has_a_rank():
    assert {p.stem for p in PACKAGE.glob("*.py")} == RANK.keys()


@pytest.mark.parametrize("module", sorted(RANK), ids=str)
def test_imports_are_declared_and_point_down(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for kind, name in imported(tree):
        if kind == "qcss":
            assert RANK[name] < RANK[module], f"{module} imports {name}, which is not below it"
        else:
            assert name in sys.stdlib_module_names or name == "numpy", \
                f"{module} imports {name}, which is neither the standard library nor numpy"


def private_reaches(module, tree):
    """(module, source, name) for every _-prefixed name ``module`` takes from
    another module of the package, by ``from .m import _x`` or by ``m._x``
    after ``from . import m``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            source = node.module.partition(".")[0]
            yield from ((module, source, a.name) for a in node.names if a.name.startswith("_"))
        elif isinstance(node, ast.ImportFrom) and node.level:
            aliases.update((a.asname or a.name, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")):
            yield module, aliases[node.value.id], node.attr


def test_private_names_cross_modules_only_where_listed():
    found = {reach for module in RANK
             for reach in private_reaches(module, ast.parse((PACKAGE / f"{module}.py").read_text()))}
    assert found == PRIVATE_REACHES
