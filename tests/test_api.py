"""The public surface: every exported name has a caller in the library."""

import ast
from pathlib import Path

import dyadnet

# The synthetic digit-sign experiments of acceptance 09 have no caller
# in the library yet; ROADMAP item 13 decides whether they stay.
UNCALLED = {"khinchin_ratios", "hyperbolic_lp_ratios"}


def referenced_names() -> set[str]:
    """Names read by the package's modules other than `__init__.py`:
    loaded identifiers and attribute names, not imports or definitions."""
    names = set()
    for path in Path(dyadnet.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_production_caller():
    assert UNCALLED <= set(dyadnet.__all__)
    assert set(dyadnet.__all__) - referenced_names() == UNCALLED
