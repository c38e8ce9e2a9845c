"""A quantum predicate is one type, ``QPredicate``, which checks its left part.

``quantum.Effect`` survives only as an alias of it, for the benchmark's
tracer.  No other module of the package or of the tests may import or name
it, so deleting the alias is a one-line change.
"""

import ast
from pathlib import Path

import pytest

import effectlogic
from effectlogic import quantum

PACKAGE = Path(effectlogic.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
MODULES = sorted(p for p in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")] if p.name != "quantum.py")
OLD = "Effect"


def old_names(tree: ast.AST) -> list[int]:
    """Lines that name the old type: as a name, an attribute or an import."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == OLD
                or isinstance(node, ast.Attribute) and node.attr == OLD):
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.extend(node.lineno for alias in node.names
                         if OLD in (alias.name.rsplit(".", 1)[-1], alias.asname))
    return lines


def test_the_old_name_is_an_alias():
    assert getattr(quantum, OLD) is quantum.QPredicate


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_does_not_name_the_old_type(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not old_names(tree), f"{path.name} names {OLD} on lines {old_names(tree)}"


def test_checker_sees_every_spelling():
    tree = ast.parse(f"from .quantum import {OLD}\nx = quantum.{OLD}\ny = {OLD}(m)\n"
                     f"import a.{OLD}\nfrom q import P as {OLD}\nz = Finite{OLD}Algebra\n")
    assert sorted(old_names(tree)) == [1, 2, 3, 4, 5]
