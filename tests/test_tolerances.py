"""The package reads exactly two tolerances, so ``--eps`` reaches every check.

Every module except ``config`` itself is parsed, and each use of ``config``
(an attribute read, or a name imported from it) must be ``EPS``,
``POST_EPS`` or ``set_epsilon``.
"""

import ast
from pathlib import Path

import pytest

import effectlogic

ALLOWED = {"EPS", "POST_EPS", "set_epsilon"}
PACKAGE = Path(effectlogic.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "config.py")


def config_names(tree: ast.AST) -> list[tuple[int, str]]:
    used = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "config"):
            used.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("config"):
            used.extend((node.lineno, alias.name) for alias in node.names)
    return used


def test_config_defines_two_tolerances():
    from effectlogic import config

    floats = {name for name, value in vars(config).items() if isinstance(value, float)}
    assert floats == {"EPS", "POST_EPS"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_only_the_two_tolerances(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    stray = [(line, name) for line, name in config_names(tree) if name not in ALLOWED]
    assert not stray, f"{path.name} reads other config names: {stray}"


def test_checker_sees_a_stray_tolerance():
    tree = ast.parse("from . import config\nx = config.THIRD_TOL\nfrom .config import EPS, OTHER\n")
    assert sorted(config_names(tree)) == [(2, "THIRD_TOL"), (3, "EPS"), (3, "OTHER")]
