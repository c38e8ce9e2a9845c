"""One spectral routine: LAPACK's solvers are called from one function.

Every module of the package is parsed, and each numpy eigen- or
singular-value solver it names (``np.linalg.eigh`` and the like, or a
name imported from ``numpy.linalg``) must sit inside
``linalg.eigen_hermitian``.
"""

import ast
from pathlib import Path

import pytest

import effectlogic

SOLVERS = {"eigh", "eigvalsh", "eig", "eigvals", "svd"}
HOMES = {"eigen_hermitian"}
PACKAGE = Path(effectlogic.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _names_linalg(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Attribute) and node.attr == "linalg")
            or (isinstance(node, ast.Name) and node.id == "linalg"))


def solver_uses(tree: ast.AST) -> list[tuple[int, str | None, str]]:
    """(line, enclosing top-level function or None, solver) for each solver named."""
    used = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and where is None:
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr in SOLVERS and _names_linalg(node.value):
            used.append((node.lineno, where, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            used.extend((node.lineno, where, a.name) for a in node.names if a.name in SOLVERS)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return used


def _uses(path: Path) -> list[tuple[int, str | None, str]]:
    return solver_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_solves_only_in_the_one_routine(path):
    allowed = HOMES if path.name == "linalg.py" else set()
    stray = [use for use in _uses(path) if use[1] not in allowed]
    assert not stray, f"{path.name} calls a solver outside {sorted(HOMES)}: {stray}"


def test_the_routine_makes_one_solve():
    assert [use[1:] for use in _uses(PACKAGE / "linalg.py")] == [("eigen_hermitian", "eigh")]


def test_checker_sees_a_stray_solve():
    tree = ast.parse("import numpy as np\n"
                     "def eigen_hermitian(a):\n    return np.linalg.eigh(a)\n"
                     "def spectrum(a):\n    return np.linalg.eigvalsh(a)\n"
                     "from numpy.linalg import svd, norm\n"
                     "top = linalg.eigvals(np.eye(2))\n")
    assert solver_uses(tree) == [(3, "eigen_hermitian", "eigh"), (5, "spectrum", "eigvalsh"),
                                 (6, None, "svd"), (7, None, "eigvals")]
