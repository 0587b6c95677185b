"""Simplex geometry has one kernel: the closed forms in efem.mesh.

No module of the package may reach numpy's batched dense LAPACK drivers
np.linalg.det, inv or solve: measures, gradients and barycentric
coordinates come from the cofactor kernel and mesh.grads.  The check reads
the source with ast, so it also catches a path that no test runs.
"""

import ast
from pathlib import Path

import pytest

import efem

PACKAGE = Path(efem.__file__).resolve().parent
BANNED = {f"numpy.linalg.{name}" for name in ("det", "inv", "solve")}


def _banned_uses(tree) -> list[tuple[int, str]]:
    """(line, dotted name) of every use of a BANNED name, through any import
    alias: `import numpy as np`, `import numpy.linalg as la`,
    `from numpy import linalg`, `from numpy.linalg import det as d`."""
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                alias[a.asname or a.name.split(".")[0]] = a.name if a.asname else a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for a in node.names:
                alias[a.asname or a.name] = f"{node.module}.{a.name}"

    def dotted(node):
        if isinstance(node, ast.Name):
            return alias.get(node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    return sorted({(node.lineno, name) for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and (name := dotted(node)) in BANNED})


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_batched_lapack(path):
    assert _banned_uses(ast.parse(path.read_text())) == []


def test_the_rule_sees_every_import_form():
    source = """
import numpy as np
import numpy.linalg as la
from numpy import linalg
from numpy.linalg import solve as lu_solve
np.linalg.det(a)
la.inv(a)
f = linalg.solve
lu_solve(a, b)
np.linalg.norm(a)
"""
    assert _banned_uses(ast.parse(source)) == [
        (6, "numpy.linalg.det"), (7, "numpy.linalg.inv"), (8, "numpy.linalg.solve"),
        (9, "numpy.linalg.solve")]
