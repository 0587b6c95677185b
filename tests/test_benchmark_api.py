"""The efem names and result attributes the benchmark uses exist.

perfbench/workloads.py drives the public API through module attributes
(efem_core.assemble_global, postprocess.eval_in_element, ...),
perfbench/run.py records attributes of the results and of the oracle cases
it builds, and perfbench/tracing.py wraps internal functions by name.  A
change that deletes or renames one of them would only show when the
benchmark runs; these tests fail on it first.  The traced names that are
already gone are pinned as a set.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from efem import efem_core, oracles, postprocess, solver
from efem.efem_core import MODES
from efem.mesh import generate_structured

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
TRACING = WORKLOADS.with_name("tracing.py")
ALIASES = {"efem_core", "interface", "postprocess", "solver", "oracles", "mesh_mod"}


def _modules_and_names(tree):
    """{alias: module} of the file's `from efem import ...`, and the
    (alias, attribute) pairs it reads."""
    modules = {a.asname or a.name: f"efem.{a.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "efem"
               for a in node.names}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    return modules, sorted(used)


def test_every_efem_name_the_workloads_use_exists():
    modules, used = _modules_and_names(ast.parse(WORKLOADS.read_text()))
    assert ALIASES <= modules.keys()
    assert {alias for alias, _ in used} == ALIASES
    missing = [f"{alias}.{name}" for alias, name in used
               if not hasattr(importlib.import_module(modules[alias]), name)]
    assert missing == []


def test_traced_inner_targets_that_no_longer_exist_are_pinned():
    """perfbench/tracing.py wraps the (module, attribute) pairs of INNER and
    reports a missing one as an absent per-layer metric.  These are the
    targets already gone; removing another traced name fails here first."""
    tree = ast.parse(TRACING.read_text())
    inner = next(ast.literal_eval(node.value) for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "INNER" for t in node.targets))
    gone = {f"{module.rsplit('.', 1)[1]}.{attr}" for module, attr, _ in inner
            if not hasattr(importlib.import_module(module), attr)}
    assert gone == {"efem_core.all_geometry", "postprocess.all_geometry",
                    "postprocess.locate", "postprocess.barycentric",
                    "efem_core.cut_exterior_faces"}


@pytest.mark.parametrize("mode", MODES)
def test_result_attributes_the_benchmark_reads_exist(mode):
    """perfbench/run.py and workloads.py read these attributes off the
    results.  run.py reads report.restarted through getattr(..., None), so a
    rename would record None there instead of failing."""
    mesh = generate_structured(2, 8, 8)
    asm = efem_core.assemble_global(mesh, oracles.cylinder_levelset(),
                                    oracles.cylinder_materials(3.0), mode,
                                    oracles.box_boundary(2))
    phi, report = solver.solve(asm.matrix, asm.rhs, tol=1e-10)
    sol = postprocess.build_solution(asm, phi)
    sample = postprocess.sample_line(sol, [0.25, 0.0], [0.25, 1.0], count=11)

    assert isinstance(report.iterations, int) and isinstance(report.residual, float)
    assert report.converged is True and isinstance(report.restarted, bool)
    is_cut = asm.classification.is_cut
    assert is_cut.dtype == bool and is_cut.any()
    assert asm.matrix.nnz > 0 and asm.rhs.shape == (mesh.n_nodes,)
    assert isinstance(asm.fallback_elements, list)
    enriched = 0 if mode == "standard" else int(is_cut.sum()) - len(asm.fallback_elements)
    assert len(asm.cut_data) == enriched
    assert isinstance(sol.phi_star, dict) and len(sol.phi_star) == enriched
    assert sample.t.size >= 11


@pytest.mark.parametrize("make, center, radius", [
    (lambda: oracles.CylinderCase(3.0), oracles.CYLINDER_CENTER, oracles.CYLINDER_RADIUS),
    (lambda: oracles.SphereCase(3.0, center=(0.51, 0.49, 0.5), radius=0.1),
     (0.51, 0.49, 0.5), 0.1),
], ids=["cylinder", "sphere"])
def test_oracle_case_attributes_the_workloads_read_exist(make, center, radius):
    """workloads.py builds its level sets and recorded parameters from the
    cases' center and radius, passes phi as stacked Dirichlet data and as
    the l2 reference, and calls it with one point in the pole check.  The
    AST check above sees only module attributes, not these."""
    case = make()
    assert tuple(case.center) == center and case.radius == radius
    x = np.asarray(center) + np.linspace(-2.0, 2.0, 5)[:, None] * radius
    stacked = case.phi(x)
    assert stacked.shape == (5,) and stacked.dtype == float
    for p, value in zip(x, stacked):
        one = case.phi(p)
        assert type(one) is float and one == value
