"""Convergence of the 3D sphere benchmark on structured and perturbed meshes.

The paper tests on structured and unstructured grids; criterion 6 covers
the structured sphere at two levels.  Here three levels per mesh kind fit a
least-squares order, and the pole error must fall at each refinement.  The
perturbed mesh stands in for an unstructured one (oracles.jittered_mesh).

n is odd on purpose.  At even n the transect x = z = 0.5 runs along mesh
edges, where the error is no longer a bulk error: n = 16 -> 25 gave order
0.69 with a rising pole error.
"""

import numpy as np
import pytest

from efem.efem_core import assemble_global
from efem.mesh import generate_structured
from efem.oracles import (
    SphereCase,
    analytic_boundary,
    jittered_mesh,
    sphere_levelset,
    sphere_materials,
)
from efem.postprocess import (
    build_solution,
    elements_containing,
    eval_in_element,
    l2_line_error,
    observed_order,
)
from efem.solver import solve

LEVELS = (13, 19, 27)
TRANSECT = ((0.5, 0.0, 0.5), (0.5, 1.0, 0.5))
POLE = (0.5, 0.6, 0.5)
MESHES = {
    "structured": lambda n: generate_structured(3, n),
    "jittered": lambda n: jittered_mesh((n, n, n), seed=3, amplitude=0.15),
}


@pytest.mark.parametrize("kind", sorted(MESHES))
def test_sphere_converges_on_three_levels(capsys, kind):
    case = SphereCase(3.0)
    errs, pole_errs, fallbacks = [], [], []
    for n in LEVELS:
        mesh = MESHES[kind](n)
        asm = assemble_global(mesh, sphere_levelset(), sphere_materials(), "efem",
                              analytic_boundary(3, case.phi))
        phi, report = solve(asm.matrix, asm.rhs, tol=1e-10)
        assert report.converged
        sol = build_solution(asm, phi)
        errs.append(l2_line_error(sol, case.phi, *TRANSECT))
        got, _ = eval_in_element(sol, elements_containing(sol, POLE)[0], POLE, side=+1)
        pole_errs.append(abs(got - case.phi(POLE)))
        fallbacks.append(len(asm.fallback_elements))
    order = observed_order([1.0 / n for n in LEVELS], errs)
    with capsys.disabled():
        print(f"\n3D sphere, {kind} n = {LEVELS}: order {order:.2f}, "
              f"L2 {', '.join(f'{e:.2e}' for e in errs)}, "
              f"pole {', '.join(f'{e:.1e}' for e in pole_errs)}, fallbacks {fallbacks}")
    assert order >= 1.5, (order, errs)
    assert np.all(np.diff(pole_errs) < 0.0), pole_errs
