"""BiCGSTAB behavior against small hand cases and the LU oracles."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from efem import solver
from efem.efem_core import assemble_global
from efem.mesh import generate_structured
from efem.oracles import (SphereCase, analytic_boundary, box_boundary, cylinder_levelset,
                          cylinder_materials, planar_levelset, planar_materials, sphere_levelset,
                          sphere_materials)
from efem.solver import AMG_AFTER, SolveReport, bicgstab, direct_solve, jacobi_precondition, solve


def test_identity_converges_immediately():
    b = np.array([3.0, -1.0, 0.5])
    x, rep = bicgstab(sp.identity(3, format="csr"), b)
    assert rep.converged
    assert rep.iterations <= 1
    assert np.allclose(x, b, atol=1e-12)


def test_small_spd_hand_case():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x, rep = bicgstab(A, np.array([1.0, 1.0]))
    assert rep.converged
    assert rep.residual <= 1e-8
    assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0], atol=1e-8)


def test_diagonal_system_one_iteration():
    A = sp.diags([2.0, 5.0, 0.25, 10.0]).tocsr()
    b = np.array([1.0, 2.0, 3.0, 4.0])
    x, rep = bicgstab(A, b)
    assert rep.converged
    assert rep.iterations <= 1
    assert np.allclose(x, b / A.diagonal(), atol=1e-10)


def test_zero_rhs_returns_zero():
    A = sp.identity(4, format="csr")
    x, rep = bicgstab(A, np.zeros(4))
    assert rep.converged
    assert rep.iterations == 0
    assert not x.any()


def test_jacobi_rejects_zero_diagonal():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [3.0, 0.0]]))
    with pytest.raises(ValueError, match="row 1"):
        jacobi_precondition(A)


def test_matches_dense_lu_on_condensed_system():
    mesh = generate_structured(2, 5, 5)
    asm = assemble_global(mesh, planar_levelset(), planar_materials(3.0), "efem", box_boundary(2))
    x_it, rep = bicgstab(asm.matrix, asm.rhs, tol=1e-10)
    assert rep.converged
    x_lu = scipy.linalg.solve(asm.matrix.toarray(), asm.rhs)
    assert np.abs(x_it - x_lu).max() < 1e-7
    assert np.abs(direct_solve(asm.matrix, asm.rhs) - x_lu).max() < 1e-12


def test_reported_residual_is_recomputable():
    mesh = generate_structured(2, 6, 6)
    asm = assemble_global(mesh, planar_levelset(), planar_materials(1e6), "efem", box_boundary(2))
    x, rep = bicgstab(asm.matrix, asm.rhs)
    check = np.linalg.norm(asm.rhs - asm.matrix @ x) / np.linalg.norm(asm.rhs)
    assert abs(rep.residual - check) < 1e-12
    assert rep.converged and rep.residual <= 1e-8


def test_non_convergence_reported_honestly():
    mesh = generate_structured(2, 5, 5)
    asm = assemble_global(mesh, planar_levelset(), planar_materials(3.0), "efem", box_boundary(2))
    x, rep = bicgstab(asm.matrix, asm.rhs, tol=1e-300)
    assert not rep.converged
    check = np.linalg.norm(asm.rhs - asm.matrix @ x) / np.linalg.norm(asm.rhs)
    assert abs(rep.residual - check) < 1e-12


def test_solve_direct_path_reports_lu():
    A = sp.csr_matrix(np.array([[4.0, 1.0], [2.0, 3.0]]))
    b = np.array([1.0, 2.0])
    x, rep = solve(A, b, direct=True)
    assert rep.method == "lu"
    assert rep.converged and rep.restarted is False
    assert np.allclose(A @ x, b, atol=1e-12)


def test_restarted_is_read_from_the_method():
    assert SolveReport(3, 0.0, True, "bicgstab-amg").restarted is True
    for method in ("bicgstab", "lu"):
        assert SolveReport(3, 0.0, True, method).restarted is False
    with pytest.raises(AttributeError):
        SolveReport(3, 0.0, True).restarted = True


def test_solver_is_deterministic():
    mesh = generate_structured(2, 8, 8)
    asm = assemble_global(mesh, planar_levelset(), planar_materials(3.0), "efem", box_boundary(2))
    x1, r1 = bicgstab(asm.matrix, asm.rhs)
    x2, r2 = bicgstab(asm.matrix, asm.rhs)
    assert np.array_equal(x1, x2)
    assert r1 == r2


@pytest.mark.parametrize("direct", [False, True])
def test_solve_leaves_the_assembled_pattern_alone(direct):
    """Both paths solve on the stored nonzeros without touching the matrix,
    so criterion 7's P1 graph, stored zeros included, survives the solve."""
    mesh = generate_structured(2, 8, 8)
    asm = assemble_global(mesh, planar_levelset(), planar_materials(3.0), "efem", box_boundary(2))
    A = asm.matrix
    before = (A.data.copy(), A.indices.copy(), A.indptr.copy())
    assert (A.data == 0.0).any()
    x, rep = solve(A, asm.rhs, tol=1e-10, direct=direct)
    assert rep.converged
    for now, then in zip((A.data, A.indices, A.indptr), before):
        assert np.array_equal(now, then)


@pytest.mark.parametrize("direct", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["A", "b"])
def test_non_finite_input_is_rejected_naming_the_row(where, bad, direct):
    """Rejected before any iteration or factorization.  Unchecked, a NaN in b
    runs both phases to their cap and reports residual=nan, and an inf in A
    surfaces as an exactly singular coarse AMG factor."""
    mesh = generate_structured(2, 30, 30)
    asm = assemble_global(mesh, planar_levelset(), planar_materials(3.0), "efem", box_boundary(2))
    A, b = asm.matrix.copy(), asm.rhs.copy()
    if where == "A":
        k = A.indptr[417] + 2
        A.data[k] = bad
        message = f"in A at row 417, column {A.indices[k]}$"
    else:
        b[417] = bad
        message = "in b at row 417$"
    factored, iterated = AssertionError("factored"), AssertionError("iterated")
    with mock.patch.object(solver, "_splu", side_effect=factored), \
            mock.patch.object(solver, "jacobi_precondition", side_effect=iterated):
        with pytest.raises(ValueError, match=message):
            solve(A, b, direct=direct)


@pytest.fixture(scope="module")
def fine_2d_mesh():
    return generate_structured(2, 200, 200)


def test_fine_2d_solve_switches_to_amg(fine_2d_mesh):
    """2D n=200, q=100: Jacobi falls behind the pace to tol within about 30
    iterations, and the AMG restart converges quickly."""
    asm = assemble_global(fine_2d_mesh, cylinder_levelset(), cylinder_materials(100.0), "efem",
                          box_boundary(2))
    x, rep = bicgstab(asm.matrix, asm.rhs)
    assert rep.converged and rep.restarted
    assert rep.method == "bicgstab-amg" and rep.restart == "behind pace"
    assert 0 < rep.jacobi_iterations <= 40
    assert rep.jacobi_iterations < rep.iterations <= rep.jacobi_iterations + 30
    ref = direct_solve(asm.matrix, asm.rhs)
    assert np.abs(x - ref).max() <= 1e-6 * np.abs(ref).max()


def test_high_contrast_amg_solve_reaches_tol(fine_2d_mesh):
    """2D n=200, q=1e4, efem: Jacobi alone needs thousands of iterations
    here; after the switch the solve reaches tol well inside the AMG cap."""
    asm = assemble_global(fine_2d_mesh, cylinder_levelset(), cylinder_materials(1e4), "efem",
                          box_boundary(2))
    x, rep = bicgstab(asm.matrix, asm.rhs)
    assert rep.converged and rep.method == "bicgstab-amg"
    assert rep.residual <= 1e-8


def test_amg_phase_is_capped(monkeypatch):
    """The AMG phase stops at its own cap, well before the overall cap of 10 n.
    At tol=1e-300 the pace line after iteration 1 is 1e-3, so the switch
    comes right after it."""
    monkeypatch.setattr(solver, "AMG_MAX_ITER", 5)
    mesh = generate_structured(2, 30, 30)
    asm = assemble_global(mesh, planar_levelset(), planar_materials(3.0), "efem", box_boundary(2))
    x, rep = bicgstab(asm.matrix, asm.rhs, tol=1e-300)
    assert not rep.converged and rep.method == "bicgstab-amg"
    assert rep.restart == "behind pace" and rep.jacobi_iterations == 1
    assert rep.iterations - rep.jacobi_iterations == 5
    check = np.linalg.norm(asm.rhs - asm.matrix @ x) / np.linalg.norm(asm.rhs)
    assert abs(rep.residual - check) < 1e-12


def test_3d_sphere_system_stays_on_jacobi():
    """The benchmark's 3D sphere system (n=32, q=3, analytic boundary; here
    centred) stays ahead of the pace to tol, so it never builds the AMG
    hierarchy."""
    exact = SphereCase(3.0)
    asm = assemble_global(generate_structured(3, 32), sphere_levelset(), sphere_materials(3.0),
                          "efem", analytic_boundary(3, exact.phi))
    x, rep = bicgstab(asm.matrix, asm.rhs)
    assert rep.converged and rep.method == "bicgstab"
    assert rep.restart == "" and rep.jacobi_iterations == rep.iterations < AMG_AFTER
