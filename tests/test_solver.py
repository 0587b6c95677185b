"""BiCGSTAB behavior against small hand cases and the LU oracles."""

import hashlib
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
from efem.solver import (AMG_AFTER, AMG_FIRST_ROW_NNZ, COARSEST_SIZE, SolveReport, bicgstab,
                         direct_solve, free_block, jacobi_precondition, solve)


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


def test_restarted_is_read_from_the_restart():
    """A solve that starts with AMG has not restarted; one whose AMG phase
    follows a Jacobi phase, or a breakdown, has."""
    for why in ("behind pace", "breakdown"):
        assert SolveReport(3, 0.0, True, "bicgstab-amg", 1, why).restarted is True
    assert SolveReport(3, 0.0, True, "bicgstab-amg", 0, "breakdown").restarted is True
    for method in ("bicgstab-amg", "bicgstab", "lu"):
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


def test_fine_2d_solve_starts_with_amg(fine_2d_mesh):
    """2D n=200, q=100: a triangle stencil with more than COARSEST_SIZE free
    rows starts with the AMG V-cycle, which converges quickly; the pace rule
    took 28 Jacobi iterations before its restart."""
    asm = assemble_global(fine_2d_mesh, cylinder_levelset(), cylinder_materials(100.0), "efem",
                          box_boundary(2))
    x, rep = bicgstab(asm.matrix, asm.rhs)
    assert rep.converged and not rep.restarted
    assert rep.method == "bicgstab-amg" and rep.restart == ""
    assert rep.jacobi_iterations == 0 and rep.iterations <= 15
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
    The 2D n=30 system (899 free rows) starts with AMG.  The 3D n=16 one
    starts on Jacobi: at tol=1e-300 the pace line after iteration 1 is
    1e-3, so the switch comes right after it."""
    monkeypatch.setattr(solver, "AMG_MAX_ITER", 5)
    planar = assemble_global(generate_structured(2, 30, 30), planar_levelset(),
                             planar_materials(3.0), "efem", box_boundary(2))
    sphere = assemble_global(generate_structured(3, 16), sphere_levelset(),
                             sphere_materials(3.0), "efem", box_boundary(3))
    for asm, jacobi, why in ((planar, 0, ""), (sphere, 1, "behind pace")):
        x, rep = bicgstab(asm.matrix, asm.rhs, tol=1e-300)
        assert not rep.converged and rep.method == "bicgstab-amg"
        assert rep.restart == why and rep.jacobi_iterations == jacobi
        assert rep.iterations - rep.jacobi_iterations == 5
        check = np.linalg.norm(asm.rhs - asm.matrix @ x) / np.linalg.norm(asm.rhs)
        assert abs(rep.residual - check) < 1e-12


def test_3d_sphere_system_stays_on_jacobi():
    """The benchmark's 3D sphere system (n=32, q=3, analytic boundary; here
    centred) has a tetrahedral stencil, 14.3 stored entries per row, so it
    starts on Jacobi although its free block is far above COARSEST_SIZE.  It
    stays ahead of the pace to tol and never builds the AMG hierarchy."""
    exact = SphereCase(3.0)
    asm = assemble_global(generate_structured(3, 32), sphere_levelset(), sphere_materials(3.0),
                          "efem", analytic_boundary(3, exact.phi))
    A = asm.matrix
    assert A.nnz >= AMG_FIRST_ROW_NNZ * A.shape[0]
    assert free_block(A, asm.rhs)[1].size > COARSEST_SIZE
    x, rep = bicgstab(A, asm.rhs)
    assert rep.converged and rep.method == "bicgstab"
    assert rep.restart == "" and rep.jacobi_iterations == rep.iterations < AMG_AFTER


@pytest.mark.parametrize("again", [False, True])
def test_amg_start_restarts_once_on_breakdown(monkeypatch, again):
    """A breakdown in the AMG phase that started the solve restarts it once,
    with a fresh shadow residual and the hierarchy already built; a second
    breakdown reports failure.  A zero third V-cycle (the p_hat of iteration
    2) makes r_hat . v vanish."""
    built = []

    class Failing(solver.SmoothedAggregation):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)
            self.calls = 0

        def __call__(self, b):
            self.calls += 1
            if self.calls == 3 or (again and self.calls > 3):
                return np.zeros_like(b)
            return super().__call__(b)

    monkeypatch.setattr(solver, "SmoothedAggregation", Failing)
    asm = assemble_global(generate_structured(2, 30, 30), planar_levelset(),
                          planar_materials(3.0), "efem", box_boundary(2))
    x, rep = bicgstab(asm.matrix, asm.rhs)
    assert len(built) == 1
    assert rep.method == "bicgstab-amg" and rep.jacobi_iterations == 0
    assert rep.restart == "breakdown" and rep.restarted
    if again:
        assert not rep.converged and rep.iterations == 1
        return
    assert rep.converged and rep.iterations > 1
    ref = direct_solve(asm.matrix, asm.rhs)
    assert np.abs(x - ref).max() <= 1e-6 * np.abs(ref).max()


# x.tobytes() sha256 and report of two solves that run a dozen AMG
# iterations through a two-level hierarchy, pinned with single-threaded BLAS
# (conftest.py) for the solve on the free block (solver.free_block): the 2D
# one starts with AMG, the 3D one after its Jacobi phase.  Any
# change to the hierarchy, the V-cycle or the BiCGSTAB updates that moves a
# bit of x shows here.
PINNED_AMG_SOLVES = {
    "2d-n100-circle-q100": (
        "b4440eb034a6c4d9d8ded7607f646c92c770b5fc4de70b1e26a4a3ac97a105a7",
        SolveReport(11, 4.228240910383986e-09, True, "bicgstab-amg", 0, "")),
    "3d-n16-sphere-q1e4": (
        "7f015ccbab79dfe6182c745c86090a9a875a783c4795846e02ba6cc09c33cb4e",
        SolveReport(40, 8.146193098329938e-09, True, "bicgstab-amg", 29, "behind pace")),
}


def _pinned_system(name):
    if name == "2d-n100-circle-q100":
        return assemble_global(generate_structured(2, 100), cylinder_levelset(),
                               cylinder_materials(100.0), "efem", box_boundary(2))
    exact = SphereCase(1e4)
    return assemble_global(generate_structured(3, 16), sphere_levelset(), sphere_materials(1e4),
                           "efem", analytic_boundary(3, exact.phi))


@pytest.mark.parametrize("name", sorted(PINNED_AMG_SOLVES))
def test_amg_solves_are_pinned_bit_for_bit(name):
    asm = _pinned_system(name)
    x, rep = bicgstab(asm.matrix, asm.rhs)
    digest, report = PINNED_AMG_SOLVES[name]
    assert rep == report
    assert hashlib.sha256(x.tobytes()).hexdigest() == digest
