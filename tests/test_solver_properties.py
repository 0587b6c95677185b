"""Property tests of the smoothed-aggregation V-cycle and AMG-BiCGSTAB.

Systems are random 2D and 3D cut systems (circle or sphere inclusions of
random centre and radius, every mode, q in {3, 100, 1e4}) on meshes large
enough for a two- or three-level hierarchy.  The V-cycle must be a
fixed linear operator, repeatable bit for bit; Dirichlet rows must stay out
of every aggregate; every coarse matrix must keep a positive diagonal; and
BiCGSTAB with the V-cycle from its first iteration must pass the dual
stopping test and agree with sparse LU; a solve that never restarts must be
the plain Jacobi solve.  Explicit zeros stored anywhere
in a system change no solve, iterative or direct, in any bit.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efem import solver
from efem.efem_core import MODES, MaterialPair, assemble_global
from efem.interface import CircleLevelSet, SphereLevelSet
from efem.mesh import generate_structured
from efem.oracles import box_boundary
from efem.solver import (SmoothedAggregation, bicgstab, direct_solve, jacobi_precondition,
                         strength_graph)

TOL = 1e-10
# max-norm agreement with sparse LU, relative: the worst seen at TOL was
# 8e-10 (and 1.2e-7 at tol 1e-8), on these meshes in every mode and q
AGREE_RTOL = 1e-7


@lru_cache(maxsize=None)
def _mesh(dim, n):
    return generate_structured(dim, n)


@st.composite
def cut_systems(draw):
    """(dim, n, centre, radius, q, mode) of one random cut system."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([30, 100] if dim == 2 else [10, 16]))
    centre = tuple(draw(st.floats(0.35, 0.65)) for _ in range(dim))
    radius = draw(st.floats(0.12, 0.25))
    q = draw(st.sampled_from([3.0, 100.0, 1e4]))
    mode = draw(st.sampled_from(MODES))
    return dim, n, centre, radius, q, mode


def _assemble(case):
    dim, n, centre, radius, q, mode = case
    levelset = (CircleLevelSet if dim == 2 else SphereLevelSet)(centre, radius)
    return assemble_global(_mesh(dim, n), levelset, MaterialPair(1.0, q), mode, box_boundary(dim))


@given(cut_systems(), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_vcycle_is_linear_and_repeatable(case, seed):
    asm = _assemble(case)
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, asm.rhs.size))
    a, b = rng.uniform(-2.0, 2.0, size=2)
    ml = SmoothedAggregation(asm.matrix)
    mx, my = ml(x), ml(y)
    combined = ml(a * x + b * y)
    scale = abs(a) * np.abs(mx).max() + abs(b) * np.abs(my).max()
    assert np.abs(combined - (a * mx + b * my)).max() <= 1e-12 * scale
    assert np.array_equal(ml(x), mx)
    assert np.array_equal(SmoothedAggregation(asm.matrix)(x), mx)


@given(cut_systems())
@settings(max_examples=25, deadline=None)
# one smoothed column of this system's first prolongator has a coarse
# diagonal of -7.1; its aggregate keeps the tentative column, so the
# hierarchy keeps its coarse level
@example((2, 30, (0.3515625, 0.3515625), 0.12, 1e4, "efem"))
def test_dirichlet_rows_stay_out_of_aggregates(case):
    asm = _assemble(case)
    ml = SmoothedAggregation(asm.matrix)
    assert ml.levels, "mesh too small for a coarse level"
    fine = ml.levels[0]
    dirichlet = asm.dirichlet_nodes
    assert (fine.aggregates[dirichlet] == -1).all()
    assert not np.abs(fine.P[dirichlet]).sum()
    # exactly the nodes with a strong neighbour join, every aggregate non-empty
    strong = np.diff(strength_graph(asm.matrix).indptr) > 0
    assert not strong[dirichlet].any()
    assert np.array_equal(fine.aggregates >= 0, strong)
    assert np.array_equal(np.unique(fine.aggregates[strong]), np.arange(fine.P.shape[1]))


@given(cut_systems())
@settings(max_examples=25, deadline=None)
# high contrast: strength by |a_ij| + |a_ji| gave this coarse matrix a
# diagonal of -5.1e3, since these matrices have an indefinite symmetric part
@example((2, 30, (0.37206887, 0.37109788), 0.2329510582651515, 1e4, "efem"))
# and the first Galerkin product of this one a diagonal of -80.9;
# coarsening stops before such a product
@example((2, 100, (0.5107542927623367, 0.5625), 0.142578125, 1e4, "efem"))
def test_coarse_diagonals_are_positive(case):
    asm = _assemble(case)
    ml = SmoothedAggregation(asm.matrix)
    coarse = [lvl.A for lvl in ml.levels[1:]] + [ml.coarsest]
    for A in coarse:
        assert (A.diagonal() > 0.0).all()


@given(cut_systems())
@settings(max_examples=25, deadline=None)
def test_amg_bicgstab_passes_dual_test_and_agrees_with_lu(case):
    asm = _assemble(case)
    A, b = asm.matrix, asm.rhs
    with mock.patch.object(solver, "AMG_AFTER", 0):
        x, rep = bicgstab(A, b, tol=TOL)
    assert rep.converged and rep.method == "bicgstab-amg"
    res = b - A @ x
    minv = jacobi_precondition(A)
    assert np.linalg.norm(res) / np.linalg.norm(b) <= TOL
    assert np.linalg.norm(minv * res) / np.linalg.norm(minv * b) <= TOL
    assert rep.residual == np.linalg.norm(res) / np.linalg.norm(b)
    ref = direct_solve(A, b)
    assert np.abs(x - ref).max() <= AGREE_RTOL * np.abs(ref).max()


@given(cut_systems())
@settings(max_examples=25, deadline=None)
def test_solves_that_keep_the_pace_match_plain_jacobi(case):
    """A solve that never falls behind the pace to tol is the Jacobi solve
    that never restarts, bit for bit, with the same report."""
    asm = _assemble(case)
    A, b = asm.matrix, asm.rhs
    x, rep = bicgstab(A, b)
    if rep.method != "bicgstab":
        assert rep.restart in ("behind pace", "breakdown")
        assert 0 <= rep.jacobi_iterations < rep.iterations
        return
    assert rep.restart == "" and rep.jacobi_iterations == rep.iterations
    with mock.patch.object(solver, "AMG_AFTER", 10**9):
        x_plain, rep_plain = bicgstab(A, b)
    assert rep_plain == rep
    assert np.array_equal(x_plain, x)


def _with_stored_zeros(A: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray,
                       slots: np.ndarray) -> sp.csr_matrix:
    """A copy of A with an explicit zero (row, col) stored at each slot of its row.

    A slot in [0, 1) picks one of the row's len + 1 gaps between its stored
    entries, so the zero may break the column order or repeat a stored column.
    """
    pos = A.indptr[rows] + np.floor(slots * (np.diff(A.indptr)[rows] + 1)).astype(np.int64)
    order = np.lexsort((rows, pos))
    pos, rows, cols = pos[order], rows[order], cols[order]
    indptr = A.indptr + np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=A.shape[0]))))
    return sp.csr_matrix((np.insert(A.data, pos, 0.0), np.insert(A.indices, pos, cols), indptr),
                         shape=A.shape)


@given(cut_systems(), st.integers(0, 2**32 - 1), st.integers(1, 60))
@settings(max_examples=20, deadline=None)
def test_stored_zeros_change_no_solve(case, seed, k):
    """Zeros inserted anywhere, Dirichlet rows included, leave x bit for bit
    and the report as they were, in the Jacobi and the AMG phase and in LU."""
    asm = _assemble(case)
    A, b = asm.matrix, asm.rhs
    rng = np.random.default_rng(seed)
    rows = np.concatenate((rng.choice(asm.dirichlet_nodes, size=k),
                           rng.integers(0, b.size, size=k)))
    padded = _with_stored_zeros(A, rows, rng.integers(0, b.size, size=2 * k),
                                rng.uniform(0.0, 1.0, size=2 * k))
    assert padded.nnz == A.nnz + 2 * k
    x, rep = bicgstab(A, b)
    x_padded, rep_padded = bicgstab(padded, b)
    assert rep.converged
    assert rep_padded == rep
    assert np.array_equal(x_padded, x)
    assert np.array_equal(direct_solve(padded, b), direct_solve(A, b))
