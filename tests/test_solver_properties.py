"""Property tests of the smoothed-aggregation V-cycle and AMG-BiCGSTAB.

Systems are random 2D and 3D cut systems (circle or sphere inclusions of
random centre and radius, every mode, q in {3, 100, 1e4}) on meshes large
enough for a two- or three-level hierarchy.  The V-cycle must be a
fixed linear operator, repeatable bit for bit; Dirichlet rows must stay out
of every aggregate; every coarse matrix must keep a positive diagonal; and
BiCGSTAB with the V-cycle from its first iteration must pass the dual
stopping test and agree with sparse LU; a solve that starts on Jacobi and
never restarts must be the plain Jacobi solve.  Whether a solve starts with
AMG depends on the mesh alone, never on the inclusion, q or mode.  Explicit
zeros stored anywhere in a system change no solve, iterative or direct, in
any bit.  On random
nonsymmetric systems with decoupled rows, both solvers agree with spsolve
on the full system, each decoupled unknown is b_i / a_ii bit for bit, and
the free block's level-0 aggregates are the full matrix's on its nodes.  On random
symmetric graphs, some with a star's hub, the neighbour table's maximum is
the plain per-row maximum, aggregation gives the aggregates of the
unbounded table and leaves out exactly the isolated nodes, and a star's
table stays within a small multiple of its CSR index arrays.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efem import solver
from efem.efem_core import MODES, MaterialPair, assemble_global
from efem.interface import CircleLevelSet, SphereLevelSet
from efem.mesh import generate_structured
from efem.oracles import (SphereCase, analytic_boundary, box_boundary, cylinder_levelset,
                          cylinder_materials, sphere_levelset, sphere_materials)
from efem.solver import (SmoothedAggregation, _neighbour_max, _neighbour_table, aggregate,
                         bicgstab, direct_solve, free_block, jacobi_precondition,
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


def _started_with_amg(rep):
    """Whether a BiCGSTAB report shows a solve that started with AMG."""
    return (rep.method == "bicgstab-amg" and rep.jacobi_iterations == 0
            and rep.restart in ("", "breakdown"))


@given(cut_systems())
@settings(max_examples=25, deadline=None)
def test_solves_that_keep_the_pace_match_plain_jacobi(case):
    """A solve that starts on Jacobi (every 3D one here) and never falls
    behind the pace to tol is the Jacobi solve that never restarts, bit for
    bit, with the same report.  The 2D ones start with AMG."""
    asm = _assemble(case)
    A, b = asm.matrix, asm.rhs
    x, rep = bicgstab(A, b)
    if case[0] == 2:
        assert _started_with_amg(rep)
        return
    if rep.method != "bicgstab":
        assert rep.restart in ("behind pace", "breakdown")
        assert 0 <= rep.jacobi_iterations < rep.iterations
        return
    assert rep.restart == "" and rep.jacobi_iterations == rep.iterations
    with mock.patch.object(solver, "AMG_AFTER", 10**9):
        x_plain, rep_plain = bicgstab(A, b)
    assert rep_plain == rep
    assert np.array_equal(x_plain, x)


# mesh -> whether its systems start with AMG: 2D n=30 has 899 free rows,
# more than COARSEST_SIZE, and 2D n=20 only 399
START_WITH_AMG = {(2, 20): False, (2, 30): True, (3, 10): False, (3, 16): False}


@given(st.sampled_from(sorted(START_WITH_AMG)), st.data())
@settings(max_examples=25, deadline=None)
def test_the_start_depends_on_the_mesh_only(mesh, data):
    """Only a triangle stencil (6.6 and 6.7 stored entries per row on the 2D
    meshes here, 12.9 and 13.6 on the 3D ones) with more than COARSEST_SIZE
    free rows starts with AMG; inclusion, q and mode never change the start."""
    dim, n = mesh
    centre = tuple(data.draw(st.floats(0.35, 0.65)) for _ in range(dim))
    radius = data.draw(st.floats(0.12, 0.25))
    q = data.draw(st.sampled_from([1e-6, 3.0, 100.0, 1e4]))
    mode = data.draw(st.sampled_from(MODES))
    asm = _assemble((dim, n, centre, radius, q, mode))
    x, rep = bicgstab(asm.matrix, asm.rhs)
    if START_WITH_AMG[mesh]:
        assert _started_with_amg(rep)
    else:
        assert rep.jacobi_iterations > 0


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


def _decoupled_system(n, k, seed):
    """A random nonsymmetric, strictly diagonally dominant n x n system with
    k decoupled rows at random positions (diagonal only, row and column
    otherwise stored as zeros), and, when two free rows are left, one more
    row whose only stored nonzero is its diagonal but whose column another
    row still uses.  Returns A, b, the decoupled rows and that lone row."""
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=min(1.0, 4.0 / n), random_state=rng,
                  data_rvs=lambda size: rng.uniform(-1.0, 1.0, size)).tolil()
    A.setdiag(0.0)
    fixed = np.sort(rng.choice(n, size=k, replace=False))
    others = np.setdiff1d(np.arange(n), fixed)
    lone = None
    if others.size >= 2:
        lone, user = rng.choice(others, size=2, replace=False)
        A[user, lone] = rng.uniform(0.5, 1.0)       # column `lone` stays coupled
    A = (A + sp.diags(abs(A).sum(axis=1).A1 + rng.uniform(0.5, 2.0, size=n))).tocsr()
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    cut = (np.isin(rows, fixed) | np.isin(A.indices, fixed) | (rows == lone)) & (rows != A.indices)
    A.data[cut] = 0.0                               # kept as stored zeros
    return A, rng.standard_normal(n), fixed, lone


@given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
@example(5, 1.0, 0, False)                          # every row decoupled
@example(6, 0.0, 1, True)                           # none decoupled, AMG from the start
def test_decoupled_rows_leave_the_solve(n, share, seed, amg_first):
    """Exactly the decoupled rows leave; both solvers agree with spsolve on
    the whole system and give b_i / a_ii there bit for bit."""
    from scipy.sparse.linalg import spsolve

    k = int(round(share * n))
    A, b, fixed, lone = _decoupled_system(n, k, seed)
    nz = A.toarray() != 0.0                 # random rows with no off-diagonal entry decouple too
    decoupled = np.flatnonzero((nz.sum(axis=1) == 1) & (nz.sum(axis=0) == 1))
    assert np.isin(fixed, decoupled).all() and lone not in decoupled
    M, free, x0, res = free_block(A, b)
    assert np.array_equal(free, np.setdiff1d(np.arange(n), decoupled))
    assert M.shape == (free.size, free.size) and (M.data != 0.0).all()
    assert np.array_equal(res, b - A @ x0)
    exact = b[decoupled] / A.diagonal()[decoupled]
    ref = np.atleast_1d(spsolve(A.tocsc(), b))
    with mock.patch.object(solver, "AMG_AFTER", 0 if amg_first else solver.AMG_AFTER):
        x, rep = bicgstab(A, b, tol=TOL)
    assert rep.converged
    assert rep.residual == np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    if k == n:
        assert rep.iterations == 0
    x_lu = direct_solve(A, b)
    for xv in (x0, x, x_lu):
        assert np.array_equal(xv[decoupled], exact)
    scale = np.abs(ref).max()
    assert np.abs(x - ref).max() <= AGREE_RTOL * scale
    assert np.abs(x_lu - ref).max() <= 1e-12 * scale


def _benchmark_like_system(dim):
    if dim == 2:
        return assemble_global(generate_structured(2, 100), cylinder_levelset(),
                               cylinder_materials(100.0), "efem", box_boundary(2))
    exact = SphereCase(3.0)
    return assemble_global(generate_structured(3, 16), sphere_levelset(),
                           sphere_materials(3.0), "efem", analytic_boundary(3, exact.phi))


@pytest.mark.parametrize("dim", [2, 3])
def test_free_block_owns_exactly_its_entries(dim):
    """The block's data and indices are no views of a larger buffer.  scipy's
    prune keeps a view of the whole buffer when it keeps more than half of
    it: 49,891 of the 70,601 stored entries of the 2D system, and the 22,687
    left of the 3D one's 24,225 stored nonzeros once its decoupled rows go."""
    asm = _benchmark_like_system(dim)
    M, _, _, _ = free_block(asm.matrix, asm.rhs)
    for a in (M.data, M.indices):
        root = a
        while root.base is not None:
            root = root.base
        assert root.nbytes == a.nbytes


@pytest.mark.parametrize("dim", [2, 3])
def test_free_block_aggregates_are_the_full_ones_on_its_nodes(dim):
    """The level-0 ranks hash the caller's node ids, so taking the Dirichlet
    rows out moves no aggregate."""
    asm = _benchmark_like_system(dim)
    full = SmoothedAggregation(asm.matrix).levels[0].aggregates
    M, free, _, _ = free_block(asm.matrix, asm.rhs)
    assert np.array_equal(np.setdiff1d(np.arange(asm.rhs.size), free), asm.dirichlet_nodes)
    assert np.array_equal(SmoothedAggregation(M, free).levels[0].aggregates, full[free])


@st.composite
def symmetric_graphs(draw):
    """(n, edges, values): a graph on n nodes, its undirected edges and one
    int64 value per node.  Rows come out of unequal degree, nodes with no
    edge are isolated, and half the graphs add a star: one hub joined to a
    random set of nodes, often more than the neighbour table's width."""
    n = draw(st.integers(1, 40))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=3 * n)) if n > 1 else []
    if n > 1 and draw(st.booleans()):
        hub = draw(st.integers(0, n - 1))
        edges += [(hub, j) for j in sorted(draw(st.sets(st.integers(0, n - 1)))) if j != hub]
    values = draw(st.lists(st.integers(-2**62, 2**62), min_size=n, max_size=n))
    return n, edges, values


def _graph(n, edges):
    """Symmetric CSR adjacency of the edges (the COO conversion sums repeats)."""
    i, j = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return sp.csr_matrix((np.ones(2 * i.size), (np.r_[i, j], np.r_[j, i])), shape=(n, n))


def _unbounded_table(S):
    """The neighbour table of width max degree, with no node left out of it."""
    n, deg = S.shape[0], np.diff(S.indptr)
    table = np.tile(np.arange(n), (1 + deg.max(initial=0), 1))
    for i in range(n):
        table[1:1 + deg[i], i] = S.indices[S.indptr[i]:S.indptr[i + 1]]
    none = np.zeros(0, dtype=np.int64)
    return table, none, none, none


_STAR = [(0, j) for j in range(1, 30)]      # hub 0 of degree 29, above the table's width 10


@given(symmetric_graphs())
@settings(max_examples=200, deadline=None)
@example((1, [], [7]))                                   # one node
@example((4, [], [3, -1, 9, 0]))                         # no edges
@example((5, [(0, 1), (0, 2), (0, 3)], [1, 5, 2, 8, -3]))  # a star, degrees 3 and 1, node 4 alone
@example((30, _STAR, list(range(30))))                   # the hub's max is a leaf's
@example((30, _STAR, list(range(30, 0, -1))))            # the hub's max is its own
@example((30, [(h, j) for h in (0, 1) for j in range(2, 30)], list(range(30))))  # two hubs
def test_neighbour_table_max_is_the_per_row_max(graph):
    n, edges, values = graph
    S = _graph(n, edges)
    values = np.array(values, dtype=np.int64)
    plain = [max([values[i], *values[S.indices[S.indptr[i]:S.indptr[i + 1]]]]) for i in range(n)]
    neighbours = _neighbour_table(S)
    table, heavy = neighbours[:2]
    deg = np.diff(S.indptr)
    assert table.shape[0] <= 1 + deg.max(initial=0) and table.size <= 4 * (S.nnz + n)
    assert np.array_equal(table[0], np.arange(n))
    assert np.array_equal(heavy, np.flatnonzero(deg >= table.shape[0]))
    assert np.array_equal(_neighbour_max(neighbours, values), plain)


@given(symmetric_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
@example((30, _STAR, [0] * 30), None)
def test_aggregates_are_those_of_the_unbounded_table(graph, random):
    n, edges, _ = graph
    S = _graph(n, edges)
    rank = np.arange(n)
    if random is not None:
        random.shuffle(rank)
    agg, n_agg = aggregate(S, rank)
    with mock.patch.object(solver, "_neighbour_table", _unbounded_table):
        ref, n_ref = aggregate(S, rank)
    assert n_agg == n_ref and np.array_equal(agg, ref)


def test_star_table_stays_within_a_small_multiple_of_the_csr_index_bytes():
    # hub 0 of degree 1001: leaves 1..1000 and the start of the path 1001..5000;
    # an unbounded table would be 1002 x 5001 int64, 40 MB
    edges = [(0, j) for j in range(1, 1002)] + [(j, j + 1) for j in range(1001, 5000)]
    S = _graph(5001, edges)
    neighbours = _neighbour_table(S)
    assert sum(a.nbytes for a in neighbours) <= 8 * (S.indices.nbytes + S.indptr.nbytes)
    assert neighbours[1].tolist() == [0]
    values = np.arange(5001) * 7919 % 5003
    assert _neighbour_max(neighbours, values)[0] == values[:1002].max()


@given(symmetric_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
@example((1, [], [0]), None)
@example((6, [], [0] * 6), None)
def test_aggregate_leaves_out_exactly_the_isolated_nodes(graph, random):
    n, edges, _ = graph
    S = _graph(n, edges)
    rank = np.arange(n)
    if random is not None:
        random.shuffle(rank)
    agg, n_agg = aggregate(S, rank)
    isolated = np.diff(S.indptr) == 0
    assert np.array_equal(agg == -1, isolated)
    assert np.array_equal(np.unique(agg[~isolated]), np.arange(n_agg))
