"""Sparse linear solvers for the condensed systems.

The condensed matrix is nonsymmetric whenever the displacement terms are
active, so the workhorse is BiCGSTAB.  Its preconditioner is chosen from
the stored pattern alone.  A triangle-mesh stencil (fewer than
``AMG_FIRST_ROW_NNZ`` stored entries per row on average) whose free block
is larger than ``COARSEST_SIZE`` starts with a smoothed-aggregation AMG
V-cycle, which the Poisson-like 2D systems need and whose set-up they
repay at once.  Every other system, the tetrahedral stencils among them,
starts with diagonal (Jacobi) preconditioning, which is cheapest for the
well-conditioned 3D systems, and its single restart switches to the
V-cycle as soon as the Jacobi phase falls behind the geometric pace that
would reach tol in ``AMG_AFTER`` iterations.  Sparse LU serves the
``--direct`` path; scipy.sparse.linalg is imported on the first
factorization only.

Both paths solve on the free block of the system (``free_block``), and the
same pass rejects non-finite input.  Assembly keeps the full P1 pattern
that criterion 7 checks, and with it the zeroed Dirichlet couplings and the
exact-zero stencil entries of structured meshes: 59% of the stored entries
of a 3D n=32 sphere system, 29% of a 2D n=200 one and 3.4% of the perturbed
2D cylinder mesh's.  The pass drops them, and then every decoupled row: a
row whose only stored nonzero is its diagonal and whose column no other row
uses, as each Dirichlet row is once assembly has zeroed its couplings.  Its
unknown is b_i / a_ii and no other equation sees it, so carrying it through
every vector operation of BiCGSTAB, the AMG hierarchy or LU buys nothing:
6,146 of the 35,937 rows of the 3D sphere system (17%) leave the solve,
against 402 of 40,401 at 2D n=200 and 400 of 10,201 on the cylinder mesh.
The stopping tests still measure the caller's whole system, and the
caller's matrix keeps every entry.

Iteration order is fixed and nothing is random, so a solve is repeatable
for a fixed BLAS thread count.  It is not repeatable across thread
counts: the dot products on long vectors go to a threaded BLAS, whose
summation order, and so every later iterate, depends on the number of
threads (``OPENBLAS_NUM_THREADS=1`` pins it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Start of the solve: AMG from the first iteration on a triangle-mesh
# stencil, fewer than AMG_FIRST_ROW_NNZ stored entries per row on average,
# whose free block is larger than COARSEST_SIZE (a smaller one would be one
# sparse LU, not a hierarchy); Jacobi otherwise.  Assembly stores the full
# P1 pattern, so the mean row length depends on the mesh alone: 6.96 on the
# 2D n=200 sweep mesh, 6.92 on the perturbed cylinder mesh, 14.28 at 3D
# n=32.  The hierarchy costs about as much as 60 Jacobi iterations at 2D
# n=200 (47 ms); the 2D benchmark systems fell behind the pace at k = 23 to
# 28 and built it anyway, and from the start AMG takes 7 to 10 iterations.
# At 3D n=32 it costs about 90 (73 ms), more than the 72 to 76 the Jacobi
# solves take.
AMG_FIRST_ROW_NNZ = 10
# Pace of the Jacobi phase: BiCGSTAB restarts with the AMG preconditioner
# once the smaller of its last two recursive residuals after iteration k
# exceeds tol ** (k / AMG_AFTER) of |b|, the geometric pace that reaches tol
# at k = AMG_AFTER, where the Jacobi phase ends in any case.  The smaller of
# two, because single iterations spike: on the benchmark systems (tol 1e-8)
# the free-block residuals of the 3D n=32 sphere reach 0.61 to 0.78 of the
# pace line for one iteration (seeds 10, 15 and 17, k = 51 to 71), while the
# smaller of two peaks at 0.08 to 0.32 (seeds 1 to 20), so those solves (72
# to 76 iterations) never build the hierarchy.  Systems that start with AMG
# have no Jacobi phase and no pace.
AMG_AFTER = 100
# Iteration cap of the AMG phase, counted from its first iteration across
# a breakdown restart.  An AMG iteration costs five to six Jacobi ones; the
# converging systems measured need at most 89 (2D n=200, q=1e4, efem), and
# without the cap a stalled solve would run up to the overall cap of 10 n
# iterations.
AMG_MAX_ITER = 1000
# Smoothed aggregation: strength threshold, size below which the coarsest
# level is factored, and damped-Jacobi sweeps before and after each
# coarse-grid correction.
STRENGTH_THETA = 0.08
COARSEST_SIZE = 800
SMOOTHING_SWEEPS = 2
# Power iterations for rho(D^-1 A).  The Gershgorin bound overestimates it
# on the condensed efem rows, and the smaller omega it gives tripled the
# AMG iterations of the 2D q=100 efem systems.
POWER_ITERATIONS = 15


@dataclass
class SolveReport:
    iterations: int
    residual: float          # final true relative residual |Ax-b| / |b|
    converged: bool
    method: str = "bicgstab"  # "bicgstab-amg" when the AMG phase finished the solve
    jacobi_iterations: int = 0   # length of the Jacobi phase, 0 when AMG started
    restart: str = ""         # why BiCGSTAB restarted: "behind pace" or "breakdown"

    @property
    def restarted(self) -> bool:
        """Whether the solve restarted."""
        return self.restart != ""


def jacobi_precondition(A: sp.spmatrix) -> np.ndarray:
    """Inverse diagonal of A; rejects a zero diagonal naming the row."""
    diag = np.asarray(A.diagonal(), dtype=float)
    zero = np.nonzero(diag == 0.0)[0]
    if zero.size:
        raise ValueError(f"zero diagonal at row {int(zero[0])}; cannot precondition")
    return 1.0 / diag


# ---------------------------------------------------------------------------
# smoothed-aggregation AMG (Vanek, Mandel & Brezina, Computing 56, 1996)


def strength_graph(A: sp.csr_matrix) -> sp.csr_matrix:
    """Symmetric strong-connection graph: -(a_ij + a_ji) >= theta sqrt(|a_ii a_jj|),
    with theta = ``STRENGTH_THETA``.

    Contrast-aware, because the test scales by both diagonals; symmetric, so
    the aggregates do not depend on which side of an interface a row sits.
    Only negative couplings are strong: the condensed rows of cut elements
    also couple positively, their symmetric part is indefinite at high
    contrast, and aggregates glued across such couplings gave coarse
    matrices negative diagonals.  A Dirichlet identity row (no off-diagonal
    entries in its row or column) has no strong neighbours.
    """
    n = A.shape[0]
    C = (A + A.T).tocsr()
    diag = np.abs(A.diagonal())
    rows = np.repeat(np.arange(n), np.diff(C.indptr))
    cols = C.indices
    keep = ((rows != cols) & (C.data < 0.0)
            & (-C.data >= STRENGTH_THETA * np.sqrt(diag[rows] * diag[cols])))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[keep], minlength=n))))
    return sp.csr_matrix((np.ones(int(keep.sum())), cols[keep], indptr), shape=(n, n))


def _neighbour_table(S: sp.csr_matrix) -> tuple[np.ndarray, ...]:
    """S's closed neighbourhoods: an index table for most nodes, CSR runs for the rest.

    The table has 1 + w rows.  Column i holds node i in row 0 and its
    neighbours in S below, padded with i itself, so a gather through any
    row of the table stays inside node i's closed neighbourhood.  w is the
    largest degree in S, capped at 4 nnz / n + 3 so that the table holds
    at most 4 (nnz + n) entries: one node of high degree does not pad every
    column.  A node of degree above w keeps w of its neighbours in the
    table (its last row takes any one of those past w), and all of them
    as one run of an index list for np.maximum.reduceat.  Returns the
    table, those nodes, the index list and the start of each run.
    """
    n = S.shape[0]
    deg = np.diff(S.indptr)
    width = min(int(deg.max(initial=0)), 4 * S.indices.size // max(n, 1) + 3)
    slot = np.arange(S.indices.size) - np.repeat(S.indptr[:-1] - 1, deg)
    np.minimum(slot, width, out=slot)
    table = np.tile(np.arange(n), (1 + width, 1))
    table.ravel()[slot * n + np.repeat(np.arange(n), deg)] = S.indices
    heavy = deg > width
    runs = S.indices[np.repeat(heavy, deg)]
    return table, np.flatnonzero(heavy), runs, np.cumsum(deg[heavy]) - deg[heavy]


def _neighbour_max(neighbours: tuple[np.ndarray, ...], values: np.ndarray) -> np.ndarray:
    """Largest value over each node's closed neighbourhood, given its
    ``_neighbour_table``."""
    table, heavy, runs, starts = neighbours
    out = values.copy()
    for nbr in table[1:]:
        np.maximum(out, values[nbr], out=out)
    if heavy.size:
        out[heavy] = np.maximum(out[heavy], np.maximum.reduceat(values[runs], starts))
    return out


def _hash_ranks(ids: np.ndarray) -> np.ndarray:
    """A fixed permutation of 0..len(ids)-1 that orders the ids by a
    multiplicative hash.  The hash is one-to-one below 2**32, so a subset
    of the ids keeps the relative order it has among all of them."""
    h = (ids.astype(np.uint64) * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)
    ranks = np.empty(ids.size, dtype=np.int64)
    ranks[np.argsort(h, kind="stable")] = np.arange(ids.size)
    return ranks


def aggregate(S: sp.csr_matrix, rank: np.ndarray) -> tuple[np.ndarray, int]:
    """MIS(2) aggregation of the strength graph S, vectorized and deterministic.

    Roots are a maximal set of nodes pairwise more than two strong edges
    apart, chosen by ``rank``, a fixed permutation of the nodes
    (``_hash_ranks``).  Each root's distance-1 neighbours join it, then each
    remaining node joins the neighbouring aggregate whose root ranks
    highest, so every aggregate is connected.  Every neighbourhood maximum
    is one pass through S's ``_neighbour_table``, built once per call.
    Returns the aggregate of each node (-1 for nodes with no strong
    neighbour, such as Dirichlet rows) and the number of aggregates.
    """
    n = S.shape[0]
    neighbours = _neighbour_table(S)
    isolated = np.diff(S.indptr) == 0
    # key: roots above undecided nodes above decided non-roots, ranks within
    state = np.where(isolated, -1, 0)            # -1 out, 0 undecided, 1 root
    while (undecided := state == 0).any():
        key = np.where(state == 1, 2 * n + rank, np.where(undecided, n + rank, -1))
        reach = _neighbour_max(neighbours, _neighbour_max(neighbours, key))
        state[undecided & (reach == key)] = 1
        state[undecided & (reach >= 2 * n)] = -1

    roots = state == 1
    n_agg = int(roots.sum())
    agg_of_rank = np.full(n, -1, dtype=np.int64)
    agg_of_rank[rank[roots]] = np.arange(n_agg)
    carry = np.where(roots, rank, -1)            # rank of each node's root
    for _ in range(2):
        reach = _neighbour_max(neighbours, carry)
        join = (carry < 0) & (reach >= 0)
        carry[join] = reach[join]
    agg = np.where(carry >= 0, agg_of_rank[carry], -1)
    return agg, n_agg


def _spectral_radius(A: sp.csr_matrix, dinv: np.ndarray, rank: np.ndarray) -> float:
    """Power-iteration estimate of rho(D^-1 A), started from the ranks."""
    v = (rank + 0.5) / A.shape[0] - 0.5
    rho = 1.0
    for _ in range(POWER_ITERATIONS):
        w = dinv * (A @ v)
        rho = float(np.linalg.norm(w))
        v = w / rho
    return rho


@dataclass
class AMGLevel:
    A: sp.csr_matrix
    smoother: np.ndarray     # damped Jacobi weights omega / a_ii
    aggregates: np.ndarray   # aggregate of each node, -1 when not aggregated
    P: sp.csr_matrix         # smoothed prolongator to the next level
    R: sp.csr_matrix         # restriction, P^T

    def residual(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """b - A x, written into the vector A @ x returns."""
        r = self.A @ x
        np.subtract(b, r, out=r)
        return r

    def smooth(self, b: np.ndarray, x: np.ndarray) -> None:
        """One damped-Jacobi sweep in place: x += smoother * (b - A x)."""
        r = self.residual(b, x)
        r *= self.smoother
        x += r


class SmoothedAggregation:
    """Smoothed-aggregation AMG hierarchy applied as one V-cycle.

    Built from the matrix alone: the tentative prolongator T injects the
    constant on each aggregate, P = (I - omega D^-1 A) T with omega =
    4 / (3 rho) and rho a power-iteration estimate of rho(D^-1 A), coarse
    matrices are Galerkin products R A P with R = P^T, and the smoother is
    damped Jacobi with the same omega.  Coarsening stops at or below
    ``COARSEST_SIZE`` unknowns or where aggregation no longer halves the
    level.  Matrices with an indefinite symmetric part can give a Galerkin
    product a diagonal entry <= 0, which the Jacobi smoother would divide
    by: the aggregates of such entries keep their tentative column of T,
    and if a diagonal entry is still <= 0 coarsening stops there.  The
    coarsest matrix is scaled symmetrically to a unit diagonal and factored
    by sparse LU, which needs no dense n x n copy if coarsening stops early.
    Calling the object applies one V-cycle from a zero guess, a fixed
    linear operator.  The level-0 ranks hash ``ids``, the caller's index of
    each row (0..n-1 by default): a free block (``free_block``) then
    aggregates as the whole matrix does on its free nodes.
    """

    def __init__(self, A: sp.spmatrix, ids: np.ndarray | None = None):
        self.levels: list[AMGLevel] = []
        A = sp.csr_matrix(A)
        ids = np.arange(A.shape[0]) if ids is None else ids
        while A.shape[0] > COARSEST_SIZE:
            dinv = 1.0 / A.diagonal()
            rank = _hash_ranks(ids)
            omega = 4.0 / (3.0 * _spectral_radius(A, dinv, rank))
            agg, n_agg = aggregate(strength_graph(A), rank)
            if not 0 < n_agg <= A.shape[0] // 2:
                break
            joined = agg >= 0
            T = sp.csr_matrix((np.ones(int(joined.sum())), agg[joined],
                               np.concatenate(([0], np.cumsum(joined)))),
                              shape=(A.shape[0], n_agg))
            P = (T - sp.diags(omega * dinv) @ (A @ T)).tocsr()
            R = P.T.tocsr()
            coarse = (R @ A @ P).tocsr()
            bad = coarse.diagonal() <= 0.0
            if bad.any():
                # those aggregates keep their tentative column, whose coarse
                # diagonal entry is the sum of A over the aggregate
                keep = sp.diags(np.where(bad, 0.0, 1.0))
                P = (T - sp.diags(omega * dinv) @ (A @ T) @ keep).tocsr()
                R = P.T.tocsr()
                coarse = (R @ A @ P).tocsr()
                if not (coarse.diagonal() > 0.0).all():
                    break
            self.levels.append(AMGLevel(A, omega * dinv, agg, P, R))
            A, ids = coarse, np.arange(coarse.shape[0])
        self.coarsest = A
        # factor S A S with S = |diag A|^-1/2: a contrast q spreads the
        # diagonal over q, and the unscaled LU loses ~1e-12 relative even
        # in linearity, so the V-cycle would not be one fixed linear map
        diag = np.abs(A.diagonal())
        self._scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
        S = sp.diags(self._scale)
        self._lu = _splu(S @ A @ S)

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self._cycle(0, b)

    def _cycle(self, k: int, b: np.ndarray) -> np.ndarray:
        if k == len(self.levels):
            x = self._lu.solve(self._scale * b)
            x *= self._scale
            return x
        lvl = self.levels[k]
        x = lvl.smoother * b
        for _ in range(SMOOTHING_SWEEPS - 1):
            lvl.smooth(b, x)
        x += lvl.P @ self._cycle(k + 1, lvl.R @ lvl.residual(b, x))
        for _ in range(SMOOTHING_SWEEPS):
            lvl.smooth(b, x)
        return x


# ---------------------------------------------------------------------------
# solvers


def free_block(A: sp.spmatrix, b: np.ndarray
               ) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
    """A x = b with its decoupled rows solved, and the free block left to solve.

    A row is decoupled when its only stored nonzero is its diagonal and no
    other row stores a nonzero in its column, as the Dirichlet rows of
    assembly are: its unknown is b_i / a_ii, and no other equation sees it.
    Returns the CSR matrix of A's stored nonzeros in the free rows and
    columns, the caller's index of each free unknown (ascending), x with the
    decoupled unknowns set and 0 at the free ones, and the caller's residual
    b - A x at that x (b itself on the free rows).  Rejects non-finite A or
    b, naming the caller's row.  A itself is left alone: the pass works on
    one copy of its stored entries, and the block's arrays hold its own
    entries and no more.  A stored zero never changes a CSR row
    sum of finite values, and each free row keeps its entries in order, so
    a product with the block gives the caller's row sums bit for bit.
    """
    C = sp.csr_matrix(A, copy=True)
    C.eliminate_zeros()                  # keeps the order, and every non-finite entry
    bad = np.flatnonzero(~np.isfinite(C.data))
    if bad.size:
        row = int(np.searchsorted(C.indptr, bad[0], side="right")) - 1
        raise ValueError(f"non-finite entry {C.data[bad[0]]} in A at row {row}, "
                         f"column {int(C.indices[bad[0]])}")
    b = np.asarray(b, dtype=float)
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise ValueError(f"non-finite entry {b[bad[0]]} in b at row {int(bad[0])}")
    n = C.shape[0]
    one = np.flatnonzero(np.diff(C.indptr) == 1)    # rows of one stored nonzero
    fixed = one[(C.indices[C.indptr[one]] == one)
                & (np.bincount(C.indices, minlength=n)[one] == 1)]
    at = C.indptr[fixed]                 # their diagonal entries
    diag = C.data[at]
    x = np.zeros(n)
    x[fixed] = b[fixed] / diag
    res = b.copy()
    res[fixed] -= diag * x[fixed]
    C.data[at] = 0.0                     # the decoupled rows leave with the zeros
    C.eliminate_zeros()
    keep = np.ones(n, dtype=bool)
    keep[fixed] = False
    free = np.flatnonzero(keep)
    column = np.cumsum(keep, dtype=C.indices.dtype) - 1
    indices = np.take(column, C.indices)           # twice as fast as column[C.indices]
    # scipy's prune keeps a view when it keeps over half the entries, and the
    # block would hold the whole copied buffer for the solve (281k entries
    # for its 200k at 2D n=200)
    data = C.data if C.data.base is None else C.data.copy()
    block = sp.csr_matrix((data, indices, C.indptr[np.append(free, n)]),
                          shape=(free.size, free.size))
    return block, free, x, res


def bicgstab(A: sp.spmatrix, b: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned BiCGSTAB on the true relative residual |Ax-b|/|b|.

    Convergence additionally requires the Jacobi-scaled residual to pass the
    same tolerance; with strong permittivity contrasts |b| is dominated by
    the stiff rows and the plain test alone would stop while the soft-region
    error is still large.  The reported residual is always the true relative
    one, recomputed from the final iterate.

    Only the free block of ``free_block(A, b)`` is iterated on, so
    non-finite input raises before the first iteration and the decoupled
    unknowns are b_i / a_ii exactly; every test still measures the caller's
    full system (|b|, |D^-1 b| and |b - A x|).  The free right-hand side is
    scaled by a power of two to a largest entry in [0.5, 1), and x back, so
    the absolute breakdown tests do not fire on a tiny right-hand side,
    while every iterate of a normal system scales exactly.

    The iteration starts from zero.  A triangle-mesh stencil (A stores
    fewer than ``AMG_FIRST_ROW_NNZ`` entries per row on average) whose free
    block is larger than ``COARSEST_SIZE`` starts with the smoothed-
    aggregation V-cycle as preconditioner, and on a rho or omega breakdown
    restarts once from the current iterate with a fresh shadow residual and
    the same hierarchy.  Every other system starts with Jacobi
    preconditioning and restarts once from the current iterate, with a
    fresh shadow residual and the V-cycle, on a breakdown or as soon as the
    recursive residual falls behind the pace that reaches tol in
    ``AMG_AFTER`` iterations: the smaller of |r_k| / |b| and
    |r_(k-1)| / |b| above tol ** (k / AMG_AFTER) after iteration k, which at
    k = ``AMG_AFTER`` is tol itself.  The AMG phase runs at most
    ``AMG_MAX_ITER`` iterations, and a second breakdown reports failure.
    No solve runs past 10 n iterations in all, n the number of free
    unknowns.
    """
    M, free, x, res = free_block(A, b)  # M: the free block
    minv = jacobi_precondition(A)
    n = free.size
    max_iter = 10 * n

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, SolveReport(0, 0.0, True)
    mbnorm = float(np.linalg.norm(minv * b))
    mbnorm = mbnorm if mbnorm > 0.0 else bnorm
    b_free = res[free]
    shift = int(np.frexp(np.abs(b_free).max(initial=0.0))[1])
    b_free = np.ldexp(b_free, -shift)
    m_free = minv[free]

    xs = np.zeros(n)                     # the free unknowns, scaled by 2**-shift
    work = np.empty(n)                   # scratch of the in-place updates
    tiny = 1e-300

    def rel(res_vec):
        """|r| / |b| of a recursive residual of the scaled free block."""
        return math.ldexp(float(np.linalg.norm(res_vec)), shift) / bnorm

    def small(res_vec, res_rel):
        """Both tests on a recursive residual, given res_rel = rel(res_vec).
        The residual is unscaled before D^-1 multiplies it: where the matrix
        spans many decades, the scaled product can overflow."""
        if res_rel > tol:
            return False
        return float(np.linalg.norm(m_free * np.ldexp(res_vec, shift))) / mbnorm <= tol

    def true_test(xv):
        """The caller's true relative residual at xv, and whether it passes
        both tests."""
        res[free] = np.ldexp(b_free - M @ xv, shift)
        res_rel = float(np.linalg.norm(res)) / bnorm
        return res_rel, res_rel <= tol and float(np.linalg.norm(minv * res)) / mbnorm <= tol

    iterations = jacobi_iterations = 0
    method, restart = "bicgstab", ""

    def report(xv, res_rel, converged):
        x[free] = np.ldexp(xv, shift)
        jacobi = iterations if method == "bicgstab" else jacobi_iterations
        return x, SolveReport(iterations, res_rel, converged, method, jacobi, restart)

    if not b_free.any():                 # the decoupled rows were the whole solve
        return report(xs, *true_test(xs))

    if A.nnz < AMG_FIRST_ROW_NNZ * A.shape[0] and n > COARSEST_SIZE:
        precond, method = SmoothedAggregation(M, free), "bicgstab-amg"
        stop = min(max_iter, AMG_MAX_ITER)
    else:
        precond = m_free.__mul__
        stop = min(max_iter, AMG_AFTER)
    for attempt in range(2):             # attempt 1 is the single allowed restart
        if attempt == 1 and method == "bicgstab":
            precond = SmoothedAggregation(M, free)
            method, jacobi_iterations = "bicgstab-amg", iterations
            stop = min(max_iter, iterations + AMG_MAX_ITER)
        r = b_free - M @ xs              # fresh (shadow) residual per attempt
        r_hat = r.copy()
        rho = alpha = omega = 1.0
        v = np.zeros(n)
        p = np.zeros(n)
        last_rel = math.inf
        broke = False
        while iterations < stop:
            rho_new = float(r_hat @ r)
            if abs(rho_new) < tiny or abs(omega) < tiny:
                broke = True
                break
            beta = (rho_new / rho) * (alpha / omega)
            rho = rho_new
            np.multiply(v, omega, out=work)      # p = r + beta * (p - omega * v)
            p -= work
            p *= beta
            p += r
            p_hat = precond(p)
            v = M @ p_hat
            denom = float(r_hat @ v)
            if abs(denom) < tiny:
                broke = True
                break
            alpha = rho / denom
            s = r                                # s = r - alpha * v, in r's place
            s -= np.multiply(v, alpha, out=work)
            iterations += 1
            if small(s, rel(s)):
                x_try = xs + alpha * p_hat
                res_rel, passed = true_test(x_try)
                if passed:
                    return report(x_try, res_rel, True)
            s_hat = precond(s)
            t = M @ s_hat
            tt = float(t @ t)
            if tt < tiny:
                broke = True
                break
            omega = float(t @ s) / tt
            xs += np.multiply(p_hat, alpha, out=work)  # x = x + alpha * p_hat + omega * s_hat
            xs += np.multiply(s_hat, omega, out=work)
            r = s                                # r = s - omega * t
            r -= np.multiply(t, omega, out=work)
            if small(r, r_rel := rel(r)):
                res_rel, passed = true_test(xs)
                if passed:
                    return report(xs, res_rel, True)
            if method == "bicgstab" and min(r_rel, last_rel) > tol ** (iterations / AMG_AFTER):
                break                    # behind the pace to tol
            last_rel = r_rel
        if not broke and (iterations >= max_iter or method == "bicgstab-amg"):
            break                        # ran out of iterations
        if attempt == 0:
            restart = "breakdown" if broke else "behind pace"

    return report(xs, true_test(xs)[0], False)


def _splu(A: sp.spmatrix):
    """SuperLU factor of A.  scipy.sparse.linalg is imported here, on the
    first factorization: a process that never factors (a planar solve, or a
    3D sphere solve that stays on Jacobi) skips its import, about 0.1 s."""
    from scipy.sparse.linalg import splu

    return splu(A.tocsc())


def direct_solve(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Sparse LU (SuperLU, COLAMD ordering) of the free block of
    ``free_block(A, b)``, at any size."""
    M, free, x, res = free_block(A, b)
    if free.size:
        x[free] = _splu(M).solve(res[free])
    return x


def solve(A: sp.spmatrix, b: np.ndarray, tol: float = 1e-8,
          direct: bool = False) -> tuple[np.ndarray, SolveReport]:
    """The one solve entry point: BiCGSTAB by default, sparse LU on request."""
    if direct:
        x = direct_solve(A, b)
        res = float(np.linalg.norm(b - A @ x)) / max(float(np.linalg.norm(b)), 1e-300)
        return x, SolveReport(0, res, True, method="lu")
    return bicgstab(A, b, tol=tol)
