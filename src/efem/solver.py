"""Sparse linear solvers for the condensed systems.

The condensed matrix is nonsymmetric whenever the displacement terms are
active, so the workhorse is BiCGSTAB.  It starts with diagonal (Jacobi)
preconditioning, which is cheapest for the well-conditioned 3D systems, and
its single restart switches to a smoothed-aggregation AMG V-cycle, which
the Poisson-like 2D systems on fine meshes need.  The restart comes as soon
as the Jacobi phase falls behind the geometric pace that would reach tol in
``AMG_AFTER`` iterations.  Sparse LU serves the ``--direct`` path;
scipy.sparse.linalg is imported on the first factorization only.

Both paths work on the matrix's stored nonzeros (``stored_nonzeros``),
and the same pass rejects non-finite input.  Assembly keeps the full P1
pattern that criterion 7 checks, and with it the zeroed Dirichlet
couplings and the exact-zero stencil entries of structured meshes: 59% of
the stored entries of a 3D n=32 sphere system, 29% of a 2D n=200 one and
3.4% of the perturbed 2D cylinder mesh's.  The caller's matrix keeps them.

Iteration order is fixed and nothing is random, so a solve is repeatable
for a fixed BLAS thread count.  It is not repeatable across thread
counts: the dot products on long vectors go to a threaded BLAS, whose
summation order, and so every later iterate, depends on the number of
threads (``OPENBLAS_NUM_THREADS=1`` pins it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Pace of the Jacobi phase: BiCGSTAB restarts with the AMG preconditioner
# once its recursive residual after iteration k exceeds tol ** (k / AMG_AFTER)
# of |b|, the geometric pace that reaches tol at k = AMG_AFTER, where the
# Jacobi phase ends in any case.  On the benchmark systems (tol 1e-8) the
# 3D n=32 sphere residuals peak at 0.10 of the pace line (k = 47), so those
# solves (75 to 81 iterations, seeds 1 to 20) never build the hierarchy,
# while every 2D n=200 sweep system falls behind it at k = 28 and the
# perturbed 2D cylinder meshes at k = 24, and AMG finishes them 7 to 11
# iterations later.  Building the hierarchy costs about as much as 70
# Jacobi iterations at 2D n=200 and 135 at 3D n=32, which is why the 3D
# systems should not switch.
AMG_AFTER = 100
# Iteration cap of the AMG phase.  An AMG iteration costs five to six Jacobi
# ones; the converging systems measured need at most 89 (2D n=200, q=1e4,
# efem), and without the cap a stalled solve would run up to the overall
# cap of 10 n iterations.
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
    jacobi_iterations: int = 0   # length of the Jacobi phase
    restart: str = ""         # why the AMG phase began: "behind pace" or "breakdown"

    @property
    def restarted(self) -> bool:
        """Whether the solve restarted into its AMG phase."""
        return self.method == "bicgstab-amg"


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


def _neighbour_max(S: sp.csr_matrix, values: np.ndarray) -> np.ndarray:
    """Largest value over each node's closed neighbourhood in S."""
    out = values.copy()
    has = np.diff(S.indptr) > 0
    if has.any():
        nbr = np.maximum.reduceat(values[S.indices], S.indptr[:-1][has])
        out[has] = np.maximum(out[has], nbr)
    return out


def _hash_ranks(n: int) -> np.ndarray:
    """A fixed permutation of 0..n-1 from a multiplicative index hash."""
    h = (np.arange(n, dtype=np.uint64) * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)
    ranks = np.empty(n, dtype=np.int64)
    ranks[np.argsort(h, kind="stable")] = np.arange(n)
    return ranks


def aggregate(S: sp.csr_matrix) -> tuple[np.ndarray, int]:
    """MIS(2) aggregation of the strength graph S, vectorized and deterministic.

    Roots are a maximal set of nodes pairwise more than two strong edges
    apart, chosen by index-hash ranks.  Each root's distance-1 neighbours
    join it, then each remaining node joins the neighbouring aggregate whose
    root ranks highest, so every aggregate is connected.  Returns the
    aggregate of each node (-1 for nodes with no strong neighbour, such as
    Dirichlet rows) and the number of aggregates.
    """
    n = S.shape[0]
    rank = _hash_ranks(n)
    isolated = np.diff(S.indptr) == 0
    # key: roots above undecided nodes above decided non-roots, ranks within
    state = np.where(isolated, -1, 0)            # -1 out, 0 undecided, 1 root
    while (undecided := state == 0).any():
        key = np.where(state == 1, 2 * n + rank, np.where(undecided, n + rank, -1))
        reach = _neighbour_max(S, _neighbour_max(S, key))
        state[undecided & (reach == key)] = 1
        state[undecided & (reach >= 2 * n)] = -1

    roots = state == 1
    n_agg = int(roots.sum())
    agg_of_rank = np.full(n, -1, dtype=np.int64)
    agg_of_rank[rank[roots]] = np.arange(n_agg)
    carry = np.where(roots, rank, -1)            # rank of each node's root
    for _ in range(2):
        reach = _neighbour_max(S, carry)
        join = (carry < 0) & (reach >= 0)
        carry[join] = reach[join]
    agg = np.where(carry >= 0, agg_of_rank[carry], -1)
    return agg, n_agg


def _spectral_radius(A: sp.csr_matrix, dinv: np.ndarray) -> float:
    """Power-iteration estimate of rho(D^-1 A) from a fixed start vector."""
    v = (_hash_ranks(A.shape[0]) + 0.5) / A.shape[0] - 0.5
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
    linear operator.
    """

    def __init__(self, A: sp.spmatrix):
        self.levels: list[AMGLevel] = []
        A = sp.csr_matrix(A)
        while A.shape[0] > COARSEST_SIZE:
            dinv = 1.0 / A.diagonal()
            omega = 4.0 / (3.0 * _spectral_radius(A, dinv))
            agg, n_agg = aggregate(strength_graph(A))
            if not 0 < n_agg <= A.shape[0] // 2:
                break
            rows = np.nonzero(agg >= 0)[0]
            T = sp.csr_matrix((np.ones(rows.size), (rows, agg[rows])), shape=(A.shape[0], n_agg))
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
            A = coarse
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
            return self._scale * self._lu.solve(self._scale * b)
        lvl = self.levels[k]
        x = lvl.smoother * b
        for _ in range(SMOOTHING_SWEEPS - 1):
            x += lvl.smoother * (b - lvl.A @ x)
        x += lvl.P @ self._cycle(k + 1, lvl.R @ (b - lvl.A @ x))
        for _ in range(SMOOTHING_SWEEPS):
            x += lvl.smoother * (b - lvl.A @ x)
        return x


# ---------------------------------------------------------------------------
# solvers


def stored_nonzeros(A: sp.spmatrix, b: np.ndarray) -> sp.csr_matrix:
    """CSR matrix of A's stored nonzeros; rejects non-finite A or b, naming the row.

    A stored zero never changes a CSR row sum of finite values, so a product
    with the result equals the product with A bit for bit.  A itself is
    left alone; the result holds copies of the kept entries only.
    """
    A = sp.csr_matrix(A)
    bad = np.flatnonzero(~np.isfinite(A.data))
    if bad.size:
        row = int(np.searchsorted(A.indptr, bad[0], side="right")) - 1
        raise ValueError(f"non-finite entry {A.data[bad[0]]} in A at row {row}, "
                         f"column {int(A.indices[bad[0]])}")
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise ValueError(f"non-finite entry {b[bad[0]]} in b at row {int(bad[0])}")
    keep = A.data != 0.0
    kept = np.concatenate(([0], np.cumsum(keep, dtype=A.indptr.dtype)))
    return sp.csr_matrix((A.data[keep], A.indices[keep], kept[A.indptr]), shape=A.shape)


def bicgstab(A: sp.spmatrix, b: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned BiCGSTAB on the true relative residual |Ax-b|/|b|.

    Convergence additionally requires the Jacobi-scaled residual to pass the
    same tolerance; with strong permittivity contrasts |b| is dominated by
    the stiff rows and the plain test alone would stop while the soft-region
    error is still large.  The reported residual is always the true relative
    one, recomputed from the final iterate.

    The iteration starts from zero with Jacobi preconditioning.  It restarts
    once from the current iterate, with a fresh shadow residual and a
    smoothed-aggregation V-cycle as preconditioner, for at most
    ``AMG_MAX_ITER`` further iterations, on a rho or omega breakdown or as
    soon as the recursive residual falls behind the pace that reaches tol in
    ``AMG_AFTER`` iterations: |r_k| / |b| > tol ** (k / AMG_AFTER) after
    iteration k, which at k = ``AMG_AFTER`` is tol itself.  A second
    breakdown reports failure.  No solve runs past 10 n iterations in all.
    Both phases run on ``stored_nonzeros(A, b)``, so non-finite input raises
    before the first iteration.
    """
    A = stored_nonzeros(A, b)
    n = b.shape[0]
    max_iter = 10 * n
    minv = jacobi_precondition(A)

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)
    mbnorm = float(np.linalg.norm(minv * b))
    mbnorm = mbnorm if mbnorm > 0.0 else bnorm

    x = np.zeros(n)
    tiny = 1e-300

    def rel(res_vec):
        return float(np.linalg.norm(res_vec)) / bnorm

    def small(res_vec, res_rel):
        """Both tests, given res_rel = rel(res_vec)."""
        if res_rel > tol:
            return False
        return float(np.linalg.norm(minv * res_vec)) / mbnorm <= tol

    iterations = jacobi_iterations = 0
    method, restart = "bicgstab", ""

    def report(xv, res_rel, converged):
        jacobi = iterations if method == "bicgstab" else jacobi_iterations
        return xv, SolveReport(iterations, res_rel, converged, method, jacobi, restart)

    precond = minv.__mul__
    stop = min(max_iter, AMG_AFTER)
    for attempt in range(2):             # attempt 1 is the single allowed restart
        if attempt == 1:
            precond = SmoothedAggregation(A)
            method, jacobi_iterations = "bicgstab-amg", iterations
            stop = min(max_iter, iterations + AMG_MAX_ITER)
        r = b - A @ x                    # fresh (shadow) residual per attempt
        r_hat = r.copy()
        rho = alpha = omega = 1.0
        v = np.zeros(n)
        p = np.zeros(n)
        broke = False
        while iterations < stop:
            rho_new = float(r_hat @ r)
            if abs(rho_new) < tiny or abs(omega) < tiny:
                broke = True
                break
            beta = (rho_new / rho) * (alpha / omega)
            rho = rho_new
            p = r + beta * (p - omega * v)
            p_hat = precond(p)
            v = A @ p_hat
            denom = float(r_hat @ v)
            if abs(denom) < tiny:
                broke = True
                break
            alpha = rho / denom
            s = r - alpha * v
            iterations += 1
            if small(s, rel(s)):
                x_try = x + alpha * p_hat
                true_res = b - A @ x_try
                if small(true_res, res_rel := rel(true_res)):
                    return report(x_try, res_rel, True)
            s_hat = precond(s)
            t = A @ s_hat
            tt = float(t @ t)
            if tt < tiny:
                broke = True
                break
            omega = float(t @ s) / tt
            x = x + alpha * p_hat + omega * s_hat
            r = s - omega * t
            if small(r, r_rel := rel(r)):
                true_res = b - A @ x
                if small(true_res, res_rel := rel(true_res)):
                    return report(x, res_rel, True)
            if attempt == 0 and r_rel > tol ** (iterations / AMG_AFTER):
                break                    # behind the pace to tol
        if not broke and iterations >= max_iter:
            break                        # ran out of iterations
        if attempt == 0:
            restart = "breakdown" if broke else "behind pace"

    return report(x, rel(b - A @ x), False)


def _splu(A: sp.spmatrix):
    """SuperLU factor of A.  scipy.sparse.linalg is imported here, on the
    first factorization: a process that never factors (a planar solve, or a
    3D sphere solve that stays on Jacobi) skips its import, about 0.1 s."""
    from scipy.sparse.linalg import splu

    return splu(A.tocsc())


def direct_solve(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Sparse LU (SuperLU, COLAMD ordering) of A's stored nonzeros, at any size."""
    return _splu(stored_nonzeros(A, b)).solve(np.asarray(b, dtype=float))


def solve(A: sp.spmatrix, b: np.ndarray, tol: float = 1e-8,
          direct: bool = False) -> tuple[np.ndarray, SolveReport]:
    """The one solve entry point: BiCGSTAB by default, sparse LU on request."""
    if direct:
        x = direct_solve(A, b)
        res = float(np.linalg.norm(b - A @ x)) / max(float(np.linalg.norm(b)), 1e-300)
        return x, SolveReport(0, res, True, method="lu")
    return bicgstab(A, b, tol=tol)
