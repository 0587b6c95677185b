"""Solution evaluation, line sampling, error norms and file export.

The reconstructed potential inside a cut element is
phi_h = sum_i N_i phi_i + Nbar phi*, with the enrichment amplitude phi*
recovered per element from the condensation data.  The electric field
follows the convention E = grad(phi); it is constant per element for uncut
elements and constant per child side for cut ones.

Every reading of the field (point probes, line samples, the mismatch scan
and the VTK export) goes through one kernel, reconstruct, which takes each
point as an element and its barycentric coordinates there.  Those of x in
element e are the affine map lam(x) = e_0 + mesh.grads[e] (x - X[e, 0]), so
no per-point linear solve is needed.

Points are located with one pair query between a KD-tree of the stack and
the mesh's centroid KD-tree: an element that holds x has its centroid
within its own largest vertex-to-centroid distance of x (widened for the
containment tolerance and rounding, see _tree_pairs), so a radius of the
largest such reach finds every holder, and each pair is then kept only
within its own element's reach.  Line samples take their pairs from the
segment's clip intervals instead.  Both go through one function, _locate,
which tests containment, names a point no element holds, and keeps the
smallest-index holder of each point (the locate rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from efem.efem_core import AssembledSystem, CutState, hat_value
from efem.interface import Classification, _finite
from efem.mesh import (Mesh, _index_width, _write_rows, local_faces, row_blocks, row_dot,
                       stacked_values)

_CONTAIN_TOL = 1e-9
# Pieces of a segment shorter than this, relative to the mesh extent, are
# rounding slivers where it passes through a vertex or an edge.
_SLIVER = 1e-13

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class SolutionField:
    """Nodal solution plus the assembly's classification, enriched elements
    (cut_data) and their amplitudes phi*, for evaluation and export."""

    mesh: Mesh
    phi: np.ndarray
    classification: Classification
    cut_data: CutState
    star: np.ndarray                         # phi* of each element of cut_data.ids

    @cached_property
    def phi_star(self) -> dict[int, float]:
        """Enrichment amplitude phi* by element; the benchmark's checks read it."""
        return dict(zip(self.cut_data.ids.tolist(), self.star.tolist()))


def recover_enrichment(assembled: AssembledSystem, phi: np.ndarray) -> np.ndarray:
    """Enrichment amplitudes phi* = r . phi_element of the elements of
    assembled.cut_data.ids, in that order."""
    c = assembled.cut_data
    return row_dot(c.recovery, phi[assembled.mesh.elements[c.ids]])


def build_solution(assembled: AssembledSystem, phi: np.ndarray) -> SolutionField:
    phi = np.asarray(phi, dtype=float)
    return SolutionField(assembled.mesh, phi, assembled.classification,
                         assembled.cut_data, recover_enrichment(assembled, phi))


# ---------------------------------------------------------------------------
# the reconstruction kernel


def _barycentric_at(sol: SolutionField, elems: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Barycentric coordinates (P, d+1) of points x (P, d) in elements elems (P,)."""
    m = sol.mesh
    lam = np.einsum("pid,pd->pi", m.grads[elems], x - m.nodes[m.elements[elems, 0]])
    lam[:, 0] += 1.0
    return lam


def _holds(sol: SolutionField, elems: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Whether the closure of element elems[p] holds the point x[p], (P,)."""
    return _barycentric_at(sol, elems, x).min(axis=1) >= -_CONTAIN_TOL


def reconstruct(sol: SolutionField, elems, lam, child):
    """(phi (P,), E (P, d)) of the reconstructed field at the points with
    barycentric coordinates lam (P, d+1) in elements elems (P,).

    phi_h = sum_i N_i phi_i + Nbar phi* with Nbar from hat_value, and E_h is
    its gradient: in an enriched element the hat gradient of child child[p]
    (+1 positive material, -1 negative); child is ignored elsewhere.
    """
    elems = np.asarray(elems, dtype=np.int64)
    nodal = sol.phi[sol.mesh.elements[elems]]
    phi = np.einsum("pi,pi->p", lam, nodal)
    E = np.einsum("pid,pi->pd", sol.mesh.grads[elems], nodal)
    c = sol.cut_data
    pos = np.searchsorted(c.ids, elems)
    hit = np.flatnonzero(pos < c.ids.size)
    hit = hit[c.ids[pos[hit]] == elems[hit]]
    k = pos[hit]
    phi[hit] += hat_value(lam[hit], c.batch.nodal_d[k]) * sol.star[k]
    positive = (np.asarray(child)[hit] > 0)[:, None]
    E[hit] += np.where(positive, c.grad_pos[k], c.grad_neg[k]) * sol.star[k][:, None]
    return phi, E


def _evaluate(sol: SolutionField, elems, x, sides):
    """(phi (P,), E (P, d), side (P,)) of the reconstructed field.

    Point x[p] is evaluated in element elems[p].  sides[p] picks the child
    (+1 / -1) when the point sits on the intra-element interface, 0 lets the
    interpolated distance decide; it is ignored away from the interface.  The
    returned side is sides[p] where given, else the side of an uncut element,
    else the sign of the interpolated distance (+1 on it).
    """
    elems = np.asarray(elems, dtype=np.int64)
    sides = np.asarray(sides, dtype=np.int64)
    lam = _barycentric_at(sol, elems, np.asarray(x, dtype=float))
    cl = sol.classification
    d = cl.d[sol.mesh.elements[elems]]
    L = np.einsum("pi,pi->p", lam, d)
    near = np.abs(L) <= 1e-12 * np.abs(d).max(axis=1)
    child = np.where(near, np.where(sides != 0, sides, 1), np.where(L > 0.0, 1, -1))
    phi, E = reconstruct(sol, elems, lam, child)
    side = np.where(cl.is_cut[elems], np.where(L >= 0.0, 1, -1), cl.element_sign[elems])
    return phi, E, np.where(sides != 0, sides, side)


# ---------------------------------------------------------------------------
# point location and evaluation


def _tree_pairs(sol: SolutionField, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(point, element) candidate pairs for the stack x (P, d): every element
    whose closure holds a point is paired with it.

    One pair query between a KD-tree of x and the mesh's centroid KD-tree
    returns every (point, centroid) pair within the largest reach, and each
    pair is kept only within its own element's reach.  If lam_i(x) >= -tau
    for all i (tau = _CONTAIN_TOL), x lies in the simplex scaled by
    1 + (d+1) tau about its centroid c, whose vertices lie within
    (1 + (d+1) tau) rho of c (rho the element's largest vertex-to-centroid
    distance, mesh.centroid_reach), and so does x.  The reach takes
    1 + 2 d tau >= 1 + (d+1) tau, which leaves room for the rounding of lam;
    rounding moves the centroids and the distances by a few eps times the
    coordinates, and 1e-12 times the largest coordinate covers that.
    ValueError names a stack of the wrong dimension, or the first point that
    is not finite.
    """
    m = sol.mesh
    _check_dim("point stack", x, m.dim, stack=True)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"point {bad[0]} of the stack, {x[bad[0]]}, is not finite")
    reach = ((1.0 + 2.0 * m.dim * _CONTAIN_TOL) * m.centroid_reach
             + 1e-12 * np.abs(m.nodes).max())
    # imported here, as by mesh.centroid_tree: only point location needs it
    from scipy.spatial import cKDTree

    pairs = cKDTree(x).sparse_distance_matrix(m.centroid_tree, reach.max(),
                                              output_type="ndarray")
    near = pairs["v"] <= reach[pairs["j"]]
    return pairs["i"][near], pairs["j"][near]


def _check_dim(what: str, x: np.ndarray, dim: int, stack: bool = False) -> None:
    """ValueError naming what, its shape and the mesh dimension unless x is one
    point (dim,) or, for a stack, k points (k, dim)."""
    if x.ndim != 1 + stack or x.shape[-1] != dim:
        want = f"(k, {dim})" if stack else f"({dim},)"
        raise ValueError(f"{what} has shape {x.shape}, but a {dim}D mesh takes {want}")


def _locate(sol: SolutionField, x: np.ndarray, p: np.ndarray, e: np.ndarray):
    """(owner (P,), p, e) for the stack x (P, d) and candidate pairs (p, e),
    element e[k] a candidate for point x[p[k]].

    The returned pairs are the candidates whose closure holds their point,
    and owner[i] is the smallest-index element among those of point i (the
    locate rule).  Every holder of a point must be among its candidates;
    ValueError names the first point that none holds.
    """
    inside = _holds(sol, e, x[p])
    p, e = p[inside], e[inside]
    owner = np.full(x.shape[0], sol.mesh.n_elements)
    np.minimum.at(owner, p, e)
    missing = np.flatnonzero(owner == sol.mesh.n_elements)
    if missing.size:
        raise ValueError(f"point {x[missing[0]]} is outside the mesh")
    return owner, p, e


def locate_points(sol: SolutionField, x) -> np.ndarray:
    """The element (P,) whose closure holds each point of the stack x (P, d);
    the smallest index wins on faces (the locate rule)."""
    x = np.asarray(x, dtype=float)
    return _locate(sol, x, *_tree_pairs(sol, x))[0]


def elements_containing(sol: SolutionField, x) -> list[int]:
    """All elements whose closure holds the point x, ascending: locate_points'
    pairs for a batch of one.  The benchmark's pole check calls this."""
    x = np.asarray(x, dtype=float)[None]
    return np.sort(_locate(sol, x, *_tree_pairs(sol, x))[2]).tolist()


def eval_in_element(sol: SolutionField, e: int, x, side: int = 0):
    """(phi, E) of the reconstructed field of element e at point x.

    side picks the child when x sits exactly on the intra-element interface
    (+1 positive material, -1 negative); elsewhere the interpolated distance
    decides and side is ignored.  The benchmark's pole check calls this.
    """
    x = np.asarray(x, dtype=float)
    _check_dim("point", x, sol.mesh.dim)
    phi, E, _ = _evaluate(sol, [e], x[None], [side])
    return float(phi[0]), E[0]


def eval_field(sol: SolutionField, x, side: int = 0):
    """(phi, E) at point x, locating the containing element first.

    A stack x (P, d) gives phi (P,) and E (P, d); one point is a batch of
    one and gives a float and E (d,).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        phi, E = eval_field(sol, x[None], side)
        return float(phi[0]), E[0]
    phi, E, _ = _evaluate(sol, locate_points(sol, x), x, np.full(x.shape[0], side))
    return phi, E


# ---------------------------------------------------------------------------
# line sampling


@dataclass
class LineSample:
    """Samples of the solution along a straight segment.

    Extra sample pairs are inserted at element boundaries and at interface
    crossings; paired entries share coordinates but hold the one-sided
    values, so plots and integrals see the kinks and jumps.
    """

    start: np.ndarray
    end: np.ndarray
    points: np.ndarray           # (k, dim)
    t: np.ndarray                # (k,) parameter in [0, 1]
    phi: np.ndarray              # (k,)
    E: np.ndarray                # (k, dim)
    side: np.ndarray             # (k,) -1 / +1
    element: np.ndarray          # (k,)

    @property
    def arclength(self) -> np.ndarray:
        return self.t * float(np.linalg.norm(self.end - self.start))


def _clip(sol: SolutionField, start: np.ndarray, v: np.ndarray):
    """Parameter intervals of the segment start + t v, t in [0, 1], per element.

    Along the segment lam(t) = lam0 + t dlam is affine, so each closure is an
    interval in t bounded by ratios of barycentric coordinates (the exit step
    of a walk in a triangulation, taken for all elements at once).  Returns
    the candidate elements (those within twice the containment tolerance
    somewhere on the segment), their tolerance-widened intervals (a superset
    for point tests) and their exact intervals.  A barycentric coordinate
    that changes by less than the tolerance over the whole segment gives no
    exact bound; the element keeps it only if it holds at both ends.

    Only the elements that _near_segment keeps are clipped; every element it
    drops would have clipped to nothing, so the result is that of clipping
    every element.
    """
    m = sol.mesh
    near = _near_segment(m, start, v)
    grads = m.grads[near]
    lam0 = np.einsum("eid,ed->ei", grads, start - m.nodes[m.elements[near, 0]])
    lam0[:, 0] += 1.0
    dlam = np.einsum("eid,d->ei", grads, v)

    tol = 2.0 * _CONTAIN_TOL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = (-tol - lam0) / dlam
    lo = np.maximum(np.where(dlam > 0.0, ratio, -np.inf).max(axis=1), 0.0)
    hi = np.minimum(np.where(dlam < 0.0, ratio, np.inf).min(axis=1), 1.0)
    flat_ok = ((dlam != 0.0) | (lam0 >= -tol)).all(axis=1)
    keep = np.nonzero(flat_ok & (lo <= hi))[0]
    cand, lo, hi = near[keep], lo[keep], hi[keep]

    l0, dl = lam0[keep], dlam[keep]
    steep = np.abs(dl) > _CONTAIN_TOL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = -l0 / dl
    a = np.maximum(np.where(steep & (dl > 0.0), ratio, -np.inf).max(axis=1), 0.0)
    b = np.minimum(np.where(steep & (dl < 0.0), ratio, np.inf).min(axis=1), 1.0)
    flat_ok = (steep | (np.minimum(l0, l0 + dl) >= -_CONTAIN_TOL)).all(axis=1)
    b = np.where(flat_ok, b, -np.inf)
    return cand, lo, hi, a, b


def _near_segment(m: Mesh, start: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ascending indices of the elements not wholly beyond one face of a prism
    around the segment start + t v, t in [0, 1].

    The prism's axes are an orthonormal frame whose first axis runs along v
    (any frame for a point); along each axis it spans the segment's ends,
    widened by a margin on both sides.  A node gets one outcode bit per
    face it lies beyond, and an element whose nodes share a bit is dropped.
    Non-finite ends drop nothing.

    The margin keeps every element that _clip would make a candidate.  That
    needs a point x of the segment with every barycentric coordinate
    lam_i(x) >= -tau, tau = 2 _CONTAIN_TOL.  Let f be a face's outward unit
    normal and a = min_i f.X_i over the element's nodes X_i.  Since the
    lam_i sum to 1, f.x = a + sum_i lam_i (f.X_i - a) >= a - d tau h: at
    most d coordinates are negative, and 0 <= f.X_i - a <= h, the mesh's
    longest edge.  So if all the nodes lie more than d tau h beyond the
    face, no such x is on the segment's side of it.  Rounding moves both
    this test and _clip's by a few eps times the coordinates; 1e-12 times
    the largest coordinate covers that.
    """
    scale = max(np.abs(m.nodes).max(), np.abs(start).max(), np.abs(start + v).max())
    margin = m.dim * 2.0 * _CONTAIN_TOL * m.char_lengths.max() + 1e-12 * scale
    frame = np.linalg.svd(v[None])[2] if np.isfinite(v).all() else np.eye(m.dim)
    ends = frame @ np.column_stack([start, start + v])          # (d, 2)
    proj = m.nodes @ frame.T
    code = np.zeros(m.n_nodes, dtype=np.uint8)
    for k in range(m.dim):
        code |= (proj[:, k] < ends[k].min() - margin).astype(np.uint8) << 2 * k
        code |= (proj[:, k] > ends[k].max() + margin).astype(np.uint8) << 2 * k + 1
    shared = code[m.elements[:, 0]]
    for i in range(1, m.dim + 1):
        shared &= code[m.elements[:, i]]
    return np.flatnonzero(shared == 0)


def _ranges(first: np.ndarray, count: np.ndarray):
    """(i, k) for every k in range(first[i], first[i] + count[i]), all i."""
    i = np.repeat(np.arange(first.size), count)
    return i, np.arange(i.size) - np.repeat(np.cumsum(count) - count, count) + first[i]


def _walk(cand, lo, hi, a, b, sliver: float, start, v):
    """Owner runs along the segment: (owners (R,), bounds (R+1,) from 0 to 1).

    The exact interval endpoints cut [0, 1] into pieces.  A piece's owner is
    the smallest index among the elements whose exact interval covers it:
    the locate rule away from faces, and on faces the segment runs along.
    Rounding can leave a gap between neighbours where the segment crosses a
    face; the widened intervals, which overlap there, own it.  Pieces no
    longer than sliver (in t) are rounding slivers at vertices and edges and
    join their neighbours.  Run bounds are exact endpoints, so each lies on a
    face of both elements it separates.
    """
    none = np.iinfo(np.int64).max
    keep = b - a > sliver
    cuts = np.unique(np.concatenate([a[keep], b[keep], [0.0, 1.0]]))
    first = np.searchsorted(cuts, a[keep])
    c, piece = _ranges(first, np.searchsorted(cuts, b[keep]) - first)
    owner = np.full(cuts.size - 1, none)
    np.minimum.at(owner, piece, cand[keep][c])

    gap = np.nonzero(owner == none)[0]
    if gap.size:
        cover = (lo <= cuts[gap, None]) & (hi >= cuts[gap + 1, None])
        owner[gap] = np.where(cover, cand, none).min(axis=1)
        if (owner == none).any():
            t = cuts[gap[np.argmax(owner[gap] == none)]]
            raise ValueError(f"point {start + t * v} is outside the mesh")

    length = np.diff(cuts)
    real = length > sliver
    if not real.any():                   # the segment is shorter than a sliver
        real = length == length.max()
    owner, ends = owner[real], cuts[1:][real]
    change = np.nonzero(owner[1:] != owner[:-1])[0]
    owners = np.append(owner[change], owner[-1])
    bounds = np.concatenate([[0.0], ends[change], [1.0]])
    return owners, bounds


def sample_line(sol: SolutionField, start, end, count: int = 1001) -> LineSample:
    """Sample phi, E and the material side along the segment start -> end.

    Holds count equally spaced base samples, each evaluated in the
    smallest-index element whose closure holds it (the locate rule), plus
    one pair of entries at every element boundary the segment crosses and at
    every interface crossing inside a cut element.  Boundary pairs sit at
    the exact face parameter and hold the values of the element before and
    after; crossing pairs hold the approach side first.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    start = _finite("line start", start)
    end = _finite("line end", end)
    _check_dim("line start", start, sol.mesh.dim)
    _check_dim("line end", end, sol.mesh.dim)
    v = end - start

    base_t = np.linspace(0.0, 1.0, count)
    base_pts = start + base_t[:, None] * v
    cand, lo, hi, a, b = _clip(sol, start, v)
    # a base sample's candidates are the elements whose widened interval holds its t
    first = np.searchsorted(base_t, lo, "left")
    c, j = _ranges(first, np.searchsorted(base_t, hi, "right") - first)
    base_e = _locate(sol, base_pts, j, cand[c])[0]
    length = float(np.linalg.norm(v))
    extent = max(float(np.ptp(c)) for c in sol.mesh.nodes.T)
    sliver = _SLIVER * extent / length if length > 0.0 else np.inf
    owners, bounds = _walk(cand, lo, hi, a, b, sliver, start, v)
    runs = np.arange(owners.size)

    # interface crossings: the interpolated distance is linear along the
    # segment, so its root inside a cut element's run is exact
    cut = np.nonzero(sol.classification.is_cut[owners])[0]
    tb = np.concatenate([bounds[cut], bounds[cut + 1]])
    L = np.einsum("pi,pi->p",
                  _barycentric_at(sol, np.tile(owners[cut], 2), start + tb[:, None] * v),
                  np.tile(sol.classification.d[sol.mesh.elements[owners[cut]]], (2, 1)))
    L0, L1 = L[:cut.size], L[cut.size:]
    hit = (L0 != 0.0) & (L1 != 0.0) & ((L0 > 0.0) != (L1 > 0.0))
    r_x = cut[hit]
    t_x = bounds[r_x] + (bounds[r_x + 1] - bounds[r_x]) * L0[hit] / (L0[hit] - L1[hit])
    s_x = np.where(L0[hit] > 0.0, 1, -1)

    # entries: (t, run, rank within equal t and run, element, forced side)
    # ranks: 0 run start, 1 base sample, 2/3 crossing approach/departure, 4 run end
    # a base sample on a run bound goes with the run its owner belongs to
    base_run = np.searchsorted(bounds, base_t, "right").clip(1, owners.size) - 1
    base_run -= (base_run > 0) & (bounds[base_run] == base_t) & (owners[base_run - 1] == base_e)
    inner = bounds[1:-1]
    t = np.concatenate([base_t, inner, inner, t_x, t_x])
    run = np.concatenate([base_run, runs[:-1], runs[1:], r_x, r_x])
    rank = np.concatenate([np.full(count, 1), np.full(inner.size, 4), np.zeros(inner.size, int),
                           np.full(r_x.size, 2), np.full(r_x.size, 3)])
    elem = np.concatenate([base_e, owners[:-1], owners[1:], owners[r_x], owners[r_x]])
    forced = np.concatenate([np.zeros(count + 2 * inner.size, int), s_x, -s_x])

    order = np.lexsort((rank, run, t))
    t, elem, forced = t[order], elem[order], forced[order]
    pts = start + t[:, None] * v
    phi, E, side = _evaluate(sol, elem, pts, forced)
    return LineSample(start, end, pts, t, phi, E, side, elem)


def crossings(sample: LineSample) -> list[dict]:
    """Paired one-sided records at each interface crossing of a line sample.

    Returns dicts with t, point, element and per-side (phi, E) taken from
    the duplicated sample entries; sides are keyed -1 and +1.
    """
    out: list[dict] = []
    i = 0
    while i + 1 < sample.t.size:
        same_spot = (sample.t[i + 1] == sample.t[i]
                     and sample.element[i + 1] == sample.element[i]
                     and sample.side[i + 1] != sample.side[i])
        if same_spot:
            rec = {"t": float(sample.t[i]),
                   "point": sample.points[i],
                   "element": int(sample.element[i]),
                   int(sample.side[i]): (float(sample.phi[i]), sample.E[i]),
                   int(sample.side[i + 1]): (float(sample.phi[i + 1]), sample.E[i + 1])}
            out.append(rec)
            i += 2
        else:
            i += 1
    return out


def l2_line_error(sol: SolutionField, reference, start, end) -> float:
    """Line L2 norm sqrt(int (phi_h - phi_ref)^2 ds) by the trapezoid rule.

    Sample points are the 1001 base points of sample_line (1000 intervals)
    with its forced nodes at element boundaries and interface crossings.
    reference takes the (k, dim) stack of sample points and returns their k
    potentials, as the oracles' phi does; any other shape raises TypeError.
    """
    return sample_l2_error(sample_line(sol, start, end), reference)


def sample_l2_error(sample: LineSample, reference) -> float:
    """The l2_line_error of a line sample already taken (same reference contract)."""
    ref = stacked_values(reference, sample.points, "l2_line_error reference")
    g = (sample.phi - ref) ** 2
    return float(np.sqrt(_trapezoid(g, sample.arclength)))


def observed_order(hs, errors) -> float:
    """Least-squares slope of log(error) against log(h).

    ValueError for fewer than two levels, or naming the first level whose
    error is not positive and finite (None reads as NaN): its log is no number.
    """
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if hs.size < 2:
        raise ValueError("need at least two levels for an order estimate")
    bad = np.flatnonzero(~(np.isfinite(errors) & (errors > 0.0)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"level {i} (h = {hs[i]:g}) has error {float(errors[i])}; "
                         "an order needs positive finite errors")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


# ---------------------------------------------------------------------------
# interface diagnostics


def interface_potential_mismatch(sol: SolutionField) -> float:
    """Largest inter-element disagreement of phi_h where the interface crosses
    an edge of an interior mesh face (the face itself in 2D).

    The two elements sharing the face each reconstruct their own trace; the
    hat function is identical on a shared edge, so any disagreement comes
    from differing enrichment amplitudes.  The scan reads the faces whose
    smaller-index element is cut; the crossing point comes from the snapped
    nodal distances, measured from the edge's smaller node index.  Returns
    the max absolute mismatch, 0.0 when no such edge is crossed.
    """
    m, cl = sol.mesh, sol.classification
    nf = m.dim + 1
    pairs = np.flatnonzero((m.face_second >= 0) & cl.is_cut[m.face_first // nf])
    (e1, lf), e2 = np.divmod(m.face_first[pairs], nf), m.face_second[pairs] // nf
    face_edges = list(combinations(range(m.dim), 2))
    ends = np.array(local_faces(m.dim))[:, face_edges][lf].reshape(-1, 2)   # local to e1
    e1, e2 = (np.repeat(e, len(face_edges)) for e in (e1, e2))
    nodes = np.sort(m.elements[e1[:, None], ends], axis=1)                 # (a, b), a < b
    d = cl.d[nodes]
    crossed = np.nonzero((d[:, 0] > 0.0) != (d[:, 1] > 0.0))[0]
    da, db = d[crossed, 0], d[crossed, 1]
    xa, xb = m.nodes[nodes[crossed, 0]], m.nodes[nodes[crossed, 1]]
    xi = np.concatenate([xa + (da / (da - db))[:, None] * (xb - xa)] * 2)
    elems = np.concatenate([e1[crossed], e2[crossed]])
    phi, _ = reconstruct(sol, elems, _barycentric_at(sol, elems, xi), np.ones(elems.size))
    return float(np.abs(phi[:crossed.size] - phi[crossed.size:]).max(initial=0.0))


# ---------------------------------------------------------------------------
# export


_VTK_CELL = {2: 5, 3: 10}        # triangle, tetrahedron


def export_vtk(sol: SolutionField, path) -> None:
    """Legacy ASCII VTK unstructured grid; cut elements appear as children.

    Points are the mesh nodes, then the virtual interface points of each cut
    element in element order.  They are duplicated per element on purpose:
    the two reconstructions may disagree there and the jump should be
    visible.  A cut element's children take its place in the cell order;
    every cell carries its constant E, a child's from its own side.  An
    uncut cell's E is the P1 gradient, taken a row block of elements at a
    time; the children's E and the virtual points' phi come from
    reconstruct.  Values are written with %+.16e (17 significant digits,
    lossless) and point indices with the width of the largest one.
    """
    m = sol.mesh
    conn = m.elements
    nv = m.dim + 1
    ids, b = sol.cut_data.ids, sol.cut_data.batch

    virtual = b.points[:, nv:]                  # the enriched elements' virtual nodes
    real_v = np.arange(virtual.shape[1]) < b.n_virtual[:, None]
    virt_x = virtual[real_v]
    ve = ids[np.nonzero(real_v)[0]]
    phi_v, _ = reconstruct(sol, ve, _barycentric_at(sol, ve, virt_x), np.ones(ve.size))
    points = np.concatenate([m.nodes, virt_x])
    pdata = np.concatenate([sol.phi, phi_v])

    real_c = np.arange(b.children.shape[1]) < b.n_children[:, None]
    k = np.nonzero(real_c)[0]
    refs = b.children[real_c]
    first_virtual = m.n_nodes + np.cumsum(b.n_virtual) - b.n_virtual
    child_rows = np.where(refs < nv,
                          np.take_along_axis(conn[ids[k]], np.minimum(refs, nv - 1), axis=1),
                          (first_virtual[k] - nv)[:, None] + refs)
    per_element = np.ones(m.n_elements, dtype=np.int64)
    per_element[ids] = b.n_children             # two or more
    bounds = np.concatenate([[0], np.cumsum(per_element)])     # element e has cells bounds[e:e+2]
    n_cells = int(bounds[-1])
    child_cell = (bounds[ids][:, None] + np.arange(real_c.shape[1]))[real_c]
    # cell and point indices take int32 while their counts stay below 2**31
    index = np.int32 if max(n_cells, points.shape[0]) < 2**31 else np.int64
    cells = np.empty((n_cells, nv), dtype=index)
    cdata = np.empty((n_cells, m.dim))
    # a row block of elements at a time, every cell takes its element's nodes
    # and P1 gradient; then the children of cut elements take their own
    for rows in row_blocks(m.n_elements):
        at = slice(bounds[rows.start], bounds[min(rows.stop, m.n_elements)])
        E = np.einsum("pid,pi->pd", m.grads[rows], sol.phi[conn[rows]])
        cells[at] = np.repeat(conn[rows], per_element[rows], axis=0)
        cdata[at] = np.repeat(E, per_element[rows], axis=0)
    cells[child_cell] = child_rows
    cdata[child_cell] = reconstruct(sol, ids[k], np.full((k.size, nv), 1.0 / nv),
                                    b.child_sign[real_c])[1]

    n_points = points.shape[0]
    xyz = " ".join(["%+.16e"] * m.dim + ["0"] * (3 - m.dim)) + "\n"     # 2D rows get z = 0
    with open(path, "wb") as f:
        f.write(b"# vtk DataFile Version 3.0\nefem solution\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {n_points} double\n".encode())
        _write_rows(f, xyz, points)
        f.write(f"CELLS {n_cells} {n_cells * (nv + 1)}\n".encode())
        _write_rows(f, f"{nv}" + f" %{_index_width(n_points)}d" * nv + "\n", cells)
        f.write(f"CELL_TYPES {n_cells}\n".encode())
        f.write(f"{_VTK_CELL[m.dim]}\n".encode() * n_cells)
        f.write(f"POINT_DATA {n_points}\n".encode())
        f.write(b"SCALARS phi double 1\nLOOKUP_TABLE default\n")
        _write_rows(f, "%+.16e\n", pdata[:, None])
        f.write(f"CELL_DATA {n_cells}\n".encode())
        f.write(b"VECTORS efield double\n")
        _write_rows(f, xyz, cdata)


def export_csv(sample: LineSample, path) -> None:
    """Line sample as CSV, every column (side too) with %+.16e: 17
    significant digits, a lossless round trip.

    Lines end in CR LF, as the csv module's default dialect writes them.
    """
    dim = sample.points.shape[1]
    cols = ["x", "y", "z"][:dim]
    header = cols + ["phi"] + [f"E{c}" for c in cols] + ["side"]
    rows = np.column_stack([sample.points, sample.phi, sample.E, sample.side])
    with open(path, "wb") as f:
        f.write((",".join(header) + "\r\n").encode())
        _write_rows(f, ",".join(["%+.16e"] * (2 * dim + 2)) + "\r\n", rows)


def read_csv_sample(path):
    """Parse a sample CSV back into (points, phi, E, side) arrays; side is int."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    dim = (rows.shape[1] - 2) // 2          # columns: dim coordinates, phi, dim of E, side
    return rows[:, :dim], rows[:, dim], rows[:, dim + 1:-1], rows[:, -1].astype(int)
