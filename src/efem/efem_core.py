"""Enriched element matrices, static condensation and global assembly.

A cut element carries one extra unknown phi* multiplying the hat enrichment

    Nbar(x) = sum_i N_i(x) |d_i|  -  | sum_i N_i(x) d_i |

which vanishes at the element nodes, peaks on the interface and has a
constant gradient on each side of it.  The elemental block system is

    [ K        B          ] [ phi  ]   [ 0 ]
    [ B^T - D  Kenr - Denr] [ phi* ] = [ 0 ]

where D and Denr integrate Nbar times the element's own normal displacement
over the exterior faces; they approximate the neighbour flux and restore
inter-element compatibility of the enriched field.  phi* is eliminated per
element (static condensation).  K = (sum_c eps_c m_c) G G^T is the
standard FEM block of the element, so the condensed block

    K + B r^T,   r = -(B - D) / (Kenr - Denr)

is the standard block plus one rank-one term, and every mode assembles the
same standard matrix, in the standard FEM sparsity pattern, adding that term
on its enriched elements only.

Between two level sets on one mesh, that matrix differs from eps1 times the
mesh's unit stiffness (mesh.unit_stiffness, sum_e measure_e G G^T, built on
first use) only in the entries whose row or column node a negative or cut
element holds.  assemble_global starts from the scaled cache and sums those
entries again from the elements that hold such a node: for a sphere of
radius 0.1 on the 32^3 structured mesh, about 2,800 of 196,608 elements.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from efem.mesh import (BoundaryTag, Mesh, face_measure_normal, local_faces, row_blocks, row_dot,
                       stiffness_blocks)
from efem.interface import Classification, CutBatch, classify_elements, split_simplex

log = logging.getLogger("efem")

MODES = ("standard", "efem-nod", "efem")

# Condensation is refused unless |Kenr - Denr| / max(Kenr, |Denr|), the
# relative precision left in the pivot, exceeds this.
CONDENSE_GUARD = 1e-14


class SingularSystemError(Exception):
    """The global system has no Dirichlet constraint and is singular."""


@dataclass(frozen=True)
class MaterialPair:
    """Permittivities of the two materials: eps1 on d > 0, eps2 on d < 0."""

    eps1: float
    eps2: float

    def __post_init__(self):
        for name in ("eps1", "eps2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"permittivity {name} must be finite, got {value}")
            if value <= 0.0:
                raise ValueError(f"permittivity {name} must be positive, got {value}")

    def for_sign(self, sign: int) -> float:
        return self.eps1 if sign > 0 else self.eps2


# ---------------------------------------------------------------------------
# enrichment basis


def hat_gradients(grads: np.ndarray, nodal_d: np.ndarray):
    """Constant enrichment gradient on the positive and negative side.

    grad Nbar = sum_i grad N_i |d_i| - s * sum_i grad N_i d_i  with s the
    side sign.  Returns (grad_pos, grad_neg), (k, d) each, for grads
    (k, d+1, d) and nodal_d (k, d+1).
    """
    grads = np.asarray(grads, dtype=float)
    d = np.asarray(nodal_d, dtype=float)
    gT = grads.transpose(0, 2, 1)
    g_abs = np.matmul(gT, np.abs(d)[..., None])[..., 0]
    g_lin = np.matmul(gT, d[..., None])[..., 0]
    return g_abs - g_lin, g_abs + g_lin


def hat_value(shape_values: np.ndarray, nodal_d: np.ndarray):
    """Nbar from P1 shape function values.

    shape_values (k, d+1) with nodal_d (k, d+1), or (d+1,) shared by all
    k points, give (k,).  The sums run in einsum's order, the order of the
    P1 part of every reading of the field (postprocess.reconstruct).
    """
    lam = np.asarray(shape_values, dtype=float)
    d = np.asarray(nodal_d, dtype=float)
    return np.einsum("...i,...i->...", lam, np.abs(d)) - np.abs(np.einsum("...i,...i->...", lam, d))


# ---------------------------------------------------------------------------
# element integrals
#
# Each kernel takes k elements stacked along a first axis and gives k results.


def element_matrices(grads, materials: MaterialPair, deco: CutBatch):
    """Volume blocks B (k, n) and Kenr (k,) of the k cut elements of deco,
    whose P1 gradients are grads (k, d+1, d).

    All integrands are piecewise constant (P1 plus hat), so one centroid
    value per child integrates exactly; children are summed in table order.
    """
    grads = np.asarray(grads, dtype=float)
    k, _, dim = grads.shape
    g_pos, g_neg = hat_gradients(grads, deco.nodal_d)
    b_accum = np.zeros((k, dim))
    kenr = np.zeros(k)
    for m, s in zip(deco.child_measure.T, deco.child_sign.T):
        em = np.where(s > 0, materials.eps1, materials.eps2) * m
        gbar = np.where((s > 0)[:, None], g_pos, g_neg)
        b_accum += em[:, None] * gbar
        kenr += em * row_dot(gbar, gbar)
    return np.matmul(grads, b_accum[..., None])[..., 0], kenr


def element_displacement_terms(grads, materials: MaterialPair, deco: CutBatch):
    """Exterior-face blocks D_i = int Nbar n.(eps grad N_i) and Denr, in closed form.

    On side s, Nbar is the affine map 2 sum_{i not on s} N_i |d_i|, zero on a
    face whose nodes share one sign.  A crossed face of measure A has a lone
    vertex m, alone on its side (in 2D either end), and other vertices o;
    t_o = |d_m| / (|d_m| + |d_o|), u_o = |d_o| / (|d_m| + |d_o|).  Integrating
    2 sum_o N_o |d_o| over the lone side, the corners t_o of the face, and
    2 N_m |d_m| over the rest gives

        J_lone  = (2 |d_m| A / d) prod t_o sum u_o
        J_other = (2 |d_m| A / d) Q,  Q = u^2 in 2D,
                  Q = u1^2 + u1 u2 + u2^2 - u1 u2 (u1 + u2) in 3D,

    whose subtraction removes at most 2/3.  With J+ and J- the integrals on the
    positive and negative side and n the element outward normal of the face,
    D = sum_f (eps1 J+ + eps2 J-) grads.n and
    Denr = sum_f eps1 J+ g_pos.n + eps2 J- g_neg.n: (D (k, n), Denr (k,)).
    """
    grads = np.asarray(grads, dtype=float)
    coords = deco.coords
    k, n, dim = grads.shape
    g_pos, g_neg = hat_gradients(grads, deco.nodal_d)
    faces = np.array(local_faces(dim))
    area, normals = face_measure_normal(coords[:, faces].reshape(-1, dim, dim),
                                        np.repeat(coords.mean(axis=1), n, axis=0))
    area, normals = area.reshape(k, n), normals.reshape(k, n, dim)    # one per local face
    face_d = deco.nodal_d[:, faces]                                    # (k, faces, dim)
    pos = face_d > 0
    # each face's |d| with the lone vertex first: it shares its side with the fewest
    shared = (pos[..., :, None] == pos[..., None, :]).sum(axis=-1)
    order = np.argsort(shared, axis=-1, kind="stable")
    a = np.abs(np.take_along_axis(face_d, order, axis=-1))
    total = a[..., :1] + a[..., 1:]
    t, u = a[..., :1] / total, a[..., 1:] / total
    crossed = pos.any(axis=-1) & ~pos.all(axis=-1)
    scale = np.where(crossed, 2.0 * a[..., 0] * area / dim, 0.0)
    lone = scale * t.prod(axis=-1) * u.sum(axis=-1)
    if dim == 2:
        other = scale * u[..., 0] ** 2
    else:
        u1, u2 = u[..., 0], u[..., 1]
        other = scale * (u1 * u1 + u1 * u2 + u2 * u2 - u1 * u2 * (u1 + u2))
    lone_pos = np.take_along_axis(pos, order[..., :1], axis=-1)[..., 0]
    j_pos = np.where(lone_pos, lone, other)                            # (k, faces)
    j_neg = np.where(lone_pos, other, lone)
    w = materials.eps1 * j_pos + materials.eps2 * j_neg
    flux = np.matmul(grads[:, None], normals[..., None])[..., 0]       # grads @ n per face
    D = np.einsum("kf,kfi->ki", w, flux)
    denr = (materials.eps1 * j_pos * row_dot(g_pos[:, None], normals)
            + materials.eps2 * j_neg * row_dot(g_neg[:, None], normals))
    return D, denr.sum(axis=1)


def condense(B, Kenr, D, Denr):
    """Eliminate phi*: (recovery r (k, n), margin (k,)) of k blocks.

    The condensed block is K + B r^T with r = -(B - D) / (Kenr - Denr), and
    phi* = r . phi_element.  With D terms it is generally nonsymmetric.
    margin = |Kenr - Denr| / max(Kenr, |Denr|) is the relative precision left
    in the pivot: 1 without D terms, 0 where Kenr = Denr = 0, and unchanged
    when the permittivities or the lengths are scaled.  The caller refuses
    the blocks with margin <= CONDENSE_GUARD (or NaN), whose r holds no
    meaningful result.  Kenr > 0 on every non-degenerate cut (each side's
    hat gradient is a non-zero combination of at most d of the element's P1
    gradients), so a block is singular only where Denr cancels it.
    """
    scalar = Kenr - Denr
    pivot = np.maximum(Kenr, np.abs(Denr))
    margin = np.divide(np.abs(scalar), pivot, out=np.zeros_like(pivot), where=pivot > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = -(B - D) / scalar[:, None]
    return r, margin


# ---------------------------------------------------------------------------
# global assembly


@dataclass
class CutState:
    """The enriched elements, ids ascending: the one record of them.

    batch holds their rows of the cut decomposition, in the same order; its
    children and virtual nodes are what the VTK export draws, and
    batch.child_measure / batch.measure their child-volume fractions.
    """

    ids: np.ndarray              # (k,)
    recovery: np.ndarray         # (k, dim+1): phi* = recovery . phi_element
    grad_pos: np.ndarray         # (k, dim) hat gradient on the positive side
    grad_neg: np.ndarray         # (k, dim)
    batch: CutBatch

    def __len__(self) -> int:
        return self.ids.size


@dataclass
class AssembledSystem:
    """The condensed global system with its cut state.

    fallback_reasons holds one reason per cut element that is not enriched
    ("degenerate cut" or "singular condensation"); condense_margin is the
    smallest |Kenr - Denr| / max(Kenr, |Denr|) over the enriched elements
    (inf if none).
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    mesh: Mesh
    classification: Classification
    cut_data: CutState
    dirichlet_nodes: np.ndarray
    dirichlet_values: np.ndarray
    fallback_elements: list[int] = field(default_factory=list)
    fallback_reasons: list[str] = field(default_factory=list)
    condense_margin: float = math.inf


def assemble_global(mesh: Mesh, levelset, materials: MaterialPair, mode: str,
                    boundary: dict[str, BoundaryTag],
                    classification: Classification | None = None) -> AssembledSystem:
    """Assemble the condensed global system for one of the three modes.

    Every mode assembles the standard FEM matrix, whose block for an element
    is eps * measure * G G^T, with a cut element's eps * measure the sum of
    its children's, in table order.  efem-nod (enrichment without the
    displacement terms, D = Denr = 0) and efem (the full formulation) add
    the rank-one term B r^T of each enriched element.  A cut element whose
    cut is degenerate, or whose enrichment cannot be condensed, is not
    enriched: it keeps its standard block and is reported with its reason.

    A node is marked when a negative or cut element holds it, and the band
    is every element that holds a marked node.  The data starts as eps1 *
    mesh.unit_stiffness.  Every entry whose row or column node is marked is
    zeroed and summed again from the blocks of the band, formed one row
    block of band elements at a time and scattered into the mesh's fixed P1
    pattern by an unbuffered np.add.at, in element order, so such an entry
    sums its element contributions in element order.  Every other entry
    takes positive elements alone and reads eps1 * sum_e measure_e G G^T in
    place of sum_e (eps1 * measure_e) G G^T; the two are the same bits when
    eps1 is a power of two, and otherwise differ by rounding.  The pattern
    (a row-identity Dirichlet treatment included) is identical across modes
    and level sets.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    cl = classification if classification is not None else classify_elements(mesh, levelset)
    pattern = mesh.pattern
    measures, grads = mesh.measures, mesh.grads

    # Dirichlet set first: an unconstrained system is singular, fail early.
    dir_nodes, dir_values = _collect_dirichlet(mesh, boundary)
    if dir_nodes.size == 0:
        raise SingularSystemError("no Dirichlet boundary: the system is singular")

    # only band elements add to an entry with a marked row or column node
    elements = mesh.elements
    marked = np.zeros(mesh.n_nodes, dtype=bool)
    marked[elements[cl.element_sign <= 0]] = True
    held = marked[elements[:, 0]]                    # a column at a time: any(axis=1) is slower
    for column in elements.T[1:]:
        held |= marked[column]
    band = np.flatnonzero(held)

    eps1, eps2 = materials.eps1, materials.eps2
    weight = np.where(cl.element_sign[band] > 0, eps1, eps2) * measures[band]  # eps * measure
    cut = cl.cut_elements
    deco = split_simplex(mesh.nodes[elements[cut]], cl.d[elements[cut]])
    weight[np.searchsorted(band, cut)] = sum(np.where(s > 0, eps1, eps2) * m
                                             for m, s in zip(deco.child_measure.T, deco.child_sign.T))
    reasons = np.full(cut.size, "", dtype=object)
    reasons[deco.degenerate] = "degenerate cut"

    # positions in cut of the elements to enrich: none in standard mode
    live = np.flatnonzero(~deco.degenerate & (mode != "standard"))
    kept, g = deco.take(live), grads[cut[live]]
    B, kenr = element_matrices(g, materials, kept)
    D, denr = element_displacement_terms(g, materials, kept) if mode == "efem" else (0.0, 0.0)
    recovery, margins = condense(B, kenr, D, denr)
    ok = margins > CONDENSE_GUARD                    # refuses NaN too
    reasons[live[~ok]] = "singular condensation"
    good = live[ok]
    ids = cut[good]
    B, recovery = B[ok], recovery[ok]

    def marked_slots(part):
        """Which local entries of the band elements band[part] have a marked
        row or column node, and their slots."""
        m = marked[elements[band[part]]]
        keep = m[:, :, None] | m[:, None, :]
        return keep, pattern.slots[band[part]][keep]

    # every marked entry is zeroed before any is summed again, and then sums
    # its band elements in element order; add.at, not bincount: added block
    # by block, per-block bincount sums would reach each entry in another
    # order than element order
    data = eps1 * mesh.unit_stiffness
    for part in row_blocks(band.size):
        data[marked_slots(part)[1]] = 0.0
    in_band = np.searchsorted(band, ids)
    for part in row_blocks(band.size):
        blocks = stiffness_blocks(grads[band[part]], weight[part])
        i, j = np.searchsorted(in_band, (part.start, part.stop))
        blocks[in_band[i:j] - part.start] += B[i:j, :, None] * recovery[i:j, None, :]
        keep, slots = marked_slots(part)
        np.add.at(data, slots, blocks[keep])
    rhs = np.zeros(mesh.n_nodes)
    _apply_dirichlet(pattern, data, rhs, dir_nodes, dir_values)
    A = sp.csr_matrix((data, pattern.indices.copy(), pattern.indptr.copy()),
                      shape=(mesh.n_nodes, mesh.n_nodes))

    fell = reasons != ""
    if fell.any():
        n_degenerate = int(deco.degenerate.sum())
        log.warning("%d of %d cut elements not enriched: %d degenerate cuts, "
                    "%d singular condensations", fell.sum(), cut.size, n_degenerate,
                    fell.sum() - n_degenerate)
    batch = deco.take(good)
    g_pos, g_neg = hat_gradients(grads[ids], batch.nodal_d)
    state = CutState(ids, recovery, g_pos, g_neg, batch)
    margin = float(margins[ok].min()) if ids.size else math.inf
    return AssembledSystem(A, rhs, mesh, cl, state, dir_nodes, dir_values,
                           cut[fell].tolist(), reasons[fell].tolist(), margin)


def _collect_dirichlet(mesh: Mesh, boundary: dict[str, BoundaryTag]):
    """Dirichlet nodes and values; ValueError if two tags give one node different values.

    Each tag's (node, tag) pairs are evaluated in one call of its values_at.
    Every error names the node and tags that a walk over the boundary faces
    meets first: a tag with no assignment, a non-finite value, or a value
    that differs from the first one the walk gave the node.
    """
    nodes, tags = mesh.boundary_node_tags
    values = np.zeros(nodes.size)
    is_dir = np.zeros(nodes.size, dtype=bool)
    missing = []
    names, first, which = np.unique(tags, return_index=True, return_inverse=True)
    for k in np.argsort(first):                  # the tags in walk order
        sel = np.flatnonzero(which == k)
        name = str(names[k])
        tag = boundary.get(name)
        if tag is None:
            missing.append(int(sel[0]))
        elif tag.kind == "dirichlet":
            values[sel] = tag.values_at(mesh.nodes[nodes[sel]])
            is_dir[sel] = True

    # walk positions of the Dirichlet pairs; the first pair of each node sets
    # its value
    pos = np.flatnonzero(is_dir)
    dir_nodes, first, inverse = np.unique(nodes[pos], return_index=True, return_inverse=True)
    v = values[pos]
    bad = pos[~np.isfinite(v) | (v != v[first][inverse])]
    fail = min(missing + bad[:1].tolist(), default=None)
    if fail is not None:
        node, name, value = int(nodes[fail]), str(tags[fail]), float(values[fail])
        if name not in boundary:
            raise KeyError(f"mesh tag {name!r} has no boundary assignment")
        if not math.isfinite(value):
            raise ValueError(f"node {node} has a non-finite Dirichlet value {value!r} "
                             f"from tag {name!r}")
        k = first[inverse[np.searchsorted(pos, fail)]]
        raise ValueError(
            f"node {node} has conflicting Dirichlet values: {float(v[k])!r} from tag "
            f"{str(tags[pos[k]])!r} and {value!r} from tag {name!r}")
    return dir_nodes, v[first]


def _apply_dirichlet(pattern, data: np.ndarray, rhs: np.ndarray, nodes: np.ndarray,
                     values: np.ndarray):
    """Row-identity plus column elimination on the CSR data of the pattern.

    Off-diagonal entries are zeroed in place (kept as structural entries) so
    the matrix graph stays identical across modes and level sets.  Only the
    Dirichlet rows' slots and their mirrors (pattern.mirror), the slots of
    the Dirichlet columns, are read or written.  Row j of rhs subtracts its
    a_ji v_i in CSR order, ascending i, because nodes ascend (as
    _collect_dirichlet returns them) and each row holds column i once; a
    Dirichlet row's rhs is set last.
    """
    indptr = pattern.indptr
    # the Dirichlet rows' CSR ranges, and the row and column of each slot
    start = indptr[nodes]
    count = indptr[nodes + 1] - start
    row = np.repeat(nodes, count)
    at = np.arange(row.size) + np.repeat(start - (np.cumsum(count) - count), count)
    col = pattern.indices[at]
    column = pattern.mirror[at]                      # slots of (col, row): the Dirichlet columns

    np.subtract.at(rhs, col, data[column] * np.repeat(values, count))
    data[column] = 0.0
    data[at] = 0.0
    data[at[col == row]] = 1.0
    rhs[nodes] = values
