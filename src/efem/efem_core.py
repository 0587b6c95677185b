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
element (static condensation), so the global matrix keeps the standard FEM
sparsity pattern in every mode.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from efem.mesh import BoundaryTag, Mesh, face_measure_normal, local_faces, row_dot
from efem.interface import (
    Classification,
    CutDecomposition,
    DegenerateCutError,
    SNAP_TOL,
    classify_elements,
    cut_exterior_faces,
    split_simplex,
)

log = logging.getLogger("efem")

MODES = ("standard", "efem-nod", "efem")

# 3-point rule on the unit triangle, exact through quadratics; used for the
# face integrals of (linear Nbar) x (constant flux) on sub-triangles.
_TRI_PTS = np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]])


class SingularEnrichmentError(Exception):
    """Kenr - Denr vanished; the enrichment cannot be condensed."""


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

    @classmethod
    def from_ratio(cls, q: float) -> "MaterialPair":
        return cls(eps1=float(q), eps2=1.0)

    def for_sign(self, sign: int) -> float:
        return self.eps1 if sign > 0 else self.eps2


@dataclass
class ElementSystem:
    """Uncondensed blocks of one element; enrichment parts are zero if uncut."""

    K: np.ndarray                # (n, n)
    B: np.ndarray                # (n,)
    Kenr: float
    D: np.ndarray                # (n,)
    Denr: float
    condensed: np.ndarray | None = None
    recovery: np.ndarray | None = None


# ---------------------------------------------------------------------------
# enrichment basis


def hat_gradients(grads: np.ndarray, nodal_d: np.ndarray):
    """Constant enrichment gradient on the positive and negative side.

    grad Nbar = sum_i grad N_i |d_i| - s * sum_i grad N_i d_i  with s the
    side sign.  Returns (grad_pos, grad_neg).
    """
    g_abs = grads.T @ np.abs(nodal_d)
    g_lin = grads.T @ nodal_d
    return g_abs - g_lin, g_abs + g_lin


def hat_value(shape_values: np.ndarray, nodal_d: np.ndarray):
    """Nbar from P1 shape function values.

    shape_values (k, d+1) with nodal_d (k, d+1) or (d+1,) give (k,); one
    point (d+1,) gives a float.
    """
    lam = np.asarray(shape_values, dtype=float)
    d = np.asarray(nodal_d, dtype=float)
    if lam.ndim == 1:
        return float(hat_value(lam[None], d)[0])
    return row_dot(lam, np.abs(d)) - np.abs(row_dot(lam, d))


def hat_eval(coords: np.ndarray, nodal_d: np.ndarray, x) -> float:
    """Pointwise enrichment value from vertex coordinates and distances."""
    lam = barycentric(coords, np.asarray(x, dtype=float))
    return hat_value(lam, nodal_d)


def barycentric(coords: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P1 shape values of points in simplices, one linear solve per point.

    coords (k, d+1, d) and x (k, d) give (k, d+1); one simplex (d+1, d) and
    one point (d,) give (d+1,).
    """
    coords = np.asarray(coords, dtype=float)
    x = np.asarray(x, dtype=float)
    if coords.ndim == 2:
        return barycentric(coords[None], x[None])[0]
    k, n, d = coords.shape
    A = np.ones((k, n, n))
    A[:, :d, :] = coords.transpose(0, 2, 1)
    b = np.ones((k, n, 1))
    b[:, :d, 0] = x
    return np.linalg.solve(A, b)[..., 0]


# ---------------------------------------------------------------------------
# element integrals


def element_matrices(coords, measure, grads, materials: MaterialPair,
                     deco: CutDecomposition | None = None, sign: int = 1) -> ElementSystem:
    """Volume blocks K, B, Kenr of one element.

    All integrands are piecewise constant (P1 plus hat), so one centroid
    value per child integrates exactly.  Uncut elements take the single
    permittivity of their side.
    """
    n = grads.shape[0]
    if deco is None:
        K = materials.for_sign(sign) * measure * (grads @ grads.T)
        return ElementSystem(K, np.zeros(n), 0.0, np.zeros(n), 0.0)

    g_pos, g_neg = hat_gradients(grads, deco.nodal_d)
    eps_meas = 0.0
    b_accum = np.zeros(grads.shape[1])
    kenr = 0.0
    for child in deco.children:
        eps = materials.for_sign(child.sign)
        gbar = g_pos if child.sign > 0 else g_neg
        eps_meas += eps * child.measure
        b_accum += eps * child.measure * gbar
        kenr += eps * child.measure * float(gbar @ gbar)
    K = eps_meas * (grads @ grads.T)
    B = grads @ b_accum
    return ElementSystem(K, B, kenr, np.zeros(n), 0.0)


def element_displacement_terms(coords, grads, materials: MaterialPair,
                               deco: CutDecomposition):
    """Exterior-face blocks D_i = int Nbar n.(eps grad N_i) and Denr.

    Integrates over every exterior face where Nbar does not vanish (it is
    identically zero on faces whose nodes share one sign).  Per
    sign-homogeneous sub-facet the integrand is linear Nbar times a constant
    flux: midpoint rule in 2D, 3-point rule on sub-triangles in 3D, both
    exact.  eps and grad Nbar come from the child side owning the sub-facet;
    n is the element outward normal of the crossed face.
    """
    dim = deco.dim
    n = grads.shape[0]
    g_pos, g_neg = hat_gradients(grads, deco.nodal_d)
    D = np.zeros(n)
    Denr = 0.0
    crossed = [fc for fc in cut_exterior_faces(deco) if fc.crossed]
    if not crossed:
        return D, Denr
    faces = np.array(local_faces(dim))[[fc.local_face for fc in crossed]]
    _, normals = face_measure_normal(coords[faces], coords.mean(axis=0))
    # (outward normal, piece) in face order
    pieces = [(normal, piece) for fc, normal in zip(crossed, normals) for piece in fc.pieces]
    # Nbar at every quadrature point of every piece in one batched solve
    if dim == 2:
        pts = np.array([0.5 * (p.vertices[0] + p.vertices[1]) for _, p in pieces])
    else:
        pts = np.concatenate([_TRI_PTS @ p.vertices for _, p in pieces])
    nbar = hat_value(barycentric(np.broadcast_to(coords, (len(pts),) + coords.shape), pts),
                     deco.nodal_d)
    measure = np.array([p.measure for _, p in pieces])
    if dim == 2:
        nbar_int = nbar * measure
    else:
        nbar_int = measure / 3.0 * ((nbar[0::3] + nbar[1::3]) + nbar[2::3])

    for (normal, piece), w in zip(pieces, nbar_int.tolist()):
        eps = materials.for_sign(piece.sign)
        gbar = g_pos if piece.sign > 0 else g_neg
        flux = eps * (grads @ normal)            # (n,) one value per shape fn
        D += w * flux
        Denr += w * eps * float(gbar @ normal)
    return D, Denr


def condense(system: ElementSystem, guard: float = 1e-14) -> ElementSystem:
    """Eliminate phi*: condensed = K - B (Kenr - Denr)^-1 (B - D)^T.

    The recovery vector r gives phi* = r . phi_element.  With D terms the
    condensed block is generally nonsymmetric.  A block with no enrichment
    at all (uncut element) passes through unchanged with r = 0.
    """
    if (system.Kenr == 0.0 and system.Denr == 0.0
            and not system.B.any() and not system.D.any()):
        system.condensed = system.K.copy()
        system.recovery = np.zeros_like(system.B)
        return system
    scalar = system.Kenr - system.Denr
    knorm = float(np.linalg.norm(system.K))
    if abs(scalar) <= guard * max(knorm, 1.0):
        raise SingularEnrichmentError(
            f"enrichment scalar {scalar:.3e} is singular against |K| = {knorm:.3e}"
        )
    r = -(system.B - system.D) / scalar
    system.condensed = system.K + np.outer(system.B, r)
    system.recovery = r
    return system


# ---------------------------------------------------------------------------
# global assembly


@dataclass
class CutElementData:
    """Per-element enrichment state kept for recovery and evaluation."""

    deco: CutDecomposition
    recovery: np.ndarray | None
    grad_pos: np.ndarray
    grad_neg: np.ndarray


@dataclass
class AssembledSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    mode: str
    mesh: Mesh
    materials: MaterialPair
    classification: Classification
    cut_data: dict[int, CutElementData]
    dirichlet_nodes: np.ndarray
    dirichlet_values: np.ndarray
    fallback_elements: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.rhs.shape[0]


def assemble_global(mesh: Mesh, levelset, materials: MaterialPair, mode: str,
                    boundary: dict[str, BoundaryTag],
                    snap_tol: float = SNAP_TOL,
                    classification: Classification | None = None) -> AssembledSystem:
    """Assemble the condensed global system for one of the three modes.

    standard: no enrichment; cut elements get the child-volume-weighted
    arithmetic mean permittivity.  efem-nod: enrichment without the
    displacement terms (D = Denr = 0).  efem: the full formulation.  The
    sparsity pattern (a row-identity Dirichlet treatment included) is
    identical across modes and equals the node adjacency graph of the mesh.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    nn = mesh.n_nodes
    nv = mesh.dim + 1
    cl = classification if classification is not None else classify_elements(mesh, levelset, snap_tol)
    measures, grads = mesh.measures, mesh.grads

    # Dirichlet set first: an unconstrained system is singular, fail early.
    dir_nodes, dir_values = _collect_dirichlet(mesh, boundary)
    if dir_nodes.size == 0:
        raise SingularSystemError("no Dirichlet boundary: the system is singular")

    uncut = ~cl.is_cut
    eps_uncut = np.where(cl.element_sign > 0, materials.eps1, materials.eps2)
    blocks_uncut = np.einsum("e,eid,ejd->eij", eps_uncut[uncut] * measures[uncut],
                             grads[uncut], grads[uncut])

    conn = mesh.elements
    rows_u = np.repeat(conn[uncut], nv, axis=1).ravel()
    cols_u = np.tile(conn[uncut], (1, nv)).ravel()
    vals_u = blocks_uncut.ravel()

    rows_c, cols_c, vals_c = [], [], []
    cut_data: dict[int, CutElementData] = {}
    fallback: list[int] = []
    for e in cl.cut_elements:
        coords = mesh.element_coords(int(e))
        block, data, fell_back = _cut_element_block(
            int(e), coords, measures[e], grads[e], cl.element_d[e], materials, mode)
        if data is not None:
            cut_data[int(e)] = data
        if fell_back:
            fallback.append(int(e))
        rows_c.append(np.repeat(conn[e], nv))
        cols_c.append(np.tile(conn[e], nv))
        vals_c.append(block.ravel())

    rows = np.concatenate([rows_u] + rows_c) if rows_c else rows_u
    cols = np.concatenate([cols_u] + cols_c) if cols_c else cols_u
    vals = np.concatenate([vals_u] + vals_c) if vals_c else vals_u

    A = sp.coo_matrix((vals, (rows, cols)), shape=(nn, nn)).tocsr()
    A.sort_indices()
    rhs = np.zeros(nn)
    _apply_dirichlet(A, rhs, dir_nodes, dir_values)

    return AssembledSystem(A, rhs, mode, mesh, materials, cl, cut_data,
                           dir_nodes, dir_values, fallback)


def _cut_element_block(e, coords, measure, egrads, nodal_d, materials, mode):
    """Block of one cut element, its cut state and whether it fell back.

    Standard mode averages the permittivity and keeps no cut state; only a
    degenerate cut or a singular condensation counts as a fallback.
    """
    try:
        deco = split_simplex(coords, nodal_d)
    except DegenerateCutError as err:
        log.warning("element %d: degenerate cut (%s); treated as uncut", e, err)
        return _majority_block(None, coords, measure, egrads, nodal_d, materials), None, True

    if mode == "standard":
        mean_eps = sum(materials.for_sign(c.sign) * c.measure for c in deco.children) / measure
        return mean_eps * measure * (egrads @ egrads.T), None, False

    system = element_matrices(coords, measure, egrads, materials, deco)
    if mode == "efem":
        system.D, system.Denr = element_displacement_terms(coords, egrads, materials, deco)
    try:
        condense(system)
    except SingularEnrichmentError as err:
        log.warning("element %d: %s; treated as uncut", e, err)
        return _majority_block(deco, coords, measure, egrads, nodal_d, materials), None, True

    g_pos, g_neg = hat_gradients(egrads, deco.nodal_d)
    return system.condensed, CutElementData(deco, system.recovery, g_pos, g_neg), False


def _majority_block(deco, coords, measure, egrads, nodal_d, materials):
    """Uncut fallback: single permittivity of the larger-volume side."""
    if deco is not None:
        sign = 1 if deco.measure_by_sign(1) >= deco.measure_by_sign(-1) else -1
    else:
        sign = 1 if float(np.sum(nodal_d)) >= 0.0 else -1
    return materials.for_sign(sign) * measure * (egrads @ egrads.T)


def _collect_dirichlet(mesh: Mesh, boundary: dict[str, BoundaryTag]):
    """Dirichlet nodes and values; ValueError if two tags give one node different values."""
    seen: dict[int, tuple[float, str]] = {}
    for e, lf, tag_name in mesh.boundary_faces:
        tag = boundary.get(tag_name)
        if tag is None:
            raise KeyError(f"mesh tag {tag_name!r} has no boundary assignment")
        if tag.kind != "dirichlet":
            continue
        for node in mesh.face_nodes(e, lf):
            node = int(node)
            value = tag.value_at(mesh.nodes[node])
            if not math.isfinite(value):
                raise ValueError(f"node {node} has a non-finite Dirichlet value {value!r} "
                                 f"from tag {tag_name!r}")
            prev, prev_tag = seen.setdefault(node, (value, tag_name))
            if value != prev:
                raise ValueError(
                    f"node {node} has conflicting Dirichlet values: {prev!r} from tag "
                    f"{prev_tag!r} and {value!r} from tag {tag_name!r}")
    if not seen:
        return np.empty(0, dtype=np.int64), np.empty(0)
    nodes = np.array(sorted(seen), dtype=np.int64)
    values = np.array([seen[int(i)][0] for i in nodes])
    return nodes, values


def _apply_dirichlet(A: sp.csr_matrix, rhs: np.ndarray, nodes: np.ndarray, values: np.ndarray):
    """Row-identity plus column elimination, preserving the sparsity pattern.

    Off-diagonal entries are zeroed in place (kept as structural entries) so
    the matrix graph stays identical across modes and level sets.
    """
    n = A.shape[0]
    isdir = np.zeros(n, dtype=bool)
    isdir[nodes] = True
    val_of = np.zeros(n)
    val_of[nodes] = values

    indptr, indices, data = A.indptr, A.indices, A.data
    row_of = np.repeat(np.arange(n), np.diff(indptr))

    # move Dirichlet columns of free rows to the rhs
    m = isdir[indices] & ~isdir[row_of]
    np.subtract.at(rhs, row_of[m], data[m] * val_of[indices[m]])
    data[m] = 0.0

    # identity rows for constrained nodes
    rdir = isdir[row_of]
    data[rdir] = 0.0
    diag = rdir & (indices == row_of)
    data[diag] = 1.0
    rhs[nodes] = values
