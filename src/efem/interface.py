"""Level-set interfaces and cut-element decomposition.

The material interface is the zero set of a signed distance function d(x);
d > 0 is material 1, d < 0 is material 2.  Inside an element the interface is
replaced by the zero set of the linear interpolant of the nodal distances, so
a cut simplex decomposes exactly into sign-homogeneous child simplices whose
measures sum to the parent measure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import combinations

import numpy as np

from efem.mesh import Mesh, row_dot, signed_measures

SNAP_TOL = 1e-6


# ---------------------------------------------------------------------------
# level sets


def _finite(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {value}")
    return arr


class PlaneLevelSet:
    """Signed distance to a plane: d(x) = (x - point) . normal."""

    kind = "plane"

    def __init__(self, point, normal):
        self.point = _finite("plane point", point)
        n = _finite("plane normal", normal)
        if self.point.size != n.size:
            raise ValueError(f"plane point has {self.point.size} coordinates and normal "
                             f"{n.size}; they must have the same length")
        with np.errstate(over="ignore"):
            sq = n.dot(n)
        if not np.finfo(float).tiny <= sq < np.inf:
            # the squares overflow, or fall below the normal floats and lose
            # digits: divide by the largest component first
            scale = np.abs(n).max()
            if scale == 0.0:
                raise ValueError(f"plane normal must be nonzero, got {normal}")
            n = n / scale
            sq = n.dot(n)
        self.normal = n / np.sqrt(sq)

    def evaluate(self, points) -> np.ndarray:
        """Distances (k,) at the points (k, dim)."""
        return (np.asarray(points, dtype=float) - self.point) @ self.normal


class CircleLevelSet:
    """Signed distance to a circle: d(x) = |x - center| - radius (negative inside)."""

    kind = "circle"

    def __init__(self, center, radius):
        self.center = _finite(f"{self.kind} center", center)
        self.radius = float(_finite(f"{self.kind} radius", radius))
        if self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")

    def evaluate(self, points) -> np.ndarray:
        """Distances (k,) at the points (k, dim)."""
        return np.linalg.norm(np.asarray(points, dtype=float) - self.center, axis=1) - self.radius


class SphereLevelSet(CircleLevelSet):
    """Signed distance to a sphere; same formula as the circle, in 3D."""

    kind = "sphere"


class NodalLevelSet:
    """Signed distances given directly per mesh node.

    Only nodal queries are meaningful; evaluating at an arbitrary point is an
    error because no off-node distance field exists.
    """

    kind = "nodal"

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        bad = np.nonzero(~np.isfinite(self.values))[0]
        if bad.size:
            raise ValueError(f"nodal level set value at node {int(bad[0])} is not finite "
                             f"({self.values[bad[0]]}); {bad.size} non-finite in all")

    def evaluate(self, points) -> np.ndarray:
        raise ValueError("nodal level set has no off-node distance; use nodal values")


def nodal_distances(levelset, mesh: Mesh) -> np.ndarray:
    """Signed distance at every mesh node; ValueError names both dimensions when
    a plane's or a ball's coordinates do not match the mesh."""
    if isinstance(levelset, NodalLevelSet):
        if levelset.values.shape[0] != mesh.n_nodes:
            raise ValueError(
                f"nodal level set has {levelset.values.shape[0]} values "
                f"but the mesh has {mesh.n_nodes} nodes"
            )
        return levelset.values.copy()
    for name in ("point", "normal", "center"):
        v = getattr(levelset, name, None)
        if v is not None and v.shape != (mesh.dim,):
            raise ValueError(f"{levelset.kind} level set {name} has {v.size} coordinates, "
                             f"but the mesh is {mesh.dim}D")
    return levelset.evaluate(mesh.nodes)


# ---------------------------------------------------------------------------
# classification


@dataclass
class Classification:
    """Snapped distance of every node and cut status of every element.

    An element's distances are d[mesh.elements[e]], so neighbours agree on
    where the interface crosses their shared face.  An uncut element may
    hold a small node of the other sign; its side is element_sign.
    """

    d: np.ndarray                # snapped, (n_nodes,)
    element_sign: np.ndarray     # +1/-1 for uncut elements, 0 for cut

    @cached_property
    def is_cut(self) -> np.ndarray:
        """Whether each element is cut, bool (n_elements,)."""
        return self.element_sign == 0

    @property
    def cut_elements(self) -> np.ndarray:
        return np.nonzero(self.is_cut)[0]


def classify_elements(mesh: Mesh, levelset) -> Classification:
    """Snap the distance at every node, then sign-classify every element.

    A node's band is SNAP_TOL times the longest edge of its elements; a node
    inside it is small and moves out to it with its own sign (zeros go
    positive), so later sign tests are strict.  An element whose clear (not
    small) nodes share a sign is uncut with it, so no sliver cut touches the
    interface only at nodes.  It is cut if they have both signs, or if it has
    none and its small nodes' own signs differ.
    """
    d = np.array(nodal_distances(levelset, mesh), dtype=float)
    h, conn = mesh.char_lengths, mesh.elements
    # node codes: 1 clear positive, 2 clear negative, 4 / 8 small positive / negative
    code = np.where(d > 0.0, 1, np.where(d < 0.0, 2, 0)).astype(np.uint8)
    near = np.abs(d) < SNAP_TOL * h.max()                # only these can be small
    if near.any():
        holders = near[conn].any(axis=1)
        band = np.zeros(mesh.n_nodes)
        np.maximum.at(band, conn[holders], h[holders, None])
        small = near & (np.abs(d) < SNAP_TOL * band)
        code[small] = np.where(d[small] < 0.0, 8, 4)
        d[small] = np.where(d[small] < 0.0, -SNAP_TOL, SNAP_TOL) * band[small]
    seen = code[conn[:, 0]]
    for i in range(1, mesh.dim + 1):
        seen |= code[conn[:, i]]
    return Classification(d, _SIGN_OF_SEEN.take(seen))


def _sign_of_seen() -> np.ndarray:
    """The element sign of each union of node codes (0..15): the clear nodes'
    sides decide, else the small nodes' own signs; a side of 3 is both."""
    seen = np.arange(16)
    sides = np.where(seen & 3, seen & 3, seen >> 2)      # 1 positive, 2 negative, 3 both
    return np.where(sides == 3, 0, np.where(sides == 1, 1, -1))


_SIGN_OF_SEEN = _sign_of_seen()


# ---------------------------------------------------------------------------
# cut tables
#
# A cut simplex takes one of three configurations, each a constant table in
# the manner of marching tetrahedra (Doi & Koide, IEICE Trans. 1991): the 2D
# lone node, the 3D 1-3 split and the 3D 2-2 split.  Roles order the
# vertices of an element: the vertex alone on its side first, then the rest
# ascending; for 2-2 the positive pair, then the negative pair, each
# ascending.  In a table, point p < nv is the vertex in role p and point
# nv + k is the virtual node on role edge k, placed from the edge's first
# role.  The children's signs are relative to the vertex in role 0.  Where a
# quad can split along either diagonal there is one table per diagonal.

_CONFIGS = {
    2: (
        # lone node; the quad X0 o1 o2 X1 splits along X0-o2, or along o1-X1
        (((0, 1), (0, 2)), ((3, 4, 0), (3, 1, 2), (3, 2, 4)), (1, -1, -1)),
        (((0, 1), (0, 2)), ((3, 4, 0), (3, 1, 4), (1, 2, 4)), (1, -1, -1)),
    ),
    3: (
        # 1-3: the lone vertex's tet, then the prism X0 X1 X2 | o1 o2 o3 in a
        # staircase split (its lateral quads are planar)
        (((0, 1), (0, 2), (0, 3)),
         ((0, 4, 5, 6), (4, 5, 6, 1), (5, 6, 1, 2), (6, 1, 2, 3)), (1, -1, -1, -1)),
        # 2-2: the interface quad X0 X1 X2 X3 (edges a1b1, a1b2, a2b2, a2b1)
        # splits along X0-X2, or along X1-X3
        (((0, 2), (0, 3), (1, 3), (1, 2)),
         ((0, 4, 5, 6), (0, 4, 6, 7), (0, 1, 7, 6), (2, 4, 5, 6), (2, 4, 6, 7), (2, 3, 5, 6)),
         (1, 1, 1, -1, -1, -1)),
        (((0, 2), (0, 3), (1, 3), (1, 2)),
         ((0, 4, 5, 7), (0, 5, 6, 7), (0, 1, 7, 6), (2, 4, 5, 7), (2, 5, 6, 7), (2, 3, 5, 6)),
         (1, 1, 1, -1, -1, -1)),
    ),
}
_LONE, _TWO_TWO_A, _TWO_TWO_B = 0, 1, 2       # 3D table indices
_DIAG_A, _DIAG_B = 0, 1                        # 2D table indices


class _Tables:
    """The configurations of one dimension as arrays, padded to the widest
    with copies of their first entry."""

    def __init__(self, configs):
        nx = max(len(c[0]) for c in configs)
        nc = max(len(c[1]) for c in configs)
        self.virtual = np.array([c[0] + c[0][:1] * (nx - len(c[0])) for c in configs])
        self.children = np.array([c[1] + c[1][:1] * (nc - len(c[1])) for c in configs])
        self.signs = np.array([c[2] + c[2][:1] * (nc - len(c[2])) for c in configs])
        self.n_virtual = np.array([len(c[0]) for c in configs])
        self.n_children = np.array([len(c[1]) for c in configs])


_TABLES = {dim: _Tables(configs) for dim, configs in _CONFIGS.items()}


@dataclass
class CutBatch:
    """Exact sign-homogeneous decomposition of k cut simplices, stacked.

    points holds each element's parent vertices in local order, then its
    virtual nodes, which are the vertices of its interface facet, in the
    order of the configuration's table; children index it.
    Entries past n_virtual / n_children pad the widest configuration;
    padding children have zero measure.  A degenerate element has a child
    below 1e-14 of its measure and is decomposed all the same.
    """

    coords: np.ndarray           # (k, nv, dim)
    nodal_d: np.ndarray          # (k, nv) snapped distances
    measure: np.ndarray          # (k,) parent measures
    points: np.ndarray           # (k, nv + nx, dim)
    n_virtual: np.ndarray        # (k,)
    children: np.ndarray         # (k, C, nv) point indices, positively oriented
    child_sign: np.ndarray       # (k, C)
    child_measure: np.ndarray    # (k, C)
    n_children: np.ndarray       # (k,)
    degenerate: np.ndarray       # (k,) bool

    def take(self, rows) -> "CutBatch":
        """The elements at rows, as a batch of their own."""
        return CutBatch(*(getattr(self, f.name)[rows] for f in fields(self)))


def _exceeds(x, y):
    """x > y by more than a relative 1e-12, so that ties pick the A diagonal.

    Two diagonals can tie exactly on symmetric cuts; scaling the distances
    then moves the rounding of the virtual nodes, and a plain comparison
    would flip the choice.
    """
    return x - y > 1e-12 * np.maximum(np.abs(x), np.abs(y))


def split_simplex(coords, nodal_d):
    """Decompose cut simplices into sign-homogeneous children.

    coords (k, d+1, d) and nodal_d (k, d+1) give a :class:`CutBatch`.  2D
    produces 1 + 2 triangles; 3D produces 1 + 3 (one node isolated) or
    3 + 3 (two nodes per side) tetrahedra.  The children's measures sum
    exactly to the parent measure.  An element with a child below 1e-14 of
    the parent is flagged degenerate, so the caller can fall back to an
    uncut treatment.
    """
    coords = np.asarray(coords, dtype=float)
    d = np.array(nodal_d, dtype=float)
    if (d == 0.0).any() or not ((d > 0).any(axis=1) & (d < 0).any(axis=1)).all():
        raise ValueError("split_simplex needs snapped, strictly mixed-sign distances")
    k, nv, dim = coords.shape
    tables = _TABLES[dim]
    pos = d > 0
    n_pos = pos.sum(axis=1)
    lone_negative = n_pos == nv - 1
    roles = np.argsort(np.where(lone_negative[:, None], pos, ~pos), axis=1, kind="stable")
    two_two = n_pos == 2 if dim == 3 else np.zeros(k, dtype=bool)
    config = np.where(two_two, _TWO_TWO_A, _LONE)

    rows = np.arange(k)[:, None]
    edges = roles[rows[:, :, None], tables.virtual[config]]          # (k, nx, 2) local
    a, b = edges[..., 0], edges[..., 1]
    da, db = d[rows, a], d[rows, b]
    t = da / (da - db)
    ca = coords[rows, a]
    x = ca + t[..., None] * (coords[rows, b] - ca)
    points = np.concatenate([coords, x], axis=1)

    if dim == 2:
        # the shorter quad diagonal
        u = x[:, 0] - coords[rows[:, 0], roles[:, 2]]
        w = coords[rows[:, 0], roles[:, 1]] - x[:, 1]
        config = np.where(_exceeds(row_dot(u, u), row_dot(w, w)), _DIAG_B, _DIAG_A)
    children, verts, measures = _oriented(points, roles, tables.children[config])
    if two_two.any():
        # keep the diagonal whose worst child has the smaller longest-edge-
        # cubed to volume ratio
        i = np.flatnonzero(two_two)
        other = _oriented(points[i], roles[i], tables.children[np.full(i.size, _TWO_TWO_B)])
        V = np.concatenate([verts[i], other[1]], axis=1)
        m = np.concatenate([measures[i], other[2]], axis=1)
        sides = np.stack([V[:, :, p] - V[:, :, q] for p, q in combinations(range(4), 2)], axis=2)
        lmax = np.sqrt(row_dot(sides, sides)).max(axis=2)
        # Python's float power: numpy's rounds differently in the last bit
        cubed = np.array([v ** 3 for v in lmax.ravel().tolist()]).reshape(lmax.shape)
        aspect = cubed / np.maximum(m, 1e-300)
        use_b = _exceeds(aspect[:, :6].max(axis=1), aspect[:, 6:].max(axis=1))
        j = i[use_b]
        config[j] = _TWO_TWO_B
        children[j], measures[j] = other[0][use_b], other[2][use_b]

    n_children = tables.n_children[config]
    real = np.arange(measures.shape[1]) < n_children[:, None]
    measures = np.where(real, measures, 0.0)
    parent = np.abs(signed_measures(coords))
    lone_sign = np.where(pos[rows[:, 0], roles[:, 0]], 1, -1)
    return CutBatch(
        coords, d, parent, points, tables.n_virtual[config],
        children, tables.signs[config] * lone_sign[:, None], measures, n_children,
        (real & (measures < 1e-14 * parent[:, None])).any(axis=1))


def _oriented(points, roles, table):
    """The children of a table as point indices, each reordered to positive
    orientation, with their vertices and their measures.

    All children are oriented in one stacked call and measured in a second
    one, so a child's measure comes from its final vertex order.
    """
    k, c, nv = table.shape
    dim = points.shape[2]
    rows = np.arange(k)[:, None, None]
    refs = np.where(table < nv, roles[rows, np.minimum(table, nv - 1)], table)
    verts = points[rows, refs]
    flip = signed_measures(verts.reshape(-1, nv, dim)).reshape(k, c) < 0.0
    swap = [0, 2, 1] + list(range(3, nv))
    refs[flip] = refs[flip][:, swap]
    verts[flip] = verts[flip][:, swap]
    measures = np.abs(signed_measures(verts.reshape(-1, nv, dim))).reshape(k, c)
    return refs, verts, measures
