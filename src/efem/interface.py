"""Level-set interfaces and cut-element decomposition.

The material interface is the zero set of a signed distance function d(x);
d > 0 is material 1, d < 0 is material 2.  Inside an element the interface is
replaced by the zero set of the linear interpolant of the nodal distances, so
a cut simplex decomposes exactly into sign-homogeneous child simplices whose
measures sum to the parent measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from efem.mesh import Mesh, char_lengths, face_measure_normal, local_faces, row_dot, signed_measures

SNAP_TOL = 1e-6


class DegenerateCutError(Exception):
    """A cut produced a child too small to integrate reliably."""


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
        norm = np.linalg.norm(n)
        if norm == 0.0:
            raise ValueError("plane normal must be nonzero")
        self.normal = n / norm

    def evaluate(self, x) -> float:
        return float(np.dot(np.asarray(x, dtype=float) - self.point, self.normal))

    def evaluate_many(self, points) -> np.ndarray:
        return (np.asarray(points, dtype=float) - self.point) @ self.normal


class CircleLevelSet:
    """Signed distance to a circle: d(x) = |x - center| - radius (negative inside)."""

    kind = "circle"

    def __init__(self, center, radius):
        self.center = _finite(f"{self.kind} center", center)
        self.radius = float(_finite(f"{self.kind} radius", radius))
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")

    def evaluate(self, x) -> float:
        return float(np.linalg.norm(np.asarray(x, dtype=float) - self.center) - self.radius)

    def evaluate_many(self, points) -> np.ndarray:
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

    def evaluate(self, x) -> float:
        raise ValueError("nodal level set has no off-node distance; use nodal values")

    def evaluate_many(self, points) -> np.ndarray:
        raise ValueError("nodal level set has no off-node distance; use nodal values")


def nodal_distances(levelset, mesh: Mesh) -> np.ndarray:
    """Signed distance at every mesh node."""
    if isinstance(levelset, NodalLevelSet):
        if levelset.values.shape[0] != mesh.n_nodes:
            raise ValueError(
                f"nodal level set has {levelset.values.shape[0]} values "
                f"but the mesh has {mesh.n_nodes} nodes"
            )
        return levelset.values.copy()
    return levelset.evaluate_many(mesh.nodes)


# ---------------------------------------------------------------------------
# classification


@dataclass
class Classification:
    """Cut status of every element.

    element_d holds the per-element snapped nodal distances; the same mesh
    node may snap differently in elements of different size since the snap
    threshold is relative to the element's longest edge.
    """

    nodal_d: np.ndarray          # raw distances, (n_nodes,)
    element_d: np.ndarray        # snapped, (n_elements, dim+1)
    is_cut: np.ndarray           # bool, (n_elements,)
    element_sign: np.ndarray     # +1/-1 for uncut elements, 0 for cut

    @property
    def cut_elements(self) -> np.ndarray:
        return np.nonzero(self.is_cut)[0]


def snap_distances(d: np.ndarray, h: float | np.ndarray, snap_tol: float = SNAP_TOL) -> np.ndarray:
    """Push near-zero distances away from the interface, preserving sign.

    Exact zeros are assigned to the positive side.  Guarantees |d| >= tol so
    every later sign test is strict.
    """
    out = np.array(d, dtype=float)
    t = np.broadcast_to(np.asarray(snap_tol * h, dtype=float), out.shape)
    small = np.abs(out) < t
    sign = np.where(out < 0.0, -1.0, 1.0)       # d == 0 goes positive
    out[small] = (sign * t)[small]
    return out


def classify_elements(mesh: Mesh, levelset, snap_tol: float = SNAP_TOL) -> Classification:
    """Evaluate, snap and sign-classify every element of the mesh.

    Near-interface nodes join the sign shared by the element's remaining
    nodes when there is one, so an element touching the interface only at
    nodes comes out uncut instead of producing a sliver cut.  In elements
    that are clearly mixed, snapping preserves each node's own sign (exact
    zeros go positive, as in :func:`snap_distances`).
    """
    raw = nodal_distances(levelset, mesh)
    gathered = raw[mesh.elements].astype(float)         # (M, d+1)
    t = np.broadcast_to(snap_tol * char_lengths(mesh)[:, None], gathered.shape)
    small = np.abs(gathered) < t
    clear_pos = ((gathered > 0.0) & ~small).any(axis=1)
    clear_neg = ((gathered < 0.0) & ~small).any(axis=1)
    join = np.where(clear_pos & ~clear_neg, 1.0,
                    np.where(clear_neg & ~clear_pos, -1.0, 0.0))[:, None]
    join = np.broadcast_to(join, gathered.shape)
    sign = np.where(gathered < 0.0, -1.0, 1.0)
    sign = np.where(small & (join != 0.0), join, sign)
    d = np.where(small, sign * t, gathered)
    pos = (d > 0.0).any(axis=1)
    neg = (d < 0.0).any(axis=1)
    is_cut = pos & neg
    esign = np.where(pos, 1, -1)
    esign[is_cut] = 0
    return Classification(raw, d, is_cut, esign)


# ---------------------------------------------------------------------------
# decomposition types


@dataclass
class Child:
    """Sign-homogeneous child simplex of a cut element.

    refs identifies each vertex: ("n", local_node) for a parent vertex or
    ("x", (a, b)) for the virtual node on the cut parent edge a < b.
    """

    vertices: np.ndarray         # (dim+1, dim)
    sign: int
    measure: float
    refs: tuple = ()


@dataclass
class FacePiece:
    vertices: np.ndarray         # (2, dim) segment or (3, dim) triangle
    sign: int
    measure: float


@dataclass
class FaceCut:
    local_face: int
    pieces: list[FacePiece]

    @property
    def crossed(self) -> bool:
        return len(self.pieces) > 1


@dataclass
class CutDecomposition:
    """Exact sign-homogeneous decomposition of one cut simplex."""

    coords: np.ndarray           # parent vertices, (dim+1, dim)
    nodal_d: np.ndarray          # snapped distances, (dim+1,)
    children: list[Child]
    interface_facet: list[np.ndarray] = field(default_factory=list)
    virtual_nodes: dict = field(default_factory=dict)   # (a, b) -> coords

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def measure_by_sign(self, sign: int) -> float:
        return sum(c.measure for c in self.children if c.sign == sign)


def _virtual_node(coords, d, a, b):
    """Interface point on the edge between local nodes a and b."""
    t = d[a] / (d[a] - d[b])
    return coords[a] + t * (coords[b] - coords[a])


def split_simplex(coords, nodal_d) -> CutDecomposition:
    """Decompose a cut simplex into sign-homogeneous children.

    2D produces 1 + 2 triangles; 3D produces 1 + 3 (one node isolated) or
    3 + 3 (two nodes per side) tetrahedra.  Child measures sum exactly to the
    parent measure; a child below 1e-14 of the parent raises
    DegenerateCutError and the caller falls back to an uncut treatment.
    """
    coords = np.asarray(coords, dtype=float)
    d = np.asarray(nodal_d, dtype=float)
    if (d == 0.0).any() or not ((d > 0).any() and (d < 0).any()):
        raise ValueError("split_simplex needs snapped, strictly mixed-sign distances")
    dim = coords.shape[1]
    if dim == 2:
        deco = _split_triangle(coords, d)
    else:
        deco = _split_tet(coords, d)
    parent = abs(signed_measures(coords))
    for child in deco.children:
        if child.measure < 1e-14 * parent:
            raise DegenerateCutError(
                f"child measure {child.measure:.3e} below 1e-14 of parent {parent:.3e}"
            )
    return deco


def _mk_children(simplices, coords_of, signs) -> list[Child]:
    """Children from vertex refs, each reordered to positive orientation.

    All children are oriented in one stacked call and measured in a second
    one, so a child's measure comes from its final vertex order.
    """
    refs = [tuple(t) for t in simplices]
    verts = np.array([[coords_of[r] for r in t] for t in refs])
    for i in np.flatnonzero(signed_measures(verts) < 0.0).tolist():
        refs[i] = (refs[i][0], refs[i][2], refs[i][1]) + refs[i][3:]
        verts[i, [1, 2]] = verts[i, [2, 1]]
    measures = np.abs(signed_measures(verts)).tolist()
    return [Child(v, sign, m, r) for v, sign, m, r in zip(verts, signs, measures, refs)]


def _split_triangle(coords, d) -> CutDecomposition:
    lone = int(np.nonzero(d > 0)[0][0]) if (d > 0).sum() == 1 else int(np.nonzero(d < 0)[0][0])
    others = [i for i in range(3) if i != lone]
    o1, o2 = others
    s_lone = 1 if d[lone] > 0 else -1

    xi1 = _virtual_node(coords, d, lone, o1)
    xi2 = _virtual_node(coords, d, lone, o2)
    k1, k2 = tuple(sorted((lone, o1))), tuple(sorted((lone, o2)))
    coords_of = {("n", 0): coords[0], ("n", 1): coords[1], ("n", 2): coords[2],
                 ("x", k1): xi1, ("x", k2): xi2}

    lone_tri = (("x", k1), ("x", k2), ("n", lone))
    # quad xi1 - o1 - o2 - xi2, split along its shorter diagonal
    if np.dot(xi1 - coords[o2], xi1 - coords[o2]) <= np.dot(coords[o1] - xi2, coords[o1] - xi2):
        tris = ((("x", k1), ("n", o1), ("n", o2)), (("x", k1), ("n", o2), ("x", k2)))
    else:
        tris = ((("x", k1), ("n", o1), ("x", k2)), (("n", o1), ("n", o2), ("x", k2)))
    children = _mk_children((lone_tri,) + tris, coords_of, (s_lone, -s_lone, -s_lone))

    return CutDecomposition(coords, d.copy(), children,
                            interface_facet=[np.array([xi1, xi2])],
                            virtual_nodes={k1: xi1, k2: xi2})


def _split_tet(coords, d) -> CutDecomposition:
    pos = [i for i in range(4) if d[i] > 0]
    neg = [i for i in range(4) if d[i] < 0]
    coords_of = {("n", i): coords[i] for i in range(4)}

    if len(pos) == 1 or len(neg) == 1:
        lone = pos[0] if len(pos) == 1 else neg[0]
        s_lone = 1 if d[lone] > 0 else -1
        o = [i for i in range(4) if i != lone]
        keys = [tuple(sorted((lone, oi))) for oi in o]
        xi = [_virtual_node(coords, d, lone, oi) for oi in o]
        for k, x in zip(keys, xi):
            coords_of[("x", k)] = x
        X, O = [("x", k) for k in keys], [("n", oi) for oi in o]
        lone_tet = (("n", lone), X[0], X[1], X[2])
        # prism xi1 xi2 xi3 | o1 o2 o3 with planar lateral quads: staircase split
        prism = ((X[0], X[1], X[2], O[0]), (X[1], X[2], O[0], O[1]), (X[2], O[0], O[1], O[2]))
        children = _mk_children((lone_tet,) + prism, coords_of, (s_lone,) + (-s_lone,) * 3)
        return CutDecomposition(coords, d.copy(), children,
                                interface_facet=[np.array(xi)],
                                virtual_nodes=dict(zip(keys, xi)))

    # 2-2 split: quad interface, 3 + 3 children
    a1, a2 = pos
    b1, b2 = neg
    pairs = [(a1, b1), (a1, b2), (a2, b2), (a2, b1)]      # quad cycle
    keys = [tuple(sorted(p)) for p in pairs]
    xi = [_virtual_node(coords, d, p[0], p[1]) for p in pairs]
    for k, x in zip(keys, xi):
        coords_of[("x", k)] = x
    Xq = [("x", k) for k in keys]

    def tets(quad_tris):
        pos_tets = [(("n", a1),) + t for t in quad_tris]
        pos_tets.append((("n", a1), ("n", a2), Xq[3], Xq[2]))   # a2's virtual nodes
        neg_tets = [(("n", b1),) + t for t in quad_tris]
        neg_tets.append((("n", b1), ("n", b2), Xq[1], Xq[2]))   # b2's virtual nodes
        return pos_tets + neg_tets

    # the quad splits along either diagonal; keep the split whose worst child
    # has the smaller longest-edge-cubed to volume ratio
    quad_a = ((Xq[0], Xq[1], Xq[2]), (Xq[0], Xq[2], Xq[3]))
    quad_b = ((Xq[0], Xq[1], Xq[3]), (Xq[1], Xq[2], Xq[3]))
    both = _mk_children(tets(quad_a) + tets(quad_b), coords_of, (1, 1, 1, -1, -1, -1) * 2)
    V = np.array([c.vertices for c in both])
    edges = np.stack([V[:, a] - V[:, b] for a, b in combinations(range(4), 2)], axis=1)
    lmax = np.sqrt(row_dot(edges, edges)).max(axis=1).tolist()
    aspect = [lm ** 3 / max(c.measure, 1e-300) for lm, c in zip(lmax, both)]
    if max(aspect[:6]) <= max(aspect[6:]):
        kids, quad_tris = both[:6], quad_a
    else:
        kids, quad_tris = both[6:], quad_b
    facet = [np.array([coords_of[r] for r in t]) for t in quad_tris]
    return CutDecomposition(coords, d.copy(), kids,
                            interface_facet=facet,
                            virtual_nodes=dict(zip(keys, xi)))


# ---------------------------------------------------------------------------
# exterior faces


def cut_exterior_faces(deco: CutDecomposition) -> list[FaceCut]:
    """Partition each exterior face of a cut element into sign-homogeneous pieces.

    Faces not crossed by the interface come back whole with their single
    sign.  Piece measures sum to the face measure exactly; all pieces of the
    element are measured in one stacked call.
    """
    coords, d = deco.coords, deco.nodal_d
    dim = deco.dim
    faces = []                           # (local face, [(vertices, sign), ...])
    for lf, face in enumerate(local_faces(dim)):
        signs = [1 if d[i] > 0 else -1 for i in face]
        if len(set(signs)) == 1:
            faces.append((lf, [([coords[i] for i in face], signs[0])]))
        elif dim == 2:
            a, b = face
            xi = _face_virtual_node(deco, a, b)
            faces.append((lf, [([coords[a], xi], signs[0]), ([xi, coords[b]], signs[1])]))
        else:
            faces.append((lf, _triangle_face_pieces(deco, face, signs)))
    verts = np.array([v for _, pieces in faces for v, _ in pieces])
    measures = iter(face_measure_normal(verts, coords.mean(axis=0))[0].tolist())
    rows = iter(verts)
    return [FaceCut(lf, [FacePiece(next(rows), sign, next(measures)) for _, sign in pieces])
            for lf, pieces in faces]


def _face_virtual_node(deco: CutDecomposition, a: int, b: int) -> np.ndarray:
    x = deco.virtual_nodes.get(tuple(sorted((a, b))))
    return x if x is not None else _virtual_node(deco.coords, deco.nodal_d, a, b)


def _triangle_face_pieces(deco: CutDecomposition, face, signs) -> list:
    """(vertices, sign) of the pieces of a crossed triangle face: the lone
    node's triangle, then the two triangles of the quad on the other side."""
    coords = deco.coords
    m = next(k for k in range(3) if signs[k] != signs[(k + 1) % 3] and signs[k] != signs[(k + 2) % 3])
    p, q = [k for k in range(3) if k != m]
    vm, vp, vq = (coords[face[m]], coords[face[p]], coords[face[q]])
    xp = _face_virtual_node(deco, face[m], face[p])
    xq = _face_virtual_node(deco, face[m], face[q])
    return [([vm, xp, xq], signs[m]), ([xp, vp, vq], -signs[m]), ([xp, vq, xq], -signs[m])]
