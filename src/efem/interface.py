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

from efem.mesh import Mesh, char_lengths, local_faces

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


def _simplex_measure(vertices) -> float:
    B = np.asarray(vertices[1:]) - np.asarray(vertices[0])
    det = np.linalg.det(B)
    k = B.shape[0]
    return abs(det) / (2.0 if k == 2 else 6.0) if k >= 2 else float(abs(det))


def _tri_area(vertices) -> float:
    u = vertices[1] - vertices[0]
    v = vertices[2] - vertices[0]
    c = np.cross(u, v)
    return 0.5 * float(np.linalg.norm(c)) if np.ndim(c) else 0.5 * abs(float(c))


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
    parent = _simplex_measure(coords)
    for child in deco.children:
        if child.measure < 1e-14 * parent:
            raise DegenerateCutError(
                f"child measure {child.measure:.3e} below 1e-14 of parent {parent:.3e}"
            )
    return deco


def _mk_child(refs, coords_of, sign):
    verts = np.array([coords_of[r] for r in refs])
    # reorder to positive orientation so downstream geometry never sees a flip
    B = verts[1:] - verts[0]
    if np.linalg.det(B) < 0.0:
        refs = (refs[0], refs[2], refs[1]) + tuple(refs[3:])
        verts = np.array([coords_of[r] for r in refs])
    return Child(verts, sign, _simplex_measure(verts), tuple(refs))


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

    children = [_mk_child((("x", k1), ("x", k2), ("n", lone)), coords_of, s_lone)]
    # quad xi1 - o1 - o2 - xi2, split along its shorter diagonal
    if np.dot(xi1 - coords[o2], xi1 - coords[o2]) <= np.dot(coords[o1] - xi2, coords[o1] - xi2):
        tris = ((("x", k1), ("n", o1), ("n", o2)), (("x", k1), ("n", o2), ("x", k2)))
    else:
        tris = ((("x", k1), ("n", o1), ("x", k2)), (("n", o1), ("n", o2), ("x", k2)))
    children += [_mk_child(t, coords_of, -s_lone) for t in tris]

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
        children = [_mk_child((("n", lone),) + tuple(("x", k) for k in keys), coords_of, s_lone)]
        # prism xi1 xi2 xi3 | o1 o2 o3 with planar lateral quads: staircase split
        X, O = [("x", k) for k in keys], [("n", oi) for oi in o]
        prism = ((X[0], X[1], X[2], O[0]), (X[1], X[2], O[0], O[1]), (X[2], O[0], O[1], O[2]))
        children += [_mk_child(t, coords_of, -s_lone) for t in prism]
        deco = CutDecomposition(coords, d.copy(), children,
                                interface_facet=[np.array(xi)],
                                virtual_nodes=dict(zip(keys, xi)))
        return deco

    # 2-2 split: quad interface, 3 + 3 children
    a1, a2 = pos
    b1, b2 = neg
    pairs = [(a1, b1), (a1, b2), (a2, b2), (a2, b1)]      # quad cycle
    keys = [tuple(sorted(p)) for p in pairs]
    xi = [_virtual_node(coords, d, p[0], p[1]) for p in pairs]
    for k, x in zip(keys, xi):
        coords_of[("x", k)] = x
    Xq = [("x", k) for k in keys]

    def build(diag_first):
        if diag_first:
            quad_tris = ((Xq[0], Xq[1], Xq[2]), (Xq[0], Xq[2], Xq[3]))
        else:
            quad_tris = ((Xq[0], Xq[1], Xq[3]), (Xq[1], Xq[2], Xq[3]))
        pos_tets = [(("n", a1),) + t for t in quad_tris]
        pos_tets.append((("n", a1), ("n", a2), Xq[3], Xq[2]))   # a2's virtual nodes
        neg_tets = [(("n", b1),) + t for t in quad_tris]
        neg_tets.append((("n", b1), ("n", b2), Xq[1], Xq[2]))   # b2's virtual nodes
        kids = [_mk_child(t, coords_of, 1) for t in pos_tets]
        kids += [_mk_child(t, coords_of, -1) for t in neg_tets]
        return kids, quad_tris

    def worst_aspect(kids):
        worst = 0.0
        for c in kids:
            edges = [np.linalg.norm(c.vertices[a] - c.vertices[b])
                     for a, b in combinations(range(4), 2)]
            lmax = max(edges)
            worst = max(worst, lmax ** 3 / max(c.measure, 1e-300))
        return worst

    kids_a, quad_a = build(True)
    kids_b, quad_b = build(False)
    if worst_aspect(kids_a) <= worst_aspect(kids_b):
        kids, quad_tris = kids_a, quad_a
    else:
        kids, quad_tris = kids_b, quad_b
    facet = [np.array([coords_of[r] for r in t]) for t in quad_tris]
    return CutDecomposition(coords, d.copy(), kids,
                            interface_facet=facet,
                            virtual_nodes=dict(zip(keys, xi)))


# ---------------------------------------------------------------------------
# exterior faces


def cut_exterior_faces(deco: CutDecomposition) -> list[FaceCut]:
    """Partition each exterior face of a cut element into sign-homogeneous pieces.

    Faces not crossed by the interface come back whole with their single
    sign.  Piece measures sum to the face measure exactly.
    """
    coords, d = deco.coords, deco.nodal_d
    dim = deco.dim
    result = []
    for lf, face in enumerate(local_faces(dim)):
        fc = [coords[i] for i in face]
        fd = [d[i] for i in face]
        if all(v > 0 for v in fd) or all(v < 0 for v in fd):
            verts = np.array(fc)
            measure = np.linalg.norm(fc[1] - fc[0]) if dim == 2 else _tri_area(verts)
            result.append(FaceCut(lf, [FacePiece(verts, 1 if fd[0] > 0 else -1, float(measure))]))
            continue
        if dim == 2:
            a, b = face
            xi = deco.virtual_nodes.get(tuple(sorted((a, b))))
            if xi is None:
                xi = _virtual_node(coords, d, a, b)
            pa = FacePiece(np.array([coords[a], xi]), 1 if d[a] > 0 else -1,
                           float(np.linalg.norm(xi - coords[a])))
            pb = FacePiece(np.array([xi, coords[b]]), 1 if d[b] > 0 else -1,
                           float(np.linalg.norm(coords[b] - xi)))
            result.append(FaceCut(lf, [pa, pb]))
        else:
            result.append(FaceCut(lf, _cut_triangle_face(deco, face)))
    return result


def _cut_triangle_face(deco: CutDecomposition, face) -> list[FacePiece]:
    coords, d = deco.coords, deco.nodal_d
    signs = [1 if d[i] > 0 else -1 for i in face]
    lone_pos = [k for k in range(3) if signs[k] != signs[(k + 1) % 3] and signs[k] != signs[(k + 2) % 3]]
    m = lone_pos[0]
    p, q = [(k) for k in range(3) if k != m]
    vm, vp, vq = (coords[face[m]], coords[face[p]], coords[face[q]])

    def xi_for(i, j):
        key = tuple(sorted((i, j)))
        x = deco.virtual_nodes.get(key)
        return x if x is not None else _virtual_node(coords, d, i, j)

    xp = xi_for(face[m], face[p])
    xq = xi_for(face[m], face[q])
    pieces = [FacePiece(np.array([vm, xp, xq]), signs[m], _tri_area(np.array([vm, xp, xq])))]
    t1 = np.array([xp, vp, vq])
    t2 = np.array([xp, vq, xq])
    s_other = -signs[m]
    pieces.append(FacePiece(t1, s_other, _tri_area(t1)))
    pieces.append(FacePiece(t2, s_other, _tri_area(t2)))
    return pieces
