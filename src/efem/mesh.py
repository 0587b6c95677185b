"""Simplex meshes: structured generation, text I/O and P1 element geometry.

Meshes are plain triangles (2D) or tetrahedra (3D) with positively oriented
connectivity.  Boundary faces carry string tags; what a tag means physically
(Dirichlet value, natural boundary) is decided by the caller via
:class:`BoundaryTag`.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, filterfalse
from typing import Callable, Iterable

import numpy as np

# Local faces of a simplex. 2D: edges in node order; 3D: outward-oriented
# triangles of a positively oriented tetrahedron.
FACES_2D = ((0, 1), (1, 2), (2, 0))
FACES_3D = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))

EDGES_2D = FACES_2D
EDGES_3D = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class MeshError(Exception):
    """Raised for malformed mesh input (file or arrays)."""


def local_faces(dim: int):
    return FACES_2D if dim == 2 else FACES_3D


def local_edges(dim: int):
    return EDGES_2D if dim == 2 else EDGES_3D


# Rows per block wherever a per-element or per-row array is built or written
# in blocks: the gradients, the assembly scatter and the text writers.
_ROW_BLOCK = 1 << 15


def row_blocks(n: int) -> list[slice]:
    """Slices of _ROW_BLOCK rows, in order, that cover rows 0..n-1."""
    return [slice(i, i + _ROW_BLOCK) for i in range(0, n, _ROW_BLOCK)]


# Face pairing tables, per dim: the other sorted columns when column j of an
# element's sorted node indices is dropped, and the local face opposite
# each vertex.
_DROPPED = {d: np.array([[i for i in range(d + 1) if i != j] for j in range(d + 1)])
            for d in (2, 3)}
_OPPOSITE_FACE = {d: np.array([next(lf for lf, f in enumerate(local_faces(d)) if v not in f)
                               for v in range(d + 1)]) for d in (2, 3)}


@dataclass(frozen=True)
class BoundaryTag:
    """Physical meaning of one boundary tag.

    kind is "dirichlet" (prescribed potential) or "neumann" (zero normal
    displacement; no assembly contribution).  A Dirichlet value may be a
    constant or a callable, the latter only reachable through the API (case
    files use constants).  The callable takes the coordinates of all the
    tag's boundary nodes as one (k, dim) stack and returns their k values;
    assembly calls it once per tag.
    """

    name: str
    kind: str
    value: float | Callable[[np.ndarray], np.ndarray] = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary kind {self.kind!r} for tag {self.name!r}")
        if self.kind == "dirichlet" and not callable(self.value):
            if not math.isfinite(float(self.value)):
                raise ValueError(f"non-finite Dirichlet value for tag {self.name!r}")

    def values_at(self, x: np.ndarray) -> np.ndarray:
        """Dirichlet values (k,) at the points x (k, dim)."""
        if not callable(self.value):
            return np.full(x.shape[0], float(self.value))
        return stacked_values(self.value, x, f"Dirichlet callable of tag {self.name!r}")


def stacked_values(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                   what: str) -> np.ndarray:
    """func(x) as k floats for the point stack x (k, dim).

    A point callable takes all its points at once; a scalar or any other
    shape raises TypeError naming what.  When k == dim a callable that
    indexes a single point (x[1] for its y) returns k values too, so the
    stack is also evaluated reversed, and values that do not follow their
    points raise TypeError.
    """
    values = np.asarray(func(x), dtype=float)
    k = x.shape[0]
    if values.shape != (k,):
        raise TypeError(f"{what} returned shape {values.shape} for {k} points; "
                        f"it must take a (k, dim) stack and return k values")
    if k == x.shape[1]:
        flipped = np.asarray(func(np.ascontiguousarray(x[::-1])), dtype=float)
        if not np.array_equal(flipped, values[::-1], equal_nan=True):
            raise TypeError(f"{what} gave values that do not follow their points when "
                            f"the stack was reversed; it must take a (k, dim) stack and "
                            f"return k values")
    return values


@dataclass
class Mesh:
    """Immutable simplex mesh, made only by :meth:`Mesh.build`.

    nodes: (n_nodes, dim) coordinates.
    elements: (n_elements, dim+1) node indices, positively oriented.
    boundary_faces: list of (element, local_face, tag name).
    face_first, face_second: (n_faces, 2) (element, local face) of the two
        elements sharing each face, the smaller element first; face_second
        is -1 for a boundary face.  Faces are in ascending lexicographic
        order of their sorted node indices (face_keys).
    measures: (n_elements,) element measures, from the orientation check.
    """

    dim: int
    nodes: np.ndarray
    elements: np.ndarray
    boundary_faces: list[tuple[int, int, str]]
    face_first: np.ndarray = field(repr=False, default=None)
    face_second: np.ndarray = field(repr=False, default=None)
    measures: np.ndarray = field(repr=False, default=None)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @staticmethod
    def build(dim, nodes, elements, boundary_faces) -> "Mesh":
        """Validate arrays, pair faces, check boundary tags and freeze the result.

        One argsort of each element's node indices serves every check and the
        face pairing: its first and last columns give the range check, equal
        neighbours a repeated node, and dropping one sorted column gives the
        sorted key of the face opposite that vertex.  The keys are packed into
        exact int64 codes and grouped by one stable sort.
        """
        nodes = np.ascontiguousarray(nodes, dtype=float)
        if dim not in (2, 3):
            raise MeshError(f"dim must be 2 or 3, got {dim}")
        if nodes.ndim != 2 or nodes.shape[1] != dim:
            raise MeshError(f"nodes must have shape (*, {dim})")
        try:
            elements = np.ascontiguousarray(elements, dtype=np.int64)
        except OverflowError:
            e, node = _first_out_of_range(elements, nodes.shape[0])
            raise MeshError(f"element {e} references node {node} but mesh has "
                            f"{nodes.shape[0]} nodes") from None
        if elements.ndim != 2 or elements.shape[1] != dim + 1:
            raise MeshError(f"elements must have shape (*, {dim + 1})")
        mesh = Mesh(dim, nodes, elements, list(boundary_faces))
        codes = _face_codes(dim, mesh.n_nodes, *mesh._validate())
        mesh.face_first, mesh.face_second, slot_face = _pair_faces(dim, elements, codes)
        mesh._check_boundary_tags(slot_face)
        for a in (nodes, elements, mesh.face_first, mesh.face_second, mesh.measures):
            a.setflags(write=False)
        return mesh

    def _validate(self) -> tuple[np.ndarray, np.ndarray]:
        """Check coordinates, node indices and orientation, and keep the
        element measures the orientation check takes; return the argsort of
        each element's node indices and the sorted rows, (M, dim+1) each."""
        bad = _first_non_finite(self.nodes)
        if bad is not None:
            raise MeshError(f"node {bad} has a non-finite coordinate")
        n = self.n_nodes
        perm = np.argsort(self.elements, axis=1)
        rows = np.take_along_axis(self.elements, perm, axis=1)
        bad = np.flatnonzero((rows[:, 0] < 0) | (rows[:, -1] >= n))
        if bad.size:
            _, node = _first_out_of_range(self.elements[bad[:1]], n)
            raise MeshError(f"element {int(bad[0])} references node {node} but mesh has {n} nodes")
        bad = np.flatnonzero(rows[:, 1:] == rows[:, :-1])
        if bad.size:
            raise MeshError(f"element {int(bad[0]) // self.dim} has repeated node indices")
        # edge components gathered a coordinate column at a time: the bits of
        # signed_measures of the (M, dim+1, dim) stack, without the stack
        col = [self.nodes[:, c] for c in range(self.dim)]
        first = [x[self.elements[:, 0]] for x in col]
        vols = _measures_of([[x[self.elements[:, i]] - x0 for x, x0 in zip(col, first)]
                             for i in range(1, self.dim + 1)])
        bad = np.nonzero(vols <= 0.0)[0]
        if bad.size:
            raise MeshError(
                f"element {int(bad[0])} is not positively oriented "
                f"(signed measure {vols[int(bad[0])]:.3e}); fix the input ordering"
            )
        self.measures = vols
        return perm, rows

    def _check_boundary_tags(self, slot_face: np.ndarray):
        nf = self.dim + 1
        tagged = np.zeros(len(self.face_first), dtype=bool)
        if self.boundary_faces:
            e, lf = (_indices([b[i] for b in self.boundary_faces]) for i in (0, 1))
            bad_e = (e < 0) | (e >= self.n_elements)
            bad_lf = (lf < 0) | (lf >= nf)
            ok = ~(bad_e | bad_lf)
            face = np.zeros(e.size, dtype=np.int64)
            face[ok] = slot_face[e[ok] * nf + lf[ok]]
            interior = ok & (self.face_second[face, 0] >= 0)
            bad = np.flatnonzero(~ok | interior)
            if bad.size:
                i = int(bad[0])
                ei, lfi, tag = self.boundary_faces[i]
                if bad_e[i]:
                    raise MeshError(f"boundary face references element {ei} out of range")
                if bad_lf[i]:
                    raise MeshError(f"boundary face of element {ei} has local face {lfi} out of range")
                raise MeshError(f"face {_key(self.face_keys[face[i]])} of element {ei} "
                                f"is tagged {tag!r} but is interior")
            tagged[face] = True
        untagged = np.flatnonzero((self.face_second[:, 0] < 0) & ~tagged)
        if untagged.size:
            f = untagged[_smallest(self.face_first[untagged])]
            e, lf = (int(v) for v in self.face_first[f])
            raise MeshError(f"boundary face {_key(self.face_keys[f])} "
                            f"(element {e}, local face {lf}) has no tag")

    @cached_property
    def grads(self) -> np.ndarray:
        """(n_elements, dim+1, dim) P1 gradients, computed on first use, one
        row block of elements at a time."""
        grads = np.empty((self.n_elements, self.dim + 1, self.dim))
        for rows in row_blocks(self.n_elements):
            grads[rows] = p1_gradients(self.nodes[self.elements[rows]])
        grads.setflags(write=False)
        return grads

    @cached_property
    def face_keys(self) -> np.ndarray:
        """(n_faces, dim) sorted node indices of every distinct face, rows in
        ascending lexicographic order; built on first use from face_first."""
        keys = _face_keys(self.dim, self.elements, self.face_first)
        keys.setflags(write=False)
        return keys

    @cached_property
    def char_lengths(self) -> np.ndarray:
        """Longest edge per element, computed on first use: the largest
        squared length, summed over the components in order, then one sqrt."""
        h = np.zeros(self.n_elements)
        col = [self.nodes[:, c] for c in range(self.dim)]
        for a, b in local_edges(self.dim):
            sq = np.zeros(self.n_elements)
            for x in col:
                t = x[self.elements[:, a]] - x[self.elements[:, b]]
                sq += t * t
            np.maximum(h, sq, out=h)
        np.sqrt(h, out=h)
        h.setflags(write=False)
        return h

    @cached_property
    def pattern(self) -> "P1Pattern":
        """CSR pattern of the P1 matrix, built on first use (not in :meth:`build`,
        so meshes that are never assembled do not pay for it)."""
        return p1_pattern(self.n_nodes, self.elements)

    @cached_property
    def boundary_node_tags(self) -> tuple[np.ndarray, list[str]]:
        """Distinct (node, tag) pairs of the tagged faces: (nodes (P,), tag names).

        Pairs come in the order a walk over boundary_faces, and over each
        face's nodes, first reaches them.
        """
        if not self.boundary_faces:
            return np.empty(0, dtype=np.int64), []
        e, lf = (np.array([b[i] for b in self.boundary_faces], dtype=np.int64) for i in (0, 1))
        names, tag = np.unique([b[2] for b in self.boundary_faces], return_inverse=True)
        nodes = self.elements[e[:, None], np.array(local_faces(self.dim))[lf]]     # (F, dim)
        tag = np.repeat(tag.ravel(), self.dim)
        _, first = np.unique(nodes.ravel() * names.size + tag, return_index=True)
        first.sort()
        pair_nodes = nodes.ravel()[first]
        pair_nodes.setflags(write=False)
        return pair_nodes, names[tag[first]].tolist()

    @cached_property
    def centroid_tree(self):
        """scipy cKDTree of the element centroids, built on first point location
        and shared by every solution on this mesh."""
        # imported here: scipy.spatial adds about 5 MB to a process that never
        # locates a point
        from scipy.spatial import cKDTree

        return cKDTree(self.nodes[self.elements].mean(axis=1))

    @cached_property
    def centroid_reach(self) -> np.ndarray:
        """Largest distance from each element's centroid (centroid_tree.data)
        to its vertices, computed on first point location."""
        c = self.centroid_tree.data
        sq = np.zeros(self.n_elements)
        for k in range(self.dim + 1):
            t = self.nodes[self.elements[:, k]] - c
            np.maximum(sq, row_dot(t, t), out=sq)
        np.sqrt(sq, out=sq)
        sq.setflags(write=False)
        return sq


def _face_codes(dim: int, n_nodes: int, perm: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
    """Sorted node keys of every face slot, packed into exact int64 codes.

    perm and rows are the argsort of each element's node indices and the
    sorted rows.  Dropping sorted column j of element e gives the sorted key
    of its local face opposite vertex perm[e, j].  Returns one
    (M * (dim + 1),) array per code word (_code_words), indexed by face slot
    e * (dim + 1) + lf.
    """
    nf = dim + 1
    lf = _OPPOSITE_FACE[dim][perm]
    codes = []
    for cols in _code_words(dim, n_nodes):
        weight = np.zeros((nf, nf), dtype=np.int64)     # row j: the key that drops column j
        for p in cols:
            weight[np.arange(nf), _DROPPED[dim][:, p]] = n_nodes ** (cols[-1] - p)
        code = np.empty_like(rows)
        np.put_along_axis(code, lf, rows @ weight.T, axis=1)
        codes.append(code.ravel())
    return codes


def _pair_faces(dim: int, elements: np.ndarray, codes: list[np.ndarray]):
    """Group the face slots by their packed keys with one stable sort.

    Face slot s = e * (dim + 1) + lf is local face lf of element e.  Returns
    (first (F, 2), second (F, 2), slot_face (M * (dim + 1),)): the
    (element, local face) of the first and second slot holding each distinct
    key, keys ascending (-1 where there is no second), and the face index of
    every slot.  The sort is stable, so the first slot is the one of the
    smaller element.
    """
    nf = dim + 1
    order = np.argsort(codes[0], kind="stable") if len(codes) == 1 else np.lexsort(codes[::-1])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for code in codes:
        new[1:] |= np.diff(code[order]) != 0
    start = np.flatnonzero(new)
    count = np.diff(np.append(start, order.size))
    if (count > 2).any():
        third = np.divmod(order[start[count > 2] + 2].min(keepdims=True), nf)
        key = _face_keys(dim, elements, np.stack(third, axis=1))[0]
        raise MeshError(f"face {_key(key)} is shared by more than two elements")
    first = order[start]
    second = order[np.minimum(start + 1, order.size - 1)]
    face_first = np.stack(np.divmod(first, nf), axis=1)
    face_second = np.where((count == 2)[:, None], np.stack(np.divmod(second, nf), axis=1), -1)
    face = np.cumsum(new)
    face -= 1
    slot_face = np.empty(order.size, dtype=np.int64)
    slot_face[order] = face
    return face_first, face_second, slot_face


def _face_keys(dim: int, elements: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Sorted node indices (F, dim) of the faces at the (element, local face)
    slots (F, 2)."""
    e, lf = slots.T
    return np.sort(elements[e[:, None], np.array(local_faces(dim))[lf]], axis=1)


def _code_words(width: int, n: int) -> list[range]:
    """The key columns packed into each int64 code of a key of node indices < n.

    A code packs columns c0, c1, ... as (c0 * n + c1) * n + ..., and holds as
    many as n**k <= 2**63 allows, so it is exact and keeps the lexicographic
    order: one code for a 3D key below 2**21 nodes, the two codes
    (c0 * n + c1, c2) from there to about 3e9 nodes, one per column past.
    """
    k = next(k for k in range(width, 0, -1) if n ** k <= 2 ** 63)
    return [range(i, min(i + k, width)) for i in range(0, width, k)]


def _first_out_of_range(elements, n: int) -> tuple[int, int]:
    """(element, node) of the first node index outside [0, n), in row order."""
    for e, row in enumerate(elements):
        for node in row:
            if not 0 <= node < n:
                return e, int(node)


def _indices(values: list) -> np.ndarray:
    """int64 array of Python ints; one beyond int64 becomes -1, out of any range."""
    return np.array([v if -2**63 <= v < 2**63 else -1 for v in values], dtype=np.int64)


def _first_non_finite(nodes: np.ndarray) -> int | None:
    bad = np.flatnonzero(~np.isfinite(nodes).all(axis=1))
    return int(bad[0]) if bad.size else None


def _key(row) -> tuple:
    return tuple(int(i) for i in row)


def _smallest(pairs: np.ndarray) -> int:
    """Row index of the lexicographically smallest (element, local face) pair."""
    return int(np.lexsort(pairs.T[::-1])[0])


# ---------------------------------------------------------------------------
# geometry
#
# The one place simplex geometry is computed.  Each kernel takes a stack of
# k simplices (k, d+1, d) or facets (k, d, d) and gives k results, each with
# the bits that a stack of that one simplex would give.
#
# Measures and P1 gradients come in closed form from the cofactors of the
# edge matrix B, whose row i is the edge e_i = X_i - X_0 (i = 1..d): in 2D
# the cofactor rows are the swapped, negated edge components, in 3D the
# cross products of edge pairs.  det B = e_1 . C_1, the measure is det B / d!
# and the gradient of N_i is C_i / det B.  Everything is elementwise over
# (k,) component arrays, with no batched LAPACK call.


def _edges(X: np.ndarray) -> list[list[np.ndarray]]:
    """Edge components e[i - 1][c] = X[:, i, c] - X[:, 0, c] of simplices X (k, d+1, d)."""
    d = X.shape[-1]
    return [[X[:, i, c] - X[:, 0, c] for c in range(d)] for i in range(1, d + 1)]


def _cofactor(e: list, i: int) -> tuple[np.ndarray, ...]:
    """Components of cofactor row i of B, whose rows are the edges e:
    det B times the gradient of N_{i+1}."""
    if len(e) == 2:
        (a, b), (c, d) = e
        return (d, -c) if i == 0 else (-b, a)
    u, v = e[(i + 1) % 3], e[(i + 2) % 3]
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _det(e: list, c0: tuple) -> np.ndarray:
    """det B = e_1 . C_1, summed in component order."""
    det = e[0][0] * c0[0]
    for a, b in zip(e[0][1:], c0[1:]):
        det += a * b
    return det


def _measures_of(e: list) -> np.ndarray:
    """Signed measures det B / d! from the edge components e."""
    det = _det(e, _cofactor(e, 0))
    det /= math.factorial(len(e))
    return det


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products; the same bits as one 1-D a[i] @ b[i] per row."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def signed_measures(simplices) -> np.ndarray:
    """Signed measures (area/volume) of simplices (k, d+1, d), positive when
    the vertices are positively oriented."""
    return _measures_of(_edges(np.asarray(simplices, dtype=float)))


def p1_gradients(simplices) -> np.ndarray:
    """P1 gradients (k, d+1, d) of simplices (k, d+1, d): cofactor / det B
    for N_1..N_d, and minus their sum for N_0.

    A zero-measure simplex raises MeshError naming its first row in the
    stack; Mesh.build rejects those before any gradient is taken.
    """
    X = np.asarray(simplices, dtype=float)
    k, n, d = X.shape
    e = _edges(X)
    cof = [_cofactor(e, i) for i in range(d)]
    det = _det(e, cof[0])
    zero = np.flatnonzero(det == 0.0)
    if zero.size:
        raise MeshError(f"simplex {int(zero[0])} of the stack has zero measure; "
                        f"its P1 gradients are undefined")
    grads = np.empty((k, n, d))
    for i, row in enumerate(cof, start=1):
        for c, x in enumerate(row):
            np.divide(x, det, out=grads[:, i, c])
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    return grads


def face_measure_normal(faces, centroids):
    """Measures (k,) and outward unit normals (k, d) of facets (k, d, d).

    A facet is an edge in 2D and a triangle in 3D.  Each normal points away
    from its element's centroid, given per facet (k, d) or once (d,).
    """
    F = np.asarray(faces, dtype=float)
    c = np.asarray(centroids, dtype=float)
    t = F[:, 1:] - F[:, :1]
    if F.shape[-1] == 2:
        t = t[:, 0]
        measure = np.sqrt(row_dot(t, t))
        normal = np.stack([t[:, 1], -t[:, 0]], axis=1) / measure[:, None]
    else:
        w = np.cross(t[:, 0], t[:, 1])
        twice = np.sqrt(row_dot(w, w))
        measure = 0.5 * twice
        normal = w / twice[:, None]
    inward = row_dot(normal, F.mean(axis=1) - c) < 0.0
    return measure, np.where(inward[:, None], -normal, normal)


# ---------------------------------------------------------------------------
# sparsity pattern
#
# Static condensation keeps the global matrix on the plain P1 graph in every
# mode and for every level set, so its CSR pattern depends on the mesh alone.


@dataclass(frozen=True)
class P1Pattern:
    """CSR pattern of the P1 matrix: node i couples to node j when an element
    holds both.  Column indices are sorted within each row.

    slots (n_elements, dim+1, dim+1) maps local entry (i, j) of element e to
    the position in the CSR data of entry (elements[e, i], elements[e, j]);
    rows holds the row of every position.  All arrays are read-only and
    share one index dtype: int32 while nnz and n_nodes are below 2**31.
    """

    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    slots: np.ndarray

    @property
    def nnz(self) -> int:
        return self.indices.size


def p1_pattern(n_nodes: int, elements: np.ndarray) -> P1Pattern:
    """P1 pattern of a mesh, from the distinct element edges and the nodes
    that belong to an element (the diagonal).

    The element edges are packed into int64 keys (smaller node first) and
    made distinct by one stable argsort and a mask of where each run of
    equal keys starts.  Every array of one entry per element edge is built
    a local edge (a column) at a time, and the index arrays, slots
    included, take the pattern's index dtype.
    """
    m, nv = elements.shape
    edges = local_edges(nv - 1)
    key = np.empty((m, len(edges)), dtype=np.int64)
    forward = np.empty(key.shape, dtype=bool)        # local edge (i, j) runs from the smaller node
    for k, (i, j) in enumerate(edges):
        a, b = elements[:, i], elements[:, j]
        np.less(a, b, out=forward[:, k])
        key[:, k] = np.minimum(a, b) * n_nodes + np.maximum(a, b)
    order = np.argsort(key, axis=None, kind="stable")
    sorted_key = key.ravel()[order]
    del key
    run = np.empty(order.size, dtype=bool)           # first entry of each distinct key
    run[:1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=run[1:])
    lo, hi = np.divmod(sorted_key[run], n_nodes)
    del sorted_key
    # a mask, not bincount: bincount copies the read-only elements first
    is_used = np.zeros(n_nodes, dtype=bool)
    is_used[elements] = True
    used = np.flatnonzero(is_used)
    nnz = 2 * lo.size + used.size
    index = np.int32 if max(nnz, n_nodes) < 2**31 else np.int64
    edge = np.empty(order.size, dtype=index)         # distinct edge of each element edge
    edge[order] = np.cumsum(run, dtype=index) - 1
    del order, run
    edge = edge.reshape(m, len(edges))

    rows = np.concatenate([lo, hi, used])
    cols = np.concatenate([hi, lo, used])
    order = np.lexsort((cols, rows))
    slot = np.empty(nnz, dtype=index)
    slot[order] = np.arange(nnz, dtype=index)
    upper, lower, diag = np.split(slot, [lo.size, 2 * lo.size])

    slots = np.empty((m, nv, nv), dtype=index)
    node_diag = np.zeros(n_nodes, dtype=index)
    node_diag[used] = diag
    for i in range(nv):
        slots[:, i, i] = node_diag[elements[:, i]]
    for k, (i, j) in enumerate(edges):
        up, down = upper[edge[:, k]], lower[edge[:, k]]
        slots[:, i, j] = np.where(forward[:, k], up, down)
        slots[:, j, i] = np.where(forward[:, k], down, up)

    indptr = np.zeros(n_nodes + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n_nodes), out=indptr[1:])
    pattern = P1Pattern(indptr, cols[order].astype(index), rows[order].astype(index), slots)
    for arr in (pattern.indptr, pattern.indices, pattern.rows, pattern.slots):
        arr.setflags(write=False)
    return pattern


# ---------------------------------------------------------------------------
# structured generation

# Simplices of one grid cell as corner offsets, each positively oriented.
# 2D: the two triangles either side of the (0, 0)-(1, 1) diagonal.  3D: the
# six tetrahedra along the main diagonal, one per order of the axis steps
# (x y z, x z y, y x z, y z x, z x y, z y x), with the last two vertices
# swapped for the odd orders.
_CELL_SIMPLICES = {
    2: (((0, 0), (1, 0), (1, 1)),
        ((0, 0), (1, 1), (0, 1))),
    3: (((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)),
        ((0, 0, 0), (1, 0, 0), (1, 1, 1), (1, 0, 1)),
        ((0, 0, 0), (0, 1, 0), (1, 1, 1), (1, 1, 0)),
        ((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)),
        ((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)),
        ((0, 0, 0), (0, 0, 1), (1, 1, 1), (0, 1, 1))),
}

_SIDE_NAMES = ("left", "right", "bottom", "top", "front", "back")


def generate_structured(dim: int, nx: int, ny: int | None = None, nz: int | None = None,
                        box: tuple | None = None) -> Mesh:
    """Uniform simplex mesh of an axis-aligned box.

    2D: each grid square is split into two triangles along the same diagonal
    (corner (i, j) to (i+1, j+1)).  3D: each cube is split into six
    tetrahedra sharing the main diagonal.  Elements run over cells i, j, k,
    then over the cell's simplices.  Boundary faces are tagged left/right
    (x), bottom/top (y) and front/back (z).
    """
    if dim not in (2, 3):
        raise MeshError(f"dim must be 2 or 3, got {dim}")
    counts = (nx, nx if ny is None else ny, nx if nz is None else nz)[:dim]
    if min(counts) < 1:
        raise MeshError("nx and ny must be at least 1" if dim == 2
                        else "nx, ny and nz must be at least 1")
    box = box or (0.0, 1.0) * dim
    axes = [np.linspace(box[2 * i], box[2 * i + 1], counts[i] + 1) for i in range(dim)]
    nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)

    ids = np.arange(nodes.shape[0]).reshape([c + 1 for c in counts])
    corner = ids[(slice(0, -1),) * dim].ravel()
    table = np.array(_CELL_SIMPLICES[dim])                      # (S, d+1, d)
    offset = ids[tuple(np.moveaxis(table, -1, 0))]              # (S, d+1)
    elements = (corner[:, None, None] + offset).reshape(-1, dim + 1)

    # a face lies on box side s when all its nodes sit at that side's extreme
    # grid index; the first side in _SIDE_NAMES order wins.  Bit s of a node's
    # mask is set when it lies on side s, and a face's mask is the AND of its
    # nodes' masks, so one pass over the elements tags every face.
    grid = np.indices([c + 1 for c in counts]).reshape(dim, -1)
    on = np.stack([grid == 0, grid == np.array(counts)[:, None]], axis=1).reshape(2 * dim, -1)
    node_mask = ((1 << np.arange(2 * dim)) @ on).astype(np.uint8)
    face_mask = np.bitwise_and.reduce(node_mask[elements][:, local_faces(dim)], axis=2)
    e, lf = np.nonzero(face_mask)
    boundary = [(a, b, _SIDE_NAMES[(m & -m).bit_length() - 1]) for a, b, m in
                zip(e.tolist(), lf.tolist(), face_mask[e, lf].tolist())]
    return Mesh.build(dim, nodes, elements, boundary)


# ---------------------------------------------------------------------------
# text I/O
#
# Format (whitespace separated, '#' starts a comment):
#   dim n_nodes n_elements n_boundary_faces
#   <n_nodes lines of coordinates>
#   <n_elements lines of 0-based node indices>
#   <n_boundary_faces lines of: element local_face tag_name>


# Rows of numbers as text, exactly as (fmt * n) % tuple(rows.ravel().tolist())
# writes them, formatted by numpy kernels a block of rows at a time.  A block
# is laid out slot-major: row c of a (slots, n) uint8 array holds character c
# of n values, so every step is a whole-row array operation.  Each value
# takes a fixed run of slot rows between the literal text of the format, and
# a slot it does not use holds a 0 byte.  _RUN rows at a time, the block is
# transposed to row order and one bytes.translate deletes the 0 bytes.
#
# %.17g: a value x = M 2**(e-53) (M the 53-bit integer mantissa) with
# _G_LOW <= |x| < _G_HIGH has decimal exponent k = floor(log10 |x|) and 17
# digits N = round-half-even(y), y = M 5**p 2**(e-53+p) and p = 16 - k, with
# N in [1e16, 1e17).  M 5**p is exact in two uint64 limbs, and the right shift
# by 53 - e - p bits stays below 64.  k starts from log10 and moves by one
# where y < 1e16 or N >= 1e17, at most twice: log10 misses k by at most one,
# and a value whose y rounds up from below 1e16 at k + 1 and whose N reaches
# 1e17 at k would swap between the two (no double of the window does).  A
# value still unresolved goes through %.  In the window 5**p fits in 64 bits
# (p <= 27, also when k starts one too low at 1e-10).  Zeros take the same
# path with N = 0; any other value, non-finite ones included, goes through %
# on its own.

_CONVERSION = re.compile(r"(%%|%\.17g|%d)")
_RUN = 1 << 13                  # rows per kernel call and per write: temporaries stay in cache
_G_LOW, _G_HIGH = 1e-10, 1e14
_G_WIDTH = 24                   # the longest %.17g text, '-2.2250738585072014e-308'
_POW5 = np.array([5**p for p in range(28)], dtype=np.uint64)
_U32 = np.uint64(0xFFFFFFFF)
_ZERO, _POINT, _MINUS, _E = (np.uint8(ord(c)) for c in "0.-e")


def _row_format(fmt: str) -> tuple[list[bytes], str]:
    """The literal text around each conversion of fmt, and the conversions ('g' or 'd')."""
    if "\0" in fmt:
        raise ValueError(f"row format {fmt!r} holds a NUL character")
    literals, kinds, text = [], "", ""
    for i, part in enumerate(_CONVERSION.split(fmt)):
        if part == "%%":
            text += "%"
        elif i % 2:
            literals.append(text.encode())
            kinds += part[-1]
            text = ""
        elif "%" in part:
            raise ValueError(f"row format {fmt!r} holds a conversion other than %.17g and %d")
        else:
            text += part
    return literals + [text.encode()], kinds


def _write_rows(f, fmt: str, rows: np.ndarray) -> None:
    """Write rows (N, k) with the %-format fmt of one row, a block at a time.

    fmt holds k conversions, each %.17g or %d, and the text written is
    exactly (fmt * N) % tuple(rows.ravel().tolist()).
    """
    literals, kinds = _row_format(fmt)
    if rows.ndim != 2 or rows.shape[1] != len(kinds):
        raise ValueError(f"row format {fmt!r} has {len(kinds)} conversions, "
                         f"rows have shape {rows.shape}")
    lits = [np.frombuffer(lit, dtype=np.uint8)[:, None] for lit in literals]
    for part in row_blocks(rows.shape[0]):
        block = rows[part]
        n = block.shape[0]
        widths = [_G_WIDTH if kind == "g" else _d_width(block[:, j])
                  for j, kind in enumerate(kinds)]
        out = np.empty((sum(map(len, lits)) + sum(widths), n), dtype=np.uint8)
        at = 0
        for j, (lit, kind) in enumerate(zip(lits, kinds)):
            out[at:at + lit.size] = lit
            at += lit.size
            slots = _g_slots if kind == "g" else _d_slots
            for r in range(0, n, _RUN):
                slots(block[r:r + _RUN, j], out[at:at + widths[j], r:r + _RUN])
            at += widths[j]
        out[at:] = lits[-1]
        used = np.flatnonzero(out.any(axis=1))      # drop slot rows no value of the block uses
        for r in range(0, n, _RUN):
            f.write(out[used, r:r + _RUN].T.tobytes().translate(None, b"\0").decode())


def _digit_rows(u: np.ndarray, width: int) -> np.ndarray:
    """(width, n) uint8 ASCII: the last width decimal digits of unsigned u, leading one first."""
    n_groups = -(-width // 4)
    groups = np.empty((n_groups, u.size), dtype=np.uint32)     # base 10**4
    for j in range(n_groups - 1, 0, -1):
        if u.dtype == np.uint64 and 4 * j + 4 <= 9:
            u = u.astype(np.uint32)                 # what is left is below 1e9
        q = u // 10**4
        groups[j] = u - q * 10**4
        u = q
    groups[0] = u
    out = np.empty((n_groups, 4, u.size), dtype=np.uint8)
    for i in (3, 2, 1):
        q = groups // 10
        out[:, i] = groups - q * 10 + _ZERO
        groups = q
    out[:, 0] = groups + _ZERO
    return out.reshape(4 * n_groups, -1)[4 * n_groups - width:]


def _fallback(values: np.ndarray, slow: np.ndarray, conversion: str) -> list[bytes]:
    """Text of conversion % v for each value where slow holds, one at a time."""
    return [(conversion % values[i].item()).encode() for i in np.flatnonzero(slow)]


def _put_fallback(slots: np.ndarray, values: np.ndarray, slow: np.ndarray, conversion: str):
    """Overwrite the slots of each value where slow holds with its fallback text."""
    for i, t in zip(np.flatnonzero(slow), _fallback(values, slow, conversion)):
        slots[:, i] = 0
        slots[:len(t), i] = np.frombuffer(t, dtype=np.uint8)


def _g_slots(values: np.ndarray, slots: np.ndarray) -> None:
    """Fill the (24, n) uint8 slots with '%.17g' % v for each of the n values."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    n = x.size
    a = np.abs(x)
    fast = (a >= _G_LOW) & (a < _G_HIGH)
    zero = x == 0.0
    a[~fast] = 1.0
    m, e = np.frexp(a)
    mant = (m * 2.0**53).astype(np.uint64)
    k = np.floor(np.log10(a)).astype(np.int8)
    digits, below = _seventeen_digits(mant, e, k)
    for _ in range(2):
        off = np.flatnonzero(below | (digits >= 10**17))
        k[off] += np.where(below[off], -1, 1)
        digits[off], below[off] = _seventeen_digits(mant[off], e[off], k[off])
    unresolved = below | (digits >= 10**17)
    digits[zero], k[zero] = 0, 0

    d = _digit_rows(digits, 17)
    rank = np.arange(1, 18, dtype=np.int8)[:, None]
    n_sig = (rank * (d != _ZERO)).max(axis=0)         # digits up to the last nonzero one
    fixed, small = k >= 0, (k < 0) & (k >= -4)          # ddd.ddd, 0.000ddd; else d.ddde-XX
    keep = np.where(fixed, np.maximum(n_sig, k + 1), n_sig)
    d *= rank <= keep

    # Digit i goes to slot 1 + i, and one slot further after the point,
    # which follows digit k (ddd.ddd) or digit 0 (d.ddde-XX).  In 0.000ddd
    # it goes to slot 6 + i, after '0.' and up to three '0's in slots 3-5.
    slots[:] = 0
    split = np.where(fixed, k, np.where(small, np.int8(16), np.int8(0)))
    before = rank <= split + 1
    slots[1:18] |= d * (before & ~small)
    slots[2:19] |= d * ~before
    slots[6:23] |= d * small
    slots[2:18] |= (before[:-1] & ~before[1:] & (n_sig > split + 1)) * _POINT
    slots[1] |= small * _ZERO
    slots[2] |= small * _POINT
    for c in range(3, 6):
        slots[c] |= (small & (k <= 1 - c)) * _ZERO
    expo = ~fixed & ~small
    if expo.any():
        exponent = (-k).astype(np.uint8)
        tail = (_E, _MINUS, exponent // 10 + _ZERO, exponent % 10 + _ZERO)   # e-XX
        for c, ch in zip(range(19, 23), tail):
            slots[c] |= expo * ch
    slots[0] = np.signbit(x) * _MINUS
    slow = (~fast & ~zero) | unresolved
    if slow.any():
        _put_fallback(slots, x, slow, "%.17g")


def _seventeen_digits(mant: np.ndarray, e: np.ndarray, k: np.ndarray):
    """round-half-even(y) as uint64, y = mant 2**(e-53) 10**(16-k) exactly, and whether y < 1e16.

    y can round up to 1e16 from below, so the second test reads y, not the
    rounded value.
    """
    p = 16 - k
    f = _POW5[p]
    s32 = np.uint64(32)
    a0, a1 = mant & _U32, mant >> s32
    b0, b1 = f & _U32, f >> s32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> s32) + (p01 & _U32) + (p10 & _U32)
    lo = (mid << s32) | (p00 & _U32)
    hi = a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    t = (52 - e - p).astype(np.uint64)                # the shift less one: 1..60
    half = (lo >> t) | (hi << (np.uint64(64) - t))     # 2 floor(y) + the round bit
    sticky = (lo & ((np.uint64(1) << t) - np.uint64(1))) != 0
    n = half >> np.uint64(1)
    return n + ((half & np.uint64(1)) & ((n & np.uint64(1)) | sticky)), n < 10**16


def _d_split(values: np.ndarray):
    """Sign, magnitude (uint64) and which values %d writes through the kernel, for %d."""
    if values.dtype.kind == "f":                        # %d truncates a float
        t = np.trunc(values)
        fast = np.abs(t) < 2.0**64
        return t < 0, np.abs(np.where(fast, t, 0.0)).astype(np.uint64), fast
    if values.dtype.kind not in "biu":
        raise TypeError(f"%d cannot write values of dtype {values.dtype}")
    neg = values < 0
    mag = values.astype(np.uint64)                      # two's complement: negate below
    mag[neg] = -mag[neg]
    return neg, mag, np.ones(values.size, dtype=bool)


def _d_width(values: np.ndarray) -> int:
    """Slots %d needs for the widest of values: a sign and the digits."""
    _, mag, fast = _d_split(values)
    width = 1 + len(str(int(mag.max()))) if mag.size else 1
    return max([width] + [len(t) for t in _fallback(values, ~fast, "%d")])


def _d_slots(values: np.ndarray, slots: np.ndarray) -> None:
    """Fill the (w, n) uint8 slots with '%d' % v for each of the n values."""
    neg, mag, fast = _d_split(values)
    d = _digit_rows(mag, slots.shape[0] - 1)
    started = d != _ZERO                                # at or after the first nonzero digit
    for i in range(1, d.shape[0]):
        started[i] |= started[i - 1]
    started[-1] = True
    slots[0] = neg * _MINUS
    np.multiply(d, started, out=slots[1:])
    if not fast.all():
        _put_fallback(slots, values, ~fast, "%d")


def write_mesh(mesh: Mesh, path) -> None:
    """Write mesh as a UTF-8 mesh file that read_mesh reads back bit for bit.

    A boundary tag must be a non-empty str without whitespace or '#', the
    one token a row can hold; any other raises ValueError before the file
    is opened.
    """
    for i, (e, lf, tag) in enumerate(mesh.boundary_faces):
        if not isinstance(tag, str) or tag.split() != [tag] or "#" in tag:
            raise ValueError(f"boundary face {i} (element {e}, local face {lf}) has tag {tag!r}, "
                             "which a mesh file cannot hold: a tag is one token, a non-empty "
                             "str without whitespace or '#'")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{mesh.dim} {mesh.n_nodes} {mesh.n_elements} {len(mesh.boundary_faces)}\n")
        _write_rows(f, " ".join(["%.17g"] * mesh.dim) + "\n", mesh.nodes)
        _write_rows(f, " ".join(["%d"] * (mesh.dim + 1)) + "\n", mesh.elements)
        f.write("".join(f"{e} {lf} {tag}\n" for e, lf, tag in mesh.boundary_faces))


def read_mesh(path) -> Mesh:
    """Read a UTF-8 mesh text file in one linear pass, naming the line of any parse error.

    The header counts are checked against the file's rows before anything is
    allocated.  The node and the element block are each parsed by one call
    into numpy's C text reader; a block it refuses is parsed again token by
    token, which accepts it as float() and int() do or names its first
    faulty row.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    lines = text.split("\n")        # not splitlines(), which also breaks at \x0b, \x0c, ...
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    rows = list(filterfalse(str.isspace, filter(None, lines)))     # the lines holding tokens

    def lineno(r: int) -> int:      # line number of row r; only error messages need it
        return int(np.flatnonzero([bool(line) and not line.isspace() for line in lines])[r]) + 1

    if not rows:
        raise MeshError("unexpected end of file: expected header "
                        "'dim n_nodes n_elements n_boundary_faces'")
    try:
        dim, counts = _header(rows[0].split())
    except MeshError as exc:
        raise MeshError(f"line {lineno(0)}: {exc}") from None
    starts = list(accumulate([1, *counts]))
    for k, what in enumerate(("node", "element", "boundary face")):
        if len(rows) < starts[k + 1]:
            raise MeshError(f"unexpected end of file: expected {what} {len(rows) - starts[k]}")

    def block(k, width, convert, bad_token, bad_size, kind=None):
        part = rows[starts[k]:starts[k + 1]]
        values = None if kind is None else _c_parse(part, kind, width)
        if values is None:
            values = _token_parse(part, width, convert, bad_token, bad_size,
                                  lambda i: lineno(starts[k] + i))
        return values

    nodes = block(0, dim, _table(float, dim), "bad coordinate in node",
                  f"node {{}} needs {dim} coordinates, got {{}}", float)
    elements = block(1, dim + 1, _table(int, dim + 1), "bad node index in element",
                     f"element {{}} needs {dim + 1} node indices, got {{}}", int)
    boundary = block(2, 3, lambda t: list(zip(map(int, t[0::3]), map(int, t[1::3]), t[2::3])),
                     "bad boundary face", "boundary face {} needs 'element local_face tag'")
    if len(rows) > starts[3]:
        raise MeshError(f"line {lineno(starts[3])}: trailing content after mesh data")
    if (bad := _first_non_finite(nodes)) is not None:
        raise MeshError(f"line {lineno(1 + bad)}: node {bad} has a non-finite coordinate")
    return Mesh.build(dim, nodes, elements, boundary)


def _not_utf8(path) -> MeshError:
    """The MeshError naming the line of the first byte of path that is not UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]     # a line ends at \n, \r\n or \r, as in text mode
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return MeshError(f"line {line}: not UTF-8 text ({exc.reason})")
    return MeshError("not UTF-8 text")


def _header(head: list) -> tuple[int, list]:
    """dim and the three block sizes of a header row, checked before any allocation."""
    try:
        dim, n_nodes, n_elems, n_bfaces = (int(t) for t in head)
    except (ValueError, TypeError):
        raise MeshError(f"malformed header {' '.join(head)!r}")
    if dim not in (2, 3):
        raise MeshError(f"dim must be 2 or 3, got {dim}")
    counts = {"n_nodes": n_nodes, "n_elements": n_elems, "n_boundary_faces": n_bfaces}
    for name, n in counts.items():
        if n < 0:
            raise MeshError(f"{name} must be non-negative, got {n}")
    return dim, list(counts.values())


def _c_parse(rows: list, kind, width: int) -> np.ndarray | None:
    """rows as a (len(rows), width) array of kind (float or int) from numpy's C text reader.

    None where the reader refuses them: it raised, warned (numpy 1.23-1.26
    parse an int through a float with only a DeprecationWarning) or gave
    another shape.  It splits at the characters str.split does, and each
    token it converts, float() and int() convert to the same bits; tokens
    only Python takes (1_000, Unicode digits) make it refuse.
    """
    if not rows:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(rows, dtype=kind, comments=None, ndmin=2)
        except (ValueError, OverflowError, Warning):
            return None
    return values if values.shape == (len(rows), width) else None


def _token_parse(rows: list, width: int, convert, bad_token: str, bad_size: str, lineno):
    """rows split into tokens and converted at once, or a MeshError naming the first faulty row.

    A row faults with a token convert rejects, or with a length other than
    width; lineno(i) is the line number of row i.
    """
    split = [row.split() for row in rows]
    n_ok = next((i for i, toks in enumerate(split) if len(toks) != width), len(split))
    try:
        values = convert(list(chain.from_iterable(split[:n_ok])))
    except (ValueError, OverflowError):     # only now look for the row that failed
        i = _first_failing(convert, split[:n_ok])
        raise MeshError(f"line {lineno(i)}: {bad_token} {i}") from None
    if n_ok < len(split):
        raise MeshError(f"line {lineno(n_ok)}: {bad_size.format(n_ok, len(split[n_ok]))}")
    return values


def _table(kind, width: int):
    """Converter of a flat token list to a (rows, width) array in one pass."""
    return lambda tokens: np.fromiter(map(kind, tokens), kind, len(tokens)).reshape(-1, width)


def _first_failing(convert, split: list) -> int:
    """Index of the first row of tokens that convert rejects."""
    for i, toks in enumerate(split):
        try:
            convert(toks)
        except (ValueError, OverflowError):     # OverflowError: an index beyond int64
            return i
