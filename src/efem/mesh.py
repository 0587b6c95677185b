"""Simplex meshes: structured generation, text I/O and P1 element geometry.

Meshes are plain triangles (2D) or tetrahedra (3D) with positively oriented
connectivity.  Boundary faces carry str tags; what a tag means physically
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


# Rows per block wherever a per-element array is built in blocks: the
# gradients, the unit stiffness, the assembly scatter and the VTK cell field.
# The text writer has its own block, _RUN.
_ROW_BLOCK = 1 << 15


def row_blocks(n: int) -> list[slice]:
    """Slices of _ROW_BLOCK rows, in order, that cover rows 0..n-1."""
    return [slice(i, i + _ROW_BLOCK) for i in range(0, n, _ROW_BLOCK)]


# Compare-exchange networks that sort the dim + 1 node columns of all elements
# at once: 3 exchanges for triangles, 5 for tetrahedra.  And, per dim, the
# local face opposite each vertex.
_NETWORK = {2: ((0, 1), (1, 2), (0, 1)), 3: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}
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
    boundary_faces, boundary_tags: (B, 2) int64 (element, local face) and (B,) str tag.
    face_first, face_second: (n_faces,) int64 face slots e * (dim + 1) + lf
        (local face lf of element e) of the two elements sharing each face,
        the smaller element first; face_second is -1 for a boundary face.
        Faces are in ascending lexicographic order of their sorted node
        indices.
    measures: (n_elements,) element measures, from the orientation check.
    """

    dim: int
    nodes: np.ndarray
    elements: np.ndarray
    boundary_faces: np.ndarray = field(repr=False, default=None)
    boundary_tags: np.ndarray = field(repr=False, default=None)
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
    def build(dim, nodes, elements, boundary_faces, boundary_tags) -> "Mesh":
        """Validate arrays, pair faces, check boundary tags and freeze the result.

        One compare-exchange network sorts every element's node indices, a
        column at a time, and serves every check and the face pairing: its
        first and last columns give the range check, equal adjacent columns a
        repeated node, and the columns left when one is dropped the sorted key
        of the face opposite that vertex.  Each key is packed straight from
        those columns into exact int64 codes, and one stable sort groups them.
        """
        nodes = np.ascontiguousarray(nodes, dtype=float)
        if dim not in (2, 3):
            raise MeshError(f"dim must be 2 or 3, got {dim}")
        if nodes.ndim != 2 or nodes.shape[1] != dim:
            raise MeshError(f"nodes must have shape (*, {dim})")
        if (bad := _first_non_integer(elements)) is not None:
            e, _, value = bad
            raise MeshError(f"element {e} has node index {value!r}, which is not an int64 integer")
        try:
            elements = np.ascontiguousarray(elements, dtype=np.int64)
        except OverflowError:
            e, node = _first_out_of_range(elements, nodes.shape[0])
            raise MeshError(f"element {e} references node {node} but mesh has "
                            f"{nodes.shape[0]} nodes") from None
        if elements.ndim != 2 or elements.shape[1] != dim + 1:
            raise MeshError(f"elements must have shape (*, {dim + 1})")
        mesh = Mesh(dim, nodes, elements)
        codes = _face_codes(dim, mesh.n_nodes, *mesh._validate())
        mesh.face_first, mesh.face_second = _pair_faces(dim, elements, codes)
        mesh._check_boundary_tags(boundary_faces, boundary_tags)
        for a in (nodes, elements, mesh.face_first, mesh.face_second, mesh.measures,
                  mesh.boundary_faces, mesh.boundary_tags):
            a.setflags(write=False)
        return mesh

    def _validate(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Check coordinates, node indices and orientation, and keep the
        element measures the orientation check takes; return the sorted
        columns and the permutation of _sort_columns."""
        bad = _first_non_finite(self.nodes)
        if bad is not None:
            raise MeshError(f"node {bad} has a non-finite coordinate")
        n = self.n_nodes
        cols, perm = _sort_columns(self.elements)
        bad = np.flatnonzero((cols[0] < 0) | (cols[-1] >= n))
        if bad.size:
            _, node = _first_out_of_range(self.elements[bad[:1]], n)
            raise MeshError(f"element {int(bad[0])} references node {node} but mesh has {n} nodes")
        repeated = cols[0] == cols[1]
        for a, b in zip(cols[1:-1], cols[2:]):
            repeated |= a == b
        bad = np.flatnonzero(repeated)
        if bad.size:
            raise MeshError(f"element {int(bad[0])} has repeated node indices")
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
        return cols, perm

    def _check_boundary_tags(self, faces, tags):
        """Keep the tagged faces, or name the first faulty one, then the first untagged face.
        Tags are checked before the str array, which makes 5 '5' and drops a trailing NUL."""
        nf, n = self.dim + 1, len(faces)
        odd = _first_non_integer(faces)     # that face and the ones after it are not converted
        stop = n if odd is None else odd[0]
        try:
            array = np.ascontiguousarray(faces[:stop], dtype=np.int64)
        except OverflowError:       # the face of the first value outside [0, 2**63) is faulty
            stop, _ = _first_out_of_range(faces[:stop], 2**63)
            array = np.ascontiguousarray(faces[:stop], dtype=np.int64)
        self.boundary_faces = array.reshape(stop, 2)
        plain = _plain_tags(tags, n)
        e, lf = self.boundary_faces.T
        ok = (e >= 0) & (e < self.n_elements) & (lf >= 0) & (lf < nf)
        slot = np.where(ok, e * nf + lf, 0)
        outer = np.zeros(self.n_elements * nf, dtype=bool)     # the boundary slots
        outer[self.face_first[self.face_second < 0]] = True
        on_outer = np.zeros(stop, dtype=bool)                   # in range and on a boundary slot
        on_outer[ok] = outer[slot[ok]]
        bad = np.flatnonzero(~on_outer | ~plain[:stop])
        if bad.size or stop < n:
            i = int(bad[0]) if bad.size else stop
            (ei, lfi), tag = (self.boundary_faces if i < stop else faces)[i], tags[i]
            if odd is not None and i == odd[0]:
                raise MeshError(f"boundary face {i} has {('element', 'local face')[odd[1]]} "
                                f"{odd[2]!r}, which is not an int64 integer")
            if not 0 <= ei < self.n_elements:
                raise MeshError(f"boundary face {i} references element {ei} out of range")
            if not 0 <= lfi < nf:
                raise MeshError(f"boundary face {i} of element {ei} has local face {lfi} "
                                "out of range")
            if not plain[i]:
                why = "ends in NUL" if isinstance(tag, str) else "is not a str"
                raise MeshError(f"boundary face {i} (element {ei}, local face {lfi}) has tag "
                                f"{tag!r}, which {why}")
            raise MeshError(f"face {_face_key(self.dim, self.elements, slot[i])} of element "
                            f"{ei} is tagged {str(tag)!r} but is interior")
        self.boundary_tags = np.asarray(tags, dtype=str).reshape(n)
        outer[slot] = False
        if outer.any():
            s = int(outer.argmax())
            raise MeshError(f"boundary face {_face_key(self.dim, self.elements, s)} "
                            f"(element {s // nf}, local face {s % nf}) has no tag")

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
    def unit_stiffness(self) -> np.ndarray:
        """(nnz,) CSR data, in pattern order, of the P1 stiffness matrix for unit
        permittivity, sum_e measure_e G_e G_e^T, built on first use.

        The blocks are formed one row block of elements at a time and
        scattered by an unbuffered np.add.at, so each entry sums its element
        contributions in element order.
        """
        slots = self.pattern.slots
        data = np.zeros(self.pattern.nnz)
        for rows in row_blocks(self.n_elements):
            blocks = stiffness_blocks(self.grads[rows], self.measures[rows])
            np.add.at(data, slots[rows].ravel(), blocks.ravel())
        data.setflags(write=False)
        return data

    @cached_property
    def boundary_node_tags(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct (node, tag) pairs of the tagged faces: (nodes (P,), tags (P,)).

        Pairs come in the order a walk over boundary_faces, and over each
        face's nodes, first reaches them.
        """
        e, lf = self.boundary_faces.T
        names, tag = np.unique(self.boundary_tags, return_inverse=True)
        nodes = self.elements[e[:, None], np.array(local_faces(self.dim))[lf]]     # (B, dim)
        tag = np.repeat(tag.ravel(), self.dim)
        _, first = np.unique(nodes.ravel() * names.size + tag, return_index=True)
        first.sort()
        pairs = nodes.ravel()[first], names[tag[first]]
        for a in pairs:
            a.setflags(write=False)
        return pairs

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


def _sort_columns(elements: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each element's node indices in ascending order, by the _NETWORK of its width.

    Returns the dim + 1 sorted columns (M,) and the int8 permutation: column
    j of perm holds the column of elements that sorted column j came from.
    Where no row repeats a node, perm is np.argsort(elements, axis=1).
    """
    cols = [elements[:, j] for j in range(elements.shape[1])]
    perm = [np.full(elements.shape[0], j, dtype=np.int8) for j in range(len(cols))]
    for a, b in _NETWORK[len(cols) - 1]:
        # an XOR swap of the permutation where the pair is out of order:
        # branch-free, unlike np.where on an irregular mask
        flip = (perm[a] ^ perm[b]) * (cols[a] > cols[b])
        cols[a], cols[b] = np.minimum(cols[a], cols[b]), np.maximum(cols[a], cols[b])
        perm[a] ^= flip
        perm[b] ^= flip
    return cols, perm


def _face_codes(dim: int, n_nodes: int, cols: list[np.ndarray],
                perm: list[np.ndarray]) -> list[np.ndarray]:
    """Sorted node keys of every face slot, packed into exact int64 codes.

    cols and perm are the sorted columns and the permutation of
    _sort_columns.  The face of element e that drops sorted column j is the
    one opposite vertex perm[j][e]; its code is packed from the sorted
    columns it keeps, in order, and written to its face slot
    e * (dim + 1) + _OPPOSITE_FACE[dim][perm[j][e]].  Returns one
    (M * (dim + 1),) array per code word (_code_words).
    """
    nf = dim + 1
    words = _code_words(dim, n_nodes)
    codes = [np.empty(cols[0].size * nf, dtype=np.int64) for _ in words]
    base = np.arange(0, cols[0].size * nf, nf)
    for j in range(nf):
        kept = cols[:j] + cols[j + 1:]
        slot = base + _OPPOSITE_FACE[dim][perm[j]]
        for code, word in zip(codes, words):
            packed = kept[word[0]]
            for p in word[1:]:
                packed = packed * n_nodes
                packed += kept[p]
            code[slot] = packed
    return codes


def _pair_faces(dim: int, elements: np.ndarray, codes: list[np.ndarray]):
    """Group the face slots by their packed keys with one stable sort.

    Face slot s = e * (dim + 1) + lf is local face lf of element e.  Returns
    the (F,) first and second slots holding each distinct key, keys
    ascending, with -1 where there is no second.  The sort is stable, so the
    first slot is the one of the smaller element.
    """
    order = np.argsort(codes[0], kind="stable") if len(codes) == 1 else np.lexsort(codes[::-1])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for code in codes:
        new[1:] |= np.diff(code[order]) != 0
    start = np.flatnonzero(new)
    count = np.diff(np.append(start, order.size))
    if (count > 2).any():
        third = order[start[count > 2] + 2].min()
        raise MeshError(f"face {_face_key(dim, elements, third)} "
                        f"is shared by more than two elements")
    return order[start], np.where(count == 2, order[np.minimum(start + 1, order.size - 1)], -1)


def _face_key(dim: int, elements: np.ndarray, slot) -> tuple:
    """Sorted node indices of the face at face slot e * (dim + 1) + lf, as Python ints."""
    e, lf = divmod(int(slot), dim + 1)
    return tuple(sorted(int(i) for i in elements[e, list(local_faces(dim)[lf])]))


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


def _first_non_integer(rows) -> tuple[int, int, object] | None:
    """(row, column, value) of the first value of the (k, w) rows, in row
    order, that differs from its int64 conversion, or None.

    An integer array skips the check, and a Python int past int64 passes it:
    the range checks name that one.  Other shapes are left to the shape checks.
    """
    a = np.asarray(rows)
    if a.ndim != 2 or a.dtype.kind in "iu":
        return None
    with np.errstate(invalid="ignore"):             # nan, inf and values past int64
        if a.dtype.kind == "f":
            bad = a != a.astype(np.int64)
        else:
            bad = ~np.frompyfunc(_is_integer, 1, 1)(a).astype(bool)
    flat = np.flatnonzero(bad)
    if not flat.size:
        return None
    r, c = divmod(int(flat[0]), a.shape[1])
    value = a[r, c]
    return r, c, value.item() if isinstance(value, np.generic) else value


def _is_integer(value) -> bool:
    if isinstance(value, (int, np.integer)):
        return True
    try:
        return bool(np.int64(value) == value)
    except (ValueError, OverflowError, TypeError):
        return False


def _plain_tags(tags, n: int) -> np.ndarray:
    """(n,) bool: whether each of the first n tags is a str that does not end in NUL.

    When every tag is a str or np.str_ and none ends in NUL, each distinct
    tag is tested once.  Otherwise each tag is tested, so that the caller
    can name the first faulty face.
    """
    if (len(tags) >= n and set(map(type, tags)) <= {str, np.str_}
            and all(t[-1:] != "\0" for t in set(tags))):
        return np.ones(n, dtype=bool)
    return np.fromiter(map(lambda t: isinstance(t, str) and t[-1:] != "\0", tags), bool, n)


def _first_non_finite(nodes: np.ndarray) -> int | None:
    bad = np.flatnonzero(~np.isfinite(nodes).all(axis=1))
    return int(bad[0]) if bad.size else None


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


def stiffness_blocks(grads: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Element blocks weight * G G^T (k, d+1, d+1) of k elements with P1
    gradients grads (k, d+1, d) and weights (k,)."""
    blocks = np.matmul(grads, np.ascontiguousarray(grads.transpose(0, 2, 1)))
    blocks *= weight[:, None, None]
    return blocks


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
    the position in the CSR data of entry (elements[e, i], elements[e, j]).
    All arrays are read-only and share one index dtype: int32 while nnz and
    n_nodes are below 2**31.
    """

    indptr: np.ndarray
    indices: np.ndarray
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
    pattern = P1Pattern(indptr, cols[order].astype(index), slots)
    for arr in (pattern.indptr, pattern.indices, pattern.slots):
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

_SIDE_NAMES = np.array(["left", "right", "bottom", "top", "front", "back"], dtype=object)


def generate_structured(dim: int, nx: int, ny: int | None = None, nz: int | None = None) -> Mesh:
    """Uniform simplex mesh of the unit square or cube.

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
    axes = [np.linspace(0.0, 1.0, c + 1) for c in counts]
    nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)

    ids = np.arange(nodes.shape[0]).reshape([c + 1 for c in counts])
    corner = ids[(slice(0, -1),) * dim].ravel()
    table = np.array(_CELL_SIMPLICES[dim])                      # (S, d+1, d)
    offset = ids[tuple(np.moveaxis(table, -1, 0))]              # (S, d+1)
    elements = (corner[:, None, None] + offset).reshape(-1, dim + 1)

    # a face lies on box side s when all its nodes sit at that side's extreme
    # grid index; the first side in _SIDE_NAMES wins.  The names are str objects:
    # the tag check reads them faster than np.str_, which numpy makes anew for
    # every face.  Bit s of a node's mask is set when it lies on side s, and a
    # face's mask is the AND of the masks of its nodes' columns: one pass tags
    # every face.
    grid = np.indices([c + 1 for c in counts]).reshape(dim, -1)
    on = np.stack([grid == 0, grid == np.array(counts)[:, None]], axis=1).reshape(2 * dim, -1)
    node_mask = ((1 << np.arange(2 * dim)) @ on).astype(np.uint8)
    masks = [node_mask[elements[:, j]] for j in range(dim + 1)]
    face_mask = np.stack([np.bitwise_and.reduce([masks[j] for j in face])
                          for face in local_faces(dim)], axis=1)
    e, lf = np.nonzero(face_mask)
    side = np.unpackbits(face_mask[e, lf, None], axis=1, bitorder="little").argmax(axis=1)
    return Mesh.build(dim, nodes, elements, np.stack([e, lf], axis=1), _SIDE_NAMES[side])


# ---------------------------------------------------------------------------
# text I/O
#
# Format (whitespace separated, '#' starts a comment):
#   dim n_nodes n_elements n_boundary_faces
#   <n_nodes lines of coordinates>
#   <n_elements lines of 0-based node indices>
#   <n_boundary_faces lines of: element local_face tag_name>


# Rows of numbers as text, exactly as (fmt * n) % tuple(rows.ravel().tolist())
# writes them, formatted by numpy kernels a block of _RUN rows at a time.
# Every conversion has one fixed width: %+.16e is _E_WIDTH characters for a
# finite value whose decimal exponent has two digits, and %{w}d is w
# characters for an integer in [0, 10**w).  A block is laid out slot-major:
# row c of a (row width, n) uint8 array holds character c of the n rows, so
# every step is a whole-row array operation, and the block's text is its
# transpose.  A block holding a value whose text has another width (a
# three-digit exponent, nan, inf, an integer that is negative or has more
# than w digits) is written by % instead.
#
# %+.16e: a value x = M 2**(e-53) (M the 53-bit integer mantissa) with
# _E_LOW <= |x| < _E_HIGH has decimal exponent k = floor(log10 |x|) and 17
# digits N = round-half-even(y), y = M 5**p 2**(e-53+p) and p = 16 - k, with
# N in [1e16, 1e17).  M 5**p is exact in two uint64 limbs, and the right shift
# by 53 - e - p bits stays below 64.  k starts from log10 and moves by one
# where y < 1e16 or N >= 1e17, at most twice: log10 misses k by at most one,
# and a value whose y rounds up from below 1e16 at k + 1 and whose N reaches
# 1e17 at k would swap between the two (no double of the window does).  A
# value still unresolved goes through %.  In the window 5**p fits in 64 bits
# (p <= 27, also when k starts one too low at 1e-10).  Zeros take the same
# path with N = 0 and k = 0; any other value goes through % on its own.

_CONVERSION = re.compile(r"(%\+\.16e|%[1-9][0-9]*d)")
_RUN = 1 << 13                  # rows per block: its temporaries stay in cache
_E_WIDTH = 23                   # '%+.16e' % x: sign, 17 digits, '.', 'e', exponent sign, 2 digits
_E_LOW, _E_HIGH = 1e-10, 1e14
_POW5 = np.array([5**p for p in range(28)], dtype=np.uint64)
_U32 = np.uint64(0xFFFFFFFF)
_ZERO, _POINT, _PLUS, _E, _SPACE = (np.uint8(ord(c)) for c in "0.+e ")


def _row_format(fmt: str) -> tuple[list[np.ndarray], list[int]]:
    """The literal bytes around each conversion of fmt, and each conversion's
    width: 0 for %+.16e, w for %{w}d."""
    parts = _CONVERSION.split(fmt)
    if any("%" in text for text in parts[0::2]):
        raise ValueError(f"row format {fmt!r} holds a conversion other than %+.16e and %{{w}}d")
    return ([np.frombuffer(text.encode(), dtype=np.uint8)[:, None] for text in parts[0::2]],
            [0 if c[-1] == "e" else int(c[1:-1]) for c in parts[1::2]])


def _write_rows(f, fmt: str, rows: np.ndarray) -> None:
    """Write rows (N, k) to the binary file f with the %-format fmt of one row.

    fmt holds k conversions, each %+.16e or %{w}d (integer columns only),
    and the bytes written are exactly (fmt * N) % tuple(rows.ravel().tolist())
    in UTF-8.  A block of _RUN rows whose values all have the conversions'
    widths is filled by the kernels and written as one transpose; any other
    block is written by %.
    """
    lits, widths = _row_format(fmt)
    if rows.ndim != 2 or rows.shape[1] != len(widths):
        raise ValueError(f"row format {fmt!r} has {len(widths)} conversions, "
                         f"rows have shape {rows.shape}")
    if any(widths) and rows.dtype.kind not in "biu":
        raise TypeError(f"%d cannot write values of dtype {rows.dtype}")
    ends = np.cumsum([lit.size + (w or _E_WIDTH) for lit, w in zip(lits, widths)])
    for r in range(0, rows.shape[0], _RUN):
        block = rows[r:r + _RUN]
        out = np.empty((ends[-1] + lits[-1].size, block.shape[0]), dtype=np.uint8)
        at, fixed = 0, True
        for j, (lit, w) in enumerate(zip(lits, widths)):
            out[at:at + lit.size] = lit
            slots = out[at + lit.size:ends[j]]
            fixed = _d_slots(block[:, j], slots) if w else _e_slots(block[:, j], slots)
            if not fixed:
                break
            at = ends[j]
        if fixed:
            out[at:] = lits[-1]
            f.write(out.T.tobytes())
        else:
            f.write(((fmt * block.shape[0]) % tuple(block.ravel().tolist())).encode())


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


def _e_slots(values: np.ndarray, slots: np.ndarray) -> bool:
    """Fill the (23, n) uint8 slots with '%+.16e' % v for each of the n values.

    False, with the slots partly filled, when the text of a value has another
    width.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= _E_LOW) & (a < _E_HIGH)
    zero = x == 0.0
    a[~fast] = 1.0
    m, e = np.frexp(a)
    mant = (m * 2.0**53).astype(np.uint64)
    k = np.floor(np.log10(a)).astype(np.int8)
    digits, below = _seventeen_digits(mant, e, k)
    for _ in range(2):
        off = np.flatnonzero(below | (digits >= 10**17))
        if not off.size:
            break
        k[off] += np.where(below[off], -1, 1)
        digits[off], below[off] = _seventeen_digits(mant[off], e[off], k[off])
    unresolved = below | (digits >= 10**17)
    digits[zero], k[zero] = 0, 0

    d = _digit_rows(digits, 17)
    exponent = np.abs(k).astype(np.uint8)
    tens = (exponent >= 10).view(np.uint8)             # |k| <= 14 in the window
    slots[0] = _PLUS + 2 * np.signbit(x).view(np.uint8)      # '+' or '-', two apart
    slots[1] = d[0]
    slots[2] = _POINT
    slots[3:19] = d[1:]
    slots[19] = _E
    slots[20] = _PLUS + 2 * (k < 0).view(np.uint8)
    slots[21] = _ZERO + tens
    slots[22] = _ZERO + exponent - 10 * tens
    for i in np.flatnonzero((~fast & ~zero) | unresolved):
        t = ("%+.16e" % x[i]).encode()
        if len(t) != _E_WIDTH:
            return False
        slots[:, i] = np.frombuffer(t, dtype=np.uint8)
    return True


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


def _d_slots(values: np.ndarray, slots: np.ndarray) -> bool:
    """Fill the (w, n) uint8 slots with '%{w}d' % v for each of the n values.

    False, with the slots untouched, when a value is negative or has more
    than w digits.
    """
    w = slots.shape[0]
    if values.size and (int(values.min()) < 0 or int(values.max()) >= 10**w):
        return False
    u = values.astype(np.uint64)
    slots[:] = _digit_rows(u, w)
    for i in range(w - 1):              # a leading zero of a value below 10**(w-1-i) is a space
        slots[i] -= (_ZERO - _SPACE) * (u < 10**(w - 1 - i)).view(np.uint8)
    return True


def write_mesh(mesh: Mesh, path) -> None:
    """Write mesh as a UTF-8 mesh file that read_mesh reads back bit for bit.

    Coordinates are written with %+.16e, and node and element indices each
    with one width, that of the largest index.  A tag must be the one token a
    row can hold, non-empty and without whitespace or '#', and encode as
    UTF-8 (a lone surrogate does not); each distinct tag is checked once, and
    a bad one raises ValueError for its first face.
    """
    names, first = np.unique(mesh.boundary_tags, return_index=True)
    for i, tag in sorted(zip(first.tolist(), names.tolist())):
        if tag.split() != [tag] or "#" in tag or tag.encode("utf-8", "replace").decode() != tag:
            e, lf = mesh.boundary_faces[i].tolist()
            raise ValueError(f"boundary face {i} (element {e}, local face {lf}) has tag {tag!r}, "
                             "which a mesh file cannot hold: a tag is one token, a non-empty "
                             "UTF-8 str without whitespace or '#'")
    faces = np.column_stack([mesh.boundary_faces.astype(object), mesh.boundary_tags])
    face_row = f"%{_index_width(mesh.n_elements)}d %d %s\n"
    with open(path, "wb") as f:
        f.write(f"{mesh.dim} {mesh.n_nodes} {mesh.n_elements} {len(faces)}\n".encode())
        _write_rows(f, " ".join(["%+.16e"] * mesh.dim) + "\n", mesh.nodes)
        _write_rows(f, " ".join([f"%{_index_width(mesh.n_nodes)}d"] * (mesh.dim + 1)) + "\n",
                    mesh.elements)
        f.write(((face_row * len(faces)) % tuple(faces.ravel().tolist())).encode())


def _index_width(n: int) -> int:
    """Characters of the largest of n indices 0..n-1: the width of their %{w}d."""
    return len(str(max(n - 1, 0)))


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
    faces, tags = block(2, 3, lambda t: (np.array([*map(int, t[0::3] + t[1::3])], dtype=object)
                                         .reshape(2, -1).T, t[2::3]),     # ints of any size
                        "bad boundary face", "boundary face {} needs 'element local_face tag'")
    if len(rows) > starts[3]:
        raise MeshError(f"line {lineno(starts[3])}: trailing content after mesh data")
    if (bad := _first_non_finite(nodes)) is not None:
        raise MeshError(f"line {lineno(1 + bad)}: node {bad} has a non-finite coordinate")
    return Mesh.build(dim, nodes, elements, faces, tags)


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
