"""Property tests of the stacked simplex geometry kernels in efem.mesh.

Measures and P1 gradients are checked against exact rational arithmetic on
the same float coordinates: determinants and cofactors of Fractions, from
minors.  Their errors must stay within first-order rounding bounds (see
_check_measure and _check_gradients), on well-shaped simplices and on
slivers down to about 1e-10 relative measure.  Face measures and normals
are checked bit for bit against an in-test copy of the single-face helper
they replaced.  Each row of a stack must also carry the bits of the stack
of that one row.  Cuts are random, on random simplices and on grid cells.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efem import mesh as mesh_mod
from efem.interface import split_simplex
from efem.mesh import (
    Mesh,
    MeshError,
    face_measure_normal,
    generate_structured,
    local_faces,
    p1_gradients,
    signed_measures,
)
from efem.oracles import cylinder_benchmark_mesh


# ---------------------------------------------------------------------------
# one-simplex references

EPS = np.finfo(float).eps


def _det_exact(A):
    """Determinant of a square list of Fractions, by expansion in minors."""
    if len(A) == 1:
        return A[0][0]
    return sum((-1) ** j * A[0][j] * _det_exact([row[:j] + row[j + 1:] for row in A[1:]])
               for j in range(len(A)))


def _exact(x):
    """Edge rows e_i = X_i - X_0, det B and cofactor matrix C of one simplex
    x (d+1, d), exact in the Fractions of its float coordinates."""
    F = [[Fraction(v) for v in row] for row in np.asarray(x, dtype=float).tolist()]
    B = [[a - b for a, b in zip(row, F[0])] for row in F[1:]]
    d = len(B)
    C = [[(-1) ** (i + j) * _det_exact([row[:j] + row[j + 1:] for k, row in enumerate(B) if k != i])
          for j in range(d)] for i in range(d)]
    return B, _det_exact(B), C


def _check_measure(signed: float, x) -> None:
    """The signed measure of simplex x against the exact det B / d!.

    To first order, rounding the edges, the cofactor products and the dot
    product e_1 . C_1 perturbs each of the d! monomials of det B by at most
    8 u = 4 eps of its magnitude (3D; 2D has fewer roundings), and their
    magnitudes sum to the permanent of |B| <= prod ||e_i||_1.  Where the
    exact measure is larger than that bound, the sign must be exact too.
    """
    B, det, _ = _exact(x)
    d = len(B)
    exact = det / math.factorial(d)
    bound = 5 * EPS * math.prod(float(sum(map(abs, row))) for row in B) / math.factorial(d)
    assert abs(Fraction(signed) - exact) <= bound
    if abs(exact) > bound:
        assert (signed > 0) == (exact > 0)


def _check_gradients(grads: np.ndarray, x) -> None:
    """P1 gradients (d+1, d) of simplex x against the exact C_i / det B.

    Each cofactor entry is off by at most 2 eps times the product of the
    other edges' 1-norms, and det B by 4 eps kappa |det B| with
    kappa = prod ||e_i||_1 / |det B| >= 1 (see _check_measure).  Dividing,
    and summing for row 0, every entry is off by at most 8 eps kappa G with
    G = sum_i prod_{k != i} ||e_k||_1 / |det B|, a bound on the gradients' size.
    """
    B, det, C = _exact(x)
    d = len(B)
    norms = [float(sum(map(abs, row))) for row in B]
    kappa = math.prod(norms) / abs(float(det))
    scale = sum(math.prod(norms[:i] + norms[i + 1:]) for i in range(d)) / abs(float(det))
    exact = [[c / det for c in row] for row in C]
    exact.insert(0, [-sum(col) for col in zip(*exact)])
    bound = 8 * EPS * kappa * scale
    for got, want in zip(grads.tolist(), exact):
        for g, w in zip(got, want):
            assert abs(Fraction(g) - w) <= bound


def _face_measure_normal_one(face_coords, elem_centroid):
    if face_coords.shape[1] == 2:
        t = face_coords[1] - face_coords[0]
        measure = float(np.linalg.norm(t))
        n = np.array([t[1], -t[0]]) / measure
    else:
        c = np.cross(face_coords[1] - face_coords[0], face_coords[2] - face_coords[0])
        twice = float(np.linalg.norm(c))
        measure = 0.5 * twice
        n = c / twice
    if np.dot(n, face_coords.mean(axis=0) - elem_centroid) < 0.0:
        n = -n
    return measure, n


# ---------------------------------------------------------------------------
# strategies

coordinate = st.floats(-2.0, 2.0, allow_nan=False, width=64)


@st.composite
def simplex_stacks(draw):
    """(k, d+1, d) simplices with measures well away from zero."""
    dim = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 12))
    X = np.array(draw(st.lists(coordinate, min_size=k * (dim + 1) * dim,
                               max_size=k * (dim + 1) * dim))).reshape(k, dim + 1, dim)
    small = np.abs(np.linalg.det(X[:, 1:] - X[:, :1])) < 1e-3
    X[small] = np.eye(dim + 1, dim) + 0.1 * X[small]
    return X


@st.composite
def sliver_stacks(draw):
    """(k, d+1, d) simplices whose last vertex sits within 1e-10 to 1e-1 of
    an edge length from the facet of the others: relative measures down to
    about 1e-10, of either sign."""
    X = draw(simplex_stacks())
    k, _, dim = X.shape
    P = X[:, :dim]
    t = P[:, 1:] - P[:, :1]
    n = (np.stack([t[:, 0, 1], -t[:, 0, 0]], axis=1) if dim == 2
         else np.cross(t[:, 0], t[:, 1]))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    exponent = np.array(draw(st.lists(st.floats(1.0, 10.0), min_size=k, max_size=k)))
    sign = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k)))
    height = sign * 10.0 ** -exponent * np.linalg.norm(t[:, 0], axis=1)
    foot = X[:, dim] - np.einsum("kd,kd->k", X[:, dim] - P[:, 0], n)[:, None] * n
    X[:, dim] = foot + height[:, None] * n
    return X


stacks = st.one_of(simplex_stacks(), sliver_stacks())


GRID_CELLS = {2: np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
              3: np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])}


@st.composite
def cuts(draw):
    """(coords, nodal distances) of a cut simplex: random, or a grid cell cut by a plane."""
    dim = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        coords = np.array(draw(st.lists(coordinate, min_size=(dim + 1) * dim,
                                        max_size=(dim + 1) * dim))).reshape(dim + 1, dim)
        if abs(np.linalg.det(coords[1:] - coords[0])) < 1e-3:
            coords = np.eye(dim + 1, dim) + 0.1 * coords
        size = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=dim + 1, max_size=dim + 1)))
        signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=dim + 1,
                                       max_size=dim + 1)))
        d = size * signs
    else:
        h = draw(st.sampled_from([1 / 7, 1 / 32, 0.1]))
        corner = np.array(draw(st.lists(st.integers(0, 30), min_size=dim, max_size=dim))) * h
        coords = GRID_CELLS[dim] * h + corner
        normal = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        offset = draw(st.floats(0.0, 1.0))
        d = (coords - (corner + offset * h)) @ normal
    if (d == 0.0).any() or (d > 0).all() or (d < 0).all():
        d = np.where(np.arange(dim + 1) == 0, -1.0, 1.0)
    return coords, d


# ---------------------------------------------------------------------------
# kernels against the one-simplex references


@settings(max_examples=150, deadline=None)
@given(stacks)
def test_signed_measures_match_per_simplex(X):
    signed = signed_measures(X)
    assert signed.shape == (X.shape[0],)
    for i, x in enumerate(X):
        assert signed_measures(x[None])[0] == signed[i]
        _check_measure(signed[i], x)


@settings(max_examples=150, deadline=None)
@given(stacks)
def test_p1_geometry_matches_per_simplex(X):
    grads = p1_gradients(X)
    assert grads.shape == X.shape
    for i, x in enumerate(X):
        assert np.array_equal(p1_gradients(x[None])[0], grads[i])
        _check_gradients(grads[i], x)


def test_p1_geometry_rejects_zero_measure_in_a_batch():
    X = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                  [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
                  [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
    with pytest.raises(MeshError, match="simplex 1 of the stack has zero measure"):
        p1_gradients(X)
    # a mesh takes its measures first and names the zero-measure element
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(MeshError, match="element 1 .*signed measure 0"):
        Mesh.build(2, nodes, [[0, 1, 2], [0, 1, 3]], [])


@settings(max_examples=150, deadline=None)
@given(simplex_stacks())
def test_face_measure_normal_matches_single_face(X):
    dim = X.shape[2]
    faces = np.array(local_faces(dim))
    F = X[:, faces].reshape(-1, dim, dim)                    # every face of every simplex
    centroids = np.repeat(X.mean(axis=1), dim + 1, axis=0)
    measures, normals = face_measure_normal(F, centroids)
    for i, (f, c) in enumerate(zip(F, centroids)):
        m, n = _face_measure_normal_one(f, c)
        assert measures[i] == m and np.array_equal(normals[i], n)
        one_m, one_n = face_measure_normal(f[None], c[None])
        assert one_m[0] == m and np.array_equal(one_n[0], n)
    # one centroid for all faces of one simplex
    m, n = face_measure_normal(F[:dim + 1], X[0].mean(axis=0))
    assert np.array_equal(m, measures[:dim + 1]) and np.array_equal(n, normals[:dim + 1])


@settings(max_examples=300, deadline=None)
@given(cuts())
def test_children_measured_from_their_final_vertex_order(case):
    coords, d = case
    deco = split_simplex(coords[None], d[None])
    if deco.degenerate[0]:
        return
    for c, measure in zip(deco.children[0, :deco.n_children[0]], deco.child_measure[0]):
        vertices = deco.points[0, c]
        signed = signed_measures(vertices[None])[0]
        assert signed > 0.0 and measure == signed
        _check_measure(signed, vertices)


# ---------------------------------------------------------------------------
# the mesh owns its geometry


def _check_mesh_geometry(mesh):
    with mock.patch.object(mesh_mod, "p1_gradients", wraps=mesh_mod.p1_gradients) as spy:
        measures, grads = mesh.measures, mesh.grads
        assert mesh.measures is measures and mesh.grads is grads
    assert spy.call_count == 1
    assert not measures.flags.writeable and not grads.flags.writeable
    for e in range(mesh.n_elements):
        x = mesh.nodes[mesh.elements[e]]
        assert measures[e] == signed_measures(x[None])[0]
        assert np.array_equal(grads[e], p1_gradients(x[None])[0])
        _check_measure(measures[e], x)
        _check_gradients(grads[e], x)


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3]), counts=st.lists(st.integers(1, 3), min_size=3, max_size=3))
def test_structured_mesh_geometry_is_computed_once_per_element(dim, counts):
    _check_mesh_geometry(generate_structured(dim, *counts[:dim]))


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_perturbed_mesh_geometry_is_computed_once_per_element(n, seed):
    _check_mesh_geometry(cylinder_benchmark_mesh(n=n, seed=seed))
