"""Property tests of the stacked simplex geometry kernels in efem.mesh.

Each kernel is checked bit for bit against an in-test copy of the
one-simplex helper it replaced: the measure and area helpers of the cut
decomposition, the single-simplex P1 geometry and the single-face measure
and normal.  Each row of a stack must also carry the bits of the stack of
that one row.  Cuts are random, on random simplices and on grid cells.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efem import mesh as mesh_mod
from efem.interface import cut_exterior_faces, split_simplex
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


def _simplex_measure(vertices) -> float:
    B = np.asarray(vertices[1:]) - np.asarray(vertices[0])
    det = np.linalg.det(B)
    return abs(det) / (2.0 if B.shape[0] == 2 else 6.0)


def _tri_area(vertices) -> float:
    c = np.cross(vertices[1] - vertices[0], vertices[2] - vertices[0])
    return 0.5 * float(np.linalg.norm(c))


def _p1_geometry_one(coords):
    d = coords.shape[1]
    B = coords[1:] - coords[0]
    measure = abs(np.linalg.det(B)) / math.factorial(d)
    grads = np.empty((d + 1, d))
    grads[1:] = np.linalg.inv(B).T
    grads[0] = -grads[1:].sum(axis=0)
    return measure, grads


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
@given(simplex_stacks())
def test_signed_measures_match_per_simplex(X):
    signed = signed_measures(X)
    assert signed.shape == (X.shape[0],)
    for i, x in enumerate(X):
        assert signed_measures(x[None])[0] == signed[i]
        assert abs(signed[i]) == _simplex_measure(x)
        assert np.sign(signed[i]) == np.sign(np.linalg.det(x[1:] - x[0]))


@settings(max_examples=150, deadline=None)
@given(simplex_stacks())
def test_p1_geometry_matches_per_simplex(X):
    # the measures are the magnitudes of the signed ones
    measures, grads = np.abs(signed_measures(X)), p1_gradients(X)
    assert measures.shape == (X.shape[0],) and grads.shape == X.shape
    for i, x in enumerate(X):
        m, g = _p1_geometry_one(x)
        assert measures[i] == m and np.array_equal(grads[i], g)
        assert np.array_equal(p1_gradients(x[None])[0], g)


def test_p1_geometry_rejects_zero_measure_in_a_batch():
    X = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                  [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]])
    with pytest.raises(np.linalg.LinAlgError):
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
        assert measure == _simplex_measure(vertices)
        assert np.linalg.det(vertices[1:] - vertices[0]) > 0.0


@settings(max_examples=300, deadline=None)
@given(cuts())
def test_face_pieces_match_single_piece_measures(case):
    coords, d = case
    deco = split_simplex(coords[None], d[None])
    if deco.degenerate[0]:
        return
    dim = coords.shape[1]
    pieces = cut_exterior_faces(deco)
    for f, n in enumerate(pieces.count[0].tolist()):
        for p, measure in zip(pieces.points[0, f, :n], pieces.measure[0, f]):
            v = deco.points[0, p]
            want = float(np.linalg.norm(v[1] - v[0])) if dim == 2 else _tri_area(v)
            assert measure == want


# ---------------------------------------------------------------------------
# the mesh owns its geometry


def _check_mesh_geometry(mesh):
    with mock.patch.object(mesh_mod, "p1_gradients", wraps=mesh_mod.p1_gradients) as spy:
        measures, grads = mesh.measures, mesh.grads
        assert mesh.measures is measures and mesh.grads is grads
    assert spy.call_count == 1
    assert not measures.flags.writeable and not grads.flags.writeable
    for e in range(mesh.n_elements):
        m, g = _p1_geometry_one(mesh.nodes[mesh.elements[e]])
        assert measures[e] == m and np.array_equal(grads[e], g)


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3]), counts=st.lists(st.integers(1, 3), min_size=3, max_size=3))
def test_structured_mesh_geometry_is_computed_once_per_element(dim, counts):
    _check_mesh_geometry(generate_structured(dim, *counts[:dim]))


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_perturbed_mesh_geometry_is_computed_once_per_element(n, seed):
    _check_mesh_geometry(cylinder_benchmark_mesh(n=n, seed=seed))
