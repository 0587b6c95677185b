"""Level sets, snapping, classification and cut decomposition."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efem.interface import (
    CircleLevelSet,
    NodalLevelSet,
    PlaneLevelSet,
    SphereLevelSet,
    classify_elements,
    split_simplex,
)
from efem.mesh import generate_structured

from face_reference import table_edges

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
REF_TET = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def one(coords, d):
    """split_simplex of one simplex: a batch of one."""
    return split_simplex(np.asarray(coords, dtype=float)[None], np.asarray(d, dtype=float)[None])


def children(batch, i=0):
    """[(vertices, sign, measure)] of the children of element i of a batch."""
    n = batch.n_children[i]
    return [(batch.points[i, c], int(s), float(m)) for c, s, m in
            zip(batch.children[i, :n], batch.child_sign[i, :n], batch.child_measure[i, :n])]


def virtual_nodes(batch, i=0):
    """(a, b) -> the virtual node on local edge a < b of element i; these are
    the vertices of its interface facet, named in table order."""
    nv, n = batch.coords.shape[1], batch.n_virtual[i]
    edges = table_edges(batch.nodal_d[i])
    assert len(edges) == n
    return dict(zip(edges, batch.points[i, nv:nv + n]))


def test_plane_distance():
    ls = PlaneLevelSet((0.0, 0.5), (0.0, 1.0))
    d = ls.evaluate(np.array([[0.3, 0.8], [0.0, 0.5]]))
    assert d.shape == (2,) and abs(d[0] - 0.3) < 1e-15 and d[1] == 0.0


def test_plane_normal_is_normalized():
    ls = PlaneLevelSet((0.0, 0.0), (0.0, 2.0))
    assert abs(np.linalg.norm(ls.normal) - 1.0) < 1e-12
    assert abs(ls.evaluate(np.array([[0.0, 0.25]]))[0] - 0.25) < 1e-15


def test_circle_distance_at_center():
    ls = CircleLevelSet((0.25, 0.75), 0.2)
    assert abs(ls.evaluate(np.array([[0.25, 0.75]]))[0] + 0.2) < 1e-15


def test_sphere_distance():
    ls = SphereLevelSet((0.5, 0.5, 0.5), 0.1)
    d = ls.evaluate(np.array([[0.5, 0.5, 0.65], [0.5, 0.5, 0.5]]))
    assert abs(d[0] - 0.05) < 1e-15 and abs(d[1] + 0.1) < 1e-15


def test_nodal_levelset_size_mismatch():
    mesh = generate_structured(2, 2, 2)
    ls = NodalLevelSet(np.zeros(4))
    with pytest.raises(ValueError, match="9 nodes"):
        classify_elements(mesh, ls)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nodal_levelset_rejects_non_finite(bad):
    values = np.array([0.5, -0.5, 0.25, 0.1])
    values[2] = bad
    with pytest.raises(ValueError, match="node 2 is not finite"):
        NodalLevelSet(values)


@pytest.mark.parametrize("make, field", [
    (lambda: PlaneLevelSet((0.0, np.nan), (0.0, 1.0)), "plane point"),
    (lambda: PlaneLevelSet((0.0, 0.5), (np.inf, 1.0)), "plane normal"),
    (lambda: CircleLevelSet((0.5, np.nan), 0.2), "circle center"),
    (lambda: SphereLevelSet((0.5, 0.5, 0.5), np.nan), "sphere radius"),
])
def test_analytic_levelsets_reject_non_finite(make, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make()


def test_classify_straddling_row():
    mesh = generate_structured(2, 5, 5)
    cls = classify_elements(mesh, PlaneLevelSet((0.0, 0.5), (0.0, 1.0)))
    ymid = mesh.nodes[mesh.elements][:, :, 1].mean(axis=1)
    straddle = np.array([
        (mesh.nodes[conn][:, 1].min() < 0.5) and (mesh.nodes[conn][:, 1].max() > 0.5)
        for conn in mesh.elements
    ])
    assert np.array_equal(cls.is_cut, straddle)
    assert cls.cut_elements.size == 10
    assert np.array_equal(cls.element_sign == 0, cls.is_cut)
    assert ((cls.element_sign[~cls.is_cut] == 1) == (ymid[~cls.is_cut] > 0.5)).all()


def test_classify_interface_through_nodes_is_conforming():
    # n=4 puts a node row exactly on y=0.5; snapping must leave nothing cut
    mesh = generate_structured(2, 4, 4)
    cls = classify_elements(mesh, PlaneLevelSet((0.0, 0.5), (0.0, 1.0)))
    assert cls.cut_elements.size == 0
    ymid = mesh.nodes[mesh.elements][:, :, 1].mean(axis=1)
    assert ((cls.element_sign == 1) == (ymid > 0.5)).all()


def test_node_touching_element_joins_its_side():
    mesh = generate_structured(2, 1, 1)
    # one node exactly on the interface, the rest below it
    cls = classify_elements(mesh, NodalLevelSet(np.array([0.0, -1.0, -1.0, -1.0])))
    assert not cls.is_cut.any()
    assert (cls.element_sign == -1).all()


def test_classify_all_positive():
    mesh = generate_structured(2, 3, 3)
    cls = classify_elements(mesh, PlaneLevelSet((0.0, -1.0), (0.0, 1.0)))
    assert not cls.is_cut.any()
    assert (cls.element_sign == 1).all()


def test_snap_zero_goes_positive():
    # element 1 holds nodes 0, 3, 1 and is clearly mixed
    mesh = generate_structured(2, 1, 1)
    cl = classify_elements(mesh, NodalLevelSet(np.array([0.0, -1.0, 1.0, 1.0])))
    assert cl.is_cut.tolist() == [False, True]
    assert cl.d[mesh.elements[1]].tolist() == [1e-6 * np.sqrt(2.0), 1.0, -1.0]


def test_snap_preserves_sign():
    # in an element that is clearly mixed, a near-zero node keeps its own sign
    mesh = generate_structured(2, 1, 1)
    assert mesh.elements[0].tolist() == [0, 2, 3]
    t = 1e-6 * np.sqrt(2.0)                  # the threshold: 1e-6 of the longest edge
    for tiny in (-1e-9, 1e-9):
        cl = classify_elements(mesh, NodalLevelSet(np.array([tiny, 1.0, -0.5, 0.5])))
        assert cl.d[mesh.elements[0]].tolist() == [np.sign(tiny) * t, -0.5, 0.5]


def test_split_triangle_example():
    deco = one(REF_TRI, [-1.0, 1.0, 1.0])
    kids = children(deco)
    assert len(kids) == 3
    assert abs(sum(m for _, s, m in kids if s == -1) - 0.125) < 1e-14
    assert abs(sum(m for _, s, m in kids if s == 1) - 0.375) < 1e-14
    xi = sorted(virtual_nodes(deco).values(), key=lambda p: p[0])
    assert np.allclose(xi[0], [0.0, 0.5]) and np.allclose(xi[1], [0.5, 0.0])
    assert abs(np.linalg.norm(xi[1] - xi[0]) - np.sqrt(0.5)) < 1e-14


def test_split_sign_flip_symmetry():
    a = children(one(REF_TRI, [-1.0, 1.0, 1.0]))
    b = children(one(REF_TRI, [1.0, -1.0, -1.0]))
    assert len(a) == len(b)
    for (va, sa, _), (vb, sb, _) in zip(a, b):
        assert np.allclose(va, vb)
        assert sa == -sb


def test_split_tet_one_isolated():
    kids = children(one(REF_TET, [-1.0, 1.0, 1.0, 1.0]))
    assert len(kids) == 4
    assert abs(sum(m for _, _, m in kids) - 1.0 / 6.0) < 1e-12


def test_split_tet_two_two():
    deco = one(REF_TET, [-1.0, -1.0, 1.0, 1.0])
    kids = children(deco)
    assert len(kids) == 6
    assert abs(sum(m for _, _, m in kids) - 1.0 / 6.0) < 1e-12
    # the interface facet is a quad of four virtual nodes, split into two triangles
    assert deco.n_virtual[0] == 4 and len(virtual_nodes(deco)) == 4


def test_split_rejects_unsnapped_input():
    with pytest.raises(ValueError, match="mixed-sign"):
        one(REF_TRI, [0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="mixed-sign"):
        one(REF_TRI, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="mixed-sign"):      # one bad row spoils the stack
        split_simplex(np.stack([REF_TRI, REF_TRI]), np.array([[-1.0, 1.0, 1.0],
                                                             [1.0, 1.0, 1.0]]))


# ---------------------------------------------------------------------------
# randomized properties


@st.composite
def cut_simplices(draw):
    dim = draw(st.sampled_from([2, 3]))
    coords = np.array([
        [draw(st.floats(-1, 1, allow_nan=False)) for _ in range(dim)]
        for _ in range(dim + 1)
    ])
    B = coords[1:] - coords[0]
    if abs(np.linalg.det(B)) < 1e-2:
        coords = np.eye(dim + 1, dim) + 0.1 * coords
    d = np.array([draw(st.floats(0.05, 1.0)) for _ in range(dim + 1)])
    signs = draw(
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=dim + 1, max_size=dim + 1).filter(
            lambda s: (max(s) > 0) and (min(s) < 0)
        )
    )
    return coords, d * np.array(signs)


@given(cut_simplices())
@settings(max_examples=200, deadline=None)
def test_measure_conservation_property(case):
    coords, d = case
    parent = abs(np.linalg.det(coords[1:] - coords[0]))
    parent /= 2.0 if coords.shape[1] == 2 else 6.0
    total = sum(m for _, _, m in children(one(coords, d)))
    assert abs(total - parent) < 1e-10 * max(parent, 1e-30)


@given(cut_simplices())
@settings(max_examples=200, deadline=None)
def test_virtual_nodes_lie_on_interface(case):
    coords, d = case
    scale = np.abs(d).max()
    for (a, b), xi in virtual_nodes(one(coords, d)).items():
        # linear interpolant of d along edge a-b must vanish at xi
        t = np.linalg.norm(xi - coords[a]) / np.linalg.norm(coords[b] - coords[a])
        interp = d[a] + t * (d[b] - d[a])
        assert abs(interp) < 1e-12 * scale


@given(cut_simplices())
@settings(max_examples=200, deadline=None)
def test_children_are_sign_homogeneous(case):
    coords, d = case
    dim = coords.shape[1]
    A = np.vstack([coords.T, np.ones(dim + 1)])
    for vertices, sign, _ in children(one(coords, d)):
        centroid = vertices.mean(axis=0)
        lam = np.linalg.solve(A, np.append(centroid, 1.0))
        val = lam @ d
        assert np.sign(val) == sign


@given(cut_simplices(), st.floats(0.1, 100.0))
@settings(max_examples=100, deadline=None)
# a 2-2 cut whose two quad diagonals tie in aspect ratio
@example((np.array([[0.25, 0.5, 0.5], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-0.5, 0.5, 0.25]]),
          np.array([0.5, -0.5, 0.1875, -0.5])), 0.1)
def test_split_invariant_under_distance_scaling(case, factor):
    coords, d = case
    a = children(one(coords, d))
    b = children(one(coords, d * factor))
    assert len(a) == len(b)
    for (va, sa, _), (vb, sb, _) in zip(a, b):
        assert sa == sb
        assert np.allclose(va, vb, atol=1e-9)
