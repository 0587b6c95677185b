"""Point location against a brute-force scan of every element.

locate_points must return the smallest-index element whose closure holds
each point, and elements_containing every such element.  Mesh nodes and
edge midpoints are held by many elements at once, so they are drawn along
with random interior points on structured and jittered meshes in 2D and 3D.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efem.efem_core import assemble_global
from efem.interface import CircleLevelSet, SphereLevelSet
from efem.mesh import generate_structured, local_edges
from efem.oracles import box_boundary, cylinder_materials, jittered_mesh
from efem.postprocess import (
    _holds,
    build_solution,
    elements_containing,
    eval_field,
    locate_points,
    sample_line,
)
from efem.solver import solve

MESHES = ("structured2d", "jittered2d", "structured3d", "jittered3d")
BAD = np.array([[0.5, 0.5], [np.nan, 0.2], [np.inf, 0.3]])


@cache
def _field(name):
    """Solved efem field on one of the test meshes."""
    mesh = {"structured2d": lambda: generate_structured(2, 8),
            "jittered2d": lambda: jittered_mesh((8, 8), seed=1),
            "structured3d": lambda: generate_structured(3, 6),
            "jittered3d": lambda: jittered_mesh((5, 5, 5), seed=1)}[name]()
    levelset = (CircleLevelSet((0.45, 0.55), 0.27) if mesh.dim == 2
                else SphereLevelSet((0.45, 0.5, 0.55), 0.3))
    asm = assemble_global(mesh, levelset, cylinder_materials(3.0), "efem",
                          box_boundary(mesh.dim))
    phi, report = solve(asm.matrix, asm.rhs, tol=1e-10)
    assert report.converged
    return build_solution(asm, phi)


def _holders(sol, x):
    """Ascending elements whose closure holds x, testing every element."""
    every = np.arange(sol.mesh.n_elements)
    return np.flatnonzero(_holds(sol, every, np.broadcast_to(x, (every.size, x.size))))


@st.composite
def _points(draw):
    """(mesh name, points (k, d)): nodes, edge midpoints and interior points."""
    name = draw(st.sampled_from(MESHES))
    mesh = _field(name).mesh
    edges = local_edges(mesh.dim)
    pts = []
    for kind in draw(st.lists(st.sampled_from(("node", "edge", "interior")),
                              min_size=1, max_size=8)):
        e = draw(st.integers(0, mesh.n_elements - 1))
        X = mesh.nodes[mesh.elements[e]]
        if kind == "node":
            pts.append(X[draw(st.integers(0, mesh.dim))])
        elif kind == "edge":
            a, b = edges[draw(st.integers(0, len(edges) - 1))]
            pts.append(0.5 * (X[a] + X[b]))
        else:
            w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=mesh.dim + 1,
                                       max_size=mesh.dim + 1)))
            pts.append(w @ X / w.sum())
    return name, np.array(pts)


@settings(max_examples=150, deadline=None)
@given(_points())
def test_location_matches_every_element_scan(case):
    name, x = case
    sol = _field(name)
    holders = [_holders(sol, p) for p in x]
    assert locate_points(sol, x).tolist() == [int(h[0]) for h in holders]
    for p, h in zip(x, holders):
        assert elements_containing(sol, p) == h.tolist()


@pytest.mark.parametrize("name", MESHES)
def test_point_on_a_centroid_is_held_by_that_element_alone(name):
    """A point on an element's centroid pairs with it at distance zero, a
    pair that a sparse-matrix form of the pair query would drop."""
    sol = _field(name)
    e = np.arange(0, sol.mesh.n_elements, 7)
    x = sol.mesh.centroid_tree.data[e]
    assert locate_points(sol, x).tolist() == e.tolist()
    assert elements_containing(sol, x[0]) == [int(e[0])] == _holders(sol, x[0]).tolist()


@pytest.mark.parametrize("name", MESHES)
def test_empty_stack_locates_nothing(name):
    sol = _field(name)
    x = np.empty((0, sol.mesh.dim))
    owner = locate_points(sol, x)
    assert owner.shape == (0,) and owner.dtype.kind == "i"
    phi, E = eval_field(sol, x)
    assert phi.shape == (0,) and E.shape == x.shape


@pytest.mark.parametrize("name, start, end", [
    ("structured3d", (0.0, 0.5, 0.5), (1.0, 0.5, 0.5)),
    ("structured3d", (0.5, 0.5, 0.0), (0.5, 0.5, 1.0)),
    ("jittered2d", (0.0, 0.5), (1.0, 0.5)),
])
@pytest.mark.parametrize("count", [7, 13, 25])
def test_line_base_samples_follow_locate_points(name, start, end, count):
    """The base samples of a line through vertices sit in the elements
    locate_points gives.  Every entry at a base parameter lies in an element
    that holds the base point, so the smallest of them is its owner."""
    sol = _field(name)
    start, end = np.array(start), np.array(end)
    s = sample_line(sol, start, end, count)
    base_t = np.linspace(0.0, 1.0, count)
    owners = [int(s.element[s.t == t].min()) for t in base_t]
    assert locate_points(sol, start + base_t[:, None] * (end - start)).tolist() == owners


@pytest.mark.parametrize("call, x, at", [
    (locate_points, BAD, 1),
    (eval_field, BAD, 1),
    (eval_field, BAD[1], 0),
    (elements_containing, BAD[1], 0),
])
def test_non_finite_points_are_named(call, x, at):
    with pytest.raises(ValueError, match=rf"point {at} of the stack, \[nan 0\.2\], is not finite"):
        call(_field("structured2d"), x)


@pytest.mark.parametrize("start, end, bad", [
    ((np.nan, 0.0), (1.0, 0.5), "line start"),
    ((0.0, 0.5), (1.0, np.inf), "line end"),
])
def test_sample_line_names_a_non_finite_end(start, end, bad):
    with pytest.raises(ValueError, match=f"{bad} must be finite"):
        sample_line(_field("structured2d"), start, end, 5)
