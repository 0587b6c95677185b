"""Property tests of point location and line sampling on random segments.

Segments are drawn at random, along grid lines and between mesh vertices,
on perturbed 2D meshes and structured 3D meshes.  The reference for
ownership is a brute-force scan that solves for the barycentric
coordinates of every element.
"""

from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from efem.efem_core import assemble_global
from efem.interface import CircleLevelSet, SphereLevelSet
from efem.mesh import generate_structured
from efem.oracles import box_boundary, cylinder_benchmark_mesh, cylinder_materials
from efem.postprocess import _CONTAIN_TOL, build_solution, eval_field, sample_line
from efem.solver import solve

N2, N3 = 9, 3


@cache
def _field(name):
    """Solved efem field on one of the test meshes."""
    if name == "perturbed2d":
        mesh, levelset = cylinder_benchmark_mesh(n=N2, seed=3), CircleLevelSet((0.45, 0.55), 0.27)
    elif name == "structured2d":
        mesh = cylinder_benchmark_mesh(n=N2, seed=3, amplitude=0.0)
        levelset = CircleLevelSet((0.45, 0.55), 0.27)
    else:
        mesh, levelset = generate_structured(3, N3), SphereLevelSet((0.45, 0.5, 0.55), 0.3)
    asm = assemble_global(mesh, levelset, cylinder_materials(3.0), "efem",
                          box_boundary(mesh.dim))
    phi, report = solve(asm.matrix, asm.rhs, tol=1e-10)
    assert report.converged
    return build_solution(asm, phi)


def _barycentric_all(mesh, x):
    """Barycentric coordinates of x in every element, by linear solves."""
    X = mesh.nodes[mesh.elements]                                 # (M, d+1, d)
    A = np.concatenate([X.transpose(0, 2, 1), np.ones((mesh.n_elements, 1, mesh.dim + 1))],
                       axis=1)
    b = np.broadcast_to(np.append(x, 1.0), (mesh.n_elements, mesh.dim + 1))
    return np.linalg.solve(A, b[..., None])[..., 0]


def _allowed_owners(mesh, x):
    """Elements that may own x under the smallest-index rule.

    A point within rounding of the containment tolerance may count as inside
    or outside, so any element up to the first clear container is allowed.
    """
    low = _barycentric_all(mesh, x).min(axis=1)
    maybe = np.nonzero(low >= -_CONTAIN_TOL * (1.0 + 1e-6))[0]
    first_clear = np.nonzero(low >= -_CONTAIN_TOL * (1.0 - 1e-6))[0][0]
    return maybe[maybe <= first_clear]


unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def segments(draw, name):
    """(start, end) inside the unit box: random, along a grid line or between nodes."""
    mesh = _field(name).mesh
    dim = mesh.dim
    kind = draw(st.sampled_from(["random", "grid", "nodes"]))
    if kind == "random":
        start = [draw(unit) for _ in range(dim)]
        end = [draw(unit) for _ in range(dim)]
    elif kind == "grid":
        n = N2 if dim == 2 else N3
        axis = draw(st.integers(0, dim - 1))
        fixed = [draw(st.integers(0, n)) / n for _ in range(dim)]
        start, end = list(fixed), list(fixed)
        start[axis], end[axis] = draw(unit), draw(unit)
    else:
        i = draw(st.integers(0, mesh.n_nodes - 1))
        j = draw(st.integers(0, mesh.n_nodes - 1))
        start, end = mesh.nodes[i].tolist(), mesh.nodes[j].tolist()
    return np.array(start), np.array(end)


def _check_sample(name, start, end, count):
    sol = _field(name)
    mesh = sol.mesh
    s = sample_line(sol, start, end, count)

    # t is non-decreasing and every entry sits on the segment at its t
    assert (np.diff(s.t) >= 0.0).all()
    assert np.array_equal(s.points, start + s.t[:, None] * (end - start))
    assert s.t.size >= count

    # base samples: smallest-index containing element, same phi as eval_field
    base_t = np.linspace(0.0, 1.0, count)
    for tj in base_t:
        x = start + tj * (end - start)
        at = np.nonzero(s.t == tj)[0]
        allowed = _allowed_owners(mesh, x)
        mine = at[np.isin(s.element[at], allowed)]
        assert mine.size, (tj, allowed, s.element[at])
        phi, _ = eval_field(sol, x)
        assert abs(s.phi[mine[0]] - phi) <= 1e-12

    # paired entries share coordinates; a boundary pair sits on the boundary
    # of both elements: inside neither by more than 1e-12 (signed distance to
    # the nearest face plane), and outside neither beyond the containment
    # tolerance that lets the smaller index own a segment grazing its face
    same = np.nonzero(s.t[1:] == s.t[:-1])[0]
    for i in same:
        assert np.array_equal(s.points[i], s.points[i + 1])
        if s.element[i] == s.element[i + 1]:
            continue
        for e in (s.element[i], s.element[i + 1]):
            lam = _barycentric_all(mesh, s.points[i])[e]
            assert lam.min() >= -_CONTAIN_TOL
            depth = lam / np.linalg.norm(sol.mesh.grads[e], axis=1)
            assert depth.min() <= 1e-12, (e, lam)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(["perturbed2d", "structured2d"]),
       count=st.integers(2, 40))
def test_line_sampling_properties_2d(data, name, count):
    start, end = data.draw(segments(name))
    _check_sample(name, start, end, count)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), count=st.integers(2, 30))
def test_line_sampling_properties_3d(data, count):
    start, end = data.draw(segments("structured3d"))
    _check_sample("structured3d", start, end, count)

