"""Property tests of the segment clip's prefilter.

_clip clips only the elements that a prism around the segment keeps.  Its
output must be exactly that of clipping every element, which the in-test
copy below does, for segments along grid lines, mesh faces and mesh
edges, through vertices, of zero length, in general position, and
leaving the mesh.  Line samples must match too, down to the error raised
for a segment that leaves the mesh.
"""

from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efem import postprocess
from efem.efem_core import assemble_global
from efem.interface import CircleLevelSet, SphereLevelSet
from efem.mesh import generate_structured, local_edges, local_faces
from efem.oracles import box_boundary, cylinder_benchmark_mesh, cylinder_materials, jittered_mesh
from efem.postprocess import _CONTAIN_TOL, _clip, build_solution, sample_line
from efem.solver import solve

N2, N3 = 8, 3
MESHES = ("structured2d", "perturbed2d", "structured3d", "perturbed3d")


def _full_clip(sol, start, v):
    """_clip over every element of the mesh, as it was before the prefilter."""
    m = sol.mesh
    lam0 = np.einsum("eid,ed->ei", m.grads, start - m.nodes[m.elements[:, 0]])
    lam0[:, 0] += 1.0
    dlam = np.einsum("eid,d->ei", m.grads, v)

    tol = 2.0 * _CONTAIN_TOL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = (-tol - lam0) / dlam
    lo = np.maximum(np.where(dlam > 0.0, ratio, -np.inf).max(axis=1), 0.0)
    hi = np.minimum(np.where(dlam < 0.0, ratio, np.inf).min(axis=1), 1.0)
    flat_ok = ((dlam != 0.0) | (lam0 >= -tol)).all(axis=1)
    cand = np.nonzero(flat_ok & (lo <= hi))[0]
    lo, hi = lo[cand], hi[cand]

    l0, dl = lam0[cand], dlam[cand]
    steep = np.abs(dl) > _CONTAIN_TOL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = -l0 / dl
    a = np.maximum(np.where(steep & (dl > 0.0), ratio, -np.inf).max(axis=1), 0.0)
    b = np.minimum(np.where(steep & (dl < 0.0), ratio, np.inf).min(axis=1), 1.0)
    flat_ok = (steep | (np.minimum(l0, l0 + dl) >= -_CONTAIN_TOL)).all(axis=1)
    b = np.where(flat_ok, b, -np.inf)
    return cand, lo, hi, a, b


@cache
def _field(name):
    """Solved efem field on one of the test meshes."""
    mesh = {"structured2d": lambda: generate_structured(2, N2),
            "perturbed2d": lambda: cylinder_benchmark_mesh(n=N2, seed=3),
            "structured3d": lambda: generate_structured(3, N3),
            "perturbed3d": lambda: jittered_mesh((N3,) * 3, seed=5, amplitude=0.15)}[name]()
    levelset = (CircleLevelSet((0.45, 0.55), 0.27) if mesh.dim == 2
                else SphereLevelSet((0.45, 0.5, 0.55), 0.3))
    asm = assemble_global(mesh, levelset, cylinder_materials(3.0), "efem",
                          box_boundary(mesh.dim))
    phi, report = solve(asm.matrix, asm.rhs, tol=1e-10)
    assert report.converged
    return build_solution(asm, phi)


unit = st.floats(0.0, 1.0, allow_nan=False)
wide = st.floats(-0.5, 1.5, allow_nan=False)
KINDS = ("axis", "diagonal", "face", "edge", "vertex", "point", "leaving")


@st.composite
def segments(draw, mesh, kind):
    """(start, end) of the given kind on the mesh."""
    dim = mesh.dim
    n = N2 if dim == 2 else N3
    if kind == "axis":                  # along a grid line of the structured mesh
        axis = draw(st.integers(0, dim - 1))
        start = np.array([draw(st.integers(0, n)) / n for _ in range(dim)])
        end = start.copy()
        start[axis], end[axis] = draw(unit), draw(unit)
    elif kind == "diagonal":
        start = np.array([draw(unit) for _ in range(dim)])
        end = np.array([draw(unit) for _ in range(dim)])
    elif kind in ("face", "edge"):      # inside the plane of a face, or on an edge line
        e = draw(st.integers(0, mesh.n_elements - 1))
        nodes = mesh.nodes[mesh.elements[e]]
        if kind == "face":
            corners = nodes[list(draw(st.sampled_from(local_faces(dim))))]
        else:
            corners = nodes[list(draw(st.sampled_from(local_edges(dim))))]
        weights = [np.array([draw(st.floats(-1.0, 2.0)) for _ in corners]) for _ in range(2)]
        start, end = ((w / w.sum() if abs(w.sum()) > 0.1 else np.full(len(w), 1 / len(w)))
                      @ corners for w in weights)
    elif kind == "vertex":              # through a mesh node
        p = mesh.nodes[draw(st.integers(0, mesh.n_nodes - 1))]
        w = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(dim)])
        start, end = p - draw(unit) * w, p + draw(unit) * w
    elif kind == "point":               # zero length, at a node or anywhere
        if draw(st.booleans()):
            start = mesh.nodes[draw(st.integers(0, mesh.n_nodes - 1))].copy()
        else:
            start = np.array([draw(unit) for _ in range(dim)])
        end = start.copy()
    else:                               # one end inside, the other anywhere nearby
        start = np.array([draw(unit) for _ in range(dim)])
        end = np.array([draw(wide) for _ in range(dim)])
    return np.asarray(start, dtype=float), np.asarray(end, dtype=float)


def _sample_or_error(sol, start, end, count):
    try:
        s = sample_line(sol, start, end, count)
    except ValueError as exc:
        return str(exc)
    return [s.points, s.t, s.phi, s.E, s.side, s.element]


def _check(name, start, end, count):
    sol = _field(name)
    v = end - start
    got, want = _clip(sol, start, v), _full_clip(sol, start, v)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)

    new = _sample_or_error(sol, start, end, count)
    with mock.patch.object(postprocess, "_clip", _full_clip):
        old = _sample_or_error(sol, start, end, count)
    if isinstance(old, str):
        assert new == old
    else:
        assert all(np.array_equal(g, w) for g, w in zip(new, old))


@pytest.mark.parametrize("name", MESHES)
@settings(max_examples=70, deadline=None)
@given(data=st.data(), kind=st.sampled_from(KINDS), count=st.integers(2, 30))
def test_prefiltered_clip_equals_full_clip(name, data, kind, count):
    start, end = data.draw(segments(_field(name).mesh, kind))
    _check(name, start, end, count)


def test_segment_leaving_the_mesh_raises_the_same_error():
    sol = _field("structured3d")
    start, end = np.array([0.3, 0.4, 0.5]), np.array([0.3, 1.25, 0.5])
    with pytest.raises(ValueError, match="outside the mesh") as info:
        sample_line(sol, start, end, 11)
    with mock.patch.object(postprocess, "_clip", _full_clip):
        with pytest.raises(ValueError) as full:
            sample_line(sol, start, end, 11)
    assert str(info.value) == str(full.value)


@pytest.mark.parametrize("start, end", [((np.nan, 0.2), (0.5, 0.5)), ((0.5, 0.2), (np.inf, 0.5))])
def test_non_finite_segment_raises_the_same_error(start, end):
    sol = _field("structured2d")
    with np.errstate(invalid="ignore"):
        got = _sample_or_error(sol, np.array(start), np.array(end), 5)
        with mock.patch.object(postprocess, "_clip", _full_clip):
            want = _sample_or_error(sol, np.array(start), np.array(end), 5)
    assert isinstance(got, str) and got == want


def test_prefilter_keeps_few_elements_on_a_diagonal():
    # a bounding box of the main diagonal holds the whole mesh; the prism
    # around it keeps only the elements the diagonal passes near
    mesh = generate_structured(3, 8)
    kept = postprocess._near_segment(mesh, np.zeros(3), np.ones(3))
    assert 0 < kept.size < mesh.n_elements // 10
