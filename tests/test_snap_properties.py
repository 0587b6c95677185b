"""Property tests of the per-node snap rule of classify_elements.

Each node is snapped once, against SNAP_TOL times the longest edge of the
elements that hold it, and every element reads its distances as a gather of
that one nodal array.  The per-element rule it replaced, which snapped each
element's copy of the distances against that element's own longest edge, is
kept here as a reference: classification must not move, and the distances
must not move where the two bands agree.  Where they differ, the per-element
rule gave one node two distances in two elements that share a face; the
per-node rule must give both elements the same distances, and so the same
interface crossings on that face.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from efem import interface
from efem.interface import (
    CircleLevelSet,
    NodalLevelSet,
    PlaneLevelSet,
    SphereLevelSet,
    classify_elements,
    nodal_distances,
    split_simplex,
)
from efem.mesh import generate_structured, local_faces
from efem.oracles import jittered_mesh

MESHES = {
    "structured2d": lambda: generate_structured(2, 8, 6),
    "jittered2d": lambda: jittered_mesh((8, 8), seed=3),
    "structured3d": lambda: generate_structured(3, 3),
    "jittered3d": lambda: jittered_mesh((4, 4, 4), seed=5),
}


@lru_cache(maxsize=None)
def mesh_of(name):
    return MESHES[name]()


def ref_classify(mesh, raw):
    """The per-element rule: (element_d (M, d+1), is_cut, element_sign).

    A distance below SNAP_TOL times the element's longest edge is pushed out
    to that threshold: with the sign its element's clear nodes share, if
    they share one, else with its own sign (zeros positive).
    """
    gathered = raw[mesh.elements]
    t = np.broadcast_to(interface.SNAP_TOL * mesh.char_lengths[:, None], gathered.shape)
    small = np.abs(gathered) < t
    clear_pos = ((gathered > 0.0) & ~small).any(axis=1)
    clear_neg = ((gathered < 0.0) & ~small).any(axis=1)
    join = np.where(clear_pos & ~clear_neg, 1.0, np.where(clear_neg & ~clear_pos, -1.0, 0.0))
    sign = np.where(small & (join[:, None] != 0.0), join[:, None],
                    np.where(gathered < 0.0, -1.0, 1.0))
    d = np.where(small, sign * t, gathered)
    pos, neg = (d > 0.0).any(axis=1), (d < 0.0).any(axis=1)
    esign = np.where(pos, 1, -1)
    esign[pos & neg] = 0
    return d, pos & neg, esign


def node_bands(mesh):
    """SNAP_TOL times the longest edge of any element that holds each node,
    one element at a time."""
    band = np.zeros(mesh.n_nodes)
    for e, conn in enumerate(mesh.elements):
        band[conn] = np.maximum(band[conn], interface.SNAP_TOL * mesh.char_lengths[e])
    return band


@st.composite
def pinned_levelsets(draw):
    """(mesh, raw nodal distances): a random plane or sphere, with some nodes
    pinned to zero or to a distance far inside every band."""
    mesh = mesh_of(draw(st.sampled_from(sorted(MESHES))))
    dim = mesh.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        levelset = PlaneLevelSet(rng.uniform(0.2, 0.8, dim), rng.normal(size=dim))
    else:
        cls = CircleLevelSet if dim == 2 else SphereLevelSet
        levelset = cls(rng.uniform(0.3, 0.7, dim), rng.uniform(0.15, 0.35))
    raw = nodal_distances(levelset, mesh)
    pinned = rng.random(mesh.n_nodes) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    tiny = 1e-3 * interface.SNAP_TOL * mesh.char_lengths.min()
    k = int(pinned.sum())
    raw[pinned] = rng.choice([0.0, -1.0, 1.0], size=k) * rng.random(k) * tiny
    return mesh, raw


@given(pinned_levelsets())
@settings(max_examples=80, deadline=None)
def test_classification_matches_the_per_element_rule(case):
    mesh, raw = case
    cl = classify_elements(mesh, NodalLevelSet(raw))
    ref_d, ref_cut, ref_sign = ref_classify(mesh, raw)
    assert np.array_equal(cl.is_cut, ref_cut)
    assert np.array_equal(cl.element_sign, ref_sign)

    # the rule itself: a node inside its band moves out to it with its own sign
    band = node_bands(mesh)
    small = np.abs(raw) < band
    assert np.array_equal(cl.d, np.where(small, np.where(raw < 0.0, -band, band), raw))

    # cut elements read the reference's distances wherever their nodes are
    # clear, or are small with the element's own band
    cut = cl.cut_elements
    conn = mesh.elements[cut]
    own = band[conn] == interface.SNAP_TOL * mesh.char_lengths[cut, None]
    same = ~small[conn] | own
    assert np.array_equal(cl.d[conn][same], ref_d[cut][same])


@st.composite
def split_bands(draw):
    """(mesh, raw nodal distances, face) on a jittered mesh: one node of an
    interior face lies inside the band of one of the face's two elements but
    not inside the other's, and both elements are cut across the face."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(3, 6) if dim == 2 else st.integers(2, 4))
    mesh = jittered_mesh((n,) * dim, seed=draw(st.integers(0, 50)))
    inner = np.flatnonzero(mesh.face_second >= 0)
    f = int(inner[draw(st.integers(0, inner.size - 1))])
    e1, e2 = mesh.face_first[f] // (dim + 1), mesh.face_second[f] // (dim + 1)
    t1, t2 = interface.SNAP_TOL * mesh.char_lengths[[e1, e2]]
    assume(t1 != t2)

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = PlaneLevelSet(rng.uniform(0.2, 0.8, dim), rng.normal(size=dim)).evaluate(mesh.nodes)
    clear = np.abs(raw) + 0.1 / n
    # node i has sign s; the face's other nodes alternate in sign from -s
    # and the two opposite nodes have sign s, so both elements hold clear
    # nodes of both signs and the interface crosses the face's edge i-j
    s = draw(st.sampled_from([-1.0, 1.0]))
    keys = face_key(mesh, mesh.face_first[f])
    i = keys.pop(draw(st.integers(0, dim - 1)))
    opposite = np.setdiff1d(mesh.elements[[e1, e2]], keys + [i])
    for k, v in enumerate(keys):
        raw[v] = (-s if k % 2 == 0 else s) * clear[v]
    raw[opposite] = s * clear[opposite]
    raw[i] = s * 0.5 * (t1 + t2)
    return mesh, raw, f


def face_key(mesh, slot):
    """Sorted node indices of the face at face slot e * (dim + 1) + lf."""
    e, lf = divmod(int(slot), mesh.dim + 1)
    return sorted(mesh.elements[e, list(local_faces(mesh.dim)[lf])].tolist())


def crossings(mesh, cl):
    """{element: its virtual nodes (n, dim)} of every cut element, from the
    distances assembly hands to split_simplex."""
    cut = cl.cut_elements
    deco = split_simplex(mesh.nodes[mesh.elements[cut]], cl.d[mesh.elements[cut]])
    nv = mesh.dim + 1
    return {int(e): deco.points[k, nv:nv + deco.n_virtual[k]] for k, e in enumerate(cut)}


@given(split_bands())
@settings(max_examples=60, deadline=None)
def test_neighbours_agree_on_the_distances_and_crossings_of_their_face(case):
    mesh, raw, face = case
    cl = classify_elements(mesh, NodalLevelSet(raw))
    element_d = cl.d[mesh.elements]             # what each element reads
    virtual = crossings(mesh, cl)
    h = mesh.char_lengths.max()
    nf = mesh.dim + 1
    e1, e2 = int(mesh.face_first[face] // nf), int(mesh.face_second[face] // nf)
    assert cl.is_cut[e1] and cl.is_cut[e2]
    checked = 0
    for f in np.flatnonzero(mesh.face_second >= 0):
        a, b = int(mesh.face_first[f] // nf), int(mesh.face_second[f] // nf)
        keys = face_key(mesh, mesh.face_first[f])
        da = [element_d[a, list(mesh.elements[a]).index(v)] for v in keys]
        db = [element_d[b, list(mesh.elements[b]).index(v)] for v in keys]
        assert da == db, f
        if not (cl.is_cut[a] and cl.is_cut[b]):
            continue
        dist = dict(zip(keys, da))
        for p, q in combinations(keys, 2):             # p < q
            if (dist[p] > 0.0) == (dist[q] > 0.0):
                continue
            x = mesh.nodes[p] + dist[p] / (dist[p] - dist[q]) * (mesh.nodes[q] - mesh.nodes[p])
            for e in (a, b):
                assert np.linalg.norm(virtual[e] - x, axis=1).min() <= 1e-12 * h, (f, e)
            checked += f == face
    assert checked > 0
