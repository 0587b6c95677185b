"""Property tests of mesh construction against a brute-force face pairing.

The oracle pairs faces with a dict keyed by sorted node tuples, visiting
elements and local faces in order: the first visit is the first slot, the
second visit the second.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from efem.mesh import generate_structured, local_faces, signed_measures
from efem.oracles import cylinder_benchmark_mesh

SIDES = ("left", "right", "bottom", "top", "front", "back")


def _adjacency_oracle(mesh):
    adj = {}
    for e, conn in enumerate(mesh.elements.tolist()):
        for lf, face in enumerate(local_faces(mesh.dim)):
            key = tuple(sorted(conn[i] for i in face))
            slot = adj.get(key)
            adj[key] = ((e, lf), None) if slot is None else (slot[0], (e, lf))
    return adj


def _check_mesh(mesh, box):
    dim, nf = mesh.dim, mesh.dim + 1
    adj = _adjacency_oracle(mesh)
    keys = [tuple(k) for k in mesh.face_keys.tolist()]
    assert keys == sorted(adj)
    for key, first, second in zip(keys, mesh.face_first.tolist(), mesh.face_second.tolist()):
        want_first, want_second = adj[key]
        assert tuple(first) == want_first
        assert tuple(second) == (want_second or (-1, -1))

    # every element face sits in exactly one slot
    slots = np.concatenate([mesh.face_first, mesh.face_second[mesh.face_second[:, 0] >= 0]])
    assert np.array_equal(np.sort(slots @ (nf, 1)), np.arange(mesh.n_elements * nf))

    # tags: the unpaired faces, each on the first box side holding all its nodes
    tol = 1e-12 * max(max(box[2 * i + 1] - box[2 * i] for i in range(dim)), 1.0)
    want = []
    for key, (first, second) in adj.items():
        if second is None:
            coords = mesh.nodes[list(key)]
            side = next(s for s in range(2 * dim)
                        if np.all(np.abs(coords[:, s // 2] - box[s]) < tol))
            want.append((*first, SIDES[side]))
    assert mesh.boundary_faces == sorted(want)
    assert all(type(v) is int for e, lf, _ in mesh.boundary_faces for v in (e, lf))

    vols = signed_measures(mesh.nodes[mesh.elements])
    assert (vols > 0).all()
    volume = math.prod(box[2 * i + 1] - box[2 * i] for i in range(dim))
    assert abs(vols.sum() - volume) <= 1e-12 * volume * mesh.n_elements


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 3]), counts=st.lists(st.integers(1, 4), min_size=3, max_size=3),
       lows=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       widths=st.lists(st.floats(0.1, 4.0), min_size=3, max_size=3))
def test_structured_mesh_matches_oracle(dim, counts, lows, widths):
    box = tuple(v for lo, w in zip(lows[:dim], widths[:dim]) for v in (lo, lo + w))
    mesh = generate_structured(dim, *counts[:dim], box=box)
    _check_mesh(mesh, box)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_perturbed_mesh_matches_oracle(n, seed):
    _check_mesh(cylinder_benchmark_mesh(n=n, seed=seed), (0.0, 1.0, 0.0, 1.0))
