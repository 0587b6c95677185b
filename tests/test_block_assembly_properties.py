"""Property tests of the mesh arrays and the assembly built in row blocks.

mesh.grads, mesh.char_lengths, the P1 pattern and the assembly scatter are built
one block of mesh._ROW_BLOCK elements at a time, or one local edge at a
time.  On random 2D and 3D meshes with unused nodes and shuffled element
order, the pattern equals an in-test copy of the np.unique builder it
replaced, and the gradients, lengths, matrix and rhs are bit for bit the
same at every block size.  A tracemalloc guard keeps the first assembly on
a mesh within bounded memory.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from efem import mesh as mesh_mod
from efem.efem_core import MODES, MaterialPair, assemble_global
from efem.interface import CircleLevelSet, PlaneLevelSet, SphereLevelSet
from efem.mesh import Mesh, generate_structured, local_edges
from efem.oracles import box_boundary, cylinder_benchmark_mesh, jittered_mesh, sphere_levelset

MATS = MaterialPair(3.0, 1.0)


def _unique_pattern(n_nodes, elements):
    """The np.unique(return_inverse) pattern builder, intp slots."""
    m, nv = elements.shape
    edges = np.array(local_edges(nv - 1))
    a, b = elements[:, edges[:, 0]], elements[:, edges[:, 1]]
    key, edge = np.unique((np.minimum(a, b) * n_nodes + np.maximum(a, b)).ravel(),
                          return_inverse=True)
    lo, hi = key // n_nodes, key % n_nodes
    used = np.unique(elements)
    rows = np.concatenate([lo, hi, used])
    cols = np.concatenate([hi, lo, used])
    order = np.lexsort((cols, rows))
    slot = np.empty(order.size, dtype=np.intp)
    slot[order] = np.arange(order.size)
    upper, lower, diag = np.split(slot, [key.size, 2 * key.size])
    slots = np.empty((m, nv, nv), dtype=np.intp)
    node_diag = np.zeros(n_nodes, dtype=np.intp)
    node_diag[used] = diag
    local = np.arange(nv)
    slots[:, local, local] = node_diag[elements]
    edge = edge.reshape(m, -1)
    forward = a < b
    slots[:, edges[:, 0], edges[:, 1]] = np.where(forward, upper[edge], lower[edge])
    slots[:, edges[:, 1], edges[:, 0]] = np.where(forward, lower[edge], upper[edge])
    indptr = np.zeros(n_nodes + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n_nodes), out=indptr[1:])
    return indptr, cols[order], rows[order], slots


def _arrays(mesh, seed, n_unused):
    """Arrays of the mesh with n_unused extra nodes, nodes relabelled and
    elements shuffled."""
    rng = np.random.default_rng(seed)
    n = mesh.n_nodes + n_unused
    node_of = rng.permutation(n)[:mesh.n_nodes]          # old node i becomes node_of[i]
    nodes = rng.uniform(0.0, 1.0, size=(n, mesh.dim))
    nodes[node_of] = mesh.nodes
    rows = rng.permutation(mesh.n_elements)              # new element r is old rows[r]
    new_index = np.argsort(rows)
    boundary = [(int(new_index[e]), lf, tag) for e, lf, tag in mesh.boundary_faces]
    return mesh.dim, nodes, node_of[mesh.elements][rows], boundary


@st.composite
def _meshes(draw):
    kind = draw(st.sampled_from(["structured", "perturbed 2d", "perturbed 3d"]))
    counts = draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))
    seed = draw(st.integers(0, 2**16))
    if kind == "structured":
        dim = draw(st.sampled_from([2, 3]))
        base = generate_structured(dim, *counts[:dim])
    elif kind == "perturbed 2d":
        base = cylinder_benchmark_mesh(n=draw(st.integers(1, 8)), seed=seed)
    else:
        base = jittered_mesh([min(c, 3) for c in counts], seed, amplitude=0.1)
    return _arrays(base, seed, draw(st.integers(0, 5)))


@settings(max_examples=60, deadline=None)
@given(arrays=_meshes())
def test_pattern_matches_unique_builder(arrays):
    mesh = Mesh.build(*arrays)
    p = mesh.pattern
    indptr, indices, rows, slots = _unique_pattern(mesh.n_nodes, np.array(mesh.elements))
    index = p.indices.dtype
    assert index == np.int32
    assert p.indptr.dtype == p.rows.dtype == p.slots.dtype == index
    assert np.array_equal(p.indptr, indptr)
    assert np.array_equal(p.indices, indices)
    assert np.array_equal(p.rows, rows)
    assert np.array_equal(p.slots, slots)


def _block_results(arrays, block, levelset, mode):
    with mock.patch.object(mesh_mod, "_ROW_BLOCK", block):
        mesh = Mesh.build(*arrays)
        asm = assemble_global(mesh, levelset, MATS, mode, box_boundary(mesh.dim))
        return (mesh.grads, mesh.char_lengths, asm.matrix.data, asm.matrix.indices,
                asm.matrix.indptr, asm.rhs, asm.cut_data.recovery, asm.fallback_elements)


@settings(max_examples=40, deadline=None)
@given(arrays=_meshes(), mode=st.sampled_from(MODES),
       centre=st.lists(st.floats(0.2, 0.8), min_size=3, max_size=3),
       radius=st.floats(0.1, 0.45), planar=st.booleans())
def test_block_size_leaves_every_bit(arrays, mode, centre, radius, planar):
    dim = arrays[0]
    centre = np.array(centre[:dim])
    if planar:
        levelset = PlaneLevelSet(centre, np.arange(1.0, dim + 1.0))
    else:
        levelset = (CircleLevelSet if dim == 2 else SphereLevelSet)(centre, radius)
    want = _block_results(arrays, mesh_mod._ROW_BLOCK, levelset, mode)
    for block in (1, 7):
        got = _block_results(arrays, block, levelset, mode)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
            assert np.asarray(a).dtype == np.asarray(b).dtype


def test_first_assembly_peak_memory_is_bounded():
    # tracemalloc counts bytes, not RSS, so the peak is deterministic; it read
    # 13.9 MB when the mesh arrays and the scatter went to row blocks, and
    # 19.9 MB with full-size temporaries
    mesh = generate_structured(3, 16)
    tracemalloc.start()
    try:
        assemble_global(mesh, sphere_levelset(), MATS, "efem", box_boundary(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17.5 * 2**20
