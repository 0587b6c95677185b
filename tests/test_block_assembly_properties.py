"""Property tests of the mesh arrays and the assembly built in row blocks.

mesh.grads, mesh.char_lengths, the P1 pattern and the assembly scatter are built
one block of mesh._ROW_BLOCK elements at a time, or one local edge at a
time.  On random 2D and 3D meshes with unused nodes and shuffled element
order, the pattern equals an in-test copy of the np.unique builder it
replaced, and the gradients, lengths, matrix and rhs are bit for bit the
same at every block size.  The assembly, which starts from the mesh's unit
stiffness and sums again only the entries near the negative side, matches
an in-test copy of the scatter over every element: bit for bit when eps1 is
a power of two, and otherwise within the rounding bound of a sum of the
same terms, (k + 2) eps times an entry's sum of |terms| over its k terms.
A tracemalloc guard keeps the first assembly on a mesh within bounded
memory.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from efem import mesh as mesh_mod
from efem.efem_core import (CONDENSE_GUARD, MODES, MaterialPair, _collect_dirichlet,
                            assemble_global, condense, element_displacement_terms,
                            element_matrices)
from efem.interface import (CircleLevelSet, NodalLevelSet, PlaneLevelSet, SphereLevelSet,
                            classify_elements, split_simplex)
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
    faces = np.stack([new_index[mesh.boundary_faces[:, 0]], mesh.boundary_faces[:, 1]], axis=1)
    return mesh.dim, nodes, node_of[mesh.elements][rows], faces, mesh.boundary_tags


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
    assert p.indptr.dtype == p.slots.dtype == index
    assert np.array_equal(p.indptr, indptr)
    assert np.array_equal(p.indices, indices)
    assert np.array_equal(np.repeat(np.arange(mesh.n_nodes), np.diff(p.indptr)), rows)
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


def _reference_dirichlet(pattern, data, nodes, values):
    """The rhs of the row-identity and column elimination, applied to data in
    place, with the row of every CSR position spelled out."""
    n = pattern.indptr.size - 1
    isdir = np.zeros(n, dtype=bool)
    isdir[nodes] = True
    val_of = np.zeros(n)
    val_of[nodes] = values
    indices = pattern.indices
    row_of = np.repeat(np.arange(n), np.diff(pattern.indptr))
    rhs = np.zeros(n)
    m = isdir[indices] & ~isdir[row_of]
    np.subtract.at(rhs, row_of[m], data[m] * val_of[indices[m]])
    data[m] = 0.0
    rdir = isdir[row_of]
    data[rdir] = 0.0
    data[rdir & (indices == row_of)] = 1.0
    rhs[nodes] = values
    return rhs


def _scatter_over_every_element(mesh, levelset, materials, mode, boundary):
    """Matrix data and rhs as assemble_global built them with one scatter of
    every element's block, and how far a sum of the same terms in another
    rounding may move each.

    An entry of k terms t_e = g_e (eps1 m_e), summed in order, and eps1 times
    the sum of g_e m_e each lie within (k + 1) u of the exact sum, relative
    to S = sum |t_e| (u = eps / 2), so they differ by at most (k + 1) eps S;
    (k + 2) eps S leaves room for the second-order terms.  A row of the rhs
    sums its j eliminated columns data * value: it moves by the columns'
    bounds times |value|, plus (j + 2) eps sum |data * value| of rounding.
    """
    cl = classify_elements(mesh, levelset)
    eps1, eps2 = materials.eps1, materials.eps2
    weight = np.where(cl.element_sign > 0, eps1, eps2) * mesh.measures
    cut = cl.cut_elements
    deco = split_simplex(mesh.nodes[mesh.elements[cut]], cl.d[mesh.elements[cut]])
    weight[cut] = sum(np.where(s > 0, eps1, eps2) * m
                      for m, s in zip(deco.child_measure.T, deco.child_sign.T))
    live = np.flatnonzero(~deco.degenerate & (mode != "standard"))
    kept, g = deco.take(live), mesh.grads[cut[live]]
    B, kenr = element_matrices(g, materials, kept)
    D, denr = element_displacement_terms(g, materials, kept) if mode == "efem" else (0.0, 0.0)
    recovery, margins = condense(B, kenr, D, denr)
    ok = margins > CONDENSE_GUARD
    g = mesh.grads
    blocks = np.matmul(g, np.ascontiguousarray(g.transpose(0, 2, 1)))
    blocks *= weight[:, None, None]
    blocks[cut[live[ok]]] += B[ok, :, None] * recovery[ok, None, :]
    p = mesh.pattern
    data, size, count = np.zeros(p.nnz), np.zeros(p.nnz), np.zeros(p.nnz)
    np.add.at(data, p.slots.ravel(), blocks.ravel())
    np.add.at(size, p.slots.ravel(), np.abs(blocks).ravel())
    np.add.at(count, p.slots.ravel(), 1.0)
    eps = np.finfo(float).eps
    data_tol = (count + 2) * eps * size
    nodes, values = _collect_dirichlet(mesh, boundary)
    rhs_size = np.abs(_reference_dirichlet(p, np.abs(data), nodes, np.abs(values)))
    rhs_tol = (np.abs(_reference_dirichlet(p, data_tol.copy(), nodes, np.abs(values)))
               + (np.diff(p.indptr) + 2) * eps * rhs_size)
    rhs = _reference_dirichlet(p, data, nodes, values)
    return data, rhs, data_tol, rhs_tol


@settings(max_examples=60, deadline=None)
@given(arrays=_meshes(), mode=st.sampled_from(MODES),
       centre=st.lists(st.floats(0.2, 0.8), min_size=3, max_size=3),
       radius=st.floats(0.1, 0.45), shape=st.sampled_from(["ball", "inverted ball", "plane"]),
       eps1=st.one_of(st.sampled_from([1.0, 0.5, 4.0]), st.floats(0.01, 100.0)),
       eps2=st.floats(0.01, 100.0))
def test_assembly_matches_the_scatter_over_every_element(arrays, mode, centre, radius, shape,
                                                         eps1, eps2):
    mesh = Mesh.build(*arrays)
    dim = mesh.dim
    centre = np.array(centre[:dim])
    if shape == "plane":
        levelset = PlaneLevelSet(centre, np.arange(1.0, dim + 1.0))
    else:
        levelset = (CircleLevelSet if dim == 2 else SphereLevelSet)(centre, radius)
        if shape == "inverted ball":            # the negative side is the outside
            levelset = NodalLevelSet(-levelset.evaluate(mesh.nodes))
    materials, boundary = MaterialPair(eps1, eps2), box_boundary(dim)
    A = assemble_global(mesh, levelset, materials, mode, boundary)
    data, rhs, data_tol, rhs_tol = _scatter_over_every_element(mesh, levelset, materials, mode,
                                                               boundary)
    if eps1 in (1.0, 0.5, 4.0):
        assert A.matrix.data.tobytes() == data.tobytes()
        assert A.rhs.tobytes() == rhs.tobytes()
    else:
        assert np.all(np.abs(A.matrix.data - data) <= data_tol)
        assert np.all(np.abs(A.rhs - rhs) <= rhs_tol)
    # an entry whose row or column node a negative or cut element holds sums
    # its terms as the scatter over every element does, for every eps1
    marked = np.zeros(mesh.n_nodes, dtype=bool)
    marked[mesh.elements[A.classification.element_sign <= 0]] = True
    p = mesh.pattern
    near = np.repeat(marked, np.diff(p.indptr)) | marked[p.indices]
    assert A.matrix.data[near].tobytes() == data[near].tobytes()
    if mode == "standard":
        At = A.matrix.T.tocsr()
        At.sort_indices()
        assert np.array_equal(At.indptr, A.matrix.indptr)
        assert np.array_equal(At.indices, A.matrix.indices)
        assert At.data.tobytes() == A.matrix.data.tobytes()


def test_first_assembly_peak_memory_is_bounded():
    # tracemalloc counts bytes, not RSS, so the peak is deterministic; it read
    # 13.9 MB when the mesh arrays and the scatter went to row blocks, and
    # 19.9 MB with full-size temporaries.  With the unit stiffness cache it
    # reads 13.1 MB for the sphere and 14.2 MB for the inverted sphere, whose
    # negative side, the outside, puts nearly every element in the band
    for inverted in (False, True):
        mesh = generate_structured(3, 16)
        levelset = sphere_levelset()
        if inverted:
            levelset = NodalLevelSet(-levelset.evaluate(mesh.nodes))
        tracemalloc.start()
        try:
            assemble_global(mesh, levelset, MATS, "efem", box_boundary(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17.5 * 2**20
