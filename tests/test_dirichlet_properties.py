"""The Dirichlet elimination through the pattern's mirror slots, bit for bit.

efem_core._apply_dirichlet reads only the Dirichlet rows' slots and their
mirrors.  The whole-pattern scan it replaced (flags of every column index,
then a searchsorted of the flagged slots into indptr for their rows) is
kept here as the reference.  Both must leave the same bits in data and rhs
for random data and values (signed zeros included), for every ascending
subset of the boundary nodes, on structured and jittered meshes in 2D and
3D and on the bundled perturbed cylinder mesh.
"""

from functools import lru_cache
from importlib import resources

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from efem import efem_core
from efem.mesh import generate_structured, read_mesh
from efem.oracles import jittered_mesh


def scan_apply_dirichlet(pattern, data, rhs, nodes, values):
    """The elimination by a scan of every column index of the pattern."""
    n = rhs.shape[0]
    isdir = np.zeros(n, dtype=bool)
    isdir[nodes] = True
    val_of = np.zeros(n)
    val_of[nodes] = values
    indptr, indices = pattern.indptr, pattern.indices

    m = np.flatnonzero(isdir[indices])
    np.subtract.at(rhs, np.searchsorted(indptr, m, "right") - 1, data[m] * val_of[indices[m]])
    data[m] = 0.0

    start = indptr[nodes]
    count = indptr[nodes + 1] - start
    row = np.repeat(nodes, count)
    at = np.arange(row.size) + np.repeat(start - (np.cumsum(count) - count), count)
    data[at] = 0.0
    data[at[indices[at] == row]] = 1.0
    rhs[nodes] = values


@lru_cache(maxsize=None)
def _mesh(kind, counts, seed):
    if kind == "cylinder":
        with resources.as_file(resources.files("efem").joinpath(
                "cases", "cylinder_h0375.msh")) as path:
            return read_mesh(path)
    if kind == "structured":
        return generate_structured(len(counts), *counts)
    return jittered_mesh(counts, seed, amplitude=0.1)


meshes = st.one_of(
    st.tuples(st.just("cylinder"), st.just(()), st.just(0)),
    st.tuples(st.sampled_from(["structured", "jittered"]),
              st.one_of(st.tuples(st.integers(1, 9), st.integers(1, 9)),
                        st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))),
              st.integers(0, 3)))


def _random_values(rng, size):
    """Normal values over six decades, a quarter of them +0.0 or -0.0."""
    v = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 3, size)
    zero = rng.random(size) < 0.25
    v[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    return v


@settings(max_examples=80, deadline=None)
@given(spec=meshes, seed=st.integers(0, 2**32 - 1), every=st.booleans())
def test_mirror_elimination_matches_the_pattern_scan(spec, seed, every):
    mesh = _mesh(*spec)
    pattern = mesh.pattern
    rng = np.random.default_rng(seed)
    boundary = np.unique(mesh.boundary_node_tags[0])
    k = boundary.size if every else int(rng.integers(1, boundary.size + 1))
    nodes = np.sort(rng.choice(boundary, k, replace=False))
    values = _random_values(rng, k)
    data = _random_values(rng, pattern.nnz)
    rhs = _random_values(rng, mesh.n_nodes)

    want_data, want_rhs = data.copy(), rhs.copy()
    scan_apply_dirichlet(pattern, want_data, want_rhs, nodes, values)
    efem_core._apply_dirichlet(pattern, data, rhs, nodes, values)
    assert np.array_equal(data.view(np.int64), want_data.view(np.int64))
    assert np.array_equal(rhs.view(np.int64), want_rhs.view(np.int64))


@settings(max_examples=40, deadline=None)
@given(spec=meshes)
def test_each_mirror_slot_holds_the_transposed_entry(spec):
    pattern = _mesh(*spec).pattern
    mirror = pattern.mirror
    row = np.repeat(np.arange(pattern.indptr.size - 1), np.diff(pattern.indptr))
    assert mirror.dtype == pattern.indices.dtype and not mirror.flags.writeable
    assert np.array_equal(row[mirror], pattern.indices)
    assert np.array_equal(pattern.indices[mirror], row)
    assert np.array_equal(mirror[mirror], np.arange(pattern.nnz))
