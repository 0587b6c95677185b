"""Property tests of mesh construction and mesh file I/O against oracles.

Construction: the oracle pairs faces with a dict keyed by sorted node
tuples, visiting elements and local faces in order: the first visit is the
first slot, the second visit the second.  Relabelled, rotated and
corrupted meshes also build bit for bit, or fail with the same message, as
under the lexsort builder that the one-row-sort Mesh.build replaced.

File I/O: the oracles are row-at-a-time copies of the reader and writer
that the one-pass ones replaced.  Files read back bit for bit as the old
reader read them, and malformed files raise its exact message; the only
new rejections are negative header counts, counts past the end of the
file, and non-finite coordinates.
"""

import itertools
import math
import tempfile
import warnings
from importlib import resources
from itertools import accumulate
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efem import mesh as mesh_io
from efem.mesh import Mesh, MeshError, generate_structured, local_faces, read_mesh, signed_measures
from efem.mesh import write_mesh
from efem.oracles import cylinder_benchmark_mesh, jittered_mesh

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


# ---------------------------------------------------------------------------
# construction against the lexsort builder
#
# _lexsort_build is the builder that the one-row-sort Mesh.build replaced:
# it sorts the rows once to find repeated nodes, sorts every face key again
# and pairs the keys with a d-column lexsort.  Both must give the same
# arrays bit for bit, or the same MeshError text.


def _lexsort_build(dim, nodes, elements, boundary_faces):
    """(face_keys, face_first, face_second) of the lexsort builder."""
    nodes = np.ascontiguousarray(nodes, dtype=float)
    elements = np.ascontiguousarray(elements, dtype=np.int64)
    bad = np.flatnonzero(~np.isfinite(nodes).all(axis=1))
    if bad.size:
        raise MeshError(f"node {int(bad[0])} has a non-finite coordinate")
    n, nf = nodes.shape[0], dim + 1
    out = (elements < 0) | (elements >= n)
    bad = np.flatnonzero(out.any(axis=1))
    if bad.size:
        e = int(bad[0])
        raise MeshError(f"element {e} references node {int(elements[e][out[e]][0])} "
                        f"but mesh has {n} nodes")
    conn = np.sort(elements, axis=1)
    bad = np.flatnonzero((conn[:, 1:] == conn[:, :-1]).any(axis=1))
    if bad.size:
        raise MeshError(f"element {int(bad[0])} has repeated node indices")
    vols = signed_measures(nodes[elements])
    bad = np.nonzero(vols <= 0.0)[0]
    if bad.size:
        raise MeshError(f"element {int(bad[0])} is not positively oriented "
                        f"(signed measure {vols[int(bad[0])]:.3e}); fix the input ordering")

    keys = np.sort(elements[:, np.array(local_faces(dim))], axis=2).reshape(-1, dim)
    order = np.lexsort(keys.T[::-1])
    k = keys[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (k[1:] != k[:-1]).any(axis=1)
    start = np.flatnonzero(new)
    count = np.diff(np.append(start, order.size))
    if (count > 2).any():
        third = order[start[count > 2] + 2].min()
        raise MeshError(f"face {tuple(int(i) for i in keys[third])} "
                        "is shared by more than two elements")
    first = order[start]
    second = np.where(count == 2, order[np.minimum(start + 1, order.size - 1)], -1)
    slot_face = np.empty(order.size, dtype=np.int64)
    slot_face[order] = np.cumsum(new) - 1

    def element_and_face(slot):
        return np.where(slot[:, None] >= 0, np.stack([slot // nf, slot % nf], axis=1), -1)

    face_keys, face_first, face_second = keys[first], element_and_face(first), element_and_face(second)
    tagged = np.zeros(len(face_keys), dtype=bool)
    for e, lf, tag in boundary_faces:
        if not 0 <= e < len(elements):
            raise MeshError(f"boundary face references element {e} out of range")
        if not 0 <= lf < nf:
            raise MeshError(f"boundary face of element {e} has local face {lf} out of range")
        f = slot_face[e * nf + lf]
        if face_second[f, 0] >= 0:
            raise MeshError(f"face {tuple(int(i) for i in face_keys[f])} of element {e} "
                            f"is tagged {tag!r} but is interior")
        tagged[f] = True
    untagged = [f for f in np.flatnonzero((face_second[:, 0] < 0) & ~tagged)]
    if untagged:
        f = min(untagged, key=lambda f: tuple(face_first[f]))
        e, lf = (int(v) for v in face_first[f])
        raise MeshError(f"boundary face {tuple(int(i) for i in face_keys[f])} "
                        f"(element {e}, local face {lf}) has no tag")
    return face_keys, face_first, face_second


def _build_outcome(build, *args):
    """The pairing arrays of a build, bit for bit, or its MeshError text."""
    try:
        out = build(*args)
    except MeshError as exc:
        return str(exc)
    if isinstance(out, Mesh):
        out = out.face_keys, out.face_first, out.face_second
    return [(a.dtype, a.shape, a.tobytes()) for a in out]


def _even_permutations(n):
    return [p for p in itertools.permutations(range(n))
            if sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0]


def _opposite_face(dim, vertex):
    return next(lf for lf, face in enumerate(local_faces(dim)) if vertex not in face)


def _relabel(mesh, rng):
    """The mesh with its nodes and elements shuffled and every element row
    rotated by a random orientation-preserving permutation."""
    dim, nf = mesh.dim, mesh.dim + 1
    node_of = rng.permutation(mesh.n_nodes)              # old node i becomes node_of[i]
    nodes = np.empty_like(mesh.nodes)
    nodes[node_of] = mesh.nodes
    rows = rng.permutation(mesh.n_elements)              # new element r is old rows[r]
    new_index = np.argsort(rows)
    even = np.array(_even_permutations(nf))
    perms = even[rng.integers(0, len(even), mesh.n_elements)]     # new vertex i is old perms[e, i]
    elements = np.take_along_axis(node_of[mesh.elements], perms, axis=1)[rows]
    boundary = []
    for e, lf, tag in mesh.boundary_faces:
        vertex = next(v for v in range(nf) if _opposite_face(dim, v) == lf)
        position = int(np.flatnonzero(perms[e] == vertex)[0])
        boundary.append((int(new_index[e]), _opposite_face(dim, position), tag))
    rng.shuffle(boundary)
    return dim, nodes, elements, boundary


def _corrupt(kind, dim, nodes, elements, boundary, rng):
    """One fault of the given kind in a copy of valid mesh arrays."""
    elements, boundary = np.array(elements), list(boundary)
    e = int(rng.integers(len(elements)))
    if kind == "third element on a face":            # a copy of e: its inner faces get three
        elements = np.vstack([elements, elements[e]])
    elif kind == "repeated node":
        a, b = rng.choice(dim + 1, 2, replace=False)
        elements[e, a] = elements[e, b]
    elif kind == "inverted element":
        elements[e, [0, 1]] = elements[e, [1, 0]]
    elif kind == "tagged interior face":
        _, first, second = _lexsort_build(dim, nodes, elements, boundary)
        inner = np.flatnonzero(second[:, 0] >= 0)
        f = inner[rng.integers(inner.size)]
        slot = first[f] if rng.random() < 0.5 else second[f]
        boundary.insert(int(rng.integers(len(boundary) + 1)), (*map(int, slot), "inner"))
    elif kind == "untagged boundary face":
        del boundary[int(rng.integers(len(boundary)))]
    return dim, nodes, elements, boundary


_CORRUPTIONS = ("third element on a face", "repeated node", "inverted element",
                "tagged interior face", "untagged boundary face")


def _base_mesh_strategy():
    structured = st.builds(
        lambda dim, n: generate_structured(dim, *n[:dim]),
        st.sampled_from([2, 3]), st.lists(st.integers(1, 3), min_size=3, max_size=3))
    perturbed_2d = st.builds(lambda n, seed: cylinder_benchmark_mesh(n=n, seed=seed),
                             st.integers(1, 6), st.integers(0, 2**16))
    perturbed_3d = st.builds(lambda n, seed: jittered_mesh(n, seed, amplitude=0.1),
                             st.lists(st.integers(1, 3), min_size=3, max_size=3),
                             st.integers(0, 2**16))
    return st.one_of(structured, perturbed_2d, perturbed_3d)


@settings(max_examples=60, deadline=None)
@given(mesh=_base_mesh_strategy(), seed=st.integers(0, 2**32 - 1),
       corruption=st.sampled_from([None, *_CORRUPTIONS]))
def test_build_matches_lexsort_builder(mesh, seed, corruption):
    rng = np.random.default_rng(seed)
    args = _relabel(mesh, rng)
    if corruption is not None:
        args = _corrupt(corruption, *args, rng)
    new, old = _build_outcome(Mesh.build, *args), _build_outcome(_lexsort_build, *args)
    assert new == old
    assert isinstance(new, str) == (corruption is not None)


def test_packed_keys_stay_exact_past_2_21_nodes():
    # (a * n + b) * n + c overflows int64 for keys near n once n >= 2**21
    n = 2**21 + 8
    assert n**3 > 2**63
    nodes = np.zeros((n, 3))
    ids = [n - 1, n - 3, n - 2, n - 5, n - 4]
    nodes[ids] = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1]]
    elements = np.array([[ids[0], ids[1], ids[2], ids[3]], [ids[0], ids[2], ids[1], ids[4]]])
    tags = [(e, lf, "outer") for e in range(2) for lf in range(4)
            if sorted(elements[e][list(local_faces(3)[lf])]) != sorted(ids[:3])]
    mesh = Mesh.build(3, nodes, elements, tags)
    assert _build_outcome(Mesh.build, 3, nodes, elements, tags) == _build_outcome(
        _lexsort_build, 3, nodes, elements, tags)
    keys = [tuple(k) for k in mesh.face_keys.tolist()]
    assert keys == sorted(keys) and len(keys) == 7
    assert (mesh.face_keys >= n - 5).all()


# ---------------------------------------------------------------------------
# file I/O


def _oracle_write_mesh(mesh, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{mesh.dim} {mesh.n_nodes} {mesh.n_elements} {len(mesh.boundary_faces)}\n")
        for x in mesh.nodes:
            f.write(" ".join(f"{v:.17g}" for v in x) + "\n")
        for conn in mesh.elements:
            f.write(" ".join(str(int(c)) for c in conn) + "\n")
        for e, lf, tag in mesh.boundary_faces:
            f.write(f"{e} {lf} {tag}\n")


def _oracle_read_mesh(path):
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                rows.append((lineno, text.split()))

    def take(what):
        if not rows:
            raise MeshError(f"unexpected end of file: expected {what}")
        return rows.pop(0)

    lineno, head = take("header 'dim n_nodes n_elements n_boundary_faces'")
    try:
        dim, n_nodes, n_elems, n_bfaces = (int(t) for t in head)
    except (ValueError, TypeError):
        raise MeshError(f"line {lineno}: malformed header {' '.join(head)!r}")
    if dim not in (2, 3):
        raise MeshError(f"line {lineno}: dim must be 2 or 3, got {dim}")

    nodes = np.empty((n_nodes, dim))
    for i in range(n_nodes):
        lineno, toks = take(f"node {i}")
        if len(toks) != dim:
            raise MeshError(f"line {lineno}: node {i} needs {dim} coordinates, got {len(toks)}")
        try:
            nodes[i] = [float(t) for t in toks]
        except ValueError:
            raise MeshError(f"line {lineno}: bad coordinate in node {i}")

    elements = np.empty((n_elems, dim + 1), dtype=np.int64)
    for e in range(n_elems):
        lineno, toks = take(f"element {e}")
        if len(toks) != dim + 1:
            raise MeshError(f"line {lineno}: element {e} needs {dim + 1} node indices, got {len(toks)}")
        try:
            elements[e] = [int(t) for t in toks]
        except ValueError:
            raise MeshError(f"line {lineno}: bad node index in element {e}")

    boundary = []
    for b in range(n_bfaces):
        lineno, toks = take(f"boundary face {b}")
        if len(toks) != 3:
            raise MeshError(f"line {lineno}: boundary face {b} needs 'element local_face tag'")
        try:
            boundary.append((int(toks[0]), int(toks[1]), toks[2]))
        except ValueError:
            raise MeshError(f"line {lineno}: bad boundary face {b}")

    if rows:
        raise MeshError(f"line {rows[0][0]}: trailing content after mesh data")
    return Mesh.build(dim, nodes, elements, boundary)


def _outcome(read, path):
    """What a reader makes of a file: its mesh, bit for bit, or its MeshError text."""
    try:
        m = read(path)
    except MeshError as exc:
        return str(exc)
    return (m.dim, m.nodes.dtype, m.nodes.shape, m.nodes.tobytes(), m.elements.dtype,
            m.elements.shape, m.elements.tobytes(), m.boundary_faces)


def _rows(path):
    """(line number, tokens) of each row of a mesh file that holds tokens."""
    rows = [(i, line.split("#", 1)[0].split())
            for i, line in enumerate(Path(path).read_text("utf-8").split("\n"), start=1)]
    return [r for r in rows if r[1]]


def _new_rejection(path):
    """The message for a negative header count or a count past the end of the file.

    None where the reader must give the old reader's outcome.
    """
    rows = _rows(path)
    try:
        dim, *counts = (int(t) for t in rows[0][1])
    except (IndexError, ValueError):
        return None
    if len(counts) != 3 or dim not in (2, 3):
        return None
    for name, n in zip(("n_nodes", "n_elements", "n_boundary_faces"), counts):
        if n < 0:
            return f"line {rows[0][0]}: {name} must be non-negative, got {n}"
    missing = len(rows) - 1
    for what, n in zip(("node", "element", "boundary face"), counts):
        if missing < n:
            return f"unexpected end of file: expected {what} {missing}"
        missing -= n
    return None


_HUGE = 99999999999          # a count the old reader tried to allocate


def _check_against_oracle(path):
    new, want = _outcome(read_mesh, path), _new_rejection(path)
    if want is None:
        assert new == _outcome(_oracle_read_mesh, path)
        return
    assert new == want
    if want.startswith("unexpected end of file") and _HUGE not in map(int, _rows(path)[0][1]):
        old = _outcome(_oracle_read_mesh, path)     # a short file: the same end, or an earlier fault
        assert old == new or not old.startswith("unexpected end of file")


_SEPARATORS = (" ", "  ", "\t", " \t ", "\x0b", "\x0c")


def _decorate(lines, rnd):
    """Rewrite mesh file lines with comments, blank lines, tabs and mixed line ends."""
    end = rnd.choice(["\n", "\r\n", "\r"])
    out = []
    for line in lines:
        if rnd.random() < 0.2:
            out.append(rnd.choice(["", "   ", "\t", "# a comment line", "  # 1 2 3"]))
        toks = line.split(" ")
        sep = rnd.choice(_SEPARATORS) if rnd.random() < 0.3 else " "
        line = rnd.choice(["", " ", "\t"]) + sep.join(toks)
        if rnd.random() < 0.2:
            line += rnd.choice(["  # trailing note", "#x y z", "\t#"])
        out.append(line)
    return end.join(out) + (end if rnd.random() < 0.8 else "")


def _mesh_strategy():
    structured = st.builds(
        lambda dim, n, lo, w: generate_structured(dim, *n[:dim], box=tuple(
            v for a, b in zip(lo[:dim], w[:dim]) for v in (a, a + b))),
        st.sampled_from([2, 3]), st.lists(st.integers(1, 3), min_size=3, max_size=3),
        st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
        st.lists(st.floats(0.1, 4.0), min_size=3, max_size=3))
    perturbed = st.builds(lambda n, seed: cylinder_benchmark_mesh(n=n, seed=seed),
                          st.integers(1, 6), st.integers(0, 2**16))
    return st.one_of(structured, perturbed)


def _write(tmp, text):
    path = Path(tmp) / "mesh.msh"
    path.write_bytes(text.encode())
    return path


@settings(max_examples=60, deadline=None)
@given(mesh=_mesh_strategy(), rnd=st.randoms(use_true_random=False),
       rows_per_write=st.sampled_from([mesh_io._ROW_BLOCK, 1, 5]))
def test_round_trip_matches_oracle(mesh, rnd, rows_per_write):
    _round_trip_case(mesh, rnd, rows_per_write)


@settings(max_examples=60, deadline=None)
@given(mesh=_mesh_strategy(), rnd=st.randoms(use_true_random=False),
       rows_per_write=st.sampled_from([mesh_io._ROW_BLOCK, 1, 5]))
def test_round_trip_matches_oracle_token_by_token(mesh, rnd, rows_per_write):
    with _c_parser_refuses():
        _round_trip_case(mesh, rnd, rows_per_write)


def _c_parser_refuses():
    """numpy's C text reader refusing every block: each block takes the token-by-token path."""
    return mock.patch.object(mesh_io, "_c_parse", lambda *args: None)


def _round_trip_case(mesh, rnd, rows_per_write):
    with tempfile.TemporaryDirectory() as tmp:
        plain, old = Path(tmp) / "new.msh", Path(tmp) / "old.msh"
        with mock.patch.object(mesh_io, "_ROW_BLOCK", rows_per_write):
            write_mesh(mesh, plain)
        _oracle_write_mesh(mesh, old)
        assert plain.read_bytes() == old.read_bytes()
        back = read_mesh(plain)
        assert back.nodes.tobytes() == mesh.nodes.tobytes()
        assert np.array_equal(back.elements, mesh.elements)
        assert back.boundary_faces == mesh.boundary_faces

        path = _write(tmp, _decorate(plain.read_text().split("\n")[:-1], rnd))
        assert _outcome(read_mesh, path) == _outcome(_oracle_read_mesh, path) == _outcome(
            read_mesh, plain)


_BAD_FLOATS = ("x", "1.0.0", "--1", "0x1", "1,5", "e")
_BAD_INTS = ("1.0", "x", "1e3", "0x1", "--1", "2.")


def _mutate(lines, counts, rnd):
    """One or two faults in the lines of a clean file with counts rows per block."""
    rows = [line.split(" ") for line in lines]
    ends = list(accumulate([1, *counts]))           # block k is rows[ends[k]:ends[k + 1]]
    for _ in range(rnd.choice([1, 2])):
        if not rows:
            break
        kind = rnd.choice(["drop", "add", "bad", "bad+size", "truncate", "trailing", "header"])
        r = rnd.randrange(len(rows))
        blocks = [k for k in range(3) if min(ends[k + 1], len(rows)) > ends[k]]
        if kind.startswith("bad") and blocks:
            # a bad token, and for bad+size a wrong row length in the same block
            k = rnd.choice(blocks)
            r, r2 = sorted(rnd.randrange(ends[k], min(ends[k + 1], len(rows))) for _ in range(2))
            if kind == "bad+size":
                rows[r2].append("0")
                r, r2 = (r, r2) if rnd.random() < 0.5 else (r2, r)
            c = rnd.randrange(min(len(rows[r]), 2 if k == 2 else 4))
            rows[r][c] = rnd.choice(_BAD_FLOATS if k == 0 else _BAD_INTS)
        elif kind == "drop" and rows[r]:
            del rows[r][rnd.randrange(len(rows[r]))]
        elif kind == "add":
            rows[r].insert(rnd.randrange(len(rows[r]) + 1), rnd.choice(["0", "1", "left"]))
        elif kind == "truncate":
            rows = rows[:r]
        elif kind == "trailing":
            rows.append(rnd.choice(["0 0", "junk", "1 2 3"]).split(" "))
        elif kind == "header" and rows[0]:
            c = rnd.randrange(len(rows[0]))
            old = int(rows[0][c]) if rows[0][c].isdigit() else 2
            rows[0][c] = str(rnd.choice([old - 1, old + 1, -1, -old - 1, old + 2, _HUGE, 1, 4])
                             if c else rnd.choice([1, 4, 0, -2, 3 if old == 2 else 2]))
            if rnd.random() < 0.2:
                rows[0][c] = rnd.choice(["x", "2.0", "+2"])
    return [" ".join(t) for t in rows]


@settings(max_examples=200, deadline=None)
@given(mesh=_mesh_strategy(), rnd=st.randoms(use_true_random=False),
       decorate=st.booleans(), cut=st.floats(0.0, 1.0))
def test_mutated_file_error_matches_oracle(mesh, rnd, decorate, cut):
    _mutated_file_case(mesh, rnd, decorate, cut)


@settings(max_examples=200, deadline=None)
@given(mesh=_mesh_strategy(), rnd=st.randoms(use_true_random=False),
       decorate=st.booleans(), cut=st.floats(0.0, 1.0))
def test_mutated_file_error_matches_oracle_token_by_token(mesh, rnd, decorate, cut):
    with _c_parser_refuses():
        _mutated_file_case(mesh, rnd, decorate, cut)


def _mutated_file_case(mesh, rnd, decorate, cut):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clean.msh"
        write_mesh(mesh, path)
        counts = (mesh.n_nodes, mesh.n_elements, len(mesh.boundary_faces))
        lines = _mutate(path.read_text().split("\n")[:-1], counts, rnd)
        text = _decorate(lines, rnd) if decorate else "\n".join(lines) + "\n"
        if rnd.random() < 0.1:
            text = text[:int(cut * len(text))]
        _check_against_oracle(_write(tmp, text))


@pytest.mark.parametrize("source", ["bundled", *range(1, 11)])
def test_benchmark_meshes_read_as_oracle(tmp_path, source):
    if source == "bundled":
        with resources.as_file(resources.files("efem") / "cases" / "cylinder_h0375.msh") as p:
            assert _outcome(read_mesh, p) == _outcome(_oracle_read_mesh, p)
        return
    path = tmp_path / "bench.msh"
    write_mesh(cylinder_benchmark_mesh(n=100, seed=source), path)
    assert _outcome(read_mesh, path) == _outcome(_oracle_read_mesh, path)


# ---------------------------------------------------------------------------
# numpy's C text reader against the token-by-token path
#
# read_mesh parses the node and the element block with numpy's C text
# reader and falls back to Python's float() and int(), token by token, on a
# block the reader refuses.  Tokens that only Python takes must send their
# block down that path and read as the oracle reads them.

_UNICODE_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")     # Arabic-Indic
_SPACES = ("\x0b", "\x0c", "\x1c", "\x85", "\xa0", " ", "　")


def _python_only(token, rnd):
    """token rewritten as float() and int() read it but numpy's C reader does not."""
    pairs = [i for i in range(1, len(token)) if token[i - 1].isdigit() and token[i].isdigit()]
    kind = rnd.choice(["underscore", "unicode digits", "both"] if pairs else ["unicode digits"])
    if kind != "unicode digits":
        i = rnd.choice(pairs)
        token = token[:i] + "_" + token[i:]
    if kind != "underscore":
        token = token.translate(_UNICODE_DIGITS)
    return token


def _respell(line, rnd, python_only):
    """line with separators Python and numpy both split at, a '+' sign, or Python-only tokens."""
    toks = line.split(" ")
    c = rnd.randrange(len(toks))
    if python_only:
        toks[c] = _python_only(toks[c], rnd)
    elif not toks[c].startswith("-") and rnd.random() < 0.5:
        toks[c] = "+" + toks[c]
    return rnd.choice([" ", *_SPACES]).join(toks) + rnd.choice(["", *_SPACES])


@settings(max_examples=60, deadline=None)
@given(mesh=_mesh_strategy(), rnd=st.randoms(use_true_random=False))
def test_python_only_tokens_read_as_oracle(mesh, rnd):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clean.msh"
        write_mesh(mesh, path)
        lines = path.read_text().split("\n")[:-1]
        ends = list(accumulate([1, mesh.n_nodes, mesh.n_elements]))
        refused = set()
        for k in range(2):
            for r in rnd.sample(range(ends[k], ends[k + 1]), min(3, ends[k + 1] - ends[k])):
                python_only = rnd.random() < 0.5
                lines[r] = _respell(lines[r], rnd, python_only)
                refused |= {k} if python_only else set()
        path = _write(tmp, "\n".join(lines) + "\n")
        with mock.patch.object(mesh_io, "_token_parse", wraps=mesh_io._token_parse) as slow:
            new = _outcome(read_mesh, path)
        assert new == _outcome(_oracle_read_mesh, path) == _outcome(read_mesh, _write(
            tmp, "\n".join(" ".join(t) for _, t in _rows(path)) + "\n"))
        # the boundary block always goes token by token; a node or element block only if refused
        assert slow.call_count == 1 + len(refused)
        assert isinstance(new, tuple)


def test_clean_file_parses_nodes_and_elements_in_c(tmp_path):
    path = tmp_path / "bench.msh"
    write_mesh(cylinder_benchmark_mesh(n=20), path)
    with mock.patch.object(mesh_io, "_token_parse", wraps=mesh_io._token_parse) as slow:
        read_mesh(path)
    assert slow.call_count == 1
    assert slow.call_args.args[1] == 3          # the boundary face block


def _bundled_meshes():
    return sorted(p.name for p in (resources.files("efem") / "cases").iterdir()
                  if p.name.endswith(".msh"))


@pytest.mark.parametrize("c_parser", ["on", "refusing"])
@pytest.mark.parametrize("name", _bundled_meshes())
def test_bundled_meshes_read_as_oracle(name, c_parser):
    with resources.as_file(resources.files("efem") / "cases" / name) as p:
        want = _outcome(_oracle_read_mesh, p)
        if c_parser == "refusing":
            with _c_parser_refuses():
                assert _outcome(read_mesh, p) == want
        else:
            assert _outcome(read_mesh, p) == want
        assert isinstance(want, tuple)


def test_c_parser_warning_sends_block_token_by_token(tmp_path):
    # numpy 1.23-1.26 parse an int token such as '2.' through a float and
    # only warn; the warning must count as a refusal
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return loadtxt(*args, **kwargs)

    path = tmp_path / "bench.msh"
    write_mesh(cylinder_benchmark_mesh(n=4), path)
    with (mock.patch.object(mesh_io.np, "loadtxt", warning_loadtxt),
          mock.patch.object(mesh_io, "_token_parse", wraps=mesh_io._token_parse) as slow):
        got = _outcome(read_mesh, path)
    assert slow.call_count == 3
    assert got == _outcome(_oracle_read_mesh, path)
