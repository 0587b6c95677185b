"""Property tests of mesh construction and mesh file I/O against oracles.

Construction: the oracle pairs faces with a dict keyed by sorted node
tuples, visiting elements and local faces in order: the first visit is the
first slot, the second visit the second.

File I/O: the oracles are row-at-a-time copies of the reader and writer
that the one-pass ones replaced.  Files read back bit for bit as the old
reader read them, and malformed files raise its exact message; the only
new rejections are negative header counts, counts past the end of the
file, and non-finite coordinates.
"""

import math
import tempfile
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


# ---------------------------------------------------------------------------
# file I/O


def _oracle_write_mesh(mesh, path):
    with open(path, "w") as f:
        f.write(f"{mesh.dim} {mesh.n_nodes} {mesh.n_elements} {len(mesh.boundary_faces)}\n")
        for x in mesh.nodes:
            f.write(" ".join(f"{v:.17g}" for v in x) + "\n")
        for conn in mesh.elements:
            f.write(" ".join(str(int(c)) for c in conn) + "\n")
        for e, lf, tag in mesh.boundary_faces:
            f.write(f"{e} {lf} {tag}\n")


def _oracle_read_mesh(path):
    rows = []
    with open(path) as f:
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
            for i, line in enumerate(Path(path).read_text().split("\n"), start=1)]
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
       rows_per_write=st.sampled_from([mesh_io._ROWS_PER_WRITE, 1, 5]))
def test_round_trip_matches_oracle(mesh, rnd, rows_per_write):
    with tempfile.TemporaryDirectory() as tmp:
        plain, old = Path(tmp) / "new.msh", Path(tmp) / "old.msh"
        with mock.patch.object(mesh_io, "_ROWS_PER_WRITE", rows_per_write):
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
