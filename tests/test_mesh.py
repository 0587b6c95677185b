"""Structured generation, text round-trips and P1 geometry."""

import hashlib
import re

import numpy as np
import pytest

from efem.mesh import (
    Mesh,
    MeshError,
    face_measure_normal,
    generate_structured,
    local_faces,
    p1_gradients,
    read_mesh,
    signed_measures,
    write_mesh,
)

UNIT_SQUARE_FILE = """\
2 4 2 4
0 0
1 0
1 1    # node comments are ignored
0 1
0 1 2
0 2 3
0 0 bottom
0 1 right
1 1 top
1 2 left
"""


def test_structured_2d_counts():
    mesh = generate_structured(2, 5, 5)
    assert mesh.n_elements == 50
    assert mesh.n_nodes == 36


def test_structured_one_cell_has_single_interior_face():
    mesh = generate_structured(2, 1, 1)
    assert mesh.n_elements == 2
    assert np.count_nonzero(mesh.face_second[:, 0] >= 0) == 1


def test_structured_3d_counts_and_volume():
    mesh = generate_structured(3, 2, 2, 2)
    assert mesh.n_elements == 48
    assert abs(signed_measures(mesh.nodes[mesh.elements]).sum() - 1.0) < 1e-12


def test_structured_measures_positive_and_sum_to_box():
    for dim in (2, 3):
        mesh = generate_structured(dim, 3)
        vols = signed_measures(mesh.nodes[mesh.elements])
        assert (vols > 0).all()
        assert abs(vols.sum() - 1.0) < 1e-10


def test_structured_boundary_tags_cover_all_sides():
    mesh = generate_structured(3, 2, 2, 2)
    tags = {t for _, _, t in mesh.boundary_faces}
    assert tags == {"left", "right", "bottom", "top", "front", "back"}


def test_adjacency_symmetry():
    mesh = generate_structured(2, 4, 4)
    for key, (e1, lf1), (e2, lf2) in zip(mesh.face_keys.tolist(), mesh.face_first.tolist(),
                                         mesh.face_second.tolist()):
        if e2 < 0:
            continue
        assert e1 < e2
        faces = local_faces(2)
        assert sorted(mesh.elements[e1, list(faces[lf1])].tolist()) == key
        assert sorted(mesh.elements[e2, list(faces[lf2])].tolist()) == key


def test_p1_geometry_unit_right_triangle():
    coords = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    assert abs(signed_measures(coords)[0] - 0.5) < 1e-15
    expected = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(p1_gradients(coords)[0], expected, atol=1e-14)


def test_p1_gradients_sum_to_zero():
    rng = np.random.default_rng(7)
    for dim in (2, 3):
        grads = p1_gradients(rng.uniform(-1, 1, size=(20, dim + 1, dim)))
        assert np.abs(grads.sum(axis=1)).max() < 1e-9


def test_p1_geometry_reference_tet():
    coords = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
    assert abs(signed_measures(coords)[0] - 1.0 / 6.0) < 1e-15


def test_partition_of_unity_at_sampled_points():
    mesh = generate_structured(2, 3, 3)
    grads = mesh.grads
    rng = np.random.default_rng(3)
    for e in range(mesh.n_elements):
        w = rng.dirichlet(np.ones(3), size=5)
        for lam in w:
            assert abs(lam.sum() - 1.0) < 1e-12
        assert np.abs(grads[e].sum(axis=0)).max() < 1e-12


def test_mesh_geometry_matches_per_element():
    mesh = generate_structured(3, 2, 2, 2)
    for e in (0, 13, 47):
        X = mesh.nodes[mesh.elements[e:e + 1]]
        assert mesh.measures[e] == abs(signed_measures(X)[0])
        assert np.array_equal(mesh.grads[e], p1_gradients(X)[0])


def test_face_keys_are_built_on_first_use():
    mesh = generate_structured(3, 2)
    assert "face_keys" not in vars(mesh)
    keys = mesh.face_keys
    assert mesh.face_keys is keys and not keys.flags.writeable
    e, lf = mesh.face_first.T
    want = [sorted(mesh.elements[a, list(local_faces(3)[b])].tolist()) for a, b in zip(e, lf)]
    assert keys.tolist() == want == sorted(want)


def test_char_lengths_structured():
    mesh = generate_structured(2, 5, 5)
    h = mesh.char_lengths
    # longest edge of each triangle is the cell diagonal
    assert np.allclose(h, np.sqrt(2.0) / 5.0, atol=1e-14)


@pytest.mark.parametrize("mesh", [generate_structured(2, 4, 3), generate_structured(3, 2)])
def test_char_lengths_are_computed_once_per_mesh(mesh):
    h = mesh.char_lengths
    assert mesh.char_lengths is h and not h.flags.writeable
    X = mesh.nodes[mesh.elements]
    edges = ([(0, 1), (1, 2), (2, 0)] if mesh.dim == 2
             else [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    want = np.zeros(mesh.n_elements)
    for a, b in edges:
        want = np.maximum(want, np.linalg.norm(X[:, a, :] - X[:, b, :], axis=1))
    assert np.array_equal(h, want)


def test_boundary_node_tags_follow_the_face_walk():
    mesh = generate_structured(3, 2, 3, 2)
    walk = []
    for e, lf, tag in mesh.boundary_faces:
        for node in mesh.elements[e, list(local_faces(3)[lf])].tolist():
            if (node, tag) not in walk:
                walk.append((node, tag))
    nodes, tags = mesh.boundary_node_tags
    assert list(zip(nodes.tolist(), tags)) == walk


def test_face_measure_normal_2d():
    face = np.array([[[0.0, 0.0], [1.0, 0.0]]])
    measure, n = face_measure_normal(face, np.array([0.5, 0.5]))
    assert abs(measure[0] - 1.0) < 1e-15
    assert np.allclose(n[0], [0.0, -1.0])


def test_face_measure_normal_3d():
    face = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    measure, n = face_measure_normal(face, np.array([0.2, 0.2, 0.5]))
    assert abs(measure[0] - 0.5) < 1e-15
    assert np.allclose(n[0], [0.0, 0.0, -1.0])


def test_read_two_triangle_square(tmp_path):
    path = tmp_path / "square.msh"
    path.write_text(UNIT_SQUARE_FILE)
    mesh = read_mesh(path)
    assert mesh.n_nodes == 4
    assert mesh.n_elements == 2
    assert np.count_nonzero(mesh.face_second[:, 0] >= 0) == 1


def test_read_inverted_element_names_element(tmp_path):
    path = tmp_path / "bad.msh"
    path.write_text(UNIT_SQUARE_FILE.replace("0 1 2\n", "0 2 1\n", 1))
    with pytest.raises(MeshError, match="element 0"):
        read_mesh(path)


def test_read_reports_line_number(tmp_path):
    path = tmp_path / "bad.msh"
    path.write_text(UNIT_SQUARE_FILE.replace("1 0\n", "1 zzz\n", 1))
    with pytest.raises(MeshError, match="line 3"):
        read_mesh(path)


@pytest.mark.parametrize("old, new, message", [
    ("1 0\n1 1", "x 0\n1", "line 3: bad coordinate in node 1"),
    ("1 0\n1 1", "1 0 0\n1 y", "line 3: node 1 needs 2 coordinates, got 3"),
    ("0 1 2\n0 2 3", "0 1 2.5\n0 2", "line 6: bad node index in element 0"),
    ("0 1 right\n1 1 top", "0 x right\n1 top", "line 9: bad boundary face 1"),
])
def test_read_names_first_fault_in_file_order(tmp_path, old, new, message):
    path = tmp_path / "bad.msh"
    path.write_text(UNIT_SQUARE_FILE.replace(old, new, 1))
    with pytest.raises(MeshError, match=f"^{message}$"):
        read_mesh(path)


@pytest.mark.parametrize("rows, change, message", [
    (range(1, 5), " 0", "line 2: node 0 needs 2 coordinates, got 3"),
    (range(5, 7), " 0", "line 6: element 0 needs 3 node indices, got 4"),
    (range(5, 7), None, "line 6: element 0 needs 3 node indices, got 2"),
])
def test_read_names_first_row_when_every_row_of_a_block_is_misshapen(tmp_path, rows, change,
                                                                      message):
    lines = [line.split("#")[0].strip() for line in UNIT_SQUARE_FILE.splitlines()]
    for r in rows:
        lines[r] = lines[r] + change if change else lines[r].rsplit(" ", 1)[0]
    path = tmp_path / "bad.msh"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match=f"^{message}$"):
        read_mesh(path)


def test_read_truncated_file(tmp_path):
    path = tmp_path / "bad.msh"
    lines = UNIT_SQUARE_FILE.splitlines()[:6]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match="unexpected end of file"):
        read_mesh(path)


@pytest.mark.parametrize("header, named", [
    ("2 -1 2 4", "n_nodes must be non-negative, got -1"),
    ("2 4 -2 4", "n_elements must be non-negative, got -2"),
    ("2 4 2 -1", "n_boundary_faces must be non-negative, got -1"),
])
def test_read_rejects_negative_count(tmp_path, header, named):
    path = tmp_path / "bad.msh"
    path.write_text(UNIT_SQUARE_FILE.replace("2 4 2 4", header))
    with pytest.raises(MeshError, match=f"^line 1: {named}$"):
        read_mesh(path)


@pytest.mark.parametrize("header, expected", [
    ("2 99999999999 2 4", "node 10"),
    ("2 4 99999999999 4", "element 6"),
    ("2 4 2 5", "boundary face 4"),
])
def test_read_count_past_end_of_file(tmp_path, header, expected):
    path = tmp_path / "bad.msh"
    path.write_text(UNIT_SQUARE_FILE.replace("2 4 2 4", header))
    with pytest.raises(MeshError, match=f"^unexpected end of file: expected {expected}$"):
        read_mesh(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_read_rejects_non_finite_coordinate(tmp_path, value):
    path = tmp_path / "bad.msh"
    path.write_text(UNIT_SQUARE_FILE.replace("1 1    #", f"1 {value}    #", 1))
    with pytest.raises(MeshError, match="^line 4: node 2 has a non-finite coordinate$"):
        read_mesh(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_build_rejects_non_finite_node(value):
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    nodes[3, 0] = value
    with pytest.raises(MeshError, match="^node 3 has a non-finite coordinate$"):
        Mesh.build(2, nodes, np.array([[0, 1, 2]]), [])


def test_dangling_node_reference(tmp_path):
    path = tmp_path / "bad.msh"
    path.write_text(UNIT_SQUARE_FILE.replace("0 2 3\n", "0 2 9\n", 1))
    with pytest.raises(MeshError, match="element 1 references node 9"):
        read_mesh(path)


def test_untagged_boundary_face_rejected(tmp_path):
    path = tmp_path / "bad.msh"
    text = UNIT_SQUARE_FILE.replace("2 4 2 4", "2 4 2 3").replace("1 2 left\n", "")
    path.write_text(text)
    with pytest.raises(MeshError, match="no tag"):
        read_mesh(path)


def test_write_read_round_trip(tmp_path):
    mesh = generate_structured(2, 5, 5)
    path = tmp_path / "rt.msh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.dim == mesh.dim
    assert np.array_equal(back.elements, mesh.elements)
    assert np.array_equal(back.nodes, mesh.nodes)
    assert back.boundary_faces == mesh.boundary_faces


def test_round_trip_3d(tmp_path):
    mesh = generate_structured(3, 2, 2, 2)
    path = tmp_path / "rt3.msh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.elements, mesh.elements)
    assert np.array_equal(back.nodes, mesh.nodes)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_read_names_line_of_bytes_that_are_not_utf8(tmp_path, end):
    path = tmp_path / "bad.msh"
    text = UNIT_SQUARE_FILE.replace("\n", end).encode()
    path.write_bytes(text.replace(b"1 0", b"1 \xff", 1))
    with pytest.raises(MeshError, match=r"^line 3: not UTF-8 text \(invalid start byte\)$"):
        read_mesh(path)


def test_tags_are_written_and_read_as_utf8(tmp_path):
    mesh = generate_structured(2, 2, 2)
    faces = [(e, lf, {"left": "côté", "top": "上"}.get(tag, tag))
             for e, lf, tag in mesh.boundary_faces]
    mesh = Mesh.build(2, mesh.nodes, mesh.elements, faces)
    path = tmp_path / "utf8.msh"
    write_mesh(mesh, path)
    assert "côté".encode() in path.read_bytes() and "上".encode() in path.read_bytes()
    assert read_mesh(path).boundary_faces == faces


@pytest.mark.parametrize("tag", ["left side", "a#b", "", "tab\there", "end\n", "\x0b", 7, None])
def test_write_rejects_tag_that_cannot_be_read_back(tmp_path, tag):
    mesh = generate_structured(2, 1, 1)
    e, lf, _ = mesh.boundary_faces[2]
    faces = [(e, lf, tag) if i == 2 else face for i, face in enumerate(mesh.boundary_faces)]
    mesh = Mesh.build(2, mesh.nodes, mesh.elements, faces)
    path = tmp_path / "tags.msh"
    message = f"boundary face 2 (element {e}, local face {lf}) has tag {tag!r}, "
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        write_mesh(mesh, path)
    assert not path.exists()


def test_build_rejects_repeated_node():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="repeated"):
        Mesh.build(2, nodes, np.array([[0, 1, 1]]), [])


def _square_arrays():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 2], [0, 2, 3]])
    tags = [(0, 0, "bottom"), (0, 1, "right"), (1, 1, "top"), (1, 2, "left")]
    return nodes, elements, tags


@pytest.mark.parametrize("extra, message", [
    ((0, 2, "diag"), r"face \(0, 2\) of element 0 is tagged 'diag' but is interior"),
    ((5, 0, "far"), "boundary face references element 5 out of range"),
    ((0, 3, "far"), "boundary face of element 0 has local face 3 out of range"),
])
def test_build_rejects_bad_boundary_face(extra, message):
    nodes, elements, tags = _square_arrays()
    with pytest.raises(MeshError, match=message):
        Mesh.build(2, nodes, elements, tags + [extra])


def test_build_rejects_face_shared_by_three_elements():
    # three triangles fanning out from the edge (0, 1)
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    elements = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(MeshError, match=r"face \(0, 1\) is shared by more than two elements"):
        Mesh.build(2, nodes, elements, [])


HUGE = "99999999999999999999"      # beyond int64


@pytest.mark.parametrize("value", [HUGE, f"-{HUGE}"])
def test_read_rejects_node_index_beyond_int64(tmp_path, value):
    path = tmp_path / "bad.msh"
    path.write_text(UNIT_SQUARE_FILE.replace("0 2 3\n", f"0 2 {value}\n", 1))
    with pytest.raises(MeshError, match="^line 7: bad node index in element 1$"):
        read_mesh(path)


@pytest.mark.parametrize("old, new, message", [
    ("1 1 top", f"{HUGE} 1 top", f"boundary face references element {HUGE} out of range"),
    ("1 1 top", f"-{HUGE} 1 top", f"boundary face references element -{HUGE} out of range"),
    ("1 1 top", f"1 {HUGE} top", f"boundary face of element 1 has local face {HUGE} out of range"),
])
def test_read_rejects_boundary_face_beyond_int64(tmp_path, old, new, message):
    path = tmp_path / "bad.msh"
    path.write_text(UNIT_SQUARE_FILE.replace(old, new, 1))
    with pytest.raises(MeshError, match=f"^{message}$"):
        read_mesh(path)


@pytest.mark.parametrize("row", [[0, 1, 10**20], [0, -10**20, 2]])
def test_build_rejects_python_int_beyond_int64(row):
    nodes, elements, tags = _square_arrays()
    node = next(v for v in row if abs(v) > 3)
    with pytest.raises(MeshError, match=f"^element 1 references node {node} but mesh has 4 nodes$"):
        Mesh.build(2, nodes, [elements[0].tolist(), row], tags)


# sha256 of nodes (<f8), elements (<i8) and repr(boundary_faces); downstream
# artifacts are byte-identical only while this order holds.
MESH_DIGESTS = {
    (2, 3, 2): ("87c079098b5ea3dec8ca3f78abf17e28cfb16bc337939cc8d3fa1fb5001e9fda",
                "79ac7566919aff605ee18a7287c07f407e576b29d7720571d0427a5ba7fe4dec",
                "d1d92f893dab44d84024d552eaf6486219732ede72d2f2ebc36e9e9e24593428"),
    (3, 2, 2, 2): ("43a8d7ee3627633d420c35535f712e8f1309f8bb2262d5640ade1e630eb66dee",
                   "b62f705da54a2ceb9c53e2917b24db7ccc0fb2c67859fc90069793dd4afe5047",
                   "ab16d9a6bb521439cdd3e8592a5d60956374d1b002940b70655cb5672ff9db64"),
}


@pytest.mark.parametrize("args", list(MESH_DIGESTS))
def test_structured_mesh_order_is_pinned(args):
    mesh = generate_structured(*args)
    digests = tuple(hashlib.sha256(data).hexdigest() for data in (
        np.ascontiguousarray(mesh.nodes, dtype="<f8").tobytes(),
        np.ascontiguousarray(mesh.elements, dtype="<i8").tobytes(),
        repr(mesh.boundary_faces).encode()))
    assert digests == MESH_DIGESTS[args]
