"""Field reconstruction, line sampling, error norms and exporters."""

import csv

import numpy as np
import pytest

from efem import cli, interface, postprocess
from efem import mesh as mesh_io
from efem.efem_core import MaterialPair, assemble_global
from efem.interface import (
    CircleLevelSet,
    NodalLevelSet,
    PlaneLevelSet,
    SphereLevelSet,
    split_simplex,
)
from efem.mesh import BoundaryTag, generate_structured
from efem.oracles import PlanarCase, box_boundary, jittered_mesh, planar_materials, planar_slopes
from efem.postprocess import (
    SolutionField,
    _barycentric_at,
    _holds,
    build_solution,
    crossings,
    elements_containing,
    eval_field,
    eval_in_element,
    export_csv,
    export_vtk,
    interface_potential_mismatch,
    l2_line_error,
    locate_points,
    observed_order,
    read_csv_sample,
    reconstruct,
    recover_enrichment,
    sample_line,
)
from efem.solver import solve


def test_phi_star_vanishes_for_single_material(planar_solver):
    sol = planar_solver(1.0, 5, "efem")
    assert sol.phi_star
    assert max(abs(v) for v in sol.phi_star.values()) < 1e-8


def test_interface_potential_q3(planar_q3_efem):
    for x in (0.1, 0.37, 0.81):
        phi, _ = eval_field(planar_q3_efem, np.array([x, 0.5]))
        assert abs(phi - 0.75) < 1e-6


def test_one_sided_fields_q3(planar_q3_efem):
    lower, upper = planar_slopes(3.0)
    phi_b, E_b = eval_field(planar_q3_efem, np.array([0.3, 0.5]), side=-1)
    phi_a, E_a = eval_field(planar_q3_efem, np.array([0.3, 0.5]), side=+1)
    assert abs(phi_b - phi_a) < 1e-10
    assert abs(E_b[1] - lower) < 1e-6
    assert abs(E_a[1] - upper) < 1e-6


def test_conductor_field_vanishes(planar_solver):
    # the exact conductor field is 2 / (q + 1), 2e-12 below the bound: only
    # a direct solve resolves it; BiCGSTAB at tol 1e-8 lands either side
    sol = planar_solver(1e6, 5, "efem", direct=True)
    for y in (0.62, 0.75, 0.9):
        _, E = eval_field(sol, np.array([0.5, y]))
        assert np.abs(E).max() < 2e-6


def test_eval_matches_exact_solution_everywhere(planar_q3_efem):
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = rng.uniform(0.01, 0.99, size=2)
        phi, E = eval_field(planar_q3_efem, x)
        assert abs(phi - PlanarCase(3.0).phi(x)) < 1e-6
        assert abs(E[1] - PlanarCase(3.0).E(x[None])[0, 1]) < 1e-5


def test_phi_continuous_at_interface_points(planar_q3_efem):
    rng = np.random.default_rng(22)
    for x in rng.uniform(0.0, 1.0, size=100):
        p = np.array([x, 0.5])
        phi_minus, _ = eval_field(planar_q3_efem, p, side=-1)
        phi_plus, _ = eval_field(planar_q3_efem, p, side=+1)
        assert abs(phi_minus - phi_plus) < 1e-10


def test_tangential_field_continuous(planar_q3_efem):
    for x in (0.15, 0.5, 0.77):
        _, E_minus = eval_field(planar_q3_efem, np.array([x, 0.5]), side=-1)
        _, E_plus = eval_field(planar_q3_efem, np.array([x, 0.5]), side=+1)
        assert abs(E_minus[0] - E_plus[0]) < 1e-8


def test_normal_displacement_continuous(planar_q3_efem):
    eps_below, eps_above = 1.0, 3.0
    for x in (0.15, 0.5, 0.77):
        _, E_minus = eval_field(planar_q3_efem, np.array([x, 0.5]), side=-1)
        _, E_plus = eval_field(planar_q3_efem, np.array([x, 0.5]), side=+1)
        below = eps_below * E_minus[1]
        above = eps_above * E_plus[1]
        assert abs(below - above) < 1e-6 * abs(below)


def test_locate_outside_raises(planar_q3_efem):
    with pytest.raises(ValueError, match="outside the mesh"):
        locate_points(planar_q3_efem, np.array([[1.5, 0.5]]))


def test_elements_containing_outside_raises(planar_q3_efem):
    with pytest.raises(ValueError, match="outside the mesh"):
        elements_containing(planar_q3_efem, (0.5, -0.5))


def test_location_falls_back_to_every_element(monkeypatch):
    """With one candidate per point, a point whose nearest-centroid element
    does not hold it is found by testing every element."""
    monkeypatch.setattr(postprocess, "LOCATE_CANDIDATES", 1)
    _, sol = _solved(jittered_mesh((6, 6), seed=1), CircleLevelSet((0.45, 0.55), 0.27), "efem")
    m = sol.mesh
    x = np.random.default_rng(0).uniform(0.0, 1.0, size=(300, 2))
    every = np.arange(m.n_elements)
    holders = [np.flatnonzero(_holds(sol, every, np.broadcast_to(p, (every.size, 2)))) for p in x]
    _, nearest = m.centroid_tree.query(x, k=1)
    missed = [i for i, h in enumerate(holders) if nearest[i] not in h]
    assert missed
    assert locate_points(sol, x).tolist() == [int(h.min()) for h in holders]
    for i in missed:
        assert elements_containing(sol, x[i]) == holders[i].tolist()


def test_sample_side_matches_levelset(planar_q3_efem):
    s = sample_line(planar_q3_efem, (0.5, 0.1), (0.5, 0.9), count=9)
    y = s.points[:, 1]
    assert (s.side[y < 0.5] == -1).all() and (s.side[y > 0.5] == 1).all()
    assert (y < 0.5).any() and (y > 0.5).any()


def test_sample_line_is_ordered_and_paired(planar_q3_efem):
    s = sample_line(planar_q3_efem, (0.5, 0.0), (0.5, 1.0), count=101)
    assert (np.diff(s.t) >= 0).all()
    assert s.t.size > 101                      # duplicated records were inserted
    dup = np.nonzero(np.diff(s.t) == 0.0)[0]
    assert dup.size > 0
    for i in dup:
        assert np.array_equal(s.points[i], s.points[i + 1])


def test_sample_line_crossing_pair(planar_q3_efem):
    s = sample_line(planar_q3_efem, (0.5, 0.0), (0.5, 1.0), count=101)
    pairs = crossings(s)
    assert len(pairs) == 1
    rec = pairs[0]
    assert abs(rec["point"][1] - 0.5) < 1e-9
    lower, upper = planar_slopes(3.0)
    assert abs(rec[-1][1][1] - lower) < 1e-6
    assert abs(rec[+1][1][1] - upper) < 1e-6
    assert abs(rec[-1][0] - rec[+1][0]) < 1e-10


def test_l2_error_of_solution_against_itself(planar_q3_efem):
    def reference(points):
        return np.array([eval_field(planar_q3_efem, p)[0] for p in points])

    err = l2_line_error(planar_q3_efem, reference, (0.5, 0.0), (0.5, 1.0))
    assert err < 1e-14


def test_l2_error_linear_vs_zero(planar_solver):
    sol = planar_solver(1.0, 5, "efem")       # exact solution is phi = y
    err = l2_line_error(sol, lambda p: np.zeros(len(p)), (0.5, 0.0), (0.5, 1.0))
    assert abs(err - np.sqrt(1.0 / 3.0)) < 1e-5


def test_l2_error_against_exact(planar_q3_efem):
    err = l2_line_error(planar_q3_efem, PlanarCase(3.0).phi, (0.5, 0.0), (0.5, 1.0))
    assert err < 1e-6


def test_observed_order_recovers_synthetic_slope():
    hs = [0.3, 0.15, 0.075, 0.0375]
    errs = [0.02 * h ** 1.97 for h in hs]
    assert abs(observed_order(hs, errs) - 1.97) < 1e-10


def test_observed_order_needs_two_levels():
    with pytest.raises(ValueError):
        observed_order([0.1], [0.01])


def test_mismatch_small_with_D_large_without(planar_solver, planar_q1_nod):
    with_d = planar_solver(1.0, 5, "efem")
    assert interface_potential_mismatch(with_d) < 1e-6
    assert interface_potential_mismatch(planar_q1_nod) > 1e-3


def _planar_3d(q, mode, n=8):
    """Solved field of a planar interface between grid planes of a 3D mesh."""
    levelset = PlaneLevelSet((0.0, 0.5 + 0.3 / n, 0.0), (0.0, 1.0, 0.0))
    asm = assemble_global(generate_structured(3, n), levelset, planar_materials(q), mode,
                          box_boundary(3))
    phi, report = solve(asm.matrix, asm.rhs, tol=1e-10)
    assert report.converged
    return build_solution(asm, phi)


def test_mismatch_small_with_D_large_without_3d():
    """Criterion 3 in 3D: the scan reads the crossed edges of the interior
    triangle faces."""
    worst_with = max(interface_potential_mismatch(_planar_3d(q, "efem")) for q in (1.0, 3.0, 1e6))
    assert worst_with <= 1e-6
    assert interface_potential_mismatch(_planar_3d(1.0, "efem-nod")) > 1e-3


def _edge_scan_2d(sol):
    """The 2D scan that the dimension-generic one replaced, one interior edge
    at a time: the crossing from the edge's sorted node key and the nodal
    distances, each side read by eval_in_element."""
    m = sol.mesh
    worst = 0.0
    for f in np.flatnonzero(m.face_second[:, 0] >= 0):
        e1, e2 = int(m.face_first[f, 0]), int(m.face_second[f, 0])
        a, b = m.face_keys[f]
        da, db = sol.classification.d[[a, b]]
        if (da > 0.0) == (db > 0.0):
            continue
        xi = m.nodes[a] + (da / (da - db)) * (m.nodes[b] - m.nodes[a])
        phi1, phi2 = (eval_in_element(sol, e, xi, 1)[0] for e in (e1, e2))
        worst = max(worst, abs(phi1 - phi2))
    return worst


@pytest.mark.parametrize("case", ["planar_q3", "planar_q1", "planar_cond", "inclined", "cylinder"])
def test_mismatch_scan_keeps_the_2d_edge_scan_bits(case):
    text, name, base = cli._case_text(case)
    cfg = cli.parse_case(text, name)
    mesh = cli._load_mesh(cfg, base)
    for asm in cli._assemble(cfg, mesh, list(cli.MODES)):
        phi, _ = solve(asm.matrix, asm.rhs, tol=cfg.tol)
        sol = build_solution(asm, phi)
        assert interface_potential_mismatch(sol) == _edge_scan_2d(sol)


@pytest.mark.parametrize("dim", [2, 3])
def test_reconstruct_is_the_enriched_field(dim):
    """phi_h = N.phi + Nbar phi* and E_h = grad N.phi + grad Nbar phi* with
    the child's side of grad Nbar, at random points of every element, to
    rounding; elements without enrichment give the P1 field."""
    mesh = generate_structured(dim, 6)
    levelset = (CircleLevelSet((0.45, 0.55), 0.27) if dim == 2
                else SphereLevelSet((0.48, 0.5, 0.53), 0.3))
    _, sol = _solved(mesh, levelset, "efem")
    rng = np.random.default_rng(dim)
    elems = np.arange(mesh.n_elements)
    lam = rng.dirichlet(np.ones(dim + 1), size=elems.size)
    child = rng.choice([-1, 1], size=elems.size)
    phi, E = reconstruct(sol, elems, lam, child)
    star = np.zeros(mesh.n_elements)
    star[sol.cut_data.ids] = sol.star
    for e in elems:
        conn = mesh.elements[e]
        nodal, d, g = sol.phi[conn], sol.classification.d[conn], mesh.grads[e]
        nbar = lam[e] @ np.abs(d) - abs(lam[e] @ d)
        grad_nbar = g.T @ np.abs(d) - child[e] * (g.T @ d)
        assert abs(phi[e] - (lam[e] @ nodal + nbar * star[e])) <= 1e-14
        assert np.abs(E[e] - (g.T @ nodal + grad_nbar * star[e])).max() <= 1e-12
    assert np.count_nonzero(star) == len(sol.cut_data) > 0


def test_recover_enrichment_reads_recovery_vectors(planar_q3_efem):
    # reconstructing from the stored solution must replay the stored values
    class FakeAssembled:
        mesh = planar_q3_efem.mesh
        cut_data = planar_q3_efem.cut_data

    star = recover_enrichment(FakeAssembled, planar_q3_efem.phi)
    ids = planar_q3_efem.cut_data.ids.tolist()
    assert ids == sorted(planar_q3_efem.phi_star) and star.shape == (len(ids),)
    for e, v, r in zip(ids, star, planar_q3_efem.cut_data.recovery):
        assert abs(v - planar_q3_efem.phi_star[e]) < 1e-15
        assert v == float(r @ planar_q3_efem.phi[planar_q3_efem.mesh.elements[e]])


# ---------------------------------------------------------------------------
# exporters


def _vtk_section(lines, key):
    for i, ln in enumerate(lines):
        if ln.startswith(key):
            return i, ln.split()
    raise AssertionError(f"{key} not found")


def test_vtk_uncut_two_cells(tmp_path):
    mesh = generate_structured(2, 1, 1)
    levelset = PlaneLevelSet((0.0, -5.0), (0.0, 1.0))     # nothing is cut
    boundary = {t: BoundaryTag(t, "dirichlet", 0.0) for t in ("left", "right", "bottom", "top")}
    asm = assemble_global(mesh, levelset, MaterialPair(1.0, 1.0), "efem", boundary)
    sol = build_solution(asm, np.zeros(mesh.n_nodes))
    path = tmp_path / "flat.vtk"
    export_vtk(sol, path)
    lines = path.read_text().splitlines()
    _, pts = _vtk_section(lines, "POINTS")
    assert int(pts[1]) == 4
    _, cells = _vtk_section(lines, "CELLS")
    assert int(cells[1]) == 2
    i, _ = _vtk_section(lines, "CELL_TYPES")
    assert lines[i + 1] == "5"
    assert interface_potential_mismatch(sol) == 0.0          # nothing crossed


def test_vtk_cut_triangles_export_children(tmp_path, planar_solver):
    sol = planar_solver(3.0, 1, "efem")       # both triangles of the 1x1 mesh are cut
    path = tmp_path / "cut.vtk"
    export_vtk(sol, path)
    lines = path.read_text().splitlines()
    _, cells = _vtk_section(lines, "CELLS")
    assert int(cells[1]) == 6                 # 3 children per cut triangle
    _, pts = _vtk_section(lines, "POINTS")
    assert int(pts[1]) == 4 + 2 * 2           # corners + 2 virtual points per element
    i, counts = _vtk_section(lines, "POINT_DATA")
    assert int(counts[1]) == int(pts[1])
    _vtk_section(lines, "CELL_DATA")
    _vtk_section(lines, "VECTORS efield double")


def test_vtk_3d_cell_type(tmp_path):
    mesh = generate_structured(3, 1, 1, 1)
    levelset = PlaneLevelSet((0.0, 0.0, -5.0), (0.0, 0.0, 1.0))
    tags = ("left", "right", "bottom", "top", "front", "back")
    boundary = {t: BoundaryTag(t, "dirichlet", 0.0) for t in tags}
    asm = assemble_global(mesh, levelset, MaterialPair(1.0, 1.0), "efem", boundary)
    sol = build_solution(asm, np.zeros(mesh.n_nodes))
    path = tmp_path / "box.vtk"
    export_vtk(sol, path)
    lines = path.read_text().splitlines()
    i, _ = _vtk_section(lines, "CELL_TYPES")
    assert lines[i + 1] == "10"


@pytest.mark.parametrize("rows_per_write", [mesh_io._ROW_BLOCK, 10])
def test_csv_matches_csv_module_writer(tmp_path, monkeypatch, planar_q3_efem, rows_per_write):
    monkeypatch.setattr(mesh_io, "_ROW_BLOCK", rows_per_write)
    s = sample_line(planar_q3_efem, (0.3, 0.0), (0.7, 1.0), count=101)
    export_csv(s, tmp_path / "line.csv")
    with open(tmp_path / "reference.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y", "phi", "Ex", "Ey", "side"])
        for i in range(s.t.size):
            w.writerow([f"{v:.17g}" for v in (*s.points[i], s.phi[i], *s.E[i])]
                       + [str(int(s.side[i]))])
    assert (tmp_path / "line.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_csv_round_trip_is_bit_exact(tmp_path, planar_q3_efem):
    s = sample_line(planar_q3_efem, (0.3, 0.0), (0.7, 1.0), count=211)
    path = tmp_path / "line.csv"
    export_csv(s, path)
    pts, phi, E, side = read_csv_sample(path)
    assert np.array_equal(pts, s.points)
    assert np.array_equal(phi, s.phi)
    assert np.array_equal(E, s.E)
    assert np.array_equal(side, s.side)


# ---------------------------------------------------------------------------
# VTK export against a per-element reference writer


def _reference_vtk(sol: SolutionField, path) -> None:
    """The export written one element at a time, from a fresh decomposition of
    each enriched element.  Its values are the reconstruction kernel's, in
    one call over the points and one over the cells it collects: phi at each
    virtual node, and E of each cell, a child's from its own side (E is
    constant per cell, so any point of it will do)."""
    m = sol.mesh
    points = [m.nodes[i] for i in range(m.n_nodes)]
    enriched = set(sol.cut_data.ids.tolist())
    cells, cell_elem, cell_sign, virt_elem, virt_lam = [], [], [], [], []
    for e in range(m.n_elements):
        conn = m.elements[e]
        if e not in enriched:
            cells.append([int(i) for i in conn])
            cell_elem.append(e)
            cell_sign.append(1)
            continue
        deco = split_simplex(m.nodes[conn][None], sol.classification.d[conn][None])
        ids = conn.tolist()                 # point p of the decomposition
        for xv in deco.points[0, m.dim + 1:m.dim + 1 + deco.n_virtual[0]]:
            ids.append(len(points))
            points.append(xv)
            virt_elem.append(e)
            virt_lam.append(_barycentric_at(sol, np.array([e]), xv[None])[0])
        n = deco.n_children[0]
        for child, sign in zip(deco.children[0, :n], deco.child_sign[0]):
            cells.append([ids[p] for p in child])
            cell_elem.append(e)
            cell_sign.append(sign)
    lam = np.reshape(virt_lam, (-1, m.dim + 1))
    pdata = np.concatenate([sol.phi, reconstruct(sol, virt_elem, lam, np.ones(len(lam)))[0]])
    centroid = np.full((len(cells), m.dim + 1), 1.0 / (m.dim + 1))
    cdata = reconstruct(sol, cell_elem, centroid, np.array(cell_sign))[1]

    cell_type = {2: 5, 3: 10}[m.dim]

    def xyz(v):
        out = np.zeros(3)
        out[: m.dim] = v
        return " ".join(f"{c:.17g}" for c in out) + "\n"

    nv = m.dim + 1
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\nefem solution\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {len(points)} double\n")
        f.writelines(xyz(p) for p in points)
        f.write(f"CELLS {len(cells)} {len(cells) * (nv + 1)}\n")
        f.writelines(f"{nv} " + " ".join(str(i) for i in c) + "\n" for c in cells)
        f.write(f"CELL_TYPES {len(cells)}\n")
        f.writelines(f"{cell_type}\n" for _ in cells)
        f.write(f"POINT_DATA {len(points)}\nSCALARS phi double 1\nLOOKUP_TABLE default\n")
        f.writelines(f"{v:.17g}\n" for v in pdata)
        f.write(f"CELL_DATA {len(cells)}\nVECTORS efield double\n")
        f.writelines(xyz(v) for v in cdata)


def _check_section_counts(text: str, dim: int) -> tuple[int, int]:
    """Walk the sections; every header count must match the rows under it."""
    lines = text.split("\n")
    assert lines.pop() == ""
    assert lines[:4] == ["# vtk DataFile Version 3.0", "efem solution", "ASCII",
                         "DATASET UNSTRUCTURED_GRID"]
    i = 4

    def rows(header, count, skip=0):
        nonlocal i
        assert lines[i] == header
        i += 1 + skip
        block = [ln.split() for ln in lines[i:i + count]]
        i += count
        assert len(block) == count
        return block

    n_points = int(lines[i].split()[1])
    assert all(len(r) == 3 for r in rows(f"POINTS {n_points} double", n_points))
    n_cells, size = (int(v) for v in lines[i].split()[1:])
    cells = rows(f"CELLS {n_cells} {size}", n_cells)
    assert sum(len(r) for r in cells) == size
    assert all(len(r) == dim + 2 and int(r[0]) == dim + 1 for r in cells)
    assert max(int(v) for r in cells for v in r[1:]) == n_points - 1
    assert rows(f"CELL_TYPES {n_cells}", n_cells) == [[str({2: 5, 3: 10}[dim])]] * n_cells
    assert all(len(r) == 1 for r in rows(f"POINT_DATA {n_points}", n_points, skip=2))
    assert lines[i - n_points - 2:i - n_points] == ["SCALARS phi double 1", "LOOKUP_TABLE default"]
    assert all(len(r) == 3 for r in rows(f"CELL_DATA {n_cells}", n_cells, skip=1))
    assert lines[i - n_cells - 1] == "VECTORS efield double"
    assert i == len(lines)
    return n_points, n_cells


def _solved(mesh, levelset, mode, **kw):
    asm = assemble_global(mesh, levelset, MaterialPair(3.0, 1.0), mode, box_boundary(mesh.dim), **kw)
    phi, report = solve(asm.matrix, asm.rhs, tol=1e-10)
    assert report.converged
    return asm, build_solution(asm, phi)


def _assert_vtk_matches_reference(sol, tmp_path):
    export_vtk(sol, tmp_path / "batched.vtk")
    _reference_vtk(sol, tmp_path / "reference.vtk")
    text = (tmp_path / "batched.vtk").read_bytes()
    assert text == (tmp_path / "reference.vtk").read_bytes()
    return _check_section_counts(text.decode(), sol.mesh.dim)


@pytest.mark.parametrize("rows_per_write", [mesh_io._ROW_BLOCK, 7])
def test_vtk_matches_reference_circle_2d(tmp_path, monkeypatch, rows_per_write):
    monkeypatch.setattr(mesh_io, "_ROW_BLOCK", rows_per_write)
    _, sol = _solved(generate_structured(2, 9, 7), CircleLevelSet((0.45, 0.55), 0.27), "efem")
    assert sol.cut_data
    n_points, n_cells = _assert_vtk_matches_reference(sol, tmp_path)
    assert n_points > sol.mesh.n_nodes and n_cells > sol.mesh.n_elements


def test_vtk_matches_reference_sphere_3d(tmp_path):
    _, sol = _solved(generate_structured(3, 5), SphereLevelSet((0.48, 0.5, 0.53), 0.3), "efem")
    assert len(sol.cut_data) > 20
    _assert_vtk_matches_reference(sol, tmp_path)


def test_vtk_matches_reference_standard_mode(tmp_path):
    asm, sol = _solved(generate_structured(3, 4), SphereLevelSet((0.5, 0.5, 0.5), 0.3), "standard")
    assert asm.classification.cut_elements.size > 0 and not sol.cut_data
    assert _assert_vtk_matches_reference(sol, tmp_path) == (sol.mesh.n_nodes, sol.mesh.n_elements)


def test_vtk_matches_reference_with_degenerate_cut_fallback(tmp_path, monkeypatch):
    monkeypatch.setattr(interface, "SNAP_TOL", 0.0)
    mesh = generate_structured(2, 8, 8)
    values = np.linalg.norm(mesh.nodes - (0.3, 0.3), axis=1) - 0.2
    far = int(np.argmin(np.linalg.norm(mesh.nodes - (0.75, 0.75), axis=1)))
    values[far] = -1e-17                 # sliver children around one node, no snapping
    levelset = NodalLevelSet(values)
    asm, sol = _solved(mesh, levelset, "efem")
    assert asm.fallback_elements and sol.cut_data
    assert not set(asm.fallback_elements) & set(sol.cut_data.ids.tolist())
    _assert_vtk_matches_reference(sol, tmp_path)


def test_vtk_matches_reference_across_write_chunks(tmp_path):
    mesh = generate_structured(2, 129)
    assert mesh.n_nodes < mesh_io._ROW_BLOCK < mesh.n_elements
    _, sol = _solved(mesh, CircleLevelSet((0.5, 0.5), 0.3), "efem")
    _assert_vtk_matches_reference(sol, tmp_path)
