"""Closed-form reference fields: values, jump conditions, reference recipes."""

import numpy as np
import pytest

from efem.mesh import generate_structured, read_mesh
from efem.oracles import (
    CylinderCase,
    PlanarCase,
    SphereCase,
    box_boundary,
    conforming_inclined_mesh,
    cylinder_benchmark_mesh,
    fd_laplacian,
    jittered_mesh,
    phi_evaluator,
    planar_slopes,
    reference_solve,
    resolution,
)
from efem.postprocess import l2_line_error


def test_resolution_rounding():
    assert resolution(0.3) == 3
    assert resolution(0.15) == 7
    assert resolution(0.075) == 13
    assert resolution(0.0375) == 27
    assert resolution(0.08) == 12
    assert resolution(0.04) == 25
    assert resolution(0.2) == 5


def test_planar_q3_interface_value():
    case = PlanarCase(3.0)
    at, below = case.phi([[0.3, 0.5], [0.3, np.nextafter(0.5, 0.0)]])
    assert abs(at - 0.75) < 1e-15
    assert abs(below - 0.75) < 1e-15


def test_planar_q1_is_uniform():
    case = PlanarCase(1.0)
    x = np.array([[0.4, 0.1], [0.4, 0.5], [0.4, 0.9]])
    assert np.abs(case.phi(x) - x[:, 1]).max() < 1e-15
    assert np.abs(case.E(x) - [0.0, 1.0]).max() < 1e-15


def test_planar_conductor_upper_region():
    case = PlanarCase(1e6)
    assert abs(case.phi((0.5, 0.75)) - 1.0) < 1e-5
    assert np.abs(case.E([[0.5, 0.75]])).max() < 2e-6


def test_planar_rejects_outside_domain():
    for method in (PlanarCase(3.0).phi, PlanarCase(3.0).E):
        with pytest.raises(ValueError, match="y = 1.2 is outside"):
            method([[0.5, 0.3], [0.5, 1.2]])


def test_planar_flux_continuity():
    for q in (1.0, 3.0, 1e6):
        g_lo, g_hi = planar_slopes(q)
        assert abs(1.0 * g_lo - q * g_hi) < 1e-9 * max(g_lo, 1.0)


def test_planar_case_jump_conditions(rng):
    case = PlanarCase(3.0)
    p = case.interface_points(50, rng)
    up = np.array([0.0, 1e-13])
    assert np.abs(case.phi(p + up) - case.phi(p - up)).max() < 1e-10
    En_below = case.E(p, side=-1)[:, 1]
    En_above = case.E(p, side=+1)[:, 1]
    assert np.abs(case.eps(-1) * En_below - case.eps(+1) * En_above).max() < 1e-12


# ---------------------------------------------------------------------------
# the dielectric inclusion: a disc in 2D, a ball in 3D

INCLUSIONS = [pytest.param(CylinderCase(3.0), id="2d"), pytest.param(SphereCase(3.0), id="3d")]


@pytest.mark.parametrize("case", INCLUSIONS)
def test_inclusion_inside_values(case):
    # phi - y0 = d yrel / (d - 1 + q) inside: 0.025 in 2D and 0.03 in 3D at
    # yrel = 0.05 for q = 3
    d = len(case.center)
    center = np.asarray(case.center)
    above = center + 0.05 * np.eye(d)[1]
    want = {2: 0.025, 3: 0.03}[d]
    assert abs(case.phi(above) - case.center[1] - want) < 1e-15
    assert case.phi(center) == case.center[1]
    assert np.array_equal(case.E(above[None])[0], np.eye(d)[1] * d / (d - 1.0 + case.q))


def _surface_normals(case, rng):
    center = np.asarray(case.center)
    p = case.interface_points(40, rng)
    return p, (p - center) / np.linalg.norm(p - center, axis=1, keepdims=True)


def _check_jump_conditions(case, rng):
    # the tangential field and the normal flux eps E.n are continuous across
    # the surface; the stacked E gives both sides of every point
    p, nrm = _surface_normals(case, rng)
    E_in, E_out = case.E(p, side=-1), case.E(p, side=+1)
    En_in, En_out = np.sum(E_in * nrm, axis=1), np.sum(E_out * nrm, axis=1)
    assert np.abs(case.eps(-1) * En_in - case.eps(+1) * En_out).max() < 1e-12
    tang = E_in - En_in[:, None] * nrm - (E_out - En_out[:, None] * nrm)
    assert np.abs(tang).max() < 1e-12


def _check_phi_continuous(case, rng):
    center = np.asarray(case.center)
    _, nrm = _surface_normals(case, rng)
    inner = case.phi(center + nrm * (case.radius - 1e-10))
    outer = case.phi(center + nrm * (case.radius + 1e-10))
    assert np.abs(inner - outer).max() < 1e-8


def test_sphere_case_jump_conditions(rng):
    _check_jump_conditions(SphereCase(3.0), rng)


def test_sphere_phi_continuous_at_surface(rng):
    _check_phi_continuous(SphereCase(3.0), rng)


def test_cylinder_case_jump_conditions(rng):
    _check_jump_conditions(CylinderCase(3.0), rng)


def test_cylinder_polar_continuity(rng):
    # polar coordinates about the centre, theta measured from the field
    # direction y: the two sides of r = R agree to rounding
    case = CylinderCase(3.0, radius=0.2)
    theta = 1.1
    at = lambda r: np.asarray(case.center) + r * np.array([np.sin(theta), np.cos(theta)])
    assert abs(case.phi(at(0.2 - 1e-13)) - case.phi(at(0.2))) < 1e-10
    _check_phi_continuous(CylinderCase(3.0), rng)


@pytest.mark.parametrize("case", INCLUSIONS)
def test_inclusion_satisfies_laplace(case, rng):
    # The finite-difference stencil needs clearance from the surface: the
    # exterior perturbation decays like r**(1 - d), so its fourth derivative
    # blows up near the inclusion and pollutes the h**2 truncation estimate.
    d = len(case.center)
    center = np.asarray(case.center)
    checked = 0
    while checked < 20:
        x = rng.uniform(0.1, 0.9, size=d)
        if np.linalg.norm(x - center) < 2.5 * case.radius:
            continue
        assert abs(fd_laplacian(case.phi, x)) < 1e-4
        checked += 1
    for shift in ([0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [0.0, -0.06, 0.03]):
        lap = fd_laplacian(case.phi, center + np.asarray(shift[:d]))
        assert abs(lap) < 1e-8


def test_fd_laplacian_on_quadratic():
    f = lambda x: x[:, 0] ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2
    assert abs(fd_laplacian(f, np.array([0.3, 0.4, 0.5])) - 6.0) < 1e-5


def test_conforming_mesh_requires_multiple_of_five():
    with pytest.raises(ValueError, match="multiple of 5"):
        conforming_inclined_mesh(12)
    mesh = conforming_inclined_mesh(10)
    # the interface line must run through mesh nodes
    on_line = np.isclose(mesh.nodes[:, 1] - mesh.nodes[:, 0], 0.2, atol=1e-12)
    assert on_line.sum() == 9


def test_box_boundary_tags():
    tags = box_boundary(3)
    assert tags["bottom"].kind == "dirichlet" and tags["bottom"].value == 0.0
    assert tags["top"].value == 1.0
    assert tags["front"].kind == "neumann"


def test_reference_solve_rejects_unknown_case():
    with pytest.raises(ValueError, match="no reference recipe"):
        reference_solve("torus")


def test_conforming_reference_q1_is_uniform_field():
    sol = reference_solve("inclined", fine_h=0.05, q=1.0)
    err = l2_line_error(sol, lambda p: p[:, 1], (0.3, 0.0), (0.3, 1.0))
    assert err < 1e-8


def test_conforming_reference_two_levels_agree():
    coarse = reference_solve("inclined", fine_h=0.02)
    fine = reference_solve("inclined", fine_h=0.01)
    ref = phi_evaluator(fine)
    diff = l2_line_error(coarse, ref, (0.0, 0.7), (1.0, 0.7))
    assert diff < 1e-4


@pytest.mark.slow
def test_cylinder_self_reference_two_levels_agree():
    coarse = reference_solve("cylinder", fine_h=0.005)
    fine = reference_solve("cylinder", fine_h=0.0025)
    ref = phi_evaluator(fine)
    diff = l2_line_error(coarse, ref, (0.25, 0.0), (0.25, 1.0))
    assert diff < 5e-4


def test_benchmark_mesh_is_reproducible(tmp_path):
    import importlib.resources as resources

    mesh = cylinder_benchmark_mesh()
    with resources.as_file(resources.files("efem") / "cases" / "cylinder_h0375.msh") as p:
        bundled = read_mesh(p)
    assert np.array_equal(mesh.nodes, bundled.nodes)
    assert np.array_equal(mesh.elements, bundled.elements)
    assert mesh.boundary_faces == bundled.boundary_faces


def test_benchmark_mesh_keeps_boundary_nodes():
    mesh = cylinder_benchmark_mesh()
    on_box = (np.abs(mesh.nodes) < 1e-12) | (np.abs(mesh.nodes - 1.0) < 1e-12)
    boundary_nodes = np.any(on_box, axis=1)
    grid = np.round(mesh.nodes * 27) / 27
    assert np.allclose(mesh.nodes[boundary_nodes], grid[boundary_nodes], atol=1e-12)


@pytest.mark.parametrize("counts", [(5, 7), (3, 4, 2)])
def test_jittered_mesh_moves_interior_nodes_within_the_amplitude(counts):
    mesh = jittered_mesh(counts, seed=3, amplitude=0.2)
    grid = generate_structured(len(counts), *counts)
    assert np.array_equal(mesh.elements, grid.elements)
    assert mesh.boundary_faces == grid.boundary_faces
    step = np.abs(mesh.nodes - grid.nodes)
    interior = np.all((grid.nodes > 1e-12) & (grid.nodes < 1.0 - 1e-12), axis=1)
    assert (step[~interior] == 0.0).all() and (step[interior] > 0.0).all()
    assert (step <= 0.2 / np.array(counts)).all()
    assert np.array_equal(jittered_mesh(counts, seed=3, amplitude=0.2).nodes, mesh.nodes)
    assert not np.array_equal(jittered_mesh(counts, seed=4, amplitude=0.2).nodes, mesh.nodes)


def test_default_3d_jitter_builds_valid_meshes():
    # a quarter-cell jitter inverts tetrahedra at 16^3 (seeds 2, 7, 12, 19);
    # the 3D default must build for every seed
    for seed in range(20):
        mesh = jittered_mesh((16,) * 3, seed)
        assert mesh.n_elements == 6 * 16**3
    assert np.abs(mesh.nodes - generate_structured(3, 16).nodes).max() <= 0.15 / 16


@pytest.mark.parametrize("n, seed", [(1, 0), (5, 7), (27, 0), (60, 123)])
def test_cylinder_benchmark_mesh_keeps_its_node_bits(n, seed):
    """The benchmark writes cylinder_benchmark_mesh(n, seed) as its 2D
    workload mesh: it gives the nodes of the formula it had before it became
    a call of jittered_mesh, bit for bit."""
    base = generate_structured(2, n, n)
    rng = np.random.default_rng(seed)
    nodes = np.array(base.nodes)
    h = 1.0 / n
    interior = np.all((nodes > 1e-12) & (nodes < 1.0 - 1e-12), axis=1)
    nodes[interior] += rng.uniform(-0.25 * h, 0.25 * h, size=(int(interior.sum()), 2))
    assert np.array_equal(cylinder_benchmark_mesh(n=n, seed=seed).nodes, nodes)
