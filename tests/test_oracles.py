"""Closed-form reference fields: values, jump conditions, reference recipes."""

import math

import numpy as np
import pytest

from efem.mesh import read_mesh
from efem.oracles import (
    CylinderCase,
    PlanarCase,
    SphereCase,
    box_boundary,
    conforming_inclined_mesh,
    cylinder_benchmark_mesh,
    cylinder_solution,
    fd_laplacian,
    phi_evaluator,
    planar_slopes,
    planar_solution,
    reference_solve,
    resolution,
    sphere_solution,
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
    phi_below = planar_solution(3.0, 0.5, side=-1)[0]
    phi_above = planar_solution(3.0, 0.5, side=+1)[0]
    assert abs(phi_below - 0.75) < 1e-15
    assert abs(phi_above - 0.75) < 1e-15


def test_planar_q1_is_uniform():
    for y in (0.1, 0.5, 0.9):
        phi, ey = planar_solution(1.0, y)
        assert abs(phi - y) < 1e-15
        assert abs(ey - 1.0) < 1e-15


def test_planar_conductor_upper_region():
    phi, ey = planar_solution(1e6, 0.75)
    assert abs(phi - 1.0) < 1e-5
    assert abs(ey) < 2e-6


def test_planar_rejects_outside_domain():
    with pytest.raises(ValueError, match="outside"):
        planar_solution(3.0, 1.2)


def test_planar_flux_continuity():
    for q in (1.0, 3.0, 1e6):
        g_lo, g_hi = planar_slopes(q)
        assert abs(1.0 * g_lo - q * g_hi) < 1e-9 * max(g_lo, 1.0)


def test_planar_case_jump_conditions(rng):
    case = PlanarCase(3.0)
    for p in case.interface_points(50, rng):
        assert abs(case.phi(p + [0, 1e-13]) - case.phi(p - [0, 1e-13])) < 1e-10
        En_below = case.E(p, side=-1)[1]
        En_above = case.E(p, side=+1)[1]
        assert abs(case.eps(-1) * En_below - case.eps(+1) * En_above) < 1e-12


def test_sphere_polar_values():
    assert abs(sphere_solution(3.0, 0.1, 0.05, 0.0) - 0.03) < 1e-15
    # continuity at the surface from both formulas
    inner = sphere_solution(3.0, 0.1, 0.1 - 1e-12, 0.7)
    outer = sphere_solution(3.0, 0.1, 0.1, 0.7)
    assert abs(inner - outer) < 1e-10
    assert abs(outer - 3.0 * 0.1 * math.cos(0.7) / 5.0) < 1e-12


def test_sphere_rejects_bad_radius():
    with pytest.raises(ValueError, match="positive"):
        sphere_solution(3.0, 0.0, 0.5, 0.0)


def test_sphere_case_jump_conditions(rng):
    case = SphereCase(3.0)
    pts = case.interface_points(40, rng)
    for p in pts:
        nrm = p - np.asarray(case.center)
        nrm = nrm / np.linalg.norm(nrm)
        E_in = case.E(p, side=-1)
        E_out = case.E(p, side=+1)
        jump_flux = case.eps(-1) * (E_in @ nrm) - case.eps(+1) * (E_out @ nrm)
        assert abs(jump_flux) < 1e-12
        tang = E_in - (E_in @ nrm) * nrm - (E_out - (E_out @ nrm) * nrm)
        assert np.abs(tang).max() < 1e-12


def test_sphere_phi_continuous_at_surface(rng):
    case = SphereCase(3.0)
    for p in case.interface_points(40, rng):
        d = p - np.asarray(case.center)
        d /= np.linalg.norm(d)
        inner = case.phi(np.asarray(case.center) + d * (case.radius - 1e-10))
        outer = case.phi(np.asarray(case.center) + d * (case.radius + 1e-10))
        assert abs(inner - outer) < 1e-8


def test_sphere_satisfies_laplace(rng):
    # The finite-difference stencil needs clearance from the surface: the
    # exterior field decays like r**-2, so its fourth derivative blows up
    # near the inclusion and pollutes the h**2 truncation estimate.
    case = SphereCase(3.0)
    center = np.asarray(case.center)
    checked = 0
    while checked < 20:
        x = rng.uniform(0.1, 0.9, size=3)
        if np.linalg.norm(x - center) < 0.25:
            continue
        assert abs(fd_laplacian(case.phi, x)) < 1e-4
        checked += 1
    for shift in ([0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [0.0, -0.06, 0.03]):
        lap = fd_laplacian(case.phi, center + np.asarray(shift))
        assert abs(lap) < 1e-8


def test_cylinder_case_jump_conditions(rng):
    case = CylinderCase(3.0)
    for p in case.interface_points(40, rng):
        nrm = (p - np.asarray(case.center)) / case.radius
        flux = case.eps(-1) * (case.E(p, side=-1) @ nrm) - case.eps(+1) * (case.E(p, side=+1) @ nrm)
        assert abs(flux) < 1e-12


def test_cylinder_polar_continuity():
    inner = cylinder_solution(3.0, 0.2, 0.2 - 1e-13, 1.1)
    outer = cylinder_solution(3.0, 0.2, 0.2, 1.1)
    assert abs(inner - outer) < 1e-10


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
