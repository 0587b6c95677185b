"""The stacked point-callable contract.

Every callable the pipeline evaluates at points (Dirichlet data, the
reference of l2_line_error, the oracles' phi, phi_evaluator) takes a
(k, dim) stack and returns k values.  One point is a batch of one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efem.efem_core import _collect_dirichlet, assemble_global
from efem.interface import CircleLevelSet
from efem.mesh import BoundaryTag, generate_structured
from efem.oracles import (
    CylinderCase,
    PlanarCase,
    SphereCase,
    box_boundary,
    cylinder_benchmark_mesh,
    cylinder_materials,
    phi_evaluator,
    planar_levelset,
    planar_materials,
)
from efem.postprocess import build_solution, elements_containing, l2_line_error, locate_points
from efem.solver import solve


@pytest.fixture(scope="module")
def perturbed_field():
    mesh = cylinder_benchmark_mesh(n=12, seed=4)
    asm = assemble_global(mesh, CircleLevelSet((0.45, 0.55), 0.27), cylinder_materials(3.0),
                          "efem", box_boundary(2))
    phi, report = solve(asm.matrix, asm.rhs, tol=1e-10)
    assert report.converged
    return build_solution(asm, phi)


@pytest.mark.parametrize("returned", [lambda x: 1.0, lambda x: np.zeros((len(x), 1)),
                                      lambda x: np.zeros(len(x) + 1)])
def test_dirichlet_callable_of_the_wrong_shape_raises_type_error(returned):
    boundary = box_boundary(2)
    boundary["top"] = BoundaryTag("top", "dirichlet", returned)
    with pytest.raises(TypeError, match="Dirichlet callable of tag 'top' returned shape"):
        assemble_global(generate_structured(2, 3), planar_levelset(), planar_materials(3.0),
                        "efem", boundary)


def test_point_wise_dirichlet_callable_fails_on_a_tag_of_dim_nodes():
    # the top of one square cell has exactly dim = 2 nodes, so x[1], the y of
    # one point, has the shape of a stacked result; its values do not follow
    # the points when the stack is reversed
    mesh = generate_structured(2, 1)
    boundary = box_boundary(2)
    boundary["top"] = BoundaryTag("top", "dirichlet", lambda x: x[1])
    with pytest.raises(TypeError, match="Dirichlet callable of tag 'top' gave values that "
                                        "do not follow their points"):
        assemble_global(mesh, planar_levelset(), planar_materials(3.0), "efem", boundary)
    boundary["top"] = BoundaryTag("top", "dirichlet", lambda x: x[:, 1])
    asm = assemble_global(mesh, planar_levelset(), planar_materials(3.0), "efem", boundary)
    values = dict(zip(asm.dirichlet_nodes.tolist(), asm.dirichlet_values.tolist()))
    assert [values[n] for n in np.flatnonzero(mesh.nodes[:, 1] == 1.0)] == [1.0, 1.0]


@pytest.mark.parametrize("returned", [lambda x: 0.5, lambda x: np.zeros((len(x), 2)),
                                      lambda x: np.zeros(3)])
def test_l2_reference_of_the_wrong_shape_raises_type_error(planar_q3_efem, returned):
    with pytest.raises(TypeError, match="l2_line_error reference returned shape"):
        l2_line_error(planar_q3_efem, returned, (0.5, 0.0), (0.5, 1.0))


ORACLES = [(PlanarCase(3.0), 2), (CylinderCase(3.0), 2), (SphereCase(3.0), 3),
           (SphereCase(0.2, (0.45, 0.52, 0.5), 0.2), 3)]


@pytest.mark.parametrize("case, dim", ORACLES)
def test_oracle_phi_of_one_point_is_the_row_of_the_stack(case, dim):
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, size=(500, dim))
    x[:3] = np.asarray(case.center if hasattr(case, "center") else 0.5)   # r = 0 inside
    stacked = case.phi(x)
    assert stacked.shape == (500,) and stacked.dtype == float
    for p, value in zip(x, stacked):
        single = case.phi(p)
        assert type(single) is float and single == value


@pytest.mark.parametrize("case, dim", ORACLES)
def test_oracle_E_of_a_batch_of_one_is_the_row_of_the_stack(case, dim):
    # the oracles' E takes stacks only; a side applies to every row
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.uniform(0.0, 1.0, size=(200, dim)),
                        case.interface_points(50, rng)])
    x[0] = np.asarray(case.center if hasattr(case, "center") else 0.5)   # r = 0 inside
    for side in (-1, 0, 1):
        stacked = case.E(x, side=side)
        assert stacked.shape == (len(x), dim) and stacked.dtype == float
        for p, row in zip(x, stacked):
            assert np.array_equal(case.E(p[None], side=side)[0], row)


def test_phi_evaluator_is_stacked_and_keeps_the_locate_rule(perturbed_field):
    rng = np.random.default_rng(5)
    mesh = perturbed_field.mesh
    # random points, plus mesh nodes and edge midpoints, where several
    # elements hold the point and the smallest index must win
    x = np.concatenate([rng.uniform(0.0, 1.0, size=(300, 2)), mesh.nodes[::7],
                        mesh.nodes[mesh.elements[::5, :2]].mean(axis=1)])
    elems = locate_points(perturbed_field, x)
    assert elems.tolist() == [elements_containing(perturbed_field, p)[0] for p in x]
    assert elems.tolist() == [int(locate_points(perturbed_field, p[None])[0]) for p in x]
    phi = phi_evaluator(perturbed_field)
    stacked = phi(x)
    assert stacked.shape == (len(x),)
    assert all(phi(p) == value for p, value in zip(x, stacked))


def test_locate_points_names_the_first_point_outside(perturbed_field):
    with pytest.raises(ValueError, match=r"point \[1.5 0.5\] is outside the mesh"):
        locate_points(perturbed_field, [[0.5, 0.5], [1.5, 0.5], [2.0, 0.5]])


def test_solutions_on_one_mesh_share_the_centroid_tree(perturbed_field):
    mesh = perturbed_field.mesh
    tree = mesh.centroid_tree
    assert tree.n == mesh.n_elements
    locate_points(perturbed_field, [(0.3, 0.3)])
    assert mesh.centroid_tree is tree


# ---------------------------------------------------------------------------
# Dirichlet data: stacked evaluation keeps the messages of a walk


def _walk_dirichlet(mesh, boundary):
    """The (node, tag) walk that evaluated one pair at a time, kept as the
    reference for which error comes first."""
    seen = {}
    nodes, tags = mesh.boundary_node_tags
    for node, tag_name in zip(nodes.tolist(), tags):
        tag = boundary.get(tag_name)
        if tag is None:
            raise KeyError(f"mesh tag {tag_name!r} has no boundary assignment")
        if tag.kind != "dirichlet":
            continue
        value = float(tag.values_at(mesh.nodes[node][None])[0])
        if not math.isfinite(value):
            raise ValueError(f"node {node} has a non-finite Dirichlet value {value!r} "
                             f"from tag {tag_name!r}")
        prev, prev_tag = seen.setdefault(node, (value, tag_name))
        if value != prev:
            raise ValueError(
                f"node {node} has conflicting Dirichlet values: {prev!r} from tag "
                f"{prev_tag!r} and {value!r} from tag {tag_name!r}")
    nodes = np.array(sorted(seen), dtype=np.int64)
    return nodes, np.array([seen[int(i)][0] for i in nodes])


def _outcome(collect, mesh, boundary):
    try:
        nodes, values = collect(mesh, boundary)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    return nodes.tolist(), values.tolist()


values = st.sampled_from([0.0, 1.0, 2.5, math.nan, math.inf])


@st.composite
def boundaries(draw, dim):
    names = ["left", "right", "bottom", "top"] + (["front", "back"] if dim == 3 else [])
    out = {}
    for name in names:
        kind = draw(st.sampled_from(["constant", "callable", "callable", "neumann", "missing"]))
        if kind == "constant":
            out[name] = BoundaryTag(name, "dirichlet", draw(st.sampled_from([0.0, 1.0, 2.5])))
        elif kind == "callable":
            w = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(dim)])
            cut, a, b = draw(st.floats(-1.0, 1.0)), draw(values), draw(values)
            out[name] = BoundaryTag(name, "dirichlet",
                                    lambda x, w=w, cut=cut, a=a, b=b: np.where(x @ w > cut, a, b))
        elif kind == "neumann":
            out[name] = BoundaryTag(name, "neumann")
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]))
def test_stacked_dirichlet_gives_the_walk_result(data, dim):
    mesh = generate_structured(dim, 3 if dim == 2 else 2)
    boundary = data.draw(boundaries(dim))
    assert _outcome(_collect_dirichlet, mesh, boundary) == _outcome(_walk_dirichlet, mesh, boundary)
