"""Enrichment basis, element integrals, condensation and global assembly."""

import numpy as np
import pytest

from efem import efem_core, interface
from efem.efem_core import (
    CONDENSE_GUARD,
    MODES,
    MaterialPair,
    SingularSystemError,
    assemble_global,
    condense,
    element_displacement_terms,
    element_matrices,
    hat_gradients,
    hat_value,
)
from efem.interface import (
    CircleLevelSet,
    NodalLevelSet,
    PlaneLevelSet,
    SphereLevelSet,
    classify_elements,
    split_simplex,
)
from efem import mesh as mesh_mod
from efem.mesh import (
    BoundaryTag,
    face_measure_normal,
    generate_structured,
    local_faces,
    p1_gradients,
    signed_measures,
)
from efem.oracles import (
    SPHERE_CENTER,
    SPHERE_RADIUS,
    PlanarCase,
    box_boundary,
    jittered_mesh,
    planar_levelset,
    planar_materials,
    sphere_levelset,
    sphere_materials,
)
from efem.postprocess import build_solution
from efem.solver import solve

from face_reference import ref_faces, ref_virtual_nodes

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
REF_TET = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
D_TRI = np.array([-1.0, 1.0, 1.0])


def stack(coords):
    """One simplex as a stack of one: (coords, measures, grads)."""
    X = np.asarray(coords, dtype=float)[None]
    return X, np.abs(signed_measures(X)), p1_gradients(X)


def one(coords, d):
    """split_simplex of one simplex: a batch of one."""
    return split_simplex(np.asarray(coords, dtype=float)[None], np.asarray(d, dtype=float)[None])


def hat_at(coords, d, x):
    """Nbar of one element at the points x (P, dim), by one barycentric solve."""
    x = np.asarray(x, dtype=float)
    A = np.vstack([coords.T, np.ones(len(coords))])
    lam = np.linalg.solve(A, np.vstack([x.T, np.ones(len(x))])).T
    return hat_value(lam, d)


def children(batch):
    """[(vertices, sign, measure)] of the children of a batch of one."""
    n = batch.n_children[0]
    return [(batch.points[0, c], int(s), float(m)) for c, s, m in
            zip(batch.children[0, :n], batch.child_sign[0, :n], batch.child_measure[0, :n])]


def face_pieces(coords, d):
    """Per local face of one simplex, [(vertices, sign, measure)] of its
    sign-homogeneous pieces, split in-test."""
    return ref_faces(coords, d, ref_virtual_nodes(coords, d))


def condense_one(K, B, kenr, D, denr):
    """condense on a stack of one block: (condensed K + B r^T, recovery r, margin)."""
    r, margin = condense(B[None], np.array([kenr]), D[None], np.array([denr]))
    return K + B[:, None] * r[0][None, :], r[0], margin[0]


def standard_blocks(grads, mat, deco):
    """(sum_c eps_c m_c) G G^T of each element of deco, children in table
    order: the standard block that assembly gives a cut element."""
    weight = sum(np.where(s > 0, mat.eps1, mat.eps2) * m
                 for m, s in zip(deco.child_measure.T, deco.child_sign.T))
    return weight[:, None, None] * np.matmul(grads, grads.transpose(0, 2, 1))


def fit_child_gradient(coords, nodal_d, vertices):
    """Independent per-child hat gradient: linear fit through vertex values."""
    return p1_gradients(vertices[None])[0].T @ hat_at(coords, nodal_d, vertices)


def test_hat_vanishes_at_nodes():
    assert np.abs(hat_at(REF_TRI, D_TRI, REF_TRI)).max() < 1e-14


def test_hat_zero_on_uncut_element():
    rng = np.random.default_rng(5)
    d = np.array([0.5, 1.0, 2.0])
    x = rng.dirichlet(np.ones(3), size=20) @ REF_TRI
    assert np.abs(hat_at(REF_TRI, d, x)).max() < 1e-14


def test_hat_at_virtual_node():
    assert abs(hat_at(REF_TRI, D_TRI, [[0.5, 0.0]])[0] - 1.0) < 1e-14


def test_hat_nonnegative_inside():
    rng = np.random.default_rng(6)
    lam = rng.dirichlet(np.ones(3), size=100)
    assert (hat_value(lam, D_TRI) >= -1e-14).all()


def test_hat_continuous_across_interface():
    # interface of the reference cut runs from (0.5, 0) to (0, 0.5)
    t = np.linspace(0.0, 1.0, 11)[:, None]
    p = (1 - t) * np.array([0.5, 0.0]) + t * np.array([0.0, 0.5])
    shift = 1e-9 * np.array([1.0, 1.0])
    below = hat_at(REF_TRI, D_TRI, p - shift)
    above = hat_at(REF_TRI, D_TRI, p + shift)
    assert np.abs(below - above).max() < 1e-8


def test_hat_gradients_match_finite_differences():
    _, _, grads = stack(REF_TRI)
    g_pos, g_neg = (g[0] for g in hat_gradients(grads, D_TRI[None]))
    eps = 1e-7
    x_neg = np.array([0.05, 0.05])       # deep in the d < 0 corner
    x_pos = np.array([0.4, 0.4])
    for x, g in ((x_neg, g_neg), (x_pos, g_pos)):
        steps = eps * np.eye(2)
        fd = (hat_at(REF_TRI, D_TRI, x + steps) - hat_at(REF_TRI, D_TRI, x - steps)) / (2 * eps)
        assert np.abs(fd - g).max() < 1e-6


@pytest.mark.parametrize("dim", [2, 3])
def test_batched_kernels_match_single_points_bitwise(dim):
    # row i of a stack has the bits of the stack of that one row
    rng = np.random.default_rng(40 + dim)
    lam = rng.dirichlet(np.ones(dim + 1), size=50)
    d = rng.normal(size=(50, dim + 1))
    hats = hat_value(lam, d)
    assert hats.shape == (50,)
    single = [hat_value(lam[i:i + 1], d[i:i + 1]) for i in range(50)]
    assert np.array_equal(hats, np.concatenate(single))
    shared = [hat_value(lam[i:i + 1], d[:1]) for i in range(50)]
    assert np.array_equal(hat_value(lam, d[0]), np.concatenate(shared))


def _displacement_terms_per_point(coords, grads, mat, d):
    """D and Denr of one element with Nbar solved for at every quadrature
    point, summed piece by piece, and their rounding scales: the summed term
    magnitudes with Nbar bounded by max |d|, as Nbar is a difference of
    terms that large."""
    tri_pts = np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]])
    dim = coords.shape[1]
    g_pos, g_neg = (g[0] for g in hat_gradients(grads[None], d[None]))
    D, Denr = np.zeros(dim + 1), 0.0
    D_abs, Denr_abs = np.zeros(dim + 1), 0.0
    for lf, pieces in enumerate(face_pieces(coords, d)):
        if len(pieces) == 1:
            continue
        idx = list(local_faces(dim)[lf])
        _, normal = face_measure_normal(coords[idx][None], coords.mean(axis=0))
        normal = normal[0]
        for vertices, sign, measure in pieces:
            eps = mat.for_sign(sign)
            gbar = g_pos if sign > 0 else g_neg
            if dim == 2:
                mid = 0.5 * (vertices[0] + vertices[1])
                nbar_int = hat_at(coords, d, mid[None])[0] * measure
            else:
                nbar_int = measure / 3.0 * sum(hat_at(coords, d, tri_pts @ vertices).tolist())
            D += nbar_int * (eps * (grads @ normal))
            Denr += nbar_int * eps * float(gbar @ normal)
            bound = measure * np.abs(d).max()
            D_abs += bound * np.abs(eps * (grads @ normal))
            Denr_abs += bound * eps * abs(float(gbar @ normal))
    return D, Denr, D_abs, Denr_abs


@pytest.mark.parametrize("dim", [2, 3])
def test_displacement_terms_match_per_point_quadrature(dim):
    # the kernel integrates Nbar in closed form, the reference solves for
    # it at every quadrature point of an in-test face split
    rng = np.random.default_rng(50 + dim)
    mat = MaterialPair(3.0, 1.0)
    checked = 0
    while checked < 40:
        coords = rng.normal(size=(dim + 1, dim))
        d = rng.normal(size=dim + 1)
        if np.linalg.det(coords[1:] - coords[0]) <= 0.0 or (d > 0).all() or (d < 0).all():
            continue
        _, _, grads = stack(coords)
        D, Denr = element_displacement_terms(grads, mat, one(coords, d))
        D_ref, Denr_ref, D_abs, Denr_abs = _displacement_terms_per_point(coords, grads[0], mat, d)
        # relative to the rounding scale of the reference
        assert np.abs(D[0] - D_ref).max() <= 1e-12 * D_abs.max()
        assert abs(Denr[0] - Denr_ref) <= 1e-12 * Denr_abs
        checked += 1


def uncut_block(eps, measure, grads):
    """eps * measure * G G^T of one element: the block assemble_global forms
    for an uncut element."""
    return eps * measure[0] * grads[0] @ grads[0].T


def test_uncut_stiffness_unit_triangle():
    _, measure, grads = stack(REF_TRI)
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(uncut_block(1.0, measure, grads), expected, atol=1e-14)


def test_cut_equal_permittivity_matches_uncut_K():
    _, measure, grads = stack(REF_TRI)
    mat = MaterialPair(2.5, 2.5)
    deco = one(REF_TRI, D_TRI)
    assert np.allclose(standard_blocks(grads, mat, deco)[0], uncut_block(2.5, measure, grads),
                       atol=1e-13)
    assert element_matrices(grads, mat, deco)[1][0] > 0.0
    # in standard mode a cut element's block is the uncut one
    mesh = generate_structured(2, 6, 6)
    cut = assemble_global(mesh, CircleLevelSet((0.45, 0.55), 0.27), mat, "standard",
                          box_boundary(2))
    uncut = assemble_global(mesh, CircleLevelSet((0.45, 0.55), 2.0), mat, "standard",
                            box_boundary(2))
    assert cut.classification.is_cut.any() and not uncut.classification.is_cut.any()
    assert np.abs(cut.matrix.data - uncut.matrix.data).max() < 1e-13


def test_K_and_B_rows_balance():
    _, _, grads = stack(REF_TRI)
    mat, deco = MaterialPair(3.0, 1.0), one(REF_TRI, D_TRI)
    B, _ = element_matrices(grads, mat, deco)
    assert np.abs(standard_blocks(grads, mat, deco).sum(axis=2)).max() < 1e-13
    assert abs(B.sum()) < 1e-13


def test_kenr_against_per_child_fit():
    _, _, grads = stack(REF_TRI)
    deco = one(REF_TRI, D_TRI)
    mat = MaterialPair(3.0, 1.0)
    B, Kenr = element_matrices(grads, mat, deco)
    kenr = 0.0
    b = np.zeros(2)
    for vertices, sign, child_measure in children(deco):
        g = fit_child_gradient(REF_TRI, D_TRI, vertices)
        eps = mat.for_sign(sign)
        kenr += eps * child_measure * float(g @ g)
        b += eps * child_measure * g
    assert abs(Kenr[0] - kenr) < 1e-12
    assert np.abs(B[0] - grads[0] @ b).max() < 1e-12


def test_kenr_fit_3d():
    _, _, grads = stack(REF_TET)
    d = np.array([-1.0, -0.5, 1.0, 0.7])
    deco = one(REF_TET, d)
    mat = MaterialPair(5.0, 2.0)
    _, Kenr = element_matrices(grads, mat, deco)
    kenr = sum(
        mat.for_sign(s) * m * float(np.dot(*(2 * [fit_child_gradient(REF_TET, d, v)])))
        for v, s, m in children(deco)
    )
    assert abs(Kenr[0] - kenr) < 1e-12


def test_displacement_terms_sum_to_zero():
    _, _, grads = stack(REF_TRI)
    D, _ = element_displacement_terms(grads, MaterialPair(3.0, 1.0), one(REF_TRI, D_TRI))
    assert abs(D.sum()) < 1e-12 * max(np.abs(D).max(), 1.0)


def test_displacement_terms_against_trapezoid():
    _, _, grads = stack(REF_TRI)
    deco = one(REF_TRI, D_TRI)
    mat = MaterialPair(3.0, 1.0)
    D, Denr = element_displacement_terms(grads, mat, deco)
    g_pos, g_neg = (g[0] for g in hat_gradients(grads, D_TRI[None]))
    centroid = REF_TRI.mean(axis=0)

    D_ref = np.zeros(3)
    Denr_ref = 0.0
    for lf, pieces in enumerate(face_pieces(REF_TRI, D_TRI)):
        if len(pieces) == 1:
            continue
        idx = list(local_faces(2)[lf])
        normal = face_measure_normal(REF_TRI[idx][None], centroid)[1][0]
        for vertices, sign, measure in pieces:
            eps = mat.for_sign(sign)
            gbar = g_pos if sign > 0 else g_neg
            ts = np.linspace(0.0, 1.0, 50)
            pts = vertices[0] + ts[:, None] * (vertices[1] - vertices[0])
            nbar = hat_at(REF_TRI, D_TRI, pts)
            trapezoid = getattr(np, "trapezoid", None) or np.trapz
            integral = trapezoid(nbar, dx=measure / (ts.size - 1))
            D_ref += integral * eps * (grads[0] @ normal)
            Denr_ref += integral * eps * float(gbar @ normal)
    assert np.abs(D[0] - D_ref).max() < 1e-10
    assert abs(Denr[0] - Denr_ref) < 1e-10


def test_displacement_terms_centroid_rule_3d():
    _, _, grads = stack(REF_TET)
    d = np.array([-1.0, 1.0, 1.0, 1.0])
    deco = one(REF_TET, d)
    mat = MaterialPair(4.0, 1.5)
    D, Denr = element_displacement_terms(grads, mat, deco)
    g_pos, g_neg = (g[0] for g in hat_gradients(grads, d[None]))
    centroid = REF_TET.mean(axis=0)

    D_ref = np.zeros(4)
    Denr_ref = 0.0
    for lf, pieces in enumerate(face_pieces(REF_TET, d)):
        if len(pieces) == 1:
            continue
        idx = list(local_faces(3)[lf])
        normal = face_measure_normal(REF_TET[idx][None], centroid)[1][0]
        for vertices, sign, measure in pieces:
            eps = mat.for_sign(sign)
            gbar = g_pos if sign > 0 else g_neg
            # Nbar is linear on the piece: the centroid value integrates it
            nbar_int = measure * hat_at(REF_TET, d, vertices.mean(axis=0)[None])[0]
            D_ref += nbar_int * eps * (grads[0] @ normal)
            Denr_ref += nbar_int * eps * float(gbar @ normal)
    assert np.abs(D[0] - D_ref).max() < 1e-12
    assert abs(Denr[0] - Denr_ref) < 1e-12


def test_condense_without_enrichment_is_singular():
    # a block with Kenr - Denr = 0 has no pass-through: its margin flags it
    # singular, so assembly falls back on it like on any singular block
    K = np.array([[2.0, -1.0], [-1.0, 2.0]])
    _, _, margin = condense_one(K, np.zeros(2), 0.0, np.zeros(2), 0.0)
    assert margin == 0.0 and margin <= CONDENSE_GUARD


def test_condense_no_D_is_symmetric_schur():
    rng = np.random.default_rng(11)
    G = rng.normal(size=(3, 3))
    K = G @ G.T + np.eye(3)
    B = rng.normal(size=3)
    kenr = 2.7
    condensed, _, _ = condense_one(K.copy(), B, kenr, np.zeros(3), 0.0)
    expected = K - np.outer(B, B) / kenr
    assert np.allclose(condensed, expected, atol=1e-13)
    assert np.allclose(condensed, condensed.T, atol=1e-13)


def test_condense_matches_hand_elimination():
    rng = np.random.default_rng(12)
    for n in (3, 4):                 # triangle and tetrahedron block sizes
        G = rng.normal(size=(n, n))
        K = G @ G.T + n * np.eye(n)
        B = rng.normal(size=n)
        D = rng.normal(size=n)
        kenr, denr = 3.4, 0.6
        f = rng.normal(size=n)

        full = np.zeros((n + 1, n + 1))
        full[:n, :n] = K
        full[:n, n] = B
        full[n, :n] = B - D
        full[n, n] = kenr - denr
        sol_full = np.linalg.solve(full, np.append(f, 0.0))

        condensed, recovery, _ = condense_one(K.copy(), B, kenr, D, denr)
        sol_cond = np.linalg.solve(condensed, f)
        assert np.abs(sol_full[:n] - sol_cond).max() < 1e-10
        assert abs(sol_full[n] - recovery @ sol_cond) < 1e-10


def test_condense_guards_singular_scalar(monkeypatch):
    # a stack keeps going past a singular block and flags it by its margin
    B, D = np.ones((2, 3)), np.zeros((2, 3))
    recovery, margin = condense(B, np.array([1.0, 3.0]), D, np.array([1.0, 0.5]))
    assert margin[0] <= CONDENSE_GUARD < margin[1]
    alone = condense_one(2.0 * np.eye(3), B[1], 3.0, D[1], 0.5)
    assert np.array_equal(recovery[1], alone[1]) and margin[1] == alone[2]

    # assembly records such an element as a singular-condensation fallback
    real = efem_core.condense

    def singular_first(B, Kenr, D, Denr):
        Denr = Denr.copy()
        Denr[0] = Kenr[0]
        return real(B, Kenr, D, Denr)

    monkeypatch.setattr(efem_core, "condense", singular_first)
    mesh = generate_structured(2, 5, 5)
    asm = assemble_global(mesh, planar_levelset(), planar_materials(3.0), "efem",
                          box_boundary(2))
    first = int(asm.classification.cut_elements[0])
    assert asm.fallback_elements == [first]
    assert asm.fallback_reasons == ["singular condensation"]
    assert first not in asm.cut_data.ids.tolist()
    assert np.isfinite(asm.matrix.data).all() and np.isfinite(asm.condense_margin)


def _efem_margins(mesh, levelset, mat):
    """(fallback elements, condense_margin, the margin of every non-degenerate
    cut element) of efem assembly."""
    asm = assemble_global(mesh, levelset, mat, "efem", box_boundary(mesh.dim))
    cl = asm.classification
    cut = cl.cut_elements
    deco = split_simplex(mesh.nodes[mesh.elements[cut]], cl.d[mesh.elements[cut]])
    live = np.flatnonzero(~deco.degenerate)
    kept, grads = deco.take(live), mesh.grads[cut[live]]
    B, kenr = element_matrices(grads, mat, kept)
    D, denr = element_displacement_terms(grads, mat, kept)
    return asm.fallback_elements, asm.condense_margin, condense(B, kenr, D, denr)[1]


@pytest.mark.parametrize("dim", [2, 3])
def test_condense_guard_is_scale_free(dim):
    # Kenr - Denr carries a squared length and a permittivity; the margin
    # must not, or SI permittivities (eps0 = 8.854e-12) refuse every cut
    if dim == 2:
        mesh, center, radius = jittered_mesh((8, 8), seed=2), np.array([0.45, 0.55]), 0.27
    else:
        mesh, center, radius = generate_structured(3, 4), np.array([0.48, 0.5, 0.53]), 0.3
    level = CircleLevelSet if dim == 2 else SphereLevelSet
    fallback, smallest, margins = _efem_margins(mesh, level(center, radius), MaterialPair(3.0, 1.0))
    assert margins.size > 0 and (margins > CONDENSE_GUARD).all()
    runs = [(mesh, level(center, radius), MaterialPair(3.0 * s, s))
            for s in (8.854e-12, 1e-6, 1e6)]
    runs += [(mesh_mod.Mesh.build(dim, L * mesh.nodes, mesh.elements, mesh.boundary_faces,
                                  mesh.boundary_tags),
              level(L * center, L * radius), MaterialPair(3.0, 1.0)) for L in (1e-3, 1e3)]
    for scaled in runs:
        fb, sm, m = _efem_margins(*scaled)
        assert fb == fallback
        assert abs(sm - smallest) <= 1e-12 * smallest
        assert np.abs(m - margins).max() <= 1e-12 * margins.max()


def test_sphere3d_centres_condense_every_cut():
    # the sphere3d benchmark centres of seeds 1-10 at n = 32: corner cuts
    # whose margins reach 9e-5 (seed 4), every one condensed
    mesh = generate_structured(3, 32)
    h = 1.0 / 32
    for seed in range(1, 11):
        rng = np.random.default_rng(seed)
        centre = np.asarray(SPHERE_CENTER) + rng.uniform(-h / 2, h / 2, size=3)
        asm = assemble_global(mesh, SphereLevelSet(centre, SPHERE_RADIUS), sphere_materials(3.0),
                              "efem", box_boundary(3))
        assert asm.fallback_elements == [], seed
        assert len(asm.cut_data) == asm.classification.cut_elements.size > 0


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_small_jittered_spheres_condense_every_cut(n):
    # the bundled sphere on coarse jittered meshes, where a few tets hold
    # the whole interface: every cut is enriched in both enriched modes
    for seed in range(5):
        mesh = jittered_mesh((n,) * 3, seed, amplitude=0.15)
        cl = classify_elements(mesh, sphere_levelset())
        assert cl.cut_elements.size > 0
        for mode in ("efem", "efem-nod"):
            asm = assemble_global(mesh, sphere_levelset(), sphere_materials(3.0), mode,
                                  box_boundary(3), classification=cl)
            assert asm.fallback_elements == [], (seed, mode)


# ---------------------------------------------------------------------------
# global assembly


def _planar_system(q, n, mode):
    mesh = generate_structured(2, n, n)
    return assemble_global(mesh, planar_levelset(), planar_materials(q), mode, box_boundary(2))


def test_assembly_rejects_unknown_mode():
    mesh = generate_structured(2, 3, 3)
    with pytest.raises(ValueError, match="unknown mode"):
        assemble_global(mesh, planar_levelset(), planar_materials(3), "fem", box_boundary(2))


@pytest.mark.parametrize("eps1, eps2, field, cause", [
    (float("nan"), 1.0, "eps1", "finite"),
    (1.0, float("inf"), "eps2", "finite"),
    (-1.0, 1.0, "eps1", "positive"),
    (1.0, 0.0, "eps2", "positive"),
])
def test_material_pair_rejects_bad_permittivity(eps1, eps2, field, cause):
    with pytest.raises(ValueError, match=f"{field} must be {cause}"):
        MaterialPair(eps1, eps2)


def test_standard_mode_records_no_fallback():
    # standard mode averages eps in cut elements by design; that is no fallback
    mesh = generate_structured(2, 12, 12)
    levelset = CircleLevelSet((0.45, 0.55), 0.27)
    for mode in MODES:
        asm = assemble_global(mesh, levelset, MaterialPair(3.0, 1.0), mode, box_boundary(2))
        assert asm.classification.cut_elements.size > 0
        assert asm.fallback_elements == []


def test_degenerate_cut_is_a_fallback_in_every_mode(monkeypatch):
    monkeypatch.setattr(interface, "SNAP_TOL", 0.0)
    mesh = generate_structured(2, 2, 2)
    values = np.ones(mesh.n_nodes)
    values[4] = -1e-17                       # centre node: sliver children, no snapping
    for mode in MODES:
        levelset = NodalLevelSet(values)
        asm = assemble_global(mesh, levelset, MaterialPair(3.0, 1.0), mode, box_boundary(2))
        assert asm.classification.cut_elements.size > 0
        assert asm.fallback_elements == asm.classification.cut_elements.tolist()


def test_assembly_shares_geometry_with_solution(monkeypatch):
    # the mesh owns the element geometry: each element's gradient is computed
    # once per mesh, one row block at a time, and serves the assembly of every
    # mode and the solution built from it; the measures are those the mesh's
    # orientation check took
    calls = []
    real = mesh_mod.p1_gradients
    monkeypatch.setattr(mesh_mod, "p1_gradients", lambda X: calls.append(np.array(X)) or real(X))
    monkeypatch.setattr(mesh_mod, "_ROW_BLOCK", 7)
    mesh = generate_structured(2, 4, 4)
    assert calls == []
    for mode in MODES:
        asm = assemble_global(mesh, planar_levelset(), planar_materials(3.0), mode,
                              box_boundary(2))
        phi, _ = solve(asm.matrix, asm.rhs, tol=1e-10)
        assert build_solution(asm, phi).mesh is mesh
    assert [len(X) for X in calls] == [7, 7, 7, 7, 4]
    assert np.array_equal(np.concatenate(calls), mesh.nodes[mesh.elements])
    X = mesh.nodes[mesh.elements]
    assert np.array_equal(mesh.measures, np.abs(signed_measures(X)))
    assert np.array_equal(mesh.grads, real(X))


def test_assembly_requires_dirichlet():
    mesh = generate_structured(2, 3, 3)
    neumann_only = {t: BoundaryTag(t, "neumann") for t in ("left", "right", "bottom", "top")}
    with pytest.raises(SingularSystemError):
        assemble_global(mesh, planar_levelset(), planar_materials(3), "efem", neumann_only)


def test_assembly_names_missing_tag():
    mesh = generate_structured(2, 3, 3)
    partial = {t: BoundaryTag(t, "neumann") for t in ("left", "right", "bottom")}
    partial["bottom"] = BoundaryTag("bottom", "dirichlet", 0.0)
    with pytest.raises(KeyError, match="top"):
        assemble_global(mesh, planar_levelset(), planar_materials(3), "efem", partial)


def test_assembly_rejects_conflicting_dirichlet_values():
    # left and bottom meet at corner node 0
    mesh = generate_structured(2, 2)
    boundary = box_boundary(2)
    boundary["left"] = BoundaryTag("left", "dirichlet", 5.0)
    with pytest.raises(ValueError) as info:
        assemble_global(mesh, planar_levelset(), planar_materials(3), "efem", boundary)
    message = str(info.value)
    assert message.startswith("node 0 has conflicting Dirichlet values")
    for part in ("'left'", "'bottom'", "5.0", "0.0"):
        assert part in message


def test_assembly_rejects_non_finite_callable_dirichlet_value():
    mesh = generate_structured(2, 2)
    boundary = box_boundary(2)
    boundary["top"] = BoundaryTag("top", "dirichlet", lambda x: np.full(len(x), np.nan))
    e, lf = mesh.boundary_faces[np.flatnonzero(mesh.boundary_tags == "top")[0]]
    node = int(mesh.elements[e, local_faces(2)[lf][0]])
    with pytest.raises(ValueError) as info:
        assemble_global(mesh, planar_levelset(), planar_materials(3), "efem", boundary)
    assert str(info.value) == f"node {node} has a non-finite Dirichlet value nan from tag 'top'"


def test_dirichlet_callable_is_evaluated_once_per_node_and_tag():
    mesh = generate_structured(3, 3)
    calls = []

    def height(tag):
        def value(x):
            calls.append((tag, x.tolist()))
            return x[:, 2]
        return value

    tags = ("left", "right", "bottom", "top", "front", "back")
    boundary = {t: BoundaryTag(t, "dirichlet", height(t)) for t in tags}
    asm = assemble_global(mesh, PlaneLevelSet((0.0, 0.0, 0.4), (0.0, 0.0, 1.0)),
                          planar_materials(3), "efem", boundary)
    node_of = {tuple(p): i for i, p in enumerate(mesh.nodes.tolist())}
    evaluated = [(node_of[tuple(p)], tag) for tag, points in calls for p in points]
    pairs = {(int(n), tag) for (e, lf), tag in zip(mesh.boundary_faces, mesh.boundary_tags.tolist())
             for n in mesh.elements[e, list(local_faces(3)[lf])]}
    assert sorted(tag for tag, _ in calls) == sorted(tags)          # one call per tag
    assert len(evaluated) == len(set(evaluated)) and set(evaluated) == pairs
    assert len(evaluated) < mesh.dim * len(mesh.boundary_faces)
    assert np.array_equal(asm.dirichlet_values, mesh.nodes[asm.dirichlet_nodes, 2])


def test_assembly_accepts_equal_dirichlet_values_on_shared_nodes():
    mesh = generate_structured(2, 2)
    boundary = {t: BoundaryTag(t, "dirichlet", 0.0) for t in ("left", "bottom")}
    boundary.update({t: BoundaryTag(t, "neumann") for t in ("right", "top")})
    asm = assemble_global(mesh, planar_levelset(), planar_materials(3), "efem", boundary)
    assert 0 in asm.dirichlet_nodes


def test_sparsity_pattern_identical_across_modes():
    systems = [_planar_system(3.0, 5, mode) for mode in MODES]
    base = systems[0].matrix
    for other in systems[1:]:
        assert np.array_equal(base.indptr, other.matrix.indptr)
        assert np.array_equal(base.indices, other.matrix.indices)


def test_pattern_equals_node_adjacency():
    asm = _planar_system(3.0, 4, "efem")
    mesh = asm.mesh
    expect = {(int(i), int(i)) for i in range(mesh.n_nodes)}
    for conn in mesh.elements:
        for a in conn:
            for b in conn:
                expect.add((int(a), int(b)))
    coo = asm.matrix.tocoo()
    got = set(zip(coo.row.tolist(), coo.col.tolist()))
    assert got == expect


def test_single_material_standard_and_full_agree():
    sols = {}
    for mode in MODES:
        asm = _planar_system(1.0, 5, mode)
        phi, rep = solve(asm.matrix, asm.rhs, tol=1e-12)
        assert rep.converged
        sols[mode] = phi
    # with the displacement terms the enrichment condenses away exactly
    assert np.abs(sols["standard"] - sols["efem"]).max() < 1e-8
    # without them the enrichment is inconsistent even for a single material;
    # this nonzero deviation is the ablation effect the method repairs
    assert np.abs(sols["standard"] - sols["efem-nod"]).max() > 1e-3


def test_single_material_rows_of_uncut_nodes_match_standard():
    std = _planar_system(1.0, 5, "standard")
    full = _planar_system(1.0, 5, "efem")
    cut_nodes = set()
    for e in std.classification.cut_elements:
        cut_nodes.update(int(i) for i in std.mesh.elements[e])
    a, b = std.matrix.toarray(), full.matrix.toarray()
    for i in range(std.mesh.n_nodes):
        if i not in cut_nodes:
            assert np.abs(a[i] - b[i]).max() < 1e-12


def test_patch_linear_field():
    mesh = generate_structured(2, 5, 5)
    levelset = PlaneLevelSet((0.0, 0.3), (-1.0, 1.0))    # cuts the mesh at 45 degrees

    def g(x):
        return 0.3 * x[:, 0] + 0.7 * x[:, 1] + 0.1

    boundary = {t: BoundaryTag(t, "dirichlet", g) for t in ("left", "right", "bottom", "top")}
    exact = g(mesh.nodes)
    for mode in ("standard", "efem"):
        asm = assemble_global(mesh, levelset, MaterialPair(2.5, 2.5), mode, boundary)
        assert asm.classification.cut_elements.size > 0
        phi, rep = solve(asm.matrix, asm.rhs, tol=1e-12)
        assert rep.converged
        assert np.abs(phi - exact).max() < 1e-8


def test_patch_linear_field_3d():
    mesh = generate_structured(3, 2, 2, 2)
    levelset = PlaneLevelSet((0.0, 0.0, 0.3), (0.1, 0.2, 1.0))

    def g(x):
        return 0.4 * x[:, 0] - 0.2 * x[:, 1] + 0.5 * x[:, 2]

    tags = ("left", "right", "bottom", "top", "front", "back")
    boundary = {t: BoundaryTag(t, "dirichlet", g) for t in tags}
    exact = g(mesh.nodes)
    asm = assemble_global(mesh, levelset, MaterialPair(1.5, 1.5), "efem", boundary)
    assert asm.classification.cut_elements.size > 0
    phi, rep = solve(asm.matrix, asm.rhs, tol=1e-12)
    assert rep.converged
    assert np.abs(phi - exact).max() < 1e-8


def test_planar_nodal_exactness_q3():
    asm = _planar_system(3.0, 5, "efem")
    phi, rep = solve(asm.matrix, asm.rhs, tol=1e-10)
    assert rep.converged
    exact = PlanarCase(3.0).phi(asm.mesh.nodes)
    assert np.abs(phi - exact).max() < 1e-6


def test_condensed_equals_explicit_block_system():
    mesh = generate_structured(2, 5, 5)
    levelset = planar_levelset()
    mat = planar_materials(3.0)
    for mode in ("efem", "efem-nod"):
        asm = assemble_global(mesh, levelset, mat, mode, box_boundary(2))
        phi_c, rep = solve(asm.matrix, asm.rhs, tol=1e-8, direct=True)
        assert rep.converged

        cl = classify_elements(mesh, levelset)
        measures, grads = mesh.measures, mesh.grads
        nn = mesh.n_nodes
        cut = [int(e) for e in cl.cut_elements]
        enr = {e: nn + k for k, e in enumerate(cut)}
        N = nn + len(cut)
        deco = split_simplex(mesh.nodes[mesh.elements[cut]], cl.d[mesh.elements[cut]])
        K = standard_blocks(grads[cut], mat, deco)
        B, Kenr = element_matrices(grads[cut], mat, deco)
        D, Denr = np.zeros(B.shape), np.zeros(Kenr.shape)
        if mode == "efem":
            D, Denr = element_displacement_terms(grads[cut], mat, deco)
        A = np.zeros((N, N))
        for e in range(mesh.n_elements):
            conn = mesh.elements[e]
            if cl.is_cut[e]:
                j = enr[e]
                k = j - nn
                A[np.ix_(conn, conn)] += K[k]
                A[conn, j] += B[k]
                A[j, conn] += B[k] - D[k]
                A[j, j] += Kenr[k] - Denr[k]
            else:
                eps = mat.for_sign(int(cl.element_sign[e]))
                A[np.ix_(conn, conn)] += eps * measures[e] * (grads[e] @ grads[e].T)

        rhs = np.zeros(N)
        for node, value in zip(asm.dirichlet_nodes, asm.dirichlet_values):
            col = A[:, node].copy()
            col[node] = 0.0
            rhs -= col * value
            A[:, node] = 0.0
            A[node, :] = 0.0
            A[node, node] = 1.0
            rhs[node] = value
        phi_b = np.linalg.solve(A, rhs)

        assert np.abs(phi_c - phi_b[:nn]).max() < 1e-10
        assert asm.cut_data.ids.tolist() == cut
        for e, r in zip(cut, asm.cut_data.recovery):
            phi_star = float(r @ phi_c[mesh.elements[e]])
            assert abs(phi_star - phi_b[enr[e]]) < 1e-10
