"""Property tests of the stacked, table-driven cut pipeline and the fixed pattern.

The batched kernels (split_simplex, element_matrices,
element_displacement_terms, condense) and assemble_global are checked
against an in-test copy of the per-element path they replaced: one cut
element at a time, with Python objects, a barycentric solve per quadrature
point and a COO-to-CSR scatter.  Children, signs, diagonal choices,
fallbacks and measures must agree bit for bit, as must K, B and Kenr (the
children are summed in the same order); D, Denr, the condensed blocks and
the recovery rows within 1e-12 relative, because D and Denr now come in
closed form from the nodal distances.  Relative means against the rounding scale of
the per-point reference: the summed magnitudes of the terms of D and Denr
with Nbar bounded by max |d|, and for the condensation the same scale
amplified by the cancellation in Kenr - Denr.  Against a 50-digit
evaluation the closed form is the more accurate of the two paths; near a
degenerate cut the per-point Nbar loses most of its digits.  Cuts are
random, grid-aligned (exact ties between the two quad diagonals) and
near-degenerate.
"""

from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from efem import efem_core, interface
from efem import mesh as mesh_mod
from efem.efem_core import (
    MODES,
    MaterialPair,
    assemble_global,
    condense,
    element_displacement_terms,
    element_matrices,
    hat_value,
)
from efem.interface import (
    CircleLevelSet,
    NodalLevelSet,
    PlaneLevelSet,
    SphereLevelSet,
    CutBatch,
    classify_elements,
    split_simplex,
)
from efem.mesh import (
    face_measure_normal,
    generate_structured,
    local_faces,
    p1_gradients,
    row_dot,
    signed_measures,
)
from efem.oracles import box_boundary, cylinder_benchmark_mesh

from face_reference import ref_faces

MATS = MaterialPair(3.0, 1.0)
GUARD = 1e-14
TRI_PTS = np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]])


# ---------------------------------------------------------------------------
# the per-element path, one cut element at a time


class RefDegenerate(Exception):
    pass


class RefSingular(Exception):
    pass


def ref_virtual(coords, d, a, b):
    t = d[a] / (d[a] - d[b])
    return coords[a] + t * (coords[b] - coords[a])


def ref_children(simplices, coords_of, signs):
    """[(vertices, sign, measure, refs)], each child positively oriented."""
    refs = [tuple(t) for t in simplices]
    verts = np.array([[coords_of[r] for r in t] for t in refs])
    for i in np.flatnonzero(signed_measures(verts) < 0.0).tolist():
        refs[i] = (refs[i][0], refs[i][2], refs[i][1]) + refs[i][3:]
        verts[i, [1, 2]] = verts[i, [2, 1]]
    measures = np.abs(signed_measures(verts)).tolist()
    return list(zip(verts, signs, measures, refs))


def ref_exceeds(x, y):
    """The diagonal rule: B only when A's measure is larger by more than 1e-12 relative."""
    return x - y > 1e-12 * max(abs(x), abs(y))


def ref_split_triangle(coords, d):
    lone = int(np.nonzero(d > 0)[0][0]) if (d > 0).sum() == 1 else int(np.nonzero(d < 0)[0][0])
    o1, o2 = [i for i in range(3) if i != lone]
    s_lone = 1 if d[lone] > 0 else -1
    xi1, xi2 = ref_virtual(coords, d, lone, o1), ref_virtual(coords, d, lone, o2)
    k1, k2 = tuple(sorted((lone, o1))), tuple(sorted((lone, o2)))
    coords_of = {("n", i): coords[i] for i in range(3)}
    coords_of.update({("x", k1): xi1, ("x", k2): xi2})
    lone_tri = (("x", k1), ("x", k2), ("n", lone))
    if not ref_exceeds(np.dot(xi1 - coords[o2], xi1 - coords[o2]),
                       np.dot(coords[o1] - xi2, coords[o1] - xi2)):
        tris = ((("x", k1), ("n", o1), ("n", o2)), (("x", k1), ("n", o2), ("x", k2)))
    else:
        tris = ((("x", k1), ("n", o1), ("x", k2)), (("n", o1), ("n", o2), ("x", k2)))
    kids = ref_children((lone_tri,) + tris, coords_of, (s_lone, -s_lone, -s_lone))
    return kids, {k1: xi1, k2: xi2}


def ref_split_tet(coords, d):
    pos = [i for i in range(4) if d[i] > 0]
    neg = [i for i in range(4) if d[i] < 0]
    coords_of = {("n", i): coords[i] for i in range(4)}
    if len(pos) == 1 or len(neg) == 1:
        lone = pos[0] if len(pos) == 1 else neg[0]
        s_lone = 1 if d[lone] > 0 else -1
        o = [i for i in range(4) if i != lone]
        keys = [tuple(sorted((lone, oi))) for oi in o]
        xi = [ref_virtual(coords, d, lone, oi) for oi in o]
        coords_of.update({("x", k): x for k, x in zip(keys, xi)})
        X, O = [("x", k) for k in keys], [("n", oi) for oi in o]
        prism = ((X[0], X[1], X[2], O[0]), (X[1], X[2], O[0], O[1]), (X[2], O[0], O[1], O[2]))
        kids = ref_children(((("n", lone), X[0], X[1], X[2]),) + prism, coords_of,
                            (s_lone,) + (-s_lone,) * 3)
        return kids, dict(zip(keys, xi))
    a1, a2 = pos
    b1, b2 = neg
    pairs = [(a1, b1), (a1, b2), (a2, b2), (a2, b1)]
    keys = [tuple(sorted(p)) for p in pairs]
    xi = [ref_virtual(coords, d, p[0], p[1]) for p in pairs]
    coords_of.update({("x", k): x for k, x in zip(keys, xi)})
    Xq = [("x", k) for k in keys]

    def tets(quad_tris):
        pos_tets = [(("n", a1),) + t for t in quad_tris] + [(("n", a1), ("n", a2), Xq[3], Xq[2])]
        neg_tets = [(("n", b1),) + t for t in quad_tris] + [(("n", b1), ("n", b2), Xq[1], Xq[2])]
        return pos_tets + neg_tets

    quad_a = ((Xq[0], Xq[1], Xq[2]), (Xq[0], Xq[2], Xq[3]))
    quad_b = ((Xq[0], Xq[1], Xq[3]), (Xq[1], Xq[2], Xq[3]))
    both = ref_children(tets(quad_a) + tets(quad_b), coords_of, (1, 1, 1, -1, -1, -1) * 2)
    V = np.array([c[0] for c in both])
    edges = np.stack([V[:, a] - V[:, b] for a, b in combinations(range(4), 2)], axis=1)
    lmax = np.sqrt(row_dot(edges, edges)).max(axis=1).tolist()
    aspect = [lm ** 3 / max(c[2], 1e-300) for lm, c in zip(lmax, both)]
    kids = both[6:] if ref_exceeds(max(aspect[:6]), max(aspect[6:])) else both[:6]
    return kids, dict(zip(keys, xi))


def ref_split_any(coords, d):
    """(children, virtual nodes) of one cut simplex, degenerate or not."""
    return (ref_split_triangle if coords.shape[1] == 2 else ref_split_tet)(coords, d)


def ref_split(coords, d):
    kids, virtual = ref_split_any(coords, d)
    parent = abs(signed_measures(coords[None])[0])
    if any(c[2] < 1e-14 * parent for c in kids):
        raise RefDegenerate
    return kids, virtual


def ref_hat_gradients(grads, d):
    g_abs = grads.T @ np.abs(d)
    g_lin = grads.T @ d
    return g_abs - g_lin, g_abs + g_lin


def ref_matrices(grads, d, kids):
    g_pos, g_neg = ref_hat_gradients(grads, d)
    eps_meas, b_accum, kenr = 0.0, np.zeros(grads.shape[1]), 0.0
    for _, sign, measure, _ in kids:
        eps = MATS.for_sign(sign)
        gbar = g_pos if sign > 0 else g_neg
        eps_meas += eps * measure
        b_accum += eps * measure * gbar
        kenr += eps * measure * float(gbar @ gbar)
    return eps_meas * (grads @ grads.T), grads @ b_accum, kenr


def ref_shape_values(coords, x):
    """P1 shape values (k, d+1) of points x (k, d) in simplices coords
    (k, d+1, d), one linear solve per point."""
    k, n, d = coords.shape
    A = np.ones((k, n, n))
    A[:, :d, :] = coords.transpose(0, 2, 1)
    b = np.ones((k, n, 1))
    b[:, :d, 0] = x
    return np.linalg.solve(A, b)[..., 0]


def ref_displacement(coords, grads, d, faces):
    """D, Denr and their rounding scales: the summed magnitudes of their
    terms with Nbar bounded by max |d|, since Nbar = sum N_i |d_i| - |sum N_i d_i|
    is evaluated as a difference of terms that large."""
    dim = coords.shape[1]
    g_pos, g_neg = ref_hat_gradients(grads, d)
    D, Denr = np.zeros(dim + 1), 0.0
    D_abs, Denr_abs = np.zeros(dim + 1), 0.0
    for lf, pieces in enumerate(faces):
        if len(pieces) == 1:
            continue
        _, normal = face_measure_normal(coords[list(local_faces(dim)[lf])][None],
                                        coords.mean(axis=0))
        normal = normal[0]
        for v, sign, measure in pieces:
            pts = 0.5 * (v[0] + v[1])[None] if dim == 2 else TRI_PTS @ v
            stacked = np.broadcast_to(coords, (len(pts),) + coords.shape)
            nbar = hat_value(ref_shape_values(stacked, pts), d)
            w = nbar[0] * measure if dim == 2 else measure / 3.0 * ((nbar[0] + nbar[1]) + nbar[2])
            eps = MATS.for_sign(sign)
            gbar = g_pos if sign > 0 else g_neg
            D += w * (eps * (grads @ normal))
            Denr += w * eps * float(gbar @ normal)
            bound = measure * np.abs(d).max()
            D_abs += bound * np.abs(eps * (grads @ normal))
            Denr_abs += bound * eps * abs(float(gbar @ normal))
    return D, Denr, D_abs, Denr_abs


def ref_margin(kenr, denr):
    """|Kenr - Denr| / max(Kenr, |Denr|), 0 where both vanish."""
    pivot = max(kenr, abs(denr))
    return abs(kenr - denr) / pivot if pivot > 0.0 else 0.0


def ref_condense(K, B, kenr, D, denr, guard=GUARD):
    if not ref_margin(kenr, denr) > guard:
        raise RefSingular
    r = -(B - D) / (kenr - denr)
    return K + np.outer(B, r), r


def ref_block(coords, grads, d, mode, guard=GUARD):
    """(block, recovery or None, fallback reason or None) of one cut element:
    its standard block K, condensed where the element is enriched."""
    try:
        kids, virtual = ref_split(coords, d)
    except RefDegenerate:
        kids, _ = ref_split_any(coords, d)
        return ref_matrices(grads, d, kids)[0], None, "degenerate cut"
    K, B, kenr = ref_matrices(grads, d, kids)
    if mode == "standard":
        return K, None, None
    D, denr = np.zeros(len(d)), 0.0
    if mode == "efem":
        D, denr = ref_displacement(coords, grads, d, ref_faces(coords, d, virtual))[:2]
    try:
        condensed, r = ref_condense(K, B, kenr, D, denr, guard)
    except RefSingular:
        return K, None, "singular condensation"
    return condensed, r, None


def ref_apply_dirichlet(A, rhs, nodes, values):
    n = A.shape[0]
    isdir = np.zeros(n, dtype=bool)
    isdir[nodes] = True
    val_of = np.zeros(n)
    val_of[nodes] = values
    row_of = np.repeat(np.arange(n), np.diff(A.indptr))
    m = isdir[A.indices] & ~isdir[row_of]
    np.subtract.at(rhs, row_of[m], A.data[m] * val_of[A.indices[m]])
    A.data[m] = 0.0
    rdir = isdir[row_of]
    A.data[rdir] = 0.0
    A.data[rdir & (A.indices == row_of)] = 1.0
    rhs[nodes] = values


def ref_assemble(mesh, levelset, mode, guard=GUARD):
    """Matrix, rhs, fallbacks, reasons and recovery rows by the per-element path."""
    cl = classify_elements(mesh, levelset)
    nv = mesh.dim + 1
    conn = mesh.elements
    eps = np.where(cl.element_sign > 0, MATS.eps1, MATS.eps2)
    blocks = np.einsum("e,eid,ejd->eij", eps * mesh.measures, mesh.grads, mesh.grads)
    fallback, reasons, recovery = [], [], {}
    for e in cl.cut_elements.tolist():
        block, r, reason = ref_block(mesh.nodes[mesh.elements[e]], mesh.grads[e],
                                     cl.d[conn[e]], mode, guard)
        blocks[e] = block
        if reason is not None:
            fallback.append(e)
            reasons.append(reason)
        if r is not None:
            recovery[e] = r
    rows = np.repeat(conn, nv, axis=1).ravel()
    cols = np.tile(conn, (1, nv)).ravel()
    A = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(mesh.n_nodes,) * 2).tocsr()
    A.sort_indices()
    asm_dir = efem_core._collect_dirichlet(mesh, box_boundary(mesh.dim))
    rhs = np.zeros(mesh.n_nodes)
    ref_apply_dirichlet(A, rhs, *asm_dir)
    return A, rhs, fallback, reasons, recovery


# ---------------------------------------------------------------------------
# cuts


def _positive(X):
    if np.linalg.det(X[1:] - X[0]) < 0.0:
        X[[1, 2]] = X[[2, 1]]
    return X


@st.composite
def random_cuts(draw):
    """(coords (k, d+1, d), d (k, d+1)): random simplices, random mixed signs;
    the magnitudes are regular, all equal (ties), or one of them tiny."""
    dim = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["regular", "equal", "tiny"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords, ds = [], []
    while len(coords) < k:
        X = rng.uniform(-1.0, 1.0, size=(dim + 1, dim))
        if abs(np.linalg.det(X[1:] - X[0])) < 1e-2:
            continue
        mags = rng.uniform(0.05, 1.0, size=dim + 1)
        if kind == "equal":
            mags[:] = 0.5
        elif kind == "tiny":
            mags[rng.integers(dim + 1)] = 10.0 ** rng.uniform(-17, -9)
        signs = rng.choice([-1.0, 1.0], size=dim + 1)
        if (signs > 0).all() or (signs < 0).all():
            signs[rng.integers(dim + 1)] *= -1.0
        coords.append(_positive(X))
        ds.append(mags * signs)
    return np.array(coords), np.array(ds)


@st.composite
def grid_cuts(draw):
    """Cut cells of a structured mesh under grid-aligned planes and spheres:
    symmetric configurations whose two quad diagonals tie."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 4))
    mesh = generate_structured(dim, n)
    h = 1.0 / n
    if draw(st.booleans()):
        normal = np.array(draw(st.sampled_from(
            [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, -1, 0), (0, 1, 1), (2, 1, 0)])))[:dim]
        if not normal.any():
            normal[0] = 1
        point = np.full(dim, h * draw(st.integers(1, 2 * n - 1)) / 2)
        levelset = PlaneLevelSet(point, normal)
    else:
        centre = np.array([h * draw(st.integers(0, n)) for _ in range(dim)])
        radius = h * draw(st.integers(1, 2 * n)) / 2
        levelset = (CircleLevelSet if dim == 2 else SphereLevelSet)(centre, radius)
    cl = classify_elements(mesh, levelset)
    cut = cl.cut_elements
    return mesh.nodes[mesh.elements[cut]], cl.d[mesh.elements[cut]]


cuts = st.one_of(random_cuts(), grid_cuts())


def _per_element(coords, d):
    out = []
    for X, dv in zip(coords, d):
        try:
            out.append(ref_split(X, dv))
        except RefDegenerate:
            out.append(None)
    return out


# ---------------------------------------------------------------------------
# the cut kernels against the per-element path


@settings(max_examples=80, deadline=None)
@given(cuts)
def test_split_matches_per_element_path(case):
    coords, d = case
    batch = split_simplex(coords, d)
    ref = _per_element(coords, d)
    assert batch.degenerate.tolist() == [r is None for r in ref]
    nv = coords.shape[1]
    for i, r in enumerate(ref):
        # row i has the bits of the batch of that one element
        one = split_simplex(coords[i:i + 1], d[i:i + 1])
        row = batch.take([i])
        for f in fields(CutBatch):
            assert np.array_equal(getattr(row, f.name), getattr(one, f.name)), f.name
        if r is None:
            continue
        kids, virtual = r
        n = batch.n_children[i]
        assert n == len(kids)
        # the reference keys its virtual nodes in table order, as the batch
        name = [("n", p) for p in range(nv)] + [("x", key) for key in virtual]
        for c, sign, measure, (v, want_sign, want_measure, refs) in zip(
                batch.children[i, :n], batch.child_sign[i], batch.child_measure[i], kids):
            assert tuple(name[p] for p in c) == refs and sign == want_sign
            assert measure == want_measure
            assert np.array_equal(batch.points[i, c], v)
        assert np.array_equal(batch.child_measure[i, :len(kids)], [k[2] for k in kids])
        assert not batch.child_measure[i, len(kids):].any()
        assert batch.n_virtual[i] == len(virtual)
        for j, key in enumerate(virtual):
            assert np.array_equal(batch.points[i, coords.shape[2] + 1 + j], virtual[key])
        # the virtual nodes are the vertices of the interface facet: a segment,
        # a triangle, or for a 2-2 cut a quad; the interpolated distance
        # vanishes on them
        dim = coords.shape[2]
        n_facet = 2 if dim == 2 else 4 if (d[i] > 0).sum() == 2 else 3
        facet = batch.points[i, nv:nv + batch.n_virtual[i]]
        assert len(facet) == n_facet
        lam = ref_shape_values(np.broadcast_to(coords[i], (n_facet, nv, dim)), facet)
        assert np.abs(lam @ d[i]).max() <= 1e-10 * np.abs(d[i]).max()


@settings(max_examples=80, deadline=None)
@given(cuts)
def test_element_blocks_match_per_element_path(case):
    coords, d = case
    batch = split_simplex(coords, d)
    keep = np.flatnonzero(~batch.degenerate)
    if keep.size == 0:
        return
    coords, d = coords[keep], d[keep]
    grads = p1_gradients(coords)
    kept = batch.take(keep)
    B_all, kenr_all = element_matrices(grads, MATS, kept)
    D_all, denr_all = element_displacement_terms(grads, MATS, kept)
    recovery, margin = condense(B_all, kenr_all, D_all, denr_all)
    # the standard block assembly gives each element: its children's eps
    # times measure, summed in table order
    weight = np.zeros(keep.size)
    for m, s in zip(kept.child_measure.T, kept.child_sign.T):
        weight += np.where(s > 0, MATS.eps1, MATS.eps2) * m
    K_all = weight[:, None, None] * np.matmul(grads, grads.transpose(0, 2, 1))
    for i in range(keep.size):
        kids, virtual = ref_split(coords[i], d[i])
        K, B, kenr = ref_matrices(grads[i], d[i], kids)
        assert np.array_equal(K_all[i], K) and np.array_equal(B_all[i], B)
        assert kenr_all[i] == kenr
        # the batch of this one element gives the same bits
        one = element_matrices(grads[i:i + 1], MATS, split_simplex(coords[i:i + 1], d[i:i + 1]))
        assert np.array_equal(one[0][0], B) and one[1][0] == kenr

        D, denr, D_abs, denr_abs = ref_displacement(coords[i], grads[i], d[i],
                                                    ref_faces(coords[i], d[i], virtual))
        # relative to the rounding scale of the reference (see ref_displacement)
        assert np.abs(D_all[i] - D).max() <= 1e-12 * max(D_abs.max(), 1e-300)
        assert abs(denr_all[i] - denr) <= 1e-12 * max(denr_abs, 1e-300)

        try:
            condensed, r = ref_condense(K, B, kenr, D, denr)
        except RefSingular:
            assert margin[i] <= GUARD
            continue
        assert margin[i] > GUARD
        # r = -(B - D) / (Kenr - Denr) amplifies the rounding of its inputs by
        # the cancellation in B - D and in Kenr - Denr: compare on that scale
        r_scale = ((np.abs(B).max() + D_abs.max() + np.abs(r).max() * (kenr + denr_abs))
                   / abs(kenr - denr))
        assert np.abs(recovery[i] - r).max() <= 1e-12 * r_scale
        c_scale = np.abs(K).max() + np.abs(B).max() * r_scale
        condensed_i = K_all[i] + B_all[i][:, None] * recovery[i][None, :]
        assert np.abs(condensed_i - condensed).max() <= 1e-12 * c_scale


# ---------------------------------------------------------------------------
# assembly against the per-element path


def _meshes_and_levelsets():
    sliver = generate_structured(2, 8, 8)
    values = np.linalg.norm(sliver.nodes - (0.3, 0.3), axis=1) - 0.2
    values[int(np.argmin(np.linalg.norm(sliver.nodes - (0.75, 0.75), axis=1)))] = -1e-17
    return [
        (generate_structured(2, 9, 7), CircleLevelSet((0.45, 0.55), 0.27), 1e-6),
        (cylinder_benchmark_mesh(n=12, seed=4), CircleLevelSet((0.5, 0.5), 0.23), 1e-6),
        (generate_structured(3, 4), SphereLevelSet((0.48, 0.5, 0.53), 0.3), 1e-6),
        (generate_structured(3, 3), PlaneLevelSet((0.5, 0.5, 0.5), (1.0, 1.0, 0.0)), 1e-6),
        (sliver, NodalLevelSet(values), 0.0),
    ]


@pytest.mark.parametrize("case", range(5))
@pytest.mark.parametrize("mode", MODES)
def test_assembly_matches_per_element_path(monkeypatch, case, mode):
    mesh, levelset, snap = _meshes_and_levelsets()[case]
    monkeypatch.setattr(interface, "SNAP_TOL", snap)
    asm = assemble_global(mesh, levelset, MATS, mode, box_boundary(mesh.dim))
    A, rhs, fallback, reasons, recovery = ref_assemble(mesh, levelset, mode)
    assert np.array_equal(asm.matrix.indptr, A.indptr)
    assert np.array_equal(asm.matrix.indices, A.indices)
    assert np.abs(asm.matrix.data - A.data).max() <= 1e-13 * np.abs(A.data).max()
    assert np.abs(asm.rhs - rhs).max() <= 1e-13 * max(np.abs(rhs).max(), 1.0)
    assert asm.fallback_elements == fallback and asm.fallback_reasons == reasons
    assert asm.cut_data.ids.tolist() == sorted(recovery)
    for e, r in zip(asm.cut_data.ids.tolist(), asm.cut_data.recovery):
        assert np.abs(r - recovery[e]).max() <= 1e-12 * np.abs(recovery[e]).max()
    if case == 4:
        assert fallback and set(reasons) == {"degenerate cut"}


def test_singular_condensations_fall_back_with_their_reason(monkeypatch, caplog):
    # a guard above every margin makes each condensation singular
    monkeypatch.setattr(efem_core, "CONDENSE_GUARD", 1e300)
    mesh, levelset, _ = _meshes_and_levelsets()[0]
    with caplog.at_level("WARNING", logger="efem"):
        asm = assemble_global(mesh, levelset, MATS, "efem", box_boundary(2))
    A, rhs, fallback, reasons, _ = ref_assemble(mesh, levelset, "efem", guard=1e300)
    cut = asm.classification.cut_elements.tolist()
    assert asm.fallback_elements == fallback == cut
    assert asm.fallback_reasons == reasons == ["singular condensation"] * len(cut)
    assert len(asm.cut_data) == 0 and asm.condense_margin == np.inf
    assert np.abs(asm.matrix.data - A.data).max() <= 1e-13 * np.abs(A.data).max()
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert f"{len(cut)} singular condensations" in warnings[0].getMessage()


@pytest.mark.parametrize("case", range(5))
def test_refused_condensations_leave_the_standard_matrix(monkeypatch, case):
    # every mode starts from the standard matrix: with every condensation
    # refused, efem assembles it bit for bit
    mesh, levelset, snap = _meshes_and_levelsets()[case]
    monkeypatch.setattr(interface, "SNAP_TOL", snap)
    cl = classify_elements(mesh, levelset)
    standard = assemble_global(mesh, levelset, MATS, "standard", box_boundary(mesh.dim),
                               classification=cl)
    monkeypatch.setattr(efem_core, "CONDENSE_GUARD", 1e300)
    efem = assemble_global(mesh, levelset, MATS, "efem", box_boundary(mesh.dim),
                           classification=cl)
    assert len(efem.cut_data) == 0
    assert np.array_equal(efem.matrix.data, standard.matrix.data)
    assert np.array_equal(efem.rhs, standard.rhs)


def test_condense_margin_is_the_smallest_over_condensed_elements():
    mesh, levelset, _ = _meshes_and_levelsets()[0]
    asm = assemble_global(mesh, levelset, MATS, "efem", box_boundary(2))
    cl = asm.classification
    margins = []
    for e in asm.cut_data.ids.tolist():
        coords, d = mesh.nodes[mesh.elements[e]], cl.d[mesh.elements[e]]
        kids, virtual = ref_split(coords, d)
        kenr = ref_matrices(mesh.grads[e], d, kids)[2]
        denr = ref_displacement(coords, mesh.grads[e], d, ref_faces(coords, d, virtual))[1]
        margins.append(ref_margin(kenr, denr))
    assert abs(asm.condense_margin - min(margins)) <= 1e-12 * min(margins)
    standard = assemble_global(mesh, levelset, MATS, "standard", box_boundary(2))
    assert standard.condense_margin == np.inf


# ---------------------------------------------------------------------------
# the fixed P1 pattern


def _coo_reference(mesh, blocks):
    nv = mesh.dim + 1
    rows = np.repeat(mesh.elements, nv, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, nv)).ravel()
    A = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(mesh.n_nodes,) * 2).tocsr()
    A.sort_indices()
    return A


@pytest.mark.parametrize("mesh", [generate_structured(2, 6, 5),
                                  cylinder_benchmark_mesh(n=7, seed=2),
                                  generate_structured(3, 3)])
def test_pattern_is_the_same_for_every_mode_and_level_set(mesh):
    dim = mesh.dim
    centre = np.full(dim, 0.45)
    levelsets = [PlaneLevelSet(centre, np.arange(1.0, dim + 1.0)),
                 (CircleLevelSet if dim == 2 else SphereLevelSet)(centre, 0.3),
                 NodalLevelSet(np.ones(mesh.n_nodes))]
    ref = _coo_reference(mesh, np.ones((mesh.n_elements, dim + 1, dim + 1)))
    for levelset in levelsets:
        for mode in MODES:
            A = assemble_global(mesh, levelset, MATS, mode, box_boundary(dim)).matrix
            assert np.array_equal(A.indptr, ref.indptr) and np.array_equal(A.indices, ref.indices)
    p = mesh.pattern
    assert all(not a.flags.writeable for a in (p.indptr, p.indices, p.slots))


@pytest.mark.parametrize("mesh", [generate_structured(2, 6, 5), generate_structured(3, 3)])
def test_pattern_scatter_matches_coo_to_csr(mesh):
    rng = np.random.default_rng(7)
    blocks = rng.normal(size=(mesh.n_elements, mesh.dim + 1, mesh.dim + 1))
    ref = _coo_reference(mesh, blocks)
    data = np.bincount(mesh.pattern.slots.ravel(), blocks.ravel(), minlength=mesh.pattern.nnz)
    assert np.abs(data - ref.data).max() <= 1e-13 * np.abs(ref.data).max()


def test_pattern_is_built_once_per_mesh(monkeypatch):
    calls = []
    real = mesh_mod.p1_pattern
    monkeypatch.setattr(mesh_mod, "p1_pattern", lambda n, e: calls.append(n) or real(n, e))
    mesh = generate_structured(2, 5, 4)
    assert calls == []
    for mode in MODES:
        for levelset in (PlaneLevelSet((0.0, 0.4), (0.0, 1.0)), CircleLevelSet((0.5, 0.5), 0.3)):
            assemble_global(mesh, levelset, MATS, mode, box_boundary(2))
    assert calls == [mesh.n_nodes]
    generate_structured(2, 5, 4)
    assert calls == [mesh.n_nodes]


def test_mutating_a_returned_matrix_leaves_the_next_assembly_alone():
    mesh = generate_structured(2, 6, 6)
    levelset = CircleLevelSet((0.5, 0.5), 0.3)
    first = assemble_global(mesh, levelset, MATS, "efem", box_boundary(2)).matrix
    want = first.copy()
    first.data[:] = -7.0
    first.indices[:] = 0
    first.indptr[1:] = 0
    again = assemble_global(mesh, levelset, MATS, "efem", box_boundary(2)).matrix
    assert np.array_equal(again.indptr, want.indptr)
    assert np.array_equal(again.indices, want.indices)
    assert np.array_equal(again.data, want.data)
