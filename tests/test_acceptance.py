"""Acceptance gate: seven end-to-end criteria for the enriched solver.

Each test prints one live PASS/FAIL verdict line (bypassing pytest's
capture, so the verdicts appear even when every test passes) and then
asserts the same conditions.  Stated runtime budgets are asserted too.
"""

import time

import numpy as np
import scipy.linalg

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
    PlaneLevelSet,
    classify_elements,
    split_simplex,
)
from efem.mesh import (
    BoundaryTag,
    face_measure_normal,
    generate_structured,
    local_faces,
    p1_gradients,
    signed_measures,
)
from efem.oracles import (
    SphereCase,
    analytic_boundary,
    box_boundary,
    cylinder_benchmark_mesh,
    cylinder_levelset,
    cylinder_materials,
    phi_evaluator,
    resolution,
    sphere_levelset,
    sphere_materials,
)
from efem.postprocess import (
    build_solution,
    crossings,
    elements_containing,
    eval_in_element,
    interface_potential_mismatch,
    l2_line_error,
    observed_order,
    sample_line,
)
from efem.solver import bicgstab, solve

from conftest import bundled_case
from efem.cli import fine_solution
from face_reference import ref_faces, ref_virtual_nodes


def verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def probe_interface(sol):
    """One-sided (phi, Ey) limits at (0.5, 0.5) from every element there.

    The point sits on an element edge, so both neighbours are probed and
    callers take the worst (the two can disagree when the scheme is
    inconsistent, which is part of what the ablation criteria measure).
    """
    rows = []
    for e in elements_containing(sol, (0.5, 0.5)):
        lo, e_lo = eval_in_element(sol, e, (0.5, 0.5), side=-1)
        hi, e_hi = eval_in_element(sol, e, (0.5, 0.5), side=+1)
        rows.append((lo, hi, e_lo[1], e_hi[1]))
    return rows


def planar_exact(q):
    """Interface potential and the two one-sided field slopes."""
    return q / (q + 1.0), 2.0 * q / (q + 1.0), 2.0 / (q + 1.0)


def test_planar_interface_exactness(planar_solver, capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for q in (1.0, 3.0, 1e6):
        p_ex, g_lo, g_hi = planar_exact(q)
        # field errors are measured against the larger one-sided magnitude,
        # otherwise the vanishing conductor-side field would demand an
        # absolute accuracy below the solver tolerance
        scale = max(g_lo, g_hi)
        for h in (0.3, 0.2, 0.03):
            # a tight solve, so the error measures the method rather than
            # where BiCGSTAB stops (about 5e-7 at tol 1e-8)
            sol = planar_solver(q, resolution(h), "efem", tol=1e-12)
            for lo, hi, ey_lo, ey_hi in probe_interface(sol):
                worst = max(worst,
                            abs(lo - p_ex) / p_ex, abs(hi - p_ex) / p_ex,
                            abs(ey_lo - g_lo) / scale, abs(ey_hi - g_hi) / scale)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 5.0
    verdict(capsys, 1, "planar interface exactness", ok,
            f"worst rel err {worst:.2e}, {dt:.1f}s")
    assert worst <= 1e-6
    assert dt < 5.0


def test_ablation_reproduces_error_magnitudes(planar_solver, capsys):
    # Without the displacement terms at Q=1, h=0.2, the interface errors
    # reappear near the published magnitudes: 0.125 for phi and 0.875 /
    # 0.375 for the fields.  Cut patterns differ between meshes, so each
    # is checked within a factor of three.
    sol = planar_solver(1.0, 5, "efem-nod")
    p_err = e1_err = e2_err = 0.0
    for lo, hi, ey_lo, ey_hi in probe_interface(sol):
        p_err = max(p_err, abs(1.0 - lo / 0.5), abs(1.0 - hi / 0.5))
        e1_err = max(e1_err, abs(1.0 - ey_lo))
        e2_err = max(e2_err, abs(1.0 - ey_hi))

    cond = planar_solver(1e6, 5, "standard")
    _, g_lo, _ = planar_exact(1e6)
    cond_err = max(abs(1.0 - ey_lo / g_lo) for _, _, ey_lo, _ in probe_interface(cond))

    windows = (("phi", p_err, 0.125), ("E1", e1_err, 0.875), ("E2", e2_err, 0.375))
    in_window = all(ref / 3.0 <= got <= ref * 3.0 for _, got, ref in windows)
    cond_ok = abs(cond_err - 0.999) <= 0.01
    ok = in_window and cond_ok
    verdict(capsys, 2, "ablation error magnitudes", ok,
            f"phi {p_err:.3f}, E {e1_err:.3f}/{e2_err:.3f}, conductor {cond_err:.4f}")
    for name, got, ref in windows:
        assert ref / 3.0 <= got <= ref * 3.0, (name, got, ref)
    assert cond_ok, cond_err


def test_interface_mismatch_suppression(planar_solver, capsys):
    worst_with = max(
        interface_potential_mismatch(planar_solver(q, 5, "efem"))
        for q in (1.0, 3.0, 1e6))
    without = interface_potential_mismatch(planar_solver(1.0, 5, "efem-nod"))
    ok = worst_with <= 1e-6 and without > 1e-3
    verdict(capsys, 3, "interface oscillation suppression", ok,
            f"with terms {worst_with:.1e}, without {without:.1e}")
    assert worst_with <= 1e-6
    assert without > 1e-3


def test_inclined_convergence_orders(capsys):
    t0 = time.perf_counter()
    cfg = bundled_case("inclined")          # y = x + 0.2, q = 3, plates 0 and 1 volt
    ref_phi = phi_evaluator(fine_solution(cfg, "standard", 0.01))
    hs = [0.3, 0.15, 0.075, 0.0375]
    # sampled away from x=0, where the Dirichlet corner of the coarse
    # meshes pollutes the error and hides the convergence rate
    line = ((0.0, 0.7), (1.0, 0.7))
    orders = {}
    for mode in ("efem", "efem-nod"):
        errs = []
        for h in hs:
            n = resolution(h)
            mesh = generate_structured(2, n, n)
            asm = assemble_global(mesh, cfg.levelset, cfg.materials, mode, cfg.boundary)
            phi, rep = bicgstab(asm.matrix, asm.rhs)
            assert rep.converged
            errs.append(l2_line_error(build_solution(asm, phi), ref_phi, *line))
        orders[mode] = observed_order(hs, errs)
    dt = time.perf_counter() - t0
    ok = orders["efem"] >= 1.8 and 0.8 <= orders["efem-nod"] <= 1.3 and dt < 60.0
    verdict(capsys, 4, "inclined interface convergence", ok,
            f"orders {orders['efem']:.2f} / {orders['efem-nod']:.2f}, {dt:.0f}s")
    assert orders["efem"] >= 1.8, orders
    assert 0.8 <= orders["efem-nod"] <= 1.3, orders
    assert dt < 60.0


def _crossing_field_errors(sol, ref):
    """Worst one-sided normal-field errors at the circle crossings of the
    x=0.25 transect, against the fine reference.

    The reference is probed at x=0.2525: the circle meets x=0.25 exactly
    on reference mesh nodes, and a probe through those points would read
    sliver children instead of the converged field.
    """
    sample = sample_line(sol, (0.25, 0.4), (0.25, 0.9999), 401)
    err_in = err_out = 0.0
    pairs = crossings(sample)
    for rec in pairs:
        y = rec["point"][1]
        ref_sample = sample_line(ref, (0.2525, y - 0.05),
                                 (0.2525, min(y + 0.05, 0.9999)), 101)
        ref_rec = min(crossings(ref_sample), key=lambda r: abs(r["point"][1] - y))
        r_in, r_out = ref_rec[-1][1][1], ref_rec[+1][1][1]
        err_in = max(err_in, abs(1.0 - rec[-1][1][1] / r_in))
        err_out = max(err_out, abs(1.0 - rec[+1][1][1] / r_out))
    return err_in, err_out, len(pairs)


def test_cylinder_field_jump_accuracy(capsys):
    t0 = time.perf_counter()
    ref = fine_solution(bundled_case("cylinder"), "efem", 0.005)
    mesh = cylinder_benchmark_mesh()
    errs = {}
    for mode in ("efem", "efem-nod"):
        asm = assemble_global(mesh, cylinder_levelset(), cylinder_materials(),
                              mode, box_boundary(2))
        phi, rep = bicgstab(asm.matrix, asm.rhs)
        assert rep.converged
        errs[mode] = _crossing_field_errors(build_solution(asm, phi), ref)
    dt = time.perf_counter() - t0
    full_in, full_out, pairs = errs["efem"]
    nod_in = errs["efem-nod"][0]
    ok = (full_in <= 0.10 and full_out <= 0.10 and nod_in >= 1.0
          and pairs == 2 and dt < 120.0)
    verdict(capsys, 5, "cylinder jump accuracy", ok,
            f"with terms {full_in:.3f}/{full_out:.3f}, "
            f"without (inclusion) {nod_in:.2f}, {dt:.0f}s")
    assert pairs == 2
    assert full_in <= 0.10 and full_out <= 0.10, errs["efem"]
    assert nod_in >= 1.0, errs["efem-nod"]
    assert dt < 120.0


def test_sphere_convergence_and_pole_value(capsys):
    t0 = time.perf_counter()
    case = SphereCase(3.0)
    hs = [0.08, 0.04]
    transect = ((0.5, 0.0, 0.5), (0.5, 1.0, 0.5))
    pole = (0.5, 0.6, 0.5)
    errs = []
    pole_err = None
    for h in hs:
        n = resolution(h)
        mesh = generate_structured(3, n, n, n)
        asm = assemble_global(mesh, sphere_levelset(), sphere_materials(), "efem",
                              analytic_boundary(3, case.phi))
        phi, rep = bicgstab(asm.matrix, asm.rhs)
        assert rep.converged
        sol = build_solution(asm, phi)
        errs.append(l2_line_error(sol, case.phi, *transect))
        got, _ = eval_in_element(sol, elements_containing(sol, pole)[0], pole, side=+1)
        pole_err = abs(got - case.phi(pole))
    order = observed_order(hs, errs)
    dt = time.perf_counter() - t0
    ok = errs[0] > errs[1] and order >= 1.5 and pole_err <= 0.02 and dt < 300.0
    verdict(capsys, 6, "sphere benchmark", ok,
            f"order {order:.2f}, pole err {pole_err:.1e}, {dt:.0f}s")
    assert errs[0] > errs[1], errs
    assert order >= 1.5, (order, errs)
    assert pole_err <= 0.02
    assert dt < 300.0


# ---------------------------------------------------------------------------
# criterion 7: structural property suite


def _random_cut(rng, dim):
    base = np.vstack([np.zeros(dim), np.eye(dim)])
    while True:
        coords = base + rng.uniform(-0.15, 0.15, size=base.shape)
        measure = signed_measures(coords[None])[0]
        if abs(measure) < 0.02:
            continue
        signs = np.where(rng.random(dim + 1) < 0.5, -1.0, 1.0)
        if np.all(signs > 0) or np.all(signs < 0):
            signs[rng.integers(dim + 1)] *= -1.0
        d = signs * rng.uniform(0.05, 1.0, size=dim + 1)
        return coords, abs(measure), p1_gradients(coords[None])[0], d


def _face_integrals(coords, grads, d, mats):
    """D, Denr and their rounding scales by a centroid rule on each piece of
    an in-test face split: Nbar is affine on a piece, so its centroid value
    times the piece measure integrates it exactly.  The scales are the
    summed term magnitudes with Nbar bounded by max |d|."""
    dim = coords.shape[1]
    g_abs, g_lin = grads.T @ np.abs(d), grads.T @ d
    gbar = {1: g_abs - g_lin, -1: g_abs + g_lin}
    A = np.vstack([coords.T, np.ones(dim + 1)])
    D, denr = np.zeros(dim + 1), 0.0
    D_abs, denr_abs = np.zeros(dim + 1), 0.0
    for lf, pieces in enumerate(ref_faces(coords, d, ref_virtual_nodes(coords, d))):
        if len(pieces) == 1:
            continue
        normal = face_measure_normal(coords[list(local_faces(dim)[lf])][None],
                                     coords.mean(axis=0))[1][0]
        for v, sign, measure in pieces:
            lam = np.linalg.solve(A, np.append(v.mean(axis=0), 1.0))
            w = measure * (lam @ np.abs(d) - abs(lam @ d)) * mats.for_sign(sign)
            bound = measure * np.abs(d).max() * mats.for_sign(sign)
            D += w * (grads @ normal)
            denr += w * float(gbar[sign] @ normal)
            D_abs += bound * np.abs(grads @ normal)
            denr_abs += bound * abs(float(gbar[sign] @ normal))
    return D, denr, D_abs, denr_abs


def _measures_and_face_integrals(rng, count=1000):
    """Worst relative error of the child-measure sums, and of D and Denr
    against _face_integrals on its rounding scale, over random cuts."""
    mats = MaterialPair(3.0, 1.0)
    worst = worst_face = 0.0
    for k in range(count):
        dim = 2 if k % 2 == 0 else 3
        coords, measure, grads, d = _random_cut(rng, dim)
        deco = split_simplex(coords[None], d[None])
        child_sum = sum(deco.child_measure[0, :deco.n_children[0]].tolist())
        worst = max(worst, abs(child_sum - measure) / measure)
        D, denr = element_displacement_terms(grads[None], mats, deco)
        D_ref, denr_ref, D_abs, denr_abs = _face_integrals(coords, grads, d, mats)
        worst_face = max(worst_face, float(np.abs(D[0] - D_ref).max()) / D_abs.max(),
                         abs(float(denr[0]) - denr_ref) / denr_abs)
    return worst, worst_face


def _hat_node_and_continuity(rng, count=200):
    worst_node = worst_jump = 0.0
    for k in range(count):
        dim = 2 if k % 2 == 0 else 3
        coords, _, _, d = _random_cut(rng, dim)
        deco = split_simplex(coords[None], d[None])
        scale = np.abs(d).max()
        A = np.vstack([coords.T, np.ones(dim + 1)])
        hats = hat_value(np.linalg.solve(A, A).T, d)           # row j: at node j
        worst_node = max(worst_node, float(np.abs(hats).max()) / scale)
        # the one-sided restrictions are the affine maps sum N_i (|d_i| -+ d_i);
        # their difference at any interface point is 2 sum N_i d_i
        for vert in deco.points[0, dim + 1:dim + 1 + deco.n_virtual[0]]:
            lam = np.linalg.solve(np.vstack([coords.T, np.ones(dim + 1)]), np.append(vert, 1.0))
            jump = 2.0 * abs(lam @ d)
            worst_jump = max(worst_jump, jump / scale)
    return worst_node, worst_jump


def _condensation_equivalence():
    mats = MaterialPair(3.0, 1.0)
    tri = (np.array([[0.0, 0.0], [1.1, 0.05], [0.2, 0.9]]),
           np.array([-0.4, 0.7, 0.6]))
    tet = (np.array([[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [0.0, 0.9, 0.1],
                     [0.1, 0.2, 1.0]]),
           np.array([0.5, -0.3, 0.8, -0.6]))
    worst = 0.0
    for coords, d in (tri, tet):
        X = coords[None]
        grads = p1_gradients(X)
        deco = split_simplex(X, d[None])
        # the standard block: eps times measure summed over the children
        weight = sum(mats.for_sign(int(s)) * m
                     for s, m in zip(deco.child_sign[0], deco.child_measure[0]))
        K = weight * (grads[0] @ grads[0].T)
        B, kenr = element_matrices(grads, mats, deco)
        D, denr = element_displacement_terms(grads, mats, deco)
        nv = coords.shape[0]
        block = np.zeros((nv + 1, nv + 1))
        block[:nv, :nv] = K
        block[:nv, nv] = B[0]
        block[nv, :nv] = B[0] - D[0]
        block[nv, nv] = kenr[0] - denr[0]

        g = coords @ np.arange(1.0, coords.shape[1] + 1.0) + 0.25
        free = [0, nv]
        pinned = list(range(1, nv))
        rhs = np.array([1.0, 0.0]) - block[np.ix_(free, pinned)] @ g[pinned]
        phi0_full, enr_full = np.linalg.solve(block[np.ix_(free, free)], rhs)

        recovery = condense(B, kenr, D, denr)[0][0]
        condensed = K + np.outer(B[0], recovery)
        phi0_cond = (1.0 - condensed[0, 1:] @ g[1:]) / condensed[0, 0]
        enr_cond = recovery @ np.concatenate([[phi0_cond], g[1:]])
        scale = max(abs(phi0_full), abs(enr_full), 1.0)
        worst = max(worst, abs(phi0_full - phi0_cond) / scale,
                    abs(enr_full - enr_cond) / scale)
    return worst


def _graph_invariance():
    mesh = generate_structured(2, 14, 14)
    pats = []
    for mode in MODES:
        asm = assemble_global(mesh, cylinder_levelset(), cylinder_materials(),
                              mode, box_boundary(2))
        pats.append((asm.matrix.indptr, asm.matrix.indices))
    return all(np.array_equal(p[0], pats[0][0]) and np.array_equal(p[1], pats[0][1])
               for p in pats[1:])


def _patch_exactness():
    mesh = generate_structured(2, 5, 5)
    levelset = PlaneLevelSet((0.0, 0.3), (-1.0, 1.0))

    def g(x):
        return 0.3 * x[:, 0] + 0.7 * x[:, 1] + 0.1

    boundary = {t: BoundaryTag(t, "dirichlet", g)
                for t in ("left", "right", "bottom", "top")}
    exact = g(mesh.nodes)
    worst = 0.0
    for mode in ("standard", "efem"):
        asm = assemble_global(mesh, levelset, MaterialPair(2.0, 2.0), mode, boundary)
        assert asm.classification.cut_elements.size > 0
        phi, rep = solve(asm.matrix, asm.rhs, tol=1e-12)
        assert rep.converged
        worst = max(worst, float(np.abs(phi - exact).max()))
    return worst


def _displacement_zero_sum():
    mesh = generate_structured(2, 27, 27)
    cl = classify_elements(mesh, cylinder_levelset())
    mats = cylinder_materials()
    worst = 0.0
    cut = cl.cut_elements
    coords = mesh.nodes[mesh.elements[cut]]
    deco = split_simplex(coords, cl.d[mesh.elements[cut]])
    assert not deco.degenerate.any()
    all_D, _ = element_displacement_terms(p1_gradients(coords), mats, deco)
    for D in all_D:
        scale = float(np.abs(D).sum())
        if scale > 0.0:
            worst = max(worst, abs(float(D.sum())) / scale)
    return worst


def _iterative_vs_dense():
    worst = 0.0
    for levelset, mats in ((PlaneLevelSet((0.5, 0.5), (0.0, 1.0)), MaterialPair(3.0, 1.0)),
                           (cylinder_levelset(), cylinder_materials())):
        mesh = generate_structured(2, 21, 21)
        asm = assemble_global(mesh, levelset, mats, "efem", box_boundary(2))
        x_it, rep = bicgstab(asm.matrix, asm.rhs, tol=1e-10)
        assert rep.converged
        x_lu = scipy.linalg.solve(asm.matrix.toarray(), asm.rhs)
        worst = max(worst, float(np.abs(x_it - x_lu).max() / np.abs(x_lu).max()))
    return worst


def test_structural_property_suite(capsys):
    rng = np.random.default_rng(2024)
    meas, face = _measures_and_face_integrals(rng)
    node_zero, jump = _hat_node_and_continuity(rng)
    cond = _condensation_equivalence()
    graph_ok = _graph_invariance()
    patch = _patch_exactness()
    dsum = _displacement_zero_sum()
    solver_gap = _iterative_vs_dense()

    checks = [
        ("condensation", cond <= 1e-10, f"{cond:.1e}"),
        ("cut measures", meas <= 1e-10, f"{meas:.1e}"),
        ("face integrals", face <= 1e-10, f"{face:.1e}"),
        ("hat node zero", node_zero <= 1e-12, f"{node_zero:.1e}"),
        ("hat continuity", jump <= 1e-12, f"{jump:.1e}"),
        ("graph invariance", graph_ok, str(graph_ok)),
        ("patch", patch <= 1e-8, f"{patch:.1e}"),
        ("displacement sum", dsum <= 1e-12, f"{dsum:.1e}"),
        ("solver agreement", solver_gap <= 1e-7, f"{solver_gap:.1e}"),
    ]
    ok = all(c[1] for c in checks)
    passed = sum(1 for c in checks if c[1])
    verdict(capsys, 7, "structural properties", ok, f"{passed}/{len(checks)} checks")
    for name, good, detail in checks:
        assert good, f"{name}: {detail}"
