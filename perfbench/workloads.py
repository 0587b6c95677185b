"""Seeded inputs, the per-case pipeline and its correctness checks.

Each workload turns a seed into a mesh recipe and a fixed list of cases.
A case runs the public efem API in the order ``efem solve`` uses:
classify, assemble, solve, build the solution, then (where the case asks
for it) line sampling and the line L2 error, the 2D interface mismatch, and
CSV / VTK export.  Inputs are made, and outputs checked, outside the timed
region; the oracles module only supplies inputs and exact solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse.linalg as spla

from efem import efem_core, interface, oracles, postprocess, solver
from efem import mesh as mesh_mod

TOL = 1e-8
# sweep2d: bound on max |phi - phi_spsolve| / max |phi_spsolve|.  At a relative
# residual of TOL the BiCGSTAB solutions differ from spsolve by at most 4e-6
# on these systems (seeds 1 and 20, all modes); a wrong solve is far off.
AGREE_RTOL = 1e-4
# Error bounds as C h^2: the method converges at second order (criteria 4
# and 6), and C is two to four times the largest value seen.  The line L2
# errors are absolute; the sphere pole error is relative, and never allowed
# above the 2% of criterion 6 (which the full-size mesh meets with room).
L2_COEF = {"cylinder2d": 0.3, "sphere3d": 1.0}
POLE_COEF, POLE_RTOL = 6.0, 0.02
# A cylinder2d case takes about 12 s, of which the solution stage is 0.2 s;
# solving five times per case gives solution_s ten samples per run, not two.
CYLINDER_SOLUTION_REPEATS = 5


@dataclass(frozen=True)
class Sizes:
    cylinder_n: int = 100
    sphere_n: int = 32
    sweep_n: int = 200
    sweep_rounds: int = 3


FULL = Sizes()
TINY = Sizes(cylinder_n=10, sphere_n=6, sweep_n=20, sweep_rounds=1)


@dataclass
class Case:
    label: str
    mode: str
    levelset: object
    materials: efem_core.MaterialPair
    boundary: dict
    line: tuple | None = None           # (start, end) for sampling and L2 error
    exact: Callable | None = None       # exact potential, point -> phi
    l2_bound: float | None = None
    pole: tuple | None = None           # point checked against exact (3D)
    pole_rtol: float = POLE_RTOL
    mismatch: bool = False
    export: bool = False
    spsolve_check: bool = False
    solution_repeats: int = 1           # solution stages per case in untraced runs


@dataclass
class Workload:
    params: dict                        # generated case parameters, recorded
    setup: Callable[[], object]         # builds the mesh: timed as set-up
    setup_layer: str                    # span name of that call
    cases: list[Case]


def make_workload(name: str, seed: int, sizes: Sizes, workdir: Path) -> Workload:
    make = {"cylinder2d": _cylinder2d, "sphere3d": _sphere3d, "sweep2d": _sweep2d}[name]
    return make(seed, sizes, workdir)


def _cylinder2d(seed: int, sizes: Sizes, workdir: Path) -> Workload:
    q, n = 3.0, sizes.cylinder_n
    exact = oracles.CylinderCase(q)
    path = workdir / "cylinder.msh"
    mesh_mod.write_mesh(oracles.cylinder_benchmark_mesh(n=n, seed=seed), path)
    line = ((0.25, 0.0), (0.25, 1.0))
    case = Case("cylinder-efem", "efem",
                interface.CircleLevelSet(exact.center, exact.radius),
                oracles.cylinder_materials(q), oracles.analytic_boundary(2, exact.phi),
                line=line, exact=exact.phi, l2_bound=L2_COEF["cylinder2d"] / n**2,
                mismatch=True, export=True, solution_repeats=CYLINDER_SOLUTION_REPEATS)
    params = {"q": q, "centre": list(exact.center), "radius": exact.radius, "n": n,
              "mesh": f"cylinder_benchmark_mesh(n={n}, seed={seed})", "line": line}
    return Workload(params, lambda: mesh_mod.read_mesh(path),
                    "mesh.read_mesh", [case])


def _sphere3d(seed: int, sizes: Sizes, workdir: Path) -> Workload:
    q, n, radius = 3.0, sizes.sphere_n, oracles.SPHERE_RADIUS
    rng = np.random.default_rng(seed)
    h = 1.0 / n
    centre = np.asarray(oracles.SPHERE_CENTER) + rng.uniform(-h / 2, h / 2, size=3)
    exact = oracles.SphereCase(q, center=tuple(float(c) for c in centre), radius=radius)
    line = ((centre[0], 0.0, centre[2]), (centre[0], 1.0, centre[2]))
    case = Case("sphere-efem", "efem", interface.SphereLevelSet(centre, radius),
                oracles.sphere_materials(q), oracles.analytic_boundary(3, exact.phi),
                line=line, exact=exact.phi, l2_bound=L2_COEF["sphere3d"] / n**2,
                pole=tuple(centre + np.array([0.0, radius, 0.0])),
                pole_rtol=max(POLE_RTOL, POLE_COEF / n**2), export=True)
    params = {"q": q, "centre": centre.tolist(), "radius": radius, "n": n,
              "line": [list(map(float, p)) for p in line], "pole": list(case.pole)}
    return Workload(params, lambda: mesh_mod.generate_structured(3, n),
                    "mesh.generate_structured", [case])


def _sweep2d(seed: int, sizes: Sizes, workdir: Path) -> Workload:
    n = sizes.sweep_n
    rng = np.random.default_rng(seed)
    cases, inclusions = [], []
    for r in range(sizes.sweep_rounds):
        for q in (3.0, 100.0):
            centre = rng.uniform(0.35, 0.65, size=2)
            radius = float(rng.uniform(0.15, 0.25))
            inclusions.append({"round": r, "q": q, "centre": centre.tolist(), "radius": radius})
            for mode in efem_core.MODES:
                cases.append(Case(f"r{r}-q{q:g}-{mode}", mode,
                                  interface.CircleLevelSet(centre, radius),
                                  oracles.cylinder_materials(q), oracles.box_boundary(2),
                                  spsolve_check=True))
    params = {"n": n, "rounds": sizes.sweep_rounds, "modes": list(efem_core.MODES),
              "inclusions": inclusions}
    return Workload(params, lambda: mesh_mod.generate_structured(2, n),
                    "mesh.generate_structured", cases)


# ---------------------------------------------------------------------------
# one case


@dataclass
class Outcome:
    """What one case produced, kept until it has been checked.

    Times are scaled by the clock's speed probe (see speed.py); the
    ``*_wall_s`` fields hold the same times in wall seconds.
    """

    solution_s: list[float]             # one per solution stage run
    solution_wall_s: list[float]
    case_s: float
    case_wall_s: float
    assembled: object
    phi: np.ndarray
    report: object
    sol: object
    sample: object = None
    l2_error: float | None = None
    interface_mismatch: float | None = None
    files: list[Path] = field(default_factory=list)


def run_case(mesh, case: Case, outdir: Path, trace, clock, repeats: int = 1) -> Outcome:
    """Run one case; the solution stage runs ``repeats`` times, the rest once.

    The solution stage is classify through build_solution.  case_s is the
    last solution stage plus everything after it.
    """
    span = trace.span
    solution_s, solution_wall_s = [], []
    for _ in range(repeats):
        clock.reset()
        with clock.stage(), span("interface.classify_elements"):
            cl = interface.classify_elements(mesh, case.levelset)
        with clock.stage(), span("efem_core.assemble_global"):
            asm = efem_core.assemble_global(mesh, case.levelset, case.materials, case.mode,
                                            case.boundary, classification=cl)
        with clock.stage(), span("solver.solve"):
            phi, report = solver.solve(asm.matrix, asm.rhs, tol=TOL)
        with clock.stage(), span("postprocess.build_solution"):
            sol = postprocess.build_solution(asm, phi)
        solution_s.append(clock.scaled)
        solution_wall_s.append(clock.wall)
    out = Outcome(solution_s, solution_wall_s, 0.0, 0.0, asm, phi, report, sol)
    if case.line is not None:
        with clock.stage(), span("postprocess.sample_line"):
            out.sample = postprocess.sample_line(sol, *case.line)
        with clock.stage(), span("postprocess.l2_line_error"):
            out.l2_error = postprocess.l2_line_error(sol, case.exact, *case.line)
    if case.mismatch:
        with clock.stage(), span("postprocess.interface_potential_mismatch"):
            out.interface_mismatch = postprocess.interface_potential_mismatch(sol)
    if case.export:
        out.files = [outdir / f"{case.label}.csv", outdir / f"{case.label}.vtk"]
        with clock.stage(), span("postprocess.export_csv"):
            postprocess.export_csv(out.sample, out.files[0])
        with clock.stage(), span("postprocess.export_vtk"):
            postprocess.export_vtk(sol, out.files[1])
    out.case_s, out.case_wall_s = clock.scaled, clock.wall
    return out


# ---------------------------------------------------------------------------
# checks, outside the timed region


def check_case(case: Case, out: Outcome) -> list[str]:
    """Reasons the case's outputs are wrong; empty when they are correct."""
    bad = []
    A, b, phi = out.assembled.matrix, out.assembled.rhs, out.phi
    if not out.report.converged:
        bad.append(f"solver did not converge ({out.report.iterations} iterations)")
    if not np.all(np.isfinite(phi)):
        bad.append("non-finite potential")
        return bad
    residual = float(np.linalg.norm(b - A @ phi)) / float(np.linalg.norm(b))
    if not residual <= TOL:
        bad.append(f"true relative residual {residual:.3e} > {TOL:g}")
    if not all(math.isfinite(v) for v in out.sol.phi_star.values()):
        bad.append("non-finite enrichment amplitude")
    if out.sample is not None:
        if not (np.all(np.isfinite(out.sample.phi)) and np.all(np.isfinite(out.sample.E))):
            bad.append("non-finite line sample")
    if case.l2_bound is not None:
        if not (out.l2_error is not None and out.l2_error <= case.l2_bound):
            bad.append(f"line L2 error {out.l2_error} above {case.l2_bound:.3e}")
    if case.mismatch and not (out.interface_mismatch is not None
                              and math.isfinite(out.interface_mismatch)):
        bad.append(f"interface mismatch {out.interface_mismatch}")
    if case.pole is not None:
        e = postprocess.elements_containing(out.sol, case.pole)[0]
        got, _ = postprocess.eval_in_element(out.sol, e, case.pole, side=+1)
        want = case.exact(case.pole)
        if not abs(got - want) <= case.pole_rtol * abs(want):
            bad.append(f"pole potential {got:.6g}, exact {want:.6g}")
    if case.spsolve_check:
        ref = spla.spsolve(A.tocsc(), b)
        diff = float(np.max(np.abs(phi - ref))) / float(np.max(np.abs(ref)))
        if not diff <= AGREE_RTOL:
            bad.append(f"differs from spsolve by {diff:.3e} (relative, max norm)")
    for path in out.files:
        bad += _check_file(path, out)
    return bad


def _check_file(path: Path, out: Outcome) -> list[str]:
    if not path.is_file() or path.stat().st_size == 0:
        return [f"{path.name} missing or empty"]
    if path.suffix == ".csv":
        pts, phi, E, _ = postprocess.read_csv_sample(path)
        if pts.shape[0] != out.sample.t.size:
            return [f"{path.name} has {pts.shape[0]} rows, sample has {out.sample.t.size}"]
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(phi)) and np.all(np.isfinite(E))):
            return [f"{path.name} holds non-finite values"]
        return []
    data = path.read_bytes().lower()
    if b"nan" in data or b"inf" in data:
        return [f"{path.name} holds non-finite values"]
    return []
