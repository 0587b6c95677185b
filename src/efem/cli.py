"""Command-line driver: solve one case file or run a convergence sweep.

Case files are INI-style text; bundled benchmark cases live in the
package's ``cases/`` directory and can be named without a path.  Exit
codes: 0 solved, 2 config error, 3 solver non-convergence, 4 mesh and
level-set incompatibility.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from efem import oracles
from efem.efem_core import MODES, MaterialPair, assemble_global
from efem.interface import CircleLevelSet, PlaneLevelSet, SphereLevelSet, classify_elements
from efem.mesh import BoundaryTag, Mesh, MeshError, generate_structured, read_mesh
from efem.postprocess import (build_solution, export_csv, export_vtk,
                              interface_potential_mismatch, l2_line_error,
                              observed_order, sample_l2_error, sample_line)
from efem.solver import solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INCOMPATIBLE = 4


class ConfigError(Exception):
    """Raised for malformed or incomplete case files (exit code 2)."""


class IncompatibleError(Exception):
    """Raised when mesh and level set cannot be combined (exit code 4)."""


@dataclass
class CaseConfig:
    name: str
    dim: int
    mesh_kind: str                  # "structured" | "file"
    mesh_n: int | None
    mesh_file: str | None
    levelset: PlaneLevelSet | CircleLevelSet
    materials: MaterialPair
    boundary: dict[str, BoundaryTag]
    mode: str
    tol: float
    lines: dict[str, tuple]        # name -> (start, end)
    vtk: str | None
    csv: bool
    reference: dict


def _floats(raw: str, want: int | None = None) -> list[float]:
    vals = [float(v) for v in raw.split()]
    if want is not None and len(vals) != want:
        raise ValueError(f"expected {want} numbers, got {len(vals)}")
    return vals


def _positive(what: str, value: float) -> float:
    """value if it is finite and above zero; else a ConfigError naming what."""
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{what} must be a positive finite number, got {value!r}")
    return value


def _number(what: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{what}: bad number {raw!r}") from None


def parse_case(text: str, name: str) -> CaseConfig:
    import configparser

    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse case file: {exc}") from exc

    def need(section: str) -> "configparser.SectionProxy":
        if not cp.has_section(section):
            raise ConfigError(f"missing [{section}] section")
        return cp[section]

    def get(section, key, cast=str, default=None, required=False):
        sec = need(section)
        if key not in sec:
            if required:
                raise ConfigError(f"{section}: missing key {key!r}")
            return default
        try:
            return cast(sec[key])
        except ValueError as exc:
            raise ConfigError(f"{section}: bad value for {key!r}: {exc}") from exc

    mesh_kind = get("mesh", "kind", str, "structured")
    if mesh_kind not in ("structured", "file"):
        raise ConfigError(f"mesh: unknown kind {mesh_kind!r}")
    dim = get("mesh", "dim", int, required=True)
    if dim not in (2, 3):
        raise ConfigError(f"mesh: dim must be 2 or 3, got {dim}")
    mesh_n = mesh_file = None
    if mesh_kind == "structured":
        if "h" in cp["mesh"]:
            mesh_n = oracles.resolution(_positive("mesh: h", get("mesh", "h", float)))
        else:
            mesh_n = get("mesh", "n", int, required=True)
        if mesh_n < 1:
            raise ConfigError("mesh: n must be at least 1")
    else:
        mesh_file = get("mesh", "file", str, required=True)

    ls_sec = need("levelset")
    ls_kind = get("levelset", "kind", str, required=True)
    params: dict = {}
    try:
        if ls_kind == "plane":
            params["point"] = _floats(ls_sec["point"], dim)
            params["normal"] = _floats(ls_sec["normal"], dim)
        elif ls_kind in ("circle", "sphere"):
            params["center"] = _floats(ls_sec["center"], dim)
            params["radius"] = float(ls_sec["radius"])
        else:
            raise ConfigError(f"levelset: unknown kind {ls_kind!r}")
    except KeyError as exc:
        raise ConfigError(f"levelset: missing key {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ConfigError(f"levelset: {exc}") from exc
    for key, value in params.items():
        if not np.isfinite(value).all():
            raise ConfigError(f"levelset: {key} must be finite, got {ls_sec[key]!r}")
    curved = ("circle", "sphere")[dim - 2]
    if ls_kind not in ("plane", curved):
        raise ConfigError(f"levelset: kind {ls_kind!r} does not fit dim {dim}; use {curved!r}")
    try:
        if ls_kind == "plane":
            levelset = PlaneLevelSet(params["point"], params["normal"])
        else:
            cls = CircleLevelSet if ls_kind == "circle" else SphereLevelSet
            levelset = cls(params["center"], params["radius"])
    except ValueError as exc:
        raise ConfigError(f"levelset: {exc}") from exc

    mat = need("materials")
    try:
        if "q" in mat:
            materials = MaterialPair(float(mat["q"]), 1.0)
        elif "eps1" in mat and "eps2" in mat:
            materials = MaterialPair(float(mat["eps1"]), float(mat["eps2"]))
        else:
            raise ConfigError("materials: need either q or eps1 and eps2")
    except ValueError as exc:
        raise ConfigError(f"materials: {exc}") from exc

    boundary: dict[str, BoundaryTag] = {}
    for tag, raw in need("boundary").items():
        parts = raw.split()
        kind = parts[0] if parts else ""
        if kind == "dirichlet":
            if len(parts) != 2:
                raise ConfigError(f"boundary: {tag}: dirichlet needs one value")
            value = _number(f"boundary: {tag}: dirichlet value", parts[1])
            if not math.isfinite(value):
                raise ConfigError(f"boundary: {tag}: dirichlet value must be finite, "
                                  f"got {parts[1]!r}")
            boundary[tag] = BoundaryTag(tag, "dirichlet", value)
        elif kind == "neumann":
            boundary[tag] = BoundaryTag(tag, "neumann")
        else:
            raise ConfigError(f"boundary: {tag}: unknown kind {kind!r}")
    if not boundary:
        raise ConfigError("boundary: no tags assigned")

    mode = get("solver", "mode", str, "efem") if cp.has_section("solver") else "efem"
    if mode not in MODES:
        raise ConfigError(f"solver: unknown mode {mode!r}")
    tol = get("solver", "tol", float, 1e-8) if cp.has_section("solver") else 1e-8
    _positive("solver: tol", tol)

    lines: dict[str, tuple] = {}
    vtk = None
    csv = False
    if cp.has_section("output"):
        out = cp["output"]
        for key, raw in out.items():
            if key.startswith("line"):
                try:
                    vals = _floats(raw, 2 * dim)
                except ValueError as exc:
                    raise ConfigError(f"output: {key}: {exc}") from exc
                lines[key] = (tuple(vals[:dim]), tuple(vals[dim:]))
        vtk = out.get("vtk") or None
        csv = out.get("csv", "no").strip().lower() in ("yes", "true", "1", "on")

    reference = {"kind": "none"}
    if cp.has_section("reference"):
        ref = cp["reference"]
        reference = {"kind": ref.get("kind", "none")}
        for key in ("q", "fine_h"):
            if key in ref:
                what = f"reference: {key}"
                reference[key] = _positive(what, _number(what, ref[key]))
        if reference["kind"] not in ("none", "planar", "sphere", "cylinder-model",
                                     "conforming-inclined", "self"):
            raise ConfigError(f"reference: unknown kind {reference['kind']!r}")

    return CaseConfig(name, dim, mesh_kind, mesh_n, mesh_file, levelset,
                      materials, boundary, mode, tol, lines, vtk, csv, reference)


# ---------------------------------------------------------------------------
# case resolution and construction


def _case_text(name_or_path: str) -> tuple[str, str, Path | None]:
    """Resolve a path or bundled case name to (text, name, base directory)."""
    p = Path(name_or_path)
    try:
        if p.is_file():             # a directory named like a bundled case is not one
            return p.read_text(encoding="utf-8"), p.stem, p.parent
    except (OSError, UnicodeDecodeError) as exc:      # a name too long, no permission, ...
        raise ConfigError(f"case file {name_or_path!r}: cannot read: "
                          f"{getattr(exc, 'strerror', None) or exc}") from exc
    bundled = resources.files("efem").joinpath("cases", name_or_path + ".cfg")
    if bundled.is_file():
        return bundled.read_text(encoding="utf-8"), name_or_path, None
    raise ConfigError(f"case {name_or_path!r} not found (no such file or bundled case)")


def _load_mesh(cfg: CaseConfig, base: Path | None) -> Mesh:
    if cfg.mesh_kind == "structured":
        return generate_structured(cfg.dim, cfg.mesh_n)
    candidates = []
    if base is not None:
        candidates.append(base / cfg.mesh_file)
    candidates.append(Path(cfg.mesh_file))
    try:
        for cand in candidates:
            if cand.exists():
                return read_mesh(cand)
        bundled = resources.files("efem").joinpath("cases", cfg.mesh_file)
        if bundled.is_file():
            with resources.as_file(bundled) as real:
                return read_mesh(real)
    except MeshError as exc:
        raise ConfigError(f"mesh: file {cfg.mesh_file!r}: {exc}") from exc
    except OSError as exc:          # a directory, no read permission, ...
        raise ConfigError(f"mesh: file {cfg.mesh_file!r}: cannot read: {exc.strerror or exc}") from exc
    raise ConfigError(f"mesh: file {cfg.mesh_file!r} not found")


def _reference_evaluator(cfg: CaseConfig):
    ref = cfg.reference
    kind = ref["kind"]
    if kind == "none":
        return None
    q = ref.get("q", 3.0)
    if kind == "planar":
        return oracles.PlanarCase(q).phi
    if kind == "sphere":
        return oracles.SphereCase(q).phi
    if kind == "cylinder-model":
        return oracles.CylinderCase(q).phi
    if kind == "conforming-inclined":
        sol = oracles.reference_solve("inclined", ref.get("fine_h"), q=q)
        return oracles.phi_evaluator(sol)
    if kind == "self":
        sol = oracles.reference_solve("cylinder", ref.get("fine_h"), q=q)
        return oracles.phi_evaluator(sol)
    raise ConfigError(f"reference: unknown kind {kind!r}")


def _assemble(cfg: CaseConfig, mesh: Mesh, modes: list[str]):
    """Yield the assembled system of each mode in turn; the mesh is classified once."""
    try:
        classification = classify_elements(mesh, cfg.levelset)
        for mode in modes:
            yield assemble_global(mesh, cfg.levelset, cfg.materials, mode, cfg.boundary,
                                  classification=classification)
    except (MeshError, ValueError, KeyError) as exc:
        raise IncompatibleError(f"case is incompatible with the mesh: {exc}") from exc


# ---------------------------------------------------------------------------
# solve command


def run_case(cfg: CaseConfig, base: Path | None, out_dir: Path,
             direct: bool = False) -> tuple[int, dict]:
    t0 = time.perf_counter()
    mesh = _load_mesh(cfg, base)
    assembled = next(_assemble(cfg, mesh, [cfg.mode]))
    phi, report = solve(assembled.matrix, assembled.rhs, tol=cfg.tol, direct=direct)
    sol = build_solution(assembled, phi)
    reference = _reference_evaluator(cfg)

    out_dir.mkdir(parents=True, exist_ok=True)
    line_report: dict[str, dict] = {}
    for name, (start, end) in sorted(cfg.lines.items()):
        sample = sample_line(sol, start, end)
        entry: dict = {"l2_error": None, "csv": None}
        if reference is not None:
            entry["l2_error"] = sample_l2_error(sample, reference)
        if cfg.csv:
            fname = f"{name}.csv"
            export_csv(sample, out_dir / fname)
            entry["csv"] = fname
        line_report[name] = entry

    if cfg.vtk:
        export_vtk(sol, out_dir / cfg.vtk)

    summary = {
        "case": cfg.name,
        "mode": cfg.mode,
        "method": report.method,
        "n_nodes": mesh.n_nodes,
        "n_elements": mesh.n_elements,
        "n_cut": int(np.count_nonzero(assembled.classification.is_cut)),
        "n_fallback": len(assembled.fallback_elements),
        "nodal_unknowns": mesh.n_nodes,
        "iterations": report.iterations,
        "jacobi_iterations": report.jacobi_iterations,
        "restart": report.restart,
        "residual": report.residual,
        "converged": report.converged,
        "interface_mismatch": interface_potential_mismatch(sol),
        "lines": line_report,
        "vtk": cfg.vtk,
        "wall_time_s": time.perf_counter() - t0,
    }
    with open(out_dir / "summary.json", "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    status = EXIT_OK if report.converged else EXIT_NO_CONVERGENCE
    return status, summary


# ---------------------------------------------------------------------------
# convergence command


def run_convergence(cfg: CaseConfig, base: Path | None, out_dir: Path,
                    h_list: list[float], modes: list[str]) -> tuple[int, dict]:
    if cfg.mesh_kind != "structured":
        raise ConfigError("converge: needs a structured mesh case")
    if len(h_list) < 2:
        raise ConfigError("converge: need at least two mesh levels")
    levels = [oracles.resolution(h) for h in h_list]
    for i, n in enumerate(levels):
        if n in levels[:i]:
            raise ConfigError(f"converge: h = {h_list[levels.index(n)]:g} and h = {h_list[i]:g} "
                              f"give the same mesh (n = {n})")
    if not cfg.lines:
        raise ConfigError("converge: case defines no sample lines")
    if not modes:
        raise ConfigError("converge: --modes names no mode")
    for i, m in enumerate(modes):
        if m not in MODES:
            raise ConfigError(f"converge: unknown mode {m!r}")
        if m in modes[:i]:
            raise ConfigError(f"converge: mode {m!r} listed twice")
    reference = _reference_evaluator(cfg)
    if reference is None:
        raise ConfigError("converge: case has no reference to measure against")

    errors = {mode: {name: [] for name in cfg.lines} for mode in modes}
    converged = True
    for n in levels:
        mesh = generate_structured(cfg.dim, n)
        for mode, assembled in zip(modes, _assemble(cfg, mesh, modes)):
            phi, report = solve(assembled.matrix, assembled.rhs, tol=cfg.tol)
            converged = converged and report.converged
            sol = build_solution(assembled, phi)
            for name, (start, end) in cfg.lines.items():
                errors[mode][name].append(l2_line_error(sol, reference, start, end))
    table = {name: {mode: {"h": list(h_list),
                           "errors": errors[mode][name],
                           "order": observed_order(h_list, errors[mode][name])}
                    for mode in modes}
             for name in cfg.lines}

    report_doc = {"case": cfg.name, "reference": cfg.reference, "lines": table}
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "convergence.json", "w") as f:
        json.dump(report_doc, f, indent=2)
        f.write("\n")

    for name, per_mode in table.items():
        print(f"line {name}:")
        header = "    h      " + "  ".join(f"{m:>12s}" for m in per_mode)
        print(header)
        for i, h in enumerate(h_list):
            row = f"  {h:7.4f}  " + "  ".join(
                f"{per_mode[m]['errors'][i]:12.4e}" for m in per_mode)
            print(row)
        print("  order    " + "  ".join(
            f"{per_mode[m]['order']:12.3f}" for m in per_mode))
    status = EXIT_OK if converged else EXIT_NO_CONVERGENCE
    return status, report_doc


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="efem",
                                 description="Enriched FEM electrostatics solver")
    sub = ap.add_subparsers(dest="command", required=True)

    sv = sub.add_parser("solve", help="solve one case file")
    sv.add_argument("case", help="case file path or bundled case name")
    sv.add_argument("--mode", choices=MODES, help="override the case mode")
    sv.add_argument("--h", type=float, help="override structured element size")
    sv.add_argument("--tol", type=float, help="override solver tolerance")
    sv.add_argument("--direct", action="store_true",
                    help="sparse LU (SuperLU) instead of BiCGSTAB: exact, but "
                         "more memory on large meshes")
    sv.add_argument("--out", default=".", help="output directory")

    cv = sub.add_parser("converge", help="error-vs-h sweep across modes")
    cv.add_argument("case")
    cv.add_argument("--h-list", required=True,
                    help="comma-separated element sizes, e.g. 0.3,0.15,0.075")
    cv.add_argument("--modes", default="efem",
                    help="comma-separated modes, e.g. efem,efem-nod")
    cv.add_argument("--out", default=".")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        text, name, base = _case_text(args.case)
        cfg = parse_case(text, name)
        if args.command == "solve":
            if args.mode:
                cfg.mode = args.mode
            if args.tol is not None:
                cfg.tol = _positive("--tol", args.tol)
            if args.h is not None:
                if cfg.mesh_kind != "structured":
                    raise ConfigError("--h override requires a structured mesh")
                cfg.mesh_n = oracles.resolution(_positive("--h", args.h))
            status, summary = run_case(cfg, base, Path(args.out), direct=args.direct)
            if status == EXIT_NO_CONVERGENCE:
                print(f"solver stalled at residual {summary['residual']:.3e}",
                      file=sys.stderr)
            else:
                print(f"{cfg.name}: {summary['iterations']} iterations, "
                      f"residual {summary['residual']:.3e}")
            return status
        h_list = [_positive("--h-list", _number("--h-list", v))
                  for v in args.h_list.split(",") if v]
        modes = [m for m in args.modes.split(",") if m]
        status, _ = run_convergence(cfg, base, Path(args.out), h_list, modes)
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IncompatibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE


if __name__ == "__main__":
    sys.exit(main())
