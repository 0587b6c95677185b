"""Command-line driver: solve one case file or run a convergence sweep.

Case files are INI-style text; bundled benchmark cases live in the
package's ``cases/`` directory and can be named without a path.  Exit
codes: 0 solved, 2 config error, 3 solver non-convergence, 4 mesh and
case incompatibility (a level set, boundary tag or sample line that does
not fit the mesh).
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
from efem.postprocess import (SolutionField, build_solution, export_csv, export_vtk,
                              interface_potential_mismatch, observed_order,
                              sample_l2_error, sample_line)
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
    reference: str                  # the reference kind


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


# level-set kind -> (dimensions it fits, class, its keys in argument order, each
# with how many numbers it takes: one, or one per coordinate)
_LEVELSETS = {
    "plane": ((2, 3), PlaneLevelSet, {"point": "dim", "normal": "dim"}),
    "circle": ((2,), CircleLevelSet, {"center": "dim", "radius": 1}),
    "sphere": ((3,), SphereLevelSet, {"center": "dim", "radius": 1}),
}

# section -> the key sets it takes, of which a case file gives one;
# [output] also takes line* keys, and [boundary] the mesh's tags
_KEYS = {
    "mesh": ("kind dim n", "kind dim h", "kind dim file"),
    "levelset": tuple(" ".join(["kind", *keys]) for _, _, keys in _LEVELSETS.values()),
    "materials": ("q", "eps1 eps2"),
    "boundary": None,
    "solver": ("mode tol",),
    "output": ("csv vtk",),
    "reference": ("kind",),
}
# where the values of keys that case files once took come from now
_GONE = {"q": "; the permittivity ratio comes from [materials]",
         "fine_h": "; each reference kind fixes its own mesh"}


def _check_keys(section: str, keys: list[str]) -> None:
    """ConfigError naming a key that the section does not take, or two keys
    that no key set of the section holds together."""
    choices = [set(names.split()) for names in _KEYS[section]]
    for i, key in enumerate(keys):
        if not any(key in taken for taken in choices):
            raise ConfigError(f"{section}: unknown key {key!r}{_GONE.get(key, '')}")
        for first in keys[:i]:
            if not any({first, key} <= taken for taken in choices):
                raise ConfigError(f"{section}: keys {first!r} and {key!r} conflict; give one")


def parse_case(text: str, name: str) -> CaseConfig:
    import configparser

    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.optionxform = str            # keys keep their case: mesh tags may hold capitals
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse case file: {exc}") from exc
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        if section != "boundary":
            _check_keys(section, [key for key in cp[section]
                                  if not (section == "output" and key.startswith("line"))])
    cp.read_dict(dict.fromkeys(_KEYS, {}))    # a section left out is empty: its keys are missing

    def get(section, key, cast=str, default=None, required=False):
        sec = cp[section]
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

    ls_kind = get("levelset", "kind", str, required=True)
    if ls_kind not in _LEVELSETS:
        raise ConfigError(f"levelset: unknown kind {ls_kind!r}")
    fits, cls, keys = _LEVELSETS[ls_kind]
    ls_sec = cp["levelset"]
    try:
        params = [float(ls_sec[key]) if count == 1 else _floats(ls_sec[key], dim)
                  for key, count in keys.items()]
    except KeyError as exc:
        raise ConfigError(f"levelset: missing key {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ConfigError(f"levelset: {exc}") from exc
    for key, value in zip(keys, params):
        if not np.isfinite(value).all():
            raise ConfigError(f"levelset: {key} must be finite, got {ls_sec[key]!r}")
    if dim not in fits:
        # the kind that takes the same keys in this dimension
        use = next(k for k, (d, _, ks) in _LEVELSETS.items() if dim in d and ks == keys)
        raise ConfigError(f"levelset: kind {ls_kind!r} does not fit dim {dim}; use {use!r}")
    try:
        levelset = cls(*params)
    except ValueError as exc:
        raise ConfigError(f"levelset: {exc}") from exc

    mat = cp["materials"]
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
    for tag, raw in cp["boundary"].items():
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

    mode = get("solver", "mode", str, "efem")
    if mode not in MODES:
        raise ConfigError(f"solver: unknown mode {mode!r}")
    tol = _positive("solver: tol", get("solver", "tol", float, 1e-8))

    lines: dict[str, tuple] = {}
    for key, raw in cp["output"].items():
        if key.startswith("line"):
            try:
                vals = _floats(raw, 2 * dim)
            except ValueError as exc:
                raise ConfigError(f"output: {key}: {exc}") from exc
            if not np.isfinite(vals).all():
                raise ConfigError(f"output: {key} must be finite, got {raw!r}")
            with np.errstate(over="ignore"):
                if not np.isfinite(np.subtract(vals[dim:], vals[:dim])).all():
                    raise ConfigError(f"output: {key}: direction end - start is not finite, "
                                      f"got {raw!r}")
            lines[key] = (tuple(vals[:dim]), tuple(vals[dim:]))
    vtk = get("output", "vtk") or None
    if vtk is not None and (vtk == ".." or Path(vtk).name != vtk):
        raise ConfigError(f"output: vtk {vtk!r} must be a file name, with no directory part")
    csv = get("output", "csv", lambda raw: cp.getboolean("output", "csv"), False)
    if vtk == "summary.json" or (csv and vtk in {f"{key}.csv" for key in lines}):
        raise ConfigError(f"output: vtk {vtk!r} names another output of the run")

    reference = get("reference", "kind", str, "none")
    if reference not in _REFERENCES:
        raise ConfigError(f"reference: unknown kind {reference!r}")
    if dim not in _REFERENCES[reference][0]:
        raise ConfigError(f"reference: kind {reference!r} does not fit dim {dim}")

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
    candidates = ([] if base is None else [base / cfg.mesh_file]) + [Path(cfg.mesh_file)]
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


def _assemble(cfg: CaseConfig, mesh: Mesh, modes: list[str]):
    """Yield the assembled system of each mode in turn; the mesh is classified once."""
    try:
        classification = classify_elements(mesh, cfg.levelset)
        for mode in modes:
            # inf and inf - inf reported below, naming their cause
            with np.errstate(over="ignore", invalid="ignore"):
                assembled = assemble_global(mesh, cfg.levelset, cfg.materials, mode,
                                            cfg.boundary, classification=classification)
            if not np.isfinite(assembled.matrix.data).all():
                raise IncompatibleError(
                    f"materials: eps1 = {cfg.materials.eps1:g} and eps2 = "
                    f"{cfg.materials.eps2:g} overflow the assembled matrix on this mesh")
            if not np.isfinite(assembled.rhs).all():
                raise IncompatibleError(
                    "materials and boundary: the permittivities and Dirichlet values "
                    "overflow the assembled right-hand side on this mesh")
            yield assembled
    except (MeshError, ValueError, KeyError) as exc:
        raise IncompatibleError(f"case is incompatible with the mesh: {exc}") from exc


# ---------------------------------------------------------------------------
# references: each kind builds its field from the case's own sections


def _closed_form(cfg: CaseConfig):
    """The planar or inclusion closed form of the case's level set, with the
    ratio q of its materials; a ConfigError naming the reference kind for a
    case that the kind cannot represent."""
    ls, eps, kind = cfg.levelset, cfg.materials, cfg.reference
    plane = isinstance(ls, PlaneLevelSet)
    if kind == "planar" and not (plane and ls.normal[0] == 0.0
                                 and ls.point[1] == oracles.PLANAR_INTERFACE_Y):
        raise ConfigError(f"reference: kind 'planar' needs the plane "
                          f"y = {oracles.PLANAR_INTERFACE_Y}")
    if kind != "planar" and plane:
        raise ConfigError(f"reference: kind {kind!r} needs a circle or sphere level set, "
                          "not a plane")
    # q is the permittivity above over the one below (eps1 is on the normal's
    # side), or the one inside (eps2) over the one outside
    num, den = (eps.eps1, eps.eps2) if plane and ls.normal[1] > 0.0 else (eps.eps2, eps.eps1)
    q = num / den
    if not 0.0 < q < math.inf:
        raise ConfigError(f"reference: kind {kind!r}: the permittivity ratio {num:g} / {den:g} "
                          "is not a positive finite number")
    if plane:
        return oracles.PlanarCase(q).phi
    return oracles.InclusionCase(q, tuple(ls.center.tolist()), ls.radius).phi


def fine_solution(cfg: CaseConfig, mode: str, h: float) -> SolutionField:
    """The case's own level set, materials and boundary solved in this mode on
    the structured mesh of size h by sparse LU, which the iterative solver
    cannot move.  A standard-mode reference refuses a cut mesh.  An error of
    the assembly names the reference kind and its mesh, not the case's."""
    n = oracles.resolution(h)
    try:
        assembled = next(_assemble(cfg, generate_structured(cfg.dim, n), [mode]))
    except IncompatibleError as exc:
        raise IncompatibleError(f"reference: kind {cfg.reference!r} on its structured "
                                f"n = {n} mesh: {exc}") from exc
    cut = np.count_nonzero(assembled.classification.is_cut)
    if mode == "standard" and cut:
        raise ConfigError(f"reference: kind {cfg.reference!r} needs an interface along "
                          f"the edges of its n = {n} mesh; this one cuts {cut} elements")
    phi, _ = solve(assembled.matrix, assembled.rhs, direct=True)
    return build_solution(assembled, phi)


# reference kind -> (dimensions it fits, the case -> the point-to-phi callable,
# with the oracles' phi contract, that line errors are measured against)
_REFERENCES = {
    "none": ((2, 3), lambda cfg: None),
    "planar": ((2,), _closed_form),
    "sphere": ((3,), _closed_form),
    "cylinder-model": ((2,), _closed_form),
    "conforming-inclined": ((2,), lambda cfg: oracles.phi_evaluator(
        fine_solution(cfg, "standard", 0.01))),
    "self": ((2,), lambda cfg: oracles.phi_evaluator(fine_solution(cfg, "efem", 0.005))),
}


def _solutions(cfg: CaseConfig, mesh: Mesh, modes: list[str], reference,
               direct: bool = False):
    """Yield (assembled, solver report, solution, {line: (sample, L2 error)}) for
    each mode in turn: assemble, solve, build the solution, sample each line
    once.  The L2 error is None without a reference; a line that leaves the
    mesh (or the reference's domain) is an IncompatibleError naming it."""
    for assembled in _assemble(cfg, mesh, modes):
        phi, report = solve(assembled.matrix, assembled.rhs, tol=cfg.tol, direct=direct)
        sol = build_solution(assembled, phi)
        lines = {}
        for name, (start, end) in cfg.lines.items():
            try:
                sample = sample_line(sol, start, end)
                lines[name] = (sample, None if reference is None
                               else sample_l2_error(sample, reference))
            except ValueError as exc:
                raise IncompatibleError(f"output: {name}: {exc}") from exc
        yield assembled, report, sol, lines


def _json_number(value: float | None) -> float | None:
    """value, or None (null) where it is not finite: JSON has no NaN."""
    return value if value is not None and math.isfinite(value) else None


# ---------------------------------------------------------------------------
# solve command


def run_case(cfg: CaseConfig, base: Path | None, out_dir: Path,
             direct: bool = False) -> tuple[int, dict]:
    t0 = time.perf_counter()
    reference = _REFERENCES[cfg.reference][1](cfg)      # before the mesh: it may refuse the case
    mesh = _load_mesh(cfg, base)
    assembled, report, sol, lines = next(_solutions(cfg, mesh, [cfg.mode], reference, direct))

    line_report: dict[str, dict] = {}
    for name, (sample, l2_error) in sorted(lines.items()):
        csv = f"{name}.csv" if cfg.csv else None
        if csv:
            export_csv(sample, out_dir / csv)
        line_report[name] = {"l2_error": _json_number(l2_error), "csv": csv}

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
        "residual": _json_number(report.residual),
        "converged": report.converged,
        "interface_mismatch": _json_number(interface_potential_mismatch(sol)),
        "lines": line_report,
        "vtk": cfg.vtk,
        "wall_time_s": time.perf_counter() - t0,
    }
    with open(out_dir / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, allow_nan=False)
        f.write("\n")
    status = EXIT_OK if report.converged else EXIT_NO_CONVERGENCE
    return status, summary


# ---------------------------------------------------------------------------
# convergence command


def _order(h_list: list[float], errors: list) -> float | None:
    """observed_order, or None where a level's error is not positive and finite."""
    try:
        return observed_order(h_list, errors)
    except ValueError:
        return None


def _cell(value: float | None, spec: str) -> str:
    return f"{'n/a':>12s}" if value is None else f"{value:{spec}}"


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
    reference = _REFERENCES[cfg.reference][1](cfg)
    if reference is None:
        raise ConfigError("converge: case has no reference to measure against")

    errors = {mode: {name: [] for name in cfg.lines} for mode in modes}
    converged = True
    for n in levels:
        mesh = generate_structured(cfg.dim, n)
        for mode, (_, report, _, lines) in zip(modes, _solutions(cfg, mesh, modes, reference)):
            converged = converged and report.converged
            for name, (_, error) in lines.items():
                errors[mode][name].append(_json_number(error))
    table = {name: {mode: {"h": list(h_list),
                           "errors": errors[mode][name],
                           "order": _order(h_list, errors[mode][name])}
                    for mode in modes}
             for name in cfg.lines}

    report_doc = {"case": cfg.name, "reference": cfg.reference, "lines": table}
    with open(out_dir / "convergence.json", "w") as f:
        json.dump(report_doc, f, indent=2, allow_nan=False)
        f.write("\n")

    for name, per_mode in table.items():
        print(f"line {name}:")
        header = "    h      " + "  ".join(f"{m:>12s}" for m in per_mode)
        print(header)
        for i, h in enumerate(h_list):
            row = f"  {h:7.4f}  " + "  ".join(
                _cell(per_mode[m]['errors'][i], "12.4e") for m in per_mode)
            print(row)
        print("  order    " + "  ".join(
            _cell(per_mode[m]['order'], "12.3f") for m in per_mode))
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
        out = Path(args.out)
        try:            # before any mesh is built: an --out that names a file, ...
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out!r}: cannot make the directory: "
                              f"{exc.strerror or exc}") from exc
        if args.command == "solve":
            if args.mode:
                cfg.mode = args.mode
            if args.tol is not None:
                cfg.tol = _positive("--tol", args.tol)
            if args.h is not None:
                if cfg.mesh_kind != "structured":
                    raise ConfigError("--h override requires a structured mesh")
                cfg.mesh_n = oracles.resolution(_positive("--h", args.h))
            status, summary = run_case(cfg, base, out, direct=args.direct)
            residual = _cell(summary["residual"], ".3e").strip()
            if status == EXIT_NO_CONVERGENCE:
                print(f"solver stalled at residual {residual}", file=sys.stderr)
            else:
                print(f"{cfg.name}: {summary['iterations']} iterations, residual {residual}")
            return status
        h_list = [_positive("--h-list", _number("--h-list", v))
                  for v in args.h_list.split(",") if v]
        modes = [m for m in args.modes.split(",") if m]
        status, _ = run_convergence(cfg, base, out, h_list, modes)
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IncompatibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE


if __name__ == "__main__":
    sys.exit(main())
