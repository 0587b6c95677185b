"""Driver behavior: exit codes, artifact schema, determinism, mode isolation."""

import hashlib
import json
import math
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from efem.cli import main
from efem.postprocess import read_csv_sample

GOOD_CASE = """\
[mesh]
kind = structured
dim = 2
n = 5

[levelset]
kind = plane
point = 0.0 0.5
normal = 0.0 1.0

[materials]
q = 3.0

[boundary]
bottom = dirichlet 0.0
top = dirichlet 1.0
left = neumann
right = neumann

[output]
line_mid = 0.5 0.0 0.5 1.0
csv = yes

[reference]
kind = planar
q = 3.0
"""

CYLINDER_CASE = resources.files("efem").joinpath("cases", "cylinder.cfg").read_text()

SUMMARY_KEYS = {
    "case", "mode", "method", "n_nodes", "n_elements", "n_cut", "n_fallback",
    "nodal_unknowns", "iterations", "jacobi_iterations", "restart", "residual", "converged",
    "interface_mismatch", "lines", "vtk", "wall_time_s",
}


def write_case(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_missing_materials_exits_2_naming_field(tmp_path, capsys):
    broken = GOOD_CASE.replace("[materials]\nq = 3.0\n\n", "")
    rc = main(["solve", write_case(tmp_path, broken), "--out", str(tmp_path)])
    assert rc == 2
    assert "materials" in capsys.readouterr().err


def test_empty_materials_section_exits_2(tmp_path, capsys):
    broken = GOOD_CASE.replace("q = 3.0\n\n[boundary]", "\n[boundary]", 1)
    rc = main(["solve", write_case(tmp_path, broken), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "materials" in err and ("q" in err or "eps" in err)


def test_unknown_case_name_exits_2(tmp_path, capsys):
    rc = main(["solve", "no_such_case", "--out", str(tmp_path)])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_directory_named_like_a_bundled_case_runs_that_case(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for _ in range(2):          # the first run makes the directory planar_q3
        assert main(["solve", "planar_q3", "--out", "planar_q3"]) == 0
    assert json.loads((tmp_path / "planar_q3" / "summary.json").read_text())["case"] == "planar_q3"


def test_directory_named_like_no_case_exits_2(tmp_path, capsys):
    rc = main(["solve", str(tmp_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"config error: case {str(tmp_path)!r} not found" in capsys.readouterr().err


def test_case_file_that_is_not_utf8_exits_2_naming_file(tmp_path, capsys):
    path = tmp_path / "case.cfg"
    path.write_bytes(GOOD_CASE.encode().replace(b"[materials]", b"# \xff\n[materials]"))
    rc = main(["solve", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: case file {str(path)!r}: cannot read: 'utf-8' codec" in err
    assert "invalid start byte" in err


def test_case_name_too_long_for_a_path_exits_2_naming_it(tmp_path, capsys):
    name = "a" * 300                # longer than a file name may be
    rc = main(["solve", name, "--out", str(tmp_path)])
    assert rc == 2
    assert f"config error: case file {name!r}: cannot read: " in capsys.readouterr().err


def test_case_file_that_cannot_be_read_exits_2_naming_file(tmp_path, capsys, monkeypatch):
    path = write_case(tmp_path, GOOD_CASE)

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(type(tmp_path), "read_text", refuse)
    rc = main(["solve", path, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"config error: case file {path!r}: cannot read: Permission denied" in capsys.readouterr().err


def test_boundary_tag_mismatch_exits_4(tmp_path, capsys):
    # The structured mesh tags its sides left/right/bottom/top; a case that
    # assigns only invented tags leaves real ones uncovered.
    broken = GOOD_CASE.replace(
        "bottom = dirichlet 0.0\ntop = dirichlet 1.0\nleft = neumann\nright = neumann",
        "north = dirichlet 1.0\nsouth = dirichlet 0.0")
    rc = main(["solve", write_case(tmp_path, broken), "--out", str(tmp_path)])
    assert rc == 4
    assert "incompatible" in capsys.readouterr().err


def test_unreachable_tolerance_exits_3(tmp_path, capsys):
    rc = main(["solve", write_case(tmp_path, GOOD_CASE), "--tol", "1e-300",
               "--out", str(tmp_path)])
    assert rc == 3
    assert "stalled" in capsys.readouterr().err


def test_direct_solves_large_mesh(tmp_path):
    """Sparse LU has no size limit; it agrees with the iterative solve."""
    summaries = {}
    for name, extra in (("lu", ["--direct"]), ("iterative", [])):
        out = tmp_path / name
        rc = main(["solve", write_case(tmp_path, GOOD_CASE), "--h", "0.02", *extra,
                   "--out", str(out)])
        assert rc == 0
        summaries[name] = json.loads((out / "summary.json").read_text())
    lu, it = summaries["lu"], summaries["iterative"]
    assert lu["n_nodes"] == 51 * 51
    assert lu["method"] == "lu" and lu["converged"] is True and lu["iterations"] == 0
    assert lu["residual"] <= 1e-12
    assert it["method"] in ("bicgstab", "bicgstab-amg")
    _, phi_lu, _, _ = read_csv_sample(tmp_path / "lu" / "line_mid.csv")
    _, phi_it, _, _ = read_csv_sample(tmp_path / "iterative" / "line_mid.csv")
    assert np.abs(phi_lu - phi_it).max() <= 1e-6 * np.abs(phi_lu).max()


def test_conflicting_dirichlet_values_exit_4(tmp_path, capsys):
    broken = GOOD_CASE.replace("left = neumann", "left = dirichlet 5.0")
    rc = main(["solve", write_case(tmp_path, broken), "--out", str(tmp_path)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "conflicting Dirichlet values" in err and "'left'" in err and "'bottom'" in err


@pytest.mark.parametrize("key, old, new", [
    ("radius", "radius = 0.2", "radius = nan"),
    ("center", "center = 0.25 0.75", "center = 0.25 inf"),
    ("point", "point = 0.0 0.5", "point = 0.0 nan"),
    ("normal", "normal = 0.0 1.0", "normal = -inf 1.0"),
])
def test_non_finite_levelset_exits_2_naming_key(tmp_path, capsys, key, old, new):
    base = CYLINDER_CASE if key in ("radius", "center") else GOOD_CASE
    assert old in base
    rc = main(["solve", write_case(tmp_path, base.replace(old, new)), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"levelset: {key} must be finite" in err and new.split(" = ")[1] in err


@pytest.mark.parametrize("case, old, new, named", [
    ("planar_q3", "normal = 0.0 1.0", "normal = 0 0", "levelset: plane normal must be nonzero"),
    ("sphere", "radius = 0.1", "radius = -0.1", "levelset: radius must be positive, got -0.1"),
    ("cylinder", "radius = 0.2", "radius = 0", "levelset: radius must be positive, got 0.0"),
    ("cylinder", "kind = circle", "kind = sphere", "levelset: kind 'sphere' does not fit dim 2"),
    ("sphere", "kind = sphere", "kind = circle", "levelset: kind 'circle' does not fit dim 3"),
])
def test_bad_levelset_geometry_exits_2_naming_key(tmp_path, capsys, case, old, new, named):
    # the first match is the [levelset] key in each bundled case
    text = resources.files("efem").joinpath("cases", f"{case}.cfg").read_text()
    assert old in text
    rc = main(["solve", write_case(tmp_path, text.replace(old, new, 1)), "--out", str(tmp_path)])
    assert rc == 2
    assert f"config error: {named}" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("old, new, named", [
    ("bottom = dirichlet 0.0", "bottom = dirichlet abc", "boundary: bottom: dirichlet value"),
    ("bottom = dirichlet 0.0", "bottom = dirichlet nan", "boundary: bottom: dirichlet value"),
    ("n = 5", "h = 0", "mesh: h"),
    ("n = 5", "h = nan", "mesh: h"),
    ("[output]", "[solver]\ntol = nan\n\n[output]", "solver: tol"),
    ("[output]", "[solver]\ntol = -1\n\n[output]", "solver: tol"),
    ("kind = planar\nq = 3.0", "kind = planar\nq = abc", "reference: q"),
    ("kind = planar\nq = 3.0", "kind = planar\nq = 3.0\nfine_h = nan", "reference: fine_h"),
])
def test_malformed_case_number_exits_2_naming_key(tmp_path, capsys, old, new, named):
    assert old in GOOD_CASE
    rc = main(["solve", write_case(tmp_path, GOOD_CASE.replace(old, new)), "--out", str(tmp_path)])
    assert rc == 2
    assert f"config error: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, named", [
    ("2 784 1458 108", "2 -1 1458 108", "line 1: n_nodes must be non-negative, got -1"),
    ("2 784 1458 108", "2 99999999999 1458 108", "unexpected end of file: expected node 2350"),
    ("\n0 0.037037037037037035\n", "\n0 nan\n", "line 3: node 1 has a non-finite coordinate"),
])
def test_malformed_mesh_file_exits_2_naming_line(tmp_path, capsys, old, new, named):
    mesh_text = resources.files("efem").joinpath("cases", "cylinder_h0375.msh").read_text()
    assert old in mesh_text
    (tmp_path / "cylinder_h0375.msh").write_text(mesh_text.replace(old, new, 1))
    rc = main(["solve", write_case(tmp_path, CYLINDER_CASE), "--out", str(tmp_path)])
    assert rc == 2
    assert f"config error: mesh: file 'cylinder_h0375.msh': {named}" in capsys.readouterr().err


def test_mesh_path_that_cannot_be_read_exits_2_naming_file(tmp_path, capsys):
    (tmp_path / "cylinder_h0375.msh").mkdir()
    rc = main(["solve", write_case(tmp_path, CYLINDER_CASE), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error: mesh: file 'cylinder_h0375.msh': cannot read" in capsys.readouterr().err


def test_mesh_file_that_is_not_utf8_exits_2_naming_line(tmp_path, capsys):
    mesh_bytes = resources.files("efem").joinpath("cases", "cylinder_h0375.msh").read_bytes()
    (tmp_path / "cylinder_h0375.msh").write_bytes(mesh_bytes.replace(b"\n0 28 29\n", b"\n0 28 \xff\n", 1))
    rc = main(["solve", write_case(tmp_path, CYLINDER_CASE), "--out", str(tmp_path)])
    assert rc == 2
    assert ("config error: mesh: file 'cylinder_h0375.msh': line 786: not UTF-8 text "
            "(invalid start byte)") in capsys.readouterr().err


@pytest.mark.parametrize("old, new, named", [
    ("\n0 28 29\n", "\n0 28 99999999999999999999\n", "line 786: bad node index in element 0"),
    ("\n0 0 bottom\n", "\n99999999999999999999 0 bottom\n",
     "boundary face 0 references element 99999999999999999999 out of range"),
])
def test_mesh_index_beyond_int64_exits_2(tmp_path, capsys, old, new, named):
    mesh_text = resources.files("efem").joinpath("cases", "cylinder_h0375.msh").read_text()
    assert old in mesh_text
    (tmp_path / "cylinder_h0375.msh").write_text(mesh_text.replace(old, new, 1))
    rc = main(["solve", write_case(tmp_path, CYLINDER_CASE), "--out", str(tmp_path)])
    assert rc == 2
    assert f"config error: mesh: file 'cylinder_h0375.msh': {named}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("solve", "--h", "0"),
    ("solve", "--h", "-1"),
    ("solve", "--h", "nan"),
    ("solve", "--tol", "nan"),
    ("solve", "--tol", "-1"),
    ("converge", "--h-list", "0.3,x"),
    ("converge", "--h-list", "0.3,0"),
])
def test_malformed_number_flag_exits_2_naming_flag(tmp_path, capsys, command, flag, value):
    rc = main([command, "planar_q3", flag, value, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith((f"config error: {flag} ", f"config error: {flag}:"))


def test_solve_writes_summary_and_artifacts(tmp_path, capsys):
    rc = main(["solve", "planar_q3", "--out", str(tmp_path)])
    assert rc == 0
    assert "iterations" in capsys.readouterr().out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == SUMMARY_KEYS
    assert summary["case"] == "planar_q3"
    assert summary["mode"] == "efem"
    assert summary["method"] == "bicgstab"
    assert summary["restart"] == "" and summary["jacobi_iterations"] == summary["iterations"]
    assert summary["converged"] is True
    assert summary["n_cut"] > 0
    assert summary["n_fallback"] == 0
    assert summary["nodal_unknowns"] == summary["n_nodes"]
    assert summary["wall_time_s"] > 0.0
    assert (tmp_path / "line_mid.csv").exists()
    assert (tmp_path / "planar_q3.vtk").exists()
    entry = summary["lines"]["line_mid"]
    assert entry["csv"] == "line_mid.csv"
    assert entry["l2_error"] < 1e-7


def test_interface_error_reported_per_mode(tmp_path):
    rc = main(["solve", "planar_q3", "--out", str(tmp_path / "full")])
    assert rc == 0
    full = json.loads((tmp_path / "full" / "summary.json").read_text())
    rc = main(["solve", "planar_q3", "--mode", "efem-nod",
               "--out", str(tmp_path / "nod")])
    assert rc == 0
    nod = json.loads((tmp_path / "nod" / "summary.json").read_text())
    assert full["interface_mismatch"] <= 1e-6
    assert 1e-3 < nod["interface_mismatch"] < 1.0


# sha256 of the CSV and VTK files of three bundled cases.  The sphere case
# covers the 3D children, crossed exterior faces and face normals; a change to
# any bit of them, or of the sampling or export, shows here.  Re-pinned when
# assembly moved to the fixed pattern: matrix entries now sum their element
# contributions in element order (no longer in the order of scipy's
# duplicate sort), and D and Denr take Nbar in closed form, so the last bits
# of the potential moved (by at most 7e-14 relative in these three cases).
# Re-pinned again when quad-diagonal ties (within 1e-12 relative) began to
# pick the A table: `inclined` and `sphere` each hold such ties, and their
# sampled potentials moved by at most 8e-16 and 1.0e-13 relative.
# Re-pinned again when measures and P1 gradients came in closed form from
# cofactors (no batched LAPACK det or inv) and the VTK virtual points were
# evaluated through mesh.grads (no solve per point): the sampled potentials
# moved by at most 2.0e-14 (planar_q3), 1.9e-15 (inclined) and 2.6e-13
# (sphere) relative, pointwise.
# Re-pinned again, VTK only, when the export took its values from the one
# reconstruction kernel (einsum sums instead of matmul): virtual-point phi
# moved by at most 1.1e-16 and cell E by at most 5.5e-16 of the largest |E|
# (planar_q3 and sphere); the CSV files did not move.
# Re-pinned again when D and Denr came in closed form from the nodal
# distances (no exterior-face pieces): the sampled potentials moved by at
# most 3.6e-14 and E by at most 3.8e-13 relative (sphere), the sampled
# points and sides did not move.
# Re-pinned again, planar_q3 and inclined only (eps1 = 3), when the entries
# away from the negative side and the interface came to read eps1 times the
# mesh's unit stiffness instead of a sum of eps1-weighted blocks: the
# sampled potentials moved by at most 3.9e-15 (planar_q3) and 7.9e-16
# (inclined) and E by at most 1.2e-14 and 4.9e-15 relative, the sampled
# points and sides did not move; in the VTK file, phi moved by at most
# 4.9e-15 of the largest |phi| and cell E by at most 1.9e-14 of the largest
# |E|.  sphere (eps1 = 1) did not move.
# cylinder was pinned at commit f8df55c.  It is the one bundled case whose
# solve reaches the AMG phase (24 Jacobi iterations, then one AMG
# iteration); its 784 unknowns are below COARSEST_SIZE, so that phase's
# V-cycle is the coarsest LU alone.  tests/test_solver.py pins longer AMG
# solves through a full hierarchy.
ARTIFACT_DIGESTS = {
    "planar_q3": {
        "line_mid.csv": "bb69f8bbc6d03ff1d4195388e2846ff5a9c536a1eaa7f43256cf951683e40478",
        "planar_q3.vtk": "73be7260b14d9ea674704a903fec7c97a034d8e0532eb6103c6d9208001922bc",
    },
    "inclined": {
        "line_x0.csv": "35a12914645f2a3ac83e83845f8a651dd4489f2c868337ba4c9955325f68256b",
        "line_y07.csv": "8fd18af811c561da68da7359c242cb6122085901abfdb8b0cc46aa34928bf9bc",
    },
    "sphere": {
        "line_poles.csv": "d6186fbf2189c55b48c2c7422c409d8bee88b21aa616ffd5ba30f99f49ec3b08",
        "sphere.vtk": "047dd9aa9bf808876ad8b1de02646b37db3eb44b4261000f860f07d555e5fab3",
    },
    "cylinder": {
        "cylinder.vtk": "5f06888f12565816912a9201f7eca469a9df309467028984d1819996bbde642d",
        "line_x025.csv": "d41efcf2b3ceaf247f7753700647cb38ca62b85432ed30312422d78d0a196ca6",
    },
}


@pytest.mark.parametrize("case", ["planar_q3", "inclined", "sphere", "cylinder"])
def test_repeat_runs_are_byte_identical(tmp_path, case):
    dirs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["solve", case, "--out", str(out)]) == 0
        dirs.append(out)
    a, b = dirs
    files = sorted(f.name for f in a.iterdir() if f.name != "summary.json")
    assert files == sorted(f.name for f in b.iterdir() if f.name != "summary.json")
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    digests = {name: hashlib.sha256((a / name).read_bytes()).hexdigest() for name in files}
    assert digests == ARTIFACT_DIGESTS[case]
    sa = json.loads((a / "summary.json").read_text())
    sb = json.loads((b / "summary.json").read_text())
    sa.pop("wall_time_s")
    sb.pop("wall_time_s")
    assert sa == sb
    assert math.isfinite(sa["interface_mismatch"])      # in 2D and 3D


@pytest.mark.parametrize("case", ["inclined", "sphere"])
def test_solve_clips_each_line_once_and_reports_its_l2_error(tmp_path, case):
    """The L2 error comes from the sample taken for the CSV, with the value
    l2_line_error gives."""
    from unittest import mock

    from efem import cli, postprocess

    clipped = []
    clip = postprocess._clip
    with mock.patch.object(postprocess, "_clip",
                           lambda *args: clipped.append(args[1]) or clip(*args)):
        assert main(["solve", case, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(clipped) == len(summary["lines"])

    text, name, base = cli._case_text(case)
    cfg = cli.parse_case(text, name)
    asm = next(cli._assemble(cfg, cli._load_mesh(cfg, base), [cfg.mode]))
    phi, _ = cli.solve(asm.matrix, asm.rhs, tol=cfg.tol)
    sol, reference = postprocess.build_solution(asm, phi), cli._reference_evaluator(cfg)
    for line, (start, end) in cfg.lines.items():
        want = postprocess.l2_line_error(sol, reference, start, end)
        assert summary["lines"][line]["l2_error"] == want


def test_modes_share_sampling_geometry(tmp_path):
    """Mode choice changes values, never where or how they are sampled."""
    samples = {}
    for mode in ("standard", "efem-nod", "efem"):
        out = tmp_path / mode
        assert main(["solve", "planar_q3", "--mode", mode,
                     "--out", str(out)]) == 0
        samples[mode] = read_csv_sample(out / "line_mid.csv")
    pts0, _, _, side0 = samples["efem"]
    for mode in ("standard", "efem-nod"):
        pts, _, _, side = samples[mode]
        assert np.array_equal(pts, pts0)
        assert np.array_equal(side, side0)
    assert not np.allclose(samples["standard"][1], samples["efem"][1], atol=1e-6)


def test_h_override_sets_resolution(tmp_path):
    rc = main(["solve", "planar_q3", "--h", "0.3", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_nodes"] == 16
    assert summary["n_elements"] == 18


def test_converge_two_modes(tmp_path, capsys):
    rc = main(["converge", "planar_q3", "--h-list", "0.3,0.15,0.075",
               "--modes", "efem,standard", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "order" in out
    doc = json.loads((tmp_path / "convergence.json").read_text())
    assert doc["case"] == "planar_q3"
    table = doc["lines"]["line_mid"]
    assert set(table) == {"efem", "standard"}
    # Enriched solves hit the solver-tolerance floor on this exactly
    # representable field; the standard scheme keeps a real mesh error.
    assert all(e < 1e-6 for e in table["efem"]["errors"])
    std = table["standard"]["errors"]
    assert std[0] > std[-1] > 1e-6
    assert np.isfinite(table["efem"]["order"])
    assert table["standard"]["order"] > 0.4


def test_converge_rejects_single_level(tmp_path, capsys):
    rc = main(["converge", "planar_q3", "--h-list", "0.2",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "level" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, cause", [
    ("--modes", "", "--modes names no mode"),
    ("--modes", "efem,efem", "mode 'efem' listed twice"),
    ("--h-list", "0.3,0.3", "h = 0.3 and h = 0.3 give the same mesh (n = 3)"),
    # 1/0.31 and 1/0.3 both round to n = 3
    ("--h-list", "0.15,0.31,0.3", "h = 0.31 and h = 0.3 give the same mesh (n = 3)"),
])
def test_converge_rejects_degenerate_sweeps(tmp_path, capsys, flag, value, cause):
    args = {"--h-list": "0.3,0.15", "--modes": "efem"} | {flag: value}
    rc = main(["converge", "planar_q3", "--h-list", args["--h-list"],
               "--modes", args["--modes"], "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: converge: {cause}\n"
    assert not (tmp_path / "convergence.json").exists()


def test_converge_needs_reference(tmp_path, capsys):
    no_ref = GOOD_CASE.split("[reference]")[0]
    rc = main(["converge", write_case(tmp_path, no_ref),
               "--h-list", "0.3,0.15", "--out", str(tmp_path)])
    assert rc == 2
    assert "reference" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "efem.cli", "solve", "planar_q1",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "summary.json").exists()


def test_planar_solve_never_imports_sparse_linalg(tmp_path):
    """Only a factorization (the coarsest AMG level, --direct) imports
    scipy.sparse.linalg; a planar solve stays on Jacobi and skips it.  Only
    point location imports scipy.spatial, and neither planar_q3 nor sphere
    locates a point."""
    code = ("import sys\n"
            "from efem.cli import main\n"
            f"assert main(['solve', 'planar_q3', '--out', {str(tmp_path / 'a')!r}]) == 0\n"
            "print('scipy.sparse.linalg' in sys.modules, 'scipy.spatial' in sys.modules)\n"
            f"assert main(['solve', 'sphere', '--out', {str(tmp_path / 'b')!r}]) == 0\n"
            "print('scipy.spatial' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1::2] == ["False False", "False"]
