"""efem benchmark: one seeded workload per run, end-to-end or traced.

Run from the root of an efem checkout (the directory holding ``src/efem``):

    python3 perfbench/run.py --workload cylinder2d --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload, each in its own process, one after
the other.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Every run also writes a record (seed, generated parameters, versions, each
case) to ``.bench_run/``.  See perfbench/README.md for the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
SETUPS = 3          # set-up repeats per run; setup_s is their median
WORKLOADS = ("cylinder2d", "sphere3d", "sweep2d")

END_TO_END_UNITS = {
    "setup_s": "s",
    "solution_s": "s",
    "case_s": "s",
    "peak_rss_mb": "MB",
}
# Printed by name but left out of the JSON result.  l2_error and
# interface_mismatch are not defined on every workload; fail_ratio is zero on
# a correct program.  total_s sums every case once, so one stalled BiCGSTAB
# solve (1 of about 400 seen on sweep2d) moves it by half; and it carries
# the set-up noise.
# The *_wall_s metrics are the timed metrics in wall seconds, before the
# speed probe's scaling; probe_s is the median probe time of the run.
REPORTED_UNITS = {"total_s": "s", "l2_error": "1", "interface_mismatch": "1",
                  "fail_ratio": "ratio", "setup_wall_s": "s", "solution_wall_s": "s",
                  "case_wall_s": "s", "probe_s": "s"}

PER_LAYER_UNITS = {
    "mesh.generate_structured_s": "s",
    "mesh.read_mesh_s": "s",
    "mesh.all_geometry_s": "s",
    "mesh.n_nodes": "count",
    "mesh.n_elements": "count",
    "interface.classify_elements_s": "s",
    "interface.split_simplex_s": "s",
    "interface.split_simplex_calls": "count",
    "interface.cut_exterior_faces_s": "s",
    "interface.n_cut": "count",
    "efem_core.assemble_global_s": "s",
    "efem_core.assemble_global_self_s": "s",
    "efem_core.element_matrices_s": "s",
    "efem_core.element_displacement_terms_s": "s",
    "efem_core.condense_s": "s",
    "efem_core.nnz": "count",
    "efem_core.fallbacks": "count",
    "efem_core.enriched_ratio": "ratio",
    "solver.solve_s": "s",
    "solver.iterations": "count",
    "solver.s_per_iteration": "s",
    "solver.restarts": "count",
    "solver.residual": "ratio",
    "postprocess.build_solution_s": "s",
    "postprocess.sample_line_s": "s",
    "postprocess.l2_line_error_s": "s",
    "postprocess.sample_points": "count",
    "postprocess.locate_calls": "count",
    "postprocess.barycentric_calls": "count",
    "postprocess.locate_per_sample": "ratio",
    "postprocess.interface_potential_mismatch_s": "s",
    "postprocess.export_csv_s": "s",
    "postprocess.export_vtk_s": "s",
    "postprocess.export_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float,
                    help="measure for this long; cases run in whole passes, at least one")
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (cylinder n=10, sphere n=6, sweep n=20)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "efem" / "__init__.py").is_file():
        print(f"error: no efem sources under {src}; run from the root of an efem checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import efem
    if Path(efem.__file__).resolve().parent != (src / "efem").resolve():
        print(f"error: imported efem from {efem.__file__}, not from {src}", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, root)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, one at a time; metrics keyed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        part = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        for key, val in part["metrics"].items():
            total["metrics"][f"{name}.{key}"] = val
    print(json.dumps(total))
    return 0


# ---------------------------------------------------------------------------
# one workload


def run(name, seed, seconds, traced, tiny, root: Path) -> dict | None:
    import workloads
    from speed import SpeedClock, WallClock
    from tracing import Tracer

    sizes = workloads.TINY if tiny else workloads.FULL
    rundir = root / ".bench_run"
    workdir = rundir / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make_workload(name, seed, sizes, workdir)
        tracer = Tracer() if traced else None
        print(f"efem benchmark: workload {name}, seed {seed}, {seconds:g} s, "
              f"trace {'on' if traced else 'off'}{', tiny sizes' if tiny else ''}")
        print("inputs: " + json.dumps(wl.params))

        # traced runs report raw layer times and skip the speed probe
        clock = WallClock() if traced else SpeedClock()
        setup_s, setup_wall_s = [], []
        mesh = None
        for k in range(SETUPS):
            mesh = None                 # free the previous mesh before building
            clock.reset()
            if tracer is None:
                with clock.stage():
                    mesh = wl.setup()
            else:
                with clock.stage(), tracer.case(f"setup-{k}"), tracer.span(wl.setup_layer):
                    mesh = wl.setup()
            setup_s.append(clock.scaled)
            setup_wall_s.append(clock.wall)
        print(f"mesh: {mesh.n_nodes} nodes, {mesh.n_elements} elements")

        records = []
        start = perf_counter()
        passes = 0
        while True:
            pass_start = perf_counter()
            for i, case in enumerate(wl.cases):
                if tracer is None:
                    records.append(_attempt(mesh, case, workdir, clock,
                                            repeats=case.solution_repeats))
                    _print_case(records[-1])
                    continue
                ref = _attempt(mesh, case, workdir, clock)
                case_id = f"{passes}-{i}"
                rec = _attempt(mesh, case, workdir, clock, tracer, case_id)
                if rec["completed"]:
                    rec["layers"] = tracer.case_layers(case_id)
                    rec["coverage"] = tracer.coverage(case_id)
                    if ref["completed"]:
                        rec["overhead_s"] = rec["case_s"] - ref["case_s"]
                records += [ref, rec]
                _print_case(rec)
            passes += 1
            # stop where the run ends nearest to --seconds: one more pass
            # only if less than half of it would fall past the end
            now = perf_counter()
            if now - start + 0.5 * (now - pass_start) > seconds:
                break
        done = [r for r in records if r["completed"]]
        failed = sum(1 for r in records if r["problems"])
        if not done:
            print("error: no case completed", file=sys.stderr)
            return None
        if tracer is None:
            # the first case ran before any check (spsolve's LU is the largest)
            metrics = _end_to_end(done, setup_s, done[0]["rss_mb"])
        else:
            traced_recs = [r for r in done if "layers" in r]
            metrics = _per_layer(traced_recs, tracer, mesh)
        reported = _reported([r for r in done if "layers" not in r], setup_s, setup_wall_s,
                             [float(v) for v in getattr(clock, "probes", [])],
                             failed, len(records))
        absent = sorted(k for k, v in metrics.items() if v is None)
        n_timed = len(done) if tracer is None else len(traced_recs)
        _print_metrics(metrics, reported, n_timed, passes, absent)

        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
                  "tiny": tiny, "params": wl.params, "env": _environment(root),
                  "mesh": {"n_nodes": mesh.n_nodes, "n_elements": mesh.n_elements},
                  "setup_s": setup_s, "setup_wall_s": setup_wall_s, "passes": passes,
                  "cases": [{k: v for k, v in r.items() if k != "layers"} for r in records],
                  "metrics": metrics, "reported": reported, "absent": absent}
        if tracer is not None:
            record["spans"] = tracer.dump()
        out = rundir / f"{name}-seed{seed}-trace{int(traced)}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"record: {out.relative_to(root)}")
        units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
        return {"correct": failed == 0, "attempted": len(records), "failed": failed,
                "metrics": {k: {"value": 0 if v is None else v, "unit": units[k]}
                            for k, v in metrics.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _attempt(mesh, case, workdir, clock, tracer=None, case_id=None, repeats=1) -> dict:
    """Run and check one case; a failure is recorded, never raised.

    With a tracer, its wrappers are installed for the case only, not for the
    checks that follow.
    """
    import workloads
    from tracing import NoTrace

    rec = {"label": case.label, "mode": case.mode, "completed": False, "problems": []}
    try:
        if tracer is None:
            out = workloads.run_case(mesh, case, workdir, NoTrace(), clock, repeats)
        else:
            tracer.install()
            try:
                with tracer.case(case_id):
                    out = workloads.run_case(mesh, case, workdir, tracer, clock)
            finally:
                tracer.uninstall()
    except Exception:
        rec["problems"].append("raised: " + traceback.format_exc(limit=3).strip())
        return rec
    asm, report = out.assembled, out.report
    rec.update(
        completed=True, solution_s=out.solution_s, solution_wall_s=out.solution_wall_s,
        case_s=out.case_s, case_wall_s=out.case_wall_s,
        iterations=report.iterations, residual=report.residual,
        converged=report.converged, restarted=getattr(report, "restarted", None),
        n_cut=int(asm.classification.is_cut.sum()), nnz=int(asm.matrix.nnz),
        fallbacks=len(asm.fallback_elements), enriched=len(asm.cut_data),
        l2_error=out.l2_error, interface_mismatch=out.interface_mismatch,
        sample_points=None if out.sample is None else int(out.sample.t.size),
        export_bytes=sum(p.stat().st_size for p in out.files if p.is_file()) or None,
        # peak memory so far, read before the checks add their own
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    try:
        rec["problems"] += workloads.check_case(case, out)
    except Exception:
        rec["problems"].append("check raised: " + traceback.format_exc(limit=3).strip())
    for path in out.files:
        path.unlink(missing_ok=True)
    return rec


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _end_to_end(done, setup_s, peak_rss_mb) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "solution_s": _median(s for r in done for s in r["solution_s"]),
        "case_s": _median(r["case_s"] for r in done),
        "peak_rss_mb": peak_rss_mb,
    }


def _reported(untraced, setup_s, setup_wall_s, probes, failed, attempted) -> dict:
    by_label: dict[str, list[float]] = {}
    for r in untraced:
        by_label.setdefault(r["label"], []).append(r["case_s"])
    return {
        # set-up plus one pass over the workload's cases, each at its median
        "total_s": statistics.median(setup_s) + sum(statistics.median(v)
                                                     for v in by_label.values()),
        "l2_error": _median(r["l2_error"] for r in untraced),
        "interface_mismatch": _median(r["interface_mismatch"] for r in untraced),
        "fail_ratio": failed / attempted,
        "setup_wall_s": statistics.median(setup_wall_s),
        "solution_wall_s": _median(s for r in untraced for s in r["solution_wall_s"]),
        "case_wall_s": _median(r["case_wall_s"] for r in untraced),
        "probe_s": _median(probes),
    }


def _per_layer(recs, tracer, mesh) -> dict:
    def layer(name, key="s"):
        return _median(r["layers"].get(name, {}).get(key) for r in recs)

    def setup_span(name):
        return _median(s["end"] - s["start"] for s in tracer.spans if s["name"] == name)

    def under_sample_line(r):
        calls = r["layers"].get("postprocess.locate", {}).get("by_top", {})
        n = calls.get("postprocess.sample_line")
        return n / r["sample_points"] if n and r["sample_points"] else None

    def per_iteration(r):
        solve = r["layers"].get("solver.solve")
        return solve["s"] / r["iterations"] if solve and r["iterations"] else None

    enriched = [r for r in recs if r["mode"] != "standard"]
    m = {
        "mesh.generate_structured_s": setup_span("mesh.generate_structured"),
        "mesh.read_mesh_s": setup_span("mesh.read_mesh"),
        "mesh.all_geometry_s": layer("mesh.all_geometry"),
        "mesh.n_nodes": mesh.n_nodes,
        "mesh.n_elements": mesh.n_elements,
        "interface.classify_elements_s": layer("interface.classify_elements"),
        "interface.split_simplex_s": layer("interface.split_simplex"),
        "interface.split_simplex_calls": layer("interface.split_simplex", "calls"),
        "interface.cut_exterior_faces_s": layer("interface.cut_exterior_faces"),
        "interface.n_cut": _median(r["n_cut"] for r in recs),
        "efem_core.assemble_global_s": layer("efem_core.assemble_global"),
        "efem_core.assemble_global_self_s": layer("efem_core.assemble_global", "self_s"),
        "efem_core.element_matrices_s": layer("efem_core.element_matrices"),
        "efem_core.element_displacement_terms_s": layer("efem_core.element_displacement_terms"),
        "efem_core.condense_s": layer("efem_core.condense"),
        "efem_core.nnz": _median(r["nnz"] for r in recs),
        # standard mode lists every cut element as a fallback (it builds no
        # enrichment), so only the enriched modes count here
        "efem_core.fallbacks": _median(r["fallbacks"] for r in enriched),
        "efem_core.enriched_ratio": _median(r["enriched"] / r["n_cut"]
                                            for r in enriched if r["n_cut"]),
        "solver.solve_s": layer("solver.solve"),
        "solver.iterations": _median(r["iterations"] for r in recs),
        "solver.s_per_iteration": _median(per_iteration(r) for r in recs),
        "solver.restarts": _median(None if r["restarted"] is None else int(r["restarted"])
                                   for r in recs),
        "solver.residual": _median(r["residual"] for r in recs),
        "postprocess.build_solution_s": layer("postprocess.build_solution"),
        "postprocess.sample_line_s": layer("postprocess.sample_line"),
        "postprocess.l2_line_error_s": layer("postprocess.l2_line_error"),
        "postprocess.sample_points": _median(r["sample_points"] for r in recs),
        "postprocess.locate_calls": layer("postprocess.locate", "calls"),
        "postprocess.barycentric_calls": layer("postprocess.barycentric", "calls"),
        "postprocess.locate_per_sample": _median(under_sample_line(r) for r in recs),
        "postprocess.interface_potential_mismatch_s":
            layer("postprocess.interface_potential_mismatch"),
        "postprocess.export_csv_s": layer("postprocess.export_csv"),
        "postprocess.export_vtk_s": layer("postprocess.export_vtk"),
        "postprocess.export_bytes": _median(r["export_bytes"] for r in recs),
        "trace.overhead_s": _median(r.get("overhead_s") for r in recs),
        "trace.coverage": min(r["coverage"] for r in recs) if recs else None,
    }
    return m


# ---------------------------------------------------------------------------
# output


def _print_case(r):
    if not r["completed"]:
        print(f"case {r['label']}: FAILED {r['problems'][0]}")
        return
    extra = "".join(f" {k} {r[k]!r}" for k in ("l2_error", "interface_mismatch")
                    if r[k] is not None)
    verdict = "ok" if not r["problems"] else "FAILED " + "; ".join(r["problems"])
    print(f"case {r['label']}: solution_s {statistics.median(r['solution_s']):.4f} "
          f"case_s {r['case_s']:.4f} case_wall_s {r['case_wall_s']:.4f} "
          f"iterations {r['iterations']} n_cut {r['n_cut']}{extra} {verdict}")


def _print_metrics(metrics, reported, n_cases, passes, absent):
    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS, **REPORTED_UNITS}
    print(f"metrics (median of {n_cases} cases in {passes} passes):")
    for key, val in list(metrics.items()) + list(reported.items()):
        shown = "absent" if val is None else repr(val)
        print(f"  {key:44s} {shown} {units[key]}")
    if absent:
        print("absent (reported as 0): " + ", ".join(absent))


def _environment(root: Path) -> dict:
    import numpy as np
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": affinity, "cpu_count": os.cpu_count(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "platform": platform.platform(), "git_commit": _git_commit(root)}


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
