"""Benchmark for arclab: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload q81-recover --seed 0 --seconds 40 --trace 0

Runs from the root of a source checkout and imports arclab from ``src``.
It builds the seeded inputs, then repeats passes over the workload's jobs,
one job after another in this single process, until the next pass would
overrun ``--seconds`` (at least one pass).  Each pass first sets up: it
parses and validates a fresh arc for every job, with a fresh FieldCtx and
its vector tables.  Every answer is checked after its pass.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the first half of the time runs untraced passes and the second half traced
ones, which give the per-layer metrics and the tracing overhead, and the
spans are written to ``perfbench/out/``.  Every metric is printed as a
line ``name value unit``; the last line is one JSON object with the
metrics named in BENCHMARK.json.  The exit code is 0 only when every
answer was right.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ARCS = ROOT / "arcs"
OUT = HERE / "out"

IMPORT_REPEATS = 7
CORE_LAYERS = ("gf", "vecops", "exactmat", "arcgeom", "tangentfns", "certifier")
ALL_LAYERS = (*CORE_LAYERS, "hypersurf", "cli")


@dataclass
class Record:
    job: object
    seconds: float
    failed: bool
    nodes: int          # complete_search nodes of a search job, else 0


@dataclass
class Pass:
    setup: float
    wall: float
    records: list
    setup_tally: object = None
    job_tally: object = None


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def import_seconds() -> float:
    """Median time to import arclab in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import arclab; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_pass(cli, workloads, wl, texts, check, number, tracer=None) -> Pass:
    t0 = perf_counter()
    arcs = []
    for job in wl.jobs:
        arc = None
        if job.input is not None:
            arc = cli.parse_arc_file(texts[job.input])
            arc.ctx.vec_ops()
        arcs.append(arc)
    setup = perf_counter() - t0
    setup_tally = tracer.snapshot() if tracer else None

    outcomes = []
    w0 = perf_counter()
    for i, (job, arc) in enumerate(zip(wl.jobs, arcs)):
        s = perf_counter()
        try:
            if tracer:
                report = tracer.job(f"{number}:{i}", workloads.run_job, cli, job, arc)
            else:
                report = workloads.run_job(cli, job, arc)
            error = None
        except Exception:  # a failed job is counted, the run goes on
            report, error = None, traceback.format_exc()
        outcomes.append((job, arc, report, perf_counter() - s, error))
    wall = perf_counter() - w0
    job_tally = tracer.snapshot() if tracer else None

    # checked here, untimed, so no report outlives its pass
    records = []
    for job, arc, report, seconds, error in outcomes:
        problems = [error.strip()] if error else check(job, arc, report)
        for msg in problems:
            print(f"FAILED {job.name}: {msg}", file=sys.stderr)
        nodes = report["nodes"] if report and job.command == "search" else 0
        records.append(Record(job, seconds, bool(problems), nodes))
    return Pass(setup, wall, records, setup_tally, job_tally)


def run_until(passes, deadline, start, make_pass):
    """Append passes while the next one is expected to end by the deadline."""
    while True:
        passes.append(make_pass(len(passes)))
        est = statistics.median(p.setup + p.wall for p in passes)
        if perf_counter() - start + est > deadline:
            return


def search_rate(passes):
    records = [r for p in passes for r in p.records if r.job.command == "search"]
    secs = sum(r.seconds for r in records)
    return sum(r.nodes for r in records) / secs if secs else 0.0


def end_to_end(passes, import_s):
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "job_p50_s": (statistics.median(r.seconds for p in passes for r in p.records), "s"),
        "setup_s": (import_s + statistics.median(p.setup for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced, traced):
    def med_time(name, tally="job_tally"):
        return statistics.median(getattr(p, tally).total.get(name, 0.0) for p in traced)

    def med_self(layer):
        return statistics.median(p.job_tally.self_by_layer.get(layer, 0.0) for p in traced)

    first = traced[0].job_tally  # counts repeat exactly from pass to pass
    calls, counts = first.calls, first.counts
    recovered = counts.get("certifier.recover_attempts", 0)
    ln_durations = [d for p in traced for d in p.job_tally.durations.get("exactmat.left_null_basis", [])]
    ctx_build = statistics.median(
        sum(getattr(p, t).total.get(n, 0.0) for t in ("setup_tally", "job_tally")
            for n in ("gf.FieldCtx.__init__", "vecops.VecOps.__init__"))
        for p in traced
    )
    wall_traced = statistics.median(p.wall for p in traced)
    m = {
        "trace.wall_s": (wall_traced, "s"),
        "trace.overhead_s": (wall_traced - statistics.median(p.wall for p in untraced), "s"),
        "trace.core_self_s": (sum(med_self(layer) for layer in CORE_LAYERS), "s"),
    }
    for layer in ALL_LAYERS:
        m[f"{layer}.self_s"] = (med_self(layer), "s")
    m.update({
        "gf.ctx_build_s": (ctx_build, "s"),
        "gf.add_calls": (calls.get("gf.FieldCtx.add", 0), "count"),
        "gf.mul_calls": (calls.get("gf.FieldCtx.mul", 0), "count"),
        "vecops.add_s": (med_time("vecops.VecOps.add"), "s"),
        "vecops.add_calls": (calls.get("vecops.VecOps.add", 0), "count"),
        "vecops.add_elems": (counts.get("vecops.add_elems", 0), "count"),
        "exactmat.left_null_s": (med_time("exactmat.left_null_basis"), "s"),
        "exactmat.left_null_calls": (counts.get("exactmat.left_null_computed", 0), "count"),
        "exactmat.left_null_call_p50_s": (statistics.median(ln_durations) if ln_durations else 0.0, "s"),
        "exactmat.cells_eliminated": (counts.get("exactmat.cells_eliminated", 0), "count"),
        "certifier.build_Mn_s": (med_time("certifier.build_Mn"), "s"),
        "certifier.matrix_cells": (counts.get("certifier.matrix_cells", 0), "count"),
        "certifier.matrices_built": (counts.get("certifier.matrices_built", 0), "count"),
        "certifier.property_w_s": (med_time("certifier.property_w"), "s"),
        "certifier.recover_s": (med_time("certifier.recover_cosecants"), "s"),
        "certifier.pencil_forms_tested": (counts.get("certifier.pencil_forms_tested", 0), "count"),
        "certifier.split_ratio": (counts.get("certifier.split_ok", 0) / recovered if recovered else 0.0, "ratio"),
        "certifier.recover_attempts": (recovered, "count"),
        "certifier.bound_scan_s": (med_time("certifier.bound_scan"), "s"),
        "tangentfns.interpolate_s": (med_time("tangentfns.interpolate_fA"), "s"),
        "tangentfns.alpha_table_s": (med_time("tangentfns.alpha_table") + med_time("tangentfns.AlphaTable.alpha"), "s"),
        "arcgeom.search_s": (med_time("arcgeom.complete_search"), "s"),
        "arcgeom.search_nodes": (counts.get("arcgeom.search_nodes", 0), "count"),
        "arcgeom.extensions_s": (med_time("arcgeom.extensions_of"), "s"),
        "arcgeom.det_full_calls": (calls.get("arcgeom.det_full", 0), "count"),
        "hypersurf.build_surface_s": (med_time("hypersurf.build_surface"), "s"),
        "hypersurf.theorem9_s": (med_time("hypersurf.theorem9_check"), "s"),
        "cli.parse_s": (med_time("cli.parse_arc_file", "setup_tally"), "s"),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json",
                    help="pinned answers (a deliberately wrong copy tests the checker)")
    args = ap.parse_args(argv)

    if not (SRC / "arclab" / "__init__.py").is_file() or not ARCS.is_dir():
        return _fail(f"no arclab sources under {ROOT}")
    # the result line carries exactly the metrics BENCHMARK.json lists
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    sys.path[:0] = [str(SRC), str(HERE)]
    import arclab
    from arclab import cli

    if Path(arclab.__file__).resolve().parent != SRC / "arclab":
        return _fail(f"imported arclab from {arclab.__file__}, not from {SRC}")
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    refs = json.loads(args.reference.read_text(encoding="utf-8")).get(args.workload, {})

    texts = {name: make(ARCS, args.seed) for name, make in wl.inputs.items()}
    import_s = import_seconds()

    def check(job, arc, report):
        return workloads.check(job, arc, report, refs.get(job.name, {}), args.seed)

    OUT.mkdir(exist_ok=True)
    start = perf_counter()
    untraced, traced = [], []
    budget = args.seconds / 2 if args.trace else args.seconds
    run_until(untraced, budget, start, lambda i: run_pass(cli, workloads, wl, texts, check, i))
    if args.trace:
        tracer = Tracer().install()
        try:
            run_until(traced, args.seconds, start,
                      lambda i: run_pass(cli, workloads, wl, texts, check, i, tracer))
        finally:
            tracer.uninstall()
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    samples = {kind: [{"setup_s": p.setup, "wall_s": p.wall, "jobs_s": [r.seconds for r in p.records]}
                      for p in passes] for kind, passes in (("untraced", untraced), ("traced", traced))}
    (OUT / f"samples-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"import_s": import_s, "jobs": [j.name for j in wl.jobs], **samples}, indent=1))

    records = [r for p in untraced + traced for r in p.records]
    attempted, failed = len(records), sum(r.failed for r in records)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced, import_s)
    info = {
        "passes": (len(untraced) + len(traced), "count"),
        "jobs": (attempted, "count"),
        "failed_frac": (failed / attempted, "ratio"),
        "search_nodes_per_s": (search_rate(untraced), "1/s"),
    }
    for name, (value, unit) in {**info, **metrics}.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in listed},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
