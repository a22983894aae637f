"""Smoke test of the benchmark's trace mode (``perfbench --trace 1``).

``perfbench/tracer.py`` wraps library functions and methods from outside,
by name, and reads library attributes (``GFMatrix._null``, the ``ctx`` of
the M_n that ``recover_cosecants`` takes, the ``matrix`` of the M_n that
``build_Mn`` returns, the ``nodes`` of a search result).  A library change
that breaks any of these breaks the per-layer benchmark, so this test
loads the tracer read-only, runs five CLI jobs through it and requires
the same reports as untraced runs, the counts its hooks compute, and a
clean uninstall.
"""

import importlib.util
import sys
from pathlib import Path

from arclab import arcgeom, certifier, cli, exactmat
from arclab._vecops import VecOps
from arclab.gf import FieldCtx
from arclab.tangentfns import AlphaTable

from conftest import ARCS_DIR

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

JOBS = [
    ("property-w q13_size6 --n 2", "cmd_cosecants", "q13_size6", (2,)),
    ("hypersurface conic_f5", "cmd_hypersurface", "conic_f5", ()),
    ("analyze q13_size6 --n 1", "cmd_analyze", "q13_size6", (1,)),
    ("bound q11_size7", "cmd_bound", "q11_size7", ()),
    ("search q13_size6 --target 14", "cmd_search", "q13_size6", (14,)),
]


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod


def run_jobs(run):
    """Each job's report, timings removed, with run(request, fn, *args)
    calling the command."""
    reports = {}
    for name, command, arc_name, args in JOBS:
        arc = cli.parse_arc_file((ARCS_DIR / f"{arc_name}.arc").read_text())
        report = run(name, getattr(cli, command), arc, *args)
        reports[name] = {k: v for k, v in report.items() if k != "timings"}
    return reports


def patched_objects():
    return [
        cli.cmd_cosecants, certifier.recover_cosecants, certifier.left_null_basis,
        exactmat.left_null_basis, arcgeom.complete_search, cli.complete_search,
        vars(FieldCtx)["add"], vars(FieldCtx)["mul"], vars(VecOps)["__init__"],
        vars(VecOps)["add"], vars(AlphaTable)["alpha"],
    ]


def test_trace_mode_matches_untraced_runs(monkeypatch):
    untraced = run_jobs(lambda request, fn, *args: fn(*args))
    before = patched_objects()
    tracer = load_tracer(monkeypatch).Tracer().install()
    try:
        assert all(now is not then for now, then in zip(patched_objects(), before))
        traced = run_jobs(tracer.job)
    finally:
        tracer.uninstall()
    assert all(now is then for now, then in zip(patched_objects(), before))
    assert traced == untraced

    tally = tracer.snapshot()
    assert [span[0] for span in tracer.spans if span[3] is None].count("bench.job") == len(JOBS)
    for name in (
        "certifier.build_Mn",
        "certifier.bound_scan",
        "certifier.recover_cosecants",
        "arcgeom.complete_search",
        "exactmat.left_null_basis",
        "hypersurf.build_surface",
        "tangentfns.AlphaTable.alpha",
        "gf.FieldCtx.add",
        "gf.FieldCtx.mul",
        "vecops.VecOps.__init__",
        "vecops.VecOps.add",
    ):
        assert tally.calls.get(name, 0) > 0, name
    # the hooks: left_null_basis computed once per matrix (q13_size6 at
    # n = 2 and n = 1, q11_size7 at n = 0, 1 and 2), recovery over the six
    # points of q13_size6, and the search's nodes as its report gives them
    assert tally.counts["certifier.matrices_built"] == 5
    assert tally.counts["exactmat.left_null_computed"] == 5
    assert tally.counts["certifier.recover_attempts"] == 6
    assert tally.counts["certifier.split_ok"] == 6
    assert tally.counts["certifier.pencil_forms_tested"] == 6 * 14
    assert tally.counts["vecops.add_elems"] > 0
    assert tally.counts["arcgeom.search_nodes"] == traced["search q13_size6 --target 14"]["nodes"] == 1408
