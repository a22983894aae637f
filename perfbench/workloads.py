"""The three workloads, their jobs, and the checks on every answer.

A job is one CLI invocation: it gets an arc freshly parsed from text (a
new FieldCtx, ArcConfig and, inside the command, new matrices) and calls
one ``arclab.cli.cmd_*`` function.  Its answer is reduced to the facts
below and checked against pinned reference facts, against an oracle, or
both; at seed 0 the digest of the whole report (timings removed) is
checked too.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from math import comb

import inputs


@dataclass(frozen=True)
class Job:
    command: str                 # analyze | bound | property-w | hypersurface | search | conjecture-scan
    input: str | None            # name of the arc input, None for conjecture-scan
    args: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        opts = " ".join(f"--{k} {v}" for k, v in self.args.items())
        return " ".join(x for x in (self.command, self.input, opts) if x)


@dataclass(frozen=True)
class Workload:
    inputs: dict                 # input name -> (arcs_dir, seed) -> arc-file text
    jobs: tuple


def _shipped(stem):
    return lambda arcs_dir, seed: inputs.transformed_arc(inputs.shipped(arcs_dir, stem), seed, stem)


def _curve(p, h, k, size):
    name = f"nrc_q{p ** h}_k{k}_g{size}"
    return name, (lambda arcs_dir, seed: inputs.curve_subset(p, h, k, size, seed, name))


DESK_FIELDS = ((13, 1), (5, 2), (3, 3), (7, 2), (2, 3), (2, 4))
DESK_CURVES = dict(_curve(p, h, k, size) for p, h in DESK_FIELDS for k, size in ((3, 7), (4, 8)))
CONIC = dict([_curve(17, 1, 3, 7)])

WORKLOADS = {
    "q81-recover": Workload(
        {"q81_size11": _shipped("q81_size11")},
        (Job("property-w", "q81_size11", {"n": 1}), Job("analyze", "q81_size11", {"n": 1})),
    ),
    "prime-search": Workload(
        {"q13_size6": _shipped("q13_size6"), "q11_size7": _shipped("q11_size7"), **CONIC},
        (
            Job("search", "q13_size6"),
            Job("search", "q13_size6", {"target": 14}),
            *(Job("search", name) for name in CONIC),
            Job("search", "q11_size7", {"target": 11}),
            Job("conjecture-scan", None, {"p": 7, "k": 4, "n": 1}),
        ),
    ),
    "desk-scan": Workload(
        {
            **DESK_CURVES,
            **{s: _shipped(s) for s in ("q11_size7", "q13_size9", "hyperconic_f8", "q13_size6", "conic_f5")},
        },
        (
            *(Job("bound", name) for name in DESK_CURVES),
            Job("bound", "q11_size7"),
            Job("bound", "q13_size9"),
            Job("bound", "hyperconic_f8"),
            Job("property-w", "q13_size6", {"n": 2}),
            Job("property-w", "q13_size9", {"n": 3}),
            Job("hypersurface", "conic_f5"),
            Job("hypersurface", "hyperconic_f8"),
        ),
    ),
}


def run_job(cli, job: Job, arc):
    """Call the CLI command of the job; ``cli`` may carry traced wrappers."""
    a = job.args
    if job.command == "analyze":
        return cli.cmd_analyze(arc, a["n"])
    if job.command == "bound":
        return cli.cmd_bound(arc)
    if job.command == "property-w":
        return cli.cmd_cosecants(arc, a["n"])
    if job.command == "hypersurface":
        return cli.cmd_hypersurface(arc)
    if job.command == "search":
        return cli.cmd_search(arc, target=a.get("target"))
    if job.command == "conjecture-scan":
        return cli.cmd_conjecture(a["p"], 1, a["k"], a["n"])
    raise ValueError(f"unknown command {job.command!r}")


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

_FACT_KEYS = {
    "analyze": ("shape", "rank", "nullity", "weight_one", "weight_one_row", "forbidden_size", "verdict"),
    "bound": ("n0", "forbidden_size", "largest_arc_bound", "certificate_row", "even_q_nullity_law", "verdict"),
    "property-w": ("t", "property_w", "corollary2_route", "missing", "route", "all_split", "verdict"),
    "hypersurface": ("parity", "t", "degree", "E", "theorem9_all", "theorem9_failures",
                     "cosecant_zero_failures", "verdict"),
    "search": ("nodes", "complete_sizes", "found", "verdict"),
    "conjecture-scan": ("mode", "total", "certified", "counterexamples", "verdict"),
}


def facts(command: str, report: dict) -> dict:
    """The parts of a report that GL(k,q) images and rescaling leave unchanged."""
    out = {k: report.get(k) for k in _FACT_KEYS[command]}
    if command == "bound":
        out["scan"] = [[row["n"], row["rank"], row["rows"], row["nullity"]] for row in report["scan"]]
    if command == "property-w" and "predictions" in report:
        ok = sum(p["status"] == "ok" for p in report["predictions"])
        out["split"] = f"{ok}/{len(report['predictions'])}"
    return out


def digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "timings"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def oracle(job: Job, arc, report: dict) -> list:
    """Answer checks that need no pinned value; returns the problems found."""
    problems = []
    if not (job.input or "").startswith("nrc_"):
        return problems
    q, g, k = arc.ctx.q, arc.size, arc.k
    if job.command == "bound":
        if q % 2:
            # the subset extends to the whole curve, q+1 points
            if report["n0"] is None:
                problems.append("odd q: no certificate")
            elif report["largest_arc_bound"] < q + 1:
                problems.append(f"bound {report['largest_arc_bound']} < q+1 = {q + 1}")
        else:
            if report["n0"] is not None:
                problems.append("even q: the scan certified")
            law = [row["nullity"] == comb(g - row["n"] - 1, k - 1) for row in report["scan"]]
            if len(law) != g - k + 1 or not all(law):
                problems.append("even q: nullity law broken")
    if job.command == "search":
        sizes = report["complete_sizes"]
        if max(sizes) != q + 1 or not all(s <= q + 1 for s in sizes):
            problems.append(f"largest complete arc {max(sizes)} != q+1 = {q + 1}")
    return problems


def check(job: Job, arc, report: dict, ref: dict, seed: int) -> list:
    """Every problem with one answer: pinned facts, seed-0 digest, oracle."""
    problems = oracle(job, arc, report)
    want = ref.get("facts")
    if want is not None:
        got = facts(job.command, report)
        for key in sorted(set(want) | set(got)):
            if got.get(key) != want.get(key):
                problems.append(f"{key}: got {got.get(key)!r}, want {want.get(key)!r}")
    if seed == 0 and "digest" in ref and digest(report) != ref["digest"]:
        problems.append("seed-0 report digest changed")
    if want is None and not (job.input or "").startswith("nrc_"):
        problems.append("no reference for this job")
    return problems
