"""Command-line front end.

Arc files are line-oriented text: a ``field p h [c_h .. c_0]`` header
(modulus coefficients optional when a built-in default exists), a
``k <dim>`` line, then one vector per line with elements in the field
text syntax ("0", "t^e", bare integers over prime fields).  ``#`` starts
a comment.  Line order defines the arc ordering.

Every command emits a single report, as an aligned text listing or as a
JSON document (--emit structured) with a stable schema; reruns on the
same input are identical except for the timing field.  Exit code 0 means
the analysis completed (even with a negative verdict), 2 an input or
usage error, 3 a budget exhaustion (search nodes, random orders, or a
table past its fixed cap, M_n's included), 4 an internal fault (an
identity that holds for every arc failed; one ``internal error:`` line
on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import comb

from . import certifier as ct
from . import hypersurf as hs
from .arcgeom import ArcConfig, ArcInputError, BudgetExceededError, InvariantError, complete_search, subset_iter
from .gf import FieldCtx, FieldError, _digits, _field_order, conway_polynomial
from .tangentfns import tangent_fn

__all__ = [
    "SCHEMA_VERSION",
    "ArcFileError",
    "parse_arc_file",
    "format_arc_file",
    "render_text",
    "cmd_analyze",
    "cmd_bound",
    "cmd_cosecants",
    "cmd_hypersurface",
    "cmd_search",
    "cmd_conjecture",
    "main",
]

SCHEMA_VERSION = 1


class ArcFileError(ValueError):
    pass


# ----------------------------------------------------------------------
# arc files
# ----------------------------------------------------------------------


def parse_arc_file(text: str, modulus=None) -> ArcConfig:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if len(lines) < 2:
        raise ArcFileError("file needs a field line, a k line and vectors")
    head = lines[0].split()
    if head[0] != "field" or len(head) < 3 or not all(map(_digits, head[1:])):
        raise ArcFileError(f"bad field line: {lines[0]!r}")
    p, h = int(head[1]), int(head[2])
    file_modulus = tuple(int(c) for c in head[3:]) or None
    kline = lines[1].split()
    if kline[0] != "k" or len(kline) != 2 or not _digits(kline[1]):
        raise ArcFileError(f"bad k line: {lines[1]!r}")
    k = int(kline[1])
    try:
        ctx = FieldCtx(p, h, modulus if modulus is not None else file_modulus)
    except FieldError as exc:
        raise ArcFileError(str(exc)) from exc
    points = []
    for line in lines[2:]:
        elems = line.split()
        if len(elems) != k:
            raise ArcFileError(f"vector {line!r} does not have {k} coordinates")
        try:
            points.append(tuple(ctx.parse(e) for e in elems))
        except FieldError as exc:
            raise ArcFileError(f"{line!r}: {exc}") from exc
    try:
        return ArcConfig(ctx, k, points)
    except ArcInputError as exc:
        raise ArcFileError(str(exc)) from exc


def format_arc_file(arc: ArcConfig) -> str:
    ctx = arc.ctx
    head = f"field {ctx.p} {ctx.h}"
    if ctx.h > 1:
        head += " " + " ".join(str(c) for c in ctx.modulus)
    out = [head, f"k {arc.k}"] + [_fmt_point(ctx, pt) for pt in arc.points]
    return "\n".join(out) + "\n"


def _fmt_point(ctx, pt):
    return " ".join(ctx.format(x) for x in pt)


def _fmt_subset(ids):
    return "{" + ",".join(str(i) for i in ids) + "}"


def _arc_echo(arc: ArcConfig):
    ctx = arc.ctx
    return {
        "field": {"p": ctx.p, "h": ctx.h, "q": ctx.q, "modulus": list(ctx.modulus)},
        "k": arc.k,
        "size": arc.size,
        "points": [_fmt_point(ctx, pt) for pt in arc.points],
    }


def _report(command, t0, arc=None, **body):
    """The report of a command started at perf_counter() time t0."""
    rep = {"schema_version": SCHEMA_VERSION, "command": command}
    if arc is not None:
        rep["arc"] = _arc_echo(arc)
    rep.update(body)
    rep["timings"] = {"seconds": round(time.perf_counter() - t0, 6)}
    return rep


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_analyze(arc: ArcConfig, n: int) -> dict:
    t0 = time.perf_counter()
    M = ct.build_Mn(arc, n)
    null = ct.null_basis(M)
    cert = ct.theorem1_test(M)
    body = {
        "n": n,
        "shape": [len(M.rows), comb(arc.size, n) * comb(arc.size - n, arc.k - 2)],
        "rank": len(M.rows) - null.nullity,
        "full_row_rank": len(M.rows),
        "nullity": null.nullity,
        "weight_one": cert is not None,
        "weight_one_row": _fmt_subset(cert.row) if cert else None,
        "forbidden_size": cert.forbidden_size if cert else None,
        "verdict": (
            f"cannot extend to an arc of size {cert.forbidden_size}"
            if cert
            else "no weight-one certificate at this n"
        ),
    }
    return _report("analyze", t0, arc, **body)


def cmd_bound(arc: ArcConfig) -> dict:
    t0 = time.perf_counter()
    scan = ct.bound_scan(arc)
    audit = [{"n": n, "rank": r, "rows": rows, "nullity": nullity} for n, r, rows, nullity in scan.trace]
    if scan.n0 is None:
        for row in audit:
            row["even_q_nullity"] = comb(arc.size - row["n"] - 1, arc.k - 1)
        body = {
            "n0": None,
            "verdict": "no certificate at any n (even q)",
            "scan": audit,
            "even_q_nullity_law": all(row["nullity"] == row["even_q_nullity"] for row in audit),
        }
    else:
        body = {
            "n0": scan.n0,
            "forbidden_size": scan.forbidden_size,
            "largest_arc_bound": scan.max_size_bound,
            "certificate_row": _fmt_subset(scan.certificate.row),
            "scan": audit,
            "verdict": f"largest arc containing the input has size <= {scan.max_size_bound}",
        }
    return _report("bound", t0, arc, **body)


def cmd_cosecants(arc: ArcConfig, n: int) -> dict:
    t0 = time.perf_counter()
    ctx = arc.ctx
    M = ct.build_Mn(arc, n)
    nullity_one = ct.corollary2_route(M)
    report = ct.property_w(M)
    t = M.t
    body = {
        "n": n,
        "t": t,
        "property_w": report.holds,
        "corollary2_route": nullity_one,
        "missing": [_fmt_subset(A) for A in report.missing],
        "theorem4_hypersurface_licensed": 2 * n >= arc.size - arc.k - 1,
    }
    # a weight-one vector zeroes null-basis columns, which fix no ratio
    cert = ct.theorem1_test(M) if report.holds and t >= 1 else None
    if cert is not None:
        body["verdict"] = (
            f"weight-one vector at row {_fmt_subset(cert.row)}: the arc cannot extend "
            f"to size {cert.forbidden_size}, and its ratios are not determined"
        )
    elif report.holds and t >= 1:
        pred = ct.recover_cosecants(M)
        body["route"] = pred.route
        body["all_split"] = pred.all_split
        per = []
        for A in subset_iter(arc.size, arc.k - 2):
            item = pred.per_A[A]
            per.append(
                {
                    "A": _fmt_subset(A),
                    "pivot": item.pivot,
                    "status": item.status,
                    "cosecants": (
                        [_fmt_point(ctx, f) for f in item.forms]
                        if item.forms is not None
                        else None
                    ),
                }
            )
        body["predictions"] = per
        body["verdict"] = (
            "co-secants of any extension recovered"
            if pred.all_split
            else "some recovered tangent functions do not split: the arc "
            f"cannot extend to size {M.forbidden_size}"
        )
    elif t < 1:
        body["verdict"] = "t = |G|-k-n < 1: nothing to recover"
    else:
        body["verdict"] = "PropertyWMissing: ratios are not determined by this matrix"
    return _report("property-w", t0, arc, **body)


def cmd_hypersurface(arc: ArcConfig) -> dict:
    t0 = time.perf_counter()
    ctx = arc.ctx
    surf = hs.build_surface(arc)
    checks = {}
    zero_fails = 0
    for A in subset_iter(arc.size, arc.k - 2):
        checks[A] = hs.theorem9_check(surf, A)
        for form in tangent_fn(arc, A).forms:
            if hs.eval_dual(surf, form) != 0:
                zero_fails += 1
    body = {
        "parity": surf.parity,
        "t": surf.t,
        "degree": surf.degree,
        "E": list(surf.E),
        "theorem9_all": all(checks.values()),
        "theorem9_failures": [_fmt_subset(A) for A, ok in checks.items() if not ok],
        "cosecant_zero_failures": zero_fails,
        "verdict": (
            "surface verified: tangent identity holds and all co-secant duals vanish"
            if all(checks.values()) and zero_fails == 0
            else "surface checks FAILED"
        ),
    }
    return _report("hypersurface", t0, arc, **body)


def cmd_search(arc: ArcConfig, target=None, budget=2_000_000) -> dict:
    t0 = time.perf_counter()
    res = complete_search(arc, target_size=target, budget=budget)
    body = {"target": target, "nodes": res.nodes}
    if target is None:
        body["complete_sizes"] = list(res.complete_sizes)
        body["verdict"] = f"complete arcs containing the input have sizes {list(res.complete_sizes)}"
    else:
        body["found"] = len(res.arcs)
        body["arcs"] = [[_fmt_point(arc.ctx, pt) for pt in pts] for pts in res.arcs]
        body["verdict"] = (
            f"{len(res.arcs)} arcs of size {target} contain the input"
            if res.arcs
            else f"exhaustive: no arc of size {target} contains the input"
        )
    return _report("search", t0, arc, **body)


def cmd_conjecture(p, h, k, n, budget=200_000, samples=200, seed=0) -> dict:
    t0 = time.perf_counter()
    # every field error, and every refusal that needs only q, k and n,
    # comes before the field's tables are built
    q = _field_order(p, h)
    modulus = conway_polynomial(p, h)
    ct._scan_size(q, k, n)
    ctx = FieldCtx(p, h, modulus)
    res = ct.conjecture_scan(ctx, k, n, budget=budget, samples=samples, seed=seed)
    # an exhaustive scan finds every arc class of the size, so none exists
    if res.total == 0 and res.mode == "exhaustive":
        verdict = f"no arc was scanned: no arc of size {res.arc_size} exists"
    elif res.total == 0:
        verdict = "no arc was scanned: none was sampled"
    elif res.certified == res.total:
        verdict = "all scanned arcs have weight-one certificates"
    else:
        verdict = f"{res.total - res.certified} scanned arcs lack certificates"
    body = {
        "p": p,
        "h": h,
        "q": ctx.q,
        "k": k,
        "n": n,
        "arc_size": res.arc_size,
        "conjectured_range": res.in_range,
        "mode": res.mode,
        "total": res.total,
        "certified": res.certified,
        "fraction": res.fraction,
        "counterexamples": [[_fmt_point(ctx, pt) for pt in pts] for pts in res.counterexamples],
        "verdict": verdict,
    }
    return _report("conjecture-scan", t0, **body)


# ----------------------------------------------------------------------
# rendering and entry point
# ----------------------------------------------------------------------


def render_text(report: dict, indent=0) -> str:
    lines = []
    pad = "  " * indent
    for key, val in report.items():
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_text(val, indent + 1))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{pad}{key}:")
            for item in val:
                lines.append(render_text(item, indent + 1))
                lines.append(f"{pad}  -")
            lines.pop()
        else:
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(lines)


def _emit(report: dict, emit: str) -> str:
    if emit == "structured":
        return json.dumps(report, indent=2)
    return render_text(report)


def _load_arc(path: str, modulus) -> ArcConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ArcFileError(f"cannot read {path}: {exc}") from exc
    return parse_arc_file(text, modulus=modulus)


def _parse_modulus(raw):
    if raw is None:
        return None
    coeffs = raw.replace(",", " ").split()
    if not all(map(_digits, coeffs)):
        raise ArcFileError(f"bad --modulus value {raw!r}")
    return tuple(int(c) for c in coeffs)


def _count(raw):
    """A count option (node budget, samples): a decimal integer >= 0."""
    if not _digits(raw):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {raw!r}")
    return int(raw)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="arclab",
        description="exact certificates and co-secant recovery for arcs of V_k(F_q)",
    )
    ap.add_argument("--emit", choices=["text", "structured"], default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    def arcfile_cmd(name, aliases=()):
        sp = sub.add_parser(name, aliases=list(aliases))
        sp.add_argument("arcfile")
        sp.add_argument("--modulus", default=None, help="override modulus, high to low coefficients")
        return sp

    # each command's run(arc, args) makes its report; arc is None for
    # conjecture-scan, the one command without an arc file
    sp = arcfile_cmd("analyze")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(run=lambda arc, a: cmd_analyze(arc, a.n))
    arcfile_cmd("bound").set_defaults(run=lambda arc, a: cmd_bound(arc))
    sp = arcfile_cmd("property-w", aliases=["cosecants"])
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(run=lambda arc, a: cmd_cosecants(arc, a.n))
    arcfile_cmd("hypersurface").set_defaults(run=lambda arc, a: cmd_hypersurface(arc))
    sp = arcfile_cmd("search")
    sp.add_argument("--target", type=int, default=None)
    sp.add_argument("--budget", type=_count, default=2_000_000)
    sp.set_defaults(run=lambda arc, a: cmd_search(arc, target=a.target, budget=a.budget))
    sp = sub.add_parser("conjecture-scan")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--h", type=int, default=1)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--budget", type=_count, default=200_000)
    sp.add_argument("--samples", type=_count, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(run=lambda _, a: cmd_conjecture(a.p, a.h, a.k, a.n, a.budget, a.samples, a.seed))
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        no_arc = args.command == "conjecture-scan"
        arc = None if no_arc else _load_arc(args.arcfile, _parse_modulus(args.modulus))
        report = args.run(arc, args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ArcFileError, ArcInputError, FieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_emit(report, args.emit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
