"""Spans and counts around arclab's public calls, recorded from outside.

``Tracer.install()`` replaces each public function of the arclab modules
with a wrapper, in its own module and in every arclab module that
imported it by name (``certifier`` binds ``left_null_basis``, ``det_full``
and ``interpolate_fA`` at import, so patching ``exactmat`` alone would miss
those calls).  ``uninstall()`` puts the originals back.  Wrappers come in
three kinds:

* span: one record per call (name, start, end, parent span, request id),
  kept in memory and written out by ``dump``;
* hot: called up to millions of times per job (determinants, form
  evaluation), so only a call count and the time totals are kept;
* count: the scalar field operations ``FieldCtx.add`` and ``FieldCtx.mul``,
  only counted, since timing each of them would cost more than they do.
  Their time lands in the self time of the caller.

Every timed call adds its duration to the child time of the frame below
it, so a module's self time is its calls' durations minus the time spent
in wrapped calls they made, and the self times of all modules add up to
the traced time of the jobs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

MODULES = ("gf", "_vecops", "exactmat", "arcgeom", "tangentfns", "certifier", "hypersurf", "cli")

# called often enough per job that a span record each would dominate
HOT = {
    "arcgeom.det_full",
    "arcgeom.det_uC",
    "arcgeom.det_uvA",
    "arcgeom.det_linear_coeffs",
    "arcgeom.canonical_form",
    "arcgeom.eval_form",
    "arcgeom.kernel_of_points",
    "arcgeom.subset_rank",
    "arcgeom.subset_unrank",
    "tangentfns.arc_degree",
    "tangentfns.tangent_fn",
    "tangentfns.shuffle_parity",
    "hypersurf.eval_dual",
    "hypersurf.dual_coords",
    "exactmat.weight_two_in_colspace",
    "gf.FieldCtx.vec_ops",
    "tangentfns.AlphaTable.alpha",
}

# (class path, methods) wrapped on the class, so every instance sees them
METHODS = {
    "gf.FieldCtx": ("__init__", "vec_ops", "add", "mul"),
    "vecops.VecOps": ("__init__", "add"),
    "tangentfns.AlphaTable": ("alpha",),
}
COUNT_ONLY = {"gf.FieldCtx.add", "gf.FieldCtx.mul"}


def _layer(module_name: str) -> str:
    return "vecops" if module_name == "_vecops" else module_name


@dataclass(frozen=True)
class Tally:
    calls: dict          # name -> calls
    total: dict          # name -> inclusive seconds
    self_by_layer: dict  # layer -> self seconds
    counts: dict         # computed counts
    durations: dict      # name -> per-call seconds


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent, request]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)     # inclusive seconds per name
        self.self_by_layer = defaultdict(float)
        self.counts = defaultdict(int)      # computed counts, see _after
        self.durations = defaultdict(list)  # per-call seconds where a p50 is wanted
        self.request = None
        self._frames = []         # child time of each open timed call
        self._open_spans = []     # indices of open span records
        self._patches = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self):
        mods = {m: importlib.import_module(f"arclab.{m}") for m in MODULES}
        wrappers = {}
        for mname, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                name = f"{_layer(mname)}.{attr}"
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    wrappers[id(fn)] = self._wrap(fn, name)
        targets = [sys.modules["arclab"], *mods.values()]
        for mod in targets:
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, w)
        for cpath, methods in METHODS.items():
            layer, cname = cpath.split(".")
            cls = getattr(mods["_vecops" if layer == "vecops" else layer], cname)
            for meth in methods:
                fn = vars(cls)[meth]
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, f"{cpath}.{meth}"))
        return self

    def uninstall(self):
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    def _wrap(self, fn, name):
        calls = self.calls
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args):
                calls[name] += 1
                return fn(*args)

            return counted

        layer = name.split(".", 1)[0]
        frames = self._frames
        total = self.total
        self_by_layer = self.self_by_layer
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        hot = name in HOT
        spans = self.spans
        open_spans = self._open_spans

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            state = before(*args) if before is not None else None
            if not hot:
                parent = open_spans[-1] if open_spans else None
                idx = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.request])
                open_spans.append(idx)
            frame = [0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                frames.pop()
                dur = t1 - t0
                calls[name] += 1
                total[name] += dur
                self_by_layer[layer] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                if not hot:
                    open_spans.pop()
                    rec = spans[idx]
                    rec[1] = t0
                    rec[2] = t1
            if after is not None:
                after(args, result, state, dur)
            return result

        return timed

    def snapshot(self) -> "Tally":
        """The totals gathered since the last snapshot; starts new ones."""
        tally = Tally(dict(self.calls), dict(self.total), dict(self.self_by_layer),
                      dict(self.counts), {k: list(v) for k, v in self.durations.items()})
        for d in (self.calls, self.total, self.self_by_layer, self.counts, self.durations):
            d.clear()
        return tally

    # ------------------------------------------------------------------
    # root spans: one per job, carrying the request id
    # ------------------------------------------------------------------
    def job(self, request, fn, *args):
        self.request = request
        return self._wrap(fn, "bench.job")(*args)

    # ------------------------------------------------------------------
    # computed counts read off arguments and results
    # ------------------------------------------------------------------
    def _after_vecops_VecOps_add(self, args, result, state, dur):
        self.counts["vecops.add_elems"] += int(np.broadcast(args[1], args[2]).size)

    def _before_exactmat_left_null_basis(self, matrix):
        return matrix._null is None

    def _after_exactmat_left_null_basis(self, args, result, computed, dur):
        if not computed:
            return
        m = args[0]
        rows, cols = m.rows, m.cols
        rank = rows - result.nullity
        self.counts["exactmat.left_null_computed"] += 1
        self.counts["exactmat.cells_eliminated"] += rank * rows * (cols + rows)
        self.durations["exactmat.left_null_basis"].append(dur)

    def _after_certifier_build_Mn(self, args, result, state, dur):
        self.counts["certifier.matrices_built"] += 1
        self.counts["certifier.matrix_cells"] += result.matrix.rows * result.matrix.cols

    def _after_certifier_recover_cosecants(self, args, result, state, dur):
        arc = args[0]
        self.counts["certifier.recover_attempts"] += len(result.per_A)
        self.counts["certifier.split_ok"] += sum(p.status == "ok" for p in result.per_A.values())
        self.counts["certifier.pencil_forms_tested"] += len(result.per_A) * (arc.ctx.q + 1)

    def _after_arcgeom_complete_search(self, args, result, state, dur):
        self.counts["arcgeom.search_nodes"] += result.nodes

    # ------------------------------------------------------------------
    def dump(self, path):
        """Write every span as one JSON line (start and end in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": req}) + "\n")
