"""Seeded inputs for the benchmark workloads.

Every input is arc-file text, made before any timing starts.  Seed 0
gives the shipped arc files byte for byte and fixed curve subsets.  Any
other seed gives inputs with the same answers and the same amount of work:

* a shipped arc is mapped by a random invertible k x k matrix and each of
  its points is then rescaled by a random nonzero scalar, keeping the point
  order.  Ranks, nullities, verdicts, split counts and search node counts
  are invariant under both maps;
* a subset of a normal rational curve is the image of a fixed parameter
  set under a random projectivity of the parameter line.  That image lies
  on the same curve and is projectively equivalent to the seed-0 subset,
  so the bound scan and the completion search do the same work at every
  seed, which a uniformly random subset would not.

Every random draw that has to be retried (a singular matrix) is retried a
bounded number of times.
"""

from __future__ import annotations

import random
from pathlib import Path

from arclab.arcgeom import ArcConfig, det_full
from arclab.cli import format_arc_file, parse_arc_file
from arclab.gf import FieldCtx

MAX_ATTEMPTS = 64


class GeneratorError(RuntimeError):
    pass


def _rng(seed: int, name: str) -> random.Random:
    # one stream per input, so adding an input leaves the others unchanged
    return random.Random(f"{seed}:{name}")


def _invertible(ctx, size, rng, what):
    for _ in range(MAX_ATTEMPTS):
        m = [[rng.randrange(ctx.q) for _ in range(size)] for _ in range(size)]
        if det_full(ctx, m) != 0:
            return m
    raise GeneratorError(f"no invertible {what} in {MAX_ATTEMPTS} draws")


def transformed_arc(text: str, seed: int, name: str) -> str:
    """The shipped arc unchanged at seed 0, else a rescaled GL(k, q) image."""
    if seed == 0:
        return text
    arc = parse_arc_file(text)
    ctx, k = arc.ctx, arc.k
    rng = _rng(seed, name)
    g = _invertible(ctx, k, rng, f"{k}x{k} matrix")
    points = []
    for v in arc.points:
        w = [0] * k
        for j in range(k):
            for i in range(k):
                w[j] = ctx.add(w[j], ctx.mul(v[i], g[i][j]))
        lam = rng.randrange(1, ctx.q)
        points.append(tuple(ctx.mul(lam, x) for x in w))
    return format_arc_file(ArcConfig(ctx, k, points, check=False))


def curve_subset(p: int, h: int, k: int, size: int, seed: int, name: str) -> str:
    """size points of the normal rational curve (1, x, ..., x^(k-1)) of V_k(GF(p^h)).

    Seed 0 takes the parameters x = 0, 1, ..., size-1 (element codes); any
    other seed maps them by a random invertible 2 x 2 matrix acting on the
    homogeneous parameter (1 : x), which keeps the points on the curve.
    """
    ctx = FieldCtx(p, h)
    if size > ctx.q + 1:
        raise GeneratorError(f"the curve has only {ctx.q + 1} points")
    mob = [[1, 0], [0, 1]] if seed == 0 else _invertible(ctx, 2, _rng(seed, name), "projectivity")
    points = []
    for x in range(size):
        s = ctx.add(mob[0][0], ctx.mul(mob[0][1], x))
        t = ctx.add(mob[1][0], ctx.mul(mob[1][1], x))
        points.append(tuple(ctx.mul(ctx.pow(s, k - 1 - i), ctx.pow(t, i)) for i in range(k)))
    return format_arc_file(ArcConfig(ctx, k, points, check=False))


def shipped(arcs_dir: Path, stem: str) -> str:
    return (arcs_dir / f"{stem}.arc").read_text(encoding="utf-8")
