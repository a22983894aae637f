"""Property tests of M_n on seeded random arcs over GF(7), GF(11), GF(13),
GF(8) and GF(9): every A's block has rank n+1, the left null space is the
paper-literal matrix's, and rank, nullity, weight-one existence and the
bound scan's n0 do not change under a change of basis, the rescaling of
one point or a reordering of the arc.  Hypothesis runs derandomized with
a bounded number of examples, so every run draws the same arcs.  On the
shipped arcs, co-secant recovery's per-A split status does not change
under the same maps either."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arclab.arcgeom import ArcConfig, HyperplaneIncidence
from arclab.certifier import (
    PropertyWMissingError,
    _random_arc,
    bound_scan,
    build_Mn,
    recover_cosecants,
)
from arclab.cli import parse_arc_file
from arclab.exactmat import GFMatrix, left_null_basis
from arclab.gf import FieldCtx

from conftest import (
    ARCS_DIR,
    gl_image,
    mat_vec,
    ref_build_Mn,
    ref_det_full,
    same_left_null,
    weight_one_in_colspace,
)

FIELDS = ((7, 1), (11, 1), (13, 1), (2, 3), (3, 2))

SETTINGS = settings(
    max_examples=6,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_arc_of(p, h, k, extra, seed):
    """A greedy random arc of k + extra points."""
    inc = HyperplaneIncidence(FieldCtx(p, h), k)
    return ArcConfig(inc.ctx, k, _random_arc(inc, k + extra, random.Random(seed)))


FIELDS_AND_K = pytest.mark.parametrize("p,h,k", [(p, h, k) for p, h in FIELDS for k in (3, 4)])
EXTRA = st.integers(1, 3)
SEEDS = st.integers(0, 2**32 - 1)


@FIELDS_AND_K
@SETTINGS
@given(extra=EXTRA, seed=SEEDS)
def test_blocks_have_full_rank_and_the_reference_null_space(p, h, k, extra, seed):
    arc = _random_arc_of(p, h, k, extra, seed)
    ctx = arc.ctx
    for n in range(arc.size - arc.k + 1):
        M = build_Mn(arc, n)
        for s in range(len(M.subsets)):
            block = M.matrix.data[M.stars[s], s * (n + 1) : (s + 1) * (n + 1)]
            assert len(block) - left_null_basis(GFMatrix(ctx, block)).nullity == n + 1
        assert same_left_null(ctx, M.matrix.data, ref_build_Mn(arc, n).data)


def _facts(arc):
    """(rank, nullity, weight-one existence) at every n, and n0."""
    facts = []
    for n in range(arc.size - arc.k + 1):
        M = build_Mn(arc, n)
        nullity = left_null_basis(M.matrix).nullity
        facts.append((M.matrix.rows - nullity, nullity, weight_one_in_colspace(M.matrix) is not None))
    return facts, bound_scan(arc).n0


@FIELDS_AND_K
@SETTINGS
@given(extra=EXTRA, seed=SEEDS)
def test_facts_survive_basis_change_rescaling_and_reordering(p, h, k, extra, seed):
    arc = _random_arc_of(p, h, k, extra, seed)
    ctx = arc.ctx
    rng = random.Random(seed + 1)
    while True:
        g = [[rng.randrange(ctx.q) for _ in range(k)] for _ in range(k)]
        if ref_det_full(ctx, g) != 0:
            break
    moved = [tuple(mat_vec(ctx, g, p)) for p in arc.points]
    scaled = list(arc.points)
    i, lam = rng.randrange(arc.size), rng.randrange(1, ctx.q)
    scaled[i] = tuple(ctx.mul(lam, c) for c in scaled[i])
    shuffled = list(arc.points)
    rng.shuffle(shuffled)
    want = _facts(arc)
    for pts in (moved, scaled, shuffled):
        assert _facts(ArcConfig(ctx, k, pts)) == want


def _statuses(arc, n):
    """Per-A split status of recovery, None when it raises
    PropertyWMissingError."""
    try:
        pred = recover_cosecants(build_Mn(arc, n))
    except PropertyWMissingError:
        return None
    return {A: p.status for A, p in pred.per_A.items()}


@pytest.mark.parametrize("path", sorted(ARCS_DIR.glob("*.arc")), ids=lambda path: path.stem)
def test_split_status_survives_basis_change_rescaling_and_reordering(path):
    # every n with t >= 1 (q81 at n <= 2): recovery raises on all four
    # arcs or returns the same statuses, A read through the permutation
    arc = parse_arc_file(path.read_text())
    ctx, k, g = arc.ctx, arc.k, arc.size
    rng = random.Random(g)
    scaled = list(arc.points)
    i, lam = rng.randrange(g), rng.randrange(2, ctx.q)
    scaled[i] = tuple(ctx.mul(lam, c) for c in scaled[i])
    perm = list(range(g))
    rng.shuffle(perm)
    shuffled = ArcConfig(ctx, k, [arc.points[j] for j in perm])
    top = min(g - k - 1, 2 if ctx.q == 81 else g)
    for n in range(top + 1):
        want = _statuses(arc, n)
        assert _statuses(gl_image(arc, n), n) == want, n
        assert _statuses(ArcConfig(ctx, k, scaled), n) == want, n
        got = _statuses(shuffled, n)
        if want is not None and got is not None:
            got = {tuple(sorted(perm[j] for j in A)): st for A, st in got.items()}
        assert got == want, n
