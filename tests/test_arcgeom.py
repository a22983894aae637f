import functools
import gc
import itertools
import random
import tracemalloc
from math import comb

import numpy as np
import pytest

import arclab.arcgeom as arcgeom
from arclab.arcgeom import (
    ArcConfig,
    ArcInputError,
    BudgetExceededError,
    HyperplaneIncidence,
    SearchResult,
    _cosecants,
    _pencil_basis,
    _pencil_members,
    _projective_line,
    cofactor_normals,
    complete_search,
    det_full,
    projective_points,
    subset_iter,
    validate_arc,
)
from arclab.certifier import conjecture_scan
from arclab.gf import FieldCtx
from arclab.tangentfns import tangent_fn

from conftest import (
    all_dual_reps,
    dot,
    gl_image,
    laplace_det,
    mat_vec,
    moment_curve,
    prefix_arc,
    ref_complete_search,
    ref_cosecants_through,
    ref_det_full,
    ref_det_linear_coeffs,
    ref_extension_mask,
    ref_pencil_through,
    ref_validate_arc,
    same_search,
    shuffled_nrc,
)


def test_det_basic(F11):
    k = 3
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert det_full(F11, basis) == 1
    assert det_full(F11, [basis[0], basis[0], basis[2]]) == 0
    with pytest.raises(ValueError):
        det_full(F11, [(1, 0), (0, 1), (0, 0)])


def test_det_matches_laplace_oracle():
    rng = random.Random(2)
    for q, h, k in [(5, 1, 3), (13, 1, 4), (3, 2, 3), (2, 3, 5)]:
        ctx = FieldCtx(q, h)
        for _ in range(25):
            rows = [tuple(rng.randrange(ctx.q) for _ in range(k)) for _ in range(k)]
            assert det_full(ctx, rows) == laplace_det(ctx, rows)


def test_det_alternating_and_linear(F13):
    rng = random.Random(4)
    for _ in range(25):
        rows = [tuple(rng.randrange(13) for _ in range(4)) for _ in range(4)]
        swapped = [rows[1], rows[0]] + rows[2:]
        assert det_full(F13, swapped) == F13.neg(det_full(F13, rows))
    # the recovery reference's d_A(u, .) really is x -> det(before+[x]+after)
    before = [(1, 2, 3, 4)]
    after = [(0, 1, 5, 2), (7, 0, 0, 1)]
    coeffs = ref_det_linear_coeffs(F13, before, after)
    for _ in range(20):
        x = tuple(rng.randrange(13) for _ in range(4))
        assert dot(F13, coeffs, x) == det_full(F13, before + [x] + after)


def test_det_uC_and_uvA(arc_q11, F11):
    # det(u, C) and d_A(u, v) = det(u, v, A) through det_full
    det_uC = lambda u, C: det_full(F11, [u] + arc_q11.points_at(C))
    det_uvA = lambda u, v, A: det_full(F11, [u, v] + arc_q11.points_at(A))
    # u in C gives a repeated row
    assert det_uC(arc_q11.points[1], (1, 2)) == 0
    # spec example: point 4 against {1,2}, cross-checked by cofactor expansion
    u = arc_q11.points[4]
    got = det_uC(u, (1, 2))
    assert got == laplace_det(F11, [u, arc_q11.points[1], arc_q11.points[2]])
    assert got != 0
    # d_A is alternating (random u, v, A)
    rng = random.Random(6)
    for _ in range(30):
        u = tuple(rng.randrange(11) for _ in range(3))
        v = tuple(rng.randrange(11) for _ in range(3))
        A = (rng.randrange(7),)
        assert det_uvA(u, v, A) == F11.neg(det_uvA(v, u, A))
        assert det_uvA(u, u, A) == 0


def test_validate_arc(F11, F5, arc_q11):
    assert validate_arc(F11, 3, arc_q11.points) is None
    frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    assert validate_arc(F5, 3, frame) is None
    bad = frame + [(2, 2, 2)]  # proportional to the all-ones vector
    witness = validate_arc(F5, 3, bad)
    assert witness is not None
    assert det_full(F5, [bad[i] for i in witness]) == 0


def test_arcconfig_invariants(F5):
    with pytest.raises(ValueError):
        ArcConfig(F5, 2, [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        ArcConfig(F5, 3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        ArcConfig(F5, 3, moment_curve(F5, 3, range(5), infinity=True) + [(1, 4, 3)])
    conic = ArcConfig(F5, 3, moment_curve(F5, 3, range(5), infinity=True))
    assert conic.size == 6  # q + k - 1 - t with t = 1
    assert prefix_arc(conic, 4).size == 4
    # no arc has more than q+k-1 points, checked before any determinant
    for check in (True, False):
        with pytest.raises(ArcInputError, match="exceeds q\\+k-1 = 7"):
            ArcConfig(F5, 3, [(1, i % 5, i // 5) for i in range(8)], check=check)
    with pytest.raises(ArcInputError, match="length 3"):
        validate_arc(F5, 3, [(1, 0, 0), (0, 1)])


def pencil_members(arc, A):
    """The members of A's pencil as recovery and _cosecants build them:
    _pencil_members over the _pencil_basis of A at every point of PG(1,q)."""
    (b1,), (b2,) = _pencil_basis(arc.ctx, arc.points, [A])
    return [tuple(f) for f in _pencil_members(arc.ctx, b1, b2, *_projective_line(arc.ctx)).tolist()]


def as_int(words):
    """A bitset of 64-bit words as a Python int: point i is bit i."""
    return int.from_bytes(words.astype("<u8").tobytes(), "little")


def extensions(arc):
    """The bitset of points v with arc + v still an arc."""
    return as_int(HyperplaneIncidence(arc.ctx, arc.k, arc.points).extensions())


def test_pencil_counts_and_annihilation(conic_f5, F5):
    for A in subset_iter(conic_f5.size, 1):
        forms = pencil_members(conic_f5, A)
        assert len(forms) == 6  # q + 1
        assert len(set(forms)) == 6
        for form in forms:
            assert dot(F5, form, conic_f5.points[A[0]]) == 0


def test_pencil_matches_exhaustive_dual_scan(F5):
    arc = ArcConfig(F5, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    got = set(pencil_members(arc, (0,)))
    want = {z for z in all_dual_reps(F5, 3) if dot(F5, z, (1, 0, 0)) == 0}
    assert got == want
    assert len(want) == 6


def test_pencil_partition(conic_f5, F5):
    # q+1 pencil members: |S|-|A| meet one extra arc point, t meet none
    t = 5 + 3 - 1 - conic_f5.size
    for A in subset_iter(conic_f5.size, 1):
        extra_counts = []
        for form in pencil_members(conic_f5, A):
            hits = [
                i
                for i in range(conic_f5.size)
                if i not in A and dot(F5, form, conic_f5.points[i]) == 0
            ]
            extra_counts.append(len(hits))
        assert extra_counts.count(0) == t
        assert extra_counts.count(1) == conic_f5.size - 1
        assert all(c <= 1 for c in extra_counts)


def test_cosecants(conic_f5, hyperconic_f4, arc_q13_size9, F5):
    # maximal arc: t = 0
    for A in subset_iter(hyperconic_f4.size, 1):
        assert tangent_fn(hyperconic_f4, A).forms == ()
    # conic: exactly one tangent per point, meeting S only in A
    for A in subset_iter(conic_f5.size, 1):
        forms = tangent_fn(conic_f5, A).forms
        assert len(forms) == 1
        ker_hits = [
            i
            for i in range(conic_f5.size)
            if dot(F5, forms[0], conic_f5.points[i]) == 0
        ]
        assert ker_hits == list(A)


def test_cosecant_counts_on_size12_extension(arc_q13_size9, F13):
    res = complete_search(arc_q13_size9, target_size=12)
    assert len(res.arcs) == 1
    S12 = ArcConfig(F13, 3, res.arcs[0])
    t = 13 + 3 - 1 - 12
    for A in subset_iter(12, 1):
        assert len(tangent_fn(S12, A).forms) == t == 3


def test_projective_line_lists_pg1q_in_order(F4, F5, F8, F9, F81):
    # (1, lam) for lam in F_q in element-code order, then (0, 1)
    for ctx in (F4, F5, F8, F9, F81):
        want = np.array([(1, lam) for lam in range(ctx.q)] + [(0, 1)], dtype=np.int64).T
        got = _projective_line(ctx)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_projective_point_count(F5):
    pts = list(projective_points(F5, 3))
    assert len(pts) == 31  # (q^3-1)/(q-1)
    assert len(set(pts)) == 31


def test_extensions(conic_f5, hyperconic_f8, arc_q13_size6):
    assert extensions(hyperconic_f8) == 0
    # the F5 conic is complete (q odd: q+1 is the maximum)
    assert extensions(conic_f5) == 0
    exts = extensions(arc_q13_size6)
    assert exts, "the q=13 size-6 arc must extend"
    assert exts == ref_extension_mask(arc_q13_size6)


def test_complete_search_sizes(arc_q13_size6, arc_q11, hyperconic_f8):
    res = complete_search(arc_q13_size6)
    assert {9, 10, 12, 14} <= set(res.complete_sizes)
    res11 = complete_search(arc_q11)
    assert max(res11.complete_sizes) == 10
    assert complete_search(hyperconic_f8).complete_sizes == (10,)


def test_complete_search_target_mode(arc_q13_size6, arc_q11, F5):
    none11 = complete_search(arc_q11, target_size=11)
    assert none11.arcs.shape == (0, 11, 3) and none11.orbit_sizes.shape == (0,)
    conics = complete_search(arc_q13_size6, target_size=14)
    assert len(conics.arcs) == 1
    # determinism
    again = complete_search(arc_q13_size6, target_size=14)
    assert same_search(conics, again)
    # a frame of V_3(F_5) completes to arcs of size 6 = q+1
    frame = ArcConfig(F5, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    assert 6 in complete_search(frame).complete_sizes
    with pytest.raises(ValueError):
        complete_search(frame, target_size=8)


def test_complete_search_budget(arc_q13_size6):
    with pytest.raises(BudgetExceededError):
        complete_search(arc_q13_size6, budget=3)


def test_complete_search_verifies_eight_point_complete_arc(arc_q13_size6, F13):
    # independent audit of one reported complete size: an 8-arc with no
    # extension at all
    res = complete_search(arc_q13_size6, target_size=8)
    complete_eights = [
        pts for pts in res.arcs if not extensions(ArcConfig(F13, 3, pts))
    ]
    assert complete_eights, "a complete 8-arc contains the size-6 arc"


def test_subset_colex():
    assert list(subset_iter(5, 0)) == [()]
    subs = list(subset_iter(7, 2))
    assert len(subs) == comb(7, 2) == 21
    assert subs[0] == (0, 1)
    assert len(list(subset_iter(11, 5))) == comb(11, 5) == 462
    # colex order is increasing order of the subsets read as bitmasks
    for n in range(13):
        for arity in range(7):
            want = sorted(itertools.combinations(range(n), arity), key=lambda s: sum(1 << i for i in s))
            assert list(subset_iter(n, arity)) == want


def test_validate_arc_hereditary(arc_q11, F11):
    # every subset of an arc is an arc
    for r in range(3, 7):
        for sub in itertools.combinations(arc_q11.points, r):
            assert validate_arc(F11, 3, sub) is None


# ----------------------------------------------------------------------
# the bitset search against the determinant reference
# ----------------------------------------------------------------------


def _gl_image(ctx, points, rng):
    """The points under a random invertible map, each rescaled by a random
    nonzero scalar, so that none is in canonical form."""
    k = len(points[0])
    while True:
        g = [tuple(rng.randrange(ctx.q) for _ in range(k)) for _ in range(k)]
        if det_full(ctx, g):
            break
    return [
        tuple(ctx.mul(c, y) for y in mat_vec(ctx, g, pt))
        for pt, c in zip(points, (rng.randrange(1, ctx.q) for _ in points))
    ]


SEARCH_CASES = [
    # (p, h, k, arc size, target)
    (7, 1, 3, 4, None),
    (7, 1, 3, 4, 6),
    (7, 1, 4, 6, None),
    (7, 1, 4, 6, 7),
    (11, 1, 3, 6, None),
    (11, 1, 3, 6, 9),
    (11, 1, 4, 9, 12),
    (13, 1, 3, 7, None),
    (13, 1, 3, 7, 14),
    (2, 3, 3, 5, None),
    (2, 3, 3, 5, 7),
    (2, 3, 4, 6, None),
    (2, 3, 4, 6, 8),
    (3, 2, 3, 5, None),
    (3, 2, 3, 5, 7),
    (3, 2, 4, 7, None),
    (3, 2, 4, 7, 9),
    # k = 5, all q+1 = 5 points of the curve: the hyperplanes a child adds
    # are <w, T + v>, T two points of the arc
    (2, 2, 5, 5, None),
    (2, 2, 5, 5, 7),
]


@functools.lru_cache(maxsize=None)
def _search_case(p, h, k, g, target):
    """The curve prefix of a search case and a GL image of it, each with
    its reference search."""
    ctx = FieldCtx(p, h)
    rng = random.Random(p * 100 + k * 10 + g)
    prefix = shuffled_nrc(ctx, k, p + k)[:g]
    arcs = [ArcConfig(ctx, k, pts) for pts in (prefix, _gl_image(ctx, prefix, rng))]
    return [(arc, ref_complete_search(arc, target_size=target)) for arc in arcs]


@pytest.mark.parametrize("p,h,k,g,target", SEARCH_CASES)
def test_complete_search_matches_reference(p, h, k, g, target):
    results = []
    for arc, ref in _search_case(p, h, k, g, target):
        got = complete_search(arc, target_size=target)
        assert same_search(got, ref)
        assert extensions(arc) == ref_extension_mask(arc)
        results.append(got)
    # node counts and complete sizes are projective invariants
    assert results[0].nodes == results[1].nodes
    assert results[0].complete_sizes == results[1].complete_sizes


@pytest.mark.parametrize("p,h,k,g,target", SEARCH_CASES)
def test_search_batch_cap_invariance(p, h, k, g, target, monkeypatch):
    # one node per batch, or every node of a level in one, also with the
    # pairs of entries made one entry at a time: the same arcs in the same
    # order, and at cap 1 the same exact budget
    for cap, cells in ((1, arcgeom.MASK_CELLS), (10**9, arcgeom.MASK_CELLS), (10**9, 1)):
        monkeypatch.setattr(arcgeom, "BATCH_ENTRIES", cap)
        monkeypatch.setattr(arcgeom, "MASK_CELLS", cells)
        for arc, ref in _search_case(p, h, k, g, target):
            assert same_search(complete_search(arc, target_size=target), ref)
            if cap == 1:
                assert same_search(complete_search(arc, target_size=target, budget=ref.nodes), ref)
                with pytest.raises(BudgetExceededError):
                    complete_search(arc, target_size=target, budget=ref.nodes - 1)


def test_search_kernel_call_guard(arc_q13_size6, monkeypatch):
    # at most one kernel call per batch of nodes, for the new hyperplanes the
    # row cache misses: 5 cofactor_normals calls, against 204 with one per node
    calls = []
    normals = arcgeom.cofactor_normals

    def counting(ctx, sets):
        calls.append(len(sets))
        return normals(ctx, sets)

    monkeypatch.setattr(arcgeom, "cofactor_normals", counting)
    assert complete_search(arc_q13_size6).nodes == 1408
    assert len(calls) <= 12


def test_search_on_short_and_dependent_inputs(F5, F7):
    # fewer than k-1 points span no hyperplane: every point extends, the
    # rescaled base point included, and that one then leaves no candidate
    one = ArcConfig(F5, 3, [(2, 0, 0)])
    assert extensions(one) == ref_extension_mask(one) == (1 << 31) - 1
    assert same_search(complete_search(one, target_size=3), ref_complete_search(one, target_size=3))
    # k-1 dependent vectors pass validation (no k-subset) and block everything
    flat = ArcConfig(F7, 3, [(1, 2, 3), (2, 4, 6)])
    assert extensions(flat) == ref_extension_mask(flat) == 0
    assert complete_search(flat) == ref_complete_search(flat) == SearchResult((2,), None, 1)


@pytest.mark.parametrize(
    "p,h,k,g,target", [(13, 1, 3, 6, None), (3, 2, 4, 7, 9), (7, 1, 3, 4, 6), (7, 1, 3, 4, 4)]
)
def test_complete_search_budget_is_exact(p, h, k, g, target):
    ctx = FieldCtx(p, h)
    arc = ArcConfig(ctx, k, _gl_image(ctx, shuffled_nrc(ctx, k, 3)[:g], random.Random(g)))
    nodes = complete_search(arc, target_size=target).nodes
    assert complete_search(arc, target_size=target, budget=nodes).nodes == nodes
    with pytest.raises(BudgetExceededError):
        complete_search(arc, target_size=target, budget=nodes - 1)


def test_search_over_budget_fills_no_grandchild_masks(monkeypatch):
    # the 4-point frame of PG(2, 23) has about 500 children and 10^5
    # grandchildren: a search over budget stops before their masks are
    # filled, having made only the root's (4 per child, 6 for the frame)
    ctx = FieldCtx(23)
    frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    rows = []
    normals = arcgeom.cofactor_normals

    def counting(ctx, sets):
        rows.append(len(sets))
        return normals(ctx, sets)

    monkeypatch.setattr(arcgeom, "cofactor_normals", counting)
    with pytest.raises(BudgetExceededError):
        complete_search(ArcConfig(ctx, 3, frame), target_size=6, budget=10_000)
    assert sum(rows) <= 4 * (23**2 + 23 + 1) + 6
    # and the conjecture scan falls back to sampling at once
    rows.clear()
    res = conjecture_scan(ctx, 3, 3, budget=10_000, samples=2, seed=0)
    assert res.mode == "sampled" and res.total == 2
    assert sum(rows) <= 5 * (23**2 + 23 + 1)



def test_search_over_budget_allocates_no_grandchild_cuts():
    # the 4-point frame of PG(2, 31) has about 900 children and 3.5 * 10^5
    # grandchildren, whose running cuts alone would take 45 MB (49 MB peak
    # when they were made before the budget check): a popcount counts them
    # and the search stops before any pair of entries is enumerated
    frame = ArcConfig(FieldCtx(31), 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            complete_search(frame, target_size=6, budget=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_search_pairs_take_memory_bounded_by_the_budget():
    # the 6-point frame of PG(4, 9) to size 8: the root's 840 entries make
    # 343,136 pairs of entries for 3,780 grandchildren.  Made at once they
    # peaked at 24.0 MiB under tracemalloc (6.5 MiB table, point tuples as
    # the result); made about MASK_CELLS pairs at a time, and with the
    # result one array, the peak is about 16 MiB
    ctx = FieldCtx(3, 2)
    frame = ArcConfig(ctx, 5, [tuple(int(i == j) for i in range(5)) for j in range(5)] + [(1,) * 5])
    tracemalloc.start()
    try:
        res = complete_search(frame, target_size=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.nodes == 4621 and res.arcs.shape == (3780, 8, 5)
    assert peak < 20 * 2**20, peak


def test_search_past_the_table_cap_allocates_nothing(arc_q81):
    # PG(5, 81) has about 3.5 * 10^9 points, whose hyperplane table would
    # take 10^17 bytes: the search raises before it lists a single point
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="hyperplane table of PG\\(5, 81\\)"):
            complete_search(arc_q81)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_table_cap_is_exact(F5, monkeypatch):
    # PG(2, 5) has 31 points: a table of 32 rows of one word
    monkeypatch.setattr(arcgeom, "TABLE_WORDS", 32)
    assert HyperplaneIncidence(F5, 3).table.size == 32
    monkeypatch.setattr(arcgeom, "TABLE_WORDS", 31)
    with pytest.raises(BudgetExceededError):
        HyperplaneIncidence(F5, 3)


def test_search_results_pinned_above_desk_scale():
    # recorded from the one-node-at-a-time DFS: the 7-point conic prefixes
    # of the prime-search benchmark at q = 17 and of a shuffle at q = 19
    F17 = FieldCtx(17)
    nrc17 = ArcConfig(F17, 3, moment_curve(F17, 3, range(7)))
    want = SearchResult((10, 11, 12, 13, 14, 18), None, 11570)
    assert complete_search(nrc17) == complete_search(gl_image(nrc17, 7)) == want
    # the conic is the one completion to q+1, its points after the prefix
    # in the order of projective_points
    conic = set(moment_curve(F17, 3, range(17), infinity=True))
    rest = tuple(v for v in projective_points(F17, 3) if v in conic and v not in nrc17.points)
    conics = SearchResult(None, np.array([nrc17.points + rest], dtype=np.int64), 11570, np.ones(1, dtype=np.int64))
    assert same_search(complete_search(nrc17, target_size=18), conics)
    F19 = FieldCtx(19)
    prefix = ArcConfig(F19, 3, shuffled_nrc(F19, 3, 5)[:7])
    assert complete_search(prefix) == SearchResult((10, 11, 12, 13, 14, 20), None, 111230)


def test_search_leaves_no_cycle_behind(arc_q13_size6):
    # the mask table lives only as long as one call, also when it raises
    gc.collect()
    gc.disable()
    try:
        complete_search(arc_q13_size6, target_size=8)
        with pytest.raises(BudgetExceededError):
            complete_search(arc_q13_size6, budget=50)
        extensions(arc_q13_size6)
        assert not any(isinstance(o, HyperplaneIncidence) for o in gc.get_objects())
    finally:
        gc.enable()


def test_incidence_masks_match_determinants(F9):
    inc = HyperplaneIncidence(F9, 3, [(1, 1, 1)])
    n = len(inc.points)
    for ids in [(0, 5), (3, n), (7, 7)]:
        rows = [inc.vectors[i] for i in ids]
        want = sum(1 << i for i, w in enumerate(inc.points) if det_full(F9, [w] + rows))
        assert as_int(inc.cut(inc.full, [[ids]])[0]) == want


@pytest.mark.parametrize("p,h", [(2, 2), (7, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_hyperplane_index_and_table_rows(p, h, k):
    ctx = FieldCtx(p, h)
    rng = random.Random(p * 100 + h * 10 + k)
    inc = HyperplaneIncidence(ctx, k)
    n = len(inc.points)
    coords = np.array(inc.points)
    # each canonical point indexes to its own position, also rescaled
    assert inc.index(coords).tolist() == list(range(n))
    scale = np.array([rng.randrange(1, ctx.q) for _ in range(n)])
    assert inc.index(ctx.vec_ops().mul(coords, scale[:, None])).tolist() == list(range(n))
    assert inc.index(np.zeros((2, k), dtype=np.int64)).tolist() == [n, n]
    # a table row is the determinant incidence of every set spanning it;
    # a dependent set gives the zero row N
    spanning = [rng.sample(range(n), k - 1) for _ in range(1 if k == 5 else 3)]
    dependent = [[0] * (k - 1), [1, 1] + rng.sample(range(n), k - 3)]
    got = inc.cut(inc.full, np.array(spanning + dependent)[:, None])
    for ids, row in zip(spanning, got):
        rows = [inc.points[i] for i in ids]
        assert as_int(row) == sum(1 << i for i, w in enumerate(inc.points) if ref_det_full(ctx, [w] + rows))
        normal = cofactor_normals(ctx, np.array(rows)[None])
        assert (inc.table[inc.index(normal)[0]] == row).all()
    assert not got[len(spanning) :].any() and not inc.table[n].any()
    filled = np.flatnonzero(inc.table.any(1))
    for hp in filled:
        assert as_int(inc.table[hp]) == sum(1 << i for i, w in enumerate(inc.points) if dot(ctx, inc.points[hp], w))


def test_node_batched_masks_match_single_masks(F7, F9, monkeypatch):
    for ctx, k in ((F7, 4), (F9, 3)):
        rng = random.Random(ctx.q)
        extra = _gl_image(ctx, shuffled_nrc(ctx, k, 1)[: k + 2], rng)
        inc = HyperplaneIncidence(ctx, k, extra)
        n = len(inc.points)
        ids = list(range(n + len(extra)))
        keys = [rng.sample(ids, k - 1) for _ in range(60)]
        keys += [[0] * (k - 1), [n] * (k - 1), list(range(n, n + k - 1))]
        # small kernel and fill chunks, the last ones part full, change no row
        with monkeypatch.context() as m:
            m.setattr(arcgeom, "DET_CHUNK", 8)
            m.setattr(arcgeom, "MASK_CELLS", 3 * n * k)
            got = HyperplaneIncidence(ctx, k, extra).cut(inc.full, np.array(keys)[:, None])
        single = [inc.cut(inc.full, [[key]])[0] for key in keys]
        assert (got == np.array(single)).all()
        for key, mask in list(zip(keys, got))[::7]:
            rows = [inc.vectors[i] for i in key]
            assert as_int(mask) == sum(1 << i for i, w in enumerate(inc.points) if ref_det_full(ctx, [w] + rows))
        assert not got[-3:-1].any()  # dependent tuples
        # E blocks of m tuples: base AND each block's masks
        blocks = np.array(keys[:60]).reshape(12, 5, k - 1)
        base = got[:12]
        want = base & np.bitwise_and.reduce(got[:60].reshape(12, 5, -1), axis=1)
        assert (HyperplaneIncidence(ctx, k, extra).cut(base, blocks) == want).all()
        # the hyperplanes through v are those cur + [v] adds to cur's
        cur = list(range(n, n + len(extra)))
        cands = inc.extensions()
        vs = [v for v in range(n) if as_int(cands) >> v & 1][:6]

        def spans(arc, w, through=()):
            return [[S + (w,) for S in itertools.combinations(arc, k - 2) if set(through) <= set(S)]]

        for v, w in itertools.combinations(vs, 2):
            running = inc.cut(cands, spans(cur, w))
            assert (inc.cut(running, spans(cur + [v], w, [v])) == inc.cut(cands, spans(cur + [v], w))).all()


def test_row_cache_collisions_change_no_cut(F7, F9, monkeypatch):
    # the cache of table rows by id tuple: every tuple keyed to one slot,
    # keys that wrap past 2**63, or one slot per point give the same cuts,
    # repeated tuples within a call and across calls included
    for ctx, k in ((F7, 4), (F9, 3)):
        rng = random.Random(ctx.q)
        extra = _gl_image(ctx, shuffled_nrc(ctx, k, 2)[: k + 1], rng)
        n = len(list(projective_points(ctx, k)))
        keys = np.array([rng.sample(range(n + len(extra)), k - 1) for _ in range(40)] * 2)
        full = HyperplaneIncidence(ctx, k).full
        want = np.array([HyperplaneIncidence(ctx, k, extra).cut(full, [[key]])[0] for key in keys])
        for radix in (np.zeros(k - 1, dtype=np.int64), np.full(k - 1, 3 << 61)):
            inc = HyperplaneIncidence(ctx, k, extra)
            inc._radix = radix
            assert (inc.cut(full, keys[:50, None]) == want[:50]).all()
            assert (inc.cut(full, keys[::-1, None]) == want[::-1]).all()
    monkeypatch.setattr(arcgeom, "ROW_CACHE_SLOTS", 1)
    for p, h, k, g, target in ((3, 2, 3, 5, None), (7, 1, 4, 6, 7)):
        for arc, ref in _search_case(p, h, k, g, target):
            assert same_search(complete_search(arc, target_size=target), ref)


# ----------------------------------------------------------------------
# the small-set elimination against the scalar eliminations it replaced
# ----------------------------------------------------------------------

KERNEL_FIELDS = [(3, 1), (13, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 4)]


def _random_sets(ctx, rng, count, m, k):
    """count stacks of m vectors of length k, about a fifth of them
    dependent: a zero row, a repeated row or a combination of two rows."""
    sets = []
    for i in range(count):
        rows = [[rng.randrange(ctx.q) for _ in range(k)] for _ in range(m)]
        if m and i % 5 == 0:
            kind = rng.randrange(3)
            if kind == 0:
                rows[rng.randrange(m)] = [0] * k
            elif m >= 2 and kind == 1:
                rows[0] = [ctx.mul(rng.randrange(ctx.q), x) for x in rows[-1]]
            elif m >= 3:
                a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
                rows[1] = [ctx.add(ctx.mul(a, x), ctx.mul(b, y)) for x, y in zip(rows[0], rows[-1])]
        sets.append(rows)
    return sets


@pytest.mark.parametrize("p,h", KERNEL_FIELDS)
def test_cofactor_normals_match_scalar_reference(p, h):
    ctx = FieldCtx(p, h)
    rng = random.Random(p * 10 + h)
    for k in range(2, 7):
        unit = [tuple(int(i == j) for i in range(k)) for j in range(k)]
        sets = _random_sets(ctx, rng, 40, k - 1, k)
        want = [[ref_det_full(ctx, [e] + rows) for e in unit] for rows in sets]
        assert cofactor_normals(ctx, sets).tolist() == want
        # dependent sets come out as zero rows, and some are there
        assert any(not any(n) for n in want)


@pytest.mark.parametrize("p,h", KERNEL_FIELDS)
def test_det_full_matches_scalar_reference(p, h):
    ctx = FieldCtx(p, h)
    rng = random.Random(p * 100 + h)
    assert det_full(ctx, [(0,)]) == 0
    for x in range(ctx.q):
        assert det_full(ctx, [(x,)]) == x
    for k in range(2, 7):
        for rows in _random_sets(ctx, rng, 25, k, k):
            assert det_full(ctx, rows) == ref_det_full(ctx, rows)


def test_validate_arc_witness_matches_reference(F11, F13, F9):
    conic = moment_curve(F13, 3, range(8))
    nrc6 = moment_curve(F13, 6, range(9))
    cases = [
        (F13, 3, conic),
        (F13, 3, conic[:4] + [conic[2]] + conic[4:]),           # duplicate point
        (F13, 3, conic[:5] + [tuple(F13.mul(3, x) for x in conic[1])]),  # rescaled copy
        (F13, 3, conic[:3] + [(0, 0, 0)] + conic[3:]),           # zero vector
        (F13, 3, conic[:6] + [(1, 1, 1)]),                       # three collinear points
        (F13, 6, nrc6),
        (F13, 6, nrc6[:7] + [tuple(F13.add(a, b) for a, b in zip(nrc6[0], nrc6[1]))]),
        (F11, 6, moment_curve(F11, 6, range(7)) + [(0,) * 6]),
        (F9, 3, moment_curve(F9, 3, range(9))[:6] + [(1, 1, 0)]),
    ]
    witnesses = []
    for ctx, k, pts in cases:
        got = validate_arc(ctx, k, pts)
        assert got == ref_validate_arc(ctx, k, pts)
        witnesses.append(got)
    assert witnesses[0] is None and witnesses[5] is None
    assert witnesses[1] == (0, 2, 4)
    assert witnesses[3] == (3,)
    assert all(w is not None for i, w in enumerate(witnesses) if i not in (0, 5))


def _shipped_and_images(arcs):
    for arc in arcs:
        yield arc
        yield gl_image(arc, arc.ctx.q)


def assert_pencil_identity(ctx, rows, b1, b2, rng):
    """det(e_j, x, A) = beta2(x) b1[j] - beta1(x) b2[j] for every j, A the
    given rows and beta(x) = (b1.x, b2.x), the left side by the scalar
    determinant: at x = e_u for every u and at three random x."""
    k = len(b1)
    b1, b2 = b1.tolist(), b2.tolist()
    unit = lambda j: tuple(int(i == j) for i in range(k))
    xs = [unit(u) for u in range(k)] + [tuple(rng.randrange(ctx.q) for _ in range(k)) for _ in range(3)]
    for x in xs:
        beta1, beta2 = dot(ctx, b1, x), dot(ctx, b2, x)
        got = [ctx.add(ctx.mul(beta2, c1), ctx.neg(ctx.mul(beta1, c2))) for c1, c2 in zip(b1, b2)]
        assert got == [ref_det_full(ctx, [unit(j), x, *rows]) for j in range(k)]


def test_pencil_basis_matches_reference_completion(
    conic_f5, arc_q11, arc_q13_size9, hyperconic_f8, arc_q81, F7
):
    nrc = ArcConfig(F7, 4, moment_curve(F7, 4, range(7)))
    rng = random.Random(22)
    for arc in _shipped_and_images([conic_f5, arc_q11, arc_q13_size9, hyperconic_f8, nrc, arc_q81]):
        ctx, k = arc.ctx, arc.k
        subsets = list(subset_iter(arc.size, k - 2))[:12]
        # one batched call for all subsets
        for A, b1, b2 in zip(subsets, *_pencil_basis(arc.ctx, arc.points, subsets)):
            for x in arc.points_at(A):
                assert dot(ctx, b1, x) == dot(ctx, b2, x) == 0
            assert_pencil_identity(ctx, arc.points_at(A), b1, b2, rng)
    with pytest.raises(ValueError):
        _pencil_basis(F7, [(1, 2, 3, 4), (2, 4, 6, 1)], [(0, 1)])
    with pytest.raises(ValueError):
        _pencil_basis(F7, nrc.points, [(0,)])


@pytest.mark.parametrize("p,h,k", [(13, 1, 3), (2, 3, 3), (7, 1, 4), (3, 2, 5), (3, 4, 6)])
def test_stacked_pencil_basis_matches_per_arc_calls_and_reference(p, h, k):
    # a (B, |G|, k) stack of arcs takes one elimination of its B * C(|G|, k-2)
    # subsets A, and each arc's b1, b2 are those of its own call: with
    # beta(x) = (b1.x, b2.x), det(u, x, A) = beta2(x) b1.u - beta1(x) b2.u,
    # sign included, by the scalar determinant, and they span the pencil of
    # forms vanishing on A
    ctx = FieldCtx(p, h)
    rng = random.Random(p * k + h)
    g = k + 3
    arcs = [ArcConfig(ctx, k, _gl_image(ctx, shuffled_nrc(ctx, k, seed)[:g], rng)) for seed in range(3)]
    subsets = list(subset_iter(g, k - 2))
    stack = np.array([arc.points for arc in arcs])
    got = _pencil_basis(ctx, stack, subsets)
    assert [x.shape for x in got] == [(3, len(subsets), k)] * 2
    w = _projective_line(ctx)
    for i, arc in enumerate(arcs):
        for x, y in zip(got, _pencil_basis(ctx, arc.points, subsets)):
            assert x[i].tolist() == y.tolist()
        for s in range(0, len(subsets), 1 + len(subsets) // 12):
            b1, b2 = (x[i, s] for x in got)
            assert_pencil_identity(ctx, arc.points_at(subsets[s]), b1, b2, rng)
            members = _pencil_members(ctx, b1, b2, *w).tolist()
            assert sorted(map(tuple, members)) == ref_pencil_through(subsets[s], arc)
    # one arc of the stack with a zero vector: every A through it is dependent
    stack[1, 0] = 0
    with pytest.raises(ValueError, match="does not span"):
        _pencil_basis(ctx, stack, subsets)


def test_pencils_and_cosecants_match_scalar_reference(
    conic_f5, arc_q11, arc_q13_size6, arc_q13_size9, hyperconic_f8, hyperconic_f4, arc_q81
):
    arcs = [conic_f5, arc_q11, arc_q13_size6, arc_q13_size9, hyperconic_f8, hyperconic_f4]
    for arc in _shipped_and_images(arcs + [arc_q81]):
        subsets = list(subset_iter(arc.size, arc.k - 2))
        for A in subsets if arc.size < 11 else subsets[::23]:
            assert sorted(pencil_members(arc, A)) == ref_pencil_through(A, arc)
            assert list(tangent_fn(arc, A).forms) == ref_cosecants_through(A, arc)
    # k-1 dependent points: the other one lies on every member
    flat = ArcConfig(FieldCtx(7), 3, [(1, 2, 3), (2, 4, 6)])
    (b1,), (b2,) = _pencil_basis(flat.ctx, flat.points, [(0,)])
    assert _cosecants(flat, (0,), b1, b2) == ref_cosecants_through((0,), flat) == []


@pytest.mark.parametrize("p,h,bad", [(13, 1, -1), (13, 1, 14), (13, 1, 13), (3, 2, 9), (3, 2, -2)])
def test_arcconfig_rejects_coordinates_outside_the_field(p, h, bad):
    ctx = FieldCtx(p, h)
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, bad)]
    for check in (True, False):
        with pytest.raises(ValueError, match="outside"):
            ArcConfig(ctx, 3, pts, check=check)
    ArcConfig(ctx, 3, pts[:3] + [(1, 1, ctx.q - 1)])
