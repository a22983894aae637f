import collections
import itertools
import math
import random
import tracemalloc
from math import comb

import numpy as np
import pytest

from arclab import arcgeom, certifier, exactmat
from arclab.arcgeom import (
    ArcConfig,
    ArcInputError,
    BudgetExceededError,
    HyperplaneIncidence,
    InvariantError,
    complete_search,
    subset_iter,
)
from arclab.certifier import (
    RANDOM_ARC_ATTEMPTS,
    PropertyWMissingError,
    PropertyWReport,
    SizeOutOfRangeError,
    _random_arc,
    _star_geometry,
    bound_scan,
    build_Mn,
    conjecture_scan,
    corollary2_route,
    null_basis,
    property_w,
    recover_cosecants,
    theorem1_test,
)
from arclab._vecops import VecOps
from arclab.cli import cmd_analyze, cmd_conjecture, cmd_cosecants
from arclab.exactmat import GFMatrix, left_null_basis
from arclab.gf import FieldCtx
from arclab.tangentfns import _lagrange_sum

from conftest import (
    annihilates,
    canonical_left_null,
    colex_subsets,
    dot,
    gl_image,
    hyperoval,
    moment_curve,
    prefix_arc,
    recovers_extension,
    ARCS_DIR,
    ref_det_full,
    ref_alpha,
    ref_left_null,
    ref_left_null_dense,
    ref_build_Mn,
    ref_star_index,
    ref_cosecants_through,
    ref_interpolate_fA,
    ref_P_coord,
    ref_property_w,
    ref_random_arc,
    ref_recover_cosecants,
    same_left_null,
    shuffled_nrc,
    vG_check,
    vg_vector,
)


# ----------------------------------------------------------------------
# matrix construction
# ----------------------------------------------------------------------


def entry_oracle(arc, n, C, A, E):
    """Independent recomputation of the (C, (A, E)) entry."""
    ctx = arc.ctx
    if not set(A) < set(C):
        return 0
    acc = 1
    for u in range(arc.size):
        if u not in E:
            acc = ctx.mul(acc, ref_det_full(ctx, arc.points_at((u,) + C)))
    return acc


def test_build_shapes(arc_q11, arc_q13_size6):
    ref = ref_build_Mn(arc_q11, 2)
    assert (len(ref.rows), len(ref.cols)) == (21, 105)
    assert len(ref.rows) == comb(7, 2)
    assert len(ref.cols) == comb(7, 5) * comb(5, 1)
    ref0 = ref_build_Mn(arc_q13_size6, 0)
    assert (len(ref0.rows), len(ref0.cols)) == (15, 6)
    # the library keeps n+1 columns per (k-2)-subset A
    M = build_Mn(arc_q11, 2)
    assert (M.matrix.rows, M.matrix.cols) == (21, 3 * comb(7, 1))
    M0 = build_Mn(arc_q13_size6, 0)
    assert (M0.matrix.rows, M0.matrix.cols) == (15, 6)


def test_build_entry_law(arc_q13_size6, arc_q11):
    rng = random.Random(31)
    for arc, n in [(arc_q13_size6, 1), (arc_q13_size6, 2), (arc_q11, 2)]:
        ref = ref_build_Mn(arc, n)
        for _ in range(150):
            i = rng.randrange(len(ref.rows))
            j = rng.randrange(len(ref.cols))
            A, E = ref.cols[j]
            assert ref.data[i][j] == entry_oracle(arc, n, ref.rows[i], A, E)


def test_build_block_law(arc_q13_size6, arc_q11, hyperconic_f8, arc_q81):
    # column i of A's block: s_e^n beta1(e)^i beta2(e)^(n-i) in row A+e,
    # s_e = (-1)^{#{a in A : a < e}}, zero off the star; the blocks run in
    # lex order of A
    for arc, n in [(arc_q13_size6, 2), (arc_q11, 3), (hyperconic_f8, 4), (arc_q81, 1)]:
        ctx = arc.ctx
        M = build_Mn(arc, n)
        want = [[0] * M.matrix.cols for _ in M.rows]
        lex = sorted(M.subsets)
        for s, A in enumerate(M.subsets):
            b1, b2 = M.pencils[s].tolist()
            assert all(dot(ctx, b, x) == 0 for b in (b1, b2) for x in arc.points_at(A))
            for e in range(arc.size):
                if e in A:
                    continue
                x = arc.points[e]
                sign = (-1) ** (n * sum(a < e for a in A))
                row = want[M.rows.index(tuple(sorted(A + (e,))))]
                for i in range(n + 1):
                    val = ctx.mul(ctx.pow(dot(ctx, b1, x), i), ctx.pow(dot(ctx, b2, x), n - i))
                    row[lex.index(A) * (n + 1) + i] = val if sign > 0 else ctx.neg(val)
        assert M.matrix.data.tolist() == want


def test_build_M0_is_inclusion_pattern(arc_q13_size6):
    ref = ref_build_Mn(arc_q13_size6, 0)
    for j, (A, E) in enumerate(ref.cols):
        assert E == tuple(range(6))
        for i, C in enumerate(ref.rows):
            want = 1 if set(A) < set(C) else 0
            assert ref.data[i][j] == want
    # at n = 0 the library's blocks are the paper's columns
    assert build_Mn(arc_q13_size6, 0).matrix.data.tolist() == ref.data


def test_build_errors(arc_q13_size6):
    with pytest.raises(SizeOutOfRangeError):
        build_Mn(arc_q13_size6, -1)
    with pytest.raises(SizeOutOfRangeError):
        build_Mn(arc_q13_size6, 4)  # |G| - k = 3


def test_index_round_trips(arc_q11):
    ref = ref_build_Mn(arc_q11, 2)
    assert len({pair: j for j, pair in enumerate(ref.cols)}) == len(ref.cols)
    M = build_Mn(arc_q11, 2)
    assert M.rows == ref.rows
    assert M.subsets == colex_subsets(7, 1)
    for s, A in enumerate(M.subsets):
        assert M.others[s].tolist() == [x for x in range(7) if x not in A]
        for x, r in zip(M.others[s].tolist(), M.stars[s].tolist()):
            assert M.rows[r] == tuple(sorted(A + (x,)))


SHIPPED_ARCS = ["conic_f5", "hyperconic_f8", "q11_size7", "q13_size6", "q13_size9", "q81_size11"]


@pytest.mark.parametrize("name", SHIPPED_ARCS)
def test_build_null_space_matches_reference(name):
    # every n (the paper-literal M_n has at most 11,550 columns), on the
    # shipped arc and on a GL image of it (q = 81 at n = 1 only)
    from arclab.cli import parse_arc_file

    arc = parse_arc_file((ARCS_DIR / f"{name}.arc").read_text())
    image = gl_image(arc, 5)
    cases = [(arc, n) for n in range(arc.size - arc.k + 1)]
    cases += [(image, n) for n in ((1,) if arc.ctx.q == 81 else range(arc.size - arc.k + 1))]
    for G, n in cases:
        ref = ref_build_Mn(G, n)
        M = build_Mn(G, n)
        assert M.matrix.cols == (n + 1) * comb(G.size, G.k - 2)
        assert same_left_null(G.ctx, M.matrix.data, ref.data), (name, n)


@pytest.mark.parametrize("image", [False, True])
def test_q81_left_null_basis_independent_checks(arc_q81, image):
    # M_0..M_3 of the q = 81 arc or a GL image: every basis vector
    # annihilates M under the scalar oracle, the basis is independent (its
    # own left null space is zero), and its size is rows - rank(M^T), with
    # rank(M^T) = cols - nullity(M^T) counted on another matrix
    G = gl_image(arc_q81, 5) if image else arc_q81
    for n in range(4):
        M = build_Mn(G, n).matrix
        null = left_null_basis(M)
        rows = M.data.tolist()
        assert all(annihilates(G.ctx, w, rows) for w in null.basis.tolist())
        assert left_null_basis(GFMatrix(G.ctx, null.basis)).nullity == 0
        rank_t = M.cols - left_null_basis(GFMatrix(G.ctx, M.data.T)).nullity
        assert null.nullity == M.rows - rank_t


def test_star_index_matches_the_dict_listing():
    # colex-rank arithmetic gives the same index as looking up each sorted
    # row tuple, for every 3 <= k <= |G| <= 12
    for g in range(3, 13):
        for k in range(3, g + 1):
            rows, subsets, *arrays = certifier._star_index(g, k)
            ref_rows, ref_subsets, *ref_arrays = ref_star_index(g, k)
            assert rows == ref_rows and subsets == ref_subsets, (g, k)
            assert all(type(s) is tuple for s in rows + subsets)
            for a, ref in zip(arrays, ref_arrays):
                assert a.dtype == ref.dtype and np.array_equal(a, ref), (g, k)
                assert not a.flags.writeable


def test_left_null_basis_matches_dense_loop():
    # the column-sparse pivot steps change no bit of the basis: all 34
    # (arc, n) cases of the shipped arcs, and every n of a dense GL image
    # of the q = 81 arc
    from arclab.cli import parse_arc_file

    arcs = {name: parse_arc_file((ARCS_DIR / f"{name}.arc").read_text()) for name in SHIPPED_ARCS}
    cases = [(arc, n) for arc in arcs.values() for n in range(arc.size - arc.k + 1)]
    assert len(cases) == 34
    cases += [(gl_image(arcs["q81_size11"], 17), n) for n in range(6)]
    for G, n in cases:
        M = build_Mn(G, n).matrix
        assert np.array_equal(left_null_basis(M).basis, ref_left_null_dense(M)), (G, n)


def test_blocks_run_in_lex_order_of_A():
    # the subsets A, one block each, run in lex order while the rows run in
    # colex order, for every 3 <= k <= |G| <= 12
    for g in range(3, 13):
        for k in range(3, g + 1):
            rows, subsets = certifier._star_index(g, k)[:2]
            assert subsets == list(itertools.combinations(range(g), k - 2)), (g, k)
            assert rows == colex_subsets(g, k - 1), (g, k)


def test_left_null_basis_does_not_depend_on_column_order():
    # stable pivots: the basis is fixed by the row order alone, so random
    # column permutations of M_n give it bit for bit, on every n of the
    # shipped arcs and at n = 1, 2 of a dense GL image of the q = 81 arc
    from arclab.cli import parse_arc_file

    arcs = {name: parse_arc_file((ARCS_DIR / f"{name}.arc").read_text()) for name in SHIPPED_ARCS}
    cases = [(arc, n) for arc in arcs.values() for n in range(arc.size - arc.k + 1)]
    cases += [(gl_image(arcs["q81_size11"], 17), n) for n in (1, 2)]
    rng = np.random.default_rng(0)
    for G, n in cases:
        M = build_Mn(G, n).matrix
        want = left_null_basis(M).basis
        for _ in range(2):
            moved = GFMatrix(G.ctx, M.data[:, rng.permutation(M.cols)])
            assert np.array_equal(left_null_basis(moved).basis, want), (G, n)


def assert_production_basis(G, n):
    # the basis every answer reads equals the sparse kernel's on a plain
    # matrix of M_n's data, and the dense loop's in canonical form, bit for
    # bit (the dense loop exchanges pivots, so on the k = 4 prefixes and
    # the GF(81) ones its own basis is another basis of the same space)
    M = build_Mn(G, n)
    got = null_basis(M).basis
    plain = GFMatrix(G.ctx, M.matrix.data.copy())
    assert got.dtype == np.int64 and got.flags.c_contiguous, (G, n)
    assert np.array_equal(got, left_null_basis(plain).basis), (G, n)
    assert np.array_equal(got, canonical_left_null(G.ctx, ref_left_null_dense(plain))), (G, n)
    assert null_basis(M) is M._null


def test_star_interpolation_basis_matches_the_eliminations():
    # the 34 (arc, n) cases of the shipped arcs, every n of a dense GL
    # image of the q = 81 arc, and curve prefixes with |G| = k and with
    # t = 0 at k = 3 and k = 4, over odd and even q
    from arclab.cli import parse_arc_file

    arcs = {name: parse_arc_file((ARCS_DIR / f"{name}.arc").read_text()) for name in SHIPPED_ARCS}
    cases = [(arc, n) for arc in arcs.values() for n in range(arc.size - arc.k + 1)]
    assert len(cases) == 34
    cases += [(gl_image(arcs["q81_size11"], 17), n) for n in range(6)]
    for p, h in ((13, 1), (3, 2), (2, 3)):
        ctx = FieldCtx(p, h)
        for k in (3, 4):
            for g in (k, k + 3):
                G = ArcConfig(ctx, k, shuffled_nrc(ctx, k, g)[:g])
                cases += [(G, n) for n in range(g - k + 1)]
    for G, n in cases:
        assert_production_basis(G, n)


@pytest.mark.parametrize("g,n", [(13, 2), (14, 3)])
def test_star_interpolation_basis_on_gf81_curve_prefixes(F81, g, n):
    # seed-13 prefixes of the GF(81) normal rational curve at k = 6:
    # 1,287 x 2,145 and 2,002 x 4,004, nullity 48 and 16
    assert_production_basis(ArcConfig(F81, 6, shuffled_nrc(F81, 6, 13)[:g], check=False), n)


def test_gf81_null_basis_builds_no_dense_mn(F81):
    # build_Mn and null_basis on the seed-13 GF(81) curve prefix at
    # |G| = 14, n = 3, whose M_3 would be 2,002 x 4,004 int64 (64 MB):
    # 88 MB peak under tracemalloc while build_Mn filled it, 28 MB without
    G = ArcConfig(F81, 6, shuffled_nrc(F81, 6, 13)[:14], check=False)
    tracemalloc.start()
    try:
        M = build_Mn(G, 3)
        assert null_basis(M).nullity == 16
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M._matrix is None
    assert peak < 50e6, peak


def test_build_mn_refuses_tables_past_the_cap(F81, monkeypatch):
    # 17 points of the GF(81) curve at k = 6: M_0's [R | I] would hold
    # 4,368 x (2,380 + 4,368) = 29.5 M cells and its P 6,188 x 4,368 =
    # 27.0 M; build_Mn refuses before making the star index or geometry
    G = ArcConfig(F81, 6, shuffled_nrc(F81, 6, 13)[:17], check=False)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="needs a table of 29475264 cells"):
            build_Mn(G, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000 and not hasattr(G, "_star_geometry")
    # where D is the larger: M_0 of a 3-point frame at k = 3 has a D of
    # 3 x 2^2 = 12 cells and an [R | I] of 1 x (3 + 1)
    arc = ArcConfig(F81, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    monkeypatch.setattr(certifier, "MN_CELLS", 12)
    build_Mn(arc, 0)
    monkeypatch.setattr(certifier, "MN_CELLS", 11)
    with pytest.raises(BudgetExceededError, match="needs a table of 12 cells, over 11"):
        build_Mn(arc, 0)


def test_star_tables_give_the_lagrange_denominators():
    # Q_A(e) = prod_{u != e} D(u, e) over A's star, read off the star
    # table D with its diagonal set to 1, equals the Lagrange routine with
    # unit weights at the star's own beta; D is alternating
    from arclab.cli import parse_arc_file

    arcs = [parse_arc_file((ARCS_DIR / f"{name}.arc").read_text()) for name in SHIPPED_ARCS]
    arcs.append(gl_image(arcs[SHIPPED_ARCS.index("q81_size11")], 17))
    for G in arcs:
        ops = G.ctx.vec_ops()
        _, _, beta, D = _star_geometry(G)
        m = G.size - G.k + 2
        assert not D.flags.writeable and D.shape == (len(beta), m, m)
        assert np.array_equal(D, ops.neg(D.swapaxes(1, 2)))
        unit = D.copy()
        unit[:, np.arange(m), np.arange(m)] = 1
        ones = np.ones(m, dtype=np.int64)
        want = _lagrange_sum(G.ctx, beta, ones, beta[:, 0], beta[:, 1])
        assert np.array_equal(ops.prod(unit.swapaxes(1, 2)), want), G


def test_star_interpolation_refuses_dependent_star_points(F5):
    # three collinear points: in the star of one of them the other two have
    # proportional beta, so some Q_A(e) is 0 and the interpolation would
    # divide by it; the star geometry refuses them, so building M_n raises
    # at every n, and no geometry is kept
    G = ArcConfig(F5, 3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], check=False)
    for n in range(G.size - G.k + 1):
        with pytest.raises(InvariantError, match="pairwise independent"):
            build_Mn(G, n)
        assert getattr(G, "_star_geometry", None) is None
    with pytest.raises(InvariantError):
        bound_scan(G)


def test_q81_null_basis_work_guard(arc_q81, monkeypatch):
    # each command on the q = 81 arc at n = 1 makes one kernel call, on the
    # 126 x 324 residual (192,584 cell updates), and none on M_1's 462 rows
    # (274 k cell updates for [M | I])
    null, addmul = exactmat.left_null_basis, VecOps.addmul
    shapes, cells, inside = [], [], []

    def counting_null(matrix):
        shapes.append(matrix.data.shape)
        inside.append(True)
        try:
            return null(matrix)
        finally:
            inside.pop()

    def counting_addmul(self, block, f, row):
        if inside:
            cells.append(block.size)
        return addmul(self, block, f, row)

    monkeypatch.setattr(certifier, "left_null_basis", counting_null)
    monkeypatch.setattr(exactmat, "left_null_basis", counting_null)
    monkeypatch.setattr(VecOps, "addmul", counting_addmul)
    for command in (cmd_cosecants, cmd_analyze):
        shapes.clear()
        cells.clear()
        command(arc_q81, 1)
        assert shapes == [(126, 324)], command
        assert sum(cells) <= 200_000, command


def test_q81_left_null_fill_guard(arc_q81, monkeypatch):
    # bottom-up elimination with M_1's blocks in lex order of A, each step
    # updating only the columns where its pivot row is nonzero: 274 k cell
    # updates, against 896 k with the blocks in colex order (932 k with
    # exchanged pivots too), 4.6 M over the pivot row's whole width and
    # 27.4 M top-down
    M = build_Mn(arc_q81, 1).matrix
    cells = []
    addmul = VecOps.addmul

    def counting(self, block, f, row):
        cells.append(block.size)
        return addmul(self, block, f, row)

    monkeypatch.setattr(VecOps, "addmul", counting)
    left_null_basis(M)
    assert sum(cells) <= 5_000_000
    assert sum(cells) <= 1_000_000
    assert sum(cells) <= 350_000


def test_q81_recovery_kernel_call_guard(arc_q81, monkeypatch):
    # with M_n and its Property W report built, recovery reads its ratios
    # off M_n's pencil coordinates: no small-set elimination, against one
    # over all 462 rows when it built its own determinant table
    M = build_Mn(arc_q81, 1)
    assert property_w(M).holds
    calls = []
    eliminate = arcgeom._eliminate

    def counting(ctx, sets):
        calls.append(len(sets))
        return eliminate(ctx, sets)

    monkeypatch.setattr(arcgeom, "_eliminate", counting)
    pred = recover_cosecants(M)
    assert len(pred.per_A) == 330
    assert calls == []


def test_q81_recovery_pencil_call_guard(arc_q81, monkeypatch):
    # the co-secant forms of the split subsets (7 of the 330) come from one
    # _pencil_members call over every (A, zero) pair, not one call per A
    M = build_Mn(arc_q81, 1)
    calls = []
    members = certifier._pencil_members

    def counting(ctx, b1, b2, w1, w2):
        calls.append(len(w1))
        return members(ctx, b1, b2, w1, w2)

    monkeypatch.setattr(certifier, "_pencil_members", counting)
    pred = recover_cosecants(M)
    split = sum(p.status == "ok" for p in pred.per_A.values())
    assert calls == [pred.t * split] == [4 * 7]


def test_eliminations_leave_their_inputs_unchanged():
    # left_null_basis eliminates a private copy: M_n's data is what it was
    # before the call, on every n of every shipped arc
    from arclab.cli import parse_arc_file

    for name in SHIPPED_ARCS:
        G = parse_arc_file((ARCS_DIR / f"{name}.arc").read_text())
        for n in range(G.size - G.k + 1):
            M = build_Mn(G, n).matrix
            data = M.data.copy()
            left_null_basis(M)
            assert np.array_equal(M.data, data), (name, n)


# ----------------------------------------------------------------------
# Theorem 1 and the bound scan
# ----------------------------------------------------------------------


def test_paper_rank_facts_q11(arc_q11):
    M = build_Mn(arc_q11, 2)
    assert M.matrix.rows - left_null_basis(M.matrix).nullity == 20
    assert M.matrix.rows == 21
    cert = theorem1_test(M)
    assert cert is not None
    assert cert.forbidden_size == 11


def test_theorem1_at_max_n_odd_q(arc_q13_size6, arc_q11, conic_f5):
    # q odd: M_{|G|-k} always certifies (inclusion-matrix rank argument)
    for arc in (arc_q13_size6, arc_q11, prefix_arc(conic_f5, 5)):
        n = arc.size - arc.k
        assert theorem1_test(build_Mn(arc, n)) is not None


def test_bound_scan_q11(arc_q11):
    scan = bound_scan(arc_q11)
    assert scan.n0 == 2
    assert scan.forbidden_size == 11
    assert scan.max_size_bound == 10
    # cross-validation: the arc really does extend to 10 and not 11
    res = complete_search(arc_q11)
    assert max(res.complete_sizes) == 10


def test_bound_scan_size_k_arc(F11):
    frame = ArcConfig(F11, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    scan = bound_scan(frame)
    assert scan.n0 == 0


def test_bound_scan_rejects_fewer_than_k_points(F13):
    # no n has 0 <= n <= |G|-k: an empty scan is no even-q audit
    with pytest.raises(SizeOutOfRangeError, match=r"\|G\| >= k"):
        bound_scan(ArcConfig(F13, 3, [(1, 0, 0), (0, 1, 0)]))


def test_bound_scan_even_q(hyperconic_f8):
    arc = prefix_arc(hyperconic_f8, 6)
    scan = bound_scan(arc)
    assert (scan.n0, scan.certificate, scan.forbidden_size, scan.max_size_bound) == (None,) * 4
    assert [n for n, *_ in scan.trace] == list(range(arc.size - arc.k + 1))
    for n, _, _, nullity in scan.trace:
        assert nullity == comb(arc.size - n - 1, arc.k - 1)


@pytest.mark.parametrize("p,h,k,g", [(3, 4, 6, 11), (3, 4, 5, 10), (7, 2, 4, 9), (3, 3, 4, 9)])
def test_bound_scan_sound_on_normal_rational_curve_subsets(p, h, k, g):
    # a subset of the normal rational curve extends to its q+1 points, so
    # no certificate may forbid q+1 (the bound found is exactly q+1, at
    # n0 = 2, 3, 4 and 4)
    ctx = FieldCtx(p, h)
    G = ArcConfig(ctx, k, shuffled_nrc(ctx, k, g)[:g])
    for arc in (G, gl_image(G, 3)):
        assert bound_scan(arc).max_size_bound >= ctx.q + 1


def test_bound_scan_sound_above_desk_scale(F81):
    # 13 points of the GF(81) normal rational curve at k = 6 extend to its
    # q+1 = 82 points, so no n may forbid 82; the scan eliminates M_0..M_4,
    # 1,287 rows and up to 3,575 columns, so one arc and no GL image keep
    # this near 1 s
    G = ArcConfig(F81, 6, shuffled_nrc(F81, 6, 13)[:13])
    scan = bound_scan(G)
    assert scan.max_size_bound >= F81.q + 1
    assert (scan.n0, scan.max_size_bound) == (4, 82)


def test_bound_scan_builds_star_geometry_once(F8, monkeypatch):
    # every M_n of one arc object shares its star geometry, so the whole
    # scan makes one elimination of its 10 subsets A of k-2 = 1 rows, not
    # one per n (8), and not one of the 30 sets (A, e_j)
    arc = ArcConfig(F8, 3, hyperoval(F8))
    calls = []
    eliminate = arcgeom._eliminate

    def counting(ctx, sets):
        calls.append(np.shape(sets))
        return eliminate(ctx, sets)

    monkeypatch.setattr(arcgeom, "_eliminate", counting)
    assert bound_scan(arc).n0 is None
    assert calls == [(10, 1, 3)]
    M0, M1 = build_Mn(arc, 0), build_Mn(arc, 1)
    assert M0.stars is M1.stars and M0.beta is M1.beta
    assert calls == [(10, 1, 3)]


@pytest.mark.parametrize("h,modulus,g", [(4, None, 10), (5, (1, 0, 0, 1, 0, 1), 12)], ids=["q16", "q32"])
def test_bound_scan_sound_on_hyperoval_subsets(h, modulus, g):
    # the conic and its nucleus form a hyperoval of q+2 points, so a subset
    # gets either no certificate or one that still allows q+2
    ctx = FieldCtx(2, h, modulus)
    pts = hyperoval(ctx)
    random.Random(h).shuffle(pts)
    G = ArcConfig(ctx, 3, pts[:g])
    for arc in (G, gl_image(G, 3)):
        scan = bound_scan(arc)
        assert scan.n0 is None or scan.forbidden_size > ctx.q + 2


def test_M0_full_rank_for_small_arcs_when_k_le_p(F5, F7):
    # arcs of size 2k-3 = 3 with k = 3 <= p: M_0 has full row rank
    for ctx in (F5, F7):
        arc = ArcConfig(ctx, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        M = build_Mn(arc, 0)
        assert left_null_basis(M.matrix).nullity == 0 and M.matrix.rows == 3
        assert theorem1_test(M) is not None


# ----------------------------------------------------------------------
# Property W and Corollary 3
# ----------------------------------------------------------------------


def test_property_w_q13_size6(arc_q13_size6):
    assert property_w(build_Mn(arc_q13_size6, 2)).holds
    # the witnesses of the scalar reference, one per subset
    report = ref_property_w(arc_q13_size6, 2)
    assert report.t == 1 and len(report.witnesses) == 6
    need = 6 - 2 - 3 + 1
    for A, wit in report.witnesses.items():
        assert len(wit.partners) >= need
        for y, b in wit.partners:
            assert b != 0


def test_property_w_q13_size9_at_n3_fails(arc_q13_size9):
    # The printed arc does not have the weight-two property at n = 3:
    # M_3 has nullity 2 and the null-basis columns are not proportional
    # for most pairs (verified against three elimination backends).
    M = build_Mn(arc_q13_size9, 3)
    assert left_null_basis(M.matrix).nullity == 2
    report = property_w(M)
    assert not report.holds
    assert len(report.missing) == 7


def test_property_w_trivial_at_size_k_plus_n(conic_f5):
    # |G| = k+n: one partner required, always available
    G = prefix_arc(conic_f5, 5)
    for n in range(0, 3):
        if G.size == G.k + n:
            assert property_w(build_Mn(G, n)).holds
    assert property_w(build_Mn(prefix_arc(conic_f5, 4), 1)).holds
    assert property_w(build_Mn(prefix_arc(conic_f5, 3), 0)).holds


def _property_w_cases():
    """(arc, n) pairs for the Property W comparison: the shipped arcs at
    every n whose M_n has at most 600 columns, their GL images at one n
    each, seeded random arcs over GF(11), GF(13), GF(8) and GF(9) at every
    n, and frame arcs, whose M_0 has nullity 0 over odd q."""
    from arclab.cli import parse_arc_file

    cases = []
    for name, n0 in [("conic_f5", 2), ("hyperconic_f8", 2), ("q11_size7", 2), ("q13_size6", 2), ("q13_size9", 3)]:
        arc = parse_arc_file((ARCS_DIR / f"{name}.arc").read_text())
        for n in range(arc.size - arc.k + 1):
            if comb(arc.size, n) * comb(arc.size - n, arc.k - 2) <= 600:
                cases.append((arc, n))
        cases.append((gl_image(arc, 7), n0))
    rng = random.Random(41)
    for p, h in [(11, 1), (13, 1), (2, 3), (3, 2)]:
        ctx = FieldCtx(p, h)
        for k, size in [(3, 6), (4, 7)]:
            arc = ArcConfig(ctx, k, ref_random_arc(ctx, k, size, rng, 50))
            cases += [(arc, n) for n in range(size - k + 1)]
        for k in (4, 5):
            frame = [tuple(int(i == j) for i in range(k)) for j in range(k)] + [(1,) * k]
            cases.append((ArcConfig(ctx, k, frame), 0))
    return cases


def test_property_w_matches_scalar_reference():
    nullities, outcomes, mixed = set(), set(), 0
    for arc, n in _property_w_cases():
        basis = ref_left_null(arc.ctx, ref_build_Mn(arc, n).data)
        report = property_w(build_Mn(arc, n))
        ref = ref_property_w(arc, n, basis)
        assert (report.holds, report.missing) == (ref.holds, ref.missing)
        nullities.add(len(basis))
        outcomes.add(report.holds)
        zero = [not any(w[c] for w in basis) for c in range(comb(arc.size, arc.k - 1))]
        mixed += any(zero) and not all(zero)
    # nullity 0, null bases with zero and nonzero columns, both outcomes
    assert 0 in nullities and max(nullities) >= 28
    assert mixed and outcomes == {True, False}


def test_property_w_q81_matches_scalar_reference(arc_q81):
    # the reference pair test on the library null basis: M_1 is too large
    # for the scalar elimination
    M = build_Mn(arc_q81, 1)
    report = property_w(M)
    ref = ref_property_w(arc_q81, 1, left_null_basis(M.matrix).basis.tolist())
    assert report.holds and (ref.holds, ref.missing) == (True, ())
    assert len(ref.witnesses) == 330


def test_property_w_without_zero_columns_means_nullity_one():
    # the theorem behind recovery from one vector (recover_cosecants):
    # with no zero left-null basis column, Property W holds exactly when
    # the nullity is 1, on seeded random arcs of k = 3, 4 at every n
    rng = random.Random(18)
    seen = {True: 0, False: 0}
    for p, h in [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1)]:
        ctx = FieldCtx(p, h)
        for k in (3, 4):
            inc = HyperplaneIncidence(ctx, k)
            for size in range(k + 2, min(ctx.q + 1, k + 5) + 1):
                for _ in range(3):
                    arc = ArcConfig(ctx, k, _random_arc(inc, size, rng))
                    for n in range(size - k):
                        M = build_Mn(arc, n)
                        basis = left_null_basis(M.matrix).basis
                        if len(basis) and basis.any(0).all():
                            assert property_w(M).holds == (len(basis) == 1), (arc.points, n)
                            seen[len(basis) == 1] += 1
    assert seen[True] >= 30 and seen[False] >= 200


def test_corollary2_route(arc_q13_size6, arc_q11, F11):
    assert corollary2_route(build_Mn(arc_q13_size6, 2))
    # weight-one exists at (q11, 2): not the corollary situation
    assert not corollary2_route(build_Mn(arc_q11, 2))
    # full-row-rank matrix: nullity 0
    frame = ArcConfig(F11, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert not corollary2_route(build_Mn(frame, 0))


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------


def test_recover_q13_size6_matches_conic(arc_q13_size6, F13):
    res = complete_search(arc_q13_size6, target_size=14)
    assert len(res.arcs) == 1
    S = ArcConfig(F13, 3, res.arcs[0])
    pred = recover_cosecants(build_Mn(arc_q13_size6, 2))
    assert pred.all_split
    for A in subset_iter(6, 1):
        assert sorted(pred.per_A[A].forms) == ref_cosecants_through(A, S)
    # the reference's property-w route, from the witnesses of its own
    # Property W report, gives the same predictions (determinacy)
    pred2 = ref_recover_cosecants(arc_q13_size6, 2, source=ref_property_w(arc_q13_size6, 2))
    assert pred2.per_A == pred.per_A
    # and the library agrees with the scalar recovery prediction by prediction
    assert pred.per_A == ref_recover_cosecants(arc_q13_size6, 2).per_A


def test_recover_matches_scalar_reference_on_q81_gl_image(arc_q81):
    # a GL(6, 81) image of the q=81 arc with rescaled points: dense
    # coordinates, the same 7/330 split count, and every prediction equal
    # to the scalar reference's
    G = gl_image(arc_q81, seed=3)
    M = build_Mn(G, 1)
    pred = recover_cosecants(M)
    assert sum(p.status == "ok" for p in pred.per_A.values()) == 7
    assert pred.per_A == ref_recover_cosecants(G, 1, matrix=M.matrix).per_A


@pytest.mark.parametrize(
    "S_size,g",
    [(11, 9), (11, 10), (13, 8), (12, 8), (14, 7)],
)
def test_recover_from_vg_matches_extension(conic_f13, S_size, g):
    # feed the true v_G of a known extension: recovery must reproduce the
    # extension's co-secants; covers live (t even) and dead (t odd) signs
    assert recovers_extension(prefix_arc(conic_f13, S_size), g)


def test_recover_from_vg_higher_k(F11):
    nrc = ArcConfig(F11, 5, moment_curve(F11, 5, range(11), infinity=True))
    assert recovers_extension(prefix_arc(nrc, 11), 9)  # t = 4, live signs, k = 5


@pytest.mark.parametrize(
    "p,h,k,t,g",
    [(3, 2, 4, 2, 8), (3, 2, 4, 3, 8), (11, 1, 4, 2, 9), (11, 1, 4, 3, 9), (13, 1, 6, 4, 11)],
)
def test_recover_from_vg_even_k(p, h, k, t, g):
    # |A| = k-2 even, unlike the cases above; the last case runs at the
    # q=81 arc's recovery parameters |G| = 11, n = 1, t = 4
    ctx = FieldCtx(p, h)
    S = ArcConfig(ctx, k, shuffled_nrc(ctx, k, seed=0)[: ctx.q + k - 1 - t])
    assert recovers_extension(S, g)


def test_recover_requires_positive_t(arc_q13_size6):
    with pytest.raises(SizeOutOfRangeError):
        recover_cosecants(build_Mn(arc_q13_size6, 3))  # t = 0


def test_recover_without_property_w_raises(arc_q13_size9, monkeypatch):
    # M_3 has nullity 2 and no zero basis column
    with pytest.raises(PropertyWMissingError, match=r"Property W fails for 7 subsets, e.g. \(1,\)"):
        recover_cosecants(build_Mn(arc_q13_size9, 3))
    # Property W there would contradict the theorem: an internal fault
    monkeypatch.setattr(certifier, "property_w", lambda *args: PropertyWReport(()))
    with pytest.raises(InvariantError):
        recover_cosecants(build_Mn(arc_q13_size9, 3))


def test_recover_checks_the_given_vector(arc_q13_size6, arc_q11):
    # the arc lies on a 14-point conic, so M_1 certifies nothing: no false
    # "cannot extend to 13"
    assert theorem1_test(build_Mn(arc_q13_size6, 1)) is None
    # the null vector of q11 at n = 2 is zero at its weight-one row {0,1}
    with pytest.raises(PropertyWMissingError, match=r"zero left-null basis column at row \(0, 1\)"):
        recover_cosecants(build_Mn(arc_q11, 2))


def test_recovery_refuses_an_evaluation_past_the_cap(arc_q81, monkeypatch):
    # every f_A is evaluated on PG(1, q): C(11, 4) (81+1) = 27,060 cells on
    # q81 M_1, checked before any of them is built
    M = build_Mn(arc_q81, 1)
    null_basis(M)
    monkeypatch.setattr(certifier, "MN_CELLS", 330 * 82 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="needs a table of 27060 cells, over 27059"):
            recover_cosecants(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000
    monkeypatch.setattr(certifier, "MN_CELLS", 330 * 82)
    pred = recover_cosecants(M)
    assert sum(p.status == "ok" for p in pred.per_A.values()) == 7


# ----------------------------------------------------------------------
# v_G
# ----------------------------------------------------------------------


def test_vg_annihilates(conic_f5, conic_f13, arc_q13_size9, F13):
    assert vG_check(conic_f5, 5, 1)
    assert vG_check(conic_f5, 4, 0)
    res = complete_search(arc_q13_size9, target_size=12)
    S12 = ArcConfig(F13, 3, res.arcs[0])
    assert vG_check(S12, 9, 3)
    assert vG_check(S12, 10, 4)
    assert vG_check(conic_f13, 7, 3)


def test_vg_coordinates_nonzero_and_perturbation(conic_f5, F5):
    v = vg_vector(conic_f5, 5)
    assert all(x != 0 for x in v)
    G = prefix_arc(conic_f5, 5)
    M = build_Mn(G, 1)
    # perturb one coordinate: the product must become nonzero somewhere
    bad = list(v)
    bad[0] = F5.mul(bad[0], 2)
    assert annihilates(F5, v, M.matrix.data.tolist())
    assert not annihilates(F5, bad, M.matrix.data.tolist())


def test_vg_vector_matches_scalar_reference(conic_f5, hyperconic_f8, F13, F81):
    # alpha_C by the chain formula and P_C by scalar determinants, on a
    # conic, a hyperoval (t = 0) and shuffled normal rational curves
    nrc13 = ArcConfig(F13, 4, shuffled_nrc(F13, 4, seed=13), check=False)
    nrc81 = ArcConfig(F81, 6, shuffled_nrc(F81, 6, seed=81), check=False)
    for S, g in ((conic_f5, 5), (hyperconic_f8, 7), (nrc13, 9), (nrc81, 11)):
        ctx, G = S.ctx, prefix_arc(S, g)
        want = tuple(ctx.mul(ref_alpha(S, C), ref_P_coord(G, C)) for C in colex_subsets(g, S.k - 1))
        assert vg_vector(S, g) == want


# ----------------------------------------------------------------------
# even q and the conjecture scan
# ----------------------------------------------------------------------


def even_nullity_check(M):
    """The even-q nullity law: M_n has nullity C(|G|-n-1, k-1) exactly."""
    return left_null_basis(M.matrix).nullity == comb(M.arc.size - M.n - 1, M.arc.k - 1)


def test_even_nullity_law(hyperconic_f8, hyperconic_f4, F4):
    arc = prefix_arc(hyperconic_f8, 6)
    assert even_nullity_check(build_Mn(arc, 1))
    assert even_nullity_check(build_Mn(arc, 0))
    # |G| = k+n: nullity 1
    assert even_nullity_check(build_Mn(prefix_arc(hyperconic_f4, 4), 1))
    # q=4, |G|=5, n=0: nullity C(4,2) = 6
    arc45 = prefix_arc(hyperconic_f4, 5)
    M = build_Mn(arc45, 0)
    assert left_null_basis(M.matrix).nullity == comb(4, 2) == 6
    assert even_nullity_check(M)


def test_conjecture_scan_k3(F5):
    res = conjecture_scan(F5, 3, 0)
    assert res.mode == "exhaustive"
    assert res.in_range
    assert res.total == 1  # every 3-arc is equivalent to the standard basis
    assert res.certified == res.total
    assert res.fraction == 1.0
    res1 = conjecture_scan(F5, 3, 1)
    assert res1.certified == res1.total
    assert not res1.counterexamples


def test_conjecture_scan_sampled_mode_deterministic(F5):
    a = conjecture_scan(F5, 3, 2, budget=1, samples=12, seed=42)
    b = conjecture_scan(F5, 3, 2, budget=1, samples=12, seed=42)
    assert a.mode == b.mode == "sampled"
    assert a.total == 12
    assert a.certified == b.certified
    assert a.counterexamples == b.counterexamples
    assert a.certified == a.total  # within the conjectured range


def test_conjecture_scan_exhaustive_frame_completions(F5):
    # n = 2: arcs of size 5 = k+2 enumerated as frame completions
    res = conjecture_scan(F5, 3, 2, budget=50_000)
    assert res.mode == "exhaustive"
    assert res.total > 1
    assert res.certified == res.total


def test_conjecture_scan_above_q_plus_k_minus_1():
    # size 9 > q+k-1 = 7: no such arc exists, so the enumeration is empty
    # and needs no node budget
    for kwargs in ({}, {"budget": 0, "samples": 1}):
        res = conjecture_scan(FieldCtx(3), 5, 2, **kwargs)
        assert (res.mode, res.arc_size, res.total, res.certified) == ("exhaustive", 9, 0, 0)


def frame_completions(ctx, k, size):
    """The arcs an exhaustive conjecture scan tests: every arc of the size
    that contains the frame prefix, in search order."""
    frame = [tuple(int(i == j) for i in range(k)) for j in range(k)] + [(1,) * k]
    return complete_search(ArcConfig(ctx, k, frame[: min(size, k + 1)]), target_size=size).arcs


def plain_weight_one(ctx, k, n, pts):
    """Whether M_n of the arc has a weight-one vector in its column space,
    from the kernel on a plain matrix of M_n's data: no star
    interpolation, no residual."""
    data = build_Mn(ArcConfig(ctx, k, pts, check=False), n).matrix.data
    return left_null_basis(GFMatrix(ctx, data)).weight_one() is not None


def test_stacked_weight_one_matches_theorem1_test(monkeypatch):
    # the scan certifies its arcs from their residuals, a chunk of arcs per
    # call; each arc must get theorem1_test's answer, and the plain
    # kernel's, at any chunk size: the frame completions of seven scans
    # (p, h, k, n, arcs, certified), then greedy arcs that hold both
    # answers: 6-arcs at k = 3, n = 2 and 8-arcs of PG(3, 9) at n = 2
    scans = [(5, 1, 3, 2, 6, 6), (7, 1, 4, 1, 60, 60), (2, 3, 3, 2, 30, 0), (2, 3, 4, 1, 120, 0),
             (2, 4, 3, 2, 182, 0), (3, 2, 3, 3, 441, 441), (7, 1, 5, 1, 60, 60)]
    cases = []

    def add(ctx, k, n, arcs):
        want = [theorem1_test(build_Mn(ArcConfig(ctx, k, pts, check=False), n)) is not None for pts in arcs]
        assert want == [plain_weight_one(ctx, k, n, pts) for pts in arcs]
        cases.append((ctx, k, n, arcs, want))
        return want

    for p, h, k, n, total, certified in scans:
        ctx = FieldCtx(p, h)
        want = add(ctx, k, n, frame_completions(ctx, k, 2 * k - 3 + n))
        assert (len(want), sum(want)) == (total, certified)
    for p, h, k, size, certified in [(7, 1, 3, 6, 14), (3, 2, 3, 6, 16), (3, 2, 4, 8, 15)]:
        ctx = FieldCtx(p, h)
        inc, rng = HyperplaneIncidence(ctx, k), random.Random(1)
        want = add(ctx, k, 2, [tuple(_random_arc(inc, size, rng)) for _ in range(20)])
        assert sum(want) == certified
    for cells in (certifier.SCAN_CELLS, 1, 1 << 40):  # default, one arc per chunk, one chunk
        monkeypatch.setattr(certifier, "SCAN_CELLS", cells)
        for ctx, k, n, arcs, want in cases:
            assert certifier._certified(ctx, k, n, arcs).tolist() == want
            if len(arcs[0]) == 2 * k - 3 + n:
                res = conjecture_scan(ctx, k, n)
                assert (res.mode, res.total, res.certified) == ("exhaustive", len(want), sum(want))
                missed = tuple(pts for pts, ok in zip(arcs, want) if not ok)
                assert res.counterexamples == (missed if res.in_range else ())


def test_conjecture_scan_makes_one_kernel_call_per_chunk(monkeypatch):
    # _certified makes one _star_points call per chunk of arcs, and
    # left_null_basis runs only on residuals, never on M_n itself: on the 60
    # frame completions of GF(7), k = 4, n = 1 it makes one call per arc,
    # each on a 4-row residual (M_1 has 20 rows), and on the 441 of GF(9),
    # k = 3, n = 3 none, their residuals having one row.  The scan certifies
    # one arc per frame-symmetry orbit: GF(7), k = 4, n = 1 is one orbit, so
    # one chunk and one call on a 4-row residual; GF(9), k = 3, n = 3 is 18
    shapes, chunks = [], []
    null, points = certifier.left_null_basis, certifier._star_points

    def counting_null(matrix):
        shapes.append(matrix.data.shape)
        return null(matrix)

    def counting_points(ctx, index, pts):
        chunks.append(len(pts))
        return points(ctx, index, pts)

    def per_chunk(total, cells_per_arc):
        per = max(1, certifier.SCAN_CELLS // cells_per_arc)  # subsets x (|G|-k+2)^2 cells per arc
        return [min(per, total - i) for i in range(0, total, per)]

    monkeypatch.setattr(certifier, "left_null_basis", counting_null)
    monkeypatch.setattr(certifier, "_star_points", counting_points)
    cases = [((7, 1, 4, 1), 60, 1, 15 * 4**2, 4), ((3, 2, 3, 3), 441, 18, 6 * 5**2, None)]
    for cells in (certifier.SCAN_CELLS, 1, 1 << 40):  # default, one arc per chunk, one chunk
        monkeypatch.setattr(certifier, "SCAN_CELLS", cells)
        for (p, h, k, n), total, orbits, cells_per_arc, rows in cases:
            ctx = FieldCtx(p, h)
            arcs = frame_completions(ctx, k, 2 * k - 3 + n)
            shapes.clear()
            chunks.clear()
            assert certifier._certified(ctx, k, n, arcs).sum() == total
            assert [r for r, _ in shapes] == ([rows] * total if rows else [])
            assert chunks == per_chunk(total, cells_per_arc)
            shapes.clear()
            chunks.clear()
            rep = cmd_conjecture(p, h, k, n)
            assert rep["total"] == rep["certified"] == total
            assert [r for r, _ in shapes] == ([rows] * orbits if rows else [])
            assert chunks == per_chunk(orbits, cells_per_arc)


def test_largest_pinned_scan_makes_one_kernel_call_per_orbit(monkeypatch):
    # GF(11), k = 4, n = 2: 30,696 arcs of size 7 in 272 orbits, each
    # representative's residual having C(4, 3) = 4 rows
    shapes = []
    null = certifier.left_null_basis

    def counting_null(matrix):
        shapes.append(matrix.data.shape[0])
        return null(matrix)

    monkeypatch.setattr(certifier, "left_null_basis", counting_null)
    res = conjecture_scan(FieldCtx(11), 4, 2)
    assert (res.mode, res.in_range, res.total, res.certified, res.orbits) == ("exhaustive", True, 30_696, 30_696, 272)
    assert res.counterexamples == ()
    assert shapes == [4] * 272


def frame_symmetries(ctx, k):
    """Every projectivity that fixes the frame f_0..f_k = e_1, ..., e_k,
    (1, ..., 1) as a set, times every power of sigma: x -> x^p, as pairs
    (G, table of sigma^j), (k+1)! h of them.  The G of a permutation pi
    sends f_j to a multiple of f_pi(j): its columns are lam_j f_pi(j), j < k,
    with sum lam_j f_pi(j) = f_pi(k).  When pi fixes the unit point, every
    lam_j is 1; otherwise the column that takes the unit point has lam 1
    and the others -1, as coordinate pi(k) of the sum shows."""
    frame = [tuple(int(i == j) for i in range(k)) for j in range(k)] + [(1,) * k]
    sigmas = [np.array([ctx.pow(x, ctx.p**j) for x in range(ctx.q)], dtype=np.int64) for j in range(ctx.h)]
    out = []
    for pi in itertools.permutations(range(k + 1)):
        lam = [1 if k in (pi[k], pi[j]) else ctx.neg(1) for j in range(k)]
        G = [[ctx.mul(lam[j], frame[pi[j]][i]) for j in range(k)] for i in range(k)]
        for j, f in enumerate(frame):
            image = [0] * k
            for i in range(k):
                for c in range(k):
                    image[i] = ctx.add(image[i], ctx.mul(G[i][c], f[c]))
            lead = next(x for x in image if x)
            assert tuple(ctx.div(x, lead) for x in image) == frame[pi[j]]
        out += [(np.array(G, dtype=np.int64), sigma) for sigma in sigmas]
    return out


def orbit_keys(ctx, k, arcs):
    """For each arc of a list of frame completions, the least sorted tuple
    of non-frame points over its images under ``frame_symmetries``."""
    ops = ctx.vec_ops()
    pts = np.array(arcs, dtype=np.int64)[:, k + 1 :]
    keys = None
    for G, sigma in frame_symmetries(ctx, k):
        img = sigma[ops.matmul(pts, G.T)]
        lead = np.take_along_axis(img, (img != 0).argmax(-1)[..., None], -1)
        img = ops.div(img, lead).tolist()
        got = [tuple(sorted(map(tuple, x))) for x in img]
        keys = got if keys is None else [min(a, b) for a, b in zip(keys, got)]
    return keys


def point_permutations(ctx, k, images):
    """The permutation of the ``projective_points`` ids that each map of a
    list sends every point to, as rows; a map takes an (N, k) array of
    points to their images."""
    ops = ctx.vec_ops()
    pts = np.array(list(arcgeom.projective_points(ctx, k)), dtype=np.int64)
    rows = []
    for image in images:
        img = image(pts)
        lead = np.take_along_axis(img, (img != 0).argmax(-1)[:, None], -1)
        rows.append(arcgeom.point_index(ctx, ops.div(img, lead)))
    return np.array(rows)


@pytest.mark.parametrize("p,h,k", [(5, 1, 3), (2, 3, 3), (3, 2, 4), (7, 1, 5)])
def test_frame_symmetries_permute_the_points_as_the_reference(p, h, k):
    # the library's (k+1)! h symmetries, matrices and sigma^j tables, move
    # the points of PG(k-1, q) exactly as the scalar construction does:
    # the same set of distinct permutations, the identity first
    ctx = FieldCtx(p, h)
    ops = ctx.vec_ops()
    mats, sigmas = certifier._frame_symmetries(ctx, k, k + 1)
    assert mats.shape == (math.factorial(k + 1) * h, k, k) and sigmas.shape == (len(mats), ctx.q)
    got = point_permutations(ctx, k, [lambda x, G=G, s=s: s[ops.matmul(x, G.T)] for G, s in zip(mats, sigmas)])
    want = point_permutations(ctx, k, [lambda x, G=G, s=s: s[ops.matmul(x, G.T)] for G, s in frame_symmetries(ctx, k)])
    assert len(np.unique(got, axis=0)) == len(got)
    assert np.array_equal(np.unique(got, axis=0), np.unique(want, axis=0))
    assert np.array_equal(got[0], np.arange(got.shape[1]))


@pytest.mark.parametrize("p,h,k,n,total,orbits", [
    (5, 1, 3, 2, 6, 1), (7, 1, 4, 1, 60, 1), (2, 3, 3, 2, 30, 2), (2, 3, 4, 1, 120, 1),
    (2, 4, 3, 2, 182, 5), (3, 2, 3, 3, 441, 18), (7, 1, 5, 1, 60, 1), (13, 1, 3, 3, 4015, 192),
])
def test_orderly_search_finds_the_least_member_of_each_orbit(p, h, k, n, total, orbits, monkeypatch):
    # under the frame symmetries the search returns exactly the frame
    # completions whose non-frame points are their orbit's least key, in
    # search order, each weighted by its orbit's size, with the plain
    # search's node count, also with one node per batch and one set per
    # image chunk; certifying every arc gives one answer on each orbit,
    # and the scan's totals are the weighted ones
    ctx = FieldCtx(p, h)
    size = 2 * k - 3 + n
    arcs = list(frame_completions(ctx, k, size))
    keys = orbit_keys(ctx, k, arcs)
    counts = collections.Counter(keys)
    least = [(pts, counts[key]) for pts, key in zip(arcs, keys) if tuple(pts[k + 1 :]) == key]
    frame = ArcConfig(ctx, k, arcs[0][: k + 1])
    nodes = complete_search(frame, target_size=size).nodes
    for cap, cells in [(arcgeom.BATCH_ENTRIES, arcgeom.MASK_CELLS), (1, 1)]:
        monkeypatch.setattr(arcgeom, "BATCH_ENTRIES", cap)
        monkeypatch.setattr(arcgeom, "MASK_CELLS", cells)
        res = complete_search(frame, target_size=size, symmetries=certifier._frame_symmetries(ctx, k, k + 1))
        assert [tuple(map(tuple, pts)) for pts in res.arcs.tolist()] == [pts for pts, _ in least]
        assert res.orbit_sizes.tolist() == [c for _, c in least]
        assert res.nodes == nodes
    monkeypatch.undo()
    assert (len(arcs), len(least)) == (total, orbits)
    certified = certifier._certified(ctx, k, n, arcs)
    by_key = {key: set() for key in counts}
    for key, ok in zip(keys, certified.tolist()):
        by_key[key].add(ok)
    assert all(len(answers) == 1 for answers in by_key.values())
    res = conjecture_scan(ctx, k, n)
    assert (res.total, res.certified, res.orbits) == (total, int(certified.sum()), orbits)


def test_orderly_search_refuses_symmetries_that_move_the_input():
    # S_4 permutes the four frame points of PG(2, 13), so it does not map
    # three of them onto themselves, while the identity alone does and
    # weighs every arc 1; and an orderly search needs a target
    ctx = FieldCtx(13)
    group = certifier._frame_symmetries(ctx, 3, 4)
    frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    with pytest.raises(InvariantError):
        complete_search(ArcConfig(ctx, 3, frame[:3]), target_size=5, symmetries=group)
    with pytest.raises(ArcInputError):
        complete_search(ArcConfig(ctx, 3, frame), symmetries=group)
    plain = complete_search(ArcConfig(ctx, 3, frame[:3]), target_size=5)
    alone = complete_search(ArcConfig(ctx, 3, frame[:3]), target_size=5, symmetries=[x[:1] for x in group])
    assert alone.nodes == plain.nodes and alone.orbit_sizes.tolist() == [1] * len(plain.arcs)
    assert [tuple(map(tuple, pts)) for pts in alone.arcs.tolist()] == list(plain.arcs)


PINNED_SCANS = [(5, 1, 3, 2), (7, 1, 4, 1), (2, 3, 3, 2), (3, 2, 3, 3), (13, 1, 3, 3), (11, 1, 4, 2), (7, 1, 5, 1),
                (2, 4, 3, 2), (2, 3, 4, 1), (23, 1, 3, 3), (5, 2, 3, 3), (3, 3, 3, 3), (3, 2, 4, 2)]


@pytest.mark.parametrize("p,h,k,n", PINNED_SCANS)
def test_scan_budget_is_the_plain_node_count(p, h, k, n):
    # the orderly search counts each node as its orbit's size, so the scan
    # is exhaustive at a budget of exactly the plain search's node count
    # and sampled one below it
    ctx = FieldCtx(p, h)
    size = 2 * k - 3 + n
    frame = [tuple(int(i == j) for i in range(k)) for j in range(k)] + [(1,) * k]
    nodes = complete_search(ArcConfig(ctx, k, frame), target_size=size).nodes
    assert conjecture_scan(ctx, k, n, budget=nodes).mode == "exhaustive"
    assert conjecture_scan(ctx, k, n, budget=nodes - 1, samples=1).mode == "sampled"


def test_scan_memory_does_not_grow_with_the_arc_list():
    # GF(23), k = 3, n = 3: 72,030 arcs in 3,100 orbits.  Labelling the
    # whole list peaked at 29.7 MiB under tracemalloc; the orderly search
    # holds only its batches and the representatives
    ctx = FieldCtx(23)
    conjecture_scan(ctx, 3, 3)  # field tables and imports outside the measurement
    tracemalloc.start()
    try:
        res = conjecture_scan(ctx, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.mode, res.total, res.certified, res.orbits) == ("exhaustive", 72_030, 72_030, 3_100)
    assert peak < 12 * 2**20


def test_folded_scan_keeps_every_arc_and_the_counterexample_order(monkeypatch):
    # a certifier that is a class function but fails some orbits: the scan
    # must report the rule's answer for every arc, in list order, while it
    # asks only one arc per orbit
    ctx = FieldCtx(13)
    arcs = list(frame_completions(ctx, 3, 6))
    keys = dict(zip(arcs, orbit_keys(ctx, 3, arcs)))
    asked = []

    def rule(ctx, k, n, batch):
        # the scan passes an array of arcs
        asked.append(len(batch))
        batch = [tuple(map(tuple, pts)) for pts in np.asarray(batch).tolist()]
        return np.array([sum(map(sum, keys[pts])) % 3 != 0 for pts in batch], dtype=bool)

    want = rule(ctx, 3, 3, arcs)
    assert 0 < want.sum() < len(arcs)
    asked.clear()
    monkeypatch.setattr(certifier, "_certified", rule)
    res = conjecture_scan(ctx, 3, 3)
    assert asked == [192]
    assert (res.in_range, res.total, res.certified, res.orbits) == (True, 4015, int(want.sum()), 192)
    assert res.counterexamples == tuple(pts for pts, ok in zip(arcs, want) if not ok)


def test_scan_expands_every_missed_orbit(monkeypatch):
    # a certifier that certifies nothing: inside the conjectured range the
    # counterexamples are every arc of the search, in its order, also where
    # the seed is the only arc (size k and k+1)
    monkeypatch.setattr(certifier, "_certified", lambda ctx, k, n, arcs: np.zeros(len(arcs), dtype=bool))
    for p, h, k, n in [(5, 1, 3, 0), (5, 1, 3, 1), (5, 1, 3, 2), (3, 2, 3, 3), (7, 1, 5, 1)]:
        ctx = FieldCtx(p, h)
        res = conjecture_scan(ctx, k, n)
        assert res.in_range and res.certified == 0
        assert res.counterexamples == frame_completions(ctx, k, 2 * k - 3 + n)


def test_scan_reports_the_arcs_it_certified():
    # orbits counts the arcs certified: one per orbit in an exhaustive
    # scan, else every sampled arc
    F5 = FieldCtx(5)
    assert conjecture_scan(F5, 3, 0).orbits == 1  # one arc, the seed
    assert conjecture_scan(F5, 3, 2).orbits == 1  # six arcs in one orbit
    sampled = conjecture_scan(F5, 3, 2, budget=1, samples=12, seed=42)
    assert (sampled.mode, sampled.orbits) == ("sampled", 12)
    assert conjecture_scan(FieldCtx(3), 5, 2).orbits == 0  # no arc of size 9


def test_random_arc_gives_up_after_a_fixed_number_of_orders():
    # no 9-arc in V_5(F_3) (size > q+k-1) and no 7-arc in V_3(F_5)
    # (size > q+1, q odd): each shuffle costs draws, none succeeds
    with pytest.raises(BudgetExceededError):
        _random_arc(HyperplaneIncidence(FieldCtx(3), 5), 9, random.Random(0))
    with pytest.raises(BudgetExceededError):
        conjecture_scan(FieldCtx(5), 3, 4, budget=0, samples=1)


@pytest.mark.parametrize("p,h,k,size", [(5, 1, 3, 5), (7, 1, 4, 6), (2, 3, 4, 6), (3, 2, 3, 8), (11, 1, 3, 9)])
def test_random_arc_matches_reference_draws(p, h, k, size):
    ctx = FieldCtx(p, h)
    inc = HyperplaneIncidence(ctx, k)
    ours, ref = random.Random(size), random.Random(size)
    for _ in range(10):
        assert _random_arc(inc, size, ours) == ref_random_arc(ctx, k, size, ref, RANDOM_ARC_ATTEMPTS)


def test_sampled_conjecture_scan_and_greedy_draws_pinned():
    # recorded before the search moved to the hyperplane-indexed table
    F23 = FieldCtx(23)
    res = conjecture_scan(F23, 3, 3, budget=10_000, samples=2, seed=0)
    assert (res.mode, res.arc_size, res.in_range, res.total, res.certified) == ("sampled", 6, True, 2, 2)
    assert res.counterexamples == ()
    rng = random.Random(0)
    draws = [tuple(_random_arc(HyperplaneIncidence(F23, 3), 6, rng)) for _ in range(2)]
    assert draws == [
        ((1, 15, 14), (1, 19, 18), (1, 6, 8), (1, 1, 21), (1, 10, 21), (1, 20, 8)),
        ((1, 18, 19), (1, 19, 20), (1, 15, 14), (1, 3, 8), (1, 15, 13), (1, 11, 3)),
    ]
    rng = random.Random(5)
    inc = HyperplaneIncidence(FieldCtx(3, 2), 4)
    assert [tuple(_random_arc(inc, 8, rng)) for _ in range(2)] == [
        ((1, 8, 0, 1), (1, 8, 8, 8), (1, 2, 0, 2), (1, 5, 5, 3), (1, 8, 6, 1), (1, 2, 7, 5), (0, 1, 7, 1), (1, 4, 7, 0)),
        ((0, 1, 4, 0), (1, 3, 8, 3), (1, 8, 3, 5), (0, 1, 2, 0), (0, 1, 3, 2), (1, 2, 7, 6), (1, 1, 6, 8), (1, 1, 5, 7)),
    ]


def test_certificates_never_contradicted_by_search():
    # whenever theorem1 certifies non-extendability, exhaustive search must
    # find no arc of the forbidden size containing G
    rng = random.Random(99)
    for q in (5, 7):
        ctx = FieldCtx(q)
        from arclab.arcgeom import projective_points
        from arclab.arcgeom import det_full as _det

        pts = list(projective_points(ctx, 3))
        for _ in range(6):
            rng.shuffle(pts)
            cur = []
            for v in pts:
                ok = all(
                    _det(ctx, [v] + list(sub)) != 0
                    for sub in itertools.combinations(cur, 2)
                )
                if ok:
                    cur.append(v)
                if len(cur) == 5:
                    break
            G = ArcConfig(ctx, 3, cur)
            for n in range(G.size - 2):
                cert = theorem1_test(build_Mn(G, n))
                if cert is not None and cert.forbidden_size <= ctx.q + 2:
                    res = complete_search(G, target_size=cert.forbidden_size)
                    assert res.arcs == (), (q, cur, n, cert)


def test_property_w_trivial_even_q(hyperconic_f4):
    # |G| = k+n over even q: the one situation where the weight-two
    # property holds despite the even-q obstruction
    G = prefix_arc(hyperconic_f4, 4)
    assert property_w(build_Mn(G, 1)).holds
    G5 = prefix_arc(hyperconic_f4, 5)
    assert property_w(build_Mn(G5, 2)).holds
    # and it fails as soon as |G| > k+n
    assert not property_w(build_Mn(G5, 1)).holds


def test_prediction_evaluator(arc_q13_size6, F13):
    # the function interpolated through the recovered values is
    # proportional to the completion's tangent function on every arc point
    res = complete_search(arc_q13_size6, target_size=14)
    S = ArcConfig(F13, 3, res.arcs[0])
    pred = recover_cosecants(build_Mn(arc_q13_size6, 2))
    for A in subset_iter(6, 1):
        item = pred.per_A[A]
        ev = ref_interpolate_fA(arc_q13_size6, A, item.values)
        assert ev(arc_q13_size6.points[item.pivot]) == 1
        from arclab.tangentfns import tangent_fn

        fA = tangent_fn(S, A)
        scale = fA.at(item.pivot)
        for e in range(6):
            if e not in A:
                assert F13.mul(scale, ev(arc_q13_size6.points[e])) == fA.at(e)
