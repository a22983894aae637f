import itertools
import random
from math import comb

import pytest

from arclab.arcgeom import (
    ArcConfig,
    BudgetExceededError,
    HyperplaneIncidence,
    complete_search,
    cosecants_through,
    subset_iter,
)
from arclab.certifier import (
    RANDOM_ARC_ATTEMPTS,
    NoCertificateError,
    PropertyWMissingError,
    SizeOutOfRangeError,
    _random_arc,
    bound_scan,
    build_Mn,
    conjecture_scan,
    corollary2_route,
    even_nullity_check,
    property_w,
    recover_cosecants,
    theorem1_test,
    vG_check,
    vg_vector,
)
from arclab._vecops import VecOps
from arclab.exactmat import GFMatrix, left_null_basis, rank
from arclab.gf import FieldCtx

from conftest import (
    annihilates,
    colex_subsets,
    dot,
    null_rref,
    gl_image,
    hyperoval,
    moment_curve,
    recovers_extension,
    ARCS_DIR,
    ref_det_full,
    ref_left_null,
    ref_build_Mn,
    ref_property_w,
    ref_random_arc,
    ref_recover_cosecants,
    shuffled_nrc,
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
    # s_e = (-1)^{#{a in A : a < e}}, zero off the star
    for arc, n in [(arc_q13_size6, 2), (arc_q11, 3), (hyperconic_f8, 4), (arc_q81, 1)]:
        ctx = arc.ctx
        M = build_Mn(arc, n)
        want = [[0] * M.matrix.cols for _ in M.rows]
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
                    row[s * (n + 1) + i] = val if sign > 0 else ctx.neg(val)
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


@pytest.mark.parametrize("name", ["conic_f5", "hyperconic_f8", "q11_size7", "q13_size6", "q13_size9", "q81_size11"])
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
        assert null_rref(G.ctx, M.matrix.data) == null_rref(G.ctx, ref.data), (name, n)


@pytest.mark.parametrize("image", [False, True])
def test_q81_left_null_basis_independent_checks(arc_q81, image):
    # M_0..M_3 of the q = 81 arc or a GL image: every basis vector
    # annihilates M under the scalar oracle, the basis is independent, and
    # its size is rows - rank(M^T), a count made on another matrix
    G = gl_image(arc_q81, 5) if image else arc_q81
    for n in range(4):
        M = build_Mn(G, n).matrix
        null = left_null_basis(M)
        rows = M.data.tolist()
        assert all(annihilates(G.ctx, w, rows) for w in null.vectors())
        assert rank(GFMatrix(G.ctx, null.basis)) == null.nullity
        assert null.nullity == M.rows - rank(M.transpose())


def test_q81_left_null_fill_guard(arc_q81, monkeypatch):
    # bottom-up elimination keeps the fill of M_1 in a trailing block:
    # 4,598,686 cell updates, against 27,421,990 top-down
    M = build_Mn(arc_q81, 1).matrix
    cells = []
    addmul = VecOps.addmul

    def counting(self, block, f, row):
        cells.append(block.size)
        return addmul(self, block, f, row)

    monkeypatch.setattr(VecOps, "addmul", counting)
    left_null_basis(M)
    assert sum(cells) <= 5_000_000


# ----------------------------------------------------------------------
# Theorem 1 and the bound scan
# ----------------------------------------------------------------------


def test_paper_rank_facts_q11(arc_q11):
    M = build_Mn(arc_q11, 2)
    assert rank(M.matrix) == 20
    assert M.matrix.rows == 21
    cert = theorem1_test(arc_q11, 2, M)
    assert cert is not None
    assert cert.forbidden_size == 11


def test_theorem1_at_max_n_odd_q(arc_q13_size6, arc_q11, conic_f5):
    # q odd: M_{|G|-k} always certifies (inclusion-matrix rank argument)
    for arc in (arc_q13_size6, arc_q11, conic_f5.prefix(5)):
        n = arc.size - arc.k
        assert theorem1_test(arc, n) is not None


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


def test_bound_scan_even_q(hyperconic_f8):
    arc = hyperconic_f8.prefix(6)
    with pytest.raises(NoCertificateError) as err:
        bound_scan(arc)
    for row in err.value.audit:
        assert row["nullity"] == row["even_q_nullity"]


@pytest.mark.parametrize("p,h,k,g", [(3, 4, 6, 11), (3, 4, 5, 10), (7, 2, 4, 9), (3, 3, 4, 9)])
def test_bound_scan_sound_on_normal_rational_curve_subsets(p, h, k, g):
    # a subset of the normal rational curve extends to its q+1 points, so
    # no certificate may forbid q+1 (the bound found is exactly q+1, at
    # n0 = 2, 3, 4 and 4)
    ctx = FieldCtx(p, h)
    G = ArcConfig(ctx, k, shuffled_nrc(ctx, k, g)[:g])
    for arc in (G, gl_image(G, 3)):
        assert bound_scan(arc).max_size_bound >= ctx.q + 1


@pytest.mark.parametrize("h,modulus,g", [(4, None, 10), (5, (1, 0, 0, 1, 0, 1), 12)], ids=["q16", "q32"])
def test_bound_scan_sound_on_hyperoval_subsets(h, modulus, g):
    # the conic and its nucleus form a hyperoval of q+2 points, so a subset
    # gets either no certificate or one that still allows q+2
    ctx = FieldCtx(2, h, modulus)
    pts = hyperoval(ctx)
    random.Random(h).shuffle(pts)
    G = ArcConfig(ctx, 3, pts[:g])
    for arc in (G, gl_image(G, 3)):
        try:
            scan = bound_scan(arc)
        except NoCertificateError:
            continue
        assert scan.forbidden_size > ctx.q + 2


def test_M0_full_rank_for_small_arcs_when_k_le_p(F5, F7):
    # arcs of size 2k-3 = 3 with k = 3 <= p: M_0 has full row rank
    for ctx in (F5, F7):
        arc = ArcConfig(ctx, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        M = build_Mn(arc, 0)
        assert rank(M.matrix) == M.matrix.rows == 3
        assert theorem1_test(arc, 0, M) is not None


# ----------------------------------------------------------------------
# Property W and Corollary 3
# ----------------------------------------------------------------------


def test_property_w_q13_size6(arc_q13_size6):
    report = property_w(arc_q13_size6, 2)
    assert report.holds
    assert report.t == 1
    need = 6 - 2 - 3 + 1
    for A, wit in report.witnesses.items():
        assert len(wit.partners) >= need
        for y, a, b in wit.partners:
            assert a != 0 and b != 0


def test_property_w_q13_size9_at_n3_fails(arc_q13_size9):
    # The printed arc does not have the weight-two property at n = 3:
    # M_3 has nullity 2 and the null-basis columns are not proportional
    # for most pairs (verified against three elimination backends).
    M = build_Mn(arc_q13_size9, 3)
    assert left_null_basis(M.matrix).nullity == 2
    report = property_w(arc_q13_size9, 3, M)
    assert not report.holds
    assert len(report.missing) == 7


def test_property_w_trivial_at_size_k_plus_n(conic_f5):
    # |G| = k+n: one partner required, always available
    G = conic_f5.prefix(5)
    for n in range(0, 3):
        if G.size == G.k + n:
            assert property_w(G, n).holds
    assert property_w(conic_f5.prefix(4), 1).holds
    assert property_w(conic_f5.prefix(3), 0).holds


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
        report = property_w(arc, n)
        assert report == ref_property_w(arc, n, basis)
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
    report = property_w(arc_q81, 1, M)
    assert report.holds
    assert report == ref_property_w(arc_q81, 1, left_null_basis(M.matrix).vectors())


def test_corollary2_route(arc_q13_size6, arc_q11, F11):
    assert corollary2_route(arc_q13_size6, 2)
    # weight-one exists at (q11, 2): not the corollary situation
    assert not corollary2_route(arc_q11, 2)
    # full-row-rank matrix: nullity 0
    frame = ArcConfig(F11, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert not corollary2_route(frame, 0)


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------


def test_recover_q13_size6_matches_conic(arc_q13_size6, F13):
    res = complete_search(arc_q13_size6, target_size=14)
    assert len(res.arcs) == 1
    S = ArcConfig(F13, 3, res.arcs[0])
    pred = recover_cosecants(arc_q13_size6, 2)
    assert pred.route == "null-vector"
    assert pred.all_split
    for A in subset_iter(6, 1):
        assert sorted(pred.per_A[A].forms) == sorted(cosecants_through(A, S))
    # the property-w route recovers the same forms (determinacy)
    report = property_w(arc_q13_size6, 2)
    pred2 = recover_cosecants(arc_q13_size6, 2, source=report)
    assert pred2.route == "property-w"
    for A in subset_iter(6, 1):
        assert pred2.per_A[A].forms == pred.per_A[A].forms
    # both routes agree with the scalar recovery prediction by prediction
    assert pred.per_A == ref_recover_cosecants(arc_q13_size6, 2).per_A
    assert pred2.per_A == ref_recover_cosecants(arc_q13_size6, 2, source=report).per_A


def test_recover_matches_scalar_reference_on_q81_gl_image(arc_q81):
    # a GL(6, 81) image of the q=81 arc with rescaled points: dense
    # coordinates, the same 7/330 split count, and every prediction equal
    # to the scalar reference's
    G = gl_image(arc_q81, seed=3)
    M = build_Mn(G, 1)
    pred = recover_cosecants(G, 1, M=M)
    assert pred.route == "null-vector"
    assert sum(p.status == "ok" for p in pred.per_A.values()) == 7
    assert pred.per_A == ref_recover_cosecants(G, 1, M=M).per_A


@pytest.mark.parametrize(
    "S_size,g",
    [(11, 9), (11, 10), (13, 8), (12, 8), (14, 7)],
)
def test_recover_from_vg_matches_extension(conic_f13, S_size, g):
    # feed the true v_G of a known extension: recovery must reproduce the
    # extension's co-secants; covers live (t even) and dead (t odd) signs
    assert recovers_extension(conic_f13.prefix(S_size), g)


def test_recover_from_vg_higher_k(F11):
    nrc = ArcConfig(F11, 5, moment_curve(F11, 5, range(11), infinity=True))
    assert recovers_extension(nrc.prefix(11), 9)  # t = 4, live signs, k = 5


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
        recover_cosecants(arc_q13_size6, 3)  # t = 0


def test_recover_without_property_w_raises(arc_q13_size9):
    with pytest.raises(PropertyWMissingError):
        recover_cosecants(arc_q13_size9, 3)


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
    with pytest.raises(SizeOutOfRangeError):
        vG_check(conic_f5, 5, 2)  # size mismatch


def test_vg_coordinates_nonzero_and_perturbation(conic_f5, F5):
    v = vg_vector(conic_f5, 5)
    assert all(x != 0 for x in v.coords)
    G = conic_f5.prefix(5)
    M = build_Mn(G, 1)
    # perturb one coordinate: the product must become nonzero somewhere
    bad = list(v.coords)
    bad[0] = F5.mul(bad[0], 2)
    assert annihilates(F5, v.coords, M.matrix.data.tolist())
    assert not annihilates(F5, bad, M.matrix.data.tolist())


# ----------------------------------------------------------------------
# even q and the conjecture scan
# ----------------------------------------------------------------------


def test_even_nullity_law(hyperconic_f8, hyperconic_f4, F4):
    arc = hyperconic_f8.prefix(6)
    assert even_nullity_check(arc, 1)
    assert even_nullity_check(arc, 0)
    # |G| = k+n: nullity 1
    assert even_nullity_check(hyperconic_f4.prefix(4), 1)
    # q=4, |G|=5, n=0: nullity C(4,2) = 6
    arc45 = hyperconic_f4.prefix(5)
    M = build_Mn(arc45, 0)
    assert left_null_basis(M.matrix).nullity == comb(4, 2) == 6
    assert even_nullity_check(arc45, 0, M)
    with pytest.raises(ValueError):
        even_nullity_check(ArcConfig(FieldCtx(5), 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 0)


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
                cert = theorem1_test(G, n)
                if cert is not None and cert.forbidden_size <= ctx.q + 2:
                    res = complete_search(G, target_size=cert.forbidden_size)
                    assert res.arcs == (), (q, cur, n, cert)


def test_property_w_trivial_even_q(hyperconic_f4):
    # |G| = k+n over even q: the one situation where the weight-two
    # property holds despite the even-q obstruction
    G = hyperconic_f4.prefix(4)
    assert property_w(G, 1).holds
    G5 = hyperconic_f4.prefix(5)
    assert property_w(G5, 2).holds
    # and it fails as soon as |G| > k+n
    assert not property_w(G5, 1).holds


def test_prediction_evaluator(arc_q13_size6, F13):
    # the recovered evaluator is proportional to the completion's tangent
    # function on every arc point
    res = complete_search(arc_q13_size6, target_size=14)
    S = ArcConfig(F13, 3, res.arcs[0])
    pred = recover_cosecants(arc_q13_size6, 2)
    for A in subset_iter(6, 1):
        item = pred.per_A[A]
        ev = item.evaluator(arc_q13_size6)
        assert ev(arc_q13_size6.points[item.pivot]) == 1
        from arclab.tangentfns import tangent_fn

        fA = tangent_fn(S, A)
        scale = fA.at(item.pivot)
        for e in range(6):
            if e not in A:
                assert F13.mul(scale, ev(arc_q13_size6.points[e])) == fA.at(e)
