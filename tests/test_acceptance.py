"""Acceptance suite: one test per criterion, printing a pass/fail line.

Every numeric assertion is exact (zero tolerance).  Criteria 3b and 4b
concern published claims about two shipped arcs that exact computation
refutes: all 330 tangent functions of the q=81 arc splitting, and
Property W for the q=13 nine-point arc at n = 3.  Those two tests assert
the refutation, each fact backed by an oracle that shares no elimination
code with the library (the ``conftest`` rank and annihilation checks) or
by a recovery round trip from a known extension; every assertion message
names the claim and why it fails.
"""

import itertools
import random
import time
from math import comb

import pytest

from arclab.arcgeom import (
    ArcConfig,
    complete_search,
    subset_iter,
    validate_arc,
)
from arclab.certifier import (
    PropertyWMissingError,
    bound_scan,
    build_Mn,
    corollary2_route,
    property_w,
    recover_cosecants,
    theorem1_test,
)
from arclab.exactmat import GFMatrix, left_null_basis
from arclab.cli import parse_arc_file
from arclab.gf import FieldCtx, FieldError
from arclab.hypersurf import ArcTooSmallError, build_surface, eval_dual, theorem9_check
from arclab.tangentfns import (
    AlphaTable,
    arc_degree,
    tangent_fn,
)

from conftest import (
    ARCS_DIR,
    annihilates,
    check_atoc,
    check_segre_sign,
    check_sum_zero,
    check_theeqn,
    dual_coords,
    hyperoval,
    moment_curve,
    points_off_span,
    prefix_arc,
    rank_mod_p,
    recovers_extension,
    ref_build_Mn,
    ref_colspace_test,
    ref_cosecants_through,
    ref_det_full,
    ref_interpolate_fA,
    ref_property_w,
    ref_recover_cosecants,
    ref_weight_two,
    shuffled_nrc,
    unit_vector,
    vG_check,
    weight_one_in_colspace,
)


def report(label, ok, t0, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {label}: {status} ({time.perf_counter() - t0:.2f}s) {detail}")
    return ok


def failed(checks):
    return [name for name, ok in checks.items() if not ok]


def moduli_reading_an_arc(arc):
    """The primitive monic moduli of GF(p^h) under which the arc's points,
    read as powers of the primitive element, still form an arc.

    An arc published as an exponent table is faithfully read exactly when
    its own modulus is the only entry.
    """
    ctx = arc.ctx
    out = []
    for tail in itertools.product(range(ctx.p), repeat=ctx.h):
        try:
            F = FieldCtx(ctx.p, ctx.h, modulus=(1,) + tail)
        except FieldError:  # reducible, or x not primitive
            continue
        pts = [tuple(F.exp[ctx.log[x]] if x else 0 for x in pt) for pt in arc.points]
        if validate_arc(F, arc.k, pts) is None:
            out.append(F.modulus)
    return out


# ----------------------------------------------------------------------
# 1. q = 11 regression
# ----------------------------------------------------------------------


def test_criterion_1_q11_regression(arc_q11):
    t0 = time.perf_counter()
    M = build_Mn(arc_q11, 2)
    checks = {
        "rows": M.matrix.rows == 21,
        "rank": M.matrix.rows - left_null_basis(M.matrix).nullity == 20,
        "weight_one": weight_one_in_colspace(M.matrix) is not None,
    }
    cert = theorem1_test(M)
    checks["forbidden_size_11"] = cert is not None and cert.forbidden_size == 11
    ok = all(checks.values())
    report("1 (q=11 regression)", ok, t0, str(checks))
    assert ok, checks


# ----------------------------------------------------------------------
# 2. q = 11 cross-validation by exhaustive search
# ----------------------------------------------------------------------


def test_criterion_2_q11_search(arc_q11):
    t0 = time.perf_counter()
    sizes = complete_search(arc_q11).complete_sizes
    none11 = complete_search(arc_q11, target_size=11).arcs
    scan = bound_scan(arc_q11)
    checks = {
        "completion_of_10": 10 in sizes,
        "no_size_11": none11.shape == (0, 11, 3),
        "n0_is_2": scan.n0 == 2,
    }
    ok = all(checks.values())
    report("2 (q=11 cross-validation)", ok, t0, str(checks))
    assert ok, checks


# ----------------------------------------------------------------------
# 3. q = 81 regression
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def q81_mn(arc_q81):
    return build_Mn(arc_q81, 1)


def test_criterion_3a_q81_rank_and_route(arc_q81, q81_mn):
    t0 = time.perf_counter()
    M = q81_mn
    null = left_null_basis(M.matrix)
    checks = {
        "rows_462": M.matrix.rows == 462,
        "rank_461": M.matrix.rows - null.nullity == 461,
        "no_weight_one": weight_one_in_colspace(M.matrix) is None,
        "corollary2": corollary2_route(M),
    }
    ok = all(checks.values())
    report("3a (q=81 rank/route)", ok, t0, str(checks))
    assert ok, checks


Q81_SPLIT = (
    (0, 1, 6, 7), (0, 1, 7, 9), (0, 4, 7, 10), (0, 6, 7, 10),
    (1, 4, 5, 8), (1, 6, 7, 8), (2, 5, 6, 10),
)


def test_criterion_3b_q81_all_split(arc_q81, q81_mn):
    # Published claim: all 330 recovered degree-4 tangent functions of the
    # eleven-point q=81 arc split.  With nullity one, any extension to
    # size 82 makes the null vector a multiple of its v_G, and recovery
    # from a true v_G splits everywhere; so 7 split functions out of 330
    # prove that no extension exists and the claim fails for this arc.
    t0 = time.perf_counter()
    ctx = arc_q81.ctx
    shipped = parse_arc_file((ARCS_DIR / "q81_size11.arc").read_text())
    pred = recover_cosecants(q81_mn)
    split = tuple(sorted(A for A, p in pred.per_A.items() if p.status == "ok"))
    null = left_null_basis(q81_mn.matrix)
    v = null.basis[0].tolist()
    # a normal rational curve over GF(81) does extend: recovery from its
    # true v_G at |G| = 11, k = 6, n = 1, t = 4 must reproduce every
    # co-secant set.  Vandermonde minors make it an arc, so the C(82, 6)
    # determinant validation is skipped.
    nrc = ArcConfig(ctx, 6, shuffled_nrc(ctx, 6, seed=81), check=False)
    checks = {
        "fixture_is_shipped_file": shipped.ctx == ctx and shipped.points == arc_q81.points,
        "only_conway_modulus_reads_an_arc": moduli_reading_an_arc(arc_q81) == [ctx.modulus],
        "t_is_4": pred.t == 4,
        "330_subsets": len(pred.per_A) == comb(11, 4),
        "split_exactly_seven": split == Q81_SPLIT,
        "rest_non_splitting": all(
            p.status == "non-splitting" for A, p in pred.per_A.items() if A not in Q81_SPLIT
        ),
        "matches_scalar_recovery": pred.per_A == ref_recover_cosecants(arc_q81, 1, matrix=q81_mn.matrix).per_A,
        "nullity_1": null.nullity == 1,
        "null_vector_full_support": all(v),
        "null_vector_annihilates_M1": annihilates(ctx, v, ref_build_Mn(arc_q81, 1).data),
        "vg_round_trip_gf81": recovers_extension(nrc, 11),
    }
    ok = all(checks.values())
    report(
        "3b (q=81: 7/330 split, no size-82 extension)",
        ok,
        t0,
        f"split {len(split)}/{len(pred.per_A)}; failed {failed(checks)}",
    )
    assert ok, (
        "published claim: all 330 recovered tangent functions of the q=81 arc "
        "split into 4 distinct linear factors.  Expected refutation: exactly "
        f"{len(Q81_SPLIT)} split, the single left-null vector of M_1 has full "
        "support and annihilates every column under an independent dot "
        "product, and recovery from a true v_G at the same parameters splits "
        f"everywhere, so the arc has no extension of size 82.  Got split "
        f"{len(split)}/{len(pred.per_A)} {split}; failed checks {failed(checks)}"
    )


# ----------------------------------------------------------------------
# 4. q = 13 Property W and co-secant recovery
# ----------------------------------------------------------------------


def test_criterion_4a_q13_size6(arc_q13_size6, F13):
    t0 = time.perf_counter()
    rep = property_w(build_Mn(arc_q13_size6, 2))
    completions = complete_search(arc_q13_size6, target_size=14).arcs
    checks = {"property_w_n2": rep.holds, "one_conic": len(completions) == 1}
    if rep.holds and len(completions):
        S = ArcConfig(F13, 3, completions[0])
        # the library route and the reference's route through the
        # witnesses of its own Property W report
        ref = ref_property_w(arc_q13_size6, 2)
        preds = (recover_cosecants(build_Mn(arc_q13_size6, 2)), ref_recover_cosecants(arc_q13_size6, 2, source=ref))
        agree = all(
            pred.per_A[A].forms is not None
            and sorted(pred.per_A[A].forms) == ref_cosecants_through(A, S)
            for pred in preds
            for A in subset_iter(6, 1)
        )
        checks["recovery_matches_size14"] = agree
    ok = all(checks.values())
    report("4a (q=13 size-6)", ok, t0, str(checks))
    assert ok, checks


def test_criterion_4b_q13_size9(arc_q13_size9, F13):
    # Published claim: the nine-point q=13 arc has Property W at n = 3, and
    # recovery from its weight-two witnesses yields the co-secants of the
    # arc's size-12 completion.  The completion exists, but M_3 has a second
    # null vector: weight-two vectors exist only where the two null-basis
    # columns are proportional, which fails for seven of the nine subsets.
    t0 = time.perf_counter()
    arc = arc_q13_size9
    M = build_Mn(arc, 3)
    full = ref_build_Mn(arc, 3)
    rep = property_w(M)
    # the witnesses come from the scalar reference on the paper's M_3
    ref = ref_property_w(arc, 3)
    completions = complete_search(arc, target_size=12).arcs
    checks = {
        "only_root_2_reads_an_arc": moduli_reading_an_arc(arc) == [F13.modulus],
        "rank_34_of_36_mod_13": (len(full.rows), rank_mod_p(full.data, 13)) == (36, 34),
        "property_w_missing_1_to_7": rep.missing == ref.missing == tuple((i,) for i in range(1, 8)),
        "seven_partners_at_0_and_8": sorted(ref.witnesses) == [(0,), (8,)]
        and all(len(w.partners) == 7 for w in ref.witnesses.values()),
        "one_size12_completion": len(completions) == 1,
    }
    if len(completions):
        S = ArcConfig(F13, 3, completions[0])
        checks["completion_extends_arc"] = prefix_arc(S, 9).points == arc.points
        checks["vG_annihilates_M3"] = vG_check(S, 9, 3)
        checks["recovery_matches_size12"] = recovers_extension(S, 9)
    ok = all(checks.values())
    report("4b (q=13 size-9: no Property W at n=3)", ok, t0, f"failed {failed(checks)}")
    assert ok, (
        "published claim: the size-9 arc satisfies the weight-two property at "
        "n = 3.  Expected refutation: M_3 has rank 34 of 36 by an independent "
        "mod-13 elimination, so its left null space is two-dimensional, and "
        "Property W fails for (1,) .. (7,); the arc still has a unique size-12 "
        "completion whose v_G annihilates M_3 and recovers its co-secants.  "
        f"Got missing {rep.missing}; failed checks {failed(checks)}"
    )
    with pytest.raises(PropertyWMissingError):
        recover_cosecants(build_Mn(arc, 3))


# ----------------------------------------------------------------------
# 5. even-q nullity law
# ----------------------------------------------------------------------


def test_criterion_5_even_q_law(hyperconic_f4, hyperconic_f8, F4, F8):
    t0 = time.perf_counter()
    arcs = []
    for size in (4, 5, 6):
        arcs.append(prefix_arc(hyperconic_f4, size))
    # skip-one-point variants over GF(4)
    pts = hyperconic_f4.points
    arcs.append(ArcConfig(F4, 3, [pts[i] for i in (0, 1, 2, 4, 5)]))
    arcs.append(ArcConfig(F4, 3, [pts[i] for i in (0, 2, 3, 4, 5)]))
    for size in (5, 6, 7, 8, 9, 10):
        arcs.append(prefix_arc(hyperconic_f8, size))
    pts8 = hyperconic_f8.points
    arcs.append(ArcConfig(F8, 3, [pts8[i] for i in (0, 1, 3, 5, 7, 9)]))
    assert len(arcs) >= 10
    tested = 0
    ok = True
    for arc in arcs:
        for n in range(arc.size - arc.k + 1):
            M = build_Mn(arc, n)
            null = left_null_basis(M.matrix)
            want = comb(arc.size - n - 1, arc.k - 1)
            if null.nullity != want or weight_one_in_colspace(M.matrix) is not None:
                ok = False
            tested += 1
    report("5 (even-q nullity law)", ok, t0, f"{len(arcs)} arcs, {tested} (G, n) pairs")
    assert ok


# ----------------------------------------------------------------------
# 6. lemma suite over an arc zoo
# ----------------------------------------------------------------------


def _lemma_suite(arc, rng, failures):
    ctx = arc.ctx
    k = arc.k
    g = arc.size
    t = arc_degree(arc)
    label = f"q={ctx.q} k={k} size={g} t={t}"

    def record(name, ok):
        if not ok:
            failures.append(f"{label}: {name}")

    # Lemma 1: the A-indexed form is alternating
    for _ in range(20):
        u = tuple(rng.randrange(ctx.q) for _ in range(k))
        v = tuple(rng.randrange(ctx.q) for _ in range(k))
        A = tuple(sorted(rng.sample(range(g), k - 2)))
        d_A = lambda x, y: ref_det_full(ctx, [x, y] + arc.points_at(A))
        record("L1", d_A(u, v) == ctx.neg(d_A(v, u)))
        record("L1-diag", d_A(u, u) == 0)
    # Lemma 2: co-secant count = t for sampled A
    allA = list(subset_iter(g, k - 2))
    for A in rng.sample(allA, min(20, len(allA))):
        record("L2", len(tangent_fn(arc, A).forms) == t)
    # Lemma 4: interpolation equality at arc points and random vectors
    for A in rng.sample(allA, min(8, len(allA))):
        fA = tangent_fn(arc, A)
        pts = [e for e in range(g) if e not in A][: t + 1]
        ev = ref_interpolate_fA(arc, A, {e: fA.at(e) for e in pts})
        for e in range(g):
            if e not in A:
                record("L4-arc", ev(arc.points[e]) == fA.at(e))
        for _ in range(5):
            v = tuple(rng.randrange(ctx.q) for _ in range(k))
            record("L4-rand", ev(v) == fA(v))
    # Lemmas 5 and 8 need |E| = t+k <= g
    table = AlphaTable(arc)
    if t + k <= g:
        for _ in range(25):
            E = tuple(sorted(rng.sample(range(g), t + k)))
            A = tuple(sorted(rng.sample(E, k - 2)))
            record("L5", check_sum_zero(arc, A, E) == 0)
            record("L8", check_theeqn(table, A, E) == 0)
    # Lemma 6: sign relation
    for _ in range(25):
        D = tuple(sorted(rng.sample(range(g), k - 3)))
        x, y, z = rng.sample([i for i in range(g) if i not in D], 3)
        record("L6", check_segre_sign(arc, D, x, y, z))
    # Lemma 7: recursion
    for _ in range(25):
        A = tuple(sorted(rng.sample(range(g), k - 2)))
        e = rng.choice([i for i in range(g) if i not in A])
        record("L7", check_atoc(table, A, e))
    # Lemma 9: v_G annihilates M_n, sampled over admissible prefixes
    candidates = []
    for gg in range(t + k, g + 1):
        n = g + gg + 1 - ctx.q - 2 * k
        if 0 <= n <= gg - k and comb(gg, n) * comb(gg - n, k - 2) <= 20_000:
            candidates.append((gg, n))
    for gg, n in rng.sample(candidates, min(2, len(candidates))):
        record("L9", vG_check(arc, gg, n))
    # Theorem 9 and the co-secant zero audit, when E fits
    try:
        surf = build_surface(arc)
    except ArcTooSmallError:
        surf = None
    if surf is not None:
        for A in rng.sample(allA, min(5, len(allA))):
            record("T9", theorem9_check(surf, A))
            forms = ref_cosecants_through(A, arc)
            for form in forms:
                record("dual-zero", eval_dual(surf, form) == 0)
            if surf.parity == "odd" and forms:
                # perfect square on the dual line: checked via Theorem 9
                al = table.alpha(A)
                fA = tangent_fn(arc, A)
                for x in points_off_span(arc, A, min(surf.degree + 1, 5)):
                    z = dual_coords(ctx, [x] + arc.points_at(A))
                    root = ctx.mul(al, fA(x))
                    record("square", eval_dual(surf, z) == ctx.mul(root, root))


def test_criterion_6_lemma_suite():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    arcs = []
    # conics and their size-q prefixes (t = 1 and t = 2)
    for q, h in [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        ctx = FieldCtx(q, h)
        params = list(range(ctx.q))
        conic = ArcConfig(ctx, 3, moment_curve(ctx, 3, params, infinity=True))
        arcs.append(conic)
        arcs.append(prefix_arc(conic, ctx.q))
    # normal rational curves in k = 4, 5 over F_11 and F_13, plus prefixes
    for q in (11, 13):
        ctx = FieldCtx(q)
        for k in (4, 5):
            nrc = ArcConfig(ctx, k, moment_curve(ctx, k, range(q), infinity=True))
            arcs.append(nrc)
            arcs.append(prefix_arc(nrc, q))
    # search-built complete arcs
    F5 = FieldCtx(5)
    frame = ArcConfig(F5, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    found = complete_search(frame, target_size=6).arcs
    arcs.append(ArcConfig(F5, 3, found[0]))
    F7 = FieldCtx(7)
    frame7 = ArcConfig(F7, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    arcs.append(ArcConfig(F7, 3, complete_search(frame7, target_size=8).arcs[0]))
    # even-q arcs for the even branch of Theorem 9
    F8 = FieldCtx(2, 3)
    hyper = ArcConfig(F8, 3, hyperoval(F8))
    arcs.extend([hyper, prefix_arc(hyper, 9), prefix_arc(hyper, 8)])
    F4 = FieldCtx(2, 2)
    arcs.append(ArcConfig(F4, 3, hyperoval(F4)))

    assert len(arcs) >= 20
    failures = []
    for arc in arcs:
        _lemma_suite(arc, rng, failures)
    ok = not failures
    report("6 (lemma suite)", ok, t0, f"{len(arcs)} arcs; failures: {failures[:5]}")
    assert ok, failures[:20]


# ----------------------------------------------------------------------
# 7. oracle equivalence for the membership queries
# ----------------------------------------------------------------------


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(777)
    fields = [FieldCtx(q) for q in (5, 7, 11, 13)] + [FieldCtx(2, 2), FieldCtx(2, 3), FieldCtx(3, 2)]
    count = 0
    ok = True
    while count < 200:
        ctx = rng.choice(fields)
        m = rng.randrange(2, 13)
        n = rng.randrange(1, 21)
        rows = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(m)]
        M = GFMatrix(ctx, rows)
        # membership by scalar elimination, sharing no code with the library
        inside = ref_colspace_test(ctx, rows)
        vec = lambda *entries: unit_vector(m, *entries)
        # weight-one against the oracle, every row
        brute = next((c for c in range(m) if inside(vec((c, 1)))), None)
        if weight_one_in_colspace(M) != brute:
            ok = False
        # weight-two against the oracle on sampled pairs, with the scalar
        # reference's b
        for _ in range(3):
            c1, c2 = rng.sample(range(m), 2)
            brute2 = any(inside(vec((c1, a), (c2, 1))) for a in range(1, ctx.q))
            b = ref_weight_two(ctx, left_null_basis(M).basis.tolist(), c1, c2)
            if bool(left_null_basis(M).partners(c1, c2)) != brute2 or (b is not None) != brute2:
                ok = False
            if b is not None and not inside(vec((c1, 1), (c2, b))):
                ok = False
        count += 1
    report("7 (oracle equivalence)", ok, t0, f"{count} matrices")
    assert ok


# ----------------------------------------------------------------------
# 8. conjecture smoke test
# ----------------------------------------------------------------------


def test_criterion_8_conjecture_smoke():
    from arclab.certifier import conjecture_scan

    t0 = time.perf_counter()
    results = {}
    ok = True
    for p, k, n in [(5, 3, 0), (5, 3, 1), (7, 4, 0), (7, 4, 1)]:
        ctx = FieldCtx(p)
        assert k <= p + n * (p - 2)
        res = conjecture_scan(ctx, k, n, seed=1)
        entry = [f"{res.mode}:{res.certified}/{res.total}"]
        all_ok = res.certified == res.total
        if res.total < 100:
            sampled = conjecture_scan(ctx, k, n, budget=0, samples=100, seed=1)
            entry.append(f"sampled:{sampled.certified}/{sampled.total}")
            all_ok = all_ok and sampled.certified == sampled.total == 100
        results[(p, k, n)] = "+".join(entry)
        ok = ok and all_ok
    report("8 (conjecture smoke)", ok, t0, str(results))
    assert ok, results
