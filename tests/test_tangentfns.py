import itertools
import random

import numpy as np
import pytest

from arclab.arcgeom import ArcConfig, _form_values, _pencil_basis, _projective_line, subset_iter
from arclab.gf import FieldCtx
from arclab.tangentfns import (
    AlphaTable,
    _lagrange_sum,
    arc_degree,
    tangent_fn,
)

from conftest import (
    check_atoc,
    check_segre_sign,
    check_sum_zero,
    check_theeqn,
    dot,
    hyperoval,
    mat_vec,
    moment_curve,
    ref_alpha,
    ref_det_full,
    ref_det_linear_coeffs,
    ref_interpolate_fA,
    shuffled_nrc,
)


@pytest.fixture(scope="module")
def arc_f5_t2(F5):
    # size-5 arc with t = 2: the signs (t+1 odd) are live
    return ArcConfig(F5, 3, moment_curve(F5, 3, range(5)))


@pytest.fixture(scope="module")
def nrc_f7_k4(F7):
    return ArcConfig(F7, 4, moment_curve(F7, 4, range(7), infinity=True))


@pytest.fixture(scope="module")
def arc_q13_size12(arc_q13_size9, F13):
    from arclab.arcgeom import complete_search

    res = complete_search(arc_q13_size9, target_size=12)
    return ArcConfig(F13, 3, res.arcs[0])


def test_tangent_fn_basic(conic_f5, hyperconic_f4):
    # t = 0: empty product, constantly 1
    fn = tangent_fn(hyperconic_f4, (0,))
    assert fn.t == 0
    assert fn((1, 1, 1)) == 1
    # conic: degree-1 function vanishing exactly on the tangent line
    fA = tangent_fn(conic_f5, (0,))
    assert fA.t == 1
    assert fA.at(0) == 0  # the tangent passes through the point itself
    for e in range(1, conic_f5.size):
        assert fA.at(e) != 0


def test_tangent_values_nonzero_off_A(arc_q13_size12):
    for A in subset_iter(arc_q13_size12.size, 1):
        fA = tangent_fn(arc_q13_size12, A)
        for e in range(arc_q13_size12.size):
            if e not in A:
                assert fA.at(e) != 0


def test_interpolation_matches_direct_exhaustively(conic_f5, arc_f5_t2, F5):
    for arc in (conic_f5, arc_f5_t2):
        t = arc_degree(arc)
        for A in subset_iter(arc.size, 1):
            fA = tangent_fn(arc, A)
            pts = [e for e in range(arc.size) if e not in A][: t + 1]
            ev = ref_interpolate_fA(arc, A, {e: fA.at(e) for e in pts})
            for v in itertools.product(range(5), repeat=3):
                assert ev(v) == fA(v)


def test_interpolation_on_q13_arc(arc_q13_size12, F13):
    rng = random.Random(12)
    t = arc_degree(arc_q13_size12)
    assert t == 3
    for A in list(subset_iter(12, 1))[:6]:
        fA = tangent_fn(arc_q13_size12, A)
        pts = [e for e in range(12) if e not in A][: t + 1]
        ev = ref_interpolate_fA(arc_q13_size12, A, {e: fA.at(e) for e in pts})
        for e in range(12):
            if e not in A:
                assert ev(arc_q13_size12.points[e]) == fA.at(e)
        for _ in range(25):
            v = tuple(rng.randrange(13) for _ in range(3))
            assert ev(v) == fA(v)


def _lagrange_weights(ctx, beta, fvals):
    """Lagrange weights f(e) / prod_{u != e} D(u, e) of fvals at the columns of beta."""
    ones = np.ones(beta.shape[-1], dtype=np.int64)
    return ctx.vec_ops().div(fvals, _lagrange_sum(ctx, beta, ones, beta[..., 0, :], beta[..., 1, :]))


def test_interpolation_matches_scalar_reference(conic_f5, nrc_f7_k4, arc_q13_size12, arc_q81):
    # arbitrary nonzero values at 1, 2 or 4 points: recovery's
    # pencil-coordinate Lagrange routines (weights at beta of the value
    # points, the sum at beta(x)) equal the determinant evaluator on random
    # vectors, on vectors of span(A) and on arc points, the constant t = 0
    # case included
    rng = random.Random(21)
    for arc in (conic_f5, nrc_f7_k4, arc_q13_size12, arc_q81):
        ctx, k = arc.ctx, arc.k
        for A in list(subset_iter(arc.size, k - 2))[:4]:
            others = [e for e in range(arc.size) if e not in A]
            (b1,), (b2,) = _pencil_basis(arc.ctx, arc.points, [A])
            for d in (0, 1, 3):
                values = {e: rng.randrange(1, ctx.q) for e in rng.sample(others, d + 1)}
                pts = sorted(values)
                beta = _form_values(ctx, [b1, b2], arc.points_at(pts))
                weights = _lagrange_weights(ctx, beta, np.array([values[e] for e in pts]))
                vecs = [tuple(rng.randrange(ctx.q) for _ in range(k)) for _ in range(20)]
                cols = list(zip(*arc.points_at(A)))
                for _ in range(5):
                    vecs.append(tuple(mat_vec(ctx, cols, [rng.randrange(ctx.q) for _ in A])))
                vecs += list(arc.points)
                y1, y2 = _form_values(ctx, [b1, b2], vecs)
                ref = ref_interpolate_fA(arc, A, values)
                assert _lagrange_sum(ctx, beta, weights, y1, y2).tolist() == [ref(v) for v in vecs]


def test_lagrange_sum_on_every_point_of_pg1q(arc_q81, hyperconic_f8):
    # the coefficient form with Horner, for a stack of subsets A at once,
    # equals the scalar Lagrange evaluator at every point w of PG(1, q),
    # for t = 0..3 (t+1 value points); at the value points themselves
    # unit weights give the products prod_{u != e} det(u, e, A)
    rng = random.Random(25)
    for arc in (arc_q81, hyperconic_f8):
        ctx, k = arc.ctx, arc.k
        w1, w2 = _projective_line(ctx)
        As = list(subset_iter(arc.size, k - 2))[:: 1 + arc.size // 3][:4]
        b1, b2 = _pencil_basis(ctx, arc.points, As)
        for t in range(4):
            pts = [[e for e in range(arc.size) if e not in A][: t + 1] for A in As]
            values = [[rng.randrange(1, ctx.q) for _ in P] for P in pts]
            beta = np.stack([_form_values(ctx, [x, y], arc.points_at(P)) for x, y, P in zip(b1, b2, pts)])
            weights = _lagrange_weights(ctx, beta, np.array(values))
            got = _lagrange_sum(ctx, beta, weights, w1, w2)
            ones = _lagrange_sum(ctx, beta, np.ones(t + 1, dtype=np.int64), beta[:, 0], beta[:, 1])
            assert got.shape == (len(As), ctx.q + 1) and ones.shape == (len(As), t + 1)
            for s, A in enumerate(As):
                # unit vectors with beta = (c1, 0) and (0, c2) exist (e_f1 and
                # e_f2 of _pencil_basis), so x(w) = (w1 / c1) e_j1 + (w2 / c2) e_j2
                # has beta(x) = w
                j1 = next(j for j in range(k) if b1[s, j] and not b2[s, j])
                j2 = next(j for j in range(k) if b2[s, j] and not b1[s, j])
                ref = ref_interpolate_fA(arc, A, dict(zip(pts[s], values[s])))
                want = []
                for x1, x2 in zip(w1.tolist(), w2.tolist()):
                    x = [0] * k
                    x[j1], x[j2] = ctx.div(x1, int(b1[s, j1])), ctx.div(x2, int(b2[s, j2]))
                    want.append(ref(x))
                assert got[s].tolist() == want, (arc, A, t)
                a_vecs = arc.points_at(A)
                lin = [ref_det_linear_coeffs(ctx, [arc.points[u]], a_vecs) for u in pts[s]]
                prods = []
                for e in pts[s]:
                    acc = 1
                    for u, form in zip(pts[s], lin):
                        if u != e:
                            acc = ctx.mul(acc, dot(ctx, form, arc.points[e]))
                    prods.append(acc)
                assert ones[s].tolist() == prods, (arc, A, t)


def test_sum_zero(conic_f5, arc_q13_size12, F13):
    for E in itertools.combinations(range(conic_f5.size), 4):
        for A in itertools.combinations(E, 1):
            assert check_sum_zero(conic_f5, A, E) == 0
    # truncations of the q=13 arc
    for E in [tuple(range(6)), tuple(range(1, 7)), tuple(sorted((0, 2, 4, 6, 8, 10)))]:
        for A in itertools.combinations(E, 1):
            assert check_sum_zero(arc_q13_size12, A, E) == 0


def test_sum_zero_perturbation_detects(conic_f5, F5):
    # replace one f_A(e) by a wrong nonzero value: the sum must move away
    # from zero (recomputed inline with the perturbed value)
    A = (0,)
    E = (0, 1, 2, 3)
    fA = tangent_fn(conic_f5, A)
    rest = [e for e in E if e not in A]
    for wrong in range(1, 5):
        vals = {e: fA.at(e) for e in rest}
        if vals[rest[0]] == wrong:
            continue
        vals[rest[0]] = wrong
        acc = 0
        for e in rest:
            term = vals[e]
            for u in rest:
                if u != e:
                    term = F5.div(
                        term, ref_det_full(F5, conic_f5.points_at((u, e) + A))
                    )
            acc = F5.add(acc, term)
        assert acc != 0


def test_segre_sign(conic_f5, arc_f5_t2, nrc_f7_k4):
    for arc in (conic_f5, arc_f5_t2, nrc_f7_k4):
        k = arc.k
        for D in itertools.combinations(range(arc.size), k - 3):
            others = [i for i in range(arc.size) if i not in D]
            for x, y, z in itertools.permutations(others[:5], 3):
                assert check_segre_sign(arc, D, x, y, z)
    # x = y is trivially true
    assert check_segre_sign(conic_f5, (), 2, 2, 3)


def test_alpha_definition_cases(arc_q13_size12, F13):
    table = AlphaTable(arc_q13_size12)
    F = table.F
    assert table.alpha(F) == 1
    # C containing F with one extra element: alpha_C = f_F(x1)
    for x in range(len(F), arc_q13_size12.size):
        C = tuple(sorted(F + (x,)))
        assert table.alpha(C) == tangent_fn(arc_q13_size12, F).at(x)
    with pytest.raises(ValueError):
        table.alpha((0, 1, 2, 3))  # wrong arity for k = 3


def alpha_arcs():
    """(name, arc, prefix): the conic of GF(5), the hyperovals of GF(8) and
    GF(16), the shuffled normal rational curves of GF(7), GF(9), GF(11)
    and GF(13) at k = 3, 4, 5 with their (q-2)-point moment-curve
    prefixes, and the shuffled curve of GF(81) at k = 6.  A curve is an
    arc by its Vandermonde minors, so the determinant validation is
    skipped."""
    F5, F81 = FieldCtx(5), FieldCtx(3, 4)
    yield "conic_f5", ArcConfig(F5, 3, moment_curve(F5, 3, range(5), infinity=True)), 6
    for ctx in (FieldCtx(2, 3), FieldCtx(2, 4)):
        yield f"hyperoval_f{ctx.q}", ArcConfig(ctx, 3, hyperoval(ctx), check=False), 8
    for ctx in (FieldCtx(7), FieldCtx(3, 2), FieldCtx(11), FieldCtx(13)):
        for k in (3, 4, 5):
            nrc = shuffled_nrc(ctx, k, seed=ctx.q + k)
            yield f"nrc_f{ctx.q}_k{k}", ArcConfig(ctx, k, nrc, check=False), k + 5
            short = moment_curve(ctx, k, range(ctx.q - 2))
            yield f"mc_f{ctx.q}_k{k}", ArcConfig(ctx, k, short, check=False), k + 5
    yield "nrc_f81_k6", ArcConfig(F81, 6, shuffled_nrc(F81, 6, seed=81), check=False), 11


def test_alpha_recursion_matches_chain_formula():
    # every (k-2)- and (k-1)-subset of each prefix, alpha from the full arc
    compared = 0
    for name, arc, m in alpha_arcs():
        table = AlphaTable(arc)
        for arity in (arc.k - 2, arc.k - 1):
            for B in subset_iter(min(m, arc.size), arity):
                assert table.alpha(B) == ref_alpha(arc, B), (name, B)
                compared += 1
    assert compared > 3000


def test_atoc_recursion(conic_f5, arc_f5_t2, nrc_f7_k4, arc_q13_size12):
    for arc in (conic_f5, arc_f5_t2, nrc_f7_k4, arc_q13_size12):
        table = AlphaTable(arc)
        for A in subset_iter(arc.size, arc.k - 2):
            for e in range(arc.size):
                if e not in A:
                    assert check_atoc(table, A, e)


def test_theeqn(conic_f5, arc_f5_t2, arc_q13_size12):
    for arc in (conic_f5, arc_f5_t2):
        t = arc_degree(arc)
        table = AlphaTable(arc)
        for E in itertools.combinations(range(arc.size), t + arc.k):
            for A in itertools.combinations(E, arc.k - 2):
                assert check_theeqn(table, A, E) == 0
    table = AlphaTable(arc_q13_size12)
    rng = random.Random(3)
    t = arc_degree(arc_q13_size12)
    for _ in range(40):
        E = tuple(sorted(rng.sample(range(12), t + 3)))
        A = tuple(sorted(rng.sample(E, 1)))
        assert check_theeqn(table, A, E) == 0


def test_theeqn_perturbation(conic_f5, F5):
    # perturbing one alpha_C breaks the identity (recomputed inline)
    table = AlphaTable(conic_f5)
    E = (0, 1, 2, 3)
    A = (0,)
    def lhs(alpha_of):
        acc = 0
        for e in E:
            if e in A:
                continue
            C = tuple(sorted(A + (e,)))
            term = alpha_of(C)
            for u in E:
                if u not in C:
                    term = F5.div(term, ref_det_full(F5, conic_f5.points_at((u,) + C)))
            acc = F5.add(acc, term)
        return acc

    assert lhs(table.alpha) == 0
    bad = tuple(sorted(A + (1,)))
    perturbed = lambda C: F5.mul(table.alpha(C), 2) if C == bad else table.alpha(C)
    assert lhs(perturbed) != 0


def test_scaling_invariance(arc_f5_t2, F5):
    # rescaling any single f_B leaves the segre-sign relation and the
    # sum-zero identity unchanged; both recomputed with injected scalings
    rng = random.Random(8)
    arc = arc_f5_t2
    t = arc_degree(arc)
    scale = {A: rng.choice([2, 3, 4]) for A in subset_iter(arc.size, 1)}

    def f(B, e):
        return F5.mul(scale[B], tangent_fn(arc, B).at(e))

    sign = F5.neg(1) if (t + 1) % 2 else 1
    for D in [()]:
        for x, y, z in itertools.permutations(range(4), 3):
            lhs = F5.div(F5.mul(f((x,), y), f((z,), x)), f((x,), z))
            rhs = F5.div(F5.mul(f((y,), x), f((z,), y)), f((y,), z))
            assert lhs == F5.mul(sign, rhs)
    for E in itertools.combinations(range(arc.size), t + 3):
        for A in itertools.combinations(E, 1):
            acc = 0
            rest = [e for e in E if e not in A]
            for e in rest:
                term = f(A, e)
                for u in rest:
                    if u != e:
                        term = F5.div(
                            term, ref_det_full(F5, arc.points_at((u, e) + A))
                        )
                acc = F5.add(acc, term)
            assert acc == 0
