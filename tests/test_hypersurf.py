import itertools
import random
from math import comb

import pytest

from arclab import arcgeom
from arclab.arcgeom import ArcConfig, subset_iter
from arclab.cli import cmd_hypersurface, parse_arc_file
from arclab.hypersurf import (
    ArcTooSmallError,
    ZeroVectorError,
    build_surface,
    eval_dual,
    theorem9_check,
)
from arclab.tangentfns import AlphaTable, tangent_fn

from conftest import (
    ARCS_DIR,
    dual_coords,
    moment_curve,
    points_off_span,
    prefix_arc,
    ref_cosecants_through,
    ref_det_full,
)


def eval_surface(surface, ys):
    """The surface at k-1 vectors Y in its defining form,
    sum_C coef_C prod_{z in E-C} det(z, Y_1, ..., Y_{k-1}), each
    determinant by scalar elimination: zero at dependent Y unless the
    degree is 0."""
    ctx, E = surface.arc.ctx, surface.E
    det = {z: ref_det_full(ctx, [surface.arc.points[z]] + list(ys)) for z in E}
    acc = 0
    for C, coef in surface.coeffs.items():
        acc = ctx.add(acc, ctx.mul(coef, ctx.prod(det[z] for z in E if z not in C)))
    return acc


@pytest.fixture(scope="module")
def arc_f8_t2(hyperconic_f8):
    return prefix_arc(hyperconic_f8, 8)


@pytest.fixture(scope="module")
def arc_f13_t3(conic_f13):
    return prefix_arc(conic_f13, 12)


def test_build_surface_sizes(conic_f5, hyperconic_f8, arc_f8_t2):
    s = build_surface(conic_f5)
    assert (s.parity, s.t, s.degree, len(s.E)) == ("odd", 1, 2, 4)
    s = build_surface(prefix_arc(hyperconic_f8, 9))
    assert (s.parity, s.t, s.degree, len(s.E)) == ("even", 1, 1, 3)
    s = build_surface(arc_f8_t2)
    assert (s.parity, s.t, s.degree, len(s.E)) == ("even", 2, 2, 4)
    # t = 0: single term, constant and nonzero
    s0 = build_surface(hyperconic_f8)
    assert s0.degree == 0 and len(s0.E) == 2
    assert eval_surface(s0, [(1, 0, 0), (1, 1, 1)]) != 0


def test_build_surface_too_small(F13, conic_f13):
    with pytest.raises(ArcTooSmallError):
        build_surface(prefix_arc(conic_f13, 4))  # t = 11 needs |E| = 24 > |S|
    with pytest.raises(ArcTooSmallError):
        build_surface(conic_f13, E=(0, 1, 2))


def test_eval_degenerate_and_zero_vec(conic_f5):
    s = build_surface(conic_f5)
    assert eval_surface(s, [(1, 2, 3), (1, 2, 3)]) == 0
    with pytest.raises(ZeroVectorError):
        eval_dual(s, (0, 0, 0))


def test_dual_consistency(conic_f5, arc_f8_t2, F5):
    rng = random.Random(14)
    for arc in (conic_f5, arc_f8_t2):
        s = build_surface(arc)
        ctx = arc.ctx
        for _ in range(40):
            ys = [tuple(rng.randrange(ctx.q) for _ in range(3)) for _ in range(2)]
            z = dual_coords(ctx, ys)
            if any(z):
                assert eval_surface(s, ys) == eval_dual(s, z)


def test_cosecant_duals_vanish(conic_f5, arc_f8_t2, arc_f13_t3):
    for arc in (conic_f5, arc_f8_t2, arc_f13_t3):
        s = build_surface(arc)
        for A in subset_iter(arc.size, arc.k - 2):
            for form in ref_cosecants_through(A, arc):
                assert eval_dual(s, form) == 0


def test_secant_duals_nonzero_on_conic(conic_f5, F5):
    s = build_surface(conic_f5)
    # hyperplane through two arc points: dual vector must not vanish
    for C in itertools.combinations(range(conic_f5.size), 2):
        z = dual_coords(F5, conic_f5.points_at(C))
        assert eval_dual(s, z) != 0


def test_theorem9(conic_f5, arc_f8_t2, arc_f13_t3, hyperconic_f8):
    for arc in (conic_f5, arc_f8_t2, arc_f13_t3, prefix_arc(hyperconic_f8, 9)):
        s = build_surface(arc)
        for A in subset_iter(arc.size, arc.k - 2):
            assert theorem9_check(s, A)


def test_theorem9_A_outside_E(arc_f13_t3):
    # E is the first 8 points; subsets drawn from the tail hit the
    # induction branch |A & E| < k-2
    s = build_surface(arc_f13_t3)
    assert len(s.E) == 8
    for A in [(8,), (9,), (10,), (11,)]:
        assert theorem9_check(s, A)


def test_theorem9_k4(F7):
    nrc = ArcConfig(F7, 4, moment_curve(F7, 4, range(7), infinity=True))
    s = build_surface(nrc)
    assert s.parity == "odd" and s.degree == 4
    for A in subset_iter(nrc.size, 2):
        assert theorem9_check(s, A)


def test_odd_q_restriction_is_perfect_square(conic_f5, arc_f13_t3):
    # on the dual line of <A> the surface equals (alpha_A f_A)^2 pointwise
    for arc in (conic_f5, arc_f13_t3):
        ctx = arc.ctx
        s = build_surface(arc)
        table = AlphaTable(arc)
        for A in list(subset_iter(arc.size, arc.k - 2))[:6]:
            fA = tangent_fn(arc, A)
            al = table.alpha(A)
            for x in points_off_span(arc, A, s.degree + 1):
                z = dual_coords(ctx, [x] + arc.points_at(A))
                root = ctx.mul(al, fA(x))
                assert eval_dual(s, z) == ctx.mul(root, root)


def test_swap_sign_factor(conic_f5, arc_f8_t2, F7):
    rng = random.Random(15)
    nrc = ArcConfig(F7, 4, moment_curve(F7, 4, range(7), infinity=True))
    for arc in (conic_f5, arc_f8_t2, nrc):
        ctx = arc.ctx
        s = build_surface(arc)
        exp = (len(s.E) - arc.k + 1) % 2
        for _ in range(30):
            ys = [
                tuple(rng.randrange(ctx.q) for _ in range(arc.k))
                for _ in range(arc.k - 1)
            ]
            i, j = (0, 1) if arc.k == 3 else rng.sample(range(arc.k - 1), 2)
            ys2 = list(ys)
            ys2[i], ys2[j] = ys2[j], ys2[i]
            v1, v2 = eval_surface(s, ys), eval_surface(s, ys2)
            assert v2 == (v1 if exp == 0 else ctx.neg(v1))


def test_custom_E_choice(conic_f13):
    s = build_surface(prefix_arc(conic_f13, 12), E=(2, 3, 5, 7, 8, 9, 10, 11))
    for A in [(0,), (1,), (4,)]:
        assert theorem9_check(s, A)


def test_cmd_hypersurface_kernel_calls(monkeypatch):
    # one pencil basis per (k-2)-subset, kept on its tangent function for
    # the co-secants and theorem9_check, and one determinant-product table,
    # each one small-set elimination
    calls = []
    eliminate = arcgeom._eliminate

    def counted(*args):
        calls.append(1)
        return eliminate(*args)

    monkeypatch.setattr(arcgeom, "_eliminate", counted)
    for name in ("conic_f5", "hyperconic_f8"):
        arc = parse_arc_file((ARCS_DIR / f"{name}.arc").read_text())
        calls.clear()
        assert cmd_hypersurface(arc)["theorem9_all"]
        assert len(calls) <= comb(arc.size, arc.k - 2) + 1, name
