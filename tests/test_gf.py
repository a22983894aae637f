import gc
import itertools
import math
import random
import weakref

import numpy as np
import pytest

from arclab.gf import (
    ElementSyntaxError,
    ExponentOutOfRangeError,
    FieldCtx,
    FieldError,
    NonPrimitiveGeneratorError,
    NotPrimeError,
    UnsupportedFieldError,
    conway_polynomial,
)

from conftest import ref_add, ref_mul, ref_neg, ref_x_order


def brute_order(g, p):
    x, n = g, 1
    while x != 1:
        x = x * g % p
        n += 1
    return n


def test_prime_field_generator_is_smallest_primitive_root():
    assert FieldCtx(11).generator == 2
    assert brute_order(2, 11) == 10
    assert FieldCtx(13).generator == 2
    assert brute_order(2, 13) == 12
    # 2 is not primitive mod 7; the smallest primitive root is 3
    assert FieldCtx(7).generator == 3
    assert brute_order(3, 7) == 6


def test_gf81_conway_modulus_is_irreducible_and_primitive():
    ctx = FieldCtx(3, 4)
    assert ctx.modulus == (1, 2, 0, 0, 2)
    # brute-force irreducibility: no root and no quadratic factor
    def poly_eval(coeffs_high_low, x, p):
        acc = 0
        for c in coeffs_high_low:
            acc = (acc * x + c) % p
        return acc

    assert all(poly_eval(ctx.modulus, x, 3) != 0 for x in range(3))
    # exhaust monic quadratic divisors
    for b in range(3):
        for c in range(3):
            # long-divide x^4+2x^3+2 by x^2+bx+c over GF(3)
            r = list(ctx.modulus)
            for _ in range(3):
                lead = r[0]
                r = [
                    (r[1] - lead * b) % 3,
                    (r[2] - lead * c) % 3,
                ] + r[3:]
            assert any(r), f"x^2+{b}x+{c} divides the modulus"
    # generator order is exactly 80
    seen = set()
    x = 1
    for _ in range(80):
        x = ctx.mul(x, ctx.generator)
        seen.add(x)
    assert x == 1 and len(seen) == 80


def test_construction_errors():
    with pytest.raises(NotPrimeError):
        FieldCtx(4)
    with pytest.raises(NotPrimeError):
        FieldCtx(1)
    with pytest.raises(UnsupportedFieldError):
        FieldCtx(2)  # q = 2 < 3
    with pytest.raises(UnsupportedFieldError):
        FieldCtx(2, 21)  # above the table cap
    with pytest.raises(UnsupportedFieldError):
        FieldCtx(17, 2)  # no built-in modulus
    with pytest.raises(NonPrimitiveGeneratorError):
        FieldCtx(3, 2, (1, 2, 1))  # (x+1)^2: x has order 6 in a ring that is no field
    with pytest.raises(NonPrimitiveGeneratorError):
        FieldCtx(3, 2, (1, 0, 1))  # x^2+1 irreducible, x has order 4 != 8
    with pytest.raises(FieldError, match="extension degree"):
        FieldCtx(5, 0)
    with pytest.raises(FieldError, match="degree 2"):
        FieldCtx(5, 2, (1, 0, 0, 2))  # a cubic for GF(25)
    with pytest.raises(FieldError, match="monic"):
        FieldCtx(5, 2, (2, 0, 2))


def test_accepted_moduli_are_exactly_the_primitive_ones():
    # every monic modulus of every field with q <= 200 and p <= 13: FieldCtx
    # accepts exactly those of which x has order q-1 by brute force, and
    # there are phi(q-1)/h of them (Lidl and Niederreiter, Finite Fields)
    total = 0
    for p in (2, 3, 5, 7, 11, 13):
        for h in range(1, 8):
            q = p**h
            if q < 3 or q > 200:
                continue
            accepted = 0
            for rest in itertools.product(range(p), repeat=h):
                modulus = (1,) + rest
                total += 1
                try:
                    FieldCtx(p, h, modulus)
                    accepted += 1
                except NonPrimitiveGeneratorError:
                    assert ref_x_order(p, modulus) != q - 1, modulus
                else:
                    assert ref_x_order(p, modulus) == q - 1, modulus
            assert accepted == sum(math.gcd(i, q - 1) == 1 for i in range(1, q)) // h
    assert total == 897


def test_user_modulus_override():
    # x^2+x+2 over GF(3) is primitive (x generates all 8 nonzero elements)
    ctx = FieldCtx(3, 2, (1, 1, 2))
    assert ctx.q == 9
    assert sorted(ctx.exp) == sorted(range(1, 9))


@pytest.mark.parametrize("p,h", [(5, 1), (11, 1), (13, 1), (2, 2), (3, 2)])
def test_field_axioms_exhaustive(p, h):
    ctx = FieldCtx(p, h)
    elems = list(range(ctx.q))
    for a in elems:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.mul(a, 0) == 0
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in elems:
                assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


@pytest.mark.parametrize("p,h", [(3, 4), (2, 4), (5, 3), (13, 2)])
def test_field_axioms_randomised(p, h):
    ctx = FieldCtx(p, h)
    rng = random.Random(p * 100 + h)
    for _ in range(400):
        a, b, c = (rng.randrange(ctx.q) for _ in range(3))
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1


@pytest.mark.parametrize("p,h", [(11, 1), (3, 4), (2, 3)])
def test_antilog_multiplication_law(p, h):
    ctx = FieldCtx(p, h)
    n1 = ctx.q - 1
    rng = random.Random(9)
    pairs = (
        [(i, j) for i in range(n1) for j in range(n1)]
        if n1 <= 16
        else [(rng.randrange(n1), rng.randrange(n1)) for _ in range(500)]
    )
    for i, j in pairs:
        assert ctx.mul(ctx.exp[i], ctx.exp[j]) == ctx.exp[(i + j) % n1]


@pytest.mark.parametrize("p,h", [(5, 1), (13, 1), (3, 4), (2, 3)])
def test_characteristic(p, h):
    ctx = FieldCtx(p, h)
    acc = 0
    for _ in range(p):
        acc = ctx.add(acc, 1)
    assert acc == 0


def test_arithmetic_examples_gf11():
    ctx = FieldCtx(11)
    t = ctx.exp.__getitem__
    # tau = 2: tau^0 + tau^0 = 2 = tau^1
    assert ctx.add(t(0), t(0)) == t(1) == 2
    # inv(tau^3) = tau^7 since 3+7 = 10
    assert ctx.inv(t(3)) == t(7)
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(t(3), 0) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    with pytest.raises(ZeroDivisionError):
        ctx.pow(0, -1)


@pytest.mark.parametrize("p,h", [(11, 1), (13, 1), (3, 4)])
def test_parse_format_round_trip(p, h):
    ctx = FieldCtx(p, h)
    for x in range(ctx.q):
        assert ctx.parse(ctx.format(x)) == x


def test_parse_examples():
    F13 = FieldCtx(13)
    assert F13.parse("0") == 0
    # "7" denotes the residue; its antilog exponent by exhaustion
    log7 = next(e for e in range(12) if pow(2, e, 13) == 7)
    assert F13.parse("7") == F13.exp[log7] == 7
    F11 = FieldCtx(11)
    assert F11.parse("t^5") == F11.exp[5]
    with pytest.raises(ExponentOutOfRangeError):
        F11.parse("t^10")
    with pytest.raises(ExponentOutOfRangeError):
        F11.parse("15")
    with pytest.raises(ElementSyntaxError):
        F11.parse("x+1")
    with pytest.raises(ElementSyntaxError):
        FieldCtx(3, 4).parse("7")  # bare ints only over prime fields


def test_parse_takes_ascii_digits_only():
    # int() reads every Unicode decimal digit: '\uff17' (fullwidth) as 7
    # and '\u0665' (Arabic-Indic) as 5
    F11 = FieldCtx(11)
    assert (F11.parse("7"), F11.parse("t^5")) == (7, F11.exp[5])
    for text in ("\uff17", "t^\u0665", "t^-\u0665"):
        with pytest.raises(ElementSyntaxError):
            F11.parse(text)


def test_conway_polynomial_table():
    assert conway_polynomial(2, 2) == (1, 1, 1)
    assert conway_polynomial(3, 4) == (1, 2, 0, 0, 2)
    assert conway_polynomial(11, 1) == (1, 9)
    with pytest.raises(UnsupportedFieldError):
        conway_polynomial(17, 2)


# Fields for the reference comparisons: every shipped extension field up
# to GF(81), a user modulus, a prime field, and GF(2^5), GF(2^6), which
# need a modulus because the Conway table stops at h = 4.
REF_FIELDS = [
    (2, 2, None), (2, 3, None), (3, 2, None), (2, 4, None), (5, 2, None),
    (3, 3, None), (7, 2, None), (3, 4, None), (3, 2, (1, 1, 2)), (13, 1, None),
    (2, 5, (1, 0, 0, 1, 0, 1)), (2, 6, (1, 0, 0, 0, 0, 1, 1)),
]


def _ref_tables(ctx):
    q = ctx.q
    add = np.array([[ref_add(ctx, a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[ref_mul(ctx, a, b) for b in range(q)] for a in range(q)])
    neg = np.array([ref_neg(ctx, a) for a in range(q)])
    return add, mul, neg


@pytest.mark.parametrize("p,h,modulus", REF_FIELDS)
def test_scalar_arithmetic_matches_digitwise_reference(p, h, modulus):
    ctx = FieldCtx(p, h, modulus)
    add, mul, neg = _ref_tables(ctx)
    for a in range(ctx.q):
        assert ctx.neg(a) == neg[a]
        for b in range(ctx.q):
            assert ctx.add(a, b) == add[a, b]
            assert ctx.add(a, ctx.neg(b)) == add[a, neg[b]]
            assert ctx.mul(a, b) == mul[a, b]
    # the two sums 1 + g^i that vanish
    half = 0 if p == 2 else (ctx.q - 1) // 2
    assert ctx.add(1, ctx.exp[half]) == 0


@pytest.mark.parametrize("p,h,modulus", REF_FIELDS)
def test_vector_arithmetic_matches_digitwise_reference(p, h, modulus):
    ctx = FieldCtx(p, h, modulus)
    ops = ctx.vec_ops()
    add, mul, neg = _ref_tables(ctx)
    a = np.arange(ctx.q)[:, None]
    b = np.arange(ctx.q)[None, :]
    assert (ops.add(a, b) == add).all()
    assert (ops.sub(a, b) == add[a, neg[b]]).all()
    assert (ops.mul(a, b) == mul).all()
    assert (ops.neg(np.arange(ctx.q)) == neg).all()


@pytest.mark.parametrize("p,h,modulus", REF_FIELDS)
def test_elimination_kernel_matches_digitwise_reference(p, h, modulus):
    # every (entry, nonzero factor, pivot-row entry) triple at once
    ctx = FieldCtx(p, h, modulus)
    q = ctx.q
    add, mul, _ = _ref_tables(ctx)
    w = np.tile(np.arange(q), q)
    r = np.repeat(np.arange(q), q)
    f = np.arange(1, q)
    block = np.tile(w, (q - 1, 1))
    got = ctx.vec_ops().addmul(block, f, r)
    assert (got == add[w[None, :], mul[f[:, None], r[None, :]]]).all()


@pytest.mark.parametrize("p,h", [(2, 3), (3, 2), (3, 4)])
def test_matmul_of_stacks_matches_scalar_reference(p, h):
    # an extension field sums the inner axis one index at a time: stacks
    # whose leading axes broadcast, inner sizes 1 to 6, a third of the
    # entries zero, against digit-wise sums of schoolbook products
    ctx = FieldCtx(p, h)
    ops = ctx.vec_ops()
    rng = np.random.default_rng(ctx.q)
    for inner in (1, 2, 6):
        a = rng.integers(0, ctx.q, (3, 1, 4, inner)) * (rng.random((3, 1, 4, inner)) > 1 / 3)
        b = rng.integers(0, ctx.q, (2, inner, 5)) * (rng.random((2, inner, 5)) > 1 / 3)
        got = ops.matmul(a, b)
        assert got.shape == (3, 2, 4, 5)
        for i, j, r, c in itertools.product(range(3), range(2), range(4), range(5)):
            want = 0
            for x, y in zip(a[i, 0, r].tolist(), b[j, :, c].tolist()):
                want = ref_add(ctx, want, ref_mul(ctx, x, y))
            assert got[i, j, r, c] == want, (inner, i, j, r, c)


def test_vector_arithmetic_above_the_int32_product_range():
    # p^2 > 2^32, so a product or a matmul sum of this field held in int32
    # would wrap; Python ints are the reference
    p = 65537
    ops = FieldCtx(p).vec_ops()
    rng = np.random.default_rng(65537)
    a, b = rng.integers(0, p, 2000), rng.integers(1, p, 2000)
    al, bl = a.tolist(), b.tolist()
    assert ops.mul(a, b).tolist() == [x * y % p for x, y in zip(al, bl)]
    assert ops.add(a, b).tolist() == [(x + y) % p for x, y in zip(al, bl)]
    assert ops.sub(a, b).tolist() == [(x - y) % p for x, y in zip(al, bl)]
    assert ops.div(a, b).tolist() == [x * pow(y, -1, p) % p for x, y in zip(al, bl)]
    A, B = rng.integers(0, p, (20, 30)), rng.integers(0, p, (30, 10))
    AB = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*B.tolist())] for row in A.tolist()]
    assert ops.matmul(A, B).tolist() == AB
    block, f, row = rng.integers(0, p, (20, 40)), rng.integers(1, p, 20), rng.integers(0, p, 40)
    want = [[(x + fi * y) % p for x, y in zip(brow, row.tolist())] for brow, fi in zip(block.tolist(), f.tolist())]
    assert ops.addmul(block, f, row).tolist() == want


def test_dropped_field_is_freed_by_refcount():
    gc.disable()
    try:
        ctx = FieldCtx(3, 4)
        ctx.vec_ops()
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()
