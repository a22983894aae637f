import random

import numpy as np
import pytest

from arclab.exactmat import (
    DimensionMismatchError,
    GFMatrix,
    LeftNullBasis,
    left_null_basis,
)
from arclab.gf import FieldCtx

from conftest import (
    annihilates,
    canonical_left_null,
    dot,
    mat_vec,
    rank_mod_p,
    ref_colspace_test,
    ref_left_null,
    ref_left_null_dense,
    ref_rref,
    unit_vector,
    weight_one_in_colspace,
)


def random_gfmatrix(ctx, rng, m, n):
    return GFMatrix(ctx, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(m)])


def rank_from_nullity(M):
    """rows - nullity: the rank that the left null basis implies."""
    return M.rows - left_null_basis(M).nullity


# ----------------------------------------------------------------------
# brute-force membership oracles, by scalar elimination (ref_rref)
# ----------------------------------------------------------------------


def brute_weight_one(M):
    inside = ref_colspace_test(M.ctx, M.data.tolist())
    return next((c for c in range(M.rows) if inside(unit_vector(M.rows, (c, 1)))), None)


def brute_weight_two(M, c1, c2):
    """The first (a, 1), a nonzero, with a*unit_c1 + unit_c2 in the
    column space, or None."""
    inside = ref_colspace_test(M.ctx, M.data.tolist())
    return next(((a, 1) for a in range(1, M.ctx.q) if inside(unit_vector(M.rows, (c1, a), (c2, 1)))), None)


def partners(M, c1, c2):
    """The library's answer: whether unit_c1 + b*unit_c2 lies in the
    column space for some b != 0."""
    return bool(left_null_basis(M).partners(c1, c2))


# ----------------------------------------------------------------------


def test_rank_basic(F11):
    assert rank_from_nullity(GFMatrix(F11, np.eye(3))) == 3
    assert rank_from_nullity(GFMatrix(F11, np.zeros((4, 7)))) == 0


def test_rank_equals_transpose_rank():
    rng = random.Random(3)
    for q, h in [(5, 1), (13, 1), (2, 3)]:
        ctx = FieldCtx(q, h)
        for _ in range(20):
            M = random_gfmatrix(ctx, rng, rng.randrange(1, 9), rng.randrange(1, 9))
            assert rank_from_nullity(M) == rank_from_nullity(GFMatrix(ctx, M.data.T))


def test_rank_matches_integer_elimination_oracle():
    # products of m x r and r x n factors give rank-deficient matrices
    rng = random.Random(41)
    for p in (3, 7, 13):
        ctx = FieldCtx(p)
        for _ in range(20):
            m, r, n = rng.randrange(1, 9), rng.randrange(1, 5), rng.randrange(1, 9)
            X = [[rng.randrange(p) for _ in range(r)] for _ in range(m)]
            Y = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
            rows = [[sum(a * b for a, b in zip(x, col)) % p for col in zip(*Y)] for x in X]
            assert rank_mod_p(rows, p) == rank_from_nullity(GFMatrix(ctx, rows))


def test_left_null_basic(F11):
    assert left_null_basis(GFMatrix(F11, np.eye(4))).nullity == 0
    null = left_null_basis(GFMatrix(F11, np.zeros((3, 6))))
    assert null.nullity == 3


@pytest.mark.parametrize("p,h", [(5, 1), (3, 2)])
def test_left_null_edge_shapes_match_dense_loop(p, h):
    # shapes with no elimination step, or none with a target: the zeroed
    # work array and its reversed identity alone give the basis
    ctx = FieldCtx(p, h)
    cases = [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((1, 1)), np.full((1, 1), 2), np.zeros((4, 2))]
    for data in cases:
        M = GFMatrix(ctx, data)
        null, ref = left_null_basis(M).basis, ref_left_null_dense(M)
        assert null.shape == (M.rows - int(data.any()), M.rows)
        assert np.array_equal(null, ref), data.shape


def test_left_null_basis_is_fixed_by_the_row_order(F5):
    # a row that depends on earlier rows (taken bottom-up) gets the null
    # vector with 1 at its own row and 0 at the other dependent rows,
    # whichever column pivots first: (0, 1, 4) in either column order,
    # where exchanging pivot rows into place gave (0, 4, 1)
    rows = np.array([[1, 0], [0, 1], [0, 1]])
    for cols in ([0, 1], [1, 0]):
        assert left_null_basis(GFMatrix(F5, rows[:, cols])).basis.tolist() == [[0, 1, 4]]


def test_canonical_left_null_gives_the_kernel_form():
    # the exchanged pivots' (0, 4, 1) and the stable (0, 1, 4) have one
    # canonical form; on random matrices the canonical form of the dense
    # loop's basis, and of a random invertible mix of the kernel's, is the
    # basis left_null_basis gives
    F5 = FieldCtx(5)
    rows = np.array([[1, 0], [0, 1], [0, 1]])
    assert canonical_left_null(F5, ref_left_null_dense(GFMatrix(F5, rows))).tolist() == [[0, 1, 4]]
    rng = random.Random(29)
    for p, h in [(5, 1), (3, 2), (2, 3)]:
        ctx = FieldCtx(p, h)
        for _ in range(20):
            M = random_gfmatrix(ctx, rng, rng.randrange(2, 10), rng.randrange(1, 6))
            want = left_null_basis(M).basis
            assert np.array_equal(canonical_left_null(ctx, ref_left_null_dense(M)), want)
            if len(want):
                while True:
                    mix = [[rng.randrange(ctx.q) for _ in want] for _ in want]
                    if len(ref_rref(ctx, mix, len(want))[1]) == len(want):
                        break
                mixed = ctx.vec_ops().matmul(np.array(mix, dtype=np.int64), want)
                assert np.array_equal(canonical_left_null(ctx, mixed), want)


def test_left_null_annihilates():
    rng = random.Random(17)
    for q, h in [(5, 1), (11, 1), (3, 2)]:
        ctx = FieldCtx(q, h)
        for _ in range(15):
            M = random_gfmatrix(ctx, rng, rng.randrange(2, 10), rng.randrange(1, 8))
            null = left_null_basis(M)
            rows = M.data.tolist()
            assert null.nullity == M.rows - len(ref_rref(ctx, rows, M.cols)[1])
            for w in null.basis.tolist():
                assert any(w)
                assert annihilates(ctx, w, rows)


def test_left_null_basis_above_the_int32_product_range():
    # p^2 > 2^32: elimination products must not wrap; a 12 x 9 product of
    # rank-5 factors has nullity 7
    p = 65537
    ctx = FieldCtx(p)
    rng = random.Random(65537)
    X = [[rng.randrange(p) for _ in range(5)] for _ in range(12)]
    Y = [[rng.randrange(p) for _ in range(9)] for _ in range(5)]
    rows = [[sum(a * b for a, b in zip(x, col)) % p for col in zip(*Y)] for x in X]
    null = left_null_basis(GFMatrix(ctx, rows))
    assert null.nullity == 12 - rank_mod_p(rows, p) == 7
    assert rank_mod_p(null.basis.tolist(), p) == 7
    for w in null.basis.tolist():
        assert annihilates(ctx, w, rows)


def test_weight_one_identity_and_oracle():
    rng = random.Random(23)
    for q in [5, 7, 11, 13]:
        ctx = FieldCtx(q)
        assert weight_one_in_colspace(GFMatrix(ctx, np.eye(4))) == 0
        for _ in range(25):
            M = random_gfmatrix(ctx, rng, rng.randrange(2, 9), rng.randrange(1, 10))
            assert weight_one_in_colspace(M) == brute_weight_one(M)


def test_weight_two_oracle_agreement():
    rng = random.Random(29)
    for q in [5, 11, 13]:
        ctx = FieldCtx(q)
        for _ in range(25):
            m = rng.randrange(3, 9)
            M = random_gfmatrix(ctx, rng, m, rng.randrange(1, 10))
            c1, c2 = rng.sample(range(m), 2)
            assert partners(M, c1, c2) == (brute_weight_two(M, c1, c2) is not None)


def test_weight_two_constructed_cases(F5):
    # colspace spanned by unit_0 only: no weight-two anywhere
    M = GFMatrix(F5, [[1], [0], [0]])
    assert not partners(M, 0, 1)
    assert not partners(M, 1, 2)
    # both null-basis columns zero: rows 0 and 1 span freely
    M = GFMatrix(F5, [[1, 0], [0, 1], [0, 0]])
    assert partners(M, 0, 1) and not partners(M, 0, 2)
    # full row rank: everything is in the column space
    M = GFMatrix(F5, np.eye(3))
    assert partners(M, 0, 2)
    # a proportional pair: unit_0 + 3 unit_1 spans the column space
    M = GFMatrix(F5, [[1], [3], [0]])
    assert partners(M, 0, 1) and partners(M, 1, 0) and not partners(M, 0, 2)
    assert brute_weight_two(M, 0, 1) == (2, 1) and brute_weight_two(M, 1, 0) == (3, 1)
    # broadcast row indices: all pairs at once
    rows = np.arange(3)
    assert left_null_basis(M).partners(rows[:, None], rows[None, :]).tolist() == [
        [True, True, False],
        [True, True, False],
        [False, False, True],
    ]


def test_weight_two_zero_matrix_has_no_weight_two(F5):
    # the column space of the zero matrix is {0}: no weight-two vector,
    # and the brute-force oracle agrees
    Z = GFMatrix(F5, np.zeros((4, 3)))
    assert not partners(Z, 0, 1)
    assert brute_weight_two(Z, 0, 1) is None


def _random_rows(ctx, rng, m, n):
    """Seeded m x n entries with some zero rows and zero columns, and
    rank deficiency from a thin factorisation in half the draws."""
    if rng.random() < 0.5:
        r = rng.randrange(1, min(m, n) + 1)
        X = [[rng.randrange(ctx.q) for _ in range(r)] for _ in range(m)]
        Y = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(r)]
        rows = [[dot(ctx, x, col) for col in zip(*Y)] for x in X]
    else:
        rows = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(m)]
    for i in rng.sample(range(m), m // 4):
        rows[i] = [0] * n
    for j in rng.sample(range(n), n // 4):
        for row in rows:
            row[j] = 0
    return rows


SHAPES = [(1, 1), (3, 9), (5, 23), (4, 40), (8, 8), (12, 5), (9, 30)]


@pytest.mark.parametrize("p,h", [(2, 3), (3, 4), (13, 1)])
def test_elimination_matches_scalar_reference(p, h):
    ctx = FieldCtx(p, h)
    rng = random.Random(p * 10 + h)
    for m, n in SHAPES * 3:
        rows = _random_rows(ctx, rng, m, n)
        M = GFMatrix(ctx, rows)
        pivots = ref_rref(ctx, rows, n)[1]
        assert rank_from_nullity(M) == len(pivots)
        if p == 13:
            assert rank_mod_p(rows, p) == len(pivots)
        # the basis annihilates exactly the column-space vectors, here a
        # product M x and a random vector
        inside = ref_colspace_test(ctx, rows)
        null = left_null_basis(M).basis.tolist()
        x = [rng.randrange(ctx.q) for _ in range(n)]
        for b in (mat_vec(ctx, rows, x), [rng.randrange(ctx.q) for _ in range(m)]):
            assert inside(b) == all(dot(ctx, w, b) == 0 for w in null)
        # left null spaces agree as row spaces: equal reduced forms
        ref = ref_left_null(ctx, rows)
        assert len(null) == len(ref) == m - len(pivots)
        assert ref_rref(ctx, null, m)[0] == ref_rref(ctx, ref, m)[0]


def test_left_null_basis_rejects_flat_basis(F5):
    with pytest.raises(DimensionMismatchError):
        LeftNullBasis(F5, [1, 2, 3])


@pytest.mark.parametrize("p,h", [(5, 1), (11, 1), (2, 3), (3, 2)])
def test_row_permutation_permutes_the_left_null_space(p, h):
    # w M = 0 iff (w permuted alike) M[perm] = 0: the reduced bases of the
    # two null spaces agree once the columns are put back in M's order
    ctx = FieldCtx(p, h)
    rng = random.Random(p * 10 + h)
    for m, n in SHAPES * 2:
        M = GFMatrix(ctx, _random_rows(ctx, rng, m, n))
        perm = list(range(m))
        rng.shuffle(perm)
        moved = left_null_basis(GFMatrix(ctx, M.data[perm])).basis
        back = np.zeros_like(moved)
        back[:, perm] = moved
        null = left_null_basis(M)
        assert null.nullity == len(back)
        if null.nullity:
            assert ref_rref(ctx, back.tolist(), m)[0] == ref_rref(ctx, null.basis.tolist(), m)[0]
