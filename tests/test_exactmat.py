import random

import pytest

from arclab.exactmat import (
    DimensionMismatchError,
    GFMatrix,
    LeftNullBasis,
    left_null_basis,
    rank,
    rref,
    solve,
    weight_one_in_colspace,
    weight_two_in_colspace,
)
from arclab.gf import FieldCtx

from conftest import annihilates, dot, mat_vec, rank_mod_p, ref_left_null, ref_rref


def random_matrix(ctx, rng, m, n):
    return GFMatrix.from_rows(ctx, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(m)])


# ----------------------------------------------------------------------
# brute-force membership oracles
# ----------------------------------------------------------------------


def brute_weight_one(M):
    for c in range(M.rows):
        unit = [0] * M.rows
        unit[c] = 1
        if solve(M, unit) is not None:
            return c
    return None


def brute_weight_two(M, c1, c2):
    ctx = M.ctx
    for a in ctx.nonzero():
        rhs = [0] * M.rows
        rhs[c1] = a
        rhs[c2] = 1
        if solve(M, rhs) is not None:
            return (a, 1)
    return None


# ----------------------------------------------------------------------


def test_rank_basic(F11):
    assert rank(GFMatrix.identity(F11, 3)) == 3
    assert rank(GFMatrix.zeros(F11, 4, 7)) == 0


def test_rank_equals_transpose_rank():
    rng = random.Random(3)
    for q, h in [(5, 1), (13, 1), (2, 3)]:
        ctx = FieldCtx(q, h)
        for _ in range(20):
            M = random_matrix(ctx, rng, rng.randrange(1, 9), rng.randrange(1, 9))
            assert rank(M) == rank(M.transpose())


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
            assert rank_mod_p(rows, p) == rank(GFMatrix.from_rows(ctx, rows))


def test_rref_contracts(F13):
    I = GFMatrix.identity(F13, 4)
    assert rref(I) == I
    rng = random.Random(5)
    for _ in range(15):
        M = random_matrix(F13, rng, 6, 9)
        R = rref(M)
        assert rref(R) == R
        assert rank(R) == rank(M)
        # pivot columns are unit vectors
        seen = []
        for i in range(R.rows):
            row = R.row(i)
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            pivot = nz[0]
            assert row[pivot] == 1
            assert all(R.entry(r, pivot) == 0 for r in range(R.rows) if r != i)
            assert not seen or pivot > seen[-1]
            seen.append(pivot)


def test_solve_identity_and_random_consistent(F13):
    I = GFMatrix.identity(F13, 5)
    b = [3, 0, 7, 1, 12]
    assert solve(I, b) == b
    rng = random.Random(11)
    for _ in range(25):
        M = random_matrix(F13, rng, 10, 14)
        x = [rng.randrange(13) for _ in range(14)]
        b = mat_vec(F13, [M.row(i) for i in range(M.rows)], x)
        got = solve(M, b)
        assert got is not None
        assert mat_vec(F13, [M.row(i) for i in range(M.rows)], got) == b


def test_solve_inconsistent(F5):
    M = GFMatrix.from_rows(F5, [[1, 0], [2, 0], [0, 0]])
    assert solve(M, [1, 2, 3]) is None
    with pytest.raises(DimensionMismatchError):
        solve(M, [1, 2])


def test_left_null_basic(F11):
    assert left_null_basis(GFMatrix.identity(F11, 4)).nullity == 0
    Z = GFMatrix.zeros(F11, 3, 6)
    null = left_null_basis(Z)
    assert null.nullity == 3


def test_left_null_annihilates():
    rng = random.Random(17)
    for q, h in [(5, 1), (11, 1), (3, 2)]:
        ctx = FieldCtx(q, h)
        for _ in range(15):
            M = random_matrix(ctx, rng, rng.randrange(2, 10), rng.randrange(1, 8))
            null = left_null_basis(M)
            assert null.nullity == M.rows - rank(M)
            rows = [M.row(i) for i in range(M.rows)]
            for w in null.vectors():
                assert any(w)
                assert annihilates(ctx, w, rows)


def test_weight_one_identity_and_oracle():
    rng = random.Random(23)
    for q in [5, 7, 11, 13]:
        ctx = FieldCtx(q)
        assert weight_one_in_colspace(GFMatrix.identity(ctx, 4)) == 0
        for _ in range(25):
            M = random_matrix(ctx, rng, rng.randrange(2, 9), rng.randrange(1, 10))
            assert weight_one_in_colspace(M) == brute_weight_one(M)


def test_weight_two_oracle_agreement():
    rng = random.Random(29)
    for q in [5, 11, 13]:
        ctx = FieldCtx(q)
        for _ in range(25):
            m = rng.randrange(3, 9)
            M = random_matrix(ctx, rng, m, rng.randrange(1, 10))
            c1, c2 = rng.sample(range(m), 2)
            got = weight_two_in_colspace(M, c1, c2)
            want = brute_weight_two(M, c1, c2)
            assert (got is None) == (want is None)
            if got is not None:
                a, b = got
                assert a != 0 and b != 0
                rhs = [0] * m
                rhs[c1], rhs[c2] = a, b
                assert solve(M, rhs) is not None


def test_weight_two_constructed_cases(F5):
    # colspace spanned by unit_0 only: no weight-two anywhere
    M = GFMatrix.from_rows(F5, [[1], [0], [0]])
    assert weight_two_in_colspace(M, 0, 1) is None
    assert weight_two_in_colspace(M, 1, 2) is None
    # both null-basis columns zero: rows 0 and 1 span freely
    M = GFMatrix.from_rows(F5, [[1, 0], [0, 1], [0, 0]])
    assert weight_two_in_colspace(M, 0, 1) == (1, 1)
    # full row rank: everything is in the column space
    M = GFMatrix.identity(F5, 3)
    assert weight_two_in_colspace(M, 0, 2) == (1, 1)
    with pytest.raises(DimensionMismatchError):
        weight_two_in_colspace(M, 1, 1)


def test_weight_two_zero_matrix_has_no_weight_two(F5):
    # the column space of the zero matrix is {0}: no weight-two vector,
    # and the brute-force oracle agrees
    Z = GFMatrix.zeros(F5, 4, 3)
    assert weight_two_in_colspace(Z, 0, 1) is None
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
        M = GFMatrix.from_rows(ctx, rows)
        R, pivots = ref_rref(ctx, rows, n)
        assert rank(M) == len(pivots)
        assert rref(M) == GFMatrix.from_rows(ctx, R)
        if p == 13:
            assert rank_mod_p(rows, p) == len(pivots)
        # a solvable right-hand side and a random one
        x = [rng.randrange(ctx.q) for _ in range(n)]
        for b in (mat_vec(ctx, rows, x), [rng.randrange(ctx.q) for _ in range(m)]):
            Rb, pb = ref_rref(ctx, [row + [bi] for row, bi in zip(rows, b)], n + 1)
            want = None
            if n not in pb:
                want = [0] * n
                for i, c in enumerate(pb):
                    want[c] = Rb[i][n]
            assert solve(M, b) == want
        # left null spaces agree as row spaces: equal reduced forms
        null = left_null_basis(M).vectors()
        ref = ref_left_null(ctx, rows)
        assert len(null) == len(ref) == m - len(pivots)
        assert ref_rref(ctx, null, m)[0] == ref_rref(ctx, ref, m)[0]


def test_left_null_basis_rejects_flat_basis(F5):
    with pytest.raises(DimensionMismatchError):
        LeftNullBasis(F5, [1, 2, 3])
