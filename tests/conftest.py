import itertools
import random
from pathlib import Path

import pytest

from arclab.arcgeom import (
    ArcConfig,
    BudgetExceededError,
    SearchResult,
    cosecants_through,
    det_full,
    projective_points,
    subset_iter,
)
from arclab.certifier import recover_cosecants, vg_vector
from arclab.gf import FieldCtx

ARCS_DIR = Path(__file__).resolve().parent.parent / "arcs"


# ----------------------------------------------------------------------
# independent oracles (no reuse of library elimination / pencil code)
# ----------------------------------------------------------------------


def ref_add(ctx, a, b):
    """Digit-wise sum of two element codes in base p: the addition that
    the library replaced by Zech logarithms, kept as the reference."""
    out, s = 0, 1
    for _ in range(ctx.h):
        out += ((a // s + b // s) % ctx.p) * s
        s *= ctx.p
    return out


def ref_neg(ctx, a):
    """Digit-wise negation of an element code in base p."""
    out, s = 0, 1
    for _ in range(ctx.h):
        out += ((-(a // s)) % ctx.p) * s
        s *= ctx.p
    return out


def ref_mul(ctx, a, b):
    """Product of two element codes by schoolbook multiplication of their
    digit polynomials, reduced by the modulus (no log tables)."""
    p, h = ctx.p, ctx.h
    da = [a // p**i % p for i in range(h)]
    db = [b // p**i % p for i in range(h)]
    prod = [0] * (2 * h - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    low = ctx.modulus[::-1]  # low -> high, monic
    for d in range(2 * h - 2, h - 1, -1):
        c = prod[d] % p
        for i, m in enumerate(low):
            prod[d - h + i] -= c * m
    return sum(prod[i] % p * p**i for i in range(h))


def ref_rref(ctx, rows, width):
    """Reduced row-echelon form and pivot columns of a list of rows, by
    scalar elimination with digit-wise addition: the exactmat reference."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = ctx.inv(m[r][c])
        m[r] = [ctx.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = ref_neg(ctx, m[i][c])
                m[i] = [ref_add(ctx, x, ctx.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def ref_left_null(ctx, rows):
    """A basis of {w : w M = 0}, read off the reduced form of M^T."""
    m = len(rows)
    R, pivots = ref_rref(ctx, [list(col) for col in zip(*rows)], m)
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        w = [0] * m
        w[fc] = 1
        for i, pc in enumerate(pivots):
            w[pc] = ref_neg(ctx, R[i][fc])
        basis.append(w)
    return basis


def laplace_det(ctx, rows):
    """Cofactor-expansion determinant: the independent oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = 0
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = ctx.mul(rows[0][j], laplace_det(ctx, minor))
            acc = ctx.add(acc, term if sign > 0 else ctx.neg(term))
        sign = -sign
    return acc


def all_dual_reps(ctx, k):
    """Every projective representative of the dual space, brute force."""
    out = []
    for lead in range(k):
        for rest in itertools.product(range(ctx.q), repeat=k - 1 - lead):
            out.append((0,) * lead + (1,) + rest)
    return out


def dot(ctx, u, v):
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = ctx.add(acc, ctx.mul(a, b))
    return acc


def mat_vec(ctx, rows, x):
    return [dot(ctx, row, x) for row in rows]


def annihilates(ctx, w, rows):
    """Whether w M = 0 for the matrix with the given rows, column by column."""
    return all(dot(ctx, w, col) == 0 for col in zip(*rows))


def rank_mod_p(rows, p):
    """Rank over the prime field GF(p) by plain integer Gaussian elimination."""
    m = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


# ----------------------------------------------------------------------
# completion search reference: one det_full per (candidate, new point,
# (k-2)-subset) triple, the search the library replaced by bitsets
# ----------------------------------------------------------------------


def _ref_compatible(ctx, k, points, v):
    return all(
        det_full(ctx, [v] + list(sub)) != 0 for sub in itertools.combinations(points, k - 1)
    )


def ref_extensions_of(arc):
    """Projective representatives v with arc + v still an arc, by determinants."""
    return [v for v in projective_points(arc.ctx, arc.k) if _ref_compatible(arc.ctx, arc.k, arc.points, v)]


def ref_complete_search(arc, target_size=None, budget=2_000_000):
    """Scalar DFS with the node order and results of complete_search."""
    ctx, k = arc.ctx, arc.k
    sizes, found = set(), []
    nodes = 0

    def dfs(cur, cands, start):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"search exceeded {budget} nodes")
        if target_size is not None:
            if len(cur) >= target_size:
                if len(cur) == target_size:
                    found.append(tuple(cur))
                return
        elif not cands:
            sizes.add(len(cur))
            return
        for i in range(start, len(cands)):
            v = cands[i]
            nxt = [
                (j, w)
                for j, w in enumerate(cands)
                if j != i
                and all(
                    det_full(ctx, [w, v] + list(sub)) != 0
                    for sub in itertools.combinations(cur, k - 2)
                )
            ]
            cur.append(v)
            # the child branches only over survivors above v
            dfs(cur, [w for _, w in nxt], sum(1 for j, _ in nxt if j < i))
            cur.pop()

    dfs(list(arc.points), ref_extensions_of(arc), 0)
    if target_size is not None:
        return SearchResult(None, tuple(found), nodes)
    return SearchResult(tuple(sorted(sizes)), None, nodes)


def ref_random_arc(ctx, k, size, rng, attempts):
    """Greedy arc over shuffled projective points, checked by determinants;
    None when no attempt reaches the size."""
    pts = list(projective_points(ctx, k))
    for _ in range(attempts):
        rng.shuffle(pts)
        cur = []
        for v in pts:
            if _ref_compatible(ctx, k, cur, v):
                cur.append(v)
                if len(cur) == size:
                    return cur
    return None


# ----------------------------------------------------------------------
# recovery round trip
# ----------------------------------------------------------------------


def recovers_extension(S, g):
    """Whether recovery from the true v_G of S's g-point prefix G reproduces
    cosecants_through(A, S) for every (k-2)-subset A of G.

    S must have the extension size q+2k+n-1-g for some n >= 0; recovery
    then runs on M_n of G with t = |G|-k-n.
    """
    n = S.size + g + 1 - S.ctx.q - 2 * S.k
    pred = recover_cosecants(S.prefix(g), n, source=vg_vector(S, g).coords)
    return pred.all_split and all(
        sorted(pred.per_A[A].forms) == sorted(cosecants_through(A, S))
        for A in subset_iter(g, S.k - 2)
    )


# ----------------------------------------------------------------------
# fields
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def F4():
    return FieldCtx(2, 2)


@pytest.fixture(scope="session")
def F5():
    return FieldCtx(5)


@pytest.fixture(scope="session")
def F7():
    return FieldCtx(7)


@pytest.fixture(scope="session")
def F8():
    return FieldCtx(2, 3)


@pytest.fixture(scope="session")
def F9():
    return FieldCtx(3, 2)


@pytest.fixture(scope="session")
def F11():
    return FieldCtx(11)


@pytest.fixture(scope="session")
def F13():
    return FieldCtx(13)


@pytest.fixture(scope="session")
def F81():
    return FieldCtx(3, 4)


# ----------------------------------------------------------------------
# standard arcs
# ----------------------------------------------------------------------


def moment_curve(ctx, k, params, infinity=False):
    pts = [tuple(ctx.pow(a, i) for i in range(k)) for a in params]
    if infinity:
        pts.append((0,) * (k - 1) + (1,))
    return pts


def shuffled_nrc(ctx, k, seed):
    """The q+1 points of the normal rational curve of V_k(F_q), in a seeded
    random order so that prefixes are not runs of consecutive parameters."""
    pts = moment_curve(ctx, k, ctx.elements(), infinity=True)
    random.Random(seed).shuffle(pts)
    return pts


@pytest.fixture(scope="session")
def conic_f5(F5):
    return ArcConfig(F5, 3, moment_curve(F5, 3, range(5), infinity=True))


@pytest.fixture(scope="session")
def conic_f13(F13):
    return ArcConfig(F13, 3, moment_curve(F13, 3, range(13), infinity=True))


@pytest.fixture(scope="session")
def arc_q11(F11):
    t = F11.t
    return ArcConfig(F11, 3, [
        (t(0), 0, 0), (0, t(0), 0), (0, 0, t(0)), (t(0), t(5), t(0)),
        (t(0), t(8), t(9)), (t(0), t(1), t(5)), (t(0), t(3), t(1)),
    ])


@pytest.fixture(scope="session")
def arc_q13_size9(F13):
    e = F13.t
    return ArcConfig(F13, 3, [
        (e(0), 0, 0), (0, e(0), 0), (0, 0, e(0)), (e(0), e(2), e(3)),
        (e(0), e(6), e(4)), (e(0), e(9), e(9)), (e(0), e(4), e(6)),
        (e(0), e(11), e(5)), (e(0), e(0), e(8)),
    ])


@pytest.fixture(scope="session")
def arc_q13_size6(F13):
    e = F13.t
    return ArcConfig(F13, 3, [
        (e(0), 0, 0), (0, e(0), 0), (0, 0, e(0)), (e(0), e(10), e(2)),
        (e(0), e(2), e(11)), (e(0), e(9), e(4)),
    ])


@pytest.fixture(scope="session")
def arc_q81(F81):
    r = F81.t
    rows = [
        [0, None, None, None, None, None],
        [None, 0, None, None, None, None],
        [None, None, 0, None, None, None],
        [None, None, None, 0, None, None],
        [None, None, None, None, 0, None],
        [None, None, None, None, None, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 58, 41, 14, 54, 48],
        [0, 25, 55, 43, 74, 58],
        [0, 1, 66, 22, 42, 65],
        [0, 76, 44, 21, 43, 5],
    ]
    pts = [tuple(0 if e is None else r(e) for e in row) for row in rows]
    return ArcConfig(F81, 6, pts)


@pytest.fixture(scope="session")
def hyperconic_f8(F8):
    pts = [(1, a, F8.mul(a, a)) for a in range(8)] + [(0, 0, 1), (0, 1, 0)]
    return ArcConfig(F8, 3, pts)


@pytest.fixture(scope="session")
def hyperconic_f4(F4):
    pts = [(1, a, F4.mul(a, a)) for a in range(4)] + [(0, 0, 1), (0, 1, 0)]
    return ArcConfig(F4, 3, pts)
