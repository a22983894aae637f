import itertools
import random
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from arclab.arcgeom import (
    ArcConfig,
    BudgetExceededError,
    InvariantError,
    SearchResult,
    cofactor_normals,
    projective_points,
    subset_iter,
)
from arclab import certifier
from arclab.certifier import (
    CosecantPrediction,
    PredictedTangent,
    build_Mn,
    null_basis,
    recover_cosecants,
)
from arclab.exactmat import GFMatrix, left_null_basis
from arclab.gf import FieldCtx
from arclab.tangentfns import AlphaTable, _alpha_terms, arc_degree, tangent_fn

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


def ref_x_order(p, modulus):
    """Multiplicative order of x modulo a monic polynomial over GF(p)
    (coefficients high -> low), by multiplying by x and reducing until the
    power is 1; None when none of x^1 ... x^(p^h - 1) is 1."""
    low = modulus[::-1]
    one = [1] + [0] * (len(low) - 2)
    power = one
    for i in range(1, p ** (len(low) - 1)):
        lead = power[-1]  # x * power = shifted power - lead * modulus
        power = [(x - lead * m) % p for x, m in zip([0] + power[:-1], low)]
        if power == one:
            return i
    return None


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


def ref_colspace_test(ctx, rows):
    """Membership in the column space of the matrix with the given rows:
    b is in it iff the last column of [M | b] is no pivot.  One ref_rref of
    [M | I] serves every b: it gives an invertible E with E M reduced, and
    [M | b] reduces to [E M | E b], whose last column is a pivot iff E b is
    nonzero in a zero row of E M."""
    m, n = len(rows), len(rows[0])
    eye = [[int(i == j) for j in range(m)] for i in range(m)]
    R, pivots = ref_rref(ctx, [list(r) + e for r, e in zip(rows, eye)], n)
    zero_rows = [row[n:] for row in R[len(pivots) :]]
    return lambda b: not any(dot(ctx, e, b) for e in zero_rows)


def weight_one_in_colspace(matrix):
    """Smallest row index C with unit_C in the column space of a matrix,
    or None, read off the basis of ``left_null_basis``."""
    return left_null_basis(matrix).weight_one()


def unit_vector(m, *entries):
    """The length-m vector with the given (index, value) entries, else 0."""
    v = [0] * m
    for i, x in entries:
        v[i] = x
    return v


def same_left_null(ctx, a, b):
    """Whether two matrices with the same rows have the same left null
    space: equal nullities nu, and the 2 nu stacked basis vectors span a
    space of dimension nu, that is their own left null space has
    dimension nu."""
    na, nb = left_null_basis(GFMatrix(ctx, a)).basis, left_null_basis(GFMatrix(ctx, b)).basis
    stacked = GFMatrix(ctx, np.concatenate([na, nb]))
    return len(na) == len(nb) == left_null_basis(stacked).nullity


def ref_left_null_dense(matrix):
    """The left null basis by the dense loop that ``left_null_basis`` used
    before its column-sparse steps: the same bottom-up order and pivots,
    rows exchanged in place and every target row updated across the full
    width from the pivot column on.  The sparse loop matches it bit for
    bit on every M_n of the shipped arcs; elsewhere (curve prefixes at
    k = 4, the GF(81) ones) the exchanges can give another basis of the
    same space, which ``canonical_left_null`` maps to the sparse loop's."""
    ops = matrix.ctx.vec_ops()
    m, n = matrix.rows, matrix.cols
    work = np.concatenate([matrix.data[::-1], np.eye(m, dtype=np.int64)[::-1]], axis=1)
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(work[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            work[[r, pr], c:] = work[[pr, r], c:]
        targets = np.flatnonzero(work[r + 1 :, c]) + (r + 1)
        if targets.size:
            f = ops.neg(ops.div(work[targets, c], work[r, c]))
            work[targets, c:] = ops.addmul(work[targets, c:], f, work[r, c:])
        r += 1
    return work[r:, n:].copy()


def canonical_left_null(ctx, basis):
    """The basis of the space a basis spans in the form that
    ``left_null_basis`` gives: 1 at each vector's first nonzero entry, its
    pivot, 0 at the other vectors' pivots, vectors by pivot descending.
    That is the reduced row-echelon form, rows reversed; it is computed
    here by Gauss-Jordan on the rows, with row exchanges, so any basis of
    the space maps to it (``ref_left_null_dense``'s exchanged pivots
    included)."""
    ops = ctx.vec_ops()
    work = np.array(basis, dtype=np.int64)
    r = 0
    for c in range(work.shape[1]):
        if r == len(work):
            break
        nz = np.flatnonzero(work[r:, c])
        if nz.size == 0:
            continue
        work[[r, r + nz[0]]] = work[[r + nz[0], r]]
        work[r] = ops.div(work[r], work[r, c])
        others = np.flatnonzero(work[:, c])
        others = others[others != r]
        if others.size:
            work[others] = ops.sub(work[others], ops.mul(work[others, c][:, None], work[r]))
        r += 1
    return work[::-1].copy()


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


# ----------------------------------------------------------------------
# scalar eliminations: the determinant and kernel the library replaced by
# one batched small-set elimination, and the pencils and co-secants built on them
# ----------------------------------------------------------------------


def ref_det_full(ctx, rows):
    """Exact determinant of a square matrix by scalar elimination."""
    k = len(rows)
    m = [list(r) for r in rows]
    det = 1
    for c in range(k):
        piv = next((r for r in range(c, k) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = ctx.neg(det)
        det = ctx.mul(det, m[c][c])
        inv = ctx.inv(m[c][c])
        for r in range(c + 1, k):
            if m[r][c]:
                f = ctx.mul(m[r][c], inv)
                for cc in range(c, k):
                    m[r][cc] = ctx.add(m[r][cc], ctx.neg(ctx.mul(f, m[c][cc])))
    return det


def colex_subsets(m, r):
    """The r-subsets of range(m) in colexicographic order, by sorting."""
    return sorted(itertools.combinations(range(m), r), key=lambda c: c[::-1])


def ref_star_index(g, k):
    """The star index of M_n (rows, subsets, others, stars, odd) by the
    dict lookups that ``certifier._star_index`` replaced: each row A+e is
    found by its sorted tuple."""
    rows = colex_subsets(g, k - 1)
    row_index = {c: i for i, c in enumerate(rows)}
    subsets = list(itertools.combinations(range(g), k - 2))
    others = np.array([[e for e in range(g) if e not in A] for A in subsets], dtype=np.int64)
    stars = np.array(
        [[row_index[tuple(sorted(A + (e,)))] for e in range(g) if e not in A] for A in subsets],
        dtype=np.int64,
    )
    below = (np.array(subsets, dtype=np.int64).reshape(len(subsets), 1, k - 2) < others[:, :, None]).sum(2)
    return rows, subsets, others, stars, below % 2 == 1


RefMn = namedtuple("RefMn", "rows cols data")


def ref_build_Mn(arc, n):
    """M_n by the paper's definition: rows the (k-1)-subsets C, columns the
    pairs (A, E) with |E| = |G|-n and A a (k-2)-subset of E, E outer and
    A inner colex; the (C, (A, E)) entry is prod_{u in G-E} det(u, C) when
    A < C and 0 otherwise, every determinant by ref_det_full with C's
    members in increasing order.  data is a list of rows."""
    ctx, g, k = arc.ctx, arc.size, arc.k
    rows = colex_subsets(g, k - 1)
    row_of = {C: i for i, C in enumerate(rows)}
    cols = [
        (tuple(E[i] for i in Apos), E)
        for E in colex_subsets(g, g - n)
        for Apos in colex_subsets(g - n, k - 2)
    ]
    dets = {}
    data = [[0] * len(cols) for _ in rows]
    for j, (A, E) in enumerate(cols):
        for e in E:
            if e in A:
                continue
            C = tuple(sorted(A + (e,)))
            acc = 1
            for u in range(g):
                if u not in E:
                    if (u, C) not in dets:
                        dets[u, C] = ref_det_full(ctx, arc.points_at((u,) + C))
                    acc = ctx.mul(acc, dets[u, C])
            data[row_of[C]][j] = acc
    return RefMn(rows, cols, data)


def ref_validate_arc(ctx, k, points):
    """validate_arc by one scalar determinant per k-subset."""
    pts = [tuple(p) for p in points]
    for i, p in enumerate(pts):
        if not any(p):
            return (i,)
    for sub in itertools.combinations(range(len(pts)), k):
        if ref_det_full(ctx, [pts[i] for i in sub]) == 0:
            return sub
    return None


def ref_kernel_of_points(ctx, rows, width):
    """Basis of {w : row . w = 0 for all rows}, by scalar elimination."""
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(width):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = ctx.inv(m[r][c])
        m[r] = [ctx.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [ctx.add(x, ctx.neg(ctx.mul(f, y))) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * width
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = ctx.neg(m[i][fc])
        basis.append(tuple(vec))
    return basis


def ref_canonical_form(ctx, coeffs):
    """A nonzero form scaled by scalar arithmetic so its first nonzero
    coefficient is 1."""
    inv = ctx.inv(next(c for c in coeffs if c))
    return tuple(ctx.mul(inv, c) for c in coeffs)


def ref_pencil_through(A, arc):
    """The q+1 canonical forms vanishing on span(A): b1 + lam b2 and b2."""
    ctx = arc.ctx
    basis = ref_kernel_of_points(ctx, arc.points_at(A), arc.k)
    if len(basis) != 2:
        raise ValueError("subset does not span a (k-2)-space")
    b1, b2 = basis
    forms = {ref_canonical_form(ctx, b2)}
    for lam in range(ctx.q):
        coeffs = tuple(ctx.add(x, ctx.mul(lam, y)) for x, y in zip(b1, b2))
        forms.add(ref_canonical_form(ctx, coeffs))
    if len(forms) != ctx.q + 1:
        raise InvariantError(f"pencil has {len(forms)} members, not q+1 = {ctx.q + 1}")
    return sorted(forms)


def ref_cosecants_through(A, arc):
    """The members of the pencil through A vanishing at no other arc point."""
    others = [p for i, p in enumerate(arc.points) if i not in A]
    return [
        form
        for form in ref_pencil_through(A, arc)
        if all(dot(arc.ctx, form, p) for p in others)
    ]


def points_off_span(arc, A, count):
    """The first count projective points outside span(A), in the order of
    projective_points, found by scalar kernels."""
    rows = arc.points_at(A)
    off = (
        x for x in projective_points(arc.ctx, arc.k)
        if len(ref_kernel_of_points(arc.ctx, rows + [x], arc.k)) == arc.k - len(rows) - 1
    )
    return list(itertools.islice(off, count))


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
# completion search reference: one determinant per (candidate, new point,
# (k-2)-subset) triple, the search the library replaced by bitsets
# ----------------------------------------------------------------------


def _ref_compatible(ctx, k, points, v):
    return all(
        ref_det_full(ctx, [v] + list(sub)) != 0 for sub in itertools.combinations(points, k - 1)
    )


def ref_extensions_of(arc):
    """Projective representatives v with arc + v still an arc, by determinants."""
    return [v for v in projective_points(arc.ctx, arc.k) if _ref_compatible(arc.ctx, arc.k, arc.points, v)]


def ref_extension_mask(arc):
    """ref_extensions_of as a bitset over the order of projective_points."""
    exts = set(ref_extensions_of(arc))
    return sum(1 << i for i, v in enumerate(projective_points(arc.ctx, arc.k)) if v in exts)


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
                    ref_det_full(ctx, [w, v] + list(sub)) != 0
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
# co-secant recovery reference: each d_A(u, .) from k determinants and
# f_A evaluated with scalar arithmetic at one direction per member of
# ref_pencil_through, the recovery the library replaced by one pass over the
# points of PG(1, q) in pencil coordinates
# ----------------------------------------------------------------------


def ref_det_linear_coeffs(ctx, before, after):
    """Coefficients c of the linear form x -> det(before + [x] + after)."""
    k = len(before) + 1 + len(after)
    coeffs = []
    for j in range(k):
        e = [0] * k
        e[j] = 1
        coeffs.append(ref_det_full(ctx, list(before) + [e] + list(after)))
    return tuple(coeffs)


def ref_interpolate_fA(arc, A, values):
    """Scalar Lagrange evaluator sum_e f_A(e) prod_{u != e} d_A(u, x) / d_A(u, e)."""
    ctx = arc.ctx
    pts = sorted(values)
    a_vecs = arc.points_at(sorted(A))
    lin = {u: ref_det_linear_coeffs(ctx, [arc.points[u]], a_vecs) for u in pts}
    terms = []
    for e in pts:
        denom = 1
        for u in pts:
            if u != e:
                denom = ctx.mul(denom, dot(ctx, lin[u], arc.points[e]))
        terms.append((ctx.div(values[e], denom), [lin[u] for u in pts if u != e]))

    def evaluator(x):
        acc = 0
        for weight, forms in terms:
            for form in forms:
                weight = ctx.mul(weight, dot(ctx, form, x))
            acc = ctx.add(acc, weight)
        return acc

    return evaluator


def _ref_complete_to_directions(arc, A):
    """Two standard basis vectors completing span(A) to V_k."""
    ctx, k = arc.ctx, arc.k
    rows = arc.points_at(A)
    out = []
    for j in range(k):
        e = tuple(1 if i == j else 0 for i in range(k))
        if len(ref_kernel_of_points(ctx, rows + [e] + out, k)) == k - len(rows) - len(out) - 1:
            out.append(e)
            if len(out) == 2:
                return out
    raise AssertionError("standard basis must complete a (k-2)-space")


# ----------------------------------------------------------------------
# Property W reference: one scalar weight-two test per pair of star rows,
# on a null basis from ref_left_null, the search the library replaced by
# one pass over the canonical basis columns
# ----------------------------------------------------------------------


def ref_weight_two(ctx, basis, c1, c2):
    """The b with unit_c1 + b unit_c2 annihilated by every vector of the
    basis (a list of rows), or None: the columns u, v at c1, c2 must be
    both zero (b = 1) or both nonzero with u = lam v (b = -lam)."""
    u = [w[c1] for w in basis]
    v = [w[c2] for w in basis]
    if not any(u) and not any(v):
        return 1
    if not any(u) or not any(v):
        return None
    i0 = next(i for i, x in enumerate(v) if x)
    lam = ctx.div(u[i0], v[i0])
    if any(a != ctx.mul(lam, b) for a, b in zip(u, v)):
        return None
    return ctx.neg(lam)


# a pivot x of A's star and its partners ((y, b), ...), unit_{A+x} +
# b unit_{A+y} in the column space
RefWitness = namedtuple("RefWitness", "A pivot partners")
RefPropertyW = namedtuple("RefPropertyW", "n t holds witnesses missing")


def ref_property_w(arc, n, basis=None):
    """property_w by a double loop over the star of every A, with a
    witness per A that has one: the pivot is the smallest x with |G|-n-k+1
    partners y.  basis (rows indexed like colex_subsets) defaults to
    ref_left_null of ref_build_Mn."""
    if basis is None:
        basis = ref_left_null(arc.ctx, ref_build_Mn(arc, n).data)
    g, k = arc.size, arc.k
    row_of = {C: i for i, C in enumerate(colex_subsets(g, k - 1))}
    need = g - n - k + 1
    witnesses, missing = {}, []
    for A in colex_subsets(g, k - 2):
        others = [x for x in range(g) if x not in A]
        row = {x: row_of[tuple(sorted(A + (x,)))] for x in others}
        for x in others:
            partners = []
            for y in others:
                b = None if y == x else ref_weight_two(arc.ctx, basis, row[x], row[y])
                if b is not None:
                    partners.append((y, b))
            if len(partners) >= need:
                witnesses[A] = RefWitness(A, x, tuple(partners))
                break
        else:
            missing.append(A)
    return RefPropertyW(n, g - k - n, not missing, witnesses, tuple(missing))


def ref_det_prod(arc, C, us):
    """prod_{u in us-C} det(u, C) by scalar determinants, C's members in
    the given order."""
    ctx = arc.ctx
    return ctx.prod(ref_det_full(ctx, arc.points_at((u,) + tuple(C))) for u in us if u not in C)


def ref_P_coord(arc, C):
    """prod_{z in G-C} det(z, C)^{-1} by scalar determinants and products."""
    return arc.ctx.inv(ref_det_prod(arc, C, range(arc.size)))


def ref_shuffle_parity(left, right):
    """Parity of the permutation sorting the concatenation left+right of
    two increasing tuples: its inversion count mod 2."""
    seq = tuple(left) + tuple(right)
    return sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :]) % 2


def ref_alpha(arc, B):
    """alpha_B by the chain formula that the recursion replaced.

    With F the first k-2 positions, D = B & F, xs = B - F, zs = F - B
    (r points) and s the parity of the shuffle (D, zs) -> F, alpha_A of a
    (k-2)-subset is (-1)^{(r+s)(t+1)} times the chain

        prod_i f_{D+{z_i..z_r, x_1..x_{i-1}}}(x_i) / f_{D+{z_{i+1}..z_r, x_1..x_i}}(z_i),

    and alpha_C of a (k-1)-subset, with r+1 points outside F, is that sign
    times f_{D+{x_1..x_r}}(x_{r+1}) times the chain over x_1..x_r."""
    ctx = arc.ctx
    F = tuple(range(arc.k - 2))
    B = tuple(sorted(B))
    f = lambda S, e: tangent_fn(arc, tuple(sorted(S))).at(e)
    D = tuple(i for i in B if i in F)
    xs = tuple(i for i in B if i not in F)
    zs = tuple(i for i in F if i not in B)
    r = len(zs)
    val = 1
    for i in range(1, r + 1):
        num = f(D + zs[i - 1 :] + xs[: i - 1], xs[i - 1])
        val = ctx.mul(val, ctx.div(num, f(D + zs[i:] + xs[:i], zs[i - 1])))
    if len(xs) == r + 1:
        val = ctx.mul(val, f(D + xs[:r], xs[r]))
    if (r + ref_shuffle_parity(D, zs)) * (arc_degree(arc) + 1) % 2:
        val = ctx.neg(val)
    return val


def ref_recover_cosecants(arc, n, source=None, matrix=None):
    """recover_cosecants with a null-vector route of its own and the scalar
    Property W, v_G coordinates, interpolation and root finding; matrix
    (the library M_n's dense data, built when not given) only decides the
    route when no source is given.  source
    may also be a ref_property_w report, whose witnesses then give the
    ratios: the property-w route, which the library does not have."""
    g, k = arc.size, arc.k
    t = g - k - n
    ctx = arc.ctx
    null_vec = report = None
    if isinstance(source, RefPropertyW):
        report = source
    elif source is not None:
        null_vec = [int(x) for x in source]
    else:
        matrix = build_Mn(arc, n).matrix if matrix is None else matrix
        if left_null_basis(matrix).nullity == 1 and weight_one_in_colspace(matrix) is None:
            null_vec = left_null_basis(matrix).basis[0].tolist()
        else:
            report = ref_property_w(arc, n)
    row_of = {C: i for i, C in enumerate(colex_subsets(g, k - 1))}
    P = {}
    per_A = {}
    for A in colex_subsets(g, k - 2):
        others = [x for x in range(g) if x not in A]
        if null_vec is not None:
            x, ys = others[0], others[1 : t + 1]
            row = lambda y: null_vec[row_of[tuple(sorted(A + (y,)))]]
            rho = lambda y: ctx.div(row(x), row(y))
        else:
            wit = report.witnesses[A]
            x = wit.pivot
            pairs = dict(wit.partners)
            ys = [y for y, _ in wit.partners][:t]
            rho = lambda y: ctx.neg(pairs[y])
        for e in [x] + ys:
            C = tuple(sorted(A + (e,)))
            if C not in P:
                P[C] = ref_P_coord(arc, C)
        Px = P[tuple(sorted(A + (x,)))]
        values = {x: 1}
        for y in ys:
            val = ctx.div(Px, ctx.mul(rho(y), P[tuple(sorted(A + (y,)))]))
            # sigma_e = (-1)^{d(t+1)}, d = #{a in A : a > e}
            if (sum(a > x for a in A) + sum(a > y for a in A)) * (t + 1) % 2:
                val = ctx.neg(val)
            values[y] = val
        ev = ref_interpolate_fA(arc, A, values)
        u1, u2 = _ref_complete_to_directions(arc, A)
        roots = []
        for form in ref_pencil_through(A, arc):
            b2 = dot(ctx, form, u2)
            if b2 == 0:
                w = u2
            else:
                lam = ctx.neg(ctx.div(dot(ctx, form, u1), b2))
                w = tuple(ctx.add(a, ctx.mul(lam, b)) for a, b in zip(u1, u2))
            if ev(w) == 0:
                roots.append(form)
        assert len(roots) <= t
        forms, status = (tuple(sorted(roots)), "ok") if len(roots) == t else (None, "non-splitting")
        per_A[A] = PredictedTangent(A, x, values, forms, status)
    return CosecantPrediction(n, t, per_A)


def prefix_arc(arc, m):
    """The sub-arc of the first m points, a new arc object (a sub-arc of an
    arc is an arc, so it is not validated again)."""
    return ArcConfig(arc.ctx, arc.k, arc.points[:m], check=False)


def gl_image(arc, seed):
    """The arc mapped by a seeded random invertible matrix, each point then
    rescaled by a random nonzero scalar; order kept."""
    ctx, k = arc.ctx, arc.k
    rng = random.Random(seed)
    while True:
        g = [[rng.randrange(ctx.q) for _ in range(k)] for _ in range(k)]
        if ref_det_full(ctx, g) != 0:
            break
    pts = [
        tuple(ctx.mul(s, c) for c in mat_vec(ctx, g, p))
        for p, s in zip(arc.points, (rng.randrange(1, ctx.q) for _ in arc.points))
    ]
    return ArcConfig(ctx, k, pts)


# ----------------------------------------------------------------------
# the paper's identities: the sum-zero identity, Segre's lemma of
# tangents, the alpha recursion, the-eqn and v_G M_n = 0
# ----------------------------------------------------------------------


def check_sum_zero(arc, A, E):
    """Left side of the sum-zero identity, exactly 0 on genuine arcs: for
    E containing A with |E| = t+k, the t+2 terms
    f_A(e) prod_{u in E-(A+{e})} d_A(u, e)^{-1}, d_A(u, e) = det(u, e, A)."""
    ctx = arc.ctx
    A, E = tuple(sorted(A)), tuple(sorted(E))
    if not set(A) <= set(E) or len(E) != arc_degree(arc) + arc.k:
        raise ValueError("E must contain A and have size t+k")
    fA = tangent_fn(arc, A)
    rest = [e for e in E if e not in A]
    acc = 0
    for e in rest:
        acc = ctx.add(acc, ctx.div(fA.at(e), ref_det_prod(arc, (e,) + A, rest)))
    return acc


def check_segre_sign(arc, D, x, y, z):
    """Lemma-of-tangents sign relation for the triple (x, y, z) over the
    (k-3)-subset D."""
    ctx = arc.ctx
    D = tuple(sorted(D))
    if x == y:
        return True
    f = lambda b, e: tangent_fn(arc, tuple(sorted(D + (b,)))).at(e)  # f_{D+{b}}(e)
    lhs = ctx.div(ctx.mul(f(x, y), f(z, x)), f(x, z))
    rhs = ctx.div(ctx.mul(f(y, x), f(z, y)), f(y, z))
    if (arc_degree(arc) + 1) % 2:
        rhs = ctx.neg(rhs)
    return lhs == rhs


def check_atoc(table, A, e):
    """The recursion alpha_{A+{e}} = (-1)^{d(t+1)} alpha_A f_A(e),
    d = #{a in A : a > e}: the table follows it along one path to each
    subset, so this checks all the others."""
    arc, ctx = table.arc, table.arc.ctx
    A = tuple(sorted(A))
    f = tangent_fn(arc, A).at(e)
    if sum(a > e for a in A) * (arc_degree(arc) + 1) % 2:
        f = ctx.neg(f)
    return table.alpha(tuple(sorted(A + (e,)))) == ctx.mul(table.alpha(A), f)


def check_theeqn(table, A, E):
    """Left side of the-eqn, sum_{A < C <= E} alpha_C prod_{u in E-C}
    det(u, C)^{-1}: exactly 0 on genuine arcs when |E| = k+t."""
    arc, ctx = table.arc, table.arc.ctx
    A, E = tuple(sorted(A)), tuple(sorted(E))
    if not set(A) <= set(E):
        raise ValueError("E must contain A")
    acc = 0
    for e in E:
        if e not in A:
            C = tuple(sorted(A + (e,)))
            acc = ctx.add(acc, ctx.div(table.alpha(C), ref_det_prod(arc, C, E)))
    return acc


def vg_vector(S, g):
    """The coordinates of v_G, G the prefix of the first g points of the
    arc S, in colex order: alpha_C prod_{z in G-C} det(z, C)^{-1}, alpha
    taken from S's tangent functions (the terms ``build_surface`` uses)."""
    return tuple(_alpha_terms(AlphaTable(S), list(subset_iter(g, S.k - 1)), range(g)))


def vG_check(S, g, n):
    """Whether v_G M_n = 0, column by column, for G the g-point prefix of S;
    S must have the extension size q+2k+n-1-g.  The library M_n's blocks
    span the paper's columns, so the answer is the paper's."""
    if S.size != S.ctx.q + 2 * S.k + n - 1 - g:
        raise ValueError(f"arc size {S.size} != q+2k+n-1-g")
    return annihilates(S.ctx, vg_vector(S, g), build_Mn(prefix_arc(S, g), n).matrix.data.tolist())


def dual_coords(ctx, vectors):
    """Z_i = (-1)^{i-1} det(vectors with coordinate i deleted): the dual
    vector of the span of k-1 vectors (zero if they are dependent), which
    is their cofactor normal."""
    sets = np.array(vectors, dtype=np.int64)[None]
    return tuple(cofactor_normals(ctx, sets)[0].tolist())


# ----------------------------------------------------------------------
# recovery round trip
# ----------------------------------------------------------------------


def recovers_extension(S, g):
    """Whether recovery from the true v_G of S's g-point prefix G reproduces
    the co-secants of S (its ``tangent_fn`` forms) through every
    (k-2)-subset A of G, with every prediction equal to the scalar
    reference's.

    S must have the extension size q+2k+n-1-g for some n >= 0; recovery
    then runs on M_n of G with t = |G|-k-n.  v_G must have no zero entry
    and annihilate M_n under the scalar dot product.  ``certifier._recover``
    reads it at any nullity of M_n; where the nullity is 1, v_G is a
    multiple of M_n's own null vector, and ``recover_cosecants`` must
    predict the same.
    """
    n = S.size + g + 1 - S.ctx.q - 2 * S.k
    G = prefix_arc(S, g)
    M = build_Mn(G, n)
    v = vg_vector(S, g)
    if not all(v) or not annihilates(S.ctx, v, M.matrix.data.tolist()):
        return False
    pred = certifier._recover(M, np.array(v, dtype=np.int64))
    return (
        pred.all_split
        and pred.per_A == ref_recover_cosecants(G, n, source=v).per_A
        and all(
            sorted(pred.per_A[A].forms) == sorted(tangent_fn(S, A).forms)
            for A in subset_iter(g, S.k - 2)
        )
        and (null_basis(M).nullity != 1 or recover_cosecants(M) == pred)
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


def hyperoval(ctx):
    """The conic of the points (1, a, a^2) and its nucleus: the q+2 points
    of a hyperoval of PG(2, q), q even."""
    return [(1, a, ctx.mul(a, a)) for a in range(ctx.q)] + [(0, 0, 1), (0, 1, 0)]


def shuffled_nrc(ctx, k, seed):
    """The q+1 points of the normal rational curve of V_k(F_q), in a seeded
    random order so that prefixes are not runs of consecutive parameters."""
    pts = moment_curve(ctx, k, range(ctx.q), infinity=True)
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
    t = F11.exp.__getitem__
    return ArcConfig(F11, 3, [
        (t(0), 0, 0), (0, t(0), 0), (0, 0, t(0)), (t(0), t(5), t(0)),
        (t(0), t(8), t(9)), (t(0), t(1), t(5)), (t(0), t(3), t(1)),
    ])


@pytest.fixture(scope="session")
def arc_q13_size9(F13):
    e = F13.exp.__getitem__
    return ArcConfig(F13, 3, [
        (e(0), 0, 0), (0, e(0), 0), (0, 0, e(0)), (e(0), e(2), e(3)),
        (e(0), e(6), e(4)), (e(0), e(9), e(9)), (e(0), e(4), e(6)),
        (e(0), e(11), e(5)), (e(0), e(0), e(8)),
    ])


@pytest.fixture(scope="session")
def arc_q13_size6(F13):
    e = F13.exp.__getitem__
    return ArcConfig(F13, 3, [
        (e(0), 0, 0), (0, e(0), 0), (0, 0, e(0)), (e(0), e(10), e(2)),
        (e(0), e(2), e(11)), (e(0), e(9), e(4)),
    ])


@pytest.fixture(scope="session")
def arc_q81(F81):
    r = F81.exp.__getitem__
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
    return ArcConfig(F8, 3, hyperoval(F8))


@pytest.fixture(scope="session")
def hyperconic_f4(F4):
    return ArcConfig(F4, 3, hyperoval(F4))
