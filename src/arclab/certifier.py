"""Certification engine: the matrix M_n and everything it proves.

Rows of M_n are the (k-1)-subsets C of the arc G in colex order.  The
paper's column (A, E), |E| = |G|-n and A a (k-2)-subset of E, holds
prod_{u in G-E} det(u, C) in each row C > A.  Every answer here depends
only on the column space, and for each A these columns span n+1 monomial
columns in the pencil coordinates of A's star: n+1 columns per A.
Members of a subset always enter determinants in increasing arc order.

M_n is its arc's star geometry (``CertMatrix``): the stars, their
pencil coordinates beta and the table D(x, y) of each star's points,
built once per arc and shared by every n (``build_Mn``).  A question is
asked of one M_n alone: ``theorem1_test(M)``, ``property_w(M)``,
``corollary2_route(M)`` and ``recover_cosecants(M)`` read the arc, n, t
and field from M.  Every answer is read off M_n's left null basis, which
``null_basis`` interpolates star by star from D and its values on the
C(|G|-n-1, k-1) rows inside the first |G|-n-1 points, eliminating only a
residual of that many rows; the result is the canonical basis that
eliminating [M | I] gives, bit for bit.  No answer builds M_n's dense
data: only ``CertMatrix.matrix`` does, on first use.

A weight-one vector in the column space certifies that G extends to no
arc of size q+2k+n-1-|G|.  Without one, Property W holds exactly when the
left null space is one vector, which pins down the ratios f_A(y)/f_A(x)
of the tangent functions of any extension; the co-secants through each A
follow by interpolation and exhaustive root finding over the pencil.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .arcgeom import (
    ArcConfig,
    ArcInputError,
    BudgetExceededError,
    HyperplaneIncidence,
    InvariantError,
    _check_table,
    _images,
    _pencil_basis,
    _pencil_members,
    _projective_line,
    complete_search,
    projective_points,
    subset_iter,
)
from .exactmat import GFMatrix, LeftNullBasis, left_null_basis
from .tangentfns import _lagrange_sum

__all__ = [
    "SizeOutOfRangeError",
    "PropertyWMissingError",
    "NotLeftNullError",
    "CertMatrix",
    "NonExtendabilityCertificate",
    "PropertyWReport",
    "CosecantPrediction",
    "PredictedTangent",
    "BoundScan",
    "ConjectureScanResult",
    "build_Mn",
    "null_basis",
    "theorem1_test",
    "bound_scan",
    "property_w",
    "corollary2_route",
    "recover_cosecants",
    "conjecture_scan",
]


class SizeOutOfRangeError(ArcInputError):
    pass


class PropertyWMissingError(RuntimeError):
    pass


class NotLeftNullError(ArcInputError):
    """A vector given as a left-null vector of M_n does not annihilate it."""


class CertMatrix:
    """M_n of an arc as its star geometry, the one argument of every
    question about M_n: the arc, its field ``ctx`` and n, the star of
    every (k-2)-subset A (its rows A+x, x running over the points outside
    A), a basis b1, b2 of the forms vanishing on A with the pencil
    coordinates beta(x) = (b1.x, b2.x) of its star, and the table D(x, y)
    of every pair of star points.  One block of n+1 columns per A holds
    M_n's data, which no answer reads: ``matrix`` builds it on first use."""

    def __init__(self, arc: ArcConfig, n: int, index, pencils, beta, D):
        self.arc = arc
        self.ctx = arc.ctx
        self.n = n
        # rows: the (k-1)-subsets, colex; subsets: the A, lex, one block each;
        # others[s]: the points outside subsets[s]; stars[s, j]: the row of
        # subsets[s] + others[s, j]; odd[s, j]: whether an odd number of points
        # of subsets[s] lie below others[s, j]
        self.index = index
        self.rows, self.subsets, self.others, self.stars, self.odd = index
        self.pencils = pencils    # pencils[s] = (b1, b2) of subsets[s]
        self.beta = beta          # beta[s, :, j] = beta(others[s, j])
        self.D = D                # D[s, i, j] = D(others[s, i], others[s, j])
        self._null = None         # the left null basis, once ``null_basis`` has run
        self._matrix = None

    @property
    def matrix(self) -> GFMatrix:
        """M_n's dense data (``_mn_data``), built on first use: of the
        answers, only the check of a given vector in ``recover_cosecants``
        reads it."""
        if self._matrix is None:
            self._matrix = GFMatrix(self.ctx, _mn_data(self.ctx, self.index, self.beta, self.n))
        return self._matrix

    @property
    def t(self) -> int:
        return self.arc.size - self.arc.k - self.n

    @property
    def forbidden_size(self) -> int:
        return self.ctx.q + 2 * self.arc.k + self.n - 1 - self.arc.size


def _star_index(g: int, k: int):
    """The part of M_n that depends only on |G| and k: rows, subsets,
    others, stars and odd as ``CertMatrix`` holds them, shared read-only
    by every M_n built from it.

    A row's index is the colex rank of its subset, sum C(x_i, i) over its
    members x_1 < ... < x_{k-1}.  In A+e, the members of A below e keep
    their position, e takes position #{a < e} + 1 and the members above e
    move up one."""
    rows = list(subset_iter(g, k - 1))
    subsets = list(itertools.combinations(range(g), k - 2))
    members = np.array(subsets, dtype=np.int64).reshape(len(subsets), k - 2)
    outside = np.ones((len(subsets), g), dtype=bool)
    outside[np.arange(len(subsets))[:, None], members] = False
    others = outside.nonzero()[1].reshape(len(subsets), g - k + 2)
    # lower[s, j, i]: member i of subsets[s] lies below others[s, j]
    lower = members[:, None, :] < others[:, :, None]
    below = lower.sum(2)
    binom = np.array([[math.comb(x, i) for i in range(k)] for x in range(g)], dtype=np.int64)
    pos = np.arange(1, k - 1) + ~lower
    stars = binom[members[:, None, :], pos].sum(2) + binom[others, below + 1]
    odd = below % 2 == 1
    for a in (others, stars, odd):
        a.flags.writeable = False
    return rows, subsets, others, stars, odd


def _star_points(ctx, index, points):
    """The pencils, beta and D of every star, as ``CertMatrix`` holds
    them, for each arc of a (B, |G|, k) stack of points, from one kernel
    call: D[b, s, i, j] = D(e_i, e_j) = beta1(e_i) beta2(e_j) -
    beta2(e_i) beta1(e_j) over the points e_i = others[s, i] of the star.
    D is 0 only on its diagonal unless the beta of some star are not
    pairwise independent (no arc; some Q_A(e) is 0): InvariantError."""
    subsets, others = index[1], index[2]
    ops = ctx.vec_ops()
    pencils = np.stack(_pencil_basis(ctx, points, subsets), axis=-2)
    beta = ops.matmul(pencils, points[:, others].swapaxes(-1, -2))
    b1, b2 = beta[..., 0, :], beta[..., 1, :]
    D = ops.sub(ops.mul(b1[..., :, None], b2[..., None, :]), ops.mul(b2[..., :, None], b1[..., None, :]))
    m = D.shape[-1]
    if np.count_nonzero(D) != D.size // m * (m - 1):
        raise InvariantError("the beta of a star are not pairwise independent: some Q_A(e) is 0")
    return pencils, beta, D


def _star_geometry(arc: ArcConfig):
    """The part of M_n that does not depend on n, built once per arc
    object and kept on it: the star index of its size and the pencils,
    beta and D of its points.  Every M_n of the arc shares these arrays,
    so they are read-only."""
    geom = getattr(arc, "_star_geometry", None)
    if geom is None:
        index = _star_index(arc.size, arc.k)
        pts = np.array(arc.points, dtype=np.int64).reshape(1, arc.size, arc.k)
        arrays = tuple(a[0] for a in _star_points(arc.ctx, index, pts))
        for a in arrays:
            a.flags.writeable = False
        geom = arc._star_geometry = (index, *arrays)
    return geom


def _mn_data(ctx, index, beta, n: int):
    """The data of M_n, (rows, columns), from the beta of its stars,
    (subsets, 2, |G|-k+2).

    Column i of A's block holds s_e^n beta1(e)^i beta2(e)^(n-i) in each
    row A+e of its star, s_e = (-1)^{#{a in A : a < e}}."""
    ops = ctx.vec_ops()
    rows, subsets, _, stars, odd = index
    # powers[..., i] = beta1^i beta2^(n-i) over every star
    powers = np.ones((len(subsets), beta.shape[2], n + 1), dtype=np.int64)
    for i in range(n):
        powers[..., : i + 1] = ops.mul(powers[..., : i + 1], beta[:, 1, :, None])
        powers[..., i + 1 :] = ops.mul(powers[..., i + 1 :], beta[:, 0, :, None])
    if n % 2:
        powers = np.where(odd[..., None], ops.neg(powers), powers)
    data = np.zeros((len(rows), len(subsets), n + 1), dtype=np.int64)
    data[stars, np.arange(len(subsets))[:, None]] = powers
    return data.reshape(len(rows), -1)


# cells of the largest table that M_n's null space needs (128 MiB of int64):
# the star table D or the residual's [R | I] work array, never smaller than
# the seed expansion P of ``null_basis`` (``build_Mn``)
MN_CELLS = 1 << 24


def build_Mn(arc: ArcConfig, n: int) -> CertMatrix:
    """Construct M_n, one block per A; requires 0 <= n <= |G| - k.

    The paper's column (A, E) holds prod_{u in G-E} det(u, A+e) in each
    row A+e of A's star, and det(u, A+e) = s_e D(u, e), so it is s_e^n
    times a binary form of degree n in beta(e).  These forms span all n+1
    monomials s_e^n beta1(e)^i beta2(e)^(n-i) (``_mn_data``), so both
    matrices have the same column space.  M_n is the arc's star geometry
    and n: every answer reads the null space that ``null_basis``
    interpolates from D, and no dense data is built.  A star whose beta
    are not pairwise independent (no arc) raises InvariantError.

    When D, C(|G|, k-2) (|G|-k+2)^2 cells, or [R | I], at most
    d (C(|G|, k-2)(n+1) + d) with d = C(|G|-n-1, k-1), would exceed
    MN_CELLS cells, BudgetExceededError is raised before anything is
    built.  P, C(|G|, k-1) d cells, is never larger than [R | I]: each
    row outside the d seeds is filled by one star, of at most n+1 rows."""
    g, k = arc.size, arc.k
    if n < 0 or g < k + n:
        raise SizeOutOfRangeError(f"need 0 <= n <= |G|-k, got n={n}, |G|={g}")
    subsets, d = math.comb(g, k - 2), math.comb(g - n - 1, k - 1)
    cells = max(subsets * (g - k + 2) ** 2, d * (subsets * (n + 1) + d))
    if cells > MN_CELLS:
        raise BudgetExceededError(
            f"M_{n} of a {g}-point arc at k={k} needs a table of {cells} cells, over {MN_CELLS}")
    return CertMatrix(arc, n, *_star_geometry(arc))


def _star_maps(ctx, D, odd, n: int, t: int):
    """The interpolation map of every star of each arc of a stack of star
    tables D, (B, subsets, |G|-k+2, |G|-k+2) -> (B, subsets, n+1, t+1): a
    left-null vector v of the arc's M_n has v(A+e') = sum_i L[b, s, j, i]
    v(A+e_i) on the star of A = subsets[s], e_i = others[s, i] over the
    first t+1 points K of the star and e' = others[s, t+1+j] over the
    other n+1, T.

    On A's star v(A+e) = h_A(beta(e)) / c_e, c_e = s_e^n Q_A(e), with h_A
    a binary form of degree t (step (1) of ``recover_cosecants``).  Its
    values at K fix h_A, so L[e', e] = (c_e / c_e') prod_{u in K-e}
    D(u, e') / prod_{u in K-e} D(u, e).  As Q_A(e) = prod_{u != e} D(u, e)
    over the star, that is s_e^n s_e'^n prod_{u in T} D(u, e) /
    (D(e, e') prod_{u in T-e'} D(u, e')): only factors of the Q_A, which
    ``_star_points`` checked to be nonzero, are divisors."""
    ops = ctx.vec_ops()
    TT = D[..., t + 1 :, t + 1 :].copy()
    TT.reshape(-1, (n + 1) ** 2)[:, :: n + 2] = 1  # D(e', e') -> 1
    num = ops.prod(D[..., t + 1 :, : t + 1].swapaxes(-1, -2))[..., None, :]
    den = ops.mul(D[..., : t + 1, t + 1 :].swapaxes(-1, -2), ops.prod(TT.swapaxes(-1, -2))[..., None])
    L = ops.div(num, den)
    if n % 2:
        L = np.where(odd[:, t + 1 :, None] != odd[:, None, : t + 1], ops.neg(L), L)
    return L


def _extend(ops, V, maps, known, acc):
    """acc plus sum_i maps[..., i] V[:, known[:, i]], one row per (arc,
    star, row) triple: the values the stars give those rows from V."""
    for i in range(maps.shape[-1]):
        acc = ops.addmul(acc, maps[..., i], V[:, known[:, i]])
    return acc


def _fill_waves(ops, V, waves):
    """V (B, rows, columns) with the rows of each wave filled, in order,
    from the rows of their K."""
    for rows, maps, known in waves:
        V[:, rows] = _extend(ops, V, maps[..., 1:], known[:, 1:], ops.mul(maps[..., :1], V[:, known[:, 0]]))
    return V


def _star_residual(ctx, index, D, n: int):
    """P, R and the waves of ``null_basis`` for each arc of a stack of
    star tables D, (B, subsets, |G|-k+2, |G|-k+2), all of one size:
    P (B, rows, d) expands the seed values, R (B, d, columns) is the
    residual and each wave is (the rows it fills, their maps (B, filled,
    t+1), the rows of their K), the same for every arc but the maps."""
    ops = ctx.vec_ops()
    rows, _, others, stars, odd = index
    k = len(rows[0]) + 1
    t = others.shape[1] - n - 2
    s = others.shape[1] + k - n - 3  # |G| - n - 1
    d = math.comb(s, k - 1)
    L = _star_maps(ctx, D, odd, n, t)
    head, tail = stars[:, : t + 1], stars[:, t + 1 :]
    # a: the members of A outside S, as the first t+1+a points of its star lie in S
    a = (others < s).sum(1) - (t + 1)
    # A fills A+e' when e' lies above every member of A: k-2 points below e' are not others
    fill = others[:, t + 1 :] - np.arange(t + 1, others.shape[1]) == k - 2
    fs, fj = fill.nonzero()
    by_wave = np.argsort(a[fs], kind="stable")
    fs, fj = fs[by_wave], fj[by_wave]
    # per wave: the rows filled, their maps and the rows of their K
    filled, maps, known = tail[fs, fj], L[:, fs, fj], head[fs]
    ends = np.cumsum(np.bincount(a[fs], minlength=n + 1)).tolist()
    waves = [(filled[lo:hi], maps[:, lo:hi], known[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    rs, rj = (~fill & (a[:, None] > 0)).nonzero()
    P = np.zeros((len(D), len(rows), d), dtype=np.int64)
    P[:, np.arange(d), np.arange(d)] = 1
    filled, maps, known = waves[0]
    P[:, filled[:, None], known] = maps
    P = _fill_waves(ops, P, waves[1:])
    R = _extend(ops, P, L[:, rs, rj], head[rs], ops.neg(P[:, tail[rs, rj]])).swapaxes(1, 2)
    return P, R, waves


def null_basis(M: CertMatrix) -> LeftNullBasis:
    """The left null basis of M_n, bit for bit the one that
    ``left_null_basis(M.matrix)`` gives, read off the star geometry
    instead of eliminating [M | I].  It is computed once per M_n and kept
    on M, and every answer taken from M_n reads it.

    Seeds.  Let S be the first |G|-n-1 points.  The d = C(|G|-n-1, k-1)
    rows inside S are the first d rows (colex), and a null vector v is
    fixed by its values x there: v = P x, with P (rows x d) the identity
    on these seed rows.
    Waves.  A star whose A has a members outside S has t+1+a rows with a
    points outside S, the first t+1 of them K, and n+1-a rows with a+1.
    Each row C outside S is filled from the star of C minus its last
    point, in wave a = #(C - S) - 1 = 0..n, by the star's map
    (``_star_maps``) from K, filled in wave a-1.  In wave 0 K is seeds,
    so the wave is a scatter of the maps into the seed columns.
    Residual.  P x is null iff every star with a >= 1 predicts its other
    n+1 rows right.  R (d x cols) holds each such prediction minus the
    filled value, except where the star filled the row itself; its
    columns run in lex order of A, the order of least fill.
    ``_star_residual`` builds P, R and the waves, for a stack of arcs;
    here the stack holds one.
    Canonical form.  ``left_null_basis`` gives R's null basis X with 1 at
    each dependent row and 0 at the other dependent rows.  P is the
    identity on the seeds, which come first, so X P^T has that form too,
    and there is one basis of that form of M_n's null space: the one
    ``left_null_basis(M.matrix)`` returns.  X P^T is a second wave pass
    on X's seed values.  At even q, R is zero and X the reversed
    identity, so X P^T is P^T reversed.
    """
    if M._null is not None:
        return M._null
    ctx = M.ctx
    P, R, waves = _star_residual(ctx, M.index, M.D[None], M.n)
    d = R.shape[1]
    X = left_null_basis(GFMatrix(ctx, R[0])).basis
    if len(X) == d:
        # R is zero (even q) and X the reversed identity
        basis = P[0, :, ::-1].T
    else:
        del P
        V = np.zeros((1, len(M.rows), len(X)), dtype=np.int64)
        V[0, :d] = X.T
        basis = _fill_waves(ctx.vec_ops(), V, waves if len(X) else ())[0].T
    M._null = LeftNullBasis(ctx, basis.copy())
    return M._null


@dataclass(frozen=True)
class NonExtendabilityCertificate:
    n: int
    row: tuple
    forbidden_size: int


def theorem1_test(M: CertMatrix):
    """Certificate that M's arc extends to no arc of size q+2k+n-1-|G|,
    or None when M_n has no weight-one vector in its column space."""
    idx = null_basis(M).weight_one()
    return None if idx is None else NonExtendabilityCertificate(M.n, M.rows[idx], M.forbidden_size)


@dataclass(frozen=True)
class BoundScan:
    n0: int | None
    certificate: NonExtendabilityCertificate | None
    forbidden_size: int | None
    max_size_bound: int | None
    trace: tuple  # (n, rank, rows, nullity) per scanned n


def bound_scan(arc: ArcConfig) -> BoundScan:
    """Least n with a weight-one certificate, plus the resulting bound.

    Non-extendability to size s rules out every size >= s, so the first
    certificate bounds the largest arc containing G by forbidden_size - 1.
    When no n <= |G|-k certifies (possible only for even q), every field
    but the per-n trace is None.  Raises SizeOutOfRangeError when |G| < k.
    """
    g, k = arc.size, arc.k
    if g < k:
        raise SizeOutOfRangeError(f"need |G| >= k, got |G|={g}, k={k}")
    trace = []
    for n in range(g - k + 1):
        M = build_Mn(arc, n)
        null = null_basis(M)
        trace.append((n, len(M.rows) - null.nullity, len(M.rows), null.nullity))
        cert = theorem1_test(M)
        if cert is not None:
            return BoundScan(n, cert, cert.forbidden_size, cert.forbidden_size - 1, tuple(trace))
    return BoundScan(None, None, None, None, tuple(trace))


@dataclass(frozen=True)
class PropertyWReport:
    missing: tuple  # the (k-2)-subsets without a pivot, colex

    @property
    def holds(self) -> bool:
        return not self.missing


def property_w(M: CertMatrix) -> PropertyWReport:
    """The (k-2)-subsets A for which M_n lacks the weight-two property.

    A has it when some pivot x of its star has |G|-n-k+1 = t+1 partners
    y != x: rows with a weight-two vector supported on (A+{x}, A+{y}) in
    the column space of M_n.  The partners of every x of every star come
    from one pass over the left-null basis columns.
    """
    stars = M.stars
    same = null_basis(M).partners(stars[:, :, None], stars[:, None, :])
    pivots = (same.sum(2) >= M.t + 2).any(1)  # x is its own partner
    missing = (A for A, ok in zip(M.subsets, pivots) if not ok)
    return PropertyWReport(tuple(sorted(missing, key=lambda A: A[::-1])))


def corollary2_route(M: CertMatrix) -> bool:
    """Rank one less than full row rank and no weight-one vector: the
    single left-null vector then plays the role of v_G and every
    weight-two vector is available."""
    null = null_basis(M)
    return null.nullity == 1 and null.weight_one() is None


# ----------------------------------------------------------------------
# co-secant recovery
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PredictedTangent:
    A: tuple
    pivot: int
    values: dict          # arc position -> recovered f_A value (pivot -> 1)
    forms: tuple | None   # canonical co-secant forms when fully split
    status: str           # "ok" | "non-splitting"


@dataclass(frozen=True)
class CosecantPrediction:
    n: int
    t: int
    per_A: dict
    route: str            # "null-vector": the ratios come from one null vector

    @property
    def all_split(self) -> bool:
        return all(p.status == "ok" for p in self.per_A.values())


def recover_cosecants(M: CertMatrix, source=None) -> CosecantPrediction:
    """Recover, per (k-2)-subset A of M's arc, the tangent function any
    extension to size q+2k+n-1-|G| must restrict to, normalised to 1 at
    the first point x of A's star.

    The ratios come from one left-null vector v of M_n, M's own or the
    given one (NotLeftNullError unless it is a left-null vector of field
    element codes), a multiple of the v_G of any extension: at the first
    t+1 points e of the star f_A(e)/f_A(x) = (s_x s_e)^n Q_A(e) v(A+e) /
    (Q_A(x) v(A+x)), Q_A(e) = prod D(z, e) over the rest of the star.  A
    zero basis column (on M's own basis, a weight-one vector) fixes no
    ratio and raises PropertyWMissingError, and so does a basis of two or
    more rows, as with no zero column Property W forces nullity 1.
    (1) On A's star each v of the null space N is e -> h_A(beta(e)) /
    (s_e^n Q_A(e)), h_A a degree-t binary form linear in v, since block A
    holds every degree-n form at the pairwise-independent beta(e).
    (2) Property W gives t+2 star rows with nonzero proportional columns;
    where v vanishes on one, h_A has t+2 zeros in PG(1, q), so h_A = 0:
    all rows C of a star share the kernel {v : v(C) = 0}.  (3) Subsets
    that differ in one point share a row, and such links connect all
    (k-2)-subsets, so one hyperplane of N vanishes on every row: it is 0.
    (4) Conversely one vector with no zero entry makes all |G|-k+2 >= t+2
    rows of a star partners: with no zero column, Property W holds exactly
    when corollary2_route does.  Property W on two or more rows raises
    InvariantError.  A function that does not split into t distinct
    pencil forms is reported non-splitting, which itself certifies that
    no such extension exists.
    """
    n, t, ctx = M.n, M.t, M.ctx
    if t < 1:
        raise SizeOutOfRangeError(f"recovery needs t = |G|-k-n >= 1, got {t}")
    ops = ctx.vec_ops()
    if source is None:
        null = null_basis(M).basis
    else:
        entries = list(source) if isinstance(source, Iterable) else [source]
        if not all(isinstance(x, (int, np.integer)) and 0 <= x < ctx.q for x in entries):
            raise NotLeftNullError("the given vector has entries that are not field element codes")
        null = np.array([entries], dtype=np.int64)
        if null.shape[1] != len(M.rows):
            raise SizeOutOfRangeError("null vector length does not match row count")
        if ops.matmul(null, M.matrix.data).any():
            raise NotLeftNullError("the given vector is not a left-null vector of M_n")
    zero = np.flatnonzero(~null.any(0))
    if zero.size:
        raise PropertyWMissingError(f"zero left-null basis column at row {M.rows[zero[0]]}: it fixes no ratio")
    if len(null) > 1:
        missing = property_w(M).missing
        if not missing:
            raise InvariantError("Property W holds on a left null space of two or more vectors")
        raise PropertyWMissingError(f"Property W fails for {len(missing)} subsets, e.g. {missing[0]}")
    # DK[s, u, j] = D(u, e_j) at the first t+1 points e_j of the star, 1 at u = e_j
    DK = M.D[:, :, : t + 1].copy()
    DK[:, np.arange(t + 1), np.arange(t + 1)] = 1
    v = null[0, M.stars[:, : t + 1]]
    Q = ops.prod(DK.swapaxes(1, 2))  # Q_A(e_j), over the whole star
    vals = ops.div(ops.mul(Q, v), ops.mul(Q[:, :1], v[:, :1]))
    odd = M.odd[:, : t + 1]
    vals = np.where((odd[:, :1] != odd) & (n % 2 == 1), ops.neg(vals), vals)
    # f_A on the pencil member w2 b1 - w1 b2 through each w of PG(1,q), from
    # the Lagrange weights f_A(e) / prod_{u in K-e} D(u, e) of its values at K
    w1, w2 = _projective_line(ctx)
    weights = ops.div(vals, ops.prod(DK[:, : t + 1].swapaxes(1, 2)))
    hits = _lagrange_sum(ctx, M.beta[:, :, : t + 1], weights, w1, w2) == 0
    if (hits.sum(1) > t).any():
        raise InvariantError("degree-t function cannot vanish on t+1 directions")
    # the co-secant forms of every split A from one call, t rows per A
    split = hits.sum(1) == t
    ss, ws = (hits & split[:, None]).nonzero()
    members = _pencil_members(ctx, M.pencils[ss, 0], M.pencils[ss, 1], w1[ws], w2[ws])
    members = iter(members.reshape(-1, t, M.arc.k).tolist())
    pts = M.others[:, : t + 1].tolist()
    per_A = {}
    for s, A in enumerate(M.subsets):
        roots, status = None, "non-splitting"
        if split[s]:
            roots, status = tuple(sorted(map(tuple, next(members)))), "ok"
        per_A[A] = PredictedTangent(A, pts[s][0], dict(zip(pts[s], vals[s].tolist())), roots, status)
    return CosecantPrediction(n, t, per_A, "null-vector")


# ----------------------------------------------------------------------
# conjecture scan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureScanResult:
    p: int
    h: int
    k: int
    n: int
    arc_size: int
    in_range: bool        # k <= p + n(p-2)
    mode: str             # "exhaustive" | "sampled"
    total: int
    certified: int
    counterexamples: tuple  # arcs without certificate while in_range
    orbits: int           # arcs certified: one per frame-symmetry orbit, or the samples

    @property
    def fraction(self) -> float:
        return self.certified / self.total if self.total else 0.0


RANDOM_ARC_ATTEMPTS = 1000
# cells of the star tables (subsets x (|G|-k+2)^2 per arc) that a scan builds
# together, one chunk of arcs per ``_star_points`` call: a chunk's arrays peak
# near 50 bytes a cell, and larger chunks gain little speed
SCAN_CELLS = 1 << 13


def _random_arc(inc: HyperplaneIncidence, size, rng):
    """Greedy arc over a random order of the points of inc, reshuffled
    until it reaches the size; BudgetExceededError after
    RANDOM_ARC_ATTEMPTS orders."""
    order = list(range(len(inc.points)))
    for _ in range(RANDOM_ARC_ATTEMPTS):
        rng.shuffle(order)
        cur = []
        cands = inc.full
        for v in order:
            if int(cands[v >> 6]) >> (v & 63) & 1:
                # v is visited once, so it need not leave cands; fewer than k-2 points span no <S, v>
                if len(cur) >= inc.k - 2:
                    cands = inc.cut(cands, [[S + (v,) for S in itertools.combinations(cur, inc.k - 2)]])[0]
                cur.append(v)
                if len(cur) == size:
                    return [inc.points[i] for i in cur]
    raise BudgetExceededError(
        f"no arc of size {size} in {RANDOM_ARC_ATTEMPTS} random point orders"
    )


def _certified(ctx, k: int, n: int, arcs) -> np.ndarray:
    """Whether ``theorem1_test`` certifies each arc of a (B, |G|, k) array
    of points, or a list of point tuples: one ``_star_points`` and one
    ``_star_residual`` call per chunk of about SCAN_CELLS star-table cells.

    The weight-one rows are the zero columns of X P^T for any basis X of
    R's left null space, so no canonical form is needed.  Where R is zero
    X is the identity, and a nonzero R of one row (k = 3, where d = 1) has
    no left null vector, so only the other arcs make a ``left_null_basis``
    call, one each on their d-row residual.  X is padded with zero rows
    to d x d, which adds no nonzero column."""
    out = np.zeros(len(arcs), dtype=bool)
    if not len(arcs):
        return out
    ops = ctx.vec_ops()
    index = _star_index(len(arcs[0]), k)
    others = index[2]  # (subsets, |G|-k+2)
    step = max(1, SCAN_CELLS // (others.size * others.shape[1]))
    for lo in range(0, len(arcs), step):
        points = np.asarray(arcs[lo : lo + step], dtype=np.int64)
        P, R, _ = _star_residual(ctx, index, _star_points(ctx, index, points)[2], n)
        b, d, _ = R.shape
        zero = ~R.any((1, 2))
        X = np.zeros((b, d, d), dtype=np.int64)
        X[zero] = np.eye(d, dtype=np.int64)
        if d > 1:
            for i in (~zero).nonzero()[0]:
                basis = left_null_basis(GFMatrix(ctx, R[i])).basis
                X[i, : len(basis)] = basis
        out[lo : lo + step] = (~ops.matmul(X, P.swapaxes(1, 2)).any(1)).any(1)
    return out


def _frame_symmetries(ctx, k: int, size: int):
    """The projectivities that permute the frame f_0..f_k = e_1, ..., e_k,
    (1, ..., 1) and map its first ``size`` points onto themselves, each
    with every power of sigma: x -> x^p, for ``arcgeom._images``, in order
    of the points they move.  pi's matrix has columns lam_j f_pi(j), j < k,
    where lam_j is 1 if pi(j) or pi(k) is k, else -1, so that
    sum_j lam_j f_pi(j) = f_pi(k)."""
    pi = np.fromiter(itertools.chain(*itertools.permutations(range(k + 1))), np.int64).reshape(-1, k + 1)
    pi = pi[(pi[:, :size] < size).all(1)]
    pi = pi[np.argsort((pi != np.arange(k + 1)).sum(1), kind="stable")]
    lam = np.where((pi[:, :k] == k) | (pi[:, k:] == k), 1, ctx.neg(1))
    sigmas = np.array([[ctx.pow(x, ctx.p**j) for x in range(ctx.q)] for j in range(ctx.h)], dtype=np.int64)
    # entry (i, j) is lam_j where f_pi(j) has a 1 in row i: pi(j) is i or the unit point k
    mats = ((pi[:, None, :k] == np.arange(k)[:, None]) | (pi[:, None, :k] == k)) * lam[:, None]
    return np.repeat(mats, ctx.h, axis=0), np.tile(sigmas, (len(pi), 1))


def _scan_size(q: int, k: int, n: int) -> int:
    """The arc size 2k-3+n of a conjecture scan over GF(q), after the
    refusals that need only q, k and n: n < 0 and k < 3 raise input
    errors, and where arcs of that size may exist (size <= q+k-1), a
    hyperplane table of more than TABLE_WORDS words raises
    BudgetExceededError."""
    if n < 0:
        raise SizeOutOfRangeError(f"need n >= 0, got n={n}")
    if k < 3:
        raise ArcInputError("dimension k must be at least 3")
    size = 2 * k - 3 + n
    if size <= q + k - 1:
        _check_table(q, k)
    return size


def conjecture_scan(
    ctx, k: int, n: int, budget: int = 200_000, samples: int = 200, seed: int = 0
) -> ConjectureScanResult:
    """Test arcs of size 2k-3+n for a weight-one certificate at this n.

    Every projective class of such arcs has members containing the frame
    prefix, and certificates are class functions.  When the search fits
    in the node budget, it gives one per orbit of the frame's symmetries
    (``_frame_symmetries``), whose sizes weigh the counts; otherwise the
    seeded generator samples random arcs.  Arcs without a certificate
    inside the conjectured range k <= p+n(p-2) are counterexample
    candidates: every arc of such an orbit, in search order.  Arcs above
    q+k-1 need no search; otherwise a hyperplane table of more than
    TABLE_WORDS words raises BudgetExceededError first (``_scan_size``).
    """
    size = _scan_size(ctx.q, k, n)
    in_range = k <= ctx.p + n * (ctx.p - 2)
    arcs, sizes, mode = np.zeros((0, size, k), dtype=np.int64), np.zeros(0, dtype=np.int64), "exhaustive"
    if size <= ctx.q + k - 1:
        frame = [tuple(int(i == j) for i in range(k)) for j in range(k)] + [(1,) * k]
        seed_arc = ArcConfig(ctx, k, frame[: min(size, k + 1)], check=False)
        group = _frame_symmetries(ctx, k, size)
        try:
            res = complete_search(seed_arc, target_size=size, budget=budget, symmetries=group)
            arcs, sizes = res.arcs, res.orbit_sizes
        except BudgetExceededError:
            mode = "sampled"
            rng, inc = random.Random(seed), HyperplaneIncidence(ctx, k)
            arcs = np.array([_random_arc(inc, size, rng) for _ in range(samples)], dtype=np.int64)
            arcs, sizes = arcs.reshape(-1, size, k), np.ones(len(arcs), dtype=np.int64)

    ok = _certified(ctx, k, n, arcs)
    missed = arcs[~ok] if in_range else arcs[:0]
    if mode == "exhaustive" and len(missed):
        # every arc of the orbits missed, in DFS preorder: the sorted id rows of all images
        ids = np.unique(np.concatenate(np.sort(_images(ctx, group, missed[:, k + 1 :]), -1)), axis=0)
        pts = np.array(list(projective_points(ctx, k)), dtype=np.int64)[ids]
        missed = np.concatenate([np.repeat(missed[:1, : k + 1], len(pts), 0), pts], axis=1)
    missed = tuple(tuple(map(tuple, pts)) for pts in missed.tolist())
    return ConjectureScanResult(
        ctx.p, ctx.h, k, n, size, in_range, mode, int(sizes.sum()), int(sizes[ok].sum()), missed, len(arcs)
    )
