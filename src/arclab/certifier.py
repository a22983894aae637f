"""Certification engine: the matrix M_n and everything it proves.

Rows of M_n are the (k-1)-subsets C of the arc G in colex order.  The
paper's column (A, E), |E| = |G|-n and A a (k-2)-subset of E, holds
prod_{u in G-E} det(u, C) in each row C > A.  Every answer here depends
only on the column space, and for each A these columns span n+1 monomial
columns in the pencil coordinates of A's star, so M_n keeps those: n+1
columns per A (``build_Mn``).  Members of a subset always enter
determinants in increasing arc order.

A weight-one vector in the column space certifies that G extends to no
arc of size q+2k+n-1-|G|.  Weight-two vectors (Property W) pin down the
ratios f_A(y)/f_A(x) of the tangent functions of any extension, from
which the co-secants through each A are recovered by interpolation and
exhaustive root finding over the pencil.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable
from dataclasses import dataclass
from math import comb

import numpy as np

from .arcgeom import (
    ArcConfig,
    ArcInputError,
    BudgetExceededError,
    HyperplaneIncidence,
    InvariantError,
    _pencil_basis,
    _pencil_members,
    _projective_line,
    complete_search,
    subset_iter,
)
from .exactmat import GFMatrix, LeftNullBasis, left_null_basis, weight_one_in_colspace
from .tangentfns import _lagrange_sum, _lagrange_weights

__all__ = [
    "SizeOutOfRangeError",
    "NoCertificateError",
    "PropertyWMissingError",
    "NotLeftNullError",
    "CertMatrix",
    "NonExtendabilityCertificate",
    "PropertyWReport",
    "PropertyWWitness",
    "CosecantPrediction",
    "PredictedTangent",
    "BoundScan",
    "ConjectureScanResult",
    "build_Mn",
    "theorem1_test",
    "bound_scan",
    "property_w",
    "corollary2_route",
    "recover_cosecants",
    "conjecture_scan",
]


class SizeOutOfRangeError(ArcInputError):
    pass


class NoCertificateError(RuntimeError):
    """Raised when the bound scan exhausts all n without a certificate."""

    def __init__(self, message, audit=None):
        super().__init__(message)
        self.audit = audit or []


class PropertyWMissingError(RuntimeError):
    pass


class NotLeftNullError(ArcInputError):
    """A vector given as a left-null vector of M_n does not annihilate it."""


class CertMatrix:
    """M_n of an arc, one block of n+1 columns per (k-2)-subset A, with
    the data its blocks are built from: the star of every A (its rows A+x,
    x running over the points outside A) and a basis b1, b2 of the forms
    vanishing on A with the pencil coordinates beta(x) = (b1.x, b2.x) of
    its star."""

    def __init__(self, arc: ArcConfig, n: int, matrix: GFMatrix, rows, subsets, others, stars, pencils, beta):
        self.arc = arc
        self.n = n
        self.matrix = matrix
        self.rows = rows          # list of (k-1)-subsets, colex
        self.subsets = subsets    # the A, colex
        self.others = others      # others[s] = the points outside subsets[s]
        self.stars = stars        # stars[s, j] = row of subsets[s] + others[s, j]
        self.pencils = pencils    # pencils[s] = (b1, b2) of subsets[s]
        self.beta = beta          # beta[s, :, j] = beta(others[s, j])
        self._w_report = None     # the Property W report, once computed

    @property
    def t(self) -> int:
        return self.arc.size - self.arc.k - self.n

    @property
    def forbidden_size(self) -> int:
        return self.arc.ctx.q + 2 * self.arc.k + self.n - 1 - self.arc.size


def _star_geometry(arc: ArcConfig):
    """The part of M_n that does not depend on n, built once per arc
    object and kept on it: rows, subsets, others, stars, pencils and beta
    as ``CertMatrix`` holds them, and odd[s, j] = whether an odd number
    of points of subsets[s] lie below others[s, j].  Every M_n of the arc
    shares these arrays, so they are read-only."""
    geom = getattr(arc, "_star_geometry", None)
    if geom is None:
        g, k = arc.size, arc.k
        rows = list(subset_iter(g, k - 1))
        row_index = {c: i for i, c in enumerate(rows)}
        subsets = list(subset_iter(g, k - 2))
        others = np.array([[e for e in range(g) if e not in A] for A in subsets], dtype=np.int64)
        stars = np.array([[row_index[tuple(sorted(A + (e,)))] for e in range(g) if e not in A] for A in subsets])
        pencils = np.stack(_pencil_basis(arc, subsets)[2:], axis=1)
        pts = np.array(arc.points, dtype=np.int64).reshape(g, k)
        beta = arc.ctx.vec_ops().matmul(pencils, pts[others].transpose(0, 2, 1))
        below = (np.array(subsets, dtype=np.int64).reshape(len(subsets), 1, k - 2) < others[:, :, None]).sum(2)
        odd = below % 2 == 1
        for a in (others, stars, pencils, beta, odd):
            a.flags.writeable = False
        geom = arc._star_geometry = (rows, subsets, others, stars, pencils, beta, odd)
    return geom


def build_Mn(arc: ArcConfig, n: int) -> CertMatrix:
    """Construct M_n, one block per A; requires 0 <= n <= |G| - k.

    Column i of A's block holds s_e^n beta1(e)^i beta2(e)^(n-i) in each
    row A+e of its star, s_e = (-1)^{#{a in A : a < e}}.  The paper's
    column (A, E) is c_A^n s_e^n prod_{u in G-E} D(u, e) there, a binary
    form of degree n in beta(e), and these forms span all n+1 monomials,
    so both matrices have the same column space.  The stars and beta come
    from the arc's star geometry, so each n only fills its powers."""
    g, k = arc.size, arc.k
    if n < 0 or g < k + n:
        raise SizeOutOfRangeError(f"need 0 <= n <= |G|-k, got n={n}, |G|={g}")
    ops = arc.ctx.vec_ops()
    rows, subsets, others, stars, pencils, beta, odd = _star_geometry(arc)
    # powers[..., i] = beta1^i beta2^(n-i) over every star
    powers = np.ones((*others.shape, n + 1), dtype=np.int64)
    for i in range(n):
        powers[..., : i + 1] = ops.mul(powers[..., : i + 1], beta[:, 1, :, None])
        powers[..., i + 1 :] = ops.mul(powers[..., i + 1 :], beta[:, 0, :, None])
    if n % 2:
        powers = np.where(odd[..., None], ops.neg(powers), powers)
    cols = np.arange(len(subsets) * (n + 1)).reshape(len(subsets), 1, n + 1)
    data = np.zeros((len(rows), cols.size), dtype=np.int64)
    data[stars[:, :, None], cols] = powers
    return CertMatrix(arc, n, GFMatrix(arc.ctx, data), rows, subsets, others, stars, pencils, beta)


def _matrix(arc: ArcConfig, n: int, M: CertMatrix | None) -> CertMatrix:
    """M, or M_n of the arc when M is None; a matrix built for another arc
    object or another n would answer another question, so it raises."""
    if M is None:
        return build_Mn(arc, n)
    if M.n != n or M.arc is not arc:
        raise ValueError(f"matrix was built for another arc or n (n={M.n}, asked n={n})")
    return M


@dataclass(frozen=True)
class NonExtendabilityCertificate:
    n: int
    row: tuple
    forbidden_size: int


def theorem1_test(arc: ArcConfig, n: int, M: CertMatrix | None = None):
    """Certificate that the arc extends to no arc of size q+2k+n-1-|G|,
    or None when M_n has no weight-one vector in its column space."""
    M = _matrix(arc, n, M)
    idx = weight_one_in_colspace(M.matrix)
    return None if idx is None else NonExtendabilityCertificate(n, M.rows[idx], M.forbidden_size)


@dataclass(frozen=True)
class BoundScan:
    n0: int
    certificate: NonExtendabilityCertificate
    forbidden_size: int
    max_size_bound: int
    trace: tuple  # (n, rank, rows, nullity) per scanned n


def bound_scan(arc: ArcConfig) -> BoundScan:
    """Least n with a weight-one certificate, plus the resulting bound.

    Non-extendability to size s rules out every size >= s, so the first
    certificate bounds the largest arc containing G by forbidden_size - 1.
    Raises NoCertificateError after n = |G|-k (possible only for even q),
    carrying a per-n nullity audit, and SizeOutOfRangeError when |G| < k.
    """
    g, k, q = arc.size, arc.k, arc.ctx.q
    if g < k:
        raise SizeOutOfRangeError(f"need |G| >= k, got |G|={g}, k={k}")
    trace = []
    for n in range(g - k + 1):
        M = build_Mn(arc, n)
        null = left_null_basis(M.matrix)
        trace.append((n, M.matrix.rows - null.nullity, M.matrix.rows, null.nullity))
        cert = theorem1_test(arc, n, M)
        if cert is not None:
            return BoundScan(n, cert, cert.forbidden_size, cert.forbidden_size - 1, tuple(trace))
    audit = [
        {
            "n": n,
            "rank": r,
            "rows": rows,
            "nullity": nullity,
            "even_q_nullity": comb(g - n - 1, k - 1),
        }
        for n, r, rows, nullity in trace
    ]
    raise NoCertificateError(
        f"no weight-one certificate for any n <= {g - k} (q = {q})", audit
    )


@dataclass(frozen=True)
class PropertyWWitness:
    A: tuple
    pivot: int
    partners: tuple  # ((y, b), ...) with unit_{A+x} + b*unit_{A+y} in colspace


@dataclass(frozen=True)
class PropertyWReport:
    n: int
    t: int
    holds: bool
    witnesses: dict
    missing: tuple


def property_w(arc: ArcConfig, n: int, M: CertMatrix | None = None) -> PropertyWReport:
    """Search weight-two witnesses for every (k-2)-subset A.

    Per A the pivot is the smallest x in G-A admitting |G|-n-k+1 distinct
    partners y with a weight-two vector supported on (A+{x}, A+{y}) in the
    column space of M_n.  The report is kept on M, so a second call on
    the same matrix returns it without a second pass.
    """
    M = _matrix(arc, n, M)
    if M._w_report is None:
        M._w_report = _property_w(M, left_null_basis(M.matrix))
    return M._w_report


def _property_w(M: CertMatrix, null: LeftNullBasis) -> PropertyWReport:
    """The Property W report of M_n, its column space read as the
    annihilator of the given null basis: the partners of every x of every
    star come from one pass over the basis columns."""
    stars = M.stars
    b = null.weight_two_scalars(stars[:, :, None], stars[:, None, :])
    diag = np.arange(stars.shape[1])
    b[:, diag, diag] = 0  # y != x
    pivots = (b != 0).sum(2) >= M.t + 1  # |G|-n-k+1 partners
    witnesses = {}
    missing = []
    for s, A in enumerate(M.subsets):
        if not pivots[s].any():
            missing.append(A)
            continue
        i = int(pivots[s].argmax())
        ys = np.flatnonzero(b[s, i])
        partners = tuple(zip(M.others[s, ys].tolist(), b[s, i, ys].tolist()))
        witnesses[A] = PropertyWWitness(A, int(M.others[s, i]), partners)
    return PropertyWReport(M.n, M.t, not missing, witnesses, tuple(missing))


def corollary2_route(arc: ArcConfig, n: int, M: CertMatrix | None = None) -> bool:
    """Rank one less than full row rank and no weight-one vector: the
    single left-null vector then plays the role of v_G and every
    weight-two vector is available."""
    M = _matrix(arc, n, M)
    return left_null_basis(M.matrix).nullity == 1 and weight_one_in_colspace(M.matrix) is None


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
    route: str            # "null-vector" | "property-w"

    @property
    def all_split(self) -> bool:
        return all(p.status == "ok" for p in self.per_A.values())


def recover_cosecants(
    arc: ArcConfig, n: int, source=None, M: CertMatrix | None = None
) -> CosecantPrediction:
    """Recover, per (k-2)-subset A, the tangent function any extension to
    size q+2k+n-1-|G| must restrict to, normalised to 1 at the pivot.

    The ratios come from a left-null basis of M_n: M's own when source is
    None, or the given left-null vector of M_n as a one-row basis (an
    entry that is not an integer field element code, or a vector that is
    not left-null, raises NotLeftNullError).  A zero column of that basis fixes no ratio and
    raises PropertyWMissingError: on M's own basis it is a weight-one
    vector in the column space, on a single vector a zero coordinate.
    The route is "null-vector" when the basis has one row, else
    "property-w".  A recovered function that does not split into t
    distinct pencil forms is reported as non-splitting, which itself
    certifies that no such extension exists.
    """
    t = arc.size - arc.k - n
    if t < 1:
        raise SizeOutOfRangeError(f"recovery needs t = |G|-k-n >= 1, got {t}")
    M = _matrix(arc, n, M)
    ctx = arc.ctx
    ops = ctx.vec_ops()
    if source is None:
        null = left_null_basis(M.matrix)
    else:
        entries = list(source) if isinstance(source, Iterable) else [source]
        if not all(isinstance(x, (int, np.integer)) and 0 <= x < ctx.q for x in entries):
            raise NotLeftNullError("the given vector has entries that are not field element codes")
        v = np.array([entries], dtype=np.int64)
        if v.shape[1] != len(M.rows):
            raise SizeOutOfRangeError("null vector length does not match row count")
        if ops.matmul(v, M.matrix.data).any():
            raise NotLeftNullError("the given vector is not a left-null vector of M_n")
        null = LeftNullBasis(ctx, v)
    zero = np.flatnonzero(~null.basis.any(0))
    if zero.size:
        raise PropertyWMissingError(
            f"zero left-null basis column at row {M.rows[zero[0]]}: it fixes no ratio"
        )
    report = property_w(arc, n, M) if source is None else _property_w(M, null)
    if not report.holds:
        raise PropertyWMissingError(
            f"Property W fails for {len(report.missing)} subsets, e.g. {report.missing[0]}"
        )
    route = "null-vector" if null.nullity == 1 else "property-w"

    # per A: the pivot x, then its first t partners y with rho = -b from
    # the witness; x is its own partner with rho = 1.  Each e sits at
    # place e - b_e of A's star, b_e = #{a in A : a < e}
    wits = [report.witnesses[A] for A in M.subsets]
    pts = np.array([[w.pivot] + [y for y, _ in w.partners[:t]] for w in wits], dtype=np.int64)
    rho = np.array([[1] + [ctx.neg(b) for _, b in w.partners[:t]] for w in wits], dtype=np.int64)
    at = np.arange(len(wits))[:, None]
    below = (np.array(M.subsets, dtype=np.int64)[:, None, :] < pts[:, :, None]).sum(2)
    place = pts - below
    # v_G(A+e) = alpha_{A+e} / prod_{z in G-A-e} det(z, A+e), alpha_{A+e}
    # = +-s_e^{t+1} alpha_A f_A(e) with s_e = (-1)^{b_e}, and the product is
    # (c_A s_e)^{|G|-k+1} Q_A(e), Q_A(e) = prod D(z, e) over the rest of A's
    # star.  So with rho = v_G(A+x)/v_G(A+y) read off the witness,
    # f_A(y)/f_A(x) = (s_x s_y)^n Q_A(y) / (rho Q_A(x)): c_A cancels, and
    # the sign is the s_e^n of M_n's own columns.  1/Q_A are the Lagrange
    # weights of the unit values over the whole star
    W = _lagrange_weights(ctx, M.beta, 1)[at, place]
    vals = ops.div(W[:, :1], ops.mul(rho, W))
    flip = (below[:, :1] + below) * n % 2 == 1
    vals[flip] = ops.neg(vals[flip])
    # f_A on the pencil member w2 b1 - w1 b2 through each w of PG(1,q)
    w1, w2 = _projective_line(ctx)
    beta = M.beta[at, :, place].transpose(0, 2, 1)
    hits = _lagrange_sum(ctx, beta, _lagrange_weights(ctx, beta, vals), w1, w2) == 0
    if (hits.sum(1) > t).any():
        raise InvariantError("degree-t function cannot vanish on t+1 directions")
    per_A = {}
    for s, A in enumerate(M.subsets):
        values = dict(zip(pts[s].tolist(), vals[s].tolist()))
        roots, status = None, "non-splitting"
        if hits[s].sum() == t:
            members = _pencil_members(ctx, *M.pencils[s], w1[hits[s]], w2[hits[s]])
            roots, status = tuple(sorted(map(tuple, members.tolist()))), "ok"
        per_A[A] = PredictedTangent(A, wits[s].pivot, values, roots, status)
    return CosecantPrediction(n, t, per_A, route)


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

    @property
    def fraction(self) -> float:
        return self.certified / self.total if self.total else 0.0


RANDOM_ARC_ATTEMPTS = 1000


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
                    cuts = inc.cut(cands, [[S + (v,)] for S in itertools.combinations(cur, inc.k - 2)])
                    cands = np.bitwise_and.reduce(cuts)
                cur.append(v)
                if len(cur) == size:
                    return [inc.points[i] for i in cur]
    raise BudgetExceededError(
        f"no arc of size {size} in {RANDOM_ARC_ATTEMPTS} random point orders"
    )


def conjecture_scan(
    ctx, k: int, n: int, budget: int = 200_000, samples: int = 200, seed: int = 0
) -> ConjectureScanResult:
    """Test arcs of size 2k-3+n for a weight-one certificate at this n.

    Enumerates all such arcs containing the canonical frame prefix when
    the search fits in the node budget (every projective class contains
    one, and certificates are class functions), otherwise samples random
    arcs with the seeded generator.  Arcs lacking a certificate inside
    the conjectured range k <= p+n(p-2) are returned as counterexample
    candidates.  No arc is larger than q+k-1, so that enumeration is
    empty without a search.
    """
    p = ctx.p
    size = 2 * k - 3 + n
    if size < k:
        raise SizeOutOfRangeError("arc size 2k-3+n below k")
    in_range = k <= p + n * (p - 2)
    frame = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    frame.append((1,) * k)
    seed_arc = ArcConfig(ctx, k, frame[: min(size, k + 1)], check=False)

    arcs = []
    mode = "exhaustive"
    try:
        if size <= ctx.q + k - 1:
            arcs = list(complete_search(seed_arc, target_size=size, budget=budget).arcs)
    except BudgetExceededError:
        mode = "sampled"
        rng = random.Random(seed)
        inc = HyperplaneIncidence(ctx, k)
        arcs = [tuple(_random_arc(inc, size, rng)) for _ in range(samples)]

    certified = 0
    counterexamples = []
    for pts in arcs:
        G = ArcConfig(ctx, k, pts, check=False)
        if theorem1_test(G, n) is not None:
            certified += 1
        elif in_range:
            counterexamples.append(pts)
    return ConjectureScanResult(
        p, ctx.h, k, n, size, in_range, mode, len(arcs), certified, tuple(counterexamples)
    )
