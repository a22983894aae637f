"""Certification engine: the matrix M_n and everything it proves.

Rows of M_n are indexed by the (k-1)-subsets C of the arc G in colex
order; columns by pairs (A, E) with |E| = |G|-n, A a (k-2)-subset of E,
E outer colex and A inner colex.  The (C, (A, E)) entry is
prod_{u in G-E} det(u, C) when A < C and 0 otherwise; members of a subset
always enter determinants in increasing arc order.

A weight-one vector in the column space certifies that G extends to no
arc of size q+2k+n-1-|G|.  Weight-two vectors (Property W) pin down the
ratios f_A(y)/f_A(x) of the tangent functions of any extension, from
which the co-secants through each A are recovered by interpolation and
exhaustive root finding over the pencil.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

import numpy as np

from .arcgeom import (
    ArcConfig,
    BudgetExceededError,
    HyperplaneIncidence,
    InvariantError,
    _dets,
    _pencil_members,
    _projective_line,
    complete_search,
    subset_iter,
)
from .exactmat import (
    GFMatrix,
    left_null_basis,
    weight_one_in_colspace,
    weight_two_in_colspace,
)
from .tangentfns import _pencil_lagrange, alpha_table, interpolate_fA

__all__ = [
    "SizeOutOfRangeError",
    "NoCertificateError",
    "PropertyWMissingError",
    "CertMatrix",
    "NonExtendabilityCertificate",
    "PropertyWReport",
    "PropertyWWitness",
    "CosecantPrediction",
    "PredictedTangent",
    "VGVector",
    "BoundScan",
    "ConjectureScanResult",
    "build_Mn",
    "theorem1_test",
    "bound_scan",
    "property_w",
    "corollary2_route",
    "recover_cosecants",
    "vg_vector",
    "vG_check",
    "even_nullity_check",
    "conjecture_scan",
]


class SizeOutOfRangeError(ValueError):
    pass


class NoCertificateError(RuntimeError):
    """Raised when the bound scan exhausts all n without a certificate."""

    def __init__(self, message, audit=None):
        super().__init__(message)
        self.audit = audit or []


class PropertyWMissingError(RuntimeError):
    pass


class CertMatrix:
    """M_n of an arc together with its row/column index maps and the
    determinant table its entries are built from."""

    def __init__(self, arc: ArcConfig, n: int, matrix: GFMatrix, rows, cols, dets):
        self.arc = arc
        self.n = n
        self.matrix = matrix
        self.rows = rows          # list of (k-1)-subsets, colex
        self.cols = cols          # list of (A, E) pairs, E outer colex
        self.dets = dets          # dets[u][i] = det(u, rows[i])
        self.row_index = {c: i for i, c in enumerate(rows)}
        self.col_index = {p: j for j, p in enumerate(cols)}

    @property
    def t(self) -> int:
        return self.arc.size - self.arc.k - self.n

    @property
    def forbidden_size(self) -> int:
        return self.arc.ctx.q + 2 * self.arc.k + self.n - 1 - self.arc.size


def _det_table(arc: ArcConfig, rows):
    """det(u, C) for every point u and subset C of rows (0 when u in C)."""
    return _dets(arc, rows, range(arc.size)).T.tolist()


def build_Mn(arc: ArcConfig, n: int) -> CertMatrix:
    """Construct M_n; requires 0 <= n <= |G| - k."""
    g = arc.size
    k = arc.k
    if n < 0 or g < k + n:
        raise SizeOutOfRangeError(f"need 0 <= n <= |G|-k, got n={n}, |G|={g}")
    ctx = arc.ctx
    ops = ctx.vec_ops()
    rows = list(subset_iter(g, k - 1))
    row_index = {c: i for i, c in enumerate(rows)}
    dets = _det_table(arc, rows)
    cols, stars, outs = [], [], []
    for E in subset_iter(g, g - n):
        out = [u for u in range(g) if u not in E]
        for Apos in subset_iter(g - n, k - 2):
            A = tuple(E[i] for i in Apos)
            cols.append((A, E))
            stars.append([row_index[tuple(sorted(A + (e,)))] for e in range(g) if e not in A])
            outs.append(out)
    # column (A, E) has prod_{u in G-E} det(u, A+e) in each row A+e of its star
    stars = np.array(stars, dtype=np.int64)
    table = np.array(dets, dtype=np.int64)
    values = np.ones(stars.shape, dtype=np.int64)
    for u in np.array(outs, dtype=np.int64).reshape(len(cols), n).T:
        values = ops.mul(values, table[u[:, None], stars])
    data = np.zeros((len(rows), len(cols)), dtype=np.int64)
    data[stars, np.arange(len(cols))[:, None]] = values
    return CertMatrix(arc, n, GFMatrix(ctx, data), rows, cols, dets)


@dataclass(frozen=True)
class NonExtendabilityCertificate:
    n: int
    row: tuple
    forbidden_size: int


def theorem1_test(arc: ArcConfig, n: int, M: CertMatrix | None = None):
    """Certificate that the arc extends to no arc of size q+2k+n-1-|G|,
    or None when M_n has no weight-one vector in its column space."""
    if M is None:
        M = build_Mn(arc, n)
    idx = weight_one_in_colspace(M.matrix)
    if idx is None:
        return None
    return NonExtendabilityCertificate(n, M.rows[idx], M.forbidden_size)


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
    carrying a per-n nullity audit.
    """
    g, k, q = arc.size, arc.k, arc.ctx.q
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
    partners: tuple  # ((y, a, b), ...) with a*unit_{A+x} + b*unit_{A+y} in colspace


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
    column space of M_n.
    """
    if M is None:
        M = build_Mn(arc, n)
    g, k = arc.size, arc.k
    need = g - n - k + 1
    witnesses = {}
    missing = []
    for A in subset_iter(g, k - 2):
        others = [x for x in range(g) if x not in A]
        found = None
        for x in others:
            cx = M.row_index[tuple(sorted(A + (x,)))]
            partners = []
            for y in others:
                if y == x:
                    continue
                cy = M.row_index[tuple(sorted(A + (y,)))]
                ab = weight_two_in_colspace(M.matrix, cx, cy)
                if ab is not None:
                    partners.append((y, ab[0], ab[1]))
            if len(partners) >= need:
                found = PropertyWWitness(A, x, tuple(partners))
                break
        if found is None:
            missing.append(A)
        else:
            witnesses[A] = found
    return PropertyWReport(n, M.t, not missing, witnesses, tuple(missing))


def corollary2_route(arc: ArcConfig, n: int, M: CertMatrix | None = None) -> bool:
    """Rank one less than full row rank and no weight-one vector: the
    single left-null vector then plays the role of v_G and every
    weight-two vector is available."""
    if M is None:
        M = build_Mn(arc, n)
    null = left_null_basis(M.matrix)
    if null.nullity != 1:
        return False
    return weight_one_in_colspace(M.matrix) is None


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

    def evaluator(self, arc: ArcConfig):
        """The recovered tangent function (normalised to 1 at the pivot)."""
        return interpolate_fA(arc, self.A, self.values)


@dataclass(frozen=True)
class CosecantPrediction:
    n: int
    t: int
    per_A: dict
    route: str            # "null-vector" | "property-w"

    @property
    def all_split(self) -> bool:
        return all(p.status == "ok" for p in self.per_A.values())


def _P_coord(ctx, dets, C, i) -> int:
    """prod_{z in G-C} det(z, C)^{-1}: the v_G coordinate without alpha,
    read from a determinant table whose i-th subset is C."""
    return ctx.inv(ctx.prod(row[i] for z, row in enumerate(dets) if z not in C))


def _sigma(arc: ArcConfig, A, e, t) -> int:
    d = sum(1 for a in A if a > e)
    return -1 if (d * (t + 1)) % 2 else 1


def recover_cosecants(
    arc: ArcConfig, n: int, source=None, M: CertMatrix | None = None
) -> CosecantPrediction:
    """Recover, per (k-2)-subset A, the tangent function any extension to
    size q+2k+n-1-|G| must restrict to, normalised to 1 at the pivot.

    source may be a PropertyWReport, an explicit left-null vector, or
    None, in which case the nullity-one route is preferred and Property W
    searched otherwise.  A recovered function that does not split into t
    distinct pencil forms is reported as non-splitting, which itself
    certifies that no such extension exists.
    """
    g, k = arc.size, arc.k
    t = g - k - n
    if t < 1:
        raise SizeOutOfRangeError(f"recovery needs t = |G|-k-n >= 1, got {t}")
    if M is None:
        M = build_Mn(arc, n)
    ctx = arc.ctx

    null_vec = None
    report = None
    if isinstance(source, PropertyWReport):
        report = source
    elif source is not None:
        null_vec = [int(x) for x in source]
    else:
        null = left_null_basis(M.matrix)
        if null.nullity == 1 and weight_one_in_colspace(M.matrix) is None:
            null_vec = null.vectors()[0]
        else:
            report = property_w(arc, n, M)

    if null_vec is not None:
        if len(null_vec) != len(M.rows):
            raise SizeOutOfRangeError("null vector length does not match row count")
        if any(v == 0 for v in null_vec):
            raise PropertyWMissingError(
                "left-null vector has zero coordinates; ratios are undetermined"
            )
    elif not report.holds:
        raise PropertyWMissingError(
            f"Property W fails for {len(report.missing)} subsets, e.g. {report.missing[0]}"
        )

    ops = ctx.vec_ops()
    # the points (1, lam) and (0, 1) of PG(1,q), one per pencil member
    w1, w2 = _projective_line(ctx)
    per_A = {}
    for A in subset_iter(g, k - 2):
        others = [x for x in range(g) if x not in A]
        if null_vec is not None:
            x = others[0]
            ys = others[1 : t + 1]
            rho = lambda y: ctx.div(
                null_vec[M.row_index[tuple(sorted(A + (x,)))]],
                null_vec[M.row_index[tuple(sorted(A + (y,)))]],
            )
        else:
            wit = report.witnesses[A]
            x = wit.pivot
            pairs = {y: (a, b) for y, a, b in wit.partners}
            ys = [y for y, _, _ in wit.partners][:t]
            rho = lambda y: ctx.neg(ctx.div(pairs[y][1], pairs[y][0]))
        Cx = tuple(sorted(A + (x,)))
        Px = _P_coord(ctx, M.dets, Cx, M.row_index[Cx])
        sx = _sigma(arc, A, x, t)
        values = {x: 1}
        for y in ys:
            # f_A(y)/f_A(x) = sigma_x sigma_y P_{A+x} / (rho P_{A+y})
            # with rho = v_G(A+x)/v_G(A+y) read off the witness
            Cy = tuple(sorted(A + (y,)))
            Py = _P_coord(ctx, M.dets, Cy, M.row_index[Cy])
            val = ctx.div(Px, ctx.mul(rho(y), Py))
            if sx * _sigma(arc, A, y, t) < 0:
                val = ctx.neg(val)
            values[y] = val
        # f_A on the pencil member w2 b1 - w1 b2 through each w of PG(1,q):
        # sum_e weight_e prod_{u != e} D(u, w), D(u, w) = b1.u w2 - b2.u w1
        b1, b2, beta, weights = _pencil_lagrange(arc, A, values)
        D = ops.sub(ops.mul(beta[0][:, None], w2), ops.mul(beta[1][:, None], w1))
        f = np.zeros(ctx.q + 1, dtype=np.int64)
        for i, weight in enumerate(weights):
            term = np.int64(weight)
            for row in np.delete(D, i, axis=0):
                term = ops.mul(term, row)
            f = ops.add(f, term)
        hits = np.flatnonzero(f == 0)
        if len(hits) > t:
            raise InvariantError("degree-t function cannot vanish on t+1 directions")
        if len(hits) == t:
            roots = _pencil_members(ctx, b1, b2, w1[hits], w2[hits]).tolist()
            roots = tuple(sorted(map(tuple, roots)))
            per_A[A] = PredictedTangent(A, x, values, roots, "ok")
        else:
            per_A[A] = PredictedTangent(A, x, values, None, "non-splitting")
    route = "null-vector" if null_vec is not None else "property-w"
    return CosecantPrediction(n, t, per_A, route)


# ----------------------------------------------------------------------
# v_G and the even-q nullity law
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VGVector:
    g: int
    coords: tuple  # aligned with subset_iter(g, k-1)


def vg_vector(full_arc: ArcConfig, g: int) -> VGVector:
    """v_G for the prefix G of the first g points of a full arc S.

    The C coordinate is alpha_C prod_{z in G-C} det(z, C)^{-1}, alpha
    taken from S's tangent functions (degree t = q+k-1-|S|).
    """
    ctx = full_arc.ctx
    table = alpha_table(full_arc)
    rows = list(subset_iter(g, full_arc.k - 1))
    dets = _det_table(full_arc.prefix(g), rows)
    coords = [ctx.mul(table.alpha(C), _P_coord(ctx, dets, C, i)) for i, C in enumerate(rows)]
    return VGVector(g, tuple(coords))


def vG_check(full_arc: ArcConfig, g: int, n: int) -> bool:
    """Whether v_G M_n = 0 for G the g-point prefix of the full arc.

    The full arc's size must equal q+2k+n-1-g, the extension size
    Theorem-style reasoning refers to."""
    q, k = full_arc.ctx.q, full_arc.k
    if full_arc.size != q + 2 * k + n - 1 - g:
        raise SizeOutOfRangeError(
            f"full arc size {full_arc.size} != q+2k+n-1-g = {q + 2 * k + n - 1 - g}"
        )
    G = full_arc.prefix(g)
    M = build_Mn(G, n)
    v = vg_vector(full_arc, g)
    products = full_arc.ctx.vec_ops().matmul(np.array([v.coords], dtype=np.int64), M.matrix.data)
    return not products.any()


def even_nullity_check(arc: ArcConfig, n: int, M: CertMatrix | None = None) -> bool:
    """Even q: nullity of M_n must be C(|G|-n-1, k-1) exactly."""
    if arc.ctx.q % 2:
        raise ValueError("the nullity law applies to even q")
    if M is None:
        M = build_Mn(arc, n)
    null = left_null_basis(M.matrix)
    return null.nullity == comb(arc.size - n - 1, arc.k - 1)


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
            if cands >> v & 1:
                cands = next(inc.cuts(cands, cur, [v]))
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
