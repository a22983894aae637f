"""Vectors and arcs of V_k(F_q).

An arc is an ordered list of vectors in which every k-subset is a basis.
The list order is the fixed ordering the sign bookkeeping in the tangent
function machinery refers to; subsets are tuples of strictly increasing
positions into that order, and determinants involving a subset always take
its members in increasing order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArcInputError",
    "BudgetExceededError",
    "InvariantError",
    "ArcConfig",
    "SearchResult",
    "cofactor_normals",
    "det_full",
    "validate_arc",
    "projective_points",
    "HyperplaneIncidence",
    "complete_search",
    "subset_iter",
]


# per cofactor_normals call: DET_CHUNK stacked k-subsets in validate_arc,
# and incidence masks for about MASK_CELLS form-value cells, a key taking
# N x k of them for the N points of PG(k-1, q)
DET_CHUNK = 4096
MASK_CELLS = 1 << 16


class BudgetExceededError(RuntimeError):
    pass


class ArcInputError(ValueError):
    """Not an arc, k below 3, or a size out of range: an input error."""


class InvariantError(RuntimeError):
    """An identity that holds for every arc failed: a fault in the
    arithmetic or in the code, not in the input."""


# ----------------------------------------------------------------------
# determinants
# ----------------------------------------------------------------------


def cofactor_normals(ctx, sets):
    """The normal n_C of every set C of a (B, k-1, k) stack of k-1 vectors:
    n_C . u = det(u, C) for every u, a zero row when C is dependent.

    One Gauss-Jordan elimination runs on all B sets at once, row by row,
    with a pivot column per set: the first nonzero entry of its row.  The
    reduced set has one free column f, and n_C is det(e_f, C) times the
    kernel vector v with v_f = 1.  det(e_f, C) is the product of the pivots
    times the sign of the column order (f, p_1, ..., p_{k-1}).  A dependent
    set meets a zero row, whose zero pivot zeroes the normal.
    """
    ops = ctx.vec_ops()
    work = np.array(sets, dtype=np.int64)
    b, m, k = work.shape
    at = np.arange(b)
    pivots = np.zeros((b, m), dtype=np.int64)
    det = np.ones(b, dtype=np.int64)
    odd = np.zeros(b, dtype=bool)  # parity of the column order
    for r in range(m):
        p = (work[:, r] != 0).argmax(1)
        for s in range(r):
            odd ^= pivots[:, s] > p
        col = work[at, :, p]
        piv = col[:, r].copy()
        det = ops.mul(det, piv)
        row = ops.div(work[:, r], piv[:, None])
        col[:, r] = 0
        work = ops.sub(work, ops.mul(col[:, :, None], row[:, None, :]))
        work[:, r] = row
        pivots[:, r] = p
    # the pivot columns are all columns but f, so f precedes f smaller ones
    f = (k * (k - 1) // 2 - pivots.sum(1)) % k
    odd ^= f % 2 == 1
    det[odd] = ops.neg(det[odd])
    normals = np.zeros((b, k), dtype=np.int64)
    normals[at[:, None], pivots] = ops.neg(ops.mul(det[:, None], work[at, :, f]))
    normals[at, f] = det
    return normals


def _form_values(ctx, forms, points):
    """Every linear form at every point at once, one row per form."""
    points = np.asarray(points, dtype=np.int64)
    return ctx.vec_ops().matmul(np.asarray(forms, dtype=np.int64).reshape(-1, points.shape[1]), points.T)


def _det_products(arc: "ArcConfig", sets, us):
    """prod_{u in us - C} det(u, C) for every C of sets, both given as arc
    positions, C's members in the given order: one kernel call fills the
    table of det(u, C), which on an arc is 0 exactly where u is in C, and
    one product reduces its rows with those zeros read as 1."""
    pts = np.array(arc.points, dtype=np.int64).reshape(-1, arc.k)
    ids = np.array(sets, dtype=np.int64).reshape(len(sets), arc.k - 1)
    dets = _form_values(arc.ctx, cofactor_normals(arc.ctx, pts[ids]), pts[list(us)])
    return arc.ctx.vec_ops().prod(np.where(dets == 0, 1, dets))


def det_full(ctx, rows) -> int:
    """Exact determinant of the k x k matrix whose i-th row is rows[i]:
    the cofactor normal of rows[1:] at rows[0]."""
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("determinant requires a square matrix")
    m = np.array(rows, dtype=np.int64).reshape(k, k)
    return int(_form_values(ctx, cofactor_normals(ctx, m[None, 1:]), m[:1])[0, 0])


# ----------------------------------------------------------------------
# arcs
# ----------------------------------------------------------------------


def validate_arc(ctx, k, points):
    """None if every k-subset of points is a basis, else a witness subset:
    a zero vector first, then the first degenerate k-subset in
    ``itertools.combinations`` order, DET_CHUNK subsets per kernel call."""
    pts = [tuple(p) for p in points]
    for p in pts:
        if len(p) != k:
            raise ArcInputError(f"vector {p} does not have length {k}")
        if not any(p):
            return (pts.index(p),)  # zero vector: the witness is the point itself
    arr = np.array(pts, dtype=np.int64).reshape(-1, k)
    subsets = itertools.combinations(range(len(pts)), k)
    while chunk := list(itertools.islice(subsets, DET_CHUNK)):
        ids = np.array(chunk)
        normals = cofactor_normals(ctx, arr[ids[:, 1:]])
        dets = ctx.vec_ops().matmul(normals[:, None, :], arr[ids[:, 0], :, None])[:, 0, 0]
        bad = np.flatnonzero(dets == 0)
        if bad.size:
            return chunk[bad[0]]
    return None


class ArcConfig:
    """Ordered arc of V_k(F_q); immutable after validation."""

    def __init__(self, ctx, k, points, check=True):
        if k < 3:
            raise ArcInputError("dimension k must be at least 3")
        self.ctx = ctx
        self.k = k
        self.points = tuple(tuple(int(x) for x in p) for p in points)
        for p in self.points:
            if not all(0 <= x < ctx.q for x in p):
                raise ArcInputError(f"vector {p} has a coordinate outside 0..{ctx.q - 1}")
        if len(self.points) > ctx.q + k - 1:
            raise ArcInputError(
                f"arc size {len(self.points)} exceeds q+k-1 = {ctx.q + k - 1}"
            )
        if check:
            witness = validate_arc(ctx, k, self.points)
            if witness is not None:
                raise ArcInputError(f"not an arc: subset {witness} is degenerate")

    @property
    def size(self) -> int:
        return len(self.points)

    def __len__(self):
        return len(self.points)

    def points_at(self, ids):
        return [self.points[i] for i in ids]

    def prefix(self, m) -> "ArcConfig":
        """Sub-arc of the first m points (no re-validation needed)."""
        return ArcConfig(self.ctx, self.k, self.points[:m], check=False)

    def __repr__(self):
        return f"ArcConfig({self.ctx!r}, k={self.k}, size={self.size})"


# ----------------------------------------------------------------------
# linear forms, pencils, co-secants
# ----------------------------------------------------------------------


def _pencil_basis(arc: ArcConfig, subsets):
    """u1, u2, b1, b2 for every (k-2)-subset A of a list, one array entry
    per A, from one kernel call: e_u1 is the first standard basis vector
    outside span(A), e_u2 the first outside span(A, e_u1), and
    b1 = n_{A+e_u1}, b2 = n_{A+e_u2} span the forms vanishing on A."""
    k = arc.k
    a = np.array(arc.points, dtype=np.int64).reshape(-1, k)[np.array(subsets, dtype=np.int64)]
    if a.shape[1:] != (k - 2, k):
        raise ValueError("subsets do not all have k-2 points")
    eye = np.broadcast_to(np.eye(k, dtype=np.int64)[:, None], (len(a), k, 1, k))
    sets = np.concatenate([np.broadcast_to(a[:, None], (len(a), k, k - 2, k)), eye], axis=2)
    normals = cofactor_normals(arc.ctx, sets.reshape(-1, k - 1, k)).reshape(-1, k, k)
    outside = normals.any(axis=2)
    if not outside.any(axis=1).all():
        raise ValueError("subset does not span a (k-2)-space")
    at = np.arange(len(a))
    b1 = normals[at, outside.argmax(1)]
    u2 = (b1 != 0).argmax(1)
    return outside.argmax(1), u2, b1, normals[at, u2]


def _projective_line(ctx):
    """w1, w2: the points (1, lam), lam in F_q, and (0, 1) of PG(1,q)."""
    return np.array([(1, lam) for lam in ctx.elements()] + [(0, 1)], dtype=np.int64).T


def _canonical(ctx, m):
    """The rows of m scaled so that their first nonzero entry is 1."""
    return ctx.vec_ops().div(m, m[np.arange(len(m)), (m != 0).argmax(1)][:, None])


def _pencil_members(ctx, b1, b2, w1, w2):
    """The canonical forms w2 b1 - w1 b2, one row per point w of PG(1,q)."""
    ops = ctx.vec_ops()
    return _canonical(ctx, ops.sub(ops.mul(w2[:, None], b1), ops.mul(w1[:, None], b2)))


def _cosecants(arc: ArcConfig, A, b1, b2):
    """The co-secants through A from a basis b1, b2 of its pencil.  The
    member w2 b1 - w1 b2 contains a point x iff w is proportional to
    beta(x) = (b1.x, b2.x), so the co-secants are the members at the
    points of PG(1,q) that no other arc point marks."""
    ctx = arc.ctx
    others = np.array([p for i, p in enumerate(arc.points) if i not in A], dtype=np.int64)
    beta1, beta2 = _form_values(ctx, [b1, b2], others.reshape(-1, arc.k))
    if np.any((beta1 == 0) & (beta2 == 0)):
        return []  # a point of span(A) lies on every member
    free = np.ones(ctx.q + 1, dtype=bool)
    free[np.where(beta1 != 0, ctx.vec_ops().div(beta2, beta1), ctx.q)] = False
    w1, w2 = _projective_line(ctx)
    return sorted(map(tuple, _pencil_members(ctx, b1, b2, w1[free], w2[free]).tolist()))


# ----------------------------------------------------------------------
# projective enumeration, hyperplane incidence and completion search
# ----------------------------------------------------------------------


def projective_points(ctx, k):
    """One representative per projective point, first nonzero coord 1,
    in lexicographic order of coordinate tuples."""
    q = ctx.q
    for lead in range(k):
        prefix = (0,) * lead + (1,)
        for rest in itertools.product(range(q), repeat=k - 1 - lead):
            yield prefix + rest


class HyperplaneIncidence:
    """Which points of PG(k-1, q) lie on which hyperplanes, as bitsets.

    Point i of ``projective_points`` is bit i of a Python int.  The
    vectors of ``extra`` (arc points, which need not be in canonical form)
    get the ids N, N+1, ... after the N projective points.  The mask of a
    key, a tuple of k-1 ids, is the bitset of the points off the hyperplane
    spanned by those vectors, that is of the w with det(w, ids) != 0; it is
    0 when the vectors are dependent, since their normal is zero.  Masks are cached by id tuple for the life of the object,
    so make one per search and drop it afterwards.
    """

    def __init__(self, ctx, k, extra=()):
        self.ctx = ctx
        self.k = k
        self.points = list(projective_points(ctx, k))
        self.vectors = self.points + [tuple(v) for v in extra]
        self.full = (1 << len(self.points)) - 1
        self._coords = np.array(self.points, dtype=np.int64)
        self._vectors = np.array(self.vectors, dtype=np.int64)
        self._masks = {}

    def masks(self, keys):
        """The mask of every key of a list, the uncached ones computed
        about MASK_CELLS form-value cells per kernel call: at desk scale a
        call's fixed cost outweighs its cost per key, so a node's misses go
        in as few calls as the cell bound on memory allows."""
        cache = self._masks
        new = [ids for ids in keys if ids not in cache]
        step = max(1, MASK_CELLS // self._coords.size)
        for i in range(0, len(new), step):
            chunk = new[i : i + step]
            normals = cofactor_normals(self.ctx, self._vectors[np.array(chunk)])
            off = _form_values(self.ctx, normals, self._coords) != 0
            for ids, row in zip(chunk, np.packbits(off, axis=1, bitorder="little")):
                cache[ids] = int.from_bytes(row.tobytes(), "little")
        return [cache[ids] for ids in keys]

    def cuts(self, arc, jobs):
        """For each (v, w, start) of a list of jobs, start without the
        points on a hyperplane <S, w>: S a (k-2)-subset of arc + [v] through
        v, or of arc alone when v is None.  The uncached masks of all jobs
        are filled first, in one masks call."""
        k = self.k
        subs = {None: list(itertools.combinations(arc, k - 2))}
        keys = []
        for v, w, _ in jobs:
            if v not in subs:
                subs[v] = [T + (v,) for T in itertools.combinations(arc, k - 3)]
            keys += [S + (w,) for S in subs[v]]
        masks = iter(self.masks(keys))
        out = []
        for v, _, start in jobs:
            for _ in subs[v]:
                start &= next(masks)
            out.append(start)
        return out

    def extensions(self) -> int:
        """Bitset of the points off every hyperplane spanned by k-1 of the
        extra vectors: the v for which extra + [v] is still an arc."""
        cands = self.full
        extra = range(len(self.points), len(self.vectors))
        for mask in self.masks(list(itertools.combinations(extra, self.k - 1))):
            cands &= mask
        return cands


def _bits(mask: int):
    """The set bits of a bitset, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


@dataclass(frozen=True)
class SearchResult:
    complete_sizes: tuple | None
    arcs: tuple | None
    nodes: int


def complete_search(arc: ArcConfig, target_size=None, budget=2_000_000) -> SearchResult:
    """Exhaustive DFS over extensions of the arc.

    Without a target, returns the sorted sizes of all complete arcs
    containing the input.  With a target, returns every arc of exactly
    that size containing the input (as full point tuples, each extension
    set enumerated once in candidate order).  Raises BudgetExceededError
    when the node count exceeds the budget, so a returned result is an
    exhaustion proof.

    Candidates are bitsets over ``projective_points``: adding v removes
    the points on each hyperplane <v, S>, S a (k-2)-subset of the
    current arc (``HyperplaneIncidence``).  Each branch candidate w
    carries its running cut, the AND of the masks of all <w, S>, so a
    child ANDs in only the masks of the hyperplanes through its new point.
    """
    ctx = arc.ctx
    k = arc.k
    if target_size is not None and target_size > ctx.q + k - 1:
        raise ArcInputError(f"target size {target_size} exceeds q+k-1")
    inc = HyperplaneIncidence(ctx, k, arc.points)
    n = len(inc.points)
    cur = list(range(n, n + arc.size))
    sizes = set()
    found = []
    nodes = 0

    def dfs(cands, cut):
        # cands: every point that extends cur; cut: for each point w to
        # branch on, in increasing order, its running cut, the points off
        # every hyperplane <w, S>, S a (k-2)-subset of cur.  Each node is
        # counted before it is visited, by the node that first knows of it,
        # so no mask is filled for a node past the budget
        if target_size is not None:
            if len(cur) >= target_size:
                if len(cur) == target_size:
                    found.append(tuple(inc.vectors[i] for i in cur))
                return
        elif not cands:
            sizes.add(len(cur))
            return
        if not cut:
            return
        vs = list(cut)
        children = [cands & ~(1 << v) & cut[v] for v in vs]
        if target_size is not None and len(cur) + 1 >= target_size:
            child_cuts = [{}] * len(vs)  # the children are leaves
        else:
            # the child for v branches only above v, so each set is visited
            # once; its branch candidates are this node's grandchildren
            above = [child >> (v + 1) << (v + 1) for v, child in zip(vs, children)]
            count(sum(a.bit_count() for a in above))
            # a grandchild w adds the hyperplanes <w, T + v>, T a
            # (k-3)-subset of cur, whose masks one cuts call fills
            ws = [_bits(a) for a in above]
            jobs = [(v, w, cut[w]) for v, wv in zip(vs, ws) for w in wv]
            new = iter(inc.cuts(cur, jobs))
            child_cuts = [{w: next(new) for w in wv} for wv in ws]
        for v, child, child_cut in zip(vs, children, child_cuts):
            cur.append(v)
            dfs(child, child_cut)
            cur.pop()

    def count(more):
        nonlocal nodes
        nodes += more
        if nodes > budget:
            raise BudgetExceededError(f"search exceeded {budget} nodes")

    try:
        cands = inc.extensions()
        # the root branches unless the input has reached the target size
        ws = [] if target_size is not None and len(cur) >= target_size else _bits(cands)
        count(1 + len(ws))  # the root and its children
        dfs(cands, dict(zip(ws, inc.cuts(cur, [(None, w, inc.full) for w in ws]))))
    finally:
        # dfs refers to itself; without this the cycle keeps inc alive
        dfs = None
    if target_size is not None:
        return SearchResult(None, tuple(found), nodes)
    return SearchResult(tuple(sorted(sizes)), None, nodes)


# ----------------------------------------------------------------------
# colexicographic subset indexing
# ----------------------------------------------------------------------


def subset_iter(n, arity):
    """All arity-subsets of range(n) in colexicographic order."""
    yield from sorted(itertools.combinations(range(n), arity), key=lambda s: s[::-1])
