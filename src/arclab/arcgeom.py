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


# per cofactor_normals call: DET_CHUNK stacked sets (k-subsets in validate_arc,
# spanning sets of hyperplanes in the search); per table fill about MASK_CELLS
# form-value cells, and per run of search entries about MASK_CELLS pairs; per
# search batch at most BATCH_ENTRIES branch entries (a node with more goes
# alone); per point ROW_CACHE_SLOTS slots of the row cache; per hyperplane
# table at most TABLE_WORDS int64 words (128 MiB, rows filled on use)
DET_CHUNK = 4096
MASK_CELLS = 1 << 16
BATCH_ENTRIES = 1024
ROW_CACHE_SLOTS = 4
TABLE_WORDS = 1 << 24


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


def _eliminate(ctx, sets):
    """One Gauss-Jordan elimination of a (B, m, k) stack of sets C of
    m <= k vectors, row by row, with a pivot column per set: the first
    nonzero entry of its row.  Returns the reduced rows, the pivot
    columns, d = det(e_f1, ..., e_f(k-m), C) and f1 + ... + f(k-m), with
    f1 < ... < f(k-m) the free columns.  d is the product of the pivots
    times the sign of the column order (f1, ..., p_1, ..., p_m), and
    d = det(C) when m = k.  A dependent set meets a zero row, whose zero
    pivot zeroes d; its other outputs are then meaningless.
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
        piv = col[:, r]  # a view, read before col[:, r] is zeroed
        det = ops.mul(det, piv)
        row = ops.div(work[:, r], piv[:, None])
        col[:, r] = 0
        work = ops.sub(work, ops.mul(col[:, :, None], row[:, None, :]))
        work[:, r] = row
        pivots[:, r] = p
    # the free columns are all columns but the pivots, and f_i precedes the
    # f_i - i + 1 pivot columns below it
    free = k * (k - 1) // 2 - pivots.sum(1)
    odd ^= free % 2 != (k - m) * (k - m - 1) // 2 % 2
    det[odd] = ops.neg(det[odd])
    return work, pivots, det, free


def cofactor_normals(ctx, sets):
    """The normal n_C of every set C of a (B, k-1, k) stack of k-1 vectors:
    n_C . u = det(u, C) for every u, a zero row when C is dependent:
    det(e_f, C) times the kernel vector v with v_f = 1, f the one free
    column of ``_eliminate``.
    """
    work, pivots, det, f = _eliminate(ctx, sets)
    b, _, k = work.shape
    at = np.arange(b)
    f %= k  # in range also where C is dependent
    ops = ctx.vec_ops()
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
    """Exact determinant of the k x k matrix whose i-th row is rows[i]."""
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("determinant requires a square matrix")
    return int(_eliminate(ctx, np.array(rows, dtype=np.int64).reshape(1, k, k))[2][0])


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
        if not dets.all():
            return chunk[(dets == 0).argmax()]
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

    def points_at(self, ids):
        return [self.points[i] for i in ids]

    def __repr__(self):
        return f"ArcConfig({self.ctx!r}, k={self.k}, size={self.size})"


# ----------------------------------------------------------------------
# linear forms, pencils, co-secants
# ----------------------------------------------------------------------


def _pencil_basis(ctx, points, subsets):
    """b1, b2 for every (k-2)-subset A of a list, given as positions into
    the last-but-one axis of a (..., |G|, k) array of points, one array
    entry per leading index and A, from one elimination of the As.

    A has free columns f1 < f2 and kernel vectors kappa1, kappa2, with
    kappa_i 1 at f_i and 0 at the other; b1 = d kappa1 and b2 = kappa2,
    d = det(e_f1, e_f2, A), span the forms vanishing on A.  With
    beta(x) = (b1.x, b2.x), det(u, x, A) = beta2(x) b1.u - beta1(x) b2.u
    for all u, x: both sides are alternating forms on the 2-dimensional
    V/span(A), and both are d at (e_f1, e_f2).
    """
    a = np.asarray(points, dtype=np.int64)[..., np.array(subsets, dtype=np.int64), :]
    k = a.shape[-1]
    if a.shape[-2] != k - 2:
        raise ValueError("subsets do not all have k-2 points")
    work, pivots, d, _ = _eliminate(ctx, a.reshape(-1, k - 2, k))
    if not d.all():
        raise ValueError("subset does not span a (k-2)-space")
    ops = ctx.vec_ops()
    at = np.arange(len(d))[:, None]
    f = (pivots[:, :, None] != np.arange(k)).all(1).nonzero()[1].reshape(-1, 2)  # f1, f2
    kappa = np.zeros((2, len(d), k), dtype=np.int64)
    kappa[:, at, pivots] = ops.neg(work[at, :, f]).transpose(1, 0, 2)
    kappa[[0, 1], at, f] = 1
    kappa[0] = ops.mul(d[:, None], kappa[0])
    return tuple(b.reshape(*a.shape[:-2], k) for b in kappa)


def _projective_line(ctx):
    """w1, w2: the points (1, lam), lam in F_q, and (0, 1) of PG(1,q)."""
    w = np.ones((2, ctx.q + 1), dtype=np.int64)
    w[0, -1], w[1, :-1] = 0, np.arange(ctx.q)
    return w


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
    in lexicographic order of coordinate tuples (``point_index`` ranks)."""
    q = ctx.q
    for lead in range(k):
        prefix = (0,) * lead + (1,)
        for rest in itertools.product(range(q), repeat=k - 1 - lead):
            yield prefix + rest


def point_index(ctx, canon):
    """Positions in ``projective_points`` of canonical rows of an (M, k) array:
    those of lead l follow the q^(k-1-j) of each lead j < l, by base-q digits."""
    pows = ctx.q ** np.arange(canon.shape[1] - 1, -1, -1, dtype=np.int64)
    return canon @ pows + (np.cumsum(pows) - 2 * pows)[(canon != 0).argmax(1)]


def _check_table(q, k):
    """Raise BudgetExceededError if the hyperplane table of PG(k-1, q), N+1 rows
    of ceil(N/64) words for its N points, would exceed TABLE_WORDS words."""
    n = 0
    for _ in range(k):  # N = 1 + q + ... + q^(k-1), given up once past the cap
        n = n * q + 1
        if (n + 1) * -(-n // 64) > TABLE_WORDS:
            raise BudgetExceededError(
                f"the hyperplane table of PG({k - 1}, {q}) exceeds {TABLE_WORDS} words")


class HyperplaneIncidence:
    """Which points of PG(k-1, q) lie on which hyperplanes, as bitsets.

    A bitset is a row of W = ceil(N/64) int64 words, point i of the N
    ``projective_points`` being bit i % 64 of word i // 64.  The vectors of
    ``extra`` (arc points, which need not be in canonical form) get the ids
    N, N+1, ... after the points.  Hyperplane h is the one whose normal in
    canonical form (first nonzero 1) is point h, and row h of one (N+1, W)
    table is the bitset of the points off it; row N, the zero mask, is that
    of a dependent set, whose normal is zero.  Rows are filled on first use
    and kept for the life of the object, so make one per search and drop it
    afterwards.  A tuple of ids whose row a cache still holds skips the kernel.
    A table of more than TABLE_WORDS words raises BudgetExceededError before
    anything is allocated.
    """

    def __init__(self, ctx, k, extra=()):
        _check_table(ctx.q, k)
        self.ctx = ctx
        self.k = k
        self.points = list(projective_points(ctx, k))
        self.vectors = self.points + [tuple(v) for v in extra]
        n = len(self.points)
        self._vectors = np.array(self.vectors, dtype=np.int64)
        self.table = np.zeros((n + 1, -(-n // 64)), dtype=np.int64)
        self._filled = np.arange(n + 1) == n
        self.full = _pack(np.ones((1, n), dtype=bool))[0]
        # slot i: the ids and row of the last id tuple whose key, which may wrap, is i mod the size
        self._radix = np.power(np.int64(len(self.vectors)), np.arange(k - 1, dtype=np.int64))
        self._slots = np.full((ROW_CACHE_SLOTS * n, k), -1, dtype=np.int64)

    def index(self, normals):
        """The hyperplane of every row of an (M, k) array of normals."""
        return np.where(normals.any(1), point_index(self.ctx, _canonical(self.ctx, normals)), len(self.points))

    def cut(self, base, ids):
        """base AND the masks of the hyperplanes spanned by id tuples, an
        (E, m, k-1) array, one row per E: DET_CHUNK tuples per kernel call,
        then the missing rows about MASK_CELLS form-value cells at a time."""
        ids = np.asarray(ids, dtype=np.int64).reshape(len(ids), -1, self.k - 1)
        flat = ids.reshape(-1, self.k - 1)
        slot = flat @ self._radix % len(self._slots)
        h = self._slots[slot, -1]
        miss = np.flatnonzero((self._slots[slot, :-1] != flat).any(1))
        if len(miss):
            for at in (miss[i : i + DET_CHUNK] for i in range(0, len(miss), DET_CHUNK)):
                h[at] = self.index(cofactor_normals(self.ctx, self._vectors[flat[at]]))
            self._slots[slot[miss]] = np.column_stack([flat[miss], h[miss]])
        new = np.flatnonzero((np.bincount(h, minlength=len(self._filled)) > 0) & ~self._filled)
        pts = self._vectors[: len(self.points)]
        step = max(1, MASK_CELLS // pts.size)
        for rows in (new[i : i + step] for i in range(0, len(new), step)):
            self.table[rows] = _pack(_form_values(self.ctx, pts[rows], pts) != 0)
        self._filled[new] = True
        out = np.array(np.broadcast_to(base, (len(ids), self.table.shape[1])))
        for col in h.reshape(ids.shape[:2]).T:
            out &= self.table[col]
        return out

    def extensions(self):
        """Bitset of the points off every hyperplane spanned by k-1 of the
        extra vectors: the v for which extra + [v] is still an arc."""
        extra = range(len(self.points), len(self.vectors))
        return self.cut(self.full, [list(itertools.combinations(extra, self.k - 1))])[0]


def _pack(bits):
    """Rows of booleans as rows of bitsets."""
    wide = np.zeros((len(bits), -(-bits.shape[1] // 64) * 64), dtype=bool)
    wide[:, : bits.shape[1]] = bits
    return np.packbits(wide, axis=1, bitorder="little").view("<i8").astype(np.int64, copy=False)


_BIT = np.array([1 << j for j in range(64)], dtype=np.uint64).view(np.int64)  # bit j of a word
_ABOVE = np.array([(1 << 64) - (2 << j) for j in range(64)], dtype=np.uint64).view(np.int64)  # bits > j
_POP = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)  # set bits of a byte


def _images(ctx, symmetries, points):
    """The (C, s, m) ids of the images of a (C, m, k) stack of point sets
    under symmetries x -> sigma(G x): a (s, k, k) array of matrices G and
    a (s, q) array of automorphism tables, the matrices side by side."""
    mats, sigmas = symmetries
    (c, m, k), s = points.shape, len(mats)
    img = ctx.vec_ops().matmul(points.reshape(-1, k), mats.transpose(2, 0, 1).reshape(k, -1)).reshape(-1, s, k)
    if ctx.h > 1:
        img = sigmas[np.arange(s)[:, None], img]
    return point_index(ctx, _canonical(ctx, img.reshape(-1, k))).reshape(c, m, s).swapaxes(1, 2)


def _orbit_sizes(ctx, symmetries, ids, vectors):
    """For point sets given as sorted rows (C, m) of ids into vectors: 1
    each without symmetries, else 0 where a row is not the least of the
    rows of its images (``_images``) and the orbit size where it is.  The
    first k+2 elements try every set, the group the rest, MASK_CELLS image
    cells at a time; sign(image - row) @ (2^(m-1), .., 1) orders the rows."""
    if symmetries is None:
        return np.ones(len(ids), dtype=np.int64)
    s, (m, k) = len(symmetries[0]), (ids.shape[1], vectors.shape[1])
    least, fixed = np.ones(len(ids), dtype=bool), np.ones(len(ids), dtype=np.int64)
    for use in sorted({min(s, k + 2), s}):
        live = np.flatnonzero(least)
        step = max(1, MASK_CELLS // (use * m * k))
        for at in (live[i : i + step] for i in range(0, len(live), step)):
            img = np.sort(_images(ctx, [x[:use] for x in symmetries], vectors[ids[at]]), -1)
            sign = np.sign(img - ids[at, None]) @ (1 << np.arange(m - 1, -1, -1))
            least[at], fixed[at] = (sign >= 0).all(1), (sign == 0).sum(1)
    return np.where(least, s // np.maximum(fixed, 1), 0)


@dataclass(frozen=True)
class SearchResult:
    complete_sizes: tuple | None  # without a target
    arcs: np.ndarray | None       # with one: the (found, target, k) points of the arcs found
    nodes: int
    orbit_sizes: np.ndarray | None = None  # of the arcs, 1 each without symmetries


def complete_search(arc: ArcConfig, target_size=None, budget=2_000_000, *, symmetries=None) -> SearchResult:
    """Exhaustive DFS over extensions of the arc.

    Without a target, returns the sorted sizes of all complete arcs
    containing the input.  With a target, returns every arc of exactly
    that size containing the input, as one (arcs, target, k) array, each
    extension set enumerated once in candidate order; a target must lie
    in |G|..q+k-1, or ArcInputError is raised.  Raises BudgetExceededError
    when the node count exceeds the budget, so a returned result is an
    exhaustion proof.

    With a target, ``symmetries``, a group (``_images``) mapping the input
    onto itself (else InvariantError), keeps a child only if the ids of
    its points outside the input are the least of its images, as they are
    then without its largest point: the DFS meets each orbit once, counts
    it as its size and returns one arc per orbit with the orbit sizes.

    Candidates are bitsets over ``projective_points``: adding v removes
    the points on each hyperplane <v, S>, S a (k-2)-subset of the current
    arc (``HyperplaneIncidence``).  numpy expands a batch of nodes of one
    depth at once: their id paths and candidates, and their branch entries
    (node, w, running cut) sorted by node, then w, the cut being the AND of
    the masks of every <w, S>.  Each entry becomes a child, cands & cut
    without w, whose grandchildren are its candidates above w: a popcount
    counts them against the budget before a bit test per pair of entries
    of a node makes them, about MASK_CELLS pairs at a time.  Children with
    grandchildren go on a stack in batches of whole nodes and at most
    BATCH_ENTRIES entries, a grandchild's cut being a row of its parent
    batch's cuts.  Sorting the id paths of the arcs found gives DFS
    preorder, and one gather of the point vectors over the sorted ids
    gives the arcs.
    """
    ctx, k = arc.ctx, arc.k
    if target_size is not None and target_size > ctx.q + k - 1:
        raise ArcInputError(f"target size {target_size} exceeds q+k-1")
    if target_size is not None and target_size < arc.size:
        raise ArcInputError(f"target size {target_size} is below the input size {arc.size}")
    inc = HyperplaneIncidence(ctx, k, arc.points)
    n = len(inc.points)
    if symmetries is not None:
        if target_size is None:
            raise ArcInputError("a search under symmetries needs a target size")
        # a group holds the identity, so it maps the input onto itself iff all images of it are one set
        if np.ptp(np.sort(_images(ctx, symmetries, inc._vectors[None, n:]), -1), axis=1).any():
            raise InvariantError("a symmetry does not map the input arc onto itself")
    sizes, found = set(), []  # found: the kept leaves' id paths, each with its orbit size appended
    cands = inc.extensions()[None]
    ws = np.flatnonzero(np.unpackbits(cands.astype("<i8", copy=False).view(np.uint8), bitorder="little"))
    if target_size is None and not cands.any():
        sizes.add(arc.size)
    elif target_size == arc.size:
        ws = ws[:0]  # the input has reached the target size
        found.append(np.r_[n : n + arc.size, 1][None])
    # nodes as counted when met, and the popcounts' count that guards the allocations
    nodes, made = 1, 1 + len(ws)
    # a batch: paths, cands, node, ws, and the running cuts as rows of an array its siblings share
    zero = np.zeros(len(ws), dtype=np.int64)
    stack = [(np.arange(n, n + arc.size)[None], cands, zero, ws, inc.full[None], zero)] if len(ws) else []
    while stack and max(nodes, made) <= budget:
        paths, cands, node, ws, cuts, rows = stack.pop()
        d = paths.shape[1]
        ext = np.column_stack([paths[node], ws])  # the children's paths
        orbit = _orbit_sizes(ctx, symmetries, ext[:, arc.size :], inc._vectors)
        nodes += int(orbit.sum())
        if target_size is not None and d + 1 >= target_size:
            if d + 1 == target_size:
                found.append(np.concatenate([ext, orbit[:, None]], 1)[orbit > 0])
            continue
        # the hyperplanes <w, S> new to each entry: S through the node's last point, any S at the root
        cols = [S + (d,) for S in itertools.combinations(range(d), k - 2) if d == arc.size or d - 1 in S]
        cut = inc.cut(cuts[rows], ext[:, np.array(cols, dtype=np.int64).reshape(-1, k - 1)])
        children = cands[node] & cut
        i, word = np.arange(len(ws)), ws >> 6
        children[i, word] &= ~_BIT[ws & 63]
        if target_size is None and not children.any(1).all():
            sizes.add(d + 1)
        # count the grandchildren, the candidates of each child above its w, before making any
        above = np.where(np.arange(children.shape[1]) > word[:, None], children, 0)
        above[i, word] = children[i, word] & _ABOVE[ws & 63]
        made += int(_POP[above.view(np.uint8)].sum())
        if made > budget:
            break
        # the pairs e < f of entries of one node, e a kept child with grandchildren, then those e
        # keeps, made for runs of entries of about MASK_CELLS pairs: pair i of e has f = e + 1 + i
        has = above.any(1) & (orbit > 0)
        stop = np.append(np.flatnonzero(np.diff(node)) + 1, len(node))
        more = np.where(has, stop[node] - np.arange(len(node)) - 1, 0)
        ends = np.cumsum(more)
        first, pairs, lo = ends - more, [], 0
        while lo < len(node):
            hi = max(lo + 1, int(np.searchsorted(ends, first[lo] + MASK_CELLS, side="right")))
            e = np.repeat(np.arange(lo, hi), more[lo:hi])
            f = e + 1 + np.arange(len(e)) - np.repeat(first[lo:hi] - first[lo], more[lo:hi])
            keep = children[e, ws[f] >> 6] & _BIT[ws[f] & 63] != 0
            pairs.append((e[keep], f[keep]))
            lo = hi
        e, f = (np.concatenate(x) for x in zip(*pairs))
        at = np.flatnonzero(has)  # the kept children with grandchildren
        paths, cands, node, ws = ext[at], children[at], np.searchsorted(at, e), ws[f]
        # batches of whole nodes and at most BATCH_ENTRIES entries, the first on top
        stop = np.append(np.flatnonzero(np.diff(node)) + 1, len(node))
        batches, lo, a = [], 0, 0
        while lo < len(at):
            hi = max(lo + 1, int(np.searchsorted(stop, a + BATCH_ENTRIES, side="right")))
            b = int(stop[hi - 1])
            batches.append((paths[lo:hi], cands[lo:hi], node[a:b] - lo, ws[a:b], cut, f[a:b]))
            lo, a = hi, b
        stack += reversed(batches)
    if max(nodes, made) > budget:
        raise BudgetExceededError(f"search exceeded {budget} nodes")
    if target_size is None:
        return SearchResult(tuple(sorted(sizes)), None, nodes)
    ids = np.concatenate(found) if found else np.zeros((0, target_size + 1), dtype=np.int64)
    ids = ids[np.lexsort(ids[:, :-1].T[::-1])]
    return SearchResult(None, inc._vectors[ids[:, :-1]], nodes, ids[:, -1])


# ----------------------------------------------------------------------
# colexicographic subset indexing
# ----------------------------------------------------------------------


def subset_iter(n, arity):
    """All arity-subsets of range(n) in colexicographic order."""
    yield from sorted(itertools.combinations(range(n), arity), key=lambda s: s[::-1])
