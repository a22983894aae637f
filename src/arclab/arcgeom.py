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
    "BudgetExceededError",
    "InvariantError",
    "ArcConfig",
    "SearchResult",
    "det_full",
    "det_uC",
    "det_uvA",
    "validate_arc",
    "canonical_form",
    "eval_form",
    "kernel_of_points",
    "pencil_through",
    "cosecants_through",
    "projective_points",
    "HyperplaneIncidence",
    "extensions_of",
    "complete_search",
    "subset_iter",
]


class BudgetExceededError(RuntimeError):
    pass


class InvariantError(RuntimeError):
    """An identity that holds for every arc failed: a fault in the
    arithmetic or in the code, not in the input."""


# ----------------------------------------------------------------------
# determinants
# ----------------------------------------------------------------------


def det_full(ctx, rows) -> int:
    """Exact determinant of the k x k matrix whose i-th row is rows[i]."""
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("determinant requires a square matrix")
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
                    m[r][cc] = ctx.sub(m[r][cc], ctx.mul(f, m[c][cc]))
    return det


def det_uC(arc: "ArcConfig", u, C) -> int:
    """det(u, C) with the members of C in increasing arc order."""
    return det_full(arc.ctx, [u] + arc.points_at(C))


def det_uvA(arc: "ArcConfig", u, v, A) -> int:
    """det(u, v, A): the alternating form d_A(u, v)."""
    return det_full(arc.ctx, [u, v] + arc.points_at(A))


# ----------------------------------------------------------------------
# arcs
# ----------------------------------------------------------------------


def validate_arc(ctx, k, points):
    """None if every k-subset of points is a basis, else a witness subset."""
    pts = [tuple(p) for p in points]
    for p in pts:
        if len(p) != k:
            raise ValueError(f"vector {p} does not have length {k}")
        if not any(p):
            return (pts.index(p),)  # zero vector: the witness is the point itself
    for sub in itertools.combinations(range(len(pts)), k):
        if det_full(ctx, [pts[i] for i in sub]) == 0:
            return sub
    return None


class ArcConfig:
    """Ordered arc of V_k(F_q); immutable after validation."""

    def __init__(self, ctx, k, points, check=True):
        if k < 3:
            raise ValueError("dimension k must be at least 3")
        self.ctx = ctx
        self.k = k
        self.points = tuple(tuple(int(x) for x in p) for p in points)
        if len(self.points) > ctx.q + k - 1:
            raise ValueError(
                f"arc size {len(self.points)} exceeds q+k-1 = {ctx.q + k - 1}"
            )
        if check:
            witness = validate_arc(ctx, k, self.points)
            if witness is not None:
                raise ValueError(f"not an arc: subset {witness} is degenerate")

    @property
    def size(self) -> int:
        return len(self.points)

    def __len__(self):
        return len(self.points)

    def point(self, i):
        return self.points[i]

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


def canonical_form(ctx, coeffs):
    """Scale a nonzero dual vector so its first nonzero coefficient is 1."""
    coeffs = tuple(int(c) for c in coeffs)
    lead = next((c for c in coeffs if c), None)
    if lead is None:
        raise ValueError("zero vector is not a linear form")
    if lead == 1:
        return coeffs
    inv = ctx.inv(lead)
    return tuple(ctx.mul(inv, c) for c in coeffs)


def eval_form(ctx, form, v) -> int:
    acc = 0
    for c, x in zip(form, v):
        if c and x:
            acc = ctx.add(acc, ctx.mul(c, x))
    return acc


def kernel_of_points(ctx, rows, width):
    """Basis of {w : row . w = 0 for all rows}, by elimination."""
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
                m[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(m[i], m[r])]
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


def pencil_through(A, arc: ArcConfig):
    """The q+1 canonical forms vanishing on the (k-2)-space spanned by A."""
    ctx = arc.ctx
    basis = kernel_of_points(ctx, arc.points_at(A), arc.k)
    if len(basis) != 2:
        raise ValueError("subset does not span a (k-2)-space")
    b1, b2 = basis
    forms = {canonical_form(ctx, b2)}
    for lam in ctx.elements():
        coeffs = tuple(ctx.add(x, ctx.mul(lam, y)) for x, y in zip(b1, b2))
        forms.add(canonical_form(ctx, coeffs))
    if len(forms) != ctx.q + 1:
        raise InvariantError(f"pencil has {len(forms)} members, not q+1 = {ctx.q + 1}")
    return sorted(forms)


def _form_values(ctx, forms, points):
    """Every linear form at every point at once, one row per form:
    products, then a sum over the coordinates."""
    ops = ctx.vec_ops()
    terms = ops.mul(np.asarray(forms, dtype=np.int64)[:, None, :], np.asarray(points)[None, :, :])
    values = terms[:, :, 0]
    for j in range(1, terms.shape[2]):
        values = ops.add(values, terms[:, :, j])
    return values


def cosecants_through(A, arc: ArcConfig):
    """Forms of the t hyperplanes meeting the arc exactly in A."""
    forms = pencil_through(A, arc)
    others = np.array([p for i, p in enumerate(arc.points) if i not in A], dtype=np.int64)
    values = _form_values(arc.ctx, forms, others.reshape(-1, arc.k))
    keep = np.all(values != 0, axis=1)
    return [form for form, ok in zip(forms, keep) if ok]


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
    get the ids N, N+1, ... after the N projective points.  ``keep(ids)``
    is the bitset of the points off the hyperplane spanned by the k-1
    vectors with those ids, that is of the w with det(w, ids) != 0; it is
    0 when the vectors are dependent, since then every such determinant
    vanishes.  Masks are cached by id tuple for the life of the object,
    so make one per search and drop it afterwards.
    """

    def __init__(self, ctx, k, extra=()):
        self.ctx = ctx
        self.k = k
        self.points = list(projective_points(ctx, k))
        self.vectors = self.points + [tuple(v) for v in extra]
        self.full = (1 << len(self.points)) - 1
        self._coords = np.array(self.points, dtype=np.int64)
        self._masks = {}

    def keep(self, ids) -> int:
        mask = self._masks.get(ids)
        if mask is None:
            basis = kernel_of_points(self.ctx, [self.vectors[i] for i in ids], self.k)
            mask = 0
            if len(basis) == 1:
                off = _form_values(self.ctx, basis, self._coords)[0] != 0
                mask = int.from_bytes(np.packbits(off, bitorder="little").tobytes(), "little")
            self._masks[ids] = mask
        return mask

    def cut(self, cands: int, cur, v: int) -> int:
        """cands without the points on a hyperplane <v, S>, S a
        (k-2)-subset of cur: the candidates left once v joins the arc cur."""
        for sub in itertools.combinations(cur, self.k - 2):
            cands &= self.keep(sub + (v,))
        return cands

    def extensions(self) -> int:
        """Bitset of the points off every hyperplane spanned by k-1 of the
        extra vectors: the v for which extra + [v] is still an arc."""
        cands = self.full
        for ids in itertools.combinations(range(len(self.points), len(self.vectors)), self.k - 1):
            cands &= self.keep(ids)
        return cands


def extensions_of(arc: ArcConfig):
    """All projective representatives v with arc + v still an arc."""
    inc = HyperplaneIncidence(arc.ctx, arc.k, arc.points)
    cands = inc.extensions()
    return [pt for i, pt in enumerate(inc.points) if cands >> i & 1]


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
    current arc (``HyperplaneIncidence``).
    """
    ctx = arc.ctx
    k = arc.k
    if target_size is not None and target_size > ctx.q + k - 1:
        raise ValueError(f"target size {target_size} exceeds q+k-1")
    inc = HyperplaneIncidence(ctx, k, arc.points)
    n = len(inc.points)
    cur = list(range(n, n + arc.size))
    sizes = set()
    found = []
    nodes = 0

    def dfs(cands, branches):
        # cands: every point that extends cur; branches: those to branch on
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"search exceeded {budget} nodes")
        if target_size is not None:
            if len(cur) >= target_size:
                if len(cur) == target_size:
                    found.append(tuple(inc.vectors[i] for i in cur))
                return
        elif not cands:
            sizes.add(len(cur))
            return
        while branches:
            low = branches & -branches
            branches ^= low
            v = low.bit_length() - 1
            child = inc.cut(cands & ~low, cur, v)
            cur.append(v)
            # the child branches only above v, so each set is visited once
            dfs(child, child >> (v + 1) << (v + 1))
            cur.pop()

    try:
        cands = inc.extensions()
        dfs(cands, cands)
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
    if arity == 0:
        yield ()
        return
    for last in range(arity - 1, n):
        for rest in subset_iter(last, arity - 1):
            yield rest + (last,)
