"""Exact dense linear algebra over GF(q): left null spaces.

Matrices hold element codes in a numpy int64 array and never mutate after
construction; elimination works on a private copy.  Column-space
membership questions (weight-one / weight-two vectors) are answered
through a left null basis: the column space is exactly the annihilator of
the left null space, so no rank, echelon form or solve is needed.  M_n's
basis comes from star interpolation (``certifier._null_bases``), which
builds no dense M_n, and stays on the certification matrix for every
question about that M_n.  Of the residuals that star interpolation
leaves, that of an M_n or of each arc the conjecture scan certifies
(``certifier._certified``), ``left_null_basis`` eliminates each nonzero
one of two or more rows, once.
A ``GFMatrix`` keeps its basis (``_null``), so asking one matrix again,
as the tests' dense references do, eliminates nothing.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "GFMatrix",
    "LeftNullBasis",
    "left_null_basis",
]


class DimensionMismatchError(ValueError):
    pass


class GFMatrix:
    """Dense matrix of field element codes over a fixed FieldCtx."""

    def __init__(self, ctx, data):
        self.ctx = ctx
        self.data = np.asarray(data, dtype=np.int64)
        if self.data.ndim != 2:
            raise DimensionMismatchError("matrix data must be two-dimensional")
        self._null = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __repr__(self):
        return f"GFMatrix({self.ctx!r}, {self.rows}x{self.cols})"


class LeftNullBasis:
    """Basis of the left null space {w : w M = 0} of a matrix."""

    def __init__(self, ctx, basis):
        self.ctx = ctx
        self.basis = np.asarray(basis, dtype=np.int64)
        if self.basis.ndim != 2:
            raise DimensionMismatchError("a left null basis is a two-dimensional array")

    @property
    def nullity(self) -> int:
        return self.basis.shape[0]

    def weight_one(self):
        """Smallest row index C with unit_C in the column space, or None.

        unit_C lies in the column space iff every left-null vector vanishes
        at C, the column space being exactly the annihilator of the left
        null space; an empty basis has only zero columns.
        """
        idx = np.flatnonzero(~self.basis.any(0))
        return int(idx[0]) if idx.size else None

    def partners(self, c1, c2):
        """Whether rows c1 and c2 are partners, over broadcast arrays of row
        indices: whether unit_c1 + b*unit_c2, for some b != 0, is
        annihilated by every basis vector.  Such a b exists iff the basis
        columns at c1 and c2 are both zero or both nonzero and proportional.
        Columns are compared in canonical form, divided by their first
        nonzero entry, through one class id per distinct canonical column;
        all zero columns share one class.
        """
        ops = self.ctx.vec_ops()
        # one zero vector more changes no answer and leaves no column empty
        cols = np.concatenate([self.basis, np.zeros((1, self.basis.shape[1]), np.int64)]).T
        lead = cols[np.arange(len(cols)), (cols != 0).argmax(1)]
        lead[lead == 0] = 1
        cls = np.unique(ops.div(cols, lead[:, None]), axis=0, return_inverse=True)[1].reshape(-1)
        return cls[c1] == cls[c2]


def left_null_basis(matrix: GFMatrix) -> LeftNullBasis:
    """Left null basis via forward elimination of [M | I]: the kernel that
    ``certifier._null_bases`` runs on the residual of each M_n's star
    interpolation, whose basis becomes M_n's.

    Rows whose M-part reduces to zero carry the combining coefficients in
    the identity block, so the surviving right-hand rows form the basis.
    Only the columns of M that are nonzero at the start are visited: a
    step adds multiples of a pivot row to rows after it, so a column that
    starts zero stays zero (an even-q residual, all zero, makes no step).
    Rows never move: a mask marks the rows that have not pivoted yet
    (the free rows).  The pivot of column c is the first free row nonzero
    in c and its targets are the other free rows nonzero there.  The pivot
    row stays unscaled, each target row takes -work[t, c] / pivot times
    it, and only the columns where the pivot row is nonzero change.  Once
    its step is done the pivot row's M-part is zeroed from c on, so every
    row nonzero in a later column is free and needs no filter.

    The basis depends on the row order alone, not on the column order or
    the pivot sequence.  Every target lies after its pivot, so a row only
    ever receives multiples of earlier rows that have pivoted.  So the
    rows that never pivot are exactly the rows that depend on earlier
    rows, and each basis vector is the unique null vector with 1 at its
    own row and 0 at the other such rows.  (Row exchanges lack this: over
    GF(5) the rows (1, 0), (0, 1), (0, 1) give (0, 4, 1) with exchanges,
    (0, 1, 4) here.)
    In M's row order each vector's first nonzero entry is its own row, so
    the basis is the reduced echelon form of the null space, vectors by
    pivot descending: one basis per space, however it is found.

    The rows are eliminated in reverse order, with the identity block
    reversed alongside, so the basis comes out in M's own row coordinates.
    The column order is free, and the caller chooses it for fill: the
    residual's columns run in lex order of A, the order of least fill.
    """
    if matrix._null is not None:
        return matrix._null
    ops = matrix.ctx.vec_ops()
    m, n = matrix.rows, matrix.cols
    width = n + m
    work = np.zeros((m, width), dtype=np.int64)
    work[:, :n] = matrix.data[::-1]
    at = np.arange(m)
    work[at, width - 1 - at] = 1  # the identity block, reversed with the rows
    # target blocks are read and written through flat indices: cheaper
    # than the 2-D fancy index work[t[:, None], cols]
    flat = work.reshape(-1)
    free = np.ones(m, dtype=bool)
    left = m
    for c in np.flatnonzero(matrix.data.any(0)).tolist():
        if not left:
            break
        nz = work[:, c].nonzero()[0]
        if nz.size == 0:
            continue
        p = nz[0]
        free[p] = False
        left -= 1
        pivot = work[p]
        if nz.size > 1:
            t = nz[1:]
            cols = pivot[c:].nonzero()[0] + c
            f = ops.div(work[t, c], ops.neg(pivot[c]))
            idx = (t * width)[:, None] + cols
            flat[idx] = ops.addmul(flat[idx], f, pivot[cols])
        pivot[c:n] = 0
    # a mask index copies: the basis shares no memory with work
    matrix._null = LeftNullBasis(matrix.ctx, work[free, n:])
    return matrix._null
