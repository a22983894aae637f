"""Exact dense linear algebra over GF(q).

Matrices hold element codes in a numpy int64 array and never mutate after
construction; elimination works on private copies.  Column-space
membership questions (weight-one / weight-two vectors) are answered
through one left-null-space computation per matrix, cached on the matrix,
since the certifier asks many such questions against the same matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "GFMatrix",
    "LeftNullBasis",
    "rank",
    "rref",
    "solve",
    "left_null_basis",
    "weight_one_in_colspace",
    "weight_two_in_colspace",
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

    @classmethod
    def from_rows(cls, ctx, rows):
        arr = np.array(rows, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        return cls(ctx, arr)

    @classmethod
    def zeros(cls, ctx, m, n):
        return cls(ctx, np.zeros((m, n), dtype=np.int64))

    @classmethod
    def identity(cls, ctx, n):
        return cls(ctx, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def row(self, i):
        return [int(x) for x in self.data[i]]

    def entry(self, i, j) -> int:
        return int(self.data[i, j])

    def transpose(self) -> "GFMatrix":
        return GFMatrix(self.ctx, self.data.T.copy())

    def __eq__(self, other):
        return (
            isinstance(other, GFMatrix)
            and self.ctx == other.ctx
            and self.data.shape == other.data.shape
            and bool((self.data == other.data).all())
        )

    def __repr__(self):
        return f"GFMatrix({self.ctx!r}, {self.rows}x{self.cols})"


def _forward_eliminate(ctx, work, pivot_cols_limit, reduced):
    """In-place Gaussian elimination; returns list of pivot columns.

    Pivots are searched in the first ``pivot_cols_limit`` columns only
    (row operations still span the full width, so the tail may carry an
    augmented block).  ``reduced=True`` also clears above the pivots and
    normalises pivot rows, yielding RREF on the pivot block.  Rows from r
    down are zero left of the pivot column c, so each step touches only
    the target rows in columns c onward.
    """
    ops = ctx.vec_ops()
    m = work.shape[0]
    pivots = []
    r = 0
    for c in range(pivot_cols_limit):
        if r == m:
            break
        nz = np.flatnonzero(work[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            work[[r, pr], c:] = work[[pr, r], c:]
        row = work[r, c:]
        row[:] = ops.mul(row, ctx.inv(int(row[0])))
        targets = np.flatnonzero(work[r + 1 :, c]) + (r + 1)
        if reduced:
            targets = np.concatenate([np.flatnonzero(work[:r, c]), targets])
        if targets.size:
            work[targets, c:] = ops.addmul(work[targets, c:], ops.neg(work[targets, c]), row)
        pivots.append(c)
        r += 1
    return pivots


def rank(matrix: GFMatrix) -> int:
    """Rank of the matrix over its field."""
    work = matrix.data.copy()
    return len(_forward_eliminate(matrix.ctx, work, matrix.cols, reduced=False))


def rref(matrix: GFMatrix) -> GFMatrix:
    """Reduced row-echelon form."""
    work = matrix.data.copy()
    _forward_eliminate(matrix.ctx, work, matrix.cols, reduced=True)
    return GFMatrix(matrix.ctx, work)


def solve(matrix: GFMatrix, b):
    """Any solution x of M x = b, or None if the system is inconsistent."""
    b = np.asarray(b, dtype=np.int64)
    if b.shape != (matrix.rows,):
        raise DimensionMismatchError(
            f"right-hand side has length {b.shape}, expected {matrix.rows}"
        )
    work = np.concatenate([matrix.data, b[:, None]], axis=1)
    pivots = _forward_eliminate(matrix.ctx, work, matrix.cols, reduced=True)
    r = len(pivots)
    # inconsistent iff a zero row of M-part has nonzero rhs
    if np.any(work[r:, -1]):
        return None
    x = [0] * matrix.cols
    for i, c in enumerate(pivots):
        x[c] = int(work[i, -1])
    return x


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

    def vectors(self):
        return [[int(x) for x in row] for row in self.basis]

    def weight_two_scalars(self, c1, c2):
        """The b with unit_c1 + b*unit_c2 annihilated by every basis vector,
        0 where there is none, over broadcast arrays of row indices (the
        answer for c1 == c2 is meaningless).

        Writing u, v for the basis columns at c1 and c2, such a b exists
        iff u and v are both zero (b = 1) or both nonzero and proportional,
        u = lam v, and then b = -lam.  Columns are compared in canonical
        form, divided by their first nonzero entry (the lead), through
        one class id per distinct canonical column, so lam is the quotient
        of the two leads.
        """
        ops = self.ctx.vec_ops()
        # one zero vector more changes no answer and leaves no column empty
        cols = np.concatenate([self.basis, np.zeros((1, self.basis.shape[1]), np.int64)]).T
        lead = cols[np.arange(len(cols)), (cols != 0).argmax(1)]
        zero = lead == 0
        lead[zero] = 1
        canon = ops.div(cols, lead[:, None])
        cls = np.unique(canon, axis=0, return_inverse=True)[1].reshape(-1)
        b = np.where(zero[c1], 1, ops.neg(ops.div(lead[c1], lead[c2])))
        return np.where(cls[c1] == cls[c2], b, 0)


def left_null_basis(matrix: GFMatrix) -> LeftNullBasis:
    """Left null basis via elimination of [M | I].

    Rows whose M-part reduces to zero carry the combining coefficients in
    the identity block, so the surviving right-hand rows form the basis.

    The rows are eliminated in reverse order, with the identity block
    reversed alongside, so the basis comes out in M's own row coordinates.
    M_n's rows are the (k-1)-subsets in colex order, so reversed, each
    (k-2)-subset A pivots first on its rows through the last points, whose
    other nonzeros lie in the blocks of subsets that also hold those
    points; colex puts those blocks last, so fill stays in a trailing
    block (q=81 M_1: 4.6 M cell updates instead of 27.4 M top-down).
    """
    if matrix._null is not None:
        return matrix._null
    m = matrix.rows
    work = np.concatenate([matrix.data[::-1], np.eye(m, dtype=np.int64)[::-1]], axis=1)
    pivots = _forward_eliminate(matrix.ctx, work, matrix.cols, reduced=False)
    r = len(pivots)
    basis = work[r:, matrix.cols :].copy()
    matrix._null = LeftNullBasis(matrix.ctx, basis)
    return matrix._null


def weight_one_in_colspace(matrix: GFMatrix):
    """Smallest row index C with unit_C in the column space, or None.

    unit_C lies in the column space iff every left-null vector vanishes at
    C, the column space being exactly the annihilator of the left null
    space.
    """
    null = left_null_basis(matrix)
    if null.nullity == 0:
        return 0 if matrix.rows else None
    zero_cols = ~np.any(null.basis, axis=0)
    idx = np.nonzero(zero_cols)[0]
    return int(idx[0]) if idx.size else None


def weight_two_in_colspace(matrix: GFMatrix, c1: int, c2: int):
    """Scalars (a, b), both nonzero, with a*unit_c1 + b*unit_c2 in the
    column space, or None: the column space is exactly the annihilator of
    the left null space (``LeftNullBasis.weight_two_scalars``)."""
    if c1 == c2:
        raise DimensionMismatchError("row indices must differ")
    b = int(left_null_basis(matrix).weight_two_scalars(c1, c2))
    return (1, b) if b else None
