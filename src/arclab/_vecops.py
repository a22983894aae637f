"""Vectorised numpy arithmetic on arrays of field element codes.

Logs of nonzero elements lie in ``0..q-2``; the log of zero is the
sentinel ``Z = 3(q-1)-2``.  ``exp_ext`` repeats the antilog table over
every sum of two nonzero logs and is zero beyond, where every sum that
involves ``Z`` lands, so a product is one gather.

Addition in a prime field is ``(a + b) % p``.  In an extension field it
uses the Zech logarithms of ``FieldCtx``: for nonzero a and b,
``a + b = g^(la + zech[lb - la])``.  ``zech_pad`` holds that table for
every difference between a log and a sum of two logs (the elimination
kernel adds a multiple of a row, whose log is such a sum).  Its index is
``ulog[b] - log[a]``, where ``ulog`` shifts the logs by ``Z`` and gives
zero a sentinel of its own, and its padding makes one gather right for
zero operands too: it returns ``lb - Z`` where a is zero, so the sum is
b, and 0 where b is zero, so the sum is a (zero when both are).  No mask
or branch is needed, and every table has O(q) entries.
"""

from __future__ import annotations

import numpy as np


class VecOps:
    """Lookup tables of one field.  Only p, h and q of its FieldCtx are
    kept: FieldCtx caches this object, and a reference back would make a
    cycle that reference counting cannot free."""

    def __init__(self, ctx):
        p, h, q = ctx.p, ctx.h, ctx.q
        self.p, self.h, self.q = p, h, q
        n1 = q - 1
        z = 3 * n1 - 2
        exp = np.array(ctx.exp, dtype=np.int64)
        log = np.full(q, z, dtype=np.int64)
        log[exp] = np.arange(n1)
        self.log = log
        # -log b mod (q-1), so that log a + inv_log[b] is a product's index
        self.inv_log = -log % n1
        ext = np.zeros(2 * z + 1, dtype=np.int64)
        ext[: 2 * n1 - 1] = np.resize(exp, 2 * n1 - 1)
        self.exp_ext = ext
        self.neg_table = np.array(ctx._neg, dtype=np.int64)
        if h > 1:
            # the index ulog[b] - log[a], plus a factor's log in addmul, is
            # 0..2q-4 where a = 0, 2q-3..5q-9 where a and b are nonzero
            # (lb - la in -(q-2)..2(q-2)) and beyond where b = 0
            ulog = log + z
            ulog[0] = 8 * n1 - 5
            self.ulog = ulog
            pad = np.zeros(9 * n1 - 5, dtype=np.int64)
            pad[: 2 * n1 - 1] = np.arange(2 * n1 - 1) - z
            zech = np.array(ctx._zech, dtype=np.int64)
            pad[2 * n1 - 1 : 5 * n1 - 3] = zech[np.arange(-(n1 - 1), 2 * n1 - 1) % n1]
            self.zech_pad = pad

    def mul(self, a, b):
        """Element-wise (broadcasting) product of element-code arrays."""
        return self.exp_ext[self.log[a] + self.log[b]]

    def prod(self, a):
        """Product along the last axis of an array of nonzero codes."""
        return self.exp_ext[self.log[a].sum(-1) % (self.q - 1)]

    def add(self, a, b):
        if self.h == 1:
            return (a + b) % self.p
        la = self.log[a]
        return self.exp_ext[la + self.zech_pad[self.ulog[b] - la]]

    def matmul(self, a, b):
        """The matrix product a @ b of stacks of matrices (numpy's
        broadcasting rules).  A prime field takes the integer product: an
        entry summing n products stays below n p^2, far from overflow.  An
        extension field adds the products of one inner index at a time, so
        no (..., m, k, n) array of all of them is held; the logs of both
        factors are looked up once."""
        if self.h == 1:
            return a @ b % self.p
        la, lb = self.log[a], self.log[b]
        acc = self.exp_ext[la[..., :, :1] + lb[..., :1, :]]
        for j in range(1, a.shape[-1]):
            acc = self.add(acc, self.exp_ext[la[..., :, j : j + 1] + lb[..., j : j + 1, :]])
        return acc

    def addmul(self, block, f, row):
        """``block + f[..., None] * row`` for a block of rows (2-D, or a
        stack of them), nonzero factors f, one per block row, and one row,
        or one row per block row.  The block serves as scratch space."""
        if self.h == 1:
            block += f[..., None] * row
            block %= self.p
            return block
        la = self.log[block]
        # log(f_i * row_j) is log f_i + log row_j: zech_pad covers the sum
        e = self.log[f][..., None] + self.ulog[row]
        e -= la
        # every index is in range; "wrap" only avoids the buffered copy that
        # out= costs under the default mode, and the method skips np.take's wrapper
        self.zech_pad.take(e, out=block, mode="wrap")
        block += la
        return self.exp_ext.take(block, out=e, mode="wrap")

    def neg(self, a):
        return self.neg_table[a]

    def div(self, a, b):
        """Element-wise a / b; the entries where b is zero are meaningless."""
        return self.exp_ext[self.log[a] + self.inv_log[b]]

    def sub(self, a, b):
        return self.add(a, self.neg_table[b])
