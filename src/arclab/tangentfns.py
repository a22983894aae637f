"""Tangent functions of a full arc and the signed alpha coefficients.

For a (k-2)-subset A of an arc S with t = q+k-1-|S|, the tangent function
f_A is the product of the t linear forms whose kernels meet S exactly in
A.  Each form is canonically scaled (first nonzero coefficient 1), which
fixes f_A; the identities of the paper are invariant under rescaling
any single f_A, so the choice is free.

The alpha coefficients multiply the sum-zero identity into a form whose
terms depend only on (k-1)-subsets.  All sign exponents reduce mod 2 and
follow the fixed arc order: F is the set of the first k-2 positions, and
a subset's members are always taken in increasing position order.
"""

from __future__ import annotations

import numpy as np

from .arcgeom import (
    ArcConfig,
    InvariantError,
    _cosecants,
    _det_products,
    _form_values,
    _pencil_basis,
)

__all__ = [
    "TangentFn",
    "tangent_fn",
    "arc_degree",
    "AlphaTable",
]


def arc_degree(arc: ArcConfig) -> int:
    """t = q + k - 1 - |S|: the number of co-secants through each A."""
    return arc.ctx.q + arc.k - 1 - arc.size


class TangentFn:
    """f_A as an evaluated product of its co-secant forms, with the pencil
    basis b1, b2 they come from: the forms vanishing on A, with
    det(u, x, A) = (b2.x)(b1.u) - (b1.x)(b2.u) (``_pencil_basis``).  It
    keeps the field and the arc's points, not the arc that caches it."""

    def __init__(self, ctx, points, A, forms, b1, b2):
        self.ctx = ctx
        self.points = points
        self.A = tuple(A)
        self.forms = tuple(forms)
        self.t = len(forms)
        self.b1, self.b2 = b1, b2

    def __call__(self, v) -> int:
        return self.ctx.prod(_form_values(self.ctx, self.forms, [v])[:, 0].tolist())

    def at(self, i) -> int:
        """Evaluate at arc point i (nonzero whenever i is outside A)."""
        return self(self.points[i])


def tangent_fn(arc: ArcConfig, A) -> TangentFn:
    """Tangent function of the (k-2)-subset A, cached on the arc."""
    A = tuple(sorted(A))
    cache = getattr(arc, "_tangent_cache", None)
    if cache is None:
        cache = {}
        arc._tangent_cache = cache
    fn = cache.get(A)
    if fn is None:
        (b1,), (b2,) = _pencil_basis(arc.ctx, arc.points, [A])
        forms = _cosecants(arc, A, b1, b2)
        if len(forms) != arc_degree(arc):
            raise InvariantError(f"{len(forms)} co-secants through {A}, not t = {arc_degree(arc)}")
        fn = TangentFn(arc.ctx, arc.points, A, forms, b1, b2)
        cache[A] = fn
    return fn


def _lagrange_sum(ctx, beta, weights, w1, w2):
    """sum_e weights_e prod_{u != e} D(u, w) at every point w = (w1, w2) of
    two arrays, u and e running over the points whose pencil coordinates
    are the columns of beta, D(u, w) = beta1(u) w2 - beta2(u) w1.  Leading
    axes of beta (2 x m), weights (m) and w1, w2 broadcast.

    At w = beta(e) every term but e's has the factor D(e, e) = 0, so unit
    weights there give the products prod_{u != e} D(u, e) themselves.

    The sum is a binary form of degree m-1: its coefficients c_j of
    w1^j w2^(m-1-j) are built once, then Horner evaluates it at any w."""
    ops = ctx.vec_ops()
    m = beta.shape[-1]
    b1, nb2 = beta[..., 0, :, None, None], ops.neg(beta[..., 1, :, None, None])
    # step i takes T[..., 0, :] = sum_{e < i} weights_e prod_{u < i, u != e} D(u, .) and
    # T[..., 1, :] = prod_{u < i} D(u, .) on to i+1: both take D(i, .), the sum weights_i T[..., 1, :]
    T = np.zeros(np.broadcast_shapes(beta.shape[:-2], weights.shape[:-1]) + (2, m + 1), dtype=np.int64)
    T[..., 1, 0] = 1
    for i in range(m):
        # (sum_j p_j w1^j w2^(d-j)) (b1 w2 - b2 w1) has c_j = b1 p_j - b2 p_(j-1)
        new = ops.mul(b1[..., i, :, :], T[..., : i + 2])
        new[..., 1:] = ops.add(new[..., 1:], ops.mul(nb2[..., i, :, :], T[..., : i + 1]))
        new[..., 0, : i + 1] = ops.add(new[..., 0, : i + 1], ops.mul(weights[..., i, None], T[..., 1, : i + 1]))
        T[..., : i + 2] = new
    c = T[..., 0, :, None]
    acc = np.broadcast_to(c[..., m - 1, :], np.broadcast_shapes(c.shape[:-2] + (1,), w1.shape, w2.shape)).copy()
    power = np.ones_like(w2)
    for j in range(m - 2, -1, -1):
        power = ops.mul(power, w2)
        acc = ops.add(ops.mul(acc, w1), ops.mul(c[..., j, :], power))
    return acc


class AlphaTable:
    """Signed alpha coefficients of an arc, relative to F = first k-2 points.

    alpha_F = 1, and every other value follows from the recursion
    alpha_{A+e} = (-1)^{d(t+1)} alpha_A f_A(e), d = #{a in A : a > e},
    t the arc's own co-secant count.  Values are computed lazily and
    cached.
    """

    def __init__(self, arc: ArcConfig):
        self.arc = arc
        self.t = arc_degree(arc)
        self.F = tuple(range(arc.k - 2))
        self._cache = {self.F: 1}

    def _step(self, A, e) -> int:
        """(-1)^{d(t+1)} f_A(e): the factor taking alpha_A to alpha_{A+e}."""
        f = tangent_fn(self.arc, A).at(e)
        d = sum(1 for a in A if a > e)
        return self.arc.ctx.neg(f) if d * (self.t + 1) % 2 else f

    def alpha(self, B) -> int:
        """alpha_A for |B| = k-2, alpha_C for |B| = k-1.

        C comes from C minus e, its largest point outside F.  A (k-2)-subset
        B != F comes from B+z, z the least point of F missing from B, and
        B+z minus its largest point outside F is one swap closer to F."""
        B = tuple(sorted(B))
        val = self._cache.get(B)
        if val is not None:
            return val
        ctx, k = self.arc.ctx, self.arc.k
        if len(B) == k - 1:
            e = max(i for i in B if i not in self.F)
            A = tuple(i for i in B if i != e)
            val = ctx.mul(self.alpha(A), self._step(A, e))
        elif len(B) == k - 2:
            z = min(i for i in self.F if i not in B)
            val = ctx.div(self.alpha(tuple(sorted(B + (z,)))), self._step(B, z))
        else:
            raise ValueError("alpha is defined for (k-2)- and (k-1)-subsets")
        self._cache[B] = val
        return val


def _alpha_terms(table: AlphaTable, Cs, E, m: int = 1) -> list:
    """alpha_C^m prod_{u in E-C} det(u, C)^{-1} for every (k-1)-subset C
    of Cs, all given as arc positions: the terms of the-eqn, the
    coordinates of v_G and the coefficients of the dual surface."""
    ctx = table.arc.ctx
    P = _det_products(table.arc, Cs, E).tolist()
    return [ctx.div(ctx.pow(table.alpha(C), m), p) for C, p in zip(Cs, P)]
