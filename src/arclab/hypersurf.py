"""The dual hypersurface of an arc.

For an arc S with t co-secants through every (k-2)-subset, the surface is
the sum over (k-1)-subsets C of a fixed reference subset E of

    alpha_C^m  prod_{z in E-C} det(z, Y_1, ..., Y_{k-1}) / det(z, C),

with m = 1 and |E| = k+t-1 for even q, m = 2 and |E| = k+2t-1 for odd q.
Expanding det(z, Y_1..Y_{k-1}) along its first row turns each factor into
the pairing z . Z with the dual coordinates Z_i = (-1)^{i-1} det(Y's with
coordinate i deleted), so the surface is evaluated directly on dual
vectors.  It vanishes on the dual of every co-secant hyperplane of S.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arcgeom import (
    ArcConfig,
    ArcInputError,
    InvariantError,
    _form_values,
    _projective_line,
    subset_iter,
)
from .tangentfns import AlphaTable, _alpha_terms, arc_degree, tangent_fn

__all__ = [
    "ArcTooSmallError",
    "ZeroVectorError",
    "DualSurface",
    "build_surface",
    "eval_dual",
    "theorem9_check",
]


class ArcTooSmallError(ArcInputError):
    pass


class ZeroVectorError(ValueError):
    pass


@dataclass(frozen=True)
class DualSurface:
    arc: ArcConfig
    E: tuple
    parity: str          # "even" | "odd"
    t: int
    degree: int          # t for even q, 2t for odd q
    coeffs: dict         # C -> alpha_C^m * prod_{z in E-C} det(z, C)^{-1}
    alphas: AlphaTable = field(compare=False, repr=False)  # the arc's, for theorem9_check


def build_surface(arc: ArcConfig, E=None) -> DualSurface:
    """Assemble the surface data for the arc, E defaulting to the first
    admissible prefix (size k+t-1 for even q, k+2t-1 for odd q)."""
    t = arc_degree(arc)
    parity, m = ("even", 1) if arc.ctx.q % 2 == 0 else ("odd", 2)
    esize = arc.k + m * t - 1
    if arc.size < esize:
        raise ArcTooSmallError(
            f"need |S| >= {esize} to choose E for {parity} q, have {arc.size}"
        )
    E = tuple(range(esize)) if E is None else tuple(sorted(E))
    if len(E) != esize:
        raise ArcTooSmallError(f"E must have size {esize}, got {len(E)}")
    Cs = [tuple(E[i] for i in Cpos) for Cpos in subset_iter(esize, arc.k - 1)]
    alphas = AlphaTable(arc)
    coeffs = dict(zip(Cs, _alpha_terms(alphas, Cs, E, m)))
    return DualSurface(arc, E, parity, t, m * t, coeffs, alphas)


def eval_dual(surface: DualSurface, z) -> int:
    """Evaluate the surface at a dual vector; homogeneous of the stated
    degree, and zero on the dual of every co-secant of the arc."""
    ctx = surface.arc.ctx
    z = tuple(z)
    if not any(z):
        raise ZeroVectorError("the zero vector is not a dual point")
    pairing = dict(zip(surface.E, _form_values(ctx, [z], surface.arc.points_at(surface.E))[0].tolist()))
    acc = 0
    for C, coef in surface.coeffs.items():
        term = ctx.mul(coef, ctx.prod(x for u, x in pairing.items() if u not in C))
        acc = ctx.add(acc, term)
    return acc


def theorem9_check(surface: DualSurface, A) -> bool:
    """Whether the surface restricted to (X, A) equals alpha_A f_A(X)
    (even q) or its square (odd q), as polynomials.

    Both sides are homogeneous of the surface degree in the two
    coordinates transverse to span(A), so agreement at degree+1 pairwise
    independent sample directions proves the identity; A need not be a
    subset of E.  The samples are x = w1 y1 + w2 y2 for points w of
    PG(1,q), y1, y2 the first two arc points outside A, whose beta are
    independent; with b1, b2 the pencil basis of f_A, the dual of
    span(x, A) is z = beta2(x) b1 - beta1(x) b2, as z.u = det(u, x, A)."""
    arc = surface.arc
    ctx = arc.ctx
    ops = ctx.vec_ops()
    A = tuple(sorted(A))
    count = surface.degree + 1
    if count > ctx.q + 1:
        raise InvariantError("pencil too small for the requested sample count")
    alpha = surface.alphas.alpha(A)
    fA = tangent_fn(arc, A)
    y1, y2 = np.array(arc.points_at([i for i in range(arc.size) if i not in A][:2]), dtype=np.int64)
    w1, w2 = np.roll(_projective_line(ctx), 1, axis=1)[:, :count]
    xs = ops.add(ops.mul(w1[:, None], y1), ops.mul(w2[:, None], y2))
    beta1, beta2 = _form_values(ctx, [fA.b1, fA.b2], xs)
    zs = ops.sub(ops.mul(beta2[:, None], fA.b1), ops.mul(beta1[:, None], fA.b2))
    for x, z in zip(xs.tolist(), zs.tolist()):
        lhs = eval_dual(surface, z)
        rhs = ctx.mul(alpha, fA(x))
        if surface.parity == "odd":
            rhs = ctx.mul(rhs, rhs)
        if lhs != rhs:
            return False
    return True
