"""Frobenius oracle: the map sigma: x -> x^p on every coordinate is a field
automorphism, so it maps every exact answer about an arc G to the same
answer about sigma(G).  Every elimination here chooses its pivots by
zero / nonzero tests, which sigma keeps, so the pencils, beta, star
tables D, M_n and its left null basis of sigma(G) are the sigma-images
of G's bit for bit, and Property W fails for the same subsets.  Over
GF(81) and GF(8) this checks the pencil elimination at a scale where
the scalar references are slow.
"""

import numpy as np
import pytest

from arclab.arcgeom import ArcConfig
from arclab.certifier import _star_geometry, build_Mn, property_w
from arclab.exactmat import left_null_basis


def frobenius(ctx, j):
    """sigma^j as a table over the element codes: x -> x^(p^j)."""
    return np.array([ctx.pow(x, ctx.p**j) for x in range(ctx.q)], dtype=np.int64)


@pytest.mark.parametrize("name,powers", [("arc_q81", (1, 2, 3)), ("hyperconic_f8", (1, 2))])
def test_frobenius_images(name, powers, request):
    arc = request.getfixturevalue(name)
    ctx = arc.ctx
    _, pencils, beta, D = _star_geometry(arc)
    Ms = [build_Mn(arc, n) for n in range(4)]
    nulls = [left_null_basis(M.matrix).basis for M in Ms]
    missing = [property_w(M).missing for M in Ms]
    for j in powers:
        sigma = frobenius(ctx, j)
        assert len(set(sigma.tolist())) == ctx.q and sigma[ctx.generator] != ctx.generator
        image = ArcConfig(ctx, arc.k, sigma[np.array(arc.points)].tolist())
        _, pencils_j, beta_j, D_j = _star_geometry(image)
        assert np.array_equal(pencils_j, sigma[pencils])
        assert np.array_equal(beta_j, sigma[beta])
        assert np.array_equal(D_j, sigma[D])
        for n in range(4):
            M = build_Mn(image, n)
            assert np.array_equal(M.matrix.data, sigma[Ms[n].matrix.data])
            assert np.array_equal(left_null_basis(M.matrix).basis, sigma[nulls[n]])
            assert property_w(M).missing == missing[n]
