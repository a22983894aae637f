"""Exact arithmetic in GF(p^h) backed by log/antilog tables.

Elements are plain ints in ``0..q-1``.  For a prime field the int is the
residue mod p.  For an extension field it packs the coefficient vector of
the residue polynomial in base p, low degree first, so ``p`` is the class
of the indeterminate x.  0 and 1 are the additive and multiplicative
identities in every field.

Multiplication, inversion and powers go through the discrete-log tables of
a fixed primitive element g.  Addition in a prime field is ``(a + b) % p``.
In an extension field it goes through Zech logarithms (Huber, IEEE Trans.
Inf. Theory 1990): ``zech[i] = log(1 + g^i)``, so for nonzero a and b

    log(a + b) = log(a) + zech[log(b) - log(a)]

and ``-a = g^((q-1)/2) a`` (``-a = a`` when p = 2).  Every table has O(q)
entries.  The primitive element is the class of x modulo the defining
polynomial, which must be primitive; ``FieldCtx`` checks that by one rule
proved there.  The default modulus is a shipped Conway polynomial, or
x - g for the smallest primitive root g mod p when h = 1.
"""

from __future__ import annotations

from functools import reduce

__all__ = [
    "FieldCtx",
    "FieldError",
    "NotPrimeError",
    "NonPrimitiveGeneratorError",
    "UnsupportedFieldError",
    "ElementSyntaxError",
    "ExponentOutOfRangeError",
    "conway_polynomial",
]

TABLE_CAP = 1 << 20  # largest supported field order


class FieldError(ValueError):
    """Base class for field construction and parsing errors."""


class NotPrimeError(FieldError):
    pass


class NonPrimitiveGeneratorError(FieldError):
    pass


class UnsupportedFieldError(FieldError):
    pass


class ElementSyntaxError(FieldError):
    pass


class ExponentOutOfRangeError(FieldError):
    pass


# Conway polynomials C_{p,h}, coefficients high degree -> low.  Standard
# table values (lexicographically least primitive polynomials compatible
# with all subfields); shipped for p <= 13, h <= 4 so that GF(4), GF(8),
# GF(9), GF(81), ... are reproducible across systems.
_CONWAY = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (3, 2): (1, 2, 2),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 2, 0, 0, 2),
    (5, 2): (1, 4, 2),
    (5, 3): (1, 0, 3, 3),
    (5, 4): (1, 0, 4, 4, 2),
    (7, 2): (1, 6, 3),
    (7, 3): (1, 6, 0, 4),
    (7, 4): (1, 0, 5, 4, 3),
    (11, 2): (1, 7, 2),
    (11, 3): (1, 0, 2, 9),
    (11, 4): (1, 0, 8, 10, 2),
    (13, 2): (1, 12, 2),
    (13, 3): (1, 0, 2, 11),
    (13, 4): (1, 0, 3, 12, 2),
}


def _digits(text: str) -> bool:
    """Whether text is a plain decimal numeral: int() also takes every
    other Unicode decimal digit, signs and underscores."""
    return text.isascii() and text.isdecimal()


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _smallest_primitive_root(p: int) -> int:
    phi = p - 1
    fac = set()
    m, d = phi, 2
    while d * d <= m:
        while m % d == 0:
            fac.add(d)
            m //= d
        d += 1
    if m > 1:
        fac.add(m)
    for g in range(2, p):
        if all(pow(g, phi // f, p) != 1 for f in fac):
            return g
    raise NonPrimitiveGeneratorError(f"no primitive root mod {p}")


def conway_polynomial(p: int, h: int):
    """Shipped Conway polynomial for (p, h), coefficients high -> low."""
    if h == 1:
        g = _smallest_primitive_root(p)
        return (1, (-g) % p)
    try:
        return _CONWAY[(p, h)]
    except KeyError:
        raise UnsupportedFieldError(
            f"no built-in modulus for GF({p}^{h}); supply one explicitly"
        ) from None


def _field_order(p: int, h: int) -> int:
    """q = p^h, or the error FieldCtx(p, h) raises for the pair; builds no
    table."""
    # before trial division by up to sqrt(p) and before forming p**h
    if p > TABLE_CAP or h >= TABLE_CAP.bit_length():
        raise UnsupportedFieldError(f"field order p^h exceeds table cap {TABLE_CAP}")
    if not _is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if h < 1:
        raise FieldError(f"extension degree must be >= 1, got {h}")
    q = p ** h
    if q < 3:
        raise UnsupportedFieldError("field order must be at least 3")
    if q > TABLE_CAP:
        raise UnsupportedFieldError(f"field order {p}^{h} exceeds table cap {TABLE_CAP}")
    return q


class FieldCtx:
    """Immutable context for GF(p^h): tables, primitive element, modulus."""

    def __init__(self, p: int, h: int = 1, modulus=None):
        q = _field_order(p, h)
        self.p = p
        self.h = h
        self.q = q

        if modulus is None:
            modulus = conway_polynomial(p, h)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != h + 1:
            raise FieldError(f"modulus must have degree {h} ({h + 1} coefficients)")
        if modulus[0] != 1:
            raise FieldError("modulus must be monic")
        self.modulus = modulus

        # One rule accepts a modulus f: f(0) != 0, and none of x^1 ... x^(q-2)
        # is 1 in R = GF(p)[x]/(f); the loops below test the second part while
        # they fill exp.  It suffices: f(0) != 0 makes x a unit, and then
        # x^0 ... x^(q-2) are q-1 distinct units, since x^i = x^j with i < j
        # would give x^(j-i) = 1.  So every nonzero element of R is a unit, R
        # is a field, f is irreducible and x has order q-1, i.e. x is
        # primitive.  A primitive modulus passes both tests.
        if modulus[-1] == 0:
            raise NonPrimitiveGeneratorError("modulus has constant term 0, so x is not a unit")
        if h == 1:
            g = (-modulus[1]) % p
            exp = [1]
            x = 1
            for _ in range(q - 2):
                x = x * g % p
                if x == 1:
                    raise NonPrimitiveGeneratorError(
                        f"{g} is not a primitive root mod {p}"
                    )
                exp.append(x)
        else:
            low = list(reversed(modulus))
            # antilog by repeated multiplication with x, digits low->high;
            # 1 + g^i differs from g^i only in the constant term cur[0]
            exp = [1]
            one_plus = [2 % p]
            cur = [1] + [0] * (h - 1)
            for _ in range(q - 2):
                cur = [0] + cur
                lead = cur.pop()
                if lead:
                    cur = [(c - lead * m) % p for c, m in zip(cur, low)]
                val = 0
                for c in reversed(cur):
                    val = val * p + c
                if val == 1:
                    raise NonPrimitiveGeneratorError(
                        "x is not primitive for the given modulus"
                    )
                exp.append(val)
                one_plus.append(val + 1 if cur[0] != p - 1 else val - cur[0])
        self.generator = exp[1]  # the class of x
        n1 = q - 1
        self.exp = tuple(exp)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self.log = tuple(log)
        # exp[i mod (q-1)] for every sum of two logs, then zeros for the
        # Zech sentinel 2(q-1)-1 below
        self._exp_ext = self.exp + self.exp[: n1 - 1] + (0,) * n1
        half = n1 // 2 if p > 2 else 0  # -1 = g^half
        self._neg = (0,) + tuple(self._exp_ext[log[v] + half] for v in range(1, q))
        if h > 1:
            # zech[i] = log(1 + g^i); where 1 + g^i = 0 the entry points
            # add() into the zero tail of _exp_ext
            self._zech = tuple(log[v] if v else 2 * n1 - 1 for v in one_plus)
        self._vec = None  # lazy numpy helper, see vec_ops()

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.h == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        la = self.log[a]
        # a negative difference wraps to its residue mod q-1
        return self._exp_ext[la + self._zech[self.log[b] - la]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp_ext[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("zero has no inverse")
            return 0
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def prod(self, items) -> int:
        return reduce(self.mul, items, 1)

    # ------------------------------------------------------------------
    # text syntax: "0", "t^e", bare integers for prime fields
    # ------------------------------------------------------------------
    def parse(self, text: str) -> int:
        text = text.strip()
        if text == "0":
            return 0
        if text.startswith("t^"):
            body = text[2:]
            if not (_digits(body) or (body[:1] == "-" and _digits(body[1:]))):
                raise ElementSyntaxError(f"bad exponent in {text!r}")
            e = int(body)
            if not 0 <= e <= self.q - 2:
                raise ExponentOutOfRangeError(
                    f"exponent {e} outside 0..{self.q - 2}"
                )
            return self.exp[e]
        if self.h == 1 and _digits(text):
            v = int(text)
            if v >= self.p:
                raise ExponentOutOfRangeError(f"{v} outside 0..{self.p - 1}")
            return v
        raise ElementSyntaxError(f"cannot parse field element {text!r}")

    def format(self, a: int) -> str:
        if not 0 <= a < self.q:
            raise FieldError(f"{a} is not an element code of GF({self.q})")
        if a == 0:
            return "0"
        return f"t^{self.log[a]}"

    # ------------------------------------------------------------------
    def vec_ops(self):
        """Vectorised numpy arithmetic on element-code arrays (cached)."""
        if self._vec is None:
            from . import _vecops

            self._vec = _vecops.VecOps(self)
        return self._vec

    def __repr__(self):
        if self.h == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.h})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.h, self.modulus) == (other.p, other.h, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.h, self.modulus))
