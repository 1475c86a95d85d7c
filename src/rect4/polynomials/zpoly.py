"""Z[X]: dense integer polynomials (low degree first, plain ints).

Z[X] has no arithmetic of its own: it runs on the :mod:`rect4.dense` kernels
through ``ZZ``, a descriptor of the integers whose only invertible elements
are 1 and -1, so ``dense.divmod`` divides exactly by a polynomial with a unit
leading coefficient and refuses any other.  Written here are only the steps
that divide by other leading coefficients: the primitive part, a division
that stops at the first leading coefficient that does not divide (exact
quotients, pseudo-remainders), and on top of them the primitive remainder
sequence of the gcd.  It serves the rational factoriser of
:mod:`rect4.polynomials.factor` and the gcds over Q of
:func:`rect4.polynomials.multipoly.univariate_gcd`, so no coefficient of a
gcd over Q leaves Z until the gcd is made monic.

This module imports nothing from ``rect4`` but :mod:`rect4.dense`, so both
``multipoly`` and ``factor`` build on it.
"""

import math
import operator

from .. import dense


class FactorizationError(Exception):
    pass


class _Integers:
    """The integers as a :mod:`rect4.dense` field descriptor.

    The ring operations are the C-level :mod:`operator` functions.  Z is not
    a field: ``raw_inv`` takes only the units 1 and -1 and raises
    ``FactorizationError`` on anything else.
    """

    raw_add = operator.add
    raw_sub = operator.sub
    raw_mul = operator.mul
    raw_neg = operator.neg
    raw_is_zero = operator.not_
    raw_from_int = int

    @staticmethod
    def raw_zero():
        return 0

    @staticmethod
    def raw_one():
        return 1

    @staticmethod
    def raw_inv(a):
        if a == 1 or a == -1:
            return a
        raise FactorizationError(f"internal error: {a} is not a unit of Z")


ZZ = _Integers()


def zmod(a, m):
    """The integer polynomial a with its coefficients reduced into [0, m)."""
    return dense.trim(ZZ, [x % m for x in a])


def zprimitive(a):
    """a divided by its content, with a positive leading coefficient."""
    c = math.gcd(*a) or 1
    if a and a[-1] < 0:
        c = -c
    return tuple(x // c for x in a)


def zdivmod(a, b):
    """(q, r) with a = q*b + r and deg r < deg b, for integer polynomials, or
    None at the first leading coefficient that b's does not divide."""
    rem, lb, deg_b = list(a), b[-1], len(b) - 1
    quo = [0] * max(0, len(a) - deg_b)
    for shift in reversed(range(len(quo))):
        c, r = divmod(rem[shift + deg_b], lb)
        if r:
            return None
        quo[shift] = c
        for i, y in enumerate(b, shift):
            rem[i] -= c * y
    return tuple(quo), dense.trim(ZZ, rem)


def zgcd_poly(a, b):
    """Primitive gcd of integer polynomials by the primitive PRS; (1,) when
    both are zero."""
    a, b = zprimitive(a), zprimitive(b)
    if not a:
        return b or (1,)
    while len(b) > 1:
        # the pseudo-remainder: lc(b)^(deg a - deg b + 1) * a divides by b
        # without fractions
        a_scaled = dense.scale(ZZ, a, b[-1] ** max(0, len(a) - len(b) + 1))
        a, b = b, zprimitive(zdivmod(a_scaled, b)[1])
    # a nonzero constant remainder makes a and b coprime
    return (1,) if b else a


def zcleared(coeffs):
    """The dense polynomial of raw rationals times the lcm of its
    denominators, as an integer polynomial."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs]


def rational_gcd(field, a, b):
    """Monic gcd of dense polynomials over the rationals ``field``, not both
    zero, by the primitive PRS of their integer multiples."""
    return dense.monic(field, zgcd_poly(zcleared(a), zcleared(b)))
