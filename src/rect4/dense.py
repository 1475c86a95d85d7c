"""Dense univariate polynomial arithmetic over any field descriptor.

A dense polynomial is a tuple of raw coefficient representations of a field,
low degree first, with no trailing zeros; ``()`` is the zero polynomial.
Every function takes the field descriptor first and touches coefficients only
through its ``raw_*`` interface (see :class:`rect4.fields.Field`), so one
implementation serves polynomials over Q, F_p, F_p(s) and their algebraic
extensions: the F_p(s) field itself, the F_p factoriser and its Hensel
lifting, and polynomial gcds.  The residue fields K[X]/(p) do not reduce or
invert through it: ``ExtensionField`` folds products through a table of
powers of its generator and inverts by a linear solve.  Inputs may be lists or
tuples; results are tuples.

This module imports nothing from ``rect4``, so ``fields`` can build on it.
"""

from __future__ import annotations


def trim(field, coeffs):
    coeffs = list(coeffs)
    is_zero = field.raw_is_zero
    while coeffs and is_zero(coeffs[-1]):
        coeffs.pop()
    return tuple(coeffs)


def add(field, a, b):
    if len(a) < len(b):
        a, b = b, a
    radd = field.raw_add
    return trim(field, [radd(x, y) for x, y in zip(a, b)] + list(a[len(b):]))


def neg(field, a):
    rneg = field.raw_neg
    return tuple(rneg(x) for x in a)


def sub(field, a, b):
    return add(field, a, neg(field, b))


def mul(field, a, b):
    if not a or not b:
        return ()
    radd, rmul, is_zero = field.raw_add, field.raw_mul, field.raw_is_zero
    out = [field.raw_zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if is_zero(x):
            continue
        for j, y in enumerate(b, i):
            out[j] = radd(out[j], rmul(x, y))
    return trim(field, out)


def scale(field, a, c):
    if field.raw_is_zero(c):
        return ()
    rmul = field.raw_mul
    return trim(field, [rmul(x, c) for x in a])


def monic(field, a):
    """``a`` divided by its leading coefficient; () stays ()."""
    if not a:
        return ()
    return scale(field, a, field.raw_inv(a[-1]))


def divmod(field, a, b):
    """Euclidean division (q, r); the divisor's leading coefficient must be
    invertible."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rsub, rmul, is_zero = field.raw_sub, field.raw_mul, field.raw_is_zero
    inv_lc = field.raw_inv(b[-1])
    rem = list(a)
    deg_b = len(b) - 1
    quo = [field.raw_zero()] * max(0, len(a) - deg_b)
    while rem and len(rem) - 1 >= deg_b:
        shift = len(rem) - 1 - deg_b
        c = rmul(rem[-1], inv_lc)
        quo[shift] = c
        for i, y in enumerate(b, shift):
            rem[i] = rsub(rem[i], rmul(c, y))
        while rem and is_zero(rem[-1]):
            rem.pop()
    return trim(field, quo), trim(field, rem)


def gcd(field, a, b):
    """Monic gcd by the Euclidean algorithm; () when both are zero."""
    while b:
        a, b = b, divmod(field, a, b)[1]
    return monic(field, a)


def xgcd(field, a, b):
    """Extended gcd: (g, u, v) with u*a + v*b = g, g monic or zero."""
    r0, r1 = a, b
    s0, s1 = (field.raw_one(),), ()
    t0, t1 = (), (field.raw_one(),)
    while r1:
        q, r = divmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(field, s0, mul(field, q, s1))
        t0, t1 = t1, sub(field, t0, mul(field, q, t1))
    if not r0:
        return (), s0, t0
    inv_lc = field.raw_inv(r0[-1])
    return (
        scale(field, r0, inv_lc),
        scale(field, s0, inv_lc),
        scale(field, t0, inv_lc),
    )


def lcm(field, a, b):
    """Monic least common multiple; () when either is zero."""
    if not a or not b:
        return ()
    return monic(field, mul(field, a, divmod(field, b, gcd(field, a, b))[0]))


def deriv(field, a):
    rmul, from_int = field.raw_mul, field.raw_from_int
    return trim(field, [rmul(from_int(i), a[i]) for i in range(1, len(a))])


def powmod(field, a, e, m):
    """a^e modulo m, by repeated squaring."""
    result = (field.raw_one(),)
    a = divmod(field, a, m)[1]
    while e:
        if e & 1:
            result = divmod(field, mul(field, result, a), m)[1]
        e >>= 1
        if e:
            a = divmod(field, mul(field, a, a), m)[1]
    return result


def eval(field, a, x):
    """a(x) by Horner's rule."""
    radd, rmul = field.raw_add, field.raw_mul
    acc = field.raw_zero()
    for c in reversed(a):
        acc = radd(rmul(acc, x), c)
    return acc
