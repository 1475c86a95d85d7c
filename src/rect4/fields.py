"""Exact arithmetic in the supported coefficient-field tower.

Supported fields:

* ``RationalField``            -- the rationals; an element is an ``int`` when
  it is integral and a reduced ``fractions.Fraction`` otherwise.  The
  arithmetic runs on the int pair (numerator, denominator) with Knuth's
  gcd-saving rules and sets a new Fraction's two slots directly, as CPython
  3.12's ``Fraction._from_coprime_ints`` does, instead of normalizing again
* ``PrimeField(p)``            -- integers mod a prime, elements are ints in ``[0, p)``
* ``RationalFunctionField(p)`` -- one-parameter rational functions over a prime
  field; elements are coprime (numerator, denominator) pairs of dense
  coefficient tuples with a monic denominator
* ``ExtensionField(base, m)``  -- a simple algebraic extension of one of the
  above by a monic irreducible polynomial ``m``; elements are coefficient
  tuples of length ``deg m``, multiplied through a table of generator powers
  and inverted by Gaussian elimination (see the class)

Every rep is canonical: equal elements have equal reps, so reps are compared
with ``==`` and a zero test may compare with ``raw_zero()``.

Only one extension level above a base field is supported.  When a computation
needs a root that lives outside the current extension, a single composite
extension is rebuilt via a brute-force primitive-element search
(:func:`composite_extension`, on the :mod:`rect4.dense` kernels).  A change of
coefficient field is an :class:`Embedding`; it maps raw reps
(:meth:`Embedding.raw`), so polynomials change field without boxing a
coefficient.

All descriptors and elements are immutable after construction; everything here
is safe to share between threads.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

from . import dense


class FieldError(Exception):
    """Arithmetic or construction error in field operations."""


class FieldMismatch(FieldError):
    """Operands belong to different field descriptors."""


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------


class Field:
    """Base class for field descriptors.

    Subclasses implement arithmetic on raw element representations; users
    interact through :class:`FieldElement` wrappers built with
    :meth:`element`.
    """

    kind = "abstract"

    # -- raw-representation interface -------------------------------------
    def raw_zero(self):
        raise NotImplementedError

    def raw_one(self):
        raise NotImplementedError

    def raw_from_int(self, n):
        raise NotImplementedError

    def raw_add(self, a, b):
        raise NotImplementedError

    def raw_neg(self, a):
        raise NotImplementedError

    def raw_sub(self, a, b):
        return self.raw_add(a, self.raw_neg(b))

    def raw_mul(self, a, b):
        raise NotImplementedError

    def raw_inv(self, a):
        raise NotImplementedError

    def raw_div(self, a, b):
        return self.raw_mul(a, self.raw_inv(b))

    def raw_is_zero(self, a):
        raise NotImplementedError

    def raw_str(self, a):
        raise NotImplementedError

    def raw_pth_root(self, a):
        """A p-th root of ``a`` in this field, or None if there is none."""
        raise NotImplementedError

    # -- public interface ---------------------------------------------------
    def characteristic(self):
        raise NotImplementedError

    def element(self, rep):
        return FieldElement(self, rep)

    def zero(self):
        return self.element(self.raw_zero())

    def one(self):
        return self.element(self.raw_one())

    def from_int(self, n):
        return self.element(self.raw_from_int(n))

    def coerce(self, value):
        """Coerce an int, Fraction or FieldElement of this field."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch(f"element of {value.field} used in {self}")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            num = self.raw_from_int(value.numerator)
            den = self.raw_from_int(value.denominator)
            if self.raw_is_zero(den):
                raise FieldError(f"denominator {value.denominator} vanishes in {self}")
            return self.element(self.raw_div(num, den))
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def pth_root(self, elt):
        elt = self.coerce(elt)
        rep = self.raw_pth_root(elt.rep)
        return None if rep is None else self.element(rep)


class FieldElement:
    """Immutable element of a :class:`Field`, stored in canonical form."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, *args):
        raise AttributeError("FieldElement is immutable")

    def _other(self, other):
        return self.field.coerce(other)

    def __add__(self, other):
        other = self._other(other)
        return FieldElement(self.field, self.field.raw_add(self.rep, other.rep))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field.raw_neg(self.rep))

    def __sub__(self, other):
        other = self._other(other)
        return FieldElement(self.field, self.field.raw_sub(self.rep, other.rep))

    def __rsub__(self, other):
        return self._other(other) - self

    def __mul__(self, other):
        other = self._other(other)
        return FieldElement(self.field, self.field.raw_mul(self.rep, other.rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._other(other)
        return FieldElement(self.field, self.field.raw_div(self.rep, other.rep))

    def __rtruediv__(self, other):
        return self._other(other) / self

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inv(self):
        return FieldElement(self.field, self.field.raw_inv(self.rep))

    def is_zero(self):
        return self.field.raw_is_zero(self.rep)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.rep == other.rep

    def __hash__(self):
        return hash((self.field.kind, self.rep))

    def __str__(self):
        return self.field.raw_str(self.rep)

    def __repr__(self):
        return f"<{self} in {self.field}>"


class RationalField(Field):
    """The field of rational numbers.

    A raw element is an ``int`` when the value is integral and a
    ``fractions.Fraction`` with denominator greater than one otherwise, never
    a ``float`` or a ``bool``; a ``Fraction`` is reduced, with a positive
    denominator.  Sums and products of ints stay in C arithmetic.  Every other
    operation runs on the int pairs (numerator, denominator) with the
    gcd-saving rules of Knuth, *TAOCP* vol. 2, section 4.5.1: a product
    cancels the two cross gcds first, and a sum works over the gcd of the
    denominators.  The pair that comes out is reduced, so the result is its
    numerator when the denominator is one and otherwise a ``Fraction`` built
    by :func:`_fraction` without normalizing again.
    """

    kind = "rationals"

    def characteristic(self):
        return 0

    def raw_zero(self):
        return 0

    def raw_one(self):
        return 1

    def raw_from_int(self, n):
        # a bool becomes 0 or 1; a Fraction or a float raises TypeError
        return operator.index(n)

    def raw_add(self, a, b):
        if type(a) is int:
            if type(b) is int:
                return a + b
            # n/d + a and a + n/d keep the reduced denominator d > 1
            return _fraction(a * b._denominator + b._numerator, b._denominator)
        if type(b) is int:
            return _fraction(a._numerator + b * a._denominator, a._denominator)
        return _sum(a._numerator, a._denominator, b._numerator, b._denominator)

    def raw_neg(self, a):
        return -a if type(a) is int else _fraction(-a._numerator, a._denominator)

    def raw_sub(self, a, b):
        if type(a) is int:
            if type(b) is int:
                return a - b
            return _fraction(a * b._denominator - b._numerator, b._denominator)
        if type(b) is int:
            return _fraction(a._numerator - b * a._denominator, a._denominator)
        return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)

    def raw_mul(self, a, b):
        if type(a) is int:
            if type(b) is int:
                return a * b
            return _scale(a, b._numerator, b._denominator)
        if type(b) is int:
            return _scale(b, a._numerator, a._denominator)
        return _product(a._numerator, a._denominator, b._numerator, b._denominator)

    def raw_inv(self, a):
        if type(a) is int:
            if not a:
                raise FieldError("division by zero")
            n, d = 1, a
        else:
            n, d = a._denominator, a._numerator
        return _rational(n, d) if d > 0 else _rational(-n, -d)

    def raw_div(self, a, b):
        if type(b) is int:
            if not b:
                raise FieldError("division by zero")
            nb, db = b, 1
        else:
            nb, db = b._numerator, b._denominator
        if nb < 0:
            nb, db = -nb, -db
        if type(a) is int:
            return _product(a, 1, db, nb)
        return _product(a._numerator, a._denominator, db, nb)

    def raw_is_zero(self, a):
        # zero is the int 0; a Fraction rep is never zero
        return type(a) is int and not a

    def raw_str(self, a):
        return str(a)

    def raw_pth_root(self, a):
        raise FieldError("p-th roots are a positive-characteristic operation")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(self.kind)

    def __str__(self):
        return "Q"

    __repr__ = __str__


_new = object.__new__


def _fraction(n, d):
    """The ``Fraction`` n/d of coprime ints with d > 1, its two slots set
    without normalizing again, as CPython 3.12's ``Fraction._from_coprime_ints``
    does; both slots exist on every supported Python."""
    q = _new(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _rational(n, d):
    """The raw rational n/d of coprime ints with d > 0."""
    return n if d == 1 else _fraction(n, d)


def _sum(na, da, nb, db):
    """The raw rational na/da + nb/db of reduced pairs with da, db > 1.

    Over g = gcd(da, db), the sum is t/(s*db) with s = da/g and
    t = na*(db/g) + nb*s, and only gcd(t, g) can cancel.
    """
    g = gcd(da, db)
    if g == 1:
        return _fraction(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _fraction(t, s * db)
    return _rational(t // g2, s * (db // g2))


def _scale(k, n, d):
    """The raw rational k * n/d of an int k and a reduced pair with d > 1:
    only gcd(k, d) can cancel."""
    g = gcd(k, d)
    if g == 1:
        return _fraction(k * n, d)
    return _rational(k // g * n, d // g)


def _product(na, da, nb, db):
    """The raw rational (na/da) * (nb/db) of reduced pairs with positive
    denominators: the cross gcds cancel first, and nothing else can."""
    g1 = gcd(na, db)
    if g1 != 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 != 1:
        nb //= g2
        da //= g2
    return _rational(na * nb, da * db)


# Miller-Rabin to the prime bases up to 41 decides primality exactly below
# this bound (Sorenson and Webster, 2015)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n):
    """Whether the integer n is prime, by deterministic Miller-Rabin; raises
    ``FieldError`` for an n at or above the bound where that is proven exact
    and with no factor among the bases."""
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    if n >= _MILLER_RABIN_BOUND:
        raise FieldError(
            f"cannot decide whether {n} is prime: the test is exact only below {_MILLER_RABIN_BOUND}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    """Integers modulo a prime p."""

    kind = "prime-field"

    def __init__(self, p):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p

    def characteristic(self):
        return self.p

    def raw_zero(self):
        return 0

    def raw_one(self):
        return 1 % self.p

    def raw_from_int(self, n):
        return n % self.p

    def raw_add(self, a, b):
        return (a + b) % self.p

    def raw_neg(self, a):
        return (-a) % self.p

    def raw_sub(self, a, b):
        return (a - b) % self.p

    def raw_mul(self, a, b):
        return (a * b) % self.p

    def raw_inv(self, a):
        if a % self.p == 0:
            raise FieldError("division by zero")
        return pow(a, -1, self.p)

    def raw_is_zero(self, a):
        return a % self.p == 0

    def raw_str(self, a):
        return str(a % self.p)

    def raw_pth_root(self, a):
        # Frobenius is the identity on the prime field.
        return a % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __str__(self):
        return f"F{self.p}"

    __repr__ = __str__


class RationalFunctionField(Field):
    """One-parameter rational functions over a prime field.

    Elements are pairs ``(num, den)`` of dense coefficient tuples over F_p
    with ``den`` monic and ``gcd(num, den) = 1``; zero is ``((), (1,))``.
    This rep is unique, so equal elements have equal reps.  Most fractions
    that arithmetic forms have a constant denominator (every polynomial in s
    has ``den == (1,)``); those are reduced without a gcd (see
    :meth:`_normalize`), and equal denominators are added without cross
    products.
    """

    kind = "rational-function-field"

    def __init__(self, p, param="s"):
        self.base = PrimeField(p)
        self.p = p
        self.param = param

    def characteristic(self):
        return self.p

    def _normalize(self, num, den):
        """The rep of ``num / den`` for dense tuples ``num`` and ``den != ()``:
        both divided by their gcd, then by the leading coefficient of ``den``.
        A constant ``den = (c,)`` has gcd 1 with any ``num``, so it skips the
        gcd and returns ``(num / c, (1,))``, the rep the gcd path gives."""
        if not den:
            raise FieldError("zero denominator")
        if not num:
            return ((), (self.base.raw_one(),))
        if len(den) == 1:
            c = den[0]
            if c != 1:
                num = dense.scale(self.base, num, self.base.raw_inv(c))
            return (num, (1,))
        g = dense.gcd(self.base, num, den)
        if len(g) > 1:
            num, _ = dense.divmod(self.base, num, g)
            den, _ = dense.divmod(self.base, den, g)
        inv_lc = self.base.raw_inv(den[-1])
        num = dense.scale(self.base, num, inv_lc)
        den = dense.scale(self.base, den, inv_lc)
        return (num, den)

    def from_polynomial(self, coeffs):
        """Element given by a dense tuple of F_p integer coefficients."""
        num = dense.trim(self.base, [c % self.p for c in coeffs])
        return self.element(self._normalize(num, (1,)))

    def parameter(self):
        return self.from_polynomial((0, 1))

    def raw_zero(self):
        return ((), (1,))

    def raw_one(self):
        return ((1 % self.p,), (1,)) if self.p > 1 else ((), (1,))

    def raw_from_int(self, n):
        return self._normalize(dense.trim(self.base, [n % self.p]), (1,))

    def raw_add(self, a, b):
        (na, da), (nb, db) = a, b
        if da == db:
            return self._normalize(dense.add(self.base, na, nb), da)
        num = dense.add(
            self.base,
            dense.mul(self.base, na, db),
            dense.mul(self.base, nb, da),
        )
        den = dense.mul(self.base, da, db)
        return self._normalize(num, den)

    def raw_neg(self, a):
        num, den = a
        return (dense.neg(self.base, num), den)

    def raw_mul(self, a, b):
        (na, da), (nb, db) = a, b
        return self._normalize(
            dense.mul(self.base, na, nb), dense.mul(self.base, da, db)
        )

    def raw_inv(self, a):
        num, den = a
        if not num:
            raise FieldError("division by zero")
        return self._normalize(den, num)

    def raw_is_zero(self, a):
        return not a[0]

    def _poly_str(self, coeffs):
        if not coeffs:
            return "0"
        parts = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = self.param if i == 1 else f"{self.param}^{i}"
                parts.append(var if c == 1 else f"{c}*{var}")
        return "+".join(parts)

    def raw_str(self, a):
        num, den = a
        if not num:
            return "0"
        ns = self._poly_str(num)
        if den == (1,):
            return ns if len([c for c in num if c]) == 1 else f"({ns})"
        return f"({ns})/({self._poly_str(den)})"

    def _poly_pth_root(self, coeffs):
        # h(s) is a p-th power in F_p[s] iff all exponents are multiples of p;
        # coefficients are fixed by Frobenius.
        p = self.p
        if any(c and (i % p) for i, c in enumerate(coeffs)):
            return None
        return dense.trim(self.base, [coeffs[i * p] if i * p < len(coeffs) else 0
                                 for i in range(len(coeffs) // p + 1)])

    def raw_pth_root(self, a):
        num, den = a
        if not num:
            return a
        rn = self._poly_pth_root(num)
        rd = self._poly_pth_root(den)
        if rn is None or rd is None:
            return None
        return self._normalize(rn, rd)

    def _decompose_by_parameter_power(self, rep):
        """Write the element ``rep`` as ``sum_i c_i(s^p) * s^i`` with
        0 <= i < p.

        Returns the raw reps of the p elements ``c_i`` of this same field
        (with the inner argument still called s).  Used by extension fields
        for semilinear solves.
        """
        num, den = rep
        p = self.p
        if not num:
            return [rep] * p
        # num/den = num*den^(p-1) / den^p ; den^p lies in F_p[s^p].
        den_pm1 = (1 % p,)
        for _ in range(p - 1):
            den_pm1 = dense.mul(self.base, den_pm1, den)
        scaled = dense.mul(self.base, num, den_pm1)
        den_p = dense.mul(self.base, den_pm1, den)  # den^p
        den_p_inner = self._poly_pth_root(den_p)
        if den_p_inner is None:
            raise FieldError("internal error: den^p is not a polynomial in s^p")
        out = []
        for i in range(p):
            ci = dense.trim(self.base, [scaled[j] for j in range(i, len(scaled), p)])
            out.append(self._normalize(ci, den_p_inner))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunctionField)
            and other.p == self.p
            and other.param == self.param
        )

    def __hash__(self):
        return hash((self.kind, self.p, self.param))

    def __str__(self):
        return f"F{self.p}({self.param})"

    __repr__ = __str__


class ExtensionField(Field):
    """Simple algebraic extension base[g]/(minpoly).

    ``minpoly`` is a dense tuple of base raw representations, monic and of
    degree n >= 2; the constructor checks that, the tower depth and the
    generator name.  Irreducibility of the minimal polynomial is the caller's
    burden; use :func:`extend` for a checked construction.

    * **Rep.**  An element is the tuple of its n coefficients over the base,
      low degree first, each the base's own canonical rep.  So the rep is
      unique, equal elements have equal reps, and zero is exactly
      ``raw_zero()``: the zero tests compare with it.
    * **Multiply.**  A schoolbook convolution gives 2n - 1 coefficients.
      Each coefficient of g^k for k = n .. 2n-2 is then folded into the low n
      through a table of g^k mod minpoly (its nonzero entries), built once
      per field (H. Cohen, *A Course in Computational Algebraic Number
      Theory*, ch. 4).
    * **Invert.**  The inverse u of a solves M_a u = e_0, where column j of
      M_a is a * g^j, so a*u = 1.  :func:`_solve_linear_system` solves it by
      Gaussian elimination over the base.  A nonzero a with singular M_a has
      a common factor with the minimal polynomial, which is then reducible.
    """

    kind = "algebraic-extension"

    def __init__(self, base, minpoly, gen="g"):
        if isinstance(base, ExtensionField):
            raise FieldError("extension towers deeper than one level are not supported")
        if isinstance(base, RationalFunctionField) and gen == base.param:
            raise FieldError(
                "extension generator name collides with the function-field parameter"
            )
        if len(minpoly) < 3:
            raise FieldError("extension minimal polynomial must have degree >= 2")
        if minpoly[-1] != base.raw_one():
            raise FieldError("extension minimal polynomial must be monic")
        self.base = base
        self.minpoly = tuple(minpoly)
        self.deg = n = len(minpoly) - 1
        self.gen = gen
        zero = base.raw_zero()
        self._zero = (zero,) * n
        self._gen = (zero, base.raw_one()) + self._zero[2:]
        # g^k mod minpoly for k = n .. 2n-2: g^n = -(minpoly below the top),
        # and each next power is g times the last, with its top folded back
        # through g^n
        power = [base.raw_neg(m) for m in self.minpoly[:-1]]
        powers = [power]
        while len(powers) < n - 1:
            top = power[-1]
            power = [base.raw_add(x, base.raw_mul(top, y))
                     for x, y in zip([zero] + power[:-1], powers[0])]
            powers.append(power)
        self._fold = tuple(
            tuple((i, c) for i, c in enumerate(pw) if c != zero) for pw in powers
        )

    def characteristic(self):
        return self.base.characteristic()

    def _pad(self, rep):
        """The element of the base with raw rep ``rep``."""
        return (rep,) + self._zero[1:]

    def generator(self):
        return self.element(self._gen)

    def from_base(self, elt):
        if isinstance(elt, FieldElement):
            if elt.field != self.base:
                raise FieldMismatch("element does not belong to the base field")
            rep = elt.rep
        else:
            rep = self.base.coerce(elt).rep
        return self.element(self._pad(rep))

    def raw_zero(self):
        return self._zero

    def raw_one(self):
        return self._pad(self.base.raw_one())

    def raw_from_int(self, n):
        return self._pad(self.base.raw_from_int(n))

    def raw_add(self, a, b):
        return tuple(map(self.base.raw_add, a, b))

    def raw_neg(self, a):
        return tuple(map(self.base.raw_neg, a))

    def raw_sub(self, a, b):
        return tuple(map(self.base.raw_sub, a, b))

    def raw_mul(self, a, b):
        base = self.base
        radd, rmul = base.raw_add, base.raw_mul
        n = self.deg
        zero = self._zero[0]
        prod = [zero] * (2 * n - 1)
        for i, x in enumerate(a):
            if x != zero:
                k = i
                for y in b:
                    if y != zero:
                        prod[k] = radd(prod[k], rmul(x, y))
                    k += 1
        k = n
        for row in self._fold:
            c = prod[k]
            if c != zero:
                for i, m in row:
                    prod[i] = radd(prod[i], rmul(c, m))
            k += 1
        del prod[n:]
        return tuple(prod)

    def raw_inv(self, a):
        if a == self._zero:
            raise FieldError("division by zero")
        if a[1:] == self._zero[1:]:  # an element of the base field
            return self._pad(self.base.raw_inv(a[0]))
        cols = [a]
        while len(cols) < self.deg:
            cols.append(self.raw_mul(cols[-1], self._gen))
        u = _solve_linear_system(self.base, cols, self.raw_one())
        if u is None:
            raise FieldError("minimal polynomial is not irreducible (inverse failed)")
        return tuple(u)

    def raw_is_zero(self, a):
        return a == self._zero

    def raw_str(self, a):
        parts = []
        for i in range(self.deg - 1, -1, -1):
            c = a[i]
            if self.base.raw_is_zero(c):
                continue
            cs = self.base.raw_str(c)
            if i == 0:
                parts.append(cs)
                continue
            var = self.gen if i == 1 else f"{self.gen}^{i}"
            if c == self.base.raw_one():
                parts.append(var)
            elif any(ch in cs for ch in "+-/") and not cs.startswith("("):
                parts.append(f"({cs})*{var}")
            else:
                parts.append(f"{cs}*{var}")
        if not parts:
            return "0"
        return "+".join(parts)

    def _raw_pow(self, a, e):
        """a^e for an integer e >= 0, by square and multiply."""
        result = self.raw_one()
        while e:
            if e & 1:
                result = self.raw_mul(result, a)
            e >>= 1
            if e:
                a = self.raw_mul(a, a)
        return result

    def raw_pth_root(self, a):
        p = self.characteristic()
        if p == 0:
            raise FieldError("p-th roots are a positive-characteristic operation")
        base = self.base
        if isinstance(base, PrimeField):
            # Finite field: Frobenius has order deg, so x -> x^(p^(deg-1)).
            root = self._raw_pow(a, p ** (self.deg - 1))
        else:
            # Base is F_p(s): solve sum_j b_j * g^(jp) = a with b_j in
            # F_p(s^p), working over the basis {s^i g^j} of the field over
            # F_p(s^p).  Coordinates: each extension coordinate in F_p(s)
            # splits into p components over F_p(s^p) (argument renamed back
            # to s), n*p raw reps in all.
            def coords(rep):
                return [x for c in rep for x in base._decompose_by_parameter_power(c)]

            gp = self._raw_pow(self._gen, p)
            cols = []
            mu = self.raw_one()
            for _ in range(self.deg):
                cols.append(coords(mu))
                mu = self.raw_mul(mu, gp)
            sol = _solve_linear_system(base, cols, coords(a))
            if sol is None:
                return None
            # b_j = sol[j](s^p); the root has coordinates sol[j](s).
            root = tuple(sol)
        return root if self._raw_pow(root, p) == a else None

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.minpoly == self.minpoly
            and other.gen == self.gen
        )

    def __hash__(self):
        return hash((self.kind, self.base, self.minpoly, self.gen))

    def __str__(self):
        terms = []
        for i in range(len(self.minpoly) - 1, -1, -1):
            c = self.minpoly[i]
            if self.base.raw_is_zero(c):
                continue
            mono = self.gen if i == 1 else (f"{self.gen}^{i}" if i else "")
            terms.append((self.base.raw_str(c), c == self.base.raw_one(), mono))
        return f"{self.base}[{self.gen}]/({term_sum_str(terms)})"

    __repr__ = __str__


def term_sum_str(terms):
    """Text of a nonempty sum of (coefficient text, coefficient is one,
    monomial text) terms, largest first; "" is the monomial 1."""
    parts = []
    for cs, one, mono in terms:
        need_parens = any(ch in cs[1:] for ch in "+-") or "/" in cs
        if not mono:
            parts.append(f"({cs})" if need_parens and not cs.startswith("(") else cs)
        elif one:
            parts.append(mono)
        elif cs == "-1":
            parts.append(f"-{mono}")
        else:
            if need_parens and not (cs.startswith("(") and cs.endswith(")")):
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}")
    text = parts[0]
    for p in parts[1:]:
        text += p if p.startswith("-") else "+" + p
    return text


def _solve_linear_system(field, cols, rhs):
    """Solve ``sum_j x_j * cols[j] = rhs`` over ``field`` by Gauss-Jordan
    elimination with a row swap to the first nonzero pivot.

    ``cols`` is a list of columns and ``rhs`` one column, all sequences of raw
    reps of ``field`` of one length.  Returns the unique solution as a list of
    raw reps, or None if the system is unsolvable or underdetermined.
    """
    m = len(rhs)
    n = len(cols)
    zero = field.raw_zero()
    rmul, rsub = field.raw_mul, field.raw_sub
    rows = [[col[i] for col in cols] + [rhs[i]] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        # the pivot row is zero left of column c, so only columns c.. change
        row = rows[r]
        inv = field.raw_inv(row[c])
        row[c:] = [rmul(x, inv) for x in row[c:]]
        for i, other in enumerate(rows):
            f = other[c]
            if i != r and f != zero:
                other[c:] = [rsub(x, rmul(f, y)) for x, y in zip(other[c:], row[c:])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    # consistency
    if any(rows[i][n] != zero for i in range(r, m)) or len(pivots) < n:
        return None
    sol = [zero] * n
    for i, c in enumerate(pivots):
        sol[c] = rows[i][n]
    return sol


# ---------------------------------------------------------------------------
# checked extension construction
# ---------------------------------------------------------------------------

QQ = RationalField()


def GF(p):
    return PrimeField(p)


def rational_function_field(p, param="s"):
    return RationalFunctionField(p, param)


def extend(field, minpoly_coeffs, gen="g"):
    """Build field[gen]/(minpoly) after verifying irreducibility.

    ``minpoly_coeffs`` is a sequence of coefficients (ints, Fractions or
    FieldElements of ``field``), low degree first; it must be monic of degree
    at least 2, which :class:`ExtensionField` checks with the tower depth and
    the generator name.  Raises :class:`FieldError` naming a nontrivial factor
    when the polynomial is reducible.
    """
    reps = dense.trim(field, [field.coerce(c).rep for c in minpoly_coeffs])
    K = ExtensionField(field, reps, gen)
    from .polynomials import certify_irreducible_univariate

    witness = certify_irreducible_univariate(field, K.minpoly, gen)
    if witness is not None:
        raise FieldError(f"minimal polynomial is reducible: factor {witness}")
    return K


def fresh_generator_name(field, first="b"):
    """A name for a new extension generator over ``field``: ``first``, else
    the first of b, c, w, g, a, m, that names neither the generator of
    ``field`` nor its function-field parameter."""
    base = field
    taken = set()
    if isinstance(field, ExtensionField):
        taken.add(field.gen)
        base = field.base
    if isinstance(base, RationalFunctionField):
        taken.add(base.param)
    return next(name for name in (first, *"bcwgam") if name not in taken)


class Embedding:
    """Field embedding src -> dst determined by the image of src's generator.

    For a base field src, the embedding is the canonical inclusion into an
    extension dst of the same base (``gen_image`` unused).  For an extension
    src, ``gen_image`` is the FieldElement of dst that src's generator maps
    to.  :meth:`raw` maps raw reps, and calling the embedding maps elements
    through it.  Embeddings compose with ``then``.
    """

    def __init__(self, src, dst, gen_image=None):
        self.src = src
        self.dst = dst
        self.gen_image = gen_image
        if isinstance(src, ExtensionField):
            if gen_image is None:
                raise FieldError("embedding of an extension needs a generator image")
            base = src.base
        else:
            base = src
        dst_base = dst.base if isinstance(dst, ExtensionField) else dst
        if base != dst_base:
            raise FieldError(f"no canonical embedding of {base} into {dst}")

    def raw(self, rep):
        """The image of ``rep``, a raw rep of src, as a raw rep of dst: a base
        rep padded into dst, or an extension rep read as a polynomial in the
        generator (its coefficients padded) and evaluated at ``gen_image``."""
        dst = self.dst
        if isinstance(self.src, ExtensionField):
            if isinstance(dst, ExtensionField):
                rep = [dst._pad(c) for c in rep]
            return dense.eval(dst, rep, self.gen_image.rep)
        return dst._pad(rep) if isinstance(dst, ExtensionField) else rep

    def __call__(self, elt):
        return self.dst.element(self.raw(self.src.coerce(elt).rep))

    def then(self, other):
        if self.dst != other.src:
            raise FieldError("embeddings do not compose")
        if not isinstance(self.src, ExtensionField):
            return Embedding(self.src, other.dst)
        return Embedding(self.src, other.dst, other(self.gen_image))


def composite_extension(field, poly_coeffs, gen="g"):
    """A field containing ``field`` and a root of the given irreducible polynomial.

    ``poly_coeffs``: dense coefficients (FieldElements of ``field``), monic,
    degree >= 2, irreducible over ``field``.  Returns ``(L, emb, root)`` where
    ``L`` is a one-level extension of ``field``'s base, ``emb`` embeds
    ``field`` into ``L`` and ``root`` is a root of the polynomial in ``L``.

    Over a base field this is :func:`extend`.  When ``field`` is itself an
    extension K = base(lambda), the composite is B = K[v]/(psi), whose
    elements are dense polynomials in v over K (the :mod:`rect4.dense`
    kernels).  A primitive element theta = v + c*lambda is located by brute
    force over small c: the powers of theta, written in coordinates over the
    base (the block of v^j at j*deg K), are independent up to dim B, and the
    first dependence gives L's minimal polynomial.  lambda and v are then
    solved for in that Krylov basis.
    """
    if not isinstance(field, ExtensionField):
        L = extend(field, poly_coeffs, gen)
        return L, Embedding(field, L), L.generator()

    psi = dense.trim(field, [field.coerce(c).rep for c in poly_coeffs])
    if len(psi) < 3 or psi[-1] != field.raw_one():
        raise FieldError("composite extension needs a monic polynomial of degree >= 2")
    base = field.base
    n2 = len(psi) - 1
    dim = field.deg * n2
    zero, one = field.raw_zero(), field.raw_one()

    def coords(x):
        padded = list(x) + [zero] * (n2 - len(x))
        return [c for block in padded for c in block]

    def krylov_basis(c):
        theta = (field.raw_mul(field._pad(c), field._gen), one)  # v + c*lambda
        x = (one,)
        vecs = [coords(x)]
        while True:
            x = dense.divmod(field, dense.mul(field, x, theta), psi)[1]
            cur = coords(x)
            sol = _solve_linear_system(base, vecs, cur)
            if sol is not None:
                # minpoly = U^k - sum sol[i] U^i
                return [base.raw_neg(s) for s in sol] + [base.raw_one()], vecs
            vecs.append(cur)
            if len(vecs) > dim:
                raise FieldError("primitive element search failed to terminate")

    # candidate multipliers for the generator
    pool = [base.raw_from_int(k) for k in (0, 1, -1, 2, -2, 3, -3, 4, 5)]
    if isinstance(base, RationalFunctionField):
        pool += [base.parameter().rep, (base.parameter() + 1).rep]
    for c in pool:
        mcoeffs, vecs = krylov_basis(c)
        if len(vecs) == dim:
            break
    else:
        raise FieldError(
            "no primitive element found for the composite extension "
            "(internal limitation)"
        )
    L = ExtensionField(base, tuple(mcoeffs), gen)

    # Express lambda and v in the Krylov basis {theta^i}.
    def solve_in_krylov(x):
        sol = _solve_linear_system(base, vecs, coords(x))
        if sol is None:
            raise FieldError("internal error: Krylov basis does not span the composite")
        return L.element(tuple(sol))

    emb = Embedding(field, L, solve_in_krylov((field._gen,)))
    return L, emb, solve_in_krylov((zero, one))
