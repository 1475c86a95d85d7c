"""Exact arithmetic in the supported coefficient-field tower.

Supported fields:

* ``RationalField``            -- the rationals, elements are ``fractions.Fraction``
* ``PrimeField(p)``            -- integers mod a prime, elements are ints in ``[0, p)``
* ``RationalFunctionField(p)`` -- one-parameter rational functions over a prime
  field; elements are coprime (numerator, denominator) pairs of dense
  coefficient tuples with a monic denominator
* ``ExtensionField(base, m)``  -- a simple algebraic extension of one of the
  above by a monic irreducible polynomial ``m``; elements are coefficient
  tuples of length ``deg m``

Only one extension level above a base field is supported.  When a computation
needs a root that lives outside the current extension, a single composite
extension is rebuilt via a brute-force primitive-element search
(:func:`composite_extension`).

All descriptors and elements are immutable after construction; everything here
is safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction

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

    def raw_eq(self, a, b):
        return a == b

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

    def is_one(self):
        return self.field.raw_eq(self.rep, self.field.raw_one())

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.field.raw_eq(self.rep, other.rep)

    def __hash__(self):
        return hash((self.field.kind, self.rep))

    def __str__(self):
        return self.field.raw_str(self.rep)

    def __repr__(self):
        return f"<{self} in {self.field}>"


class RationalField(Field):
    """The field of rational numbers."""

    kind = "rationals"

    def characteristic(self):
        return 0

    def raw_zero(self):
        return Fraction(0)

    def raw_one(self):
        return Fraction(1)

    def raw_from_int(self, n):
        return Fraction(n)

    def raw_add(self, a, b):
        return a + b

    def raw_neg(self, a):
        return -a

    def raw_sub(self, a, b):
        return a - b

    def raw_mul(self, a, b):
        return a * b

    def raw_inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return 1 / a

    def raw_is_zero(self, a):
        return a == 0

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


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
    """

    kind = "rational-function-field"

    def __init__(self, p, param="s"):
        self.base = PrimeField(p)
        self.p = p
        self.param = param

    def characteristic(self):
        return self.p

    def _normalize(self, num, den):
        if not den:
            raise FieldError("zero denominator")
        if not num:
            return ((), (self.base.raw_one(),))
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

    def decompose_by_parameter_power(self, elt):
        """Write ``elt`` as ``sum_i c_i(s^p) * s^i`` with 0 <= i < p.

        Returns a list of p elements ``c_i`` of this same field (with the
        inner argument still called s), so ``elt == sum c_i(s**p) * s**i``.
        Used by extension fields for semilinear solves.
        """
        num, den = self.coerce(elt).rep
        p = self.p
        if not num:
            return [self.zero() for _ in range(p)]
        # num/den = num*den^(p-1) / den^p ; den^p lies in F_p[s^p].
        den_pm1 = (1 % p,)
        for _ in range(p - 1):
            den_pm1 = dense.mul(self.base, den_pm1, den)
        scaled = dense.mul(self.base, num, den_pm1)
        den_p = dense.mul(self.base, den_pm1, den)  # den^p
        den_p_inner = self._poly_pth_root(den_p)
        assert den_p_inner is not None
        out = []
        for i in range(p):
            ci = dense.trim(self.base, [scaled[j] for j in range(i, len(scaled), p)])
            out.append(self.element(self._normalize(ci, den_p_inner)))
        return out

    def compose_parameter_power(self, elt):
        """Substitute s -> s^p into ``elt``."""
        num, den = self.coerce(elt).rep

        def blow(coeffs):
            out = []
            for c in coeffs:
                out.append(c)
                out.extend([0] * (self.p - 1))
            return dense.trim(self.base, out[: len(coeffs) * self.p])

        return self.element(self._normalize(blow(num), blow(den)))

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
    degree >= 2.  Elements are coefficient tuples of length ``deg`` over the
    base.  Irreducibility of the minimal polynomial is the caller's burden;
    use :func:`extend` for a checked construction.
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
            raise FieldError("minimal polynomial must have degree >= 2")
        if not base.raw_eq(minpoly[-1], base.raw_one()):
            raise FieldError("minimal polynomial must be monic")
        self.base = base
        self.minpoly = tuple(minpoly)
        self.deg = len(minpoly) - 1
        self.gen = gen

    def characteristic(self):
        return self.base.characteristic()

    def _pad(self, coeffs):
        out = list(coeffs[: self.deg])
        while len(out) < self.deg:
            out.append(self.base.raw_zero())
        return tuple(out)

    def _reduce(self, coeffs):
        _, r = dense.divmod(self.base, dense.trim(self.base, coeffs), self.minpoly)
        return self._pad(r)

    def generator(self):
        coeffs = [self.base.raw_zero()] * self.deg
        coeffs[1] = self.base.raw_one()
        return self.element(tuple(coeffs))

    def from_base(self, elt):
        if isinstance(elt, FieldElement):
            if elt.field != self.base:
                raise FieldMismatch("element does not belong to the base field")
            rep = elt.rep
        else:
            rep = self.base.coerce(elt).rep
        return self.element(self._pad((rep,)))

    def from_coeffs(self, elts):
        """Element sum elts[i]*g^i from base-field coefficients."""
        reps = [self.base.coerce(e).rep for e in elts]
        return self.element(self._reduce(reps))

    def to_base(self, elt):
        """The base-field value of ``elt`` when it lies in the base, else None."""
        rep = self.coerce(elt).rep
        for c in rep[1:]:
            if not self.base.raw_is_zero(c):
                return None
        return self.base.element(rep[0])

    def raw_zero(self):
        return self._pad(())

    def raw_one(self):
        return self._pad((self.base.raw_one(),))

    def raw_from_int(self, n):
        return self._pad((self.base.raw_from_int(n),))

    def raw_add(self, a, b):
        return tuple(self.base.raw_add(x, y) for x, y in zip(a, b))

    def raw_neg(self, a):
        return tuple(self.base.raw_neg(x) for x in a)

    def raw_mul(self, a, b):
        prod = dense.mul(self.base, dense.trim(self.base, a), dense.trim(self.base, b))
        return self._reduce(prod)

    def raw_inv(self, a):
        at = dense.trim(self.base, a)
        if not at:
            raise FieldError("division by zero")
        g, u, _ = dense.xgcd(self.base, at, self.minpoly)
        if len(g) != 1:
            raise FieldError("minimal polynomial is not irreducible (inverse failed)")
        return self._reduce(u)

    def raw_is_zero(self, a):
        return all(self.base.raw_is_zero(x) for x in a)

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
            if self.base.raw_eq(c, self.base.raw_one()):
                parts.append(var)
            elif any(ch in cs for ch in "+-/") and not cs.startswith("("):
                parts.append(f"({cs})*{var}")
            else:
                parts.append(f"{cs}*{var}")
        if not parts:
            return "0"
        return "+".join(parts)

    def raw_pth_root(self, a):
        p = self.characteristic()
        if p == 0:
            raise FieldError("p-th roots are a positive-characteristic operation")
        if isinstance(self.base, PrimeField):
            # Finite field: Frobenius has order deg, so x -> x^(p^(deg-1)).
            out = a
            for _ in range(self.deg - 1):
                acc = out
                for _ in range(p - 1):
                    acc = self.raw_mul(acc, out)
                out = acc
            check = out
            for _ in range(p - 1):
                check = self.raw_mul(check, out)
            if check != self._pad(a):
                return None
            return out
        # Base is F_p(s): solve sum_j b_j * g^(jp) = a with b_j in F_p(s^p),
        # working over the basis {s^i g^j} of the field over F_p(s^p).
        base = self.base
        n = self.deg
        mus = []
        gp = self._reduce(
            [base.raw_zero()] * p + [base.raw_one()]
        )  # g^p reduced
        mu = self.raw_one()
        for _ in range(n):
            mus.append(mu)
            mu = self.raw_mul(mu, gp)
        # coordinates: for each mu_j and each extension coordinate c in F_p(s),
        # decompose into p components over F_p(s^p) (argument renamed back to s).
        def coords(rep):
            vec = []
            for c in rep:
                vec.extend(base.decompose_by_parameter_power(base.element(c)))
            return vec  # length n*p of F_p(s) elements (inner variable)

        cols = [coords(m) for m in mus]
        rhs = coords(a)
        sol = _solve_linear_system(base, cols, rhs)
        if sol is None:
            return None
        # b_j = sol[j](s^p); the root has coordinates sol[j](s).
        root = [sol[j].rep for j in range(n)]
        candidate = self._pad(root)
        check = candidate
        for _ in range(p - 1):
            check = self.raw_mul(check, candidate)
        if check != self._pad(a):
            return None
        return candidate

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
            cs = self.base.raw_str(c)
            mono = self.gen if i == 1 else (f"{self.gen}^{i}" if i else "")
            if not mono:
                terms.append(cs)
            elif self.base.raw_eq(c, self.base.raw_one()):
                terms.append(mono)
            else:
                terms.append(f"{cs}*{mono}")
        return f"{self.base}[{self.gen}]/({'+'.join(terms)})"

    __repr__ = __str__


def _solve_linear_system(field, cols, rhs):
    """Solve ``sum_j x_j * cols[j] = rhs`` over ``field``.

    ``cols`` is a list of columns (lists of FieldElements), ``rhs`` a list of
    FieldElements.  Returns the unique solution as a list of FieldElements, or
    None if the system is unsolvable or underdetermined.
    """
    m = len(rhs)
    n = len(cols)
    rows = [[cols[j][i] for j in range(n)] + [rhs[i]] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if not rows[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    # consistency
    for i in range(r, m):
        if not rows[i][n].is_zero():
            return None
    if len(pivots) < n:
        return None
    sol = [field.zero()] * n
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
    at least 2.  Raises :class:`FieldError` naming a nontrivial factor when
    the polynomial is reducible.
    """
    if isinstance(field, ExtensionField):
        raise FieldError("extension towers deeper than one level are not supported")
    if isinstance(field, RationalFunctionField) and gen == field.param:
        raise FieldError(
            "extension generator name collides with the function-field parameter"
        )
    reps = [field.coerce(c).rep for c in minpoly_coeffs]
    reps = list(dense.trim(field, reps))
    if len(reps) < 3:
        raise FieldError("extension minimal polynomial must have degree >= 2")
    if not field.raw_eq(reps[-1], field.raw_one()):
        raise FieldError("extension minimal polynomial must be monic")
    from .polynomials import certify_irreducible_univariate

    witness = certify_irreducible_univariate(field, tuple(reps), gen)
    if witness is not None:
        raise FieldError(f"minimal polynomial is reducible: factor {witness}")
    return ExtensionField(field, tuple(reps), gen)


class Embedding:
    """Field embedding src -> dst determined by the image of src's generator.

    For a base field src, the embedding is the canonical inclusion into an
    extension dst of the same base (``gen_image`` unused).  For an extension
    src, ``gen_image`` is the FieldElement of dst that src's generator maps
    to.  Embeddings compose with ``then``.
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

    def __call__(self, elt):
        if isinstance(elt, FieldElement) and elt.field == self.dst:
            return elt
        elt = self.src.coerce(elt)
        if not isinstance(self.src, ExtensionField):
            if isinstance(self.dst, ExtensionField):
                return self.dst.from_base(elt)
            return elt
        acc = self.dst.zero()
        base = self.src.base
        for c in reversed(elt.rep):
            cbase = (
                self.dst.from_base(base.element(c))
                if isinstance(self.dst, ExtensionField)
                else base.element(c)
            )
            acc = acc * self.gen_image + cbase
        return acc

    def then(self, other):
        if self.dst != other.src:
            raise FieldError("embeddings do not compose")
        if not isinstance(self.src, ExtensionField):
            return Embedding(self.src, other.dst)
        return Embedding(self.src, other.dst, other(self.gen_image))

    @staticmethod
    def identity(field):
        if isinstance(field, ExtensionField):
            return Embedding(field, field, field.generator())
        return Embedding(field, field)


def composite_extension(field, poly_coeffs, gen="g"):
    """A field containing ``field`` and a root of the given irreducible polynomial.

    ``poly_coeffs``: dense coefficients (FieldElements of ``field``), monic,
    degree >= 2, irreducible over ``field``.  Returns ``(L, emb, root)`` where
    ``L`` is a one-level extension of ``field``'s base, ``emb`` embeds
    ``field`` into ``L`` and ``root`` is a root of the polynomial in ``L``.

    When ``field`` is itself an extension, a primitive element for the
    composite is located by brute force over small linear combinations
    ``root + c * generator``.
    """
    reps = [field.coerce(c).rep for c in poly_coeffs]
    psi = dense.trim(field, reps)
    if len(psi) < 3:
        raise FieldError("composite extension needs degree >= 2")
    if not field.raw_eq(psi[-1], field.raw_one()):
        raise FieldError("composite extension polynomial must be monic")

    if not isinstance(field, ExtensionField):
        L = extend(field, [field.element(c) for c in psi], gen)
        return L, Embedding(field, L), L.generator()

    base = field.base
    n1 = field.deg
    n2 = len(psi) - 1
    dim = n1 * n2

    # Work in B = field[v]/(psi): elements are lists of length dim over base,
    # flattening coefficients of lambda^i v^j at index j*n1 + i.
    def b_mul_v(vec):
        # multiply by v, reducing v^n2 via psi
        out = [base.raw_zero()] * dim
        top = vec[(n2 - 1) * n1 :]
        for j in range(n2 - 1):
            out[(j + 1) * n1 : (j + 2) * n1] = vec[j * n1 : (j + 1) * n1]
        # subtract top * psi[:-1] (as field elements times v^j)
        if any(not base.raw_is_zero(c) for c in top):
            top_elt = field.element(tuple(top))
            for j in range(n2):
                term = top_elt * field.element(psi[j])
                for i in range(n1):
                    out[j * n1 + i] = base.raw_sub(out[j * n1 + i], term.rep[i])
        return out

    def b_mul_lambda(vec):
        out = [base.raw_zero()] * dim
        for j in range(n2):
            chunk = field.element(tuple(vec[j * n1 : (j + 1) * n1]))
            prod = chunk * field.generator()
            for i in range(n1):
                out[j * n1 + i] = prod.rep[i]
        return out

    def b_mul(vec, theta_parts):
        # multiply vec by theta = v + c*lambda given as (1, c)
        c = theta_parts
        v_part = b_mul_v(vec)
        if base.raw_is_zero(c):
            return v_part
        l_part = b_mul_lambda(vec)
        scaled = []
        ce = base.element(c)
        for x in l_part:
            scaled.append((base.element(x) * ce).rep)
        return [base.raw_add(a, b) for a, b in zip(v_part, scaled)]

    def krylov_minpoly(c):
        one = [base.raw_zero()] * dim
        one[0] = base.raw_one()
        vecs = [one]
        cur = one
        while True:
            cur = b_mul(cur, c)
            # test dependence of cur on vecs
            cols = [[base.element(v[i]) for i in range(dim)] for v in vecs]
            rhs = [base.element(cur[i]) for i in range(dim)]
            sol = _solve_linear_system(base, cols, rhs)
            if sol is not None:
                # minpoly = U^k - sum sol[i] U^i
                k = len(vecs)
                coeffs = [base.raw_neg(s.rep) for s in sol] + [base.raw_one()]
                return k, coeffs, vecs
            vecs.append(cur)
            if len(vecs) > dim:
                raise FieldError("primitive element search failed to terminate")

    # candidate multipliers for the generator
    pool = [base.raw_from_int(k) for k in (0, 1, -1, 2, -2, 3, -3, 4, 5)]
    if isinstance(base, RationalFunctionField):
        pool += [base.parameter().rep, (base.parameter() + 1).rep]
    found = None
    for c in pool:
        k, mcoeffs, vecs = krylov_minpoly(c)
        if k == dim:
            found = (c, mcoeffs, vecs)
            break
    if found is None:
        raise FieldError(
            "no primitive element found for the composite extension "
            "(internal limitation)"
        )
    c, mcoeffs, vecs = found
    L = ExtensionField(base, tuple(mcoeffs), gen)

    # Express lambda and v in the Krylov basis {theta^i}.
    def solve_in_krylov(target_vec):
        cols = [[base.element(v[i]) for i in range(dim)] for v in vecs]
        rhs = [base.element(target_vec[i]) for i in range(dim)]
        sol = _solve_linear_system(base, cols, rhs)
        assert sol is not None, "Krylov basis must span the composite"
        return L.from_coeffs(sol)

    lam_vec = [base.raw_zero()] * dim
    lam_vec[1] = base.raw_one() if n1 > 1 else base.raw_zero()
    v_vec = [base.raw_zero()] * dim
    v_vec[n1] = base.raw_one()
    lam_img = solve_in_krylov(lam_vec)
    root_img = solve_in_krylov(v_vec)
    emb = Embedding(field, L, lam_img)
    return L, emb, root_img
