"""Degree filtration on A = k[X,Y,Z,T]/(X^d a(X) Y - F) with a(0) != 0.

Elements of A have a unique normal form c_0 + sum_{i>=1} c_i y^i with
deg_X c_i < deg_X a for i >= 1 (the defining relation rewrites a(X)*Y to F).
The degree function w is induced by the X-adic valuation in the localization
k[x, 1/x, 1/alpha(x), z, t]: writing e = n(x,z,t) / (x^(dN) alpha^N) gives
w(e) = d*N - v_X(n).  Basic values: w(x) = -1, w(z) = w(t) = 0, w(y) = d.

The filtration is admissible for the generating set {x, y, z, t}: a
constructive rewriting lowers any monomial representation until all monomial
degrees are bounded by w(e), using the identity

    alpha(0) x^d y - f0(z,t) = -(alpha(x) - alpha(0)) x^d y + (F - f0),

whose right-hand side is divisible by x term by term.  ``gr-check`` needs only
the degree function and the residual of that graded relation
(:func:`gr_relation_residual`); the rewriting itself, and the x-divisibility
of elements of negative degree, are reference implementations in the test
suite (``tests/filtration_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .hyperplane import Hyperplane, domain_check
from .polynomials import MultiPoly, divmod_in_variable

NEG_INF = float("-inf")

_VARS4 = ("X", "Y", "Z", "T")


class FiltrationError(Exception):
    pass


@dataclass
class FiltrationContext:
    """a = X^d * alpha(X) with alpha(0) != 0 and f0 = F(0,Z,T) != 0."""

    hyperplane: Hyperplane
    d: int
    alpha: MultiPoly  # univariate in X
    f0: MultiPoly  # in (Z, T)

    @classmethod
    def build(cls, h):
        ok, witness = domain_check(h)
        if not ok:
            raise FiltrationError(f"not an integral domain (common factor {witness})")
        dense = h.a.to_dense("X")
        d = next(k for k, c in enumerate(dense) if not h.field.raw_is_zero(c))
        if d == 0:
            raise FiltrationError(
                "a(0) must vanish; shift X so that 0 becomes a root of a"
            )
        alpha = MultiPoly.from_raw_dense(h.field, h.a.vars, "X", dense[d:])
        f0 = h.F.substitute({"X": h.field.zero()}).with_vars(("Z", "T"))
        if f0.is_zero():
            raise FiltrationError("F(0,Z,T) must be nonzero")
        return cls(h, d, alpha, f0)

    @property
    def field(self):
        return self.hyperplane.field

    @property
    def alpha0(self):
        return self.alpha.substitute({"X": self.field.zero()}).constant_value()


@dataclass
class AElement:
    """Normal form in A: coefficients of y^i with deg_X c_i < deg_X a for i >= 1."""

    ctx: FiltrationContext
    coefficients: list  # list of MultiPoly in (X, Z, T); index = y-power

    def is_zero(self):
        return all(c.is_zero() for c in self.coefficients)

    def y_degree(self):
        for i in range(len(self.coefficients) - 1, -1, -1):
            if not self.coefficients[i].is_zero():
                return i
        return -1

    def polynomial(self):
        """A four-variable representative of the class."""
        field = self.ctx.field
        acc = MultiPoly.zero(field, _VARS4)
        Y = MultiPoly.variable(field, _VARS4, "Y")
        for i, c in enumerate(self.coefficients):
            acc = acc + c.with_vars(_VARS4) * Y**i
        return acc

    def __eq__(self, other):
        if not isinstance(other, AElement):
            return NotImplemented
        n = max(len(self.coefficients), len(other.coefficients))
        field = self.ctx.field
        zero = MultiPoly.zero(field, self.coefficients[0].vars if self.coefficients else ("X", "Z", "T"))
        for i in range(n):
            a = self.coefficients[i] if i < len(self.coefficients) else zero
            b = other.coefficients[i] if i < len(other.coefficients) else zero
            if a != b:
                return False
        return True

    def __str__(self):
        return str(self.polynomial())


def to_normal_form(p, ctx):
    """Image in A of a polynomial in X, Y, Z, T.

    Rewrites a(X)*Y -> F top down in the Y-degree until all coefficients of
    positive Y-powers are X-reduced modulo a.
    """
    p = p.with_vars(_VARS4)
    field = ctx.field
    a = ctx.hyperplane.a.with_vars(("X", "Z", "T"))
    F = ctx.hyperplane.F.with_vars(("X", "Z", "T"))
    coeffs = [MultiPoly.zero(field, ("X", "Z", "T"))] * (p.degree_in("Y") + 1)
    for (k,), c in p.coefficients(("Y",)).items():
        coeffs[k] = c.with_vars(("X", "Z", "T"))
    i = len(coeffs) - 1
    while i >= 1:
        q, r = divmod_in_variable(coeffs[i], a, "X")
        coeffs[i] = r
        if not q.is_zero():
            coeffs[i - 1] = coeffs[i - 1] + q * F
        i -= 1
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if not coeffs:
        coeffs = [MultiPoly.zero(field, ("X", "Z", "T"))]
    return AElement(ctx, coeffs)


def generators(ctx):
    """The images x, y, z, t as normal forms."""
    field = ctx.field
    return tuple(
        to_normal_form(MultiPoly.variable(field, _VARS4, v), ctx) for v in _VARS4
    )


def w_degree(e, ctx=None):
    """The filtration degree: d*N - v_X(n) for the numerator n of e.

    n = sum_i c_i * F^i * X^(d(N-i)) * alpha^(N-i), expanded fully before the
    valuation is read off; w(0) is -infinity.
    """
    ctx = ctx or e.ctx
    if e.is_zero():
        return NEG_INF
    N = e.y_degree()
    field = ctx.field
    vars3 = ("X", "Z", "T")
    F = ctx.hyperplane.F.with_vars(vars3)
    alpha = ctx.alpha.with_vars(vars3)
    X = MultiPoly.variable(field, vars3, "X")
    n = MultiPoly.zero(field, vars3)
    for i, c in enumerate(e.coefficients):
        if c.is_zero():
            continue
        term = c * F**i * X ** (ctx.d * (N - i)) * alpha ** (N - i)
        n = n + term
    v = _x_valuation(n)
    return ctx.d * N - v


def _x_valuation(p):
    if p.is_zero():
        raise FiltrationError("valuation of zero requested")
    i = p.vars.index("X")
    return min(e[i] for e in p.terms)


def gr_relation_residual(ctx):
    """w(alpha(0) x^d y - f0(z,t)); at most -1 when the graded relation holds
    (it is -infinity when the element vanishes in A)."""
    field = ctx.field
    X = MultiPoly.variable(field, _VARS4, "X")
    Y = MultiPoly.variable(field, _VARS4, "Y")
    f0 = ctx.f0.with_vars(_VARS4)
    elt = to_normal_form(X**ctx.d * Y.scale(ctx.alpha0) - f0, ctx)
    return w_degree(elt, ctx)
