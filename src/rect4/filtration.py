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

whose right-hand side is divisible by x term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hyperplane import Hyperplane, domain_check
from .polynomials import MultiPoly, PolynomialError, divmod_in_variable, exact_divide

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

    def a_degree(self):
        return self.hyperplane.a.degree_in("X")


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


def a_add(e1, e2):
    return to_normal_form(e1.polynomial() + e2.polynomial(), e1.ctx)


def a_mul(e1, e2):
    return to_normal_form(e1.polynomial() * e2.polynomial(), e1.ctx)


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


def check_x_divisibility(e, ctx=None):
    """For w(e) < 0, produce e' with e = x * e'.

    Divisibility of the normal-form representative P by x in A amounts to
    f0 dividing P(0,Y,Z,T) (the defining polynomial at X = 0 is -f0).
    Returns (divisible, e'); the degree function guarantees divisible is
    always True for w(e) < 0, so a False is an invariant violation.
    """
    ctx = ctx or e.ctx
    if e.is_zero():
        raise FiltrationError("x-divisibility of zero requested")
    P = e.polynomial()
    field = ctx.field
    at0 = P.substitute({"X": field.zero()})
    f0 = ctx.f0.with_vars(_VARS4)
    try:
        B = exact_divide(at0, f0)
    except PolynomialError:
        return False, None
    lifted = P + B * ctx.hyperplane.defining_polynomial()
    X = MultiPoly.variable(field, _VARS4, "X")
    quotient = exact_divide(lifted, X)
    return True, to_normal_form(quotient, ctx)


def admissible_representation(e, ctx=None):
    """Monomials in x, y, z, t summing to e, each of w-degree <= w(e).

    Iteratively rewrites the top w-degree group through the identity
    alpha(0) x^d y - f0 = -(alpha - alpha(0)) x^d y + (F - f0), every term of
    whose right side has strictly negative w-degree.  Termination: the top
    w-degree strictly drops each round.
    """
    ctx = ctx or e.ctx
    if e.is_zero():
        raise FiltrationError("admissible representation of zero requested")
    target = w_degree(e, ctx)
    d = ctx.d

    def wdeg_mono(expv):
        # w(x^a y^b z^c t^e) = d*b - a
        return d * expv[1] - expv[0]

    field = ctx.field
    add, is_zero = field.raw_add, field.raw_is_zero
    current = dict(e.polynomial().terms)
    guard = 0
    while True:
        guard += 1
        if guard > 10000:
            raise FiltrationError("rewriting failed to terminate")
        if not current:
            return []
        top = max(wdeg_mono(ev) for ev in current)
        if top <= target:
            break
        group = {ev: c for ev, c in current.items() if wdeg_mono(ev) == top}
        for ev in group:
            del current[ev]
        replacement = _rewrite_group(group, top, ctx)
        for ev, c in replacement.terms.items():
            cur = current.get(ev)
            s = c if cur is None else add(cur, c)
            if is_zero(s):
                current.pop(ev, None)
            else:
                current[ev] = s
    return [
        (ev, field.element(c))
        for ev, c in sorted(current.items(), key=lambda kv: (-wdeg_mono(kv[0]), kv[0]))
    ]


def _rewrite_group(group, top, ctx):
    """Rewrite a top w-degree monomial group of w-degree ``top`` into strictly
    smaller monomials, as a four-variable polynomial."""
    field = ctx.field
    d = ctx.d
    vars4 = _VARS4
    iota = max(0, -(-top // d))  # ceil(top/d) for positive, 0 otherwise
    beta = d * iota - top
    # every monomial factors as y^iota x^beta * (x^d y)^(b-iota) z^c t^e
    U_poly = {}
    for ev, c in group.items():
        a_, b_, c_, e_ = ev
        j = b_ - iota
        if j < 0 or a_ - beta != d * j:
            raise FiltrationError("internal error: group factorization failed")
        key = (j, c_, e_)
        U_poly[key] = field.raw_add(U_poly.get(key, field.raw_zero()), c)
    # U-polynomial Q(U, Z, T); divide by alpha0*U - f0
    uvars = ("U", "Z", "T")
    Q = MultiPoly(field, uvars, U_poly)
    alpha0 = ctx.alpha0
    f0u = ctx.f0.with_vars(uvars)
    U = MultiPoly.variable(field, uvars, "U")
    divisor = U.scale(alpha0) - f0u
    H, R = divmod_in_variable(Q, divisor, "U")
    if not R.is_zero():
        raise FiltrationError(
            "top w-degree group is not in the graded relation ideal"
        )
    # replacement: rhs * H(x^d y, z, t) * y^iota x^beta, with
    # rhs = -(alpha - alpha0) x^d y + (F - f0), every term x-divisible.
    X4 = MultiPoly.variable(field, vars4, "X")
    Y4 = MultiPoly.variable(field, vars4, "Y")
    alpha4 = ctx.alpha.with_vars(vars4)
    F4 = ctx.hyperplane.F.with_vars(vars4)
    f04 = ctx.f0.with_vars(vars4)
    rhs = -(alpha4 - alpha0) * X4**d * Y4 + (F4 - f04)
    Ux = X4**d * Y4
    H4 = MultiPoly.zero(field, vars4)
    for ev, c in H.terms.items():
        j, cz, ce = ev
        H4 = H4 + MultiPoly(field, vars4, {(0, 0, cz, ce): c}) * Ux**j
    repl = rhs * H4
    shift = MultiPoly(field, vars4, {(beta, iota, 0, 0): field.raw_one()})
    return repl * shift


def gr_relation_residual(ctx):
    """w(alpha(0) x^d y - f0(z,t)); at most -1 when the graded relation holds
    (it is -infinity when the element vanishes in A)."""
    field = ctx.field
    X = MultiPoly.variable(field, _VARS4, "X")
    Y = MultiPoly.variable(field, _VARS4, "Y")
    f0 = ctx.f0.with_vars(_VARS4)
    elt = to_normal_form(X**ctx.d * Y.scale(ctx.alpha0) - f0, ctx)
    return w_degree(elt, ctx)
