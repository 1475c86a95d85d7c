"""Reference implementations of the filtration's admissibility, for tests.

``rect4.filtration`` computes what ``gr-check`` reports: normal forms in
A = k[X,Y,Z,T]/(X^d alpha(X) Y - F), the degree function w and the residual
of the graded relation.  The constructive side of the paper's argument lives
here, as an oracle those computations are checked against:

* :func:`check_x_divisibility` divides an element of negative w-degree by x
  in A, which the degree function promises is possible;
* :func:`admissible_representation` rewrites an element into monomials in
  x, y, z, t of w-degree at most w(e), through the identity

      alpha(0) x^d y - f0(z,t) = -(alpha(x) - alpha(0)) x^d y + (F - f0).
"""

from rect4.filtration import _VARS4, FiltrationError, to_normal_form, w_degree
from rect4.polynomials import MultiPoly, PolynomialError, divmod_in_variable, exact_divide


def defining_polynomial(h):
    """a(X)*Y - F(X,Z,T) of the hyperplane ``h``, in (X, Y, Z, T)."""
    Y = MultiPoly.variable(h.field, _VARS4, "Y")
    return h.a.with_vars(_VARS4) * Y - h.F.with_vars(_VARS4)


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
    lifted = P + B * defining_polynomial(ctx.hyperplane)
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
