"""Bivariate irreducibility testing.

Over the rationals and prime fields the test is exhaustive Kronecker
substitution: factor the univariate image and try to un-map every sub-product
as a genuine bivariate divisor.  Over a quadratic or cubic number field the
question is reduced to the rationals through the norm (a resultant against the
minimal polynomial); beyond the configured bounds the answer is Unknown, never
a guess.
"""

from __future__ import annotations

from ..fields import Embedding, ExtensionField, PrimeField, RationalField
from .factor import FactorizationError, univariate_factor
from .multipoly import (
    MultiPoly,
    PolynomialError,
    divides,
    exact_divide,
    univariate_gcd,
)

DEFAULT_DEGREE_BOUND = 12
_NORM_DEGREE_CAP = 16
_NORM_KRONECKER_CAP = 220


class IrreducibilityResult:
    """status: "irreducible" | "reducible" | "unknown"; ``witness`` is a
    verified nontrivial factor in the reducible case."""

    def __init__(self, status, witness=None, reason=None):
        self.status = status
        self.witness = witness
        self.reason = reason

    @property
    def is_irreducible(self):
        return self.status == "irreducible"

    @property
    def is_reducible(self):
        return self.status == "reducible"

    @property
    def is_unknown(self):
        return self.status == "unknown"

    def __repr__(self):
        if self.witness is not None:
            return f"IrreducibilityResult({self.status}, witness={self.witness})"
        return f"IrreducibilityResult({self.status})"


def bivariate_irreducible(f, zvar, tvar, bound=DEFAULT_DEGREE_BOUND):
    """Decide irreducibility of f in K[zvar, tvar].

    ``f`` must be nonconstant and involve no variables besides the two given.
    """
    for v in f.vars:
        if v not in (zvar, tvar) and f.involves(v):
            raise PolynomialError(f"polynomial involves extra variable {v!r}")
    if f.is_constant():
        raise PolynomialError("irreducibility of a constant is undefined")

    # pull out monomial and polynomial content in each direction
    for main in (tvar, zvar):
        other = zvar if main == tvar else tvar
        if f.degree_in(main) > 0 and f.degree_in(other) > 0:
            from .multipoly import content_free_part

            content, prim = content_free_part(f, (main,))
            if not content.is_constant():
                return IrreducibilityResult("reducible", witness=content)
            f = prim

    dz, dt = f.degree_in(zvar), f.degree_in(tvar)
    if dz == 0 or dt == 0:
        return _univariate_case(f, zvar if dz > 0 else tvar)

    field = f.field
    if isinstance(field, (RationalField, PrimeField)):
        if f.total_degree() > bound:
            return IrreducibilityResult(
                "unknown", reason=f"total degree exceeds bound {bound}"
            )
        return _kronecker_test(f, zvar, tvar)
    if isinstance(field, ExtensionField) and isinstance(field.base, RationalField):
        if field.deg > 3 or f.total_degree() > 8:
            return IrreducibilityResult(
                "unknown",
                reason="number-field reduction limited to degree <= 3 "
                "extensions and total degree <= 8",
            )
        return _norm_test(f, zvar, tvar)
    return IrreducibilityResult(
        "unknown", reason=f"no decision procedure over {field}"
    )


def _univariate_case(f, var):
    try:
        fact = univariate_factor(f, var=var)
    except FactorizationError as exc:
        return IrreducibilityResult("unknown", reason=str(exc))
    nontrivial = [(g, m) for g, m in fact.factors if g.total_degree() >= 1]
    if not fact.complete:
        return IrreducibilityResult("unknown", reason="partial factorization")
    if len(nontrivial) == 1 and nontrivial[0][1] == 1:
        return IrreducibilityResult("irreducible")
    return IrreducibilityResult("reducible", witness=nontrivial[0][0])


# ---------------------------------------------------------------------------
# Kronecker substitution over Q and F_p
# ---------------------------------------------------------------------------


def _kronecker_map(f, zvar, tvar, e):
    """f(Z, Z^e) as a univariate polynomial in zvar."""
    iz = f.vars.index(zvar)
    it = f.vars.index(tvar)
    add = f.field.raw_add
    terms = {}
    for exp, c in f.terms.items():
        n = exp[iz] + e * exp[it]
        ne = [0] * len(f.vars)
        ne[iz] = n
        key = tuple(ne)
        terms[key] = add(terms[key], c) if key in terms else c
    return MultiPoly(f.field, f.vars, terms)


def _kronecker_unmap(g, zvar, tvar, e):
    iz = g.vars.index(zvar)
    it = g.vars.index(tvar)
    terms = {}
    for exp, c in g.terms.items():
        n = exp[iz]
        ne = list(exp)
        ne[iz] = n % e
        ne[it] = n // e
        terms[tuple(ne)] = c
    return MultiPoly(g.field, g.vars, terms)


def _sub_multisets(items):
    """Proper nonempty sub-multisets, by increasing size, no duplicates."""
    import itertools

    seen = set()
    for size in range(1, len(items)):
        for combo in itertools.combinations(range(len(items)), size):
            key = tuple(sorted(str(items[i]) for i in combo))
            if key in seen:
                continue
            seen.add(key)
            yield [items[i] for i in combo]


def _kronecker_test(f, zvar, tvar):
    if f.degree_in(zvar) > f.degree_in(tvar):
        zvar, tvar = tvar, zvar
    e = f.degree_in(zvar) + 1
    fhat = _kronecker_map(f, zvar, tvar, e)
    fact = univariate_factor(fhat, var=zvar)
    items = []
    for g, m in fact.factors:
        if g.total_degree() >= 1:
            items.extend([g] * m)
    if len(items) == 1:
        return IrreducibilityResult("irreducible")
    for subset in _sub_multisets(items):
        cand = subset[0]
        for g in subset[1:]:
            cand = cand * g
        cand = _kronecker_unmap(cand, zvar, tvar, e)
        if cand.is_constant():
            continue
        try:
            quo = exact_divide(f, cand)
        except PolynomialError:
            continue
        if not quo.is_constant():
            return IrreducibilityResult("reducible", witness=cand)
    return IrreducibilityResult("irreducible")


def kronecker_factor(f, zvar, tvar):
    """Irreducible factorization (list of factors, with repetition) over Q or
    F_p by repeated Kronecker splitting.  Exponential worst case; intended for
    small inputs."""
    res = _kronecker_test(f, zvar, tvar) if (
        f.degree_in(zvar) > 0 and f.degree_in(tvar) > 0
    ) else _univariate_case(f, zvar if f.degree_in(zvar) > 0 else tvar)
    if res.is_irreducible:
        return [f]
    if res.is_unknown:
        raise PolynomialError("factorization failed")
    witness = res.witness
    rest = exact_divide(f, witness)
    return kronecker_factor(witness, zvar, tvar) + kronecker_factor(
        rest, zvar, tvar
    )


# ---------------------------------------------------------------------------
# bivariate gcd by a primitive polynomial remainder sequence
# ---------------------------------------------------------------------------


def _content_in(f, main_var, coeff_var):
    coeffs = [c for c in f.as_univariate(main_var) if not c.is_zero()]
    g = coeffs[0]
    for c in coeffs[1:]:
        g = univariate_gcd(g, c, coeff_var)
        if g.is_constant():
            break
    return g.monic() if not g.is_constant() else MultiPoly.one(f.field, f.vars)


def bivariate_gcd(f, g, main_var, coeff_var):
    """Monic-content gcd in K[coeff_var][main_var] via a primitive PRS."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    cf = _content_in(f, main_var, coeff_var)
    cg = _content_in(g, main_var, coeff_var)
    content = univariate_gcd(cf, cg, coeff_var) if not (
        cf.is_constant() and cg.is_constant()
    ) else MultiPoly.one(f.field, f.vars)
    a = exact_divide(f, cf) if not cf.is_constant() else f
    b = exact_divide(g, cg) if not cg.is_constant() else g
    if a.degree_in(main_var) < b.degree_in(main_var):
        a, b = b, a
    while not b.is_zero() and b.degree_in(main_var) >= 0:
        if b.degree_in(main_var) == 0:
            # nonzero constant in main var: primitive parts are coprime
            a = MultiPoly.one(f.field, f.vars)
            b = MultiPoly.zero(f.field, f.vars)
            break
        r = _pseudo_remainder(a, b, main_var)
        if r.is_zero():
            a = b
            b = MultiPoly.zero(f.field, f.vars)
            break
        cr = _content_in(r, main_var, coeff_var)
        r = exact_divide(r, cr) if not cr.is_constant() else r
        a, b = b, r
    prim = a
    if not prim.is_constant():
        # normalize: make the leading main_var coefficient monic if constant
        lead = prim.as_univariate(main_var)[-1]
        if lead.is_constant():
            prim = prim.scale(lead.constant_value().inv())
    else:
        prim = MultiPoly.one(f.field, f.vars)
    return prim * content


def _pseudo_remainder(a, b, main_var):
    db = b.degree_in(main_var)
    lb = b.as_univariate(main_var)[-1]
    r = a
    iv = a.vars.index(main_var)
    while not r.is_zero() and r.degree_in(main_var) >= db:
        dr = r.degree_in(main_var)
        lr = r.as_univariate(main_var)[-1]
        shift_exp = [0] * len(a.vars)
        shift_exp[iv] = dr - db
        shift = MultiPoly(a.field, a.vars, {tuple(shift_exp): a.field.raw_one()})
        r = r * lb - lr * shift * b
    return r


# ---------------------------------------------------------------------------
# number-field reduction through the norm
# ---------------------------------------------------------------------------


def _resultant_in_generator(f, field):
    """Res_g(minpoly(g), f) where f's coefficients are written as polynomials
    in the generator g with rational bivariate coefficients."""
    base = field.base
    m = field.minpoly  # dense over base, monic, degree n
    n = field.deg
    # write f = sum_j f_j * g^j with f_j over the base field
    layers = [dict() for _ in range(n)]
    for exp, c in f.terms.items():
        for j, cj in enumerate(c):
            layers[j][exp] = cj
    fj = [MultiPoly(base, f.vars, layer) for layer in layers]
    deg_f = max((j for j in range(n) if not fj[j].is_zero()), default=0)
    # Sylvester matrix of m (degree n) and f (degree deg_f in g)
    size = n + deg_f
    mat = [[MultiPoly.zero(base, f.vars) for _ in range(size)] for _ in range(size)]
    m_coeffs = [MultiPoly.constant(base, f.vars, base.element(c)) for c in m]
    for row in range(deg_f):
        for k, c in enumerate(m_coeffs):
            mat[row][row + (len(m_coeffs) - 1 - k)] = c
    f_coeffs = [fj[deg_f - k] for k in range(deg_f + 1)]
    for row in range(n):
        for k, c in enumerate(f_coeffs):
            mat[deg_f + row][row + k] = c
    return _poly_det(mat, base, f.vars)


def _poly_det(mat, field, vars):
    n = len(mat)
    if n == 0:
        return MultiPoly.one(field, vars)
    if n == 1:
        return mat[0][0]
    det = MultiPoly.zero(field, vars)
    sign = 1
    for j in range(n):
        if mat[0][j].is_zero():
            sign = -sign
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in mat[1:]]
        term = mat[0][j] * _poly_det(minor, field, vars)
        det = det + term if sign > 0 else det - term
        sign = -sign
    return det


def _norm_test(f, zvar, tvar):
    field = f.field
    base = field.base
    emb = Embedding(base, field)
    gen = field.generator()

    # reducibility via repeated factors is cheap to check first
    for v in (zvar, tvar):
        d = f.partial_derivative(v)
        if d.is_zero():
            continue
        g = bivariate_gcd(f, d, v, tvar if v == zvar else zvar)
        if not g.is_constant() and g.total_degree() < f.total_degree():
            if divides(g, f):
                return IrreducibilityResult("reducible", witness=g)

    z = MultiPoly.variable(field, f.vars, zvar)
    gen_const = MultiPoly.constant(field, f.vars, gen)
    for c in (0, 1, -1, 2, -2, 3, -3):
        shifted = f.substitute({zvar: z + gen_const.scale(field.from_int(c))}) if c else f
        norm = _resultant_in_generator(shifted, field)
        if norm.is_zero():
            continue
        if norm.total_degree() > _NORM_DEGREE_CAP:
            return IrreducibilityResult(
                "unknown", reason="norm degree exceeds the internal cap"
            )
        if not _is_squarefree_bivariate(norm, zvar, tvar):
            continue
        d1 = min(norm.degree_in(zvar), norm.degree_in(tvar))
        d2 = max(norm.degree_in(zvar), norm.degree_in(tvar))
        if d1 + (d1 + 1) * d2 > _NORM_KRONECKER_CAP:
            return IrreducibilityResult(
                "unknown", reason="norm too large for Kronecker factorization"
            )
        try:
            factors = kronecker_factor(norm, zvar, tvar)
        except PolynomialError:
            return IrreducibilityResult("unknown", reason="norm factorization failed")
        factors = [g for g in factors if not g.is_constant()]
        for p in factors:
            p_up = p.map_coefficients(emb, field)
            if divides(shifted, p_up):
                return IrreducibilityResult("irreducible")
        # f is reducible: extract a witness through a gcd with some factor
        for p in factors:
            p_up = p.map_coefficients(emb, field)
            w = bivariate_gcd(shifted, p_up, tvar, zvar)
            if not w.is_constant() and w.total_degree() < shifted.total_degree():
                unshift = w.substitute(
                    {zvar: z - gen_const.scale(field.from_int(c))}
                ) if c else w
                if divides(unshift, f):
                    return IrreducibilityResult("reducible", witness=unshift)
        return IrreducibilityResult(
            "unknown", reason="norm split found but no verified witness"
        )
    return IrreducibilityResult("unknown", reason="no squarefree norm shift found")


def _is_squarefree_bivariate(f, zvar, tvar):
    for v, other in ((zvar, tvar), (tvar, zvar)):
        d = f.partial_derivative(v)
        if d.is_zero():
            continue
        g = bivariate_gcd(f, d, v, other)
        if not g.is_constant():
            return False
    return True
