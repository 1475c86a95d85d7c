"""Bivariate irreducibility testing.

Two certificates run before the complete procedures; f has its content
removed in both directions by then, so it is primitive both ways.

* Linear in one variable (every field): if deg_Z f = 1 or deg_T f = 1, f is
  irreducible, since a split leaves one factor of degree 0 in that variable,
  and that factor divides the content, which is 1.
* Hilbert specialization (K = Q(g) only): if f(Z, t0) keeps the Z-degree of
  f and is irreducible in K[Z], then so is f, since a split of f keeps both
  Z-degrees at t0.  f(Z, t0) is irreducible over K when its norm
  Res_g(minpoly, f(Z + c*g, t0)) is irreducible over Q, since a factor over K
  would give a factor of the norm.  Both variable roles, t0 in 0, 1, -1, 2, -2
  and c in 0, 1, -1 are tried.

Over the rationals and prime fields the complete test is exhaustive Kronecker
substitution: factor the univariate image f(Z, Z^e) once and try to un-map
its sub-products, smallest first, as genuine bivariate divisors.

Over a quadratic or cubic number field K = Q(g) the question is reduced to
the rationals through the norm N = Res_g(minpoly, f_c) of a shift
f_c = f(Z + c*g, T), with c tried in the order 0, 1, -1, 2, -2, 3, -3 until N
is squarefree (Trager).  A shift whose coefficients all lie in Q has norm
f_c^[K:Q] and is skipped.  One factorization of the image of N serves twice:
it certifies N squarefree and is recombined into N's irreducible factors.  The
certificate: write N = Z^a*T^b*M with M free of monomial factors; a repeated
factor of M is not a monomial, so neither is its image, and its square would
show in the image factorization.  Hence a, b <= 1 and simple image factors
apart from Z prove N squarefree; without that proof the exact gcd test
decides.  Beyond the configured bounds the answer is Unknown, never a guess.
"""

from __future__ import annotations

import itertools

from ..fields import Embedding, ExtensionField, PrimeField, RationalField
from .factor import FactorizationError, univariate_factor
from .multipoly import (
    MultiPoly,
    PolynomialError,
    content_free_part,
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
            content, prim = content_free_part(f, (main,))
            if not content.is_constant():
                return IrreducibilityResult("reducible", witness=content)
            f = prim

    dz, dt = f.degree_in(zvar), f.degree_in(tvar)
    if dz == 0 or dt == 0:
        return _univariate_case(f, zvar if dz > 0 else tvar)
    if dz == 1 or dt == 1:
        return IrreducibilityResult("irreducible")

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
        if _specialization_certifies(f, zvar, tvar):
            return IrreducibilityResult("irreducible")
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


def _kronecker_image(f, zvar, tvar):
    """(zvar, tvar, e, factorization of f(Z, Z^e)).

    The returned ``zvar`` is the variable of lower degree in f (the first one
    on a tie) and e is one more than that degree, so the map is injective on
    the monomials of every divisor of f.
    """
    if f.degree_in(zvar) > f.degree_in(tvar):
        zvar, tvar = tvar, zvar
    e = f.degree_in(zvar) + 1
    return zvar, tvar, e, univariate_factor(_kronecker_map(f, zvar, tvar, e), var=zvar)


def _recombine(f, image, limit=None):
    """Irreducible factors of f, with repetition, from one factorization of
    its Kronecker image: the factors multiply to f.

    Sub-multisets of the image factors are tried by increasing size, in
    combination order; each one whose un-mapped product divides the cofactor
    is split off and its image factors are removed, as in Zassenhaus
    recombination.  A divisor found at the smallest size is irreducible, and
    once 2*size exceeds the image factors left the cofactor is irreducible
    too.  With ``limit`` the search stops after that many divisors, so
    ``limit=1`` yields f's first irreducible divisor and its cofactor.
    """
    zvar, tvar, e, fact = image
    items = [(i, g) for i, (g, m) in enumerate(fact.factors) for _ in range(m)]
    found = []
    size = 1
    while 2 * size <= len(items) and len(found) != limit:
        split = _split_off(f, items, size, zvar, tvar, e)
        if split is None:
            size += 1
            continue
        cand, f, used = split
        found.append(cand)
        items = [item for k, item in enumerate(items) if k not in used]
    return found + [f]


def _split_off(f, items, size, zvar, tvar, e):
    """(divisor, cofactor, used item positions) for the first size-element
    sub-multiset of ``items`` whose un-mapped product divides f, or None."""
    dz, dt = f.degree_in(zvar), f.degree_in(tvar)
    seen = set()
    for combo in itertools.combinations(range(len(items)), size):
        key = tuple(items[k][0] for k in combo)
        if key in seen:
            continue
        seen.add(key)
        cand = items[combo[0]][1]
        for k in combo[1:]:
            cand = cand * items[k][1]
        cand = _kronecker_unmap(cand, zvar, tvar, e)
        if cand.degree_in(zvar) > dz or cand.degree_in(tvar) > dt:
            continue
        try:
            quo = exact_divide(f, cand)
        except PolynomialError:
            continue
        return cand, quo, set(combo)
    return None


def _kronecker_test(f, zvar, tvar):
    factors = _recombine(f, _kronecker_image(f, zvar, tvar), limit=1)
    if len(factors) == 1:
        return IrreducibilityResult("irreducible")
    return IrreducibilityResult("reducible", witness=factors[0])


def kronecker_factor(f, zvar, tvar):
    """Irreducible factorization (list of factors, with repetition, whose
    product is f) of a nonconstant f over Q or F_p, from one factorization of
    its Kronecker image.  Exponential worst case; intended for small inputs."""
    return _recombine(f, _kronecker_image(f, zvar, tvar))


# ---------------------------------------------------------------------------
# bivariate gcd by a primitive polynomial remainder sequence
# ---------------------------------------------------------------------------


def _lead_in(f, var):
    """The coefficient of the highest power of ``var`` in f."""
    return f.coefficients((var,))[(f.degree_in(var),)]


def _content_in(f, main_var, coeff_var):
    coeffs = list(f.coefficients((main_var,)).values())
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
        lead = _lead_in(prim, main_var)
        if lead.is_constant():
            prim = prim.scale(lead.constant_value().inv())
    else:
        prim = MultiPoly.one(f.field, f.vars)
    return prim * content


def _pseudo_remainder(a, b, main_var):
    db = b.degree_in(main_var)
    lb = _lead_in(b, main_var)
    r = a
    iv = a.vars.index(main_var)
    while not r.is_zero() and r.degree_in(main_var) >= db:
        dr = r.degree_in(main_var)
        lr = _lead_in(r, main_var)
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


_SPECIALIZATIONS = (0, 1, -1, 2, -2)
_SPECIALIZATION_SHIFTS = (0, 1, -1)


def _specialization_certifies(f, zvar, tvar):
    """True when a univariate norm of some f(main, t0) proves f irreducible
    over K = Q(g); False means undecided.  f must be primitive both ways.

    A t0 at which the leading coefficient in ``main`` vanishes is skipped, and
    so is one where f(main, t0) has a repeated factor.  A squarefree norm that
    splits proves f(main, t0) reducible (Trager), so the remaining shifts of
    that t0 are not tried.
    """
    field = f.field
    gen = MultiPoly.constant(field, f.vars, field.generator())
    for main, other in ((zvar, tvar), (tvar, zvar)):
        x = MultiPoly.variable(field, f.vars, main)
        for t0 in _SPECIALIZATIONS:
            g = f.substitute({other: MultiPoly.constant(field, f.vars, t0)})
            if g.degree_in(main) < f.degree_in(main):
                continue
            if not univariate_gcd(g, g.partial_derivative(main), main).is_constant():
                continue
            for c in _SPECIALIZATION_SHIFTS:
                shifted = (g.substitute({main: x + gen.scale(field.from_int(c))}) if c else g).monic()
                if _in_base_field(shifted):
                    continue
                try:
                    fact = univariate_factor(_resultant_in_generator(shifted, field), var=main)
                except FactorizationError:
                    continue
                if len(fact.factors) == 1 and fact.factors[0][1] == 1:
                    return True
                if all(m == 1 for _, m in fact.factors):
                    break
    return False


_SHIFTS = (0, 1, -1, 2, -2, 3, -3)


def _norm_test(f, zvar, tvar):
    # c runs through _SHIFTS in order until N(f_c) is squarefree; a shift with
    # base-field coefficients has norm f_c^[K:Q] and is skipped.  Squarefree
    # certificate: a repeated non-monomial factor of N = Z^a*T^b*M shows squared
    # in the factorization of N(Z, Z^e), so a, b <= 1 and simple image factors
    # other than Z prove N squarefree.  A squarefree N(f_c) makes f squarefree,
    # so the repeated-factor gcds of f run once, at the first norm that is not
    # squarefree, or before an unknown verdict when none has been seen.
    field = f.field
    emb = Embedding(field.base, field)
    gen = field.generator()

    z = MultiPoly.variable(field, f.vars, zvar)
    gen_const = MultiPoly.constant(field, f.vars, gen)
    checked = False  # whether the repeated-factor gcds of f have run
    for c in _SHIFTS:
        shifted = f.substitute({zvar: z + gen_const.scale(field.from_int(c))}) if c else f
        if _in_base_field(shifted):
            if field.deg * shifted.total_degree() > _NORM_DEGREE_CAP:
                return _unknown(f, zvar, tvar, "norm degree exceeds the internal cap", checked)
            continue
        norm = _resultant_in_generator(shifted, field)
        if norm.is_zero():
            continue
        if norm.total_degree() > _NORM_DEGREE_CAP:
            return _unknown(f, zvar, tvar, "norm degree exceeds the internal cap", checked)
        d1 = min(norm.degree_in(zvar), norm.degree_in(tvar))
        d2 = max(norm.degree_in(zvar), norm.degree_in(tvar))
        image = None
        if d1 + (d1 + 1) * d2 <= _NORM_KRONECKER_CAP:
            image = _kronecker_image(norm, zvar, tvar)
        if not (
            image is not None and _image_certifies_squarefree(norm, image)
            or _is_squarefree_bivariate(norm, zvar, tvar)
        ):
            if not checked:
                checked = True
                witness = _repeated_factor(f, zvar, tvar)
                if witness is not None:
                    return IrreducibilityResult("reducible", witness=witness)
            continue
        if image is None:
            return _unknown(
                f, zvar, tvar, "norm too large for Kronecker factorization", checked
            )
        factors = _recombine(norm, image)
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
        return _unknown(f, zvar, tvar, "norm split found but no verified witness", checked)
    return _unknown(f, zvar, tvar, "no squarefree norm shift found", checked)


def _in_base_field(f):
    """True when every coefficient of f (over an extension) lies in the base."""
    is_zero = f.field.base.raw_is_zero
    return all(is_zero(x) for c in f.terms.values() for x in c[1:])


def _image_certifies_squarefree(norm, image):
    """True when the Kronecker image factorization proves ``norm`` squarefree:
    its monomial content Z^a*T^b has a, b <= 1 and every image factor other
    than the variable is simple.  False means undecided, not repeated."""
    zvar, tvar, _, fact = image
    iz, it = norm.vars.index(zvar), norm.vars.index(tvar)
    if min(exp[iz] for exp in norm.terms) > 1 or min(exp[it] for exp in norm.terms) > 1:
        return False
    return all(m == 1 for g, m in fact.factors if len(g.terms) > 1)


def _unknown(f, zvar, tvar, reason, checked):
    """An unknown verdict, or reducible when f has a repeated factor; with
    ``checked`` the gcds have already run and found none."""
    witness = None if checked else _repeated_factor(f, zvar, tvar)
    if witness is not None:
        return IrreducibilityResult("reducible", witness=witness)
    return IrreducibilityResult("unknown", reason=reason)


def _repeated_factor(f, zvar, tvar):
    """A proper divisor of f from its repeated-factor gcds, or None."""
    for g in _derivative_gcds(f, zvar, tvar):
        if g.total_degree() < f.total_degree() and divides(g, f):
            return g
    return None


def _is_squarefree_bivariate(f, zvar, tvar):
    return next(_derivative_gcds(f, zvar, tvar), None) is None


def _derivative_gcds(f, zvar, tvar):
    """The nonconstant gcds of f with its nonzero partial derivatives."""
    for v, other in ((zvar, tvar), (tvar, zvar)):
        d = f.partial_derivative(v)
        if d.is_zero():
            continue
        g = bivariate_gcd(f, d, v, other)
        if not g.is_constant():
            yield g
