"""Bivariate irreducibility testing.

Three certificates run before the complete procedures; f has its content
removed in both directions by then, so it is primitive both ways.

* Linear in one variable (every field): if deg_Z f = 1 or deg_T f = 1, f is
  irreducible, since a split leaves one factor of degree 0 in that variable,
  and that factor divides the content, which is 1.
* Degree patterns (Q, F_p and K = Q(g), after the degree caps; Musser's
  degree-compatibility test): reduce f at a prime of degree 1 of K and set
  T = t0.  When the image keeps deg_Z f, the Z-degree of a factor of f is a
  degree sum of the image's irreducible factors over F_p, counted with
  multiplicity; when the sums of several images have no value strictly
  between 0 and deg_Z f in common, f is irreducible.  The same runs with T as
  the main variable.  The degrees come from the squarefree and distinct-degree
  factorizations over F_p alone, and at most ``_PATTERN_BUDGET``
  specializations are tried per variable; then the next procedure decides.
* Hilbert specialization (K = Q(g) only): if f(Z, t0) keeps the Z-degree of
  f and is irreducible in K[Z], then so is f, since a split of f keeps both
  Z-degrees at t0.  f(Z, t0) is irreducible over K when its norm
  Res_g(minpoly, f(Z + c*g, t0)) is irreducible over Q, since a factor over K
  would give a factor of the norm.  Both variable roles, t0 in 0, 1, -1, 2, -2
  and c in 0, 1, -1 are tried.  Some inputs need it: the degree patterns of
  Z^6 + (2 - g)*T^3 over K = Q(2^(1/3)) never close, and its norm exceeds the
  cap.

Over the rationals and prime fields the complete test is exhaustive Kronecker
substitution: factor the univariate image f(Z, Z^e) once and try to un-map
its sub-products, smallest first, as genuine bivariate divisors, through the
subset search :func:`rect4.polynomials.factor.recombine` that the rational
factorizer uses too.

Over a quadratic or cubic number field K = Q(g) the question is reduced to
the rationals by Trager's algorithm: the norm N = Res_g(minpoly, f_c) of a
shift f_c = f(Z + c*g, T), with c tried in the order 0, 1, -1, 2, -2, 3, -3
until N is squarefree.  A shift keeps the total and partial degrees of f, and
N has [K:Q] times each of them, so the norm degree cap and the cap on N's
Kronecker image are read off f before any norm is taken.  The minimal
polynomial is monic, so every norm, here and in the specialization
certificate, is the determinant of multiplication by f_c on K over the basis
1, g, ..., g^(n-1): an n x n matrix over Q[Z, T] for n = [K:Q] <= 3.  A shift
whose coefficients all lie in Q has norm f_c^[K:Q] and is skipped.  One
factorization of the image of N serves twice: it certifies N squarefree and
is recombined into N's first irreducible factor.  The certificate: write
N = Z^a*T^b*M with M free of monomial factors; a repeated factor of M is not a
monomial, so neither is its image, and its square would show in the image
factorization.  Hence a, b <= 1 and simple image factors apart from Z prove N
squarefree; without that proof the exact gcd test decides.  A squarefree N
makes f_c the product of its gcds with the irreducible factors of N, one
irreducible gcd per factor, so the first factor is enough: f is irreducible
when N is, and otherwise the gcd of f_c with that factor, un-shifted, is a
witness.  Beyond the configured bounds the answer is Unknown, never a guess.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .. import dense
from ..fields import Embedding, ExtensionField, PrimeField, RationalField
from .factor import FactorizationError, recombine, univariate_factor
from .factor import _p_distinct_degree, _p_squarefree_decomposition
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
_PATTERN_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
_PATTERN_BUDGET = 6  # specializations per variable role


@dataclass
class IrreducibilityResult:
    """status: "irreducible" | "reducible" | "unknown"; ``witness`` is a
    verified nontrivial factor in the reducible case."""

    status: str
    witness: MultiPoly = None
    reason: str = None

    @property
    def is_irreducible(self):
        return self.status == "irreducible"

    @property
    def is_reducible(self):
        return self.status == "reducible"

    @property
    def is_unknown(self):
        return self.status == "unknown"


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
        if _degree_pattern_certifies(f, zvar, tvar):
            return IrreducibilityResult("irreducible")
        return _kronecker_test(f, zvar, tvar)
    if isinstance(field, ExtensionField) and isinstance(field.base, RationalField):
        if field.deg > 3 or f.total_degree() > 8:
            return IrreducibilityResult(
                "unknown",
                reason="number-field reduction limited to degree <= 3 "
                "extensions and total degree <= 8",
            )
        if _degree_pattern_certifies(f, zvar, tvar) or _specialization_certifies(f, zvar, tvar):
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
# factor degrees of specializations mod p (Musser)
# ---------------------------------------------------------------------------


def _degree_pattern_certifies(f, zvar, tvar):
    """True when the factor degrees of specializations mod p prove f
    irreducible; False means undecided.  f must be primitive both ways.

    Take main = Z (then T) with d = deg_Z f.  A split f = g*h has
    0 < deg_Z g < d.  Reduce f at a degree-1 prime of K, whose valuation ring
    holds its coefficients, and set T = t0; when the image keeps the Z-degree
    d, Gauss's lemma over that ring maps the split to one of the image, so
    deg_Z g is the degree sum of a sub-multiset of the image's irreducible
    factors over F_p.  When no value in 1..d-1 is such a sum at every image,
    f is irreducible.  An image whose degree drops says nothing and is
    skipped.  At most ``_PATTERN_BUDGET`` points are tried per role: point k
    reduces at the k-th usable place of :func:`_pattern_places`, cyclically,
    and takes t0 = k mod p.
    """
    reduced = (_reduce_at(f, F, r) for F, r in _pattern_places(f.field))
    images = list(itertools.islice(filter(None, reduced), _PATTERN_BUDGET))
    iz, it = f.vars.index(zvar), f.vars.index(tvar)
    for main, other in ((iz, it), (it, iz)):
        d = max(exp[main] for exp in f.terms)
        sums = (1 << (d + 1)) - 1
        for k, (F, terms) in zip(range(_PATTERN_BUDGET), itertools.cycle(images)):
            if k >= F.p * len(images):
                continue  # the same place and t0 mod p as an earlier point
            coeffs = [0] * (d + 1)
            for exp, c in terms:
                coeffs[exp[main]] += c * pow(k, exp[other], F.p)
            image = dense.trim(F, [c % F.p for c in coeffs])
            if len(image) == d + 1:
                sums &= _degree_sums(F, image)
                if not sums & ((1 << d) - 2):
                    return True
    return False


@functools.lru_cache(maxsize=256)
def _pattern_places(field):
    """The places (F_p, r) at which :func:`_degree_pattern_certifies` reduces
    over ``field``: (F_p, None) for F_p itself and for Q at the primes of
    ``_PATTERN_PRIMES``; over K = Q(g) the pairs of such a p, dividing no
    denominator of the minimal polynomial m, and a simple root r of m mod p.
    At a simple root, (p, g - r) is a prime of Z_(p)[g] of degree 1 whose
    localization is a discrete valuation ring, so g -> r reduces into F_p."""
    if isinstance(field, PrimeField):
        return ((field, None),)
    if isinstance(field, RationalField):
        return tuple((PrimeField(p), None) for p in _PATTERN_PRIMES)
    places = []
    for F in map(PrimeField, _PATTERN_PRIMES):
        m = [_rational_mod(c, F.p) for c in field.minpoly]
        if None not in m:
            dm = dense.deriv(F, m)
            places += [(F, r) for r in range(F.p) if not dense.eval(F, m, r) and dense.eval(F, dm, r)]
    return tuple(places)


def _rational_mod(c, p):
    """The rational c mod p, or None when p divides its denominator."""
    if c.denominator % p == 0:
        return None
    return c.numerator * pow(c.denominator, -1, p) % p


def _reduce_at(f, F, r):
    """(F, [(exponents, c mod p)]) for f reduced at the place (F = F_p, r),
    or None when p divides a denominator of a coefficient."""
    if isinstance(f.field, PrimeField):
        return F, list(f.terms.items())
    terms = []
    for exp, c in f.terms.items():
        # over Q(g) the coordinates of c in 1, g, ..., evaluated at g = r
        parts = [_rational_mod(x, F.p) for x in (c if r is not None else (c,))]
        if None in parts:
            return None
        terms.append((exp, dense.eval(F, parts, r or 0)))
    return F, terms


def _degree_sums(F, a):
    """The bitmask whose bit n is set when n is the degree sum of a
    sub-multiset of the irreducible factors of the dense polynomial a over
    F_p, with multiplicity: from the squarefree decomposition and the
    distinct-degree factorization, without splitting equal degrees."""
    sums = 1
    for g, m in _p_squarefree_decomposition(F, a):
        for h, k in _p_distinct_degree(F, g):
            for _ in range(m * (len(h) - 1) // k):
                sums |= sums << k
    return sums


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

    :func:`~rect4.polynomials.factor.recombine` tries the sub-multisets of
    the image factors; one whose un-mapped product divides the cofactor is
    split off.  With ``limit`` the search stops after that many divisors, so
    ``limit=1`` yields f's first irreducible divisor and its cofactor.
    """
    zvar, tvar, e, fact = image

    def split(cofactor, factors):
        cand = _kronecker_unmap(functools.reduce(operator.mul, factors), zvar, tvar, e)
        if any(cand.degree_in(v) > cofactor.degree_in(v) for v in (zvar, tvar)):
            return None
        try:
            return cand, exact_divide(cofactor, cand)
        except PolynomialError:
            return None

    items = [(i, g) for i, (g, m) in enumerate(fact.factors) for _ in range(m)]
    found, f = recombine(f, items, split, limit)
    return found + [f]


def _kronecker_test(f, zvar, tvar):
    factors = _recombine(f, _kronecker_image(f, zvar, tvar), limit=1)
    if len(factors) == 1:
        return IrreducibilityResult("irreducible")
    return IrreducibilityResult("reducible", witness=factors[0])


# ---------------------------------------------------------------------------
# bivariate gcd by a primitive polynomial remainder sequence
# ---------------------------------------------------------------------------


def _lead_in(f, var):
    """The coefficient of the highest power of ``var`` in f."""
    return f.coefficients((var,))[(f.degree_in(var),)]


def bivariate_gcd(f, g, main_var, coeff_var):
    """Monic-content gcd in K[coeff_var][main_var] via a primitive PRS."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    cf, a = content_free_part(f, (main_var,))
    cg, b = content_free_part(g, (main_var,))
    content = univariate_gcd(cf, cg, coeff_var)
    if a.degree_in(main_var) < b.degree_in(main_var):
        a, b = b, a
    while not b.is_zero():
        if b.degree_in(main_var) == 0:
            # nonzero constant in main var: primitive parts are coprime
            return content
        a, b = b, content_free_part(_pseudo_remainder(a, b, main_var), (main_var,))[1]
    # normalize: make the leading main_var coefficient monic if constant
    lead = _lead_in(a, main_var)
    if lead.is_constant():
        a = a.scale(lead.constant_value().inv())
    return a * content


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
    in the generator g with rational bivariate coefficients.

    The minimal polynomial is monic, so this is the norm prod f(alpha_i): the
    determinant of multiplication by f on K over the basis 1, g, ...,
    g^(n-1), whose column j holds the base layers of f*g^j.
    """
    base, n = field.base, field.deg
    multiples = [f]
    for _ in range(1, n):
        multiples.append(multiples[-1].scale(field.generator()))
    columns = [
        [MultiPoly(base, f.vars, {exp: c[i] for exp, c in h.terms.items()}) for i in range(n)]
        for h in multiples
    ]
    return _poly_det(columns, base, f.vars)


def _poly_det(mat, field, vars):
    """The determinant of a nonempty square matrix of polynomials, by
    cofactor expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    det = MultiPoly.zero(field, vars)
    for j, entry in enumerate(mat[0]):
        if not entry.is_zero():
            term = entry * _poly_det([row[:j] + row[j + 1:] for row in mat[1:]], field, vars)
            det = det - term if j % 2 else det + term
    return det


_SPECIALIZATIONS = (0, 1, -1, 2, -2)
_SHIFTS = (0, 1, -1, 2, -2, 3, -3)


def _shift(g, var, c):
    """g(var + c*gen) over K = Q(gen)."""
    if not c:
        return g
    field = g.field
    shift = MultiPoly.constant(field, g.vars, field.from_int(c) * field.generator())
    return g.substitute({var: MultiPoly.variable(field, g.vars, var) + shift})


def _shifted_norms(g, var, shifts):
    """(c, g_c, N(g_c)) for g_c = g(var + c*gen), c in ``shifts`` in order.

    A g_c whose coefficients all lie in Q has norm g_c^[K:Q], never
    squarefree, and is skipped.
    """
    is_zero = g.field.base.raw_is_zero
    for c in shifts:
        g_c = _shift(g, var, c)
        if not all(is_zero(x) for coeff in g_c.terms.values() for x in coeff[1:]):
            yield c, g_c, _resultant_in_generator(g_c, g.field)


def _specialization_certifies(f, zvar, tvar):
    """True when a univariate norm of some f(main, t0) proves f irreducible
    over K = Q(g); False means undecided.  f must be primitive both ways.

    A t0 at which the leading coefficient in ``main`` vanishes is skipped, and
    so is one where f(main, t0) has a repeated factor.  A squarefree norm that
    splits proves f(main, t0) reducible (Trager), so the remaining shifts of
    that t0 are not tried.
    """
    for main, other in ((zvar, tvar), (tvar, zvar)):
        for t0 in _SPECIALIZATIONS:
            g = f.substitute({other: MultiPoly.constant(f.field, f.vars, t0)})
            if g.degree_in(main) < f.degree_in(main):
                continue
            if not univariate_gcd(g, g.partial_derivative(main), main).is_constant():
                continue
            for _, _, norm in _shifted_norms(g.monic(), main, _SHIFTS[:3]):
                try:
                    fact = univariate_factor(norm, var=main)
                except FactorizationError:
                    continue
                if len(fact.factors) == 1 and fact.factors[0][1] == 1:
                    return True
                if all(m == 1 for _, m in fact.factors):
                    break
    return False


def _norm_test(f, zvar, tvar):
    """Trager's algorithm on f over K = Q(g), primitive both ways.

    N(f_c) has [K:Q] times each degree of f, so both caps are read off f
    before any norm is taken.  The first squarefree N(f_c) decides: f_c is
    the product of its gcds with the irreducible factors of N(f_c), so f is
    irreducible when N(f_c) is, and otherwise the gcd with the first factor,
    un-shifted, is a witness.  The repeated-factor gcds of f run once, when
    the first norm is not squarefree: a squarefree norm returns.
    """
    n = f.field.deg
    if n * f.total_degree() > _NORM_DEGREE_CAP:
        return _unknown(f, zvar, tvar, "norm degree exceeds the internal cap")
    d1, d2 = sorted(n * f.degree_in(v) for v in (zvar, tvar))
    if d1 + (d1 + 1) * d2 > _NORM_KRONECKER_CAP:
        return _unknown(f, zvar, tvar, "norm too large for Kronecker factorization")
    for k, (c, shifted, norm) in enumerate(_shifted_norms(f, zvar, _SHIFTS)):
        image = _kronecker_image(norm, zvar, tvar)
        if _image_certifies_squarefree(norm, image) or _repeated_factor(norm, zvar, tvar) is None:
            factors = _recombine(norm, image, limit=1)
            if len(factors) == 1:
                return IrreducibilityResult("irreducible")
            first = factors[0].embed(Embedding(f.field.base, f.field))
            witness = _shift(bivariate_gcd(shifted, first, tvar, zvar), zvar, -c)
            if 0 < witness.total_degree() < f.total_degree() and divides(witness, f):
                return IrreducibilityResult("reducible", witness=witness)
            return IrreducibilityResult("unknown", reason="norm split found but no verified witness")
        if not k:
            witness = _repeated_factor(f, zvar, tvar)
            if witness is not None:
                return IrreducibilityResult("reducible", witness=witness)
    return IrreducibilityResult("unknown", reason="no squarefree norm shift found")


def _image_certifies_squarefree(norm, image):
    """True when the Kronecker image factorization proves ``norm`` squarefree:
    its monomial content Z^a*T^b has a, b <= 1 and every image factor other
    than the variable is simple.  False means undecided, not repeated."""
    zvar, tvar, _, fact = image
    iz, it = norm.vars.index(zvar), norm.vars.index(tvar)
    if min(exp[iz] for exp in norm.terms) > 1 or min(exp[it] for exp in norm.terms) > 1:
        return False
    return all(m == 1 for g, m in fact.factors if len(g.terms) > 1)


def _unknown(f, zvar, tvar, reason):
    """An unknown verdict, or reducible when f has a repeated factor."""
    witness = _repeated_factor(f, zvar, tvar)
    if witness is not None:
        return IrreducibilityResult("reducible", witness=witness)
    return IrreducibilityResult("unknown", reason=reason)


def _repeated_factor(f, zvar, tvar):
    """A proper divisor of f from its gcds with its nonzero partial
    derivatives, or None when f is squarefree."""
    for v, other in ((zvar, tvar), (tvar, zvar)):
        d = f.partial_derivative(v)
        if d.is_zero():
            continue
        g = bivariate_gcd(f, d, v, other)
        if not g.is_constant() and g.total_degree() < f.total_degree() and divides(g, f):
            return g
    return None
