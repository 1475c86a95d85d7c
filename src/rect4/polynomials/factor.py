"""Univariate factorization.

Roots first, over the rationals and over a prime field: the linear factors
are split off before any general algorithm runs, and a root-free cofactor of
degree 2 or 3 is irreducible, since any split of it would have a linear
factor.  Only a root-free cofactor of degree 4 or more goes on to the
general algorithms below.  The factor lists are sorted the same way on every
route.

Over the rationals the roots are read off the squarefree part s of the
primitive integer polynomial: the roots of s modulo the least odd prime p
that keeps its degree and leaves every root mod p simple are lifted by
p-adic Newton iteration past 2*lc(s)*(1 + max|s_i|), which bounds lc(s)
times a root (Cauchy), and each candidate d*X - c divides the polynomial as
often as it can.  The general algorithms are squarefree decomposition (Yun),
factorization modulo the least odd prime that keeps the degree and the
squarefreeness, Hensel lifting and subset recombination (Zassenhaus), on
primitive integer polynomials.  The lifting
goes by roots: the root of each linear modular factor by p-adic Newton
iteration, and the nonlinear cofactor that is left by one exact division;
only two or more nonlinear factors are split by the quadratic polynomial
Hensel step.  The subset search is :func:`recombine`, the one recombination
of the package: it also turns the Kronecker image factorizations of
:mod:`rect4.polynomials.bivariate` into bivariate factors.  Z[X] is
:mod:`rect4.polynomials.zpoly` (the dense kernels through a descriptor of
the integers, the primitive part and the primitive remainder sequence of the
gcd); Yun's decomposition is written here on top of it.  The factors are
monic, so the unit is the input's leading coefficient.

Over a prime field F_p with p < 64 the roots are found by evaluation at
every element and synthetic division: p evaluations of n steps each against
the Frobenius power X^p mod a polynomial of degree n, about log2(p)
squarings of n^2 steps each, and below 64 the evaluation was as fast or
faster at every degree timed (see :func:`_evaluates`).  For a larger p the general
algorithms take the whole polynomial.  They are squarefree decomposition,
distinct-degree and equal-degree (Cantor-Zassenhaus) splitting.  The
equal-degree splitting draws from a generator seeded with the constant
``_SEED``.  The draws set only the running time, never the answer: a
factorization is unique, and every user of the splitting sorts the factors
before anything reads them.

Over a one-parameter rational function field only the patterns the analyzer
needs are certified (monomials, Eisenstein at a small prime of F_p[s], and
inseparable binomials X^(p^e) - c); anything else is left unresolved and
flagged.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from .. import dense
from ..fields import (
    PrimeField,
    RationalField,
    RationalFunctionField,
    _is_prime,
)
from .multipoly import MultiPoly, PolynomialError
from .zpoly import ZZ, FactorizationError, zcleared, zdivmod, zgcd_poly, zmod, zprimitive

# seeds the generator of the equal-degree splitting (see the module docstring)
_SEED = 20240901


class Factorization:
    """unit * prod(factor^multiplicity); factors monic, pairwise non-associate.

    ``complete`` is False when part of the input could not be factored (only
    possible over a rational function field); the unfactored remainder is then
    listed in ``unresolved`` as (polynomial, multiplicity) pairs.
    """

    def __init__(self, unit, factors, unresolved=(), vars=("X",)):
        self.unit = unit
        self.factors = list(factors)
        self.unresolved = list(unresolved)
        if self.factors or self.unresolved:
            vars = (self.factors or self.unresolved)[0][0].vars
        self.vars = vars

    @property
    def complete(self):
        return not self.unresolved

    def __repr__(self):
        parts = [f"({f}, {m})" for f, m in self.factors]
        parts += [f"unresolved({f}, {m})" for f, m in self.unresolved]
        return f"Factorization(unit={self.unit}, {', '.join(parts)})"


# ---------------------------------------------------------------------------
# factorization over F_p (dense polynomials over PrimeField(p), see rect4.dense)
# ---------------------------------------------------------------------------


def _p_squarefree_decomposition(F, a):
    """[(g_i, m_i)] with a = prod g_i^m_i, g_i monic squarefree, char-p aware."""
    a = dense.monic(F, a)
    if len(a) <= 1:
        return []
    out = []
    d = dense.deriv(F, a)
    if not d:
        # a = h(X^p) = (h')^p with coefficients fixed by Frobenius
        root = a[:: F.p]
        for g, m in _p_squarefree_decomposition(F, root):
            out.append((g, m * F.p))
        return out
    g = dense.gcd(F, a, d)
    w = dense.divmod(F, a, g)[0]
    m = 1
    while len(w) > 1:
        y = dense.gcd(F, w, g)
        z = dense.divmod(F, w, y)[0]
        if len(z) > 1:
            out.append((z, m))
        w = y
        g = dense.divmod(F, g, y)[0]
        m += 1
    if len(g) > 1:
        # g carries the factors of p-divisible multiplicity with their full
        # exponents; its derivative vanishes, so the recursion takes the
        # p-th-root branch and returns the true multiplicities directly
        out.extend(_p_squarefree_decomposition(F, g))
    return out


def _p_distinct_degree(F, a):
    """[(product-of-irreducibles-of-degree-d, d)] for monic squarefree a."""
    out = []
    x = (0, 1)
    h = x
    f = a
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = dense.powmod(F, h, F.p, f)
        g = dense.gcd(F, dense.sub(F, h, x), f)
        if len(g) > 1:
            out.append((g, d))
            f = dense.divmod(F, f, g)[0]
            h = dense.divmod(F, h, f)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _p_equal_degree(F, a, d, rng):
    """Split monic squarefree a (all factors of degree d) into irreducibles."""
    p = F.p
    n = len(a) - 1
    if n == d:
        return [a]
    while True:
        r = [rng.randrange(p) for _ in range(n)] + [1]
        if p == 2:
            # trace map over F_2
            t = acc = r
            for _ in range(d - 1):
                acc = dense.powmod(F, acc, 2, a)
                t = dense.add(F, t, acc)
        else:
            t = dense.sub(F, dense.powmod(F, r, (p**d - 1) // 2, a), (1,))
        g = dense.gcd(F, t, a)
        if 1 < len(g) < len(a):
            h = dense.divmod(F, a, g)[0]
            return _p_equal_degree(F, g, d, rng) + _p_equal_degree(F, h, d, rng)


def _reduce_mod(F, coeffs):
    """Dense F_p polynomial of integer coefficients."""
    return dense.trim(F, map(F.raw_from_int, coeffs))


def _p_split(F, a):
    """Monic irreducible factors of monic squarefree a.  When
    :func:`_evaluates` says so, the linear ones come first, by evaluation,
    and the root-free rest goes to :func:`_p_split_root_free`; otherwise all
    of a goes to :func:`_p_distinct_equal_degree`."""
    if not _evaluates(F.p):
        return _p_distinct_equal_degree(F, a)
    roots, a = _p_roots_by_evaluation(F.p, a)
    return [(-c % F.p, 1) for c, _ in roots] + _p_split_root_free(F, a)


def _p_split_root_free(F, a):
    """Monic irreducible factors of monic squarefree a with no root in F_p:
    up to degree 3 a itself, since a split would have a linear factor, and
    beyond by :func:`_p_distinct_equal_degree`."""
    if len(a) <= 4:
        return [a] if len(a) > 1 else []
    return _p_distinct_equal_degree(F, a)


def _p_distinct_equal_degree(F, a):
    """Monic irreducible factors of monic squarefree a, distinct-degree then
    equal-degree, in that order.  Each call seeds a new generator with
    ``_SEED`` for the equal-degree splitting, so the draws depend on a alone."""
    rng = random.Random(_SEED)
    return [irr for h, d in _p_distinct_degree(F, a) for irr in _p_equal_degree(F, h, d, rng)]


def _evaluates(p):
    """Whether the roots over F_p are found by evaluation at every element
    before the general algorithms run.  Evaluation takes p*n steps for the
    degree n, the Frobenius power X^p mod the polynomial about
    log2(p)*n^2, so the crossover grows with n.  Timed under CPython 3.11 on
    an x86-64 host, on products of linear factors and quadratics, it lay
    between 61 and 67 for n = 1 and past 127 for every n from 2 to 12; on
    root-poor polynomials of degree 4 to 12 the two ran level below 64."""
    return p < 64


def _p_roots_by_evaluation(p, a):
    """([(c, m)], cofactor): the roots c of the dense polynomial a over F_p,
    in increasing order, with their multiplicities m, and a divided by every
    (X - c)^m, by synthetic division at every element of F_p."""
    roots = []
    for c in range(p):
        m = 0
        while len(a) > 1:
            quo, rem = _synthetic_division(a, c, p)
            if rem:
                break
            a, m = quo, m + 1
        if m:
            roots.append((c, m))
    return roots, a


def _p_simple_roots(p, s):
    """The roots of the integer polynomial s mod p, by evaluation at every
    element of F_p, or None when one of them is a multiple root; lc(s) must
    not vanish mod p."""
    roots = _p_roots_by_evaluation(p, _reduce_mod(PrimeField(p), s))[0]
    return None if any(m > 1 for _, m in roots) else [c for c, _ in roots]


def factor_mod_p(coeffs, p):
    """Full monic factorization over F_p: returns (unit, [(dense, mult)]).

    When :func:`_evaluates` says so, the roots come first, with their
    multiplicities, and only a root-free cofactor of degree 4 or more is
    decomposed and split.
    """
    F = PrimeField(p)
    a = _reduce_mod(F, coeffs)
    if not a:
        raise FactorizationError("cannot factor the zero polynomial")
    unit = a[-1]
    a = dense.monic(F, a)
    if _evaluates(p):
        roots, a = _p_roots_by_evaluation(p, a)
        factors = [((-c % p, 1), m) for c, m in roots]
        # a root-free cofactor of degree 2 or 3 is irreducible
        parts = _p_squarefree_decomposition(F, a) if len(a) > 4 else [(a, 1)]
        factors += [(irr, m) for g, m in parts for irr in _p_split_root_free(F, g)]
    else:
        parts = _p_squarefree_decomposition(F, a)
        factors = [(irr, m) for g, m in parts for irr in _p_distinct_equal_degree(F, g)]
    factors.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return unit, factors


# ---------------------------------------------------------------------------
# rational factorization (Zassenhaus)
# ---------------------------------------------------------------------------

def _yun_squarefree(a):
    """Yun's squarefree decomposition [(g, m)] of a primitive integer
    polynomial with a positive leading coefficient; each g is again one."""
    out = []
    d = dense.deriv(ZZ, a)
    g = zgcd_poly(a, d)
    if len(g) == 1:
        return [(a, 1)]
    w = zdivmod(a, g)[0]
    y = zdivmod(d, g)[0]
    m = 1
    while True:
        z = dense.sub(ZZ, y, dense.deriv(ZZ, w))
        if not z:
            if len(w) > 1:
                out.append((w, m))
            break
        g = zgcd_poly(w, z)
        if len(g) > 1:
            out.append((g, m))
        w = zdivmod(w, g)[0]
        y = zdivmod(z, g)[0]
        m += 1
    return out


def _mignotte_bound(a):
    n = len(a) - 1
    norm = math.isqrt(sum(x * x for x in a)) + 1
    return 2 ** (n + 1) * norm * abs(a[-1])


def _centered(x, m):
    x %= m
    return x - m if x > m // 2 else x


def _rational_roots(a):
    """([(linear, m)], cofactor): the linear factors of the primitive integer
    polynomial a, of degree 1 or more and with a positive leading
    coefficient, as primitive integer polynomials with their multiplicities,
    and a divided by all of them.

    Every rational root c/d (lowest terms) of a is a root of its squarefree
    part s, and d divides lc(s).  Modulo the least odd prime p that does not
    divide lc(s) and at which every root of s mod p is simple, c/d is such a
    root, so it is the p-adic Newton lift of that root.  Only the primes
    that divide lc(s)*disc(s) are refused.  Cauchy's bound
    |c/d| < 1 + max|s_i|/lc(s) puts lc(s)*c/d below lc(s)*(1 + max|s_i|), so
    above twice that the lift times lc(s), centred, is that integer, and
    lc(s)*X - lc(s)*c/d over its content is d*X - c.  Each such candidate
    divides a as often as it can.
    """
    g = zgcd_poly(a, dense.deriv(ZZ, a))
    s = zdivmod(a, g)[0] if len(g) > 1 else a
    if len(s) == 2:
        return [(s, len(a) - 1)], (1,)
    lc = s[-1]
    # disc(s) is not 0 as s is squarefree, so the search ends
    for p in filter(_is_prime, itertools.count(3)):
        if lc % p and (roots := _p_simple_roots(p, s)) is not None:
            break
    bound = 2 * lc * (1 + max(map(abs, s)))
    k = 1
    while p**k <= bound:
        k += 1
    pk = p**k
    linear = []
    for r in roots:
        cand = zprimitive((-_centered(lc * _lift_root(s, r, p, k), pk), lc))
        m = 0
        while (division := zdivmod(a, cand)) and not division[1]:
            a, m = division[0], m + 1
        if m:
            linear.append((cand, m))
    return linear, a


def _factor_squarefree_z(a):
    """Irreducible factors of a primitive squarefree integer polynomial of
    degree 1 or more."""
    # the odd primes in order; only those dividing lc(a)*disc(a), which is
    # not 0 as a is squarefree, are refused, so the search ends
    for p in filter(_is_prime, itertools.count(3)):
        if a[-1] % p == 0:
            continue
        F = PrimeField(p)
        am = _reduce_mod(F, a)
        if len(dense.gcd(F, am, dense.deriv(F, am))) == 1:
            break
    # am is squarefree, so it is split directly, as factor_mod_p would split it
    modular = sorted(_p_split(F, dense.monic(F, am)), key=lambda f: (len(f), f))
    if len(modular) == 1:
        return [a]
    bound = 2 * _mignotte_bound(a) + 1
    k = 1
    while p**k < bound:
        k += 1
    lifted = _hensel_lift_tree(a, modular, F, k)
    pk = p**k

    def split(current, factors):
        # the centred, primitive product of the lifted factors times the
        # leading coefficient, tried as a divisor over Z
        cand = (current[-1] % pk,)
        for g in factors:
            cand = zmod(dense.mul(ZZ, cand, g), pk)
        cand = zprimitive(dense.trim(ZZ, [_centered(x, pk) for x in cand]))
        if len(cand) > 1:
            division = zdivmod(current, cand)
            if division and not division[1]:
                return cand, division[0]
        return None

    factors, current = recombine(a, list(enumerate(lifted)), split)
    if len(current) > 1:
        factors.append(zprimitive(current))
    return factors


def recombine(cofactor, items, split, limit=None):
    """(divisors, cofactor): the divisors that subset recombination
    (Zassenhaus) splits off ``cofactor``, and what is left of it.

    ``items`` are (key, factor) pairs, grouped by key: equal keys are
    adjacent and hold equal factors, one factor repeated with multiplicity.
    Sub-multisets of them are tried by increasing size, each once per pass,
    in the order in which ``itertools.combinations`` over the items first
    meets their key tuples (see :func:`_sub_multisets`).  ``split(cofactor,
    factors)`` returns (divisor, quotient) when the factors' product yields a
    divisor of the cofactor, else None; the divisor is split off, its items
    are removed and the same size is tried again.  A divisor found at the
    smallest size left is irreducible, and once twice the size exceeds the
    items left the cofactor is irreducible too.  With ``limit`` the search
    stops after that many divisors.
    """
    groups = [list(group) for _, group in itertools.groupby(items, key=lambda item: item[0])]
    factors = [group[0][1] for group in groups]
    counts = [len(group) for group in groups]
    divisors = []
    size = 1
    while 2 * size <= sum(counts) and len(divisors) != limit:
        for taken in _sub_multisets(counts, size):
            found = split(cofactor, [g for g, n in zip(factors, taken) for _ in range(n)])
            if found is not None:
                divisor, cofactor = found
                divisors.append(divisor)
                counts = [c - n for c, n in zip(counts, taken)]
                break
        else:
            size += 1
    return divisors, cofactor


def _sub_multisets(counts, size):
    """Every way to take ``size`` items from groups of ``counts`` items, as
    the tuple of the numbers taken per group: the first group as often as
    the size and the groups after it allow, most first, then the rest the
    same way.  That is the lexicographic order of the key tuples, the order
    in which ``itertools.combinations`` over grouped items first meets them.
    """
    if not counts:
        yield ()
        return
    first, rest = counts[0], counts[1:]
    for n in range(min(first, size), max(0, size - sum(rest)) - 1, -1):
        for tail in _sub_multisets(rest, size - n):
            yield (n, *tail)


def _hensel_lift_tree(f, factors, F, k):
    """Lift the monic factors of f mod p to mod p^k: the lifted monic
    factors, in the order given, with coefficients in [0, p^k).

    Each linear factor X - r0 lifts its root by :func:`_lift_root`, and f
    mod p^k is divided by X - r.  The roots are distinct mod p, so every
    division is exact, and what is left is the product of the lifts of the
    nonlinear factors.  With no nonlinear factor it is 1; with one it is that
    factor's lift, since the lifts of a coprime factorization are unique;
    with two or more it is split in two by :func:`_hensel_pair` and each half
    is lifted the same way (binary splitting).
    """
    p, pk = F.p, F.p**k
    cofactor = f = zmod(dense.scale(ZZ, f, pow(f[-1], -1, pk)), pk)
    lifted = list(factors)
    nonlinear = []
    for i, fac in enumerate(factors):
        if len(fac) > 2:
            nonlinear.append(i)
            continue
        r = _lift_root(f, -fac[0] % p, p, k)
        cofactor = _divide_root(cofactor, r, pk)
        lifted[i] = (-r % pk, 1)
    lifts = [cofactor]
    if len(nonlinear) > 1:
        rest = [factors[i] for i in nonlinear]
        mid = len(rest) // 2
        mul = functools.partial(dense.mul, F)
        g = functools.reduce(mul, rest[:mid], (1,))
        h = functools.reduce(mul, rest[mid:], (1,))
        G, H = _hensel_pair(cofactor, g, h, F, k)
        lifts = _hensel_lift_tree(G, rest[:mid], F, k) + _hensel_lift_tree(H, rest[mid:], F, k)
    elif not nonlinear and cofactor != (1,):
        raise FactorizationError("internal error: the lifted roots leave a nonconstant cofactor")
    for i, lift in zip(nonlinear, lifts):
        lifted[i] = lift
    return lifted


def _lift_root(f, r, p, k):
    """The root of the integer polynomial f mod p^k that is r mod p, by p-adic
    Newton iteration r <- r - f(r)/f'(r), the modulus squaring at each step
    up to p^k; f'(r) must be a unit mod p."""
    q, pk = p, p**k
    while q < pk:
        q = min(q * q, pk)
        # Horner's rule for f(r) and f'(r) together
        fr = dr = 0
        for c in reversed(f):
            dr = (dr * r + fr) % q
            fr = (fr * r + c) % q
        r = (r - fr * pow(dr, -1, q)) % q
    return r


def _divide_root(f, r, pk):
    """f / (X - r) mod pk; X - r must divide f."""
    quo, rem = _synthetic_division(f, r, pk)
    if rem:
        raise FactorizationError("internal error: a lifted root leaves a remainder")
    return quo


def _synthetic_division(f, r, m):
    """(q, f(r)) mod m with f = q*(X - r) + f(r), for f of degree 1 or more."""
    quo = [0] * (len(f) - 1)
    acc = 0
    for i in reversed(range(1, len(f))):
        acc = quo[i - 1] = (acc * r + f[i]) % m
    return tuple(quo), (acc * r + f[0]) % m


def _hensel_pair(f, g, h, F, k):
    """Quadratic Hensel: f = g*h mod p with f, g, h monic and coprime mod p
    -> mod p^k.  The Bezout pair s*g + t*h = 1 is lifted with them, except at
    the last step, whose s and t nothing reads."""
    one, s, t = dense.xgcd(F, g, h)
    if one != (1,):
        raise FactorizationError("internal error: Hensel inputs are not coprime mod p")
    q = F.p
    target = q**k
    add, sub, mul = (functools.partial(op, ZZ) for op in (dense.add, dense.sub, dense.mul))
    while q < target:
        q *= q
        e = zmod(sub(f, mul(g, h)), q)
        # h is monic, so its division over Z, reduced mod q, is the division
        # mod q
        qg, r = (zmod(x, q) for x in dense.divmod(ZZ, mul(s, e), h))
        h = zmod(add(h, r), q)
        g = zmod(add(g, add(mul(t, e), mul(qg, g))), q)
        if q >= target:
            break
        b = zmod(sub(add(mul(s, g), mul(t, h)), (1,)), q)
        qs, r_s = (zmod(x, q) for x in dense.divmod(ZZ, mul(s, b), h))
        s = zmod(sub(s, r_s), q)
        t = zmod(sub(t, add(mul(t, b), mul(qs, g))), q)
    return g, h


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def univariate_factor(poly, var=None):
    """Complete irreducible factorization of a univariate polynomial.

    Supported coefficient fields: the rationals, prime fields, and (with the
    documented pattern restrictions) one-parameter rational function fields.
    Factors are monic; the unit collects the leading coefficient.

    Over the rationals and over F_p the roots come first (see the module
    docstring): over F_p by evaluation at every element when p < 64, where
    that is faster than one Frobenius power X^p mod the polynomial at every
    degree.  What is left has no root, so up to degree
    3 it is irreducible (a split would have a linear factor), and only from
    degree 4 on does it reach the general algorithms.
    """
    if poly.is_zero():
        raise FactorizationError("cannot factor the zero polynomial")
    field = poly.field
    try:
        var = poly.univariate_var(var)
    except PolynomialError as exc:
        raise FactorizationError(str(exc)) from None

    if isinstance(field, RationalField):
        return _factor_over_q(poly, var)
    if isinstance(field, PrimeField):
        return _factor_over_gfp(poly, var)
    if isinstance(field, RationalFunctionField):
        return _factor_over_rff(poly, var)
    raise FactorizationError(
        f"univariate factorization over {field} is not supported"
    )


def _factor_over_q(poly, var):
    field = poly.field
    coeffs = poly.to_dense(var)
    a = zprimitive(zcleared(coeffs))
    irreducibles = []
    if len(a) > 1:
        irreducibles, a = _rational_roots(a)
    # a is now root-free: up to degree 3 it is irreducible, since a split
    # would have a linear factor
    if 1 < len(a) <= 4:
        irreducibles.append((a, 1))
    elif len(a) > 4:
        for sf, mult in _yun_squarefree(a):
            parts = [sf] if len(sf) <= 4 else _factor_squarefree_z(sf)
            irreducibles += [(irr, mult) for irr in parts]
    by_degree = {}
    for irr, mult in irreducibles:
        monic = MultiPoly.from_raw_dense(field, poly.vars, var, dense.monic(field, irr))
        by_degree.setdefault(len(irr), []).append((monic, mult))
    factors = []
    # by degree, and by text only among the factors of one degree
    for n in sorted(by_degree):
        group = by_degree[n]
        factors += sorted(group, key=lambda fm: str(fm[0])) if len(group) > 1 else group
    # the factors are monic, so the unit is the leading coefficient
    return Factorization(field.element(coeffs[-1]), factors, vars=poly.vars)


def _factor_over_gfp(poly, var):
    field = poly.field
    p = field.p
    unit, dense_factors = factor_mod_p(poly.to_dense(var), p)
    factors = [
        (MultiPoly.from_raw_dense(field, poly.vars, var, f), m)
        for f, m in dense_factors
    ]
    return Factorization(field.element(unit), factors, vars=poly.vars)


def _factor_over_rff(poly, var):
    """Restricted factorization over F_p(s); may return unresolved parts."""
    field = poly.field

    def as_poly(reps):
        return MultiPoly.from_raw_dense(field, poly.vars, var, reps)

    coeffs = poly.to_dense(var)
    # strip X-monomial content
    low = 0
    while field.raw_is_zero(coeffs[low]):
        low += 1
    factors = []
    if low:
        factors.append((MultiPoly.variable(field, poly.vars, var), low))
    unit = field.element(coeffs[-1])
    current = dense.monic(field, coeffs[low:])
    unresolved = []
    if len(current) > 2 and not _rff_is_irreducible(field, current):
        # try to split off roots in F_p (cheap trial divisions)
        root = _fp_root(field, current)
        while root is not None:
            lin = (field.raw_from_int(-root), field.raw_one())
            current, rem = dense.divmod(field, current, lin)
            if rem:
                raise FactorizationError("internal error: a root of f leaves a remainder")
            factors.append((as_poly(lin), 1))
            root = _fp_root(field, current) if len(current) > 2 else None
        if len(current) > 2 and not _rff_is_irreducible(field, current):
            unresolved.append((as_poly(current), 1))
    if len(current) > 1 and not unresolved:
        factors.append((as_poly(current), 1))
    merged = {}
    for f, m in factors:
        g, old = merged.get(str(f), (f, 0))
        merged[str(f)] = (g, old + m)
    return Factorization(unit, list(merged.values()), unresolved, vars=poly.vars)


def _fp_root(field, coeffs):
    """The least c in 0..p-1 at which the dense polynomial vanishes, or None."""
    for c in range(field.p):
        if field.raw_is_zero(dense.eval(field, coeffs, field.raw_from_int(c))):
            return c
    return None


def _rff_is_irreducible(field, coeffs):
    """Certify irreducibility over F_p(s) for the supported patterns.

    ``coeffs`` is a monic dense polynomial of raw F_p(s) elements.  Patterns:
    binomials X^(p^e) - c with c not a p-th power, and Eisenstein at s or
    s - c (after clearing denominators).  Returns True only when certified.
    """
    p = field.p
    n = len(coeffs) - 1
    # inseparable binomial X^(p^e) - c
    if n >= 2 and all(field.raw_is_zero(c) for c in coeffs[1:n]):
        m = n
        while m % p == 0:
            m //= p
        if m == 1 and field.raw_pth_root(field.raw_neg(coeffs[0])) is None:
            return True
    # Eisenstein at the primes s - c of F_p[s]
    base = field.base
    lcm = (1,)
    for _, den in coeffs:
        lcm = dense.lcm(base, lcm, den)
    cleared = [dense.mul(base, num, dense.divmod(base, lcm, den)[0]) for num, den in coeffs]
    for c in range(p):
        pi = ((-c) % p, 1)
        if dense.divmod(base, cleared[-1], pi)[1] and not any(
            dense.divmod(base, a, pi)[1] for a in cleared[:-1]
        ):
            # pi^2 must not divide the constant term
            q, r = dense.divmod(base, cleared[0], pi)
            if not r and dense.divmod(base, q, pi)[1]:
                return True
    return False


def certify_irreducible_univariate(field, dense_reps, varname="g"):
    """Return None when the monic dense polynomial is certified irreducible,
    otherwise a string naming a nontrivial factor (or describing failure).

    Used by field-extension construction.
    """
    if isinstance(field, RationalFunctionField):
        if len(dense_reps) == 2 or _rff_is_irreducible(field, dense_reps):
            return None
        # certificate of reducibility: a root in F_p
        c0 = _fp_root(field, dense_reps)
        if c0 is not None:
            return f"{varname}-{c0}" if c0 else varname
        return (
            "irreducibility could not be certified over "
            f"{field} (unsupported pattern)"
        )
    fact = univariate_factor(MultiPoly.from_raw_dense(field, (varname,), varname, dense_reps))
    f0, m0 = fact.factors[0]
    if len(fact.factors) == 1 and m0 == 1:
        return None
    return str(f0)
