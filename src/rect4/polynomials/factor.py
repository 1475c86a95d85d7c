"""Univariate factorization.

Over the rationals: squarefree decomposition (Yun), factorization modulo a
small prime, Hensel lifting and subset recombination.  Over a prime field:
distinct-degree plus equal-degree (Cantor-Zassenhaus) splitting.  Over a
one-parameter rational function field only the patterns the analyzer needs
are certified (monomials, Eisenstein at a small prime of F_p[s], and
inseparable binomials X^(p^e) - c); anything else is left unresolved and
flagged.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .. import dense
from ..fields import (
    PrimeField,
    RationalField,
    RationalFunctionField,
)
from .multipoly import MultiPoly


class FactorizationError(Exception):
    pass


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

    def expand(self):
        acc = MultiPoly.constant(self.unit.field, self.vars, self.unit)
        for f, m in list(self.factors) + list(self.unresolved):
            acc = acc * f**m
        return acc

    def __iter__(self):
        return iter(self.factors)

    def __repr__(self):
        parts = [f"({f}, {m})" for f, m in self.factors]
        parts += [f"unresolved({f}, {m})" for f, m in self.unresolved]
        return f"Factorization(unit={self.unit}, {', '.join(parts)})"


# ---------------------------------------------------------------------------
# dense integer-polynomial helpers (low degree first, plain ints)
# ---------------------------------------------------------------------------


def _ztrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _zmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ztrim(out)


def _zcontent(a):
    g = 0
    for x in a:
        g = math.gcd(g, x)
    return g or 1


def _zprimitive(a):
    g = _zcontent(a)
    if a and a[-1] < 0:
        g = -g
    return [x // g for x in a], g


def _zdivide_exact(a, b):
    """Exact division of integer polynomials, or None."""
    if not b:
        return None
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    while a and len(a) >= len(b):
        if a[-1] % b[-1]:
            return None
        c = a[-1] // b[-1]
        shift = len(a) - len(b)
        q[shift] = c
        for i in range(len(b)):
            a[shift + i] -= c * b[i]
        a = _ztrim(a)
    return q if not a else None


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


def factor_mod_p(coeffs, p, rng=None):
    """Full monic factorization over F_p: returns (unit, [(dense, mult)])."""
    rng = rng or random.Random(20240901)
    F = PrimeField(p)
    a = _reduce_mod(F, coeffs)
    if not a:
        raise FactorizationError("cannot factor the zero polynomial")
    unit = a[-1]
    factors = []
    for g, m in _p_squarefree_decomposition(F, a):
        for h, d in _p_distinct_degree(F, g):
            for irr in _p_equal_degree(F, h, d, rng):
                factors.append((irr, m))
    factors.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return unit, factors


# ---------------------------------------------------------------------------
# rational factorization (Zassenhaus)
# ---------------------------------------------------------------------------

_SMALL_PRIMES = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]


def _yun_squarefree(a):
    """Yun's squarefree decomposition for primitive integer polynomials."""
    out = []
    d = _ztrim([i * a[i] for i in range(1, len(a))])
    g = _zgcd_poly(a, d)
    if len(g) == 1:
        return [(a, 1)]
    w = _zdivide_exact(a, g)
    y = _zdivide_exact(d, g)
    m = 1
    while True:
        wd = _ztrim([i * w[i] for i in range(1, len(w))])
        z = _zsub(y, wd)
        if not z:
            if len(w) > 1:
                out.append((w, m))
            break
        g = _zgcd_poly(w, z)
        if len(g) > 1:
            out.append((g, m))
        w = _zdivide_exact(w, g)
        y = _zdivide_exact(z, g)
        m += 1
    return out


def _zgcd_poly(a, b):
    """Primitive gcd of integer polynomials via a modular-free PRS."""
    a, _ = _zprimitive(_ztrim(a))
    b, _ = _zprimitive(_ztrim(b))
    if not a:
        return b or [1]
    if not b:
        return a
    while b:
        # pseudo-remainder
        r = list(a)
        db = len(b) - 1
        lb = b[-1]
        while r and len(r) - 1 >= db:
            c = r[-1]
            shift = len(r) - 1 - db
            r = [x * lb for x in r]
            for i in range(len(b)):
                r[shift + i] -= c * b[i]
            r = _ztrim(r)
        a, b = b, _zprimitive(r)[0] if r else []
    a, _ = _zprimitive(a)
    return a


def _zdivmod_mod(a, b, m):
    """Division of integer polys mod m; b must be monic mod m."""
    a = [x % m for x in a]
    b = [x % m for x in b]
    b = _ztrim(b)
    assert b and b[-1] % m == 1, "divisor must be monic mod m"
    q = [0] * max(0, len(a) - len(b) + 1)
    a = list(a)
    while True:
        a = _ztrim([x % m for x in a])
        if not a or len(a) < len(b):
            break
        c = a[-1] % m
        shift = len(a) - len(b)
        q[shift] = (q[shift] + c) % m
        for i in range(len(b)):
            a[shift + i] = (a[shift + i] - c * b[i]) % m
    return _ztrim([x % m for x in q]), a


def _mignotte_bound(a):
    n = len(a) - 1
    norm = math.isqrt(sum(x * x for x in a)) + 1
    return 2 ** (n + 1) * norm * abs(a[-1])


def _centered(x, m):
    x %= m
    return x - m if x > m // 2 else x


def _factor_squarefree_z(a, rng):
    """Irreducible factors of a primitive squarefree integer polynomial."""
    n = len(a) - 1
    if n <= 0:
        return []
    if n == 1:
        return [a]
    for p in _SMALL_PRIMES:
        if a[-1] % p == 0:
            continue
        F = PrimeField(p)
        am = _reduce_mod(F, a)
        if len(am) - 1 != n:
            continue
        if len(dense.gcd(F, am, dense.deriv(F, am))) == 1:
            break
    else:
        raise FactorizationError("no suitable prime found for reduction")
    _, modular = factor_mod_p(a, p, rng)
    modular = [f for f, _ in modular]
    if len(modular) == 1:
        return [a]
    bound = 2 * _mignotte_bound(a) + 1
    k = 1
    while p**k < bound:
        k += 1
    lifted = _hensel_lift_tree(a, modular, F, k)
    pk = p**k

    factors = []
    remaining = list(range(len(lifted)))
    current = list(a)
    size = 1
    while 2 * size <= len(remaining):
        found = True
        while found:
            found = False
            for subset in itertools.combinations(remaining, size):
                cand = [current[-1] % pk]
                for i in subset:
                    cand = [x % pk for x in _zmul(cand, lifted[i])]
                cand = [_centered(x, pk) for x in cand]
                cand_prim, _ = _zprimitive(_ztrim(cand))
                if not cand_prim or len(cand_prim) == 1:
                    continue
                q = _zdivide_exact(current, cand_prim)
                if q is not None:
                    factors.append(cand_prim)
                    current = q
                    remaining = [i for i in remaining if i not in subset]
                    found = True
                    break
            if 2 * size > len(remaining):
                break
        size += 1
    if len(current) > 1:
        factors.append(_zprimitive(current)[0])
    return factors


def _hensel_lift_tree(f, factors, F, k):
    """Lift the monic factors of f mod p to mod p^k (binary splitting)."""
    pk = F.p**k
    # make f monic mod p^k: the single-factor case returns it, the pair
    # lift needs it
    inv = pow(f[-1], -1, pk)
    f_monic = [(x * inv) % pk for x in f]
    if len(factors) == 1:
        return [f_monic]
    mid = len(factors) // 2
    g = h = (1,)
    for fac in factors[:mid]:
        g = dense.mul(F, g, fac)
    for fac in factors[mid:]:
        h = dense.mul(F, h, fac)
    G, H = _hensel_pair(f_monic, g, h, F, k)
    left = _hensel_lift_tree(G, factors[:mid], F, k)
    right = _hensel_lift_tree(H, factors[mid:], F, k)
    return left + right


def _hensel_pair(f, g, h, F, k):
    """Quadratic Hensel: f = g*h mod p with f, g, h monic -> mod p^k."""
    one, s, t = dense.xgcd(F, g, h)
    assert one == (1,), "inputs are not coprime mod p"
    q = F.p
    target = q**k
    g, h, s, t = list(g), list(h), list(s), list(t)
    while q < target:
        q2 = q * q
        e = _ztrim([x % q2 for x in (_zsub(f, _zmul(g, h)))])
        qg, r = _zdivmod_mod(_zmul(s, e), h, q2)
        h_new = _ztrim([x % q2 for x in _zadd(h, r)])
        g_new = _ztrim([x % q2 for x in _zadd(g, _zadd(_zmul(t, e), _zmul(qg, g)))])
        g, h = g_new, h_new
        b = _ztrim([x % q2 for x in _zsub(_zadd(_zmul(s, g), _zmul(t, h)), [1])])
        qs, r_s = _zdivmod_mod(_zmul(s, b), h, q2)
        s_new = _ztrim([x % q2 for x in _zsub(s, r_s)])
        t_new = _ztrim([x % q2 for x in _zsub(t, _zadd(_zmul(t, b), _zmul(qs, g)))])
        s, t = s_new, t_new
        q = q2
    return g, h


def _zadd(a, b):
    return _ztrim([x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _zsub(a, b):
    return _ztrim([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def univariate_factor(poly, rng=None, var=None):
    """Complete irreducible factorization of a univariate polynomial.

    Supported coefficient fields: the rationals, prime fields, and (with the
    documented pattern restrictions) one-parameter rational function fields.
    Factors are monic; the unit collects the leading coefficient.
    """
    if poly.is_zero():
        raise FactorizationError("cannot factor the zero polynomial")
    field = poly.field
    used = [v for v in poly.vars if poly.involves(v)]
    if len(used) > 1:
        raise FactorizationError("polynomial is not univariate")
    if var is None:
        var = used[0] if used else poly.vars[0]
    rng = rng or random.Random(20240901)

    if isinstance(field, RationalField):
        return _factor_over_q(poly, var, rng)
    if isinstance(field, PrimeField):
        return _factor_over_gfp(poly, var, rng)
    if isinstance(field, RationalFunctionField):
        return _factor_over_rff(poly, var)
    raise FactorizationError(
        f"univariate factorization over {field} is not supported"
    )


def _factor_over_q(poly, var, rng):
    coeffs = poly.to_dense(var)
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.rep.denominator // math.gcd(den_lcm, c.rep.denominator)
    ints = [int(c.rep * den_lcm) for c in coeffs]
    prim, content = _zprimitive(_ztrim(ints))
    unit_value = Fraction(content, den_lcm)
    field = poly.field
    factors = []
    for sf, mult in _yun_squarefree(prim):
        sf_prim, extra = _zprimitive(sf)
        unit_value *= Fraction(extra) ** mult
        for irr in _factor_squarefree_z(sf_prim, rng):
            lc = irr[-1]
            unit_value *= Fraction(lc) ** mult
            monic = [Fraction(x, lc) for x in irr]
            factors.append(
                (MultiPoly.from_dense(field, poly.vars, var, monic), mult)
            )
    factors.sort(key=lambda fm: (fm[0].total_degree(), str(fm[0])))
    return Factorization(field.element(unit_value), factors, vars=poly.vars)


def _factor_over_gfp(poly, var, rng):
    field = poly.field
    p = field.p
    coeffs = [c.rep for c in poly.to_dense(var)]
    unit, dense_factors = factor_mod_p(coeffs, p, rng)
    factors = [
        (MultiPoly.from_dense(field, poly.vars, var, f), m)
        for f, m in dense_factors
    ]
    return Factorization(field.element(unit), factors, vars=poly.vars)


def _factor_over_rff(poly, var):
    """Restricted factorization over F_p(s); may return unresolved parts."""
    field = poly.field

    def as_poly(reps):
        return MultiPoly.from_dense(field, poly.vars, var, [field.element(c) for c in reps])

    coeffs = [c.rep for c in poly.to_dense(var)]
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
            assert not rem
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
    elems = [field.element(r) for r in dense_reps]
    fact = univariate_factor(MultiPoly.from_dense(field, (varname,), varname, elems))
    f0, m0 = fact.factors[0]
    if len(fact.factors) == 1 and m0 == 1:
        return None
    return str(f0)
