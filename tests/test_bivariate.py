import random
from fractions import Fraction

import pytest
import sympy

from rect4.fields import GF, QQ, ExtensionField, PrimeField, extend, rational_function_field
from rect4.polynomials import (
    MultiPoly,
    bivariate,
    bivariate_gcd,
    bivariate_irreducible,
    content_free_part,
    divides,
)

from conftest import extension_element, leading_coeff, random_poly, zt_vars

ZT = ("Z", "T")


def test_monomial_product_reducible():
    Z, T = zt_vars(QQ)
    res = bivariate_irreducible(Z * T, "Z", "T")
    assert res.is_reducible
    assert divides(res.witness, Z * T)


def test_cusp_plus_one_irreducible():
    # independent reasoning: as a quadratic in Z over Q(T), Z^2 + (T^3+1) is
    # irreducible because -(T^3+1) has odd degree, hence is no square.
    Z, T = zt_vars(QQ)
    res = bivariate_irreducible(Z * Z + T**3 + 1, "Z", "T")
    assert res.is_irreducible


def test_difference_of_squares_reducible():
    Z, T = zt_vars(QQ)
    res = bivariate_irreducible(Z * Z - T * T, "Z", "T")
    assert res.is_reducible
    assert res.witness.total_degree() == 1


def test_sum_of_squares_irreducible_over_q_but_not_gaussian():
    Z, T = zt_vars(QQ)
    res = bivariate_irreducible(Z * Z + T * T, "Z", "T")
    assert res.is_irreducible
    K = extend(QQ, [1, 0, 1], "i")
    ZK = MultiPoly.variable(K, ZT, "Z")
    TK = MultiPoly.variable(K, ZT, "T")
    resK = bivariate_irreducible(ZK * ZK + TK * TK, "Z", "T")
    assert resK.is_reducible
    assert divides(resK.witness, ZK * ZK + TK * TK)


def test_number_field_irreducible_case():
    K = extend(QQ, [1, 0, 1], "i")
    Z = MultiPoly.variable(K, ZT, "Z")
    T = MultiPoly.variable(K, ZT, "T")
    i = MultiPoly.constant(K, ZT, K.generator())
    f = Z * Z + T**3 + i
    res = bivariate_irreducible(f, "Z", "T")
    assert res.is_irreducible


def test_degree_bound_gives_unknown():
    Z, T = zt_vars(QQ)
    f = Z**9 + T**8 + Z * T + 1
    res = bivariate_irreducible(f, "Z", "T", bound=8)
    assert res.is_unknown


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_products_never_reported_irreducible(field):
    # exhaustive-recombination soundness on random products of total degree
    # at most 6
    rng = random.Random(12)
    trials = 0
    while trials < 500:
        g = random_poly(field, ZT, rng, max_deg=2, n_terms=3)
        h = random_poly(field, ZT, rng, max_deg=1, n_terms=3)
        if g.is_constant() or h.is_constant():
            continue
        if g.total_degree() + h.total_degree() > 6:
            continue
        trials += 1
        res = bivariate_irreducible(g * h, "Z", "T")
        assert not res.is_irreducible, f"{g} * {h}"


def test_f2s_content_split_detected():
    F2s = rational_function_field(2)
    Z = MultiPoly.variable(F2s, ZT, "Z")
    T = MultiPoly.variable(F2s, ZT, "T")
    res = bivariate_irreducible(Z * T + Z, "Z", "T")
    assert res.is_reducible


def test_f2s_general_case_is_unknown():
    F2s = rational_function_field(2)
    Z = MultiPoly.variable(F2s, ZT, "Z")
    T = MultiPoly.variable(F2s, ZT, "T")
    s = MultiPoly.constant(F2s, ZT, F2s.parameter())
    res = bivariate_irreducible(Z * Z + s * T * T + T, "Z", "T")
    assert res.is_unknown


def test_bivariate_gcd():
    Z, T = zt_vars(QQ)
    f = (Z + T) * (Z * T + 1)
    g = (Z + T) * (Z - T + 2)
    d = bivariate_gcd(f, g, "T", "Z")
    assert divides(d, f) and divides(d, g)
    assert d.total_degree() == 1


# -- differential tests against sympy -----------------------------------------------------------
#
# sympy factors over Q and over number fields given by ``extension=``; it has
# no multivariate factorization over finite fields, so there the test builds
# products of factors it can certify irreducible itself.

SZ, ST = sympy.symbols("Z T")

NUMBER_FIELDS = [
    (extend(QQ, [1, 0, 1], "i"), sympy.I, {"gaussian": True}),
    (extend(QQ, [-2, 0, 1], "r"), sympy.sqrt(2), {"extension": sympy.sqrt(2)}),
    (extend(QQ, [-2, 0, 0, 1], "c"), sympy.root(2, 3), {"extension": sympy.root(2, 3)}),
]
NF_IDS = [str(K) for K, _, _ in NUMBER_FIELDS]


def to_sympy(f, alpha=None):
    def coeff(c):
        if isinstance(f.field, ExtensionField):
            return sum(sympy.Rational(x.numerator, x.denominator) * alpha**j for j, x in enumerate(c))
        if isinstance(f.field, PrimeField):
            return sympy.Integer(c)
        return sympy.Rational(c.numerator, c.denominator)

    gens = dict(zip(f.vars, (SZ, ST)))
    return sympy.Add(*(
        coeff(c) * sympy.Mul(*(gens[v] ** k for v, k in zip(f.vars, exp)))
        for exp, c in f.terms.items()
    ))


def sympy_irreducible(f, alpha, opts):
    _, factors = sympy.factor_list(to_sympy(f, alpha), SZ, ST, **opts)
    nonconstant = [(g, m) for g, m in factors if g.has(SZ, ST)]
    return len(nonconstant) == 1 and nonconstant[0][1] == 1


def random_nf_poly(K, rng, max_deg, n_terms):
    """Random f in K[Z, T]; about half the coefficients involve the generator."""
    gen = K.generator()
    pairs = []
    for _ in range(n_terms):
        e = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        if sum(e) > max_deg:
            continue
        c = K.from_int(rng.choice((-2, -1, 1, 2)))
        if rng.random() < 0.5:
            c = c + K.from_int(rng.choice((-1, 1))) * gen
        pairs.append((e, c))
    return MultiPoly.from_terms(K, ZT, pairs)


def assert_agrees_with_sympy(f, alpha, opts):
    res = bivariate_irreducible(f, "Z", "T")
    if res.is_unknown:
        return False
    assert res.is_irreducible == sympy_irreducible(f, alpha, opts), str(f)
    if res.is_reducible:
        assert not res.witness.is_constant() and divides(res.witness, f), str(f)
    return True


@pytest.mark.parametrize("K, alpha, opts", NUMBER_FIELDS, ids=NF_IDS)
def test_number_field_irreducibility_matches_sympy(K, alpha, opts, monkeypatch):
    certified = []
    certifies = bivariate._specialization_certifies

    def recording(f, zvar, tvar):
        certified.append(certifies(f, zvar, tvar))
        return certified[-1]

    monkeypatch.setattr(bivariate, "_specialization_certifies", recording)
    # the degree-pattern certificate would decide most inputs first
    monkeypatch.setattr(bivariate, "_degree_pattern_certifies", lambda f, zvar, tvar: False)
    rng = random.Random(20240901 + K.deg)
    cap = 5 if K.deg == 3 else 6  # keeps deg * total degree within the norm cap
    def bivariate_poly(max_deg, n_terms):
        # both variables and a constant term, so the norm test sees it
        while True:
            f = random_nf_poly(K, rng, max_deg, n_terms)
            if f.degree_in("Z") > 0 and f.degree_in("T") > 0 and (0, 0) in f.terms:
                return f

    polys = []
    while len(polys) < 12:
        if len(polys) % 2:
            f = bivariate_poly(3, 4)
        else:  # a product of two factors in both variables
            f = bivariate_poly(2, 3) * bivariate_poly(2, 3)
        if f.total_degree() <= cap:
            polys.append(f)
    decided = sum(assert_agrees_with_sympy(f, alpha, opts) for f in polys)
    assert decided >= 9
    # the specialization certificate decides the irreducible inputs of
    # degree >= 2 in both variables (3 of 9 such calls per field)
    assert sum(certified) >= 3


@pytest.mark.parametrize("K, alpha, opts", NUMBER_FIELDS, ids=NF_IDS)
def test_resultant_in_generator_matches_sympy(K, alpha, opts):
    # the determinant of multiplication by f is Res_g(minpoly, f); the
    # coefficients reach every g-degree below [K:Q]
    SG = sympy.Symbol("g")
    minpoly = sum(sympy.Rational(c.numerator, c.denominator) * SG**j for j, c in enumerate(K.minpoly))
    rng = random.Random(2015)
    g_degrees = set()
    for _ in range(12):
        pairs = []
        for _ in range(rng.randint(1, 4)):
            d = rng.randrange(K.deg)
            g_degrees.add(d)
            low = [QQ.from_int(rng.randint(-3, 3)) for _ in range(d)]
            c = extension_element(K, low + [QQ.from_int(rng.choice((-2, -1, 1, 2)))])
            pairs.append(((rng.randint(0, 2), rng.randint(0, 2)), c))
        f = MultiPoly.from_terms(K, ZT, pairs)
        norm = bivariate._resultant_in_generator(f, K)
        want = sympy.resultant(minpoly, to_sympy(f, SG), SG)
        assert sympy.expand(to_sympy(norm) - want) == 0, str(f)
    assert g_degrees == set(range(K.deg))


@pytest.mark.parametrize("K, alpha, opts", NUMBER_FIELDS, ids=NF_IDS)
def test_base_field_coefficients_skip_shift_zero(K, alpha, opts, monkeypatch):
    # over the base field the norm at shift 0 is f^deg, never squarefree, so
    # no resultant is taken for it
    seen = []
    resultant = bivariate._resultant_in_generator

    def recording(f, field):
        seen.append(f)
        return resultant(f, field)

    monkeypatch.setattr(bivariate, "_resultant_in_generator", recording)
    # the degree-pattern certificate would decide some inputs before any norm
    monkeypatch.setattr(bivariate, "_degree_pattern_certifies", lambda f, zvar, tvar: False)
    Z, T = MultiPoly.variable(K, ZT, "Z"), MultiPoly.variable(K, ZT, "T")
    two = MultiPoly.constant(K, ZT, K.from_int(2))
    for f in (Z * Z + T**3 + 1, Z * Z - two * T * T, Z * Z + T * T, Z**3 - two * T**3 + Z * T):
        seen.clear()
        assert assert_agrees_with_sympy(f, alpha, opts)
        assert seen and all(g != f for g in seen), str(f)
        # the specialization certificate decides some of these first, so the
        # norm test is also run on its own
        seen.clear()
        assert bivariate._norm_test(f, "Z", "T").status == bivariate_irreducible(f, "Z", "T").status
        assert seen and all(g != f for g in seen), str(f)


def test_base_field_coefficients_past_the_norm_cap_are_unknown(monkeypatch):
    # deg 3 * total degree 6 exceeds the norm degree cap at the skipped shift
    K = NUMBER_FIELDS[2][0]
    Z, T = MultiPoly.variable(K, ZT, "Z"), MultiPoly.variable(K, ZT, "T")
    f = Z**6 + T**5 + 1
    assert bivariate_irreducible(f, "Z", "T").is_irreducible  # by the degree patterns
    monkeypatch.setattr(bivariate, "_resultant_in_generator", None)
    res = bivariate._norm_test(f, "Z", "T")
    assert res.is_unknown
    assert res.reason == "norm degree exceeds the internal cap"


def test_no_norm_is_taken_past_either_cap(monkeypatch):
    # a shift keeps the degrees of f and the norm has [K:Q] times each, so
    # both caps are read off f before any norm
    def no_norm(f, field):
        raise AssertionError("a norm was taken")

    monkeypatch.setattr(bivariate, "_resultant_in_generator", no_norm)
    cbrt2, gauss = NUMBER_FIELDS[2][0], NUMBER_FIELDS[0][0]
    Z, T = zt_vars(cbrt2)
    g = MultiPoly.constant(cbrt2, ZT, cbrt2.generator())
    # 3 * total degree 6 exceeds the norm degree cap
    res = bivariate._norm_test(Z**6 + g * T**5 + 1, "Z", "T")
    assert res.is_unknown and res.reason == "norm degree exceeds the internal cap"
    # 2 * total degree 8 is within it, but the norm has degree 16 in both
    # variables, past the cap on its Kronecker image
    Z, T = zt_vars(gauss)
    g = MultiPoly.constant(gauss, ZT, gauss.generator())
    res = bivariate._norm_test((Z**4 + g * T**4 + 1) * (Z**4 - T**4 + g), "Z", "T")
    assert res.is_unknown and res.reason == "norm too large for Kronecker factorization"


def test_specialization_decides_past_the_degree_patterns_and_the_norm_cap():
    # the degree patterns of Z^6 + (2-c)*T^3 never close and its norm exceeds
    # the cap, so only the specialization certificate proves it irreducible
    K, alpha, opts = NUMBER_FIELDS[2]
    Z, T = MultiPoly.variable(K, ZT, "Z"), MultiPoly.variable(K, ZT, "T")
    f = Z**6 + T**3 * MultiPoly.constant(K, ZT, K.from_int(2) - K.generator())
    assert sympy_irreducible(f, alpha, opts)
    assert not bivariate._degree_pattern_certifies(f, "Z", "T")
    assert bivariate._norm_test(f, "Z", "T").reason == "norm degree exceeds the internal cap"
    assert bivariate_irreducible(f, "Z", "T").is_irreducible


@pytest.mark.parametrize("K, alpha, opts", NUMBER_FIELDS, ids=NF_IDS)
def test_non_squarefree_input_is_reducible(K, alpha, opts, monkeypatch):
    # every specialization has a repeated factor, so the certificate takes no
    # norm, and the first norm of the norm test (not squarefree) sends it to
    # the repeated-factor gcds
    norms = []
    resultant = bivariate._resultant_in_generator
    monkeypatch.setattr(bivariate, "_resultant_in_generator", lambda f, field: norms.append(f) or resultant(f, field))
    Z, T = MultiPoly.variable(K, ZT, "Z"), MultiPoly.variable(K, ZT, "T")
    g = MultiPoly.constant(K, ZT, K.generator())
    one = MultiPoly.one(K, ZT)
    for f in ((Z + g * T + one) ** 2 * (Z - T), (Z * Z + g * T) ** 2, (Z * T + g) ** 2 * (Z + T * T + one)):
        assert not sympy_irreducible(f, alpha, opts)
        norms.clear()
        res = bivariate_irreducible(f, "Z", "T")
        assert res.is_reducible, str(f)
        assert not res.witness.is_constant() and divides(res.witness, f)
        assert len(norms) <= 1, str(f)


def test_linear_in_one_variable_is_irreducible_over_every_field():
    # primitive and of degree 1 in Z: a split would leave a factor in K[T]
    # alone, which divides the content 1
    F5b = extend(GF(5), [2, 0, 1], "b")
    for K in (QQ, GF(5), F5b, rational_function_field(2)):
        Z, T = zt_vars(K)
        one = MultiPoly.one(K, ZT)
        f = Z * T**2 + Z + T**3 + T + one  # T^3+T+1 - T*(T^2+1) = 1
        assert bivariate_irreducible(f, "Z", "T").is_irreducible, str(K)
        assert bivariate_irreducible(f.substitute({"Z": T, "T": Z}), "Z", "T").is_irreducible, str(K)


def test_linear_with_content_stays_reducible():
    # (T+1)*(Z+T) is linear in Z but has content T+1 in K[T]
    K = extend(GF(5), [2, 0, 1], "b")
    Z, T = zt_vars(K)
    b = MultiPoly.constant(K, ZT, K.generator())
    for f in ((T + 1) * (Z + T), (T + b) * (Z * T + Z + b)):
        res = bivariate_irreducible(f, "Z", "T")
        assert res.is_reducible, str(f)
        assert res.witness.degree_in("Z") == 0 and divides(res.witness, f)


def test_degree_dropping_specialization_does_not_certify():
    # at T = 0 the Z-degree drops and (T*Z+i)*(Z+T) becomes i*Z, which is
    # irreducible; the same happens at Z = 0 with the roles swapped
    K = NUMBER_FIELDS[0][0]
    Z, T = zt_vars(K)
    i = MultiPoly.constant(K, ZT, K.generator())
    f = (T * Z + i) * (Z + T)
    assert not bivariate._specialization_certifies(f, "Z", "T")
    res = bivariate_irreducible(f, "Z", "T")
    assert res.is_reducible and divides(res.witness, f)


def test_image_squarefree_certificate():
    Z, T = zt_vars(QQ)
    m = Z * Z + T**3 + Z * T + 1  # irreducible, no monomial factor
    for n, certified in (
        (m, True),
        (Z * m, True),
        (Z * T * m, True),
        (Z * Z * m, False),  # monomial content Z^2: only the variable repeats in the image
        (T * T * m, False),
        (m * m, False),
        (m * (Z + T + 1) ** 2, False),
    ):
        image = bivariate._kronecker_image(n, "Z", "T")
        assert bivariate._image_certifies_squarefree(n, image) == certified, str(n)
        _, sqf = sympy.sqf_list(to_sympy(n), SZ, ST)
        assert all(k == 1 for _, k in sqf) == certified, str(n)
    rng = random.Random(5)
    for _ in range(40):
        n = random_poly(QQ, ZT, rng, max_deg=3, n_terms=4) * random_poly(QQ, ZT, rng, max_deg=2, n_terms=3)
        if n.is_constant():
            continue
        if bivariate._image_certifies_squarefree(n, bivariate._kronecker_image(n, "Z", "T")):
            _, sqf = sympy.sqf_list(to_sympy(n), SZ, ST)
            assert all(k == 1 for _, k in sqf), str(n)


def monic_sympy(expr, field):
    if isinstance(field, PrimeField):
        return sympy.Poly(expr, SZ, ST, modulus=field.p).monic().as_expr()
    return sympy.Poly(expr, SZ, ST, domain="QQ").monic().as_expr()


def kronecker_factor(f):
    """Irreducible factors of f over Q or F_p, with repetition, from one
    factorization of its Kronecker image: the complete recombination that
    ``bivariate._kronecker_test`` stops after the first divisor."""
    return bivariate._recombine(f, bivariate._kronecker_image(f, "Z", "T"))


def assert_kronecker_factorization(f, expected):
    """kronecker_factor(f) multiplies back to f up to a unit and equals the
    irreducible factors ``expected`` (sympy expressions, with repetition) up to
    units."""
    factors = kronecker_factor(f)
    product = MultiPoly.one(f.field, ZT)
    for g in factors:
        product = product * g
    unit = product.scale(leading_coeff(f) / leading_coeff(product))
    assert unit == f
    got = sorted(str(monic_sympy(to_sympy(g), f.field)) for g in factors)
    assert got == sorted(str(monic_sympy(e, f.field)) for e in expected), str(f)


def test_kronecker_factor_matches_sympy_over_q():
    rng = random.Random(31)
    done = 0
    while done < 30:
        parts = [random_poly(QQ, ZT, rng, max_deg=2, n_terms=3) for _ in range(rng.randint(1, 3))]
        if any(p.is_constant() for p in parts):
            continue
        f = parts[0] * parts[-1]  # the first part repeats when there is more than one
        for p in parts[1:-1]:
            f = f * p
        if f.total_degree() > 8:
            continue
        _, sym = sympy.factor_list(to_sympy(f), SZ, ST)
        expected = [g for g, m in sym for _ in range(m) if g.has(SZ, ST)]
        assert all(sympy.Poly(g, SZ, ST, domain="QQ").is_irreducible for g in expected)
        assert_kronecker_factorization(f, expected)
        done += 1


def _irreducible_seed(field, rng):
    """A random factor that is irreducible over F_p by construction: degree 1
    in one variable with coefficients coprime in the other (Gauss's lemma),
    or univariate and irreducible according to sympy."""
    p = field.p
    while True:
        main, other = rng.choice(((SZ, ST), (ST, SZ)))
        a = sympy.Poly([rng.randrange(p) for _ in range(3)], other, modulus=p)
        b = sympy.Poly([rng.randrange(p) for _ in range(3)], other, modulus=p)
        if rng.random() < 0.2:
            u = sympy.Poly([1] + [rng.randrange(p) for _ in range(rng.randint(1, 3))], main, modulus=p)
            if u.is_irreducible:
                return u.as_expr()
        elif not a.is_zero and not b.is_zero and a.gcd(b).degree() == 0:
            return (a.as_expr() * main + b.as_expr()).expand()


def _from_sympy(expr, field):
    poly = sympy.Poly(expr, SZ, ST)
    return MultiPoly.from_terms(field, ZT, [(e, int(c) % field.p) for e, c in poly.terms()])


@pytest.mark.parametrize("p", [5, 7])
def test_kronecker_factor_over_prime_fields(p):
    field = GF(p)
    rng = random.Random(100 + p)
    for _ in range(25):
        seeds = [_irreducible_seed(field, rng) for _ in range(rng.randint(1, 3))]
        expected = seeds + seeds[:1] * rng.randint(0, 2)  # a repeated factor
        f = MultiPoly.one(field, ZT)
        for e in expected:
            f = f * _from_sympy(e, field)
        assert_kronecker_factorization(f, expected)


# -- the degree-pattern certificate ----------------------------------------------------------------
#
# Q[g]/(g^2-18) is Q(sqrt 2) through the generator 3*sqrt 2, so Z[g] is not
# the full ring of integers at 3: g^2 - 18 has the double root 0 mod 3, and
# the norm forms u^2 - 2*v^2, reducible over K, reduce mod 3 to u^2 + v^2.

PATTERN_FIELDS = [QQ, GF(5), GF(7)] + [K for K, _, _ in NUMBER_FIELDS]
PATTERN_IDS = [str(K) for K in PATTERN_FIELDS]
RATIONAL_POOL = (-2, -1, 1, 2, Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7))


def random_pattern_poly(K, rng, max_deg, n_terms):
    """Random f in K[Z, T] of positive degree in both variables; over Q some
    coefficients have small primes in their denominators."""
    while True:
        if isinstance(K, ExtensionField):
            f = random_nf_poly(K, rng, max_deg, n_terms)
        elif isinstance(K, PrimeField):
            f = random_poly(K, ZT, rng, max_deg=max_deg, n_terms=n_terms)
        else:
            terms = {(rng.randint(0, max_deg), rng.randint(0, max_deg)): K.coerce(rng.choice(RATIONAL_POOL))
                     for _ in range(n_terms)}
            f = MultiPoly.from_terms(K, ZT, terms.items())
        if f.degree_in("Z") > 0 and f.degree_in("T") > 0:
            return f


def primitive_both_ways(f):
    return all(content_free_part(f, (v,))[0].is_constant() for v in ZT)


def reducible_products(K, rng, count):
    """Seeded products g*h, both of positive degree in both variables and the
    product primitive both ways; every fourth is a square g*g."""
    out = []
    while len(out) < count:
        g = random_pattern_poly(K, rng, 2, 3)
        h = g if len(out) % 4 == 3 else random_pattern_poly(K, rng, 2, 3)
        f = g * h
        if primitive_both_ways(f):
            out.append(f)
    return out


@pytest.mark.parametrize("K", PATTERN_FIELDS, ids=PATTERN_IDS)
def test_degree_patterns_never_certify_a_product(K):
    rng = random.Random(7 + PATTERN_FIELDS.index(K))
    for f in reducible_products(K, rng, 60):
        assert not bivariate._degree_pattern_certifies(f, "Z", "T"), str(f)


def test_degree_patterns_use_only_simple_roots_of_the_minimal_polynomial():
    K = extend(QQ, [-18, 0, 1], "g")
    assert [r for F, r in bivariate._pattern_places(K) if F.p == 3] == []
    rng = random.Random(18)
    for _ in range(60):
        u = random_poly(K, ZT, rng, max_deg=2, n_terms=3)
        v = random_poly(K, ZT, rng, max_deg=2, n_terms=3)
        f = u * u - v * v.scale(K.from_int(2))  # (u - sqrt2*v)*(u + sqrt2*v)
        if f.degree_in("Z") > 0 and f.degree_in("T") > 0 and primitive_both_ways(f):
            assert not bivariate._degree_pattern_certifies(f, "Z", "T"), str(f)


def sympy_opts(K):
    if isinstance(K, ExtensionField):
        _, alpha, opts = NUMBER_FIELDS[[k for k, _, _ in NUMBER_FIELDS].index(K)]
        return alpha, opts
    return None, {}


@pytest.mark.parametrize("K", PATTERN_FIELDS, ids=PATTERN_IDS)
def test_degree_pattern_certificates_agree_with_sympy_and_kronecker(K):
    rng = random.Random(40 + PATTERN_FIELDS.index(K))
    alpha, opts = sympy_opts(K)
    certified = 0
    for _ in range(30):
        f = random_pattern_poly(K, rng, 3, 4)
        if not primitive_both_ways(f) or not bivariate._degree_pattern_certifies(f, "Z", "T"):
            continue
        certified += 1
        if not isinstance(K, PrimeField):
            assert sympy_irreducible(f, alpha, opts), str(f)
        if not isinstance(K, ExtensionField):
            assert len(kronecker_factor(f)) == 1, str(f)
    assert certified >= 10


@pytest.mark.parametrize("K", PATTERN_FIELDS, ids=PATTERN_IDS)
def test_degree_patterns_decide_most_irreducible_inputs(K, monkeypatch):
    # the irreducible inputs of degree >= 2 in both variables, by the complete
    # procedures; then those procedures raise, so only the certificate decides
    rng = random.Random(90 + PATTERN_FIELDS.index(K))
    certifies = bivariate._degree_pattern_certifies
    monkeypatch.setattr(bivariate, "_degree_pattern_certifies", lambda f, zvar, tvar: False)
    inputs = []
    while len(inputs) < 20:
        f = random_pattern_poly(K, rng, 3, 4)
        if min(f.degree_in("Z"), f.degree_in("T")) >= 2 and bivariate_irreducible(f, "Z", "T").is_irreducible:
            inputs.append(f)

    def complete(f, zvar, tvar):
        raise AssertionError("a complete procedure ran")

    monkeypatch.setattr(bivariate, "_degree_pattern_certifies", certifies)
    monkeypatch.setattr(bivariate, "_kronecker_test", complete)
    monkeypatch.setattr(bivariate, "_specialization_certifies", complete)
    decided = 0
    for f in inputs:
        try:
            decided += bivariate_irreducible(f, "Z", "T").is_irreducible
        except AssertionError:
            pass
    assert decided >= 18


def test_kronecker_test_finds_a_prime_past_the_small_ones():
    # every odd prime up to 149 divides P, so the Kronecker image has no
    # squarefree reduction below it; the degree patterns decide this input
    # first, so the Kronecker test is called directly
    P = 746091175469639660029437868307920534273791931663432265205
    Z, T = zt_vars(QQ)
    f = Z * Z + T**3 + Z.scale(QQ.from_int(P))
    assert bivariate._kronecker_test(f, "Z", "T").is_irreducible
    assert bivariate._degree_pattern_certifies(f, "Z", "T")
