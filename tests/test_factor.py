import functools
import json
import math
import random
from fractions import Fraction

import pytest
import sympy

from rect4.fields import GF, QQ, rational_function_field
from rect4.polynomials import (
    FactorizationError,
    MultiPoly,
    univariate_factor,
)

from conftest import run_cli_capped


def X_over(field):
    return MultiPoly.variable(field, ("X",), "X")


def random_univariate(field, rng, max_deg=5):
    deg = rng.randint(1, max_deg)
    if field.kind == "rationals":
        coeffs = [field.from_int(rng.randint(-6, 6)) for _ in range(deg)]
        coeffs.append(field.from_int(rng.choice([1, 2, 3, -1])))
    else:
        coeffs = [field.from_int(rng.randrange(field.p)) for _ in range(deg)]
        coeffs.append(field.one())
    return MultiPoly.from_dense(field, ("X",), "X", coeffs)


def expand(fact):
    """unit * prod(f^m) over the factors and the unresolved parts of fact."""
    acc = MultiPoly.constant(fact.unit.field, fact.vars, fact.unit)
    for f, m in fact.factors + fact.unresolved:
        acc = acc * f**m
    return acc


def normalized_factor_set(fact):
    return sorted((str(g), m) for g, m in fact.factors)


def test_monomial_times_linear_over_q():
    X = X_over(QQ)
    fact = univariate_factor(X * X * (X - 1))
    assert fact.unit == QQ.one()
    assert normalized_factor_set(fact) == [("X", 2), ("X-1", 1)]


def test_quadratic_irreducible_over_q():
    X = X_over(QQ)
    fact = univariate_factor(X * X + 1)
    assert normalized_factor_set(fact) == [("X^2+1", 1)]


def test_zero_input_rejected():
    with pytest.raises(FactorizationError):
        univariate_factor(MultiPoly.zero(QQ, ("X",)))


def test_constant_input_is_a_unit():
    f = MultiPoly.constant(QQ, ("X",), 5)
    fact = univariate_factor(f)
    assert fact.factors == [] and expand(fact) == f


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=str)
def test_factor_merge_property(field):
    # factoring f*g merges the separate factorizations up to unit and order
    rng = random.Random(99)
    for _ in range(40):
        f = random_univariate(field, rng)
        g = random_univariate(field, rng)
        ff = univariate_factor(f)
        fg = univariate_factor(g)
        combined = univariate_factor(f * g)
        merged = {}
        for fact in (ff, fg):
            for q, m in fact.factors:
                merged[str(q)] = merged.get(str(q), 0) + m
        got = {}
        for q, m in combined.factors:
            got[str(q)] = got.get(str(q), 0) + m
        assert got == merged
        assert expand(combined) == f * g


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=str)
def test_expand_reproduces_input(field):
    rng = random.Random(31)
    for _ in range(30):
        f = random_univariate(field, rng)
        fact = univariate_factor(f)
        assert fact.complete
        assert expand(fact) == f


def test_deep_rational_case():
    X = X_over(QQ)
    f = (X**3 + X + 1) * (X**2 - 2) ** 2 * (2 * X - 3)
    fact = univariate_factor(f)
    assert expand(fact) == f
    degs = sorted(g.total_degree() for g, m in fact.factors for _ in range(m))
    assert degs == [1, 2, 2, 3]


def test_inseparable_binomials_over_f2s():
    F2s = rational_function_field(2)
    s = F2s.parameter()
    X = X_over(F2s)
    sC = MultiPoly.constant(F2s, ("X",), s)
    f = X**2 * (X**2 - sC)
    fact = univariate_factor(f)
    assert fact.complete
    assert sorted((str(g), m) for g, m in fact.factors) == [("X", 2), ("X^2+s", 1)]
    assert expand(fact) == f
    # X^2 - s alone is certified irreducible
    fact2 = univariate_factor(X**2 - sC)
    assert fact2.complete and fact2.factors[0][1] == 1
    # X^4 - s as well (s has no square root)
    fact3 = univariate_factor(X**4 - sC)
    assert fact3.complete and fact3.factors[0][0].degree_in("X") == 4


def test_f2s_roots_and_unresolved_flag():
    F2s = rational_function_field(2)
    s = F2s.parameter()
    X = X_over(F2s)
    sC = MultiPoly.constant(F2s, ("X",), s)
    # splits into rational roots
    f = (X + 1) * X
    fact = univariate_factor(f)
    assert fact.complete and len(fact.factors) == 2
    # a separable irreducible quadratic outside the certified patterns comes
    # back unresolved rather than guessed
    g = X**2 + X + sC
    fact2 = univariate_factor(g)
    if not fact2.complete:
        assert fact2.unresolved and expand(fact2) == g


def test_squarefree_split_matches_factor_mod_p():
    # _factor_squarefree_z splits the reduction of a squarefree polynomial
    # directly; factor_mod_p, which first decomposes it again, must give the
    # same factors in the same order
    from rect4 import dense
    from rect4.polynomials import factor

    rng = random.Random(77)
    compared = 0
    while compared < 60:
        a = [rng.randint(-9, 9) for _ in range(rng.randint(3, 12))] + [rng.choice((1, 2, -3))]
        p = rng.choice((3, 5, 7, 11))
        F = GF(p)
        am = factor._reduce_mod(F, a)
        if len(am) != len(a) or len(dense.gcd(F, am, dense.deriv(F, am))) != 1:
            continue
        split = sorted(factor._p_split(F, dense.monic(F, am)), key=lambda f: (len(f), f))
        _, full = factor.factor_mod_p(a, p)
        assert split == [f for f, _ in full], (a, p)
        assert all(m == 1 for _, m in full)
        compared += 1


# -- differential test against sympy over Q ------------------------------------

SX = sympy.Symbol("X")


def _monic_sympy_factors(f):
    """(unit, sorted [(ascending monic coefficients, multiplicity)]) of f
    from sympy.factor_list, with Fraction coefficients."""
    expr = sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * SX**e for (e,), c in f.terms.items()
    ))
    content, factors = sympy.factor_list(expr, SX)
    unit = Fraction(int(content.p), int(content.q))
    out = []
    for g, m in factors:
        coeffs = sympy.Poly(g, SX).all_coeffs()[::-1]
        lc = coeffs[-1]
        unit *= Fraction(int(lc.p), int(lc.q)) ** m
        monic = tuple(Fraction(int(c.p), int(c.q)) for c in (x / lc for x in coeffs))
        out.append((monic, m))
    return unit, sorted(out)


def _same_degree_products(field, rng, count):
    """Seeded products over ``field`` of monic factors of degrees 1 to 3, some
    of them squared: most split into several irreducibles of one degree."""
    X = X_over(field)
    for _ in range(count):
        f = MultiPoly.one(field, ("X",))
        for _ in range(rng.randint(3, 5)):
            g = X ** rng.randint(1, 3)
            for e in range(g.total_degree()):
                g = g + MultiPoly.constant(field, ("X",), field.from_int(rng.randint(-4, 4))) * X**e
            f = f * g ** rng.choice((1, 1, 2))
        yield f


def test_factorizations_do_not_depend_on_the_splitting_seed(monkeypatch):
    # the seed of the equal-degree splitting sets only the running time: the
    # factors come out sorted, whatever the draws split off first
    from rect4.polynomials import factor

    rng = random.Random(2809)
    inputs = [f for field in (QQ, GF(2), GF(5), GF(7)) for f in _same_degree_products(field, rng, 25)]
    answers = []
    for seed in (factor._SEED, 1, 2, 3):
        monkeypatch.setattr(factor, "_SEED", seed)
        facts = [univariate_factor(f) for f in inputs]
        answers.append([(str(fact.unit), [(str(g), m) for g, m in fact.factors], fact.unresolved) for fact in facts])
    assert answers[1:] == answers[:1] * 3
    # the inputs reach the splitting with repeated factors and with several
    # irreducible factors of one degree
    degrees = [[g.total_degree() for g, _ in fact.factors] for fact in facts]
    assert sum(len(d) > len(set(d)) for d in degrees) > 50
    assert sum(any(m > 1 for _, m in fact.factors) for fact in facts) > 50


def test_univariate_factor_matches_sympy_over_q():
    """Seeded products of random integer polynomials with repeated factors:
    the same unit and the same (monic factor, multiplicity) multiset."""
    rng = random.Random(7141)
    for _ in range(40):
        f = MultiPoly.constant(QQ, ("X",), rng.choice([1, -1, 2, -6, 15]))
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            coeffs = [QQ.from_int(rng.randint(-5, 5)) for _ in range(deg)]
            coeffs.append(QQ.from_int(rng.choice([-3, -2, -1, 1, 2, 3])))
            f = f * MultiPoly.from_dense(QQ, ("X",), "X", coeffs) ** rng.randint(1, 3)
        fact = univariate_factor(f)
        assert fact.complete
        ours = sorted(
            (g.to_dense("X"), m) for g, m in fact.factors
        )
        assert (fact.unit.rep, ours) == _monic_sympy_factors(f), str(f)
    # four to six rational roots in +-1..+-9 and a non-monic factor: many
    # linear modular factors, lifted to a high power of p
    X = X_over(QQ)
    for _ in range(30):
        f = rng.choice([2, -3, 6, 15]) * (rng.choice([2, 3, 5]) * X + rng.choice([-7, -1, 1, 4]))
        for _ in range(rng.randint(4, 6)):
            f = f * (X - rng.choice([-1, 1]) * rng.randint(1, 9))
        fact = univariate_factor(f)
        ours = sorted((g.to_dense("X"), m) for g, m in fact.factors)
        assert (fact.unit.rep, ours) == _monic_sympy_factors(f), str(f)


# -- roots first -----------------------------------------------------------------


def _reference_factor_over_q(f):
    """(unit, factors) of f over Q as the factoriser found them before it
    split off the linear factors first: Yun's decomposition, then the
    Zassenhaus factorization of every part, sorted by degree and text."""
    from rect4 import dense
    from rect4.polynomials import factor, zpoly

    coeffs = f.to_dense("X")
    factors = []
    for sf, mult in factor._yun_squarefree(zpoly.zprimitive(zpoly.zcleared(coeffs))):
        for irr in factor._factor_squarefree_z(sf):
            factors.append((MultiPoly.from_raw_dense(QQ, f.vars, "X", dense.monic(QQ, irr)), mult))
    factors.sort(key=lambda fm: (fm[0].total_degree(), str(fm[0])))
    return QQ.element(coeffs[-1]), factors


def _reference_factor_mod_p(coeffs, p):
    """``factor_mod_p`` before the roots came first: the squarefree
    decomposition, then distinct-degree and equal-degree splitting of every
    part."""
    from rect4.polynomials import factor

    F = GF(p)
    a = factor._reduce_mod(F, coeffs)
    parts = factor._p_squarefree_decomposition(F, a)
    factors = [(irr, m) for g, m in parts for irr in factor._p_distinct_equal_degree(F, g)]
    factors.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return a[-1], factors


# root-free over Q and reducible: the general algorithms split them
SPLIT_ROOT_FREE_Q = (
    "X^4+4", "(X^2+1)*(X^2+2)", "X^4+X^2+1", "(X^2+1)*(X^2+2)*(X^2+3)", "(X^3-2)*(X^3+3)", "X^6+27",
)
# the root c/d = (3^65 + 1)/8 of the squarefree s: lc(s)*c/d = (3^65 + 1)/2
# lies just above half the least power of 3 past 2*(1 + max|s_i|), so a lift
# to a bound without lc(s) misses it
BOUND_NEEDS_LC = "(2*X-{})*(2*X+1)*(X^2+1)".format((3**65 + 1) // 4)


def _roots_first_products(field, rng, count):
    """Seeded products over ``field`` of two to four factors, each to a power
    1-4: X, non-monic linear factors (over Q some with roots of 30 to 45
    digits), random quadratics and cubics, and root-free reducible quartics
    and sextics.  Yields (polynomial, the kinds of its factors)."""
    from rect4.exprparse import parse_polynomial

    X = X_over(field)

    def const(n):
        return MultiPoly.constant(field, ("X",), field.from_int(n))

    def coefficient():
        return rng.randint(-9, 9) if field.kind == "rationals" else rng.randrange(field.p)

    for _ in range(count):
        f, kinds = const(rng.choice((1, 2, -3)) if field.kind == "rationals" else rng.randrange(1, field.p)), set()
        for _ in range(rng.randint(2, 4)):
            kind = rng.choice(("zero", "linear", "linear", "big", "quadratic", "cubic", "split"))
            if kind == "zero":
                g = X
            elif kind in ("linear", "big"):
                c = rng.randint(10**29, 10**44) if kind == "big" and field.kind == "rationals" else coefficient()
                g = const(rng.choice((1, 2, 3, 5, -7))) * X - const(c * rng.choice((1, -1)))
            elif kind in ("quadratic", "cubic"):
                n = 2 if kind == "quadratic" else 3
                g = const(rng.choice((1, 2, -3))) * X**n
                for e in range(n):
                    g = g + const(coefficient()) * X**e
            elif field.kind == "rationals":
                g = parse_polynomial(rng.choice(SPLIT_ROOT_FREE_Q), field, ("X",))
            else:
                g = MultiPoly.one(field, ("X",))
                for _ in range(rng.randint(2, 3)):
                    g = g * (X**2 + const(coefficient()) * X + const(coefficient()))
            if g.is_zero() or g.total_degree() == 0:
                continue
            m = rng.choice((1, 1, 2, 3, 4))
            f = f * g**m
            kinds |= {kind, f"power {m}"}
        yield f, kinds


ROOTS_FIRST_FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7), GF(101), GF(1000003)]


@pytest.mark.parametrize("field", ROOTS_FIRST_FIELDS, ids=str)
def test_roots_first_factorization_is_the_general_one(field):
    """Unit, factors and their order agree with the factoriser that ran the
    general algorithms on everything; over Q also with sympy."""
    from rect4.exprparse import parse_polynomial
    from rect4.polynomials import factor

    rng = random.Random(2900 + ROOTS_FIRST_FIELDS.index(field))
    products = list(_roots_first_products(field, rng, 60 if field.kind == "rationals" else 45))
    if field.kind == "rationals":
        products.append((parse_polynomial(BOUND_NEEDS_LC, field, ("X",)), set()))
    for f, kinds in products:
        fact = univariate_factor(f)
        assert fact.complete and expand(fact) == f, str(f)
        ours = (fact.unit, [(str(g), m) for g, m in fact.factors])
        if field.kind == "rationals":
            unit, factors = _reference_factor_over_q(f)
            assert ours == (unit, [(str(g), m) for g, m in factors]), str(f)
            dense_factors = sorted((g.to_dense("X"), m) for g, m in fact.factors)
            assert (fact.unit.rep, dense_factors) == _monic_sympy_factors(f), str(f)
        else:
            coeffs = f.to_dense("X")
            assert factor.factor_mod_p(coeffs, field.p) == _reference_factor_mod_p(coeffs, field.p), str(f)
    # every kind of factor and every power occurs
    seen = set().union(*(kinds for _, kinds in products))
    assert {"zero", "linear", "quadratic", "cubic", "split", "power 4"} <= seen, seen
    if field.kind == "rationals":
        assert "big" in seen


def test_roots_first_route(monkeypatch):
    """A polynomial whose root-free cofactor has degree 3 or less reaches
    none of the general algorithms; a root-free quartic that splits does;
    over F_1000003, past the primes where evaluation at every element is
    the faster, the evaluation stage is skipped."""
    from rect4.exprparse import parse_polynomial
    from rect4.polynomials import factor

    calls = []
    names = ("_yun_squarefree", "_p_squarefree_decomposition", "_p_distinct_degree",
             "_hensel_lift_tree", "_p_roots_by_evaluation")
    for name in names:
        monkeypatch.setattr(factor, name, functools.partial(
            lambda name, real, *args: calls.append(name) or real(*args), name, getattr(factor, name)))

    def route(text, field):
        f = parse_polynomial(text, field, ("X",))
        calls.clear()
        assert expand(univariate_factor(f)) == f
        return set(calls)

    general = {"_yun_squarefree", "_p_squarefree_decomposition", "_p_distinct_degree", "_hensel_lift_tree"}
    assert route("X^2*(X-1)^3*(2*X+3)^4*(X^2+1)", QQ) == {"_p_roots_by_evaluation"}
    assert route("X^2*(X-1)^3*(X+2)^4*(X^2+2)", GF(5)) == {"_p_roots_by_evaluation"}
    assert {"_yun_squarefree", "_p_distinct_degree"} <= route("X^4+4", QQ)
    assert {"_p_squarefree_decomposition", "_p_distinct_degree"} <= route("(X^2+2)*(X^2+3)", GF(5))
    used = route("X^2*(X-1)^3*(X+2)^4*(X^2+2)", GF(1000003))
    assert "_p_roots_by_evaluation" not in used and "_p_distinct_degree" in used
    assert not general & route(BOUND_NEEDS_LC, QQ)


def test_factor_cli_lifts_a_large_non_monic_root():
    # a squared non-monic linear factor with the 40-digit root 10^40/3, next
    # to a repeated root and a quadratic, pinned to the output of the
    # factoriser that ran the general algorithms on everything
    proc = run_cli_capped("factor", "(3*X-10^40)^2*(X+1)^3*(X^2+1)", "Q", "--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        '{\n  "schema": "rect4-report-v1",\n  "command": "factor",\n  "field": "Q",\n  "inputs": {\n'
        '    "poly": "(3*X-10^40)^2*(X+1)^3*(X^2+1)"\n  },\n  "unit": "9",\n  "factors": [\n    [\n'
        '      "X+(-10000000000000000000000000000000000000000/3)",\n      2\n    ],\n    [\n'
        '      "X+1",\n      3\n    ],\n    [\n      "X^2+1",\n      1\n    ]\n  ],\n'
        '  "unresolved": []\n}\n'
    )


# -- the Z[X] kernels of the rational factoriser -------------------------------


def _sympy_ints(expr):
    """Ascending integer coefficients of a sympy polynomial in X; () for 0."""
    if expr == 0:
        return ()
    return tuple(int(c) for c in sympy.Poly(expr, SX).all_coeffs()[::-1])


def _primitive_positive(a):
    """a over its content, with a positive leading coefficient (an oracle
    independent of zpoly.zprimitive)."""
    c = math.gcd(*a) or 1
    return tuple(x // (-c if a and a[-1] < 0 else c) for x in a)


def _random_zpoly(rng, max_deg=4):
    return [rng.randint(-7, 7) for _ in range(rng.randint(1, max_deg))] + [rng.choice((-3, -2, -1, 1, 2, 5))]


def _random_sqf_input(rng):
    """(ascending ints, sympy expression): a product of random factors, some
    repeated, times X^k and a content that may be negative."""
    expr = rng.choice((1, -1, 2, -6, 10)) * SX ** rng.choice((0, 0, 1, 3))
    for _ in range(rng.randint(1, 3)):
        f = _random_zpoly(rng, 3)
        expr *= sympy.Add(*(c * SX**e for e, c in enumerate(f))) ** rng.randint(1, 3)
    expr = sympy.expand(expr)
    return _sympy_ints(expr), expr


def test_integer_descriptor_has_only_the_units_as_inverses():
    from rect4 import dense
    from rect4.polynomials import zpoly

    assert zpoly.ZZ.raw_inv(1) == 1 and zpoly.ZZ.raw_inv(-1) == -1
    for a in (2, -2, 0, 6):
        with pytest.raises(FactorizationError):
            zpoly.ZZ.raw_inv(a)
    # so dense.divmod divides exactly by unit-leading divisors only
    assert dense.divmod(zpoly.ZZ, (2, 3, 1), (1, 1)) == ((2, 1), ())
    assert dense.divmod(zpoly.ZZ, (2, 3, 1), (1, -1)) == ((-4, -1), (6,))
    with pytest.raises(FactorizationError):
        dense.divmod(zpoly.ZZ, (2, 3, 1), (1, 2))


def test_zgcd_poly_matches_sympy():
    from rect4.polynomials import zpoly

    rng = random.Random(4411)
    for _ in range(60):
        common = sympy.Add(*(c * SX**e for e, c in enumerate(_random_zpoly(rng, 2))))
        _, f = _random_sqf_input(rng)
        _, g = _random_sqf_input(rng)
        f, g = sympy.expand(f * common), sympy.expand(g * common)
        if rng.random() < 0.1:
            g = sympy.Integer(0)
        a, b = _sympy_ints(f), _sympy_ints(g)
        want = _primitive_positive(_sympy_ints(sympy.gcd(f, g)))
        assert zpoly.zgcd_poly(a, b) == want, (f, g)
        assert zpoly.zgcd_poly(b, a) == want, (f, g)
    assert zpoly.zgcd_poly((), ()) == (1,)


def test_yun_squarefree_matches_sympy():
    """_yun_squarefree takes primitive inputs (as _factor_over_q gives it);
    its parts are primitive with a positive leading coefficient, and their
    product with multiplicities is that input exactly."""
    from rect4 import dense
    from rect4.polynomials import factor, zpoly

    rng = random.Random(5123)
    for _ in range(60):
        a, expr = _random_sqf_input(rng)
        prim = zpoly.zprimitive(a)
        assert prim == _primitive_positive(a)
        parts = factor._yun_squarefree(prim)
        _, want = sympy.sqf_list(expr)
        want = sorted((m, _primitive_positive(_sympy_ints(g))) for g, m in want)
        assert sorted((m, g) for g, m in parts) == want, expr
        product = (1,)
        for g, m in parts:
            assert g == _primitive_positive(g)
            for _ in range(m):
                product = dense.mul(zpoly.ZZ, product, g)
        assert product == prim, expr


def _modular_factors(a, p):
    """The sorted monic factors of a mod p, as _factor_squarefree_z splits
    them, or None when p divides lc(a) or a mod p is not squarefree."""
    from rect4 import dense
    from rect4.polynomials import factor

    F = GF(p)
    am = factor._reduce_mod(F, a)
    if len(am) != len(a) or len(dense.gcd(F, am, dense.deriv(F, am))) != 1:
        return None
    return sorted(factor._p_split(F, dense.monic(F, am)), key=lambda f: (len(f), f))


def test_hensel_lift_tree_lifts_the_modular_factorization():
    """Products of random integer polynomials lifted from mod p to mod p^k:
    each lift is monic, reduces to its modular factor and has coefficients in
    [0, p^k), and their product is a made monic mod p^k.  All three shapes of
    the root lift occur: only linear factors, exactly one nonlinear factor
    (the cofactor), and two or more (the binary splitting)."""
    from rect4 import dense
    from rect4.polynomials import factor, zpoly

    rng = random.Random(6007)
    shapes = [0, 0, 0]
    while sum(shapes) < 60:
        a = [1]
        for _ in range(rng.randint(1, 4)):
            a = dense.mul(zpoly.ZZ, a, _random_zpoly(rng, 3))
        p = rng.choice((3, 5, 7, 11, 13))
        F = GF(p)
        modular = _modular_factors(a, p)
        if modular is None or len(modular) < 2:
            continue
        k = rng.randint(2, 9)
        pk = p**k
        lifted = factor._hensel_lift_tree(tuple(a), modular, F, k)
        assert len(lifted) == len(modular)
        product = (1,)
        for lift, fac in zip(lifted, modular):
            assert lift[-1] == 1 and all(0 <= x < pk for x in lift), (a, p, k)
            assert factor._reduce_mod(F, lift) == fac, (a, p, k)
            product = dense.mul(zpoly.ZZ, product, lift)
        monic_a = [x * pow(a[-1], -1, pk) for x in a]
        assert [x % pk for x in product] == [x % pk for x in monic_a], (a, p, k)
        shapes[min(2, sum(len(fac) > 2 for fac in modular))] += 1
    assert min(shapes) >= 10, shapes


def test_lift_root_is_a_root_mod_p_to_the_k():
    """For each simple root r0 of a random integer polynomial mod p and each
    k up to 9, odd and even: the lifted root lies in [0, p^k), is r0 mod p
    and is a root mod p^k."""
    from rect4 import dense
    from rect4.polynomials import factor, zpoly

    rng = random.Random(8117)
    lifted = 0
    for _ in range(60):
        f = _random_zpoly(rng, 6)
        p = rng.choice((2, 3, 5, 7, 11, 13))
        df = dense.deriv(zpoly.ZZ, f)
        for r0 in range(p):
            if dense.eval(zpoly.ZZ, f, r0) % p or not dense.eval(zpoly.ZZ, df, r0) % p:
                continue
            for k in range(1, 10):
                r = factor._lift_root(tuple(f), r0, p, k)
                assert 0 <= r < p**k and r % p == r0, (f, p, r0, k)
                assert dense.eval(zpoly.ZZ, f, r) % p**k == 0, (f, p, r0, k)
                lifted += 1
    assert lifted >= 200


def test_at_most_one_nonlinear_modular_factor_needs_no_hensel_step(monkeypatch):
    """Lifting by roots leaves the polynomial Hensel step to inputs with two
    or more nonlinear modular factors: squarefree integer polynomials with at
    most one call it never, those with more do."""
    from rect4 import dense
    from rect4.polynomials import factor, zpoly

    calls = []
    pair = factor._hensel_pair
    monkeypatch.setattr(factor, "_hensel_pair", lambda *args: calls.append(args) or pair(*args))
    rng = random.Random(9029)
    seen = [0, 0]
    while min(seen) < 10:
        a = (rng.choice((1, 2, 3, 6)),)
        for _ in range(rng.randint(2, 4)):
            a = dense.mul(zpoly.ZZ, a, _random_zpoly(rng, 3))
        a = zpoly.zprimitive(a)
        if factor._yun_squarefree(a) != [(a, 1)] or len(a) < 3:
            continue
        calls.clear()
        # the prime the factoriser picks is the least one that _modular_factors
        # accepts
        modular = next(m for m in map(functools.partial(_modular_factors, a), sympy.primerange(3, 1000)) if m is not None)
        factor._factor_squarefree_z(a)
        several = sum(len(fac) > 2 for fac in modular) > 1
        assert bool(calls) == several, a
        seen[several] += 1


def test_recombine_searches_sizes_in_order_with_one_try_per_key_tuple():
    from rect4.polynomials import factor

    # integers stand in for polynomials: the primes are the items, and a
    # product in ``divisors`` is what the fake split accepts
    calls = []

    def splitter(divisors):
        def split(cofactor, factors):
            calls.append(tuple(factors))
            d = math.prod(factors)
            return (d, cofactor // d) if d in divisors else None

        return split

    primes = [2, 3, 5, 7, 11, 13]
    items = list(enumerate(primes))
    # after the six single primes, 6 splits off and the size-2 search starts
    # again on what is left, where 35 comes first; the two primes left then
    # are too few for a proper split
    assert factor.recombine(30030, items, splitter({6, 35})) == ([6, 35], 143)
    assert calls[6:] == [(2, 3), (5, 7)]
    calls.clear()
    assert factor.recombine(30030, items, splitter({6, 35}), limit=1) == ([6], 5005)
    assert calls[6:] == [(2, 3)]
    # equal keys mark one factor repeated with multiplicity: each distinct
    # key tuple is tried once per pass, 2 of 4 at size 1 and 3 of 6 at size 2
    calls.clear()
    repeated = [(0, 2), (0, 2), (1, 3), (1, 3)]
    assert factor.recombine(36, repeated, splitter(set())) == ([], 36)
    assert calls == [(2,), (3,), (2, 2), (2, 3), (3, 3)]


def _recombine_by_combinations(cofactor, items, split, limit=None):
    """The reference enumeration: index combinations by increasing size, each
    key tuple tried once per pass, as ``factor.recombine`` searched before it
    enumerated sub-multisets of the distinct keys directly."""
    import itertools

    divisors = []
    size = 1
    while 2 * size <= len(items) and len(divisors) != limit:
        seen = set()
        for combo in itertools.combinations(range(len(items)), size):
            key = tuple(items[k][0] for k in combo)
            if key in seen:
                continue
            seen.add(key)
            found = split(cofactor, [items[k][1] for k in combo])
            if found is not None:
                divisor, cofactor = found
                divisors.append(divisor)
                items = [item for k, item in enumerate(items) if k not in combo]
                break
        else:
            size += 1
    return divisors, cofactor


def test_recombine_tries_the_candidates_of_the_reference_enumeration():
    """On seeded multisets (1-6 distinct primes, each repeated 1-3 times,
    grouped by key), the sub-multiset search tries the same candidates in the
    same order as the index combinations with a seen set, and splits off the
    same divisors, with and without ``limit``."""
    from rect4.polynomials import factor

    rng = random.Random(1515)
    primes = [2, 3, 5, 7, 11, 13]
    splits = 0
    for _ in range(300):
        keys = rng.sample(range(len(primes)), rng.randint(1, 6))
        items = [(k, primes[k]) for k in keys for _ in range(rng.randint(1, 3))]
        accepted = {math.prod(rng.sample([g for _, g in items], rng.randint(1, len(items))))
                    for _ in range(rng.randint(0, 3))}
        for limit in (None, 1, 2):
            logs = []
            for search in (factor.recombine, _recombine_by_combinations):
                calls = []

                def split(cofactor, factors):
                    calls.append(tuple(factors))
                    d = math.prod(factors)
                    return (d, cofactor // d) if d in accepted and cofactor % d == 0 else None

                logs.append((search(math.prod(g for _, g in items), items, split, limit), calls))
            assert logs[0] == logs[1], (items, accepted, limit)
            splits += len(logs[0][0][0])
    assert splits > 100


def test_recombine_near_square_over_f5_finishes():
    # the Kronecker image has linear factors of multiplicity 9, 25 and 26:
    # 62 items but few distinct sub-multisets
    proc = run_cli_capped(
        "analyze", "X", "Z^10+2*Z^5*T^5+T^10+3*Z^9+3*Z^4*T^5+4*Z^5*T+4*T^6", "F5", "--json"
    )
    assert proc.returncode == 2, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["verdict"], doc["ufd"], doc["roots"][0]["irreducible"]) == ("Inconclusive", "false", "false")
