import itertools
import random
from fractions import Fraction

import pytest
import sympy

from rect4.fields import GF, QQ, extend
from rect4.polynomials import (
    GREVLEX,
    LEX,
    MonomialOrder,
    MultiPoly,
    groebner_basis,
    ideal_contains_one,
    normal_form,
    s_polynomial,
)

from conftest import random_poly

XY = ("X", "Y")
ZT = ("Z", "T")


def test_lex_collapse():
    X = MultiPoly.variable(QQ, ("X",), "X")
    basis = groebner_basis([X * X - 1, X - 1], LEX)
    assert basis == [X - 1]


def test_two_variables_stay():
    Z = MultiPoly.variable(QQ, ZT, "Z")
    T = MultiPoly.variable(QQ, ZT, "T")
    for order in (GREVLEX, LEX):
        basis = groebner_basis([Z, T], order)
        assert sorted(str(g) for g in basis) == ["T", "Z"]


def test_jacobian_style_unit_ideal():
    # the partial derivatives force 1 into the ideal in characteristic zero
    Z = MultiPoly.variable(QQ, ZT, "Z")
    T = MultiPoly.variable(QQ, ZT, "T")
    f = Z * Z + T**3 + 1
    basis = groebner_basis([f, 2 * Z, 3 * T * T])
    assert len(basis) == 1 and basis[0].is_constant()
    assert ideal_contains_one([f, 2 * Z, 3 * T * T])


def test_contains_one_examples():
    Z = MultiPoly.variable(QQ, ZT, "Z")
    T = MultiPoly.variable(QQ, ZT, "T")
    one = MultiPoly.one(QQ, ZT)
    assert ideal_contains_one([Z, T, one])
    assert not ideal_contains_one([Z])


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_generators_reduce_to_zero(field, rng):
    for _ in range(25):
        gens = [random_poly(field, ZT, rng) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = groebner_basis(gens)
        for g in gens:
            assert normal_form(g, basis).is_zero()


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_buchberger_criterion_on_output(field, rng):
    for _ in range(15):
        gens = [random_poly(field, ZT, rng, max_deg=2, n_terms=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = groebner_basis(gens)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_polynomial(basis[i], basis[j])
                assert normal_form(s, basis).is_zero()


def test_order_insensitive_as_ideal(rng):
    for _ in range(10):
        gens = [random_poly(QQ, ZT, rng, max_deg=2, n_terms=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        b1 = groebner_basis(gens, GREVLEX)
        b2 = groebner_basis(gens, LEX)
        for g in b1:
            assert normal_form(g, b2, LEX).is_zero()
        for g in b2:
            assert normal_form(g, b1, GREVLEX).is_zero()


def test_elimination_order_blocks():
    order = MonomialOrder("elimination", split=1)
    # any monomial containing the first variable outranks pure second-block
    assert order.key((1, 0)) > order.key((0, 5))
    assert order.key((0, 2)) > order.key((0, 1))


# -- differential tests: reference division and sympy ---------------------------

XYZ = ("X", "Y", "Z")
ORDERS = [
    LEX,
    GREVLEX,
    MonomialOrder("elimination", split=1),
    MonomialOrder("elimination", split=2),
]
ORDER_IDS = ["lex", "grevlex", "elim1", "elim2"]


def reference_normal_form(f, divisors, order):
    """Multivariate division on whole polynomials: the largest remaining term
    (by ``order.key``) is reduced by the first divisor whose leading monomial
    divides it, or moved to the remainder."""
    leads = [max(g.terms.items(), key=lambda t: order.key(t[0])) for g in divisors]
    rem = MultiPoly.zero(f.field, f.vars)
    work = f
    while not work.is_zero():
        we, wc = max(work.terms.items(), key=lambda t: order.key(t[0]))
        lead = MultiPoly(f.field, f.vars, {we: wc})
        for g, (ge, gc) in zip(divisors, leads):
            if all(a >= b for a, b in zip(we, ge)):
                shift = tuple(a - b for a, b in zip(we, ge))
                work = work - MultiPoly(f.field, f.vars, {shift: f.field.raw_div(wc, gc)}) * g
                break
        else:
            rem = rem + lead
            work = work - lead
    return rem


def test_descending_key_reverses_the_order():
    rng = random.Random(3)
    exps = {tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(300)}
    for order in ORDERS:
        by_key = sorted(exps, key=order.key, reverse=True)
        assert sorted(exps, key=order.descending_key) == by_key


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@pytest.mark.parametrize("field", [QQ, GF(5), extend(QQ, [1, 0, 1], "i")], ids=str)
def test_normal_form_matches_reference_division(field, order):
    rng = random.Random(17)
    strategy_dependent = 0
    for _ in range(30):
        divisors = [
            random_poly(field, XYZ, rng, max_deg=2, n_terms=3)
            for _ in range(rng.randint(2, 4))
        ]
        divisors = [g for g in divisors if not g.is_zero()]
        f = random_poly(field, XYZ, rng, max_deg=4, n_terms=8)
        r = normal_form(f, divisors, order)
        assert r == reference_normal_form(f, divisors, order)
        flipped = divisors[::-1]
        r_flipped = normal_form(f, flipped, order)
        assert r_flipped == reference_normal_form(f, flipped, order)
        strategy_dependent += r != r_flipped
    # the divisor lists are not Groebner bases: the remainder depends on
    # which divisor reduces first
    assert strategy_dependent >= 5


SYMS = sympy.symbols("X Y Z")


def to_sympy(poly):
    expr = 0
    for e, c in poly.terms.items():
        q = Fraction(c)
        mono = sympy.Mul(*(s**k for s, k in zip(SYMS, e)))
        expr += sympy.Rational(q.numerator, q.denominator) * mono
    return expr


def monic_terms(items, order, p):
    """Canonical monic term set of (exponent, rational coefficient) pairs."""
    items = [(tuple(e), Fraction(c)) for e, c in items]
    if p is not None:
        items = [(e, Fraction(int(c) % p)) for e, c in items]
    lead = max(items, key=lambda t: order.key(t[0]))[1]
    if p is None:
        return frozenset((e, c / lead) for e, c in items)
    inv = pow(int(lead), -1, p)
    return frozenset((e, int(c) * inv % p) for e, c in items if int(c) % p)


@pytest.mark.parametrize(
    "order, name", [(GREVLEX, "grevlex"), (LEX, "lex")], ids=["grevlex", "lex"]
)
@pytest.mark.parametrize("field, p", [(QQ, None), (GF(5), 5), (GF(7), 7)], ids=["Q", "F5", "F7"])
def test_groebner_basis_matches_sympy(field, p, order, name):
    rng = random.Random(29)
    nontrivial = 0
    for n_vars, n_gens in itertools.islice(itertools.cycle([(2, 2), (2, 3), (3, 2), (3, 3)]), 16):
        vars = XYZ[:n_vars]
        gens = [random_poly(field, vars, rng, max_deg=2, n_terms=3) for _ in range(n_gens)]
        gens = [g for g in gens if not g.is_zero()]
        ours = groebner_basis(gens, order)
        opts = {"order": name} if p is None else {"order": name, "modulus": p}
        theirs = sympy.groebner([to_sympy(g) for g in gens], *SYMS[:n_vars], **opts)
        want = {
            monic_terms(
                ((e, Fraction(int(c.p), int(c.q)) if p is None else int(c)) for e, c in g.terms()),
                order,
                p,
            )
            for g in theirs.polys
        }
        got = {
            monic_terms(((e, c) for e, c in g.terms.items()), order, p) for g in ours
        }
        assert got == want, [str(g) for g in gens]
        assert all(g.leading_term(order)[1].is_one() for g in ours)
        nontrivial += len(ours) > 1
    assert nontrivial >= 4
