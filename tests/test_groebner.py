import functools
import itertools
import random
from fractions import Fraction

import pytest
import sympy

from rect4.exprparse import parse_polynomial
from rect4.fields import GF, QQ, extend, rational_function_field
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
from rect4.polynomials import groebner
from rect4.polynomials.multipoly import heap_divide, prepare_divisor

from conftest import _pool_element, leading_coeff, random_poly

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
        assert all(leading_coeff(g, order) == g.field.one() for g in ours)
        nontrivial += len(ours) > 1
    assert nontrivial >= 4


# -- an independent Buchberger reference ---------------------------------------

F2S = rational_function_field(2)
QI = extend(QQ, [1, 0, 1], "i")
REFERENCE_FIELDS = [QQ, GF(5), QI, F2S]


def _lead(g, order):
    return max(g.terms.items(), key=lambda t: order.key(t[0]))


def _monomial(field, vars, expv, raw_coeff):
    return MultiPoly(field, vars, {expv: raw_coeff})


def reference_groebner_basis(gens, order):
    """Reduced Groebner basis by the textbook loop: every pair of the growing
    basis, no criterion and no early stop, each S-polynomial reduced by
    :func:`reference_normal_form`; then the elements whose leading monomial
    another one divides are dropped and each tail is reduced by the rest."""
    field, vars = gens[0].field, gens[0].vars
    basis = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        (ei, ci), (ej, cj) = _lead(basis[i], order), _lead(basis[j], order)
        lcm = tuple(max(a, b) for a, b in zip(ei, ej))
        mi = _monomial(field, vars, tuple(a - b for a, b in zip(lcm, ei)), field.raw_inv(ci))
        mj = _monomial(field, vars, tuple(a - b for a, b in zip(lcm, ej)), field.raw_inv(cj))
        r = reference_normal_form(mi * basis[i] - mj * basis[j], basis, order)
        if not r.is_zero():
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(r)

    def divides(g, h):
        return all(a <= b for a, b in zip(_lead(g, order)[0], _lead(h, order)[0]))

    minimal = list(basis)
    while True:
        redundant = [g for g in minimal if any(h is not g and divides(h, g) for h in minimal)]
        if not redundant:
            break
        minimal.remove(redundant[0])
    reduced = []
    for g in minimal:
        e, c = _lead(g, order)
        lead = _monomial(field, vars, e, c)
        tail = reference_normal_form(g - lead, [h for h in minimal if h is not g], order)
        reduced.append((lead + tail).scale(field.element(field.raw_inv(c))))
    return sorted(reduced, key=lambda g: order.key(_lead(g, order)[0]), reverse=True)


def _random_coefficient_poly(field, vars, rng, max_deg, n_terms):
    """A sum of ``n_terms`` random terms of total degree at most ``max_deg``,
    with the generator of an extension or function field mixed into the
    coefficients now and then."""
    monomials = [e for e in itertools.product(range(max_deg + 1), repeat=len(vars)) if sum(e) <= max_deg]
    return MultiPoly.from_terms(
        field,
        vars,
        [(rng.choice(monomials), _pool_element(field, rng, (-3, -2, -1, 1, 2, 3))) for _ in range(n_terms)],
    )


def _reference_cases(field, seed):
    """Seeded generator sets: two or three random polynomials in X, Y, Z,
    and (f, f_Y, f_Z) for a random f in Y and Z, most of them unit ideals."""
    rng = random.Random(seed)
    cases = []
    for n_gens in (2, 3, 2, 3, 2, 3):
        cases.append([_random_coefficient_poly(field, XYZ, rng, 2, 3) for _ in range(n_gens)])
    for _ in range(10):
        # a constant term, in most draws, keeps the origin off the curve
        f = (_random_coefficient_poly(field, ("Y", "Z"), rng, 4, 4) + 1).with_vars(XYZ)
        cases.append([f, f.partial_derivative("Y"), f.partial_derivative("Z")])
    return [gens for gens in ([g for g in c if not g.is_zero()] for c in cases) if gens]


@functools.cache
def _reference_bases(field, order):
    """The seeded generator sets with their reference bases."""
    return [(gens, reference_groebner_basis(gens, order)) for gens in _reference_cases(field, 41)]


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=str)
def test_groebner_basis_matches_the_reference_buchberger(field, order):
    units = 0
    for gens, want in _reference_bases(field, order):
        ours = groebner_basis(gens, order)
        assert ours == want, [str(g) for g in gens]
        units += ours == [MultiPoly.one(field, XYZ)]
    assert units >= 5


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=str)
def test_groebner_basis_does_not_depend_on_the_generator_order(field, order):
    # groebner_basis sorts the generators by leading monomial, stably; the
    # reversed and shuffled lists also reorder generators with equal leads
    rng = random.Random(43)
    for gens, want in _reference_bases(field, order):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        for permuted in (gens[::-1], shuffled):
            assert groebner_basis(permuted, order) == want, [str(g) for g in permuted]


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=str)
def test_top_reduction_leaves_an_irreducible_lead_and_the_same_remainder(field, order):
    rng = random.Random(19)
    key = order.descending_key
    partial = 0
    for _ in range(30):
        divisors = [_random_coefficient_poly(field, XYZ, rng, 2, 3) for _ in range(rng.randint(2, 4))]
        divisors = [g for g in divisors if not g.is_zero()]
        f = _random_coefficient_poly(field, XYZ, rng, 4, 8)
        prepared = [prepare_divisor(g, key) for g in divisors]
        quotients, top = heap_divide(f, prepared, key, top=True)
        rem = MultiPoly(field, XYZ, top)
        combination = MultiPoly.zero(field, XYZ)
        for q, g in zip(quotients, divisors):
            combination = combination + MultiPoly(field, XYZ, q) * g
        assert f - combination == rem
        if top:
            lead = rem.leading_monomial(order)
            assert not any(all(a >= b for a, b in zip(lead, ge)) for ge, _, _ in prepared)
        full = normal_form(f, divisors, order)
        assert normal_form(rem, divisors, order) == full
        partial += rem != full
    # in most draws the top-reduced tail still holds reducible monomials
    assert partial >= 10


@pytest.mark.parametrize(
    "f_text, s_polynomials",
    # the generators enter smallest lead first.  For the first f, f_Z =
    # -T^3+2*Z-1 reduces f to -Z^2+4 before any pair is made; the second
    # S-polynomial, S(Z^2-4, Z-8) = 8*Z-4, reduces to a nonzero constant
    # while the pair (Z*T^2, Z-8) is still pending, and a Buchberger without
    # the stop goes on to reduce its S-polynomial 8*T^2 to zero (3 calls).
    # For the second f, f_T = 3 is a unit and enters first, so no pair is
    # made, with or without the stop
    [("-Z*T^3+Z^2-Z+4", 2), ("2*Z^2+3*T", 0)],
)
def test_a_constant_remainder_ends_the_basis_computation(monkeypatch, f_text, s_polynomials):
    f = parse_polynomial(f_text, QQ, ZT)
    calls = []
    real = groebner.s_polynomial

    def counting(a, b, order=GREVLEX):
        calls.append((a, b))
        return real(a, b, order)

    monkeypatch.setattr(groebner, "s_polynomial", counting)
    gens = [f, f.partial_derivative("Z"), f.partial_derivative("T")]
    assert groebner_basis(gens) == [MultiPoly.one(QQ, ZT)]
    assert len(calls) == s_polynomials
