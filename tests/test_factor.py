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
    assert fact.factors == [] and fact.expand() == f


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=str)
def test_factor_merge_property(field):
    # factoring f*g merges the separate factorizations up to unit and order
    rng = random.Random(99)
    for _ in range(40):
        f = random_univariate(field, rng)
        g = random_univariate(field, rng)
        ff = univariate_factor(f, rng=random.Random(1))
        fg = univariate_factor(g, rng=random.Random(1))
        combined = univariate_factor(f * g, rng=random.Random(1))
        merged = {}
        for fact in (ff, fg):
            for q, m in fact.factors:
                merged[str(q)] = merged.get(str(q), 0) + m
        got = {}
        for q, m in combined.factors:
            got[str(q)] = got.get(str(q), 0) + m
        assert got == merged
        assert combined.expand() == f * g


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=str)
def test_expand_reproduces_input(field):
    rng = random.Random(31)
    for _ in range(30):
        f = random_univariate(field, rng)
        fact = univariate_factor(f, rng=random.Random(2))
        assert fact.complete
        assert fact.expand() == f


def test_deep_rational_case():
    X = X_over(QQ)
    f = (X**3 + X + 1) * (X**2 - 2) ** 2 * (2 * X - 3)
    fact = univariate_factor(f)
    assert fact.expand() == f
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
    assert fact.expand() == f
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
        assert fact2.unresolved and fact2.expand() == g


def test_squarefree_split_matches_factor_mod_p():
    # _factor_squarefree_z splits the reduction of a squarefree polynomial
    # directly; factor_mod_p, which first decomposes it again, must give the
    # same factors in the same order and draw the same random numbers
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
        rng_split, rng_full = random.Random(compared), random.Random(compared)
        split = sorted(factor._p_split(F, dense.monic(F, am), rng_split), key=lambda f: (len(f), f))
        _, full = factor.factor_mod_p(a, p, rng_full)
        assert split == [f for f, _ in full], (a, p)
        assert all(m == 1 for _, m in full)
        assert rng_split.getstate() == rng_full.getstate()
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
