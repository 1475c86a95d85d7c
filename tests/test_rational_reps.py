"""The raw rational representation, through every layer that builds one.

A raw rational is an int when its value is integral and a Fraction with a
denominator above one otherwise (``RationalField``).  These tests walk the
results of the parser, substitution, Groebner bases, factorization, the
plane-coordinate certificates and the analyzer with
``conftest.assert_canonical_rationals``.
"""

import random
from fractions import Fraction

from rect4.exprparse import parse_field_spec, parse_polynomial
from rect4.fields import QQ, ExtensionField
from rect4.hyperplane import Hyperplane, analyze
from rect4.plane_coordinates import TameStep, vartest
from rect4.polynomials import GREVLEX, LEX, MultiPoly, groebner_basis, normal_form, univariate_factor

from conftest import XZT, ZT, assert_canonical_rationals, random_coordinate

QG = parse_field_spec("Q[g]/(g^2-2)")


def kinds(reps):
    return {type(r) for r in reps}


def test_parsed_coefficients_are_ints_exactly_when_integral():
    f = parse_polynomial("6/3*Z^2 + Z*T/2 - 4/2*T + 3/9", QQ, ZT)
    reps = assert_canonical_rationals(f)
    assert kinds(reps) == {int, Fraction}
    assert type(f.terms[(2, 0)]) is int and f.terms[(2, 0)] == 2
    assert type(f.terms[(0, 1)]) is int and f.terms[(0, 1)] == -2
    assert f.terms[(0, 0)] == Fraction(1, 3)
    g = parse_polynomial("g/2*Z + 4/2*g*T - 6/3", QG, ZT)
    reps = assert_canonical_rationals(g)
    assert kinds(reps) == {int, Fraction}
    assert g.terms[(0, 1)] == (0, 2) and type(g.terms[(0, 1)][1]) is int


def test_substitution_results_are_canonical():
    f = parse_polynomial("Z^3/3 + Z*T/2 + 2*T^2 - 1", QQ, ZT)
    images = {
        "Z": parse_polynomial("3*Z/2 + T/3", QQ, ZT),
        "T": parse_polynomial("2*T - 1/2", QQ, ZT),
    }
    reps = assert_canonical_rationals(f.substitute(images))
    assert Fraction in kinds(reps)
    # halves and thirds that cancel to integers come back as ints
    h = parse_polynomial("Z^2/4 + T/3", QQ, ZT)
    out = h.substitute({"Z": parse_polynomial("2*Z", QQ, ZT), "T": parse_polynomial("3*T", QQ, ZT)})
    assert out == parse_polynomial("Z^2 + T", QQ, ZT)
    assert kinds(assert_canonical_rationals(out)) == {int}
    step = TameStep(
        "linear",
        QG,
        matrix=((QG.coerce(Fraction(1, 2)), QG.generator()), (QG.zero(), QG.from_int(2))),
        translation=(QG.coerce(Fraction(-3, 2)), QG.one()),
    )
    g = parse_polynomial("Z^2 + g*T/2 + 1", QG, ZT)
    assert kinds(assert_canonical_rationals(step.apply(g))) == {int, Fraction}
    rng = random.Random(5)
    for _ in range(10):
        assert_canonical_rationals(random_coordinate(QQ, rng, deg_cap=10))


def test_groebner_bases_and_normal_forms_are_canonical():
    gens = [
        parse_polynomial("2*X^2*Z + 3*T - 1", QQ, XZT),
        parse_polynomial("3*X*Z*T - 1/2", QQ, XZT),
        parse_polynomial("X*T^2/5 + Z", QQ, XZT),
    ]
    for order in (GREVLEX, LEX):
        basis = groebner_basis(gens, order)
        reps = assert_canonical_rationals(basis)
        assert reps and 1 in reps  # reduced bases are monic
        f = parse_polynomial("X^3*Z^2/7 + 2*X*T + Z^2*T", QQ, XZT)
        r = normal_form(f, basis, order)
        assert kinds(assert_canonical_rationals(r)) == {int, Fraction}
    # a unit ideal: the basis is the integer 1
    unit = groebner_basis([parse_polynomial("2*Z", QQ, ZT), parse_polynomial("3*Z - 1/2", QQ, ZT)])
    assert unit == [MultiPoly.one(QQ, ZT)]
    assert [type(c) for c in unit[0].terms.values()] == [int]


def test_factorization_unit_and_factors_are_canonical():
    # 6 * (X + 1/2) * (X - 1/3) * X^2: an integral unit and fractional factors
    fact = univariate_factor(parse_polynomial("(2*X+1)*(3*X-1)*X^2", QQ, ("X",)))
    assert fact.unit == QQ.from_int(6)
    assert type(fact.unit.rep) is int
    reps = assert_canonical_rationals([fact.unit, fact.factors])
    assert kinds(reps) == {int, Fraction}
    half = univariate_factor(parse_polynomial("X^2/2 - 2", QQ, ("X",)))
    assert half.unit.rep == Fraction(1, 2)
    assert kinds(assert_canonical_rationals([half.unit, half.factors])) == {int, Fraction}


def test_vartest_certificates_are_canonical():
    for text in ("Z/2 + 3*T/4", "Z + (T/2 + Z^2/3)^3", "2*T + (Z + T/3)^2 + 1/2"):
        f = parse_polynomial(text, QQ, ZT)
        r = vartest(f)
        assert r.accepted
        reps = assert_canonical_rationals(r.certificate)
        assert Fraction in kinds(reps)
        assert r.certificate.image_of_variable("T") == f
    f = parse_polynomial("g*Z/2 + (T + Z^2/3)^2", QG, ZT)
    r = vartest(f)
    assert r.accepted
    assert assert_canonical_rationals(r.certificate)


def test_analyze_specializations_over_q_and_a_quadratic_residue_field():
    # a has the rational root 1/2 and the roots of X^2-2, whose residue
    # field is Q[g]/(g^2-2)
    a = parse_polynomial("(2*X-1)*(X^2-2)", QQ, ("X",))
    F = parse_polynomial("Z + X*T^2/3 + X^2*Z^2/2", QQ, XZT)
    report = analyze(Hyperplane(a, F))
    fields = [rd.residue_field for rd in report.roots]
    assert QQ in fields and any(isinstance(K, ExtensionField) for K in fields)
    reps = assert_canonical_rationals([report.roots, report.coordinates])
    assert kinds(reps) == {int, Fraction}
    for rd in report.roots:
        assert assert_canonical_rationals(rd.specialization)
