"""Differential tests of the dense univariate arithmetic against sympy.

Seeded random polynomials over Q, F5 and F7 (and F2, F3 for F_p(s) and the
factoriser) go through the public entry points that run on the dense layer --
``univariate_gcd``, algebraic-extension and F_p(s) field arithmetic,
``factor_mod_p`` -- and through ``rect4.dense`` itself; every result is
compared with ``sympy.Poly`` (``modulus=p`` over the prime fields).  sympy is
a test-only dependency.
"""

import ast
import pathlib
import random
from fractions import Fraction

import pytest
import sympy

from rect4 import dense
from rect4.fields import GF, QQ, ExtensionField, rational_function_field
from rect4.polynomials import MultiPoly, univariate_gcd
from rect4.polynomials.factor import factor_mod_p

from conftest import extension_element

x = sympy.Symbol("x")
FIELDS = [(QQ, None), (GF(5), 5), (GF(7), 7)]
FIELD_IDS = ["Q", "F5", "F7"]


def random_dense(p, rng, deg):
    """Dense coefficients of exact degree ``deg`` over Q (p None) or F_p."""
    if p is None:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg + 1)]
        while not coeffs[-1]:
            coeffs[-1] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    else:
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
    return tuple(coeffs)


def to_sympy(coeffs, p):
    high_first = [sympy.Rational(c.numerator, c.denominator) if p is None else c
                  for c in reversed(coeffs)] or [0]
    if p is None:
        return sympy.Poly(high_first, x, domain="QQ")
    return sympy.Poly(high_first, x, modulus=p)


def from_sympy(poly, p):
    coeffs = [Fraction(int(c.p), int(c.q)) if p is None else int(c) % p
              for c in reversed(poly.all_coeffs())]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def trimmed(rep):
    rep = list(rep)
    while rep and not rep[-1]:
        rep.pop()
    return tuple(rep)


def irreducible_monic(p, rng, deg):
    while True:
        m = random_dense(p, rng, deg)
        m = tuple(c / m[-1] for c in m) if p is None else tuple(
            c * pow(m[-1], -1, p) % p for c in m
        )
        if to_sympy(m, p).is_irreducible:
            return m


# -- the dense layer itself ---------------------------------------------------------


@pytest.mark.parametrize("field,p", FIELDS, ids=FIELD_IDS)
def test_dense_kernels_match_sympy(field, p):
    rng = random.Random(1000 + (p or 0))
    for _ in range(25):
        a = random_dense(p, rng, rng.randint(0, 7))
        b = random_dense(p, rng, rng.randint(0, 5))
        common = random_dense(p, rng, rng.randint(0, 2))
        a, b = dense.mul(field, a, common), dense.mul(field, b, common)
        A, B = to_sympy(a, p), to_sympy(b, p)
        assert dense.mul(field, a, b) == from_sympy(A * B, p)
        assert dense.add(field, a, b) == from_sympy(A + B, p)
        assert dense.sub(field, a, b) == from_sympy(A - B, p)
        q, r = dense.divmod(field, a, b)
        assert (q, r) == (from_sympy(A.quo(B), p), from_sympy(A.rem(B), p))
        g = dense.gcd(field, a, b)
        assert g == from_sympy(A.gcd(B).monic(), p)
        assert dense.lcm(field, a, b) == from_sympy(A.lcm(B).monic(), p)
        s, t, h = A.gcdex(B)
        assert dense.xgcd(field, a, b) == (from_sympy(h, p), from_sympy(s, p), from_sympy(t, p))
        assert dense.deriv(field, a) == from_sympy(A.diff(x), p)
        assert dense.powmod(field, a, 5, b) == from_sympy((A**5).rem(B), p)
        k = rng.randint(-3, 3)
        value = A.eval(k)
        expected = Fraction(int(value.p), int(value.q)) if p is None else int(value) % p
        assert dense.eval(field, a, field.raw_from_int(k)) == expected


def test_dense_imports_nothing_from_rect4():
    path = pathlib.Path(dense.__file__)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("rect4"), ast.dump(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("rect4") for a in node.names), ast.dump(node)


# -- entry points built on the dense layer ---------------------------------------------


@pytest.mark.parametrize("field,p", FIELDS, ids=FIELD_IDS)
def test_univariate_gcd_matches_sympy(field, p):
    rng = random.Random(2000 + (p or 0))

    def poly(coeffs):
        return MultiPoly.from_dense(field, ("X",), "X", coeffs)

    for _ in range(25):
        common = to_sympy(random_dense(p, rng, rng.randint(0, 3)), p)
        A = common * to_sympy(random_dense(p, rng, rng.randint(0, 4)), p)
        B = common * to_sympy(random_dense(p, rng, rng.randint(0, 4)), p)
        g = univariate_gcd(poly(from_sympy(A, p)), poly(from_sympy(B, p)), "X")
        assert g.to_dense("X") == from_sympy(A.gcd(B).monic(), p)


@pytest.mark.parametrize("field,p", FIELDS, ids=FIELD_IDS)
def test_extension_arithmetic_matches_sympy(field, p):
    # products fold through the field's table of powers of the generator;
    # inverses come from Gaussian elimination on the multiplication matrix
    rng = random.Random(3000 + (p or 0))
    for deg in (2, 3, 4, 5):
        m = irreducible_monic(p, rng, deg)
        M = to_sympy(m, p)
        E = ExtensionField(field, m)
        for _ in range(6):
            a = random_dense(p, rng, rng.randint(0, deg - 1))
            b = random_dense(p, rng, rng.randint(0, deg - 1))
            ea = extension_element(E, [field.element(c) for c in a])
            eb = extension_element(E, [field.element(c) for c in b])
            A, B = to_sympy(a, p), to_sympy(b, p)
            assert trimmed((ea * eb).rep) == from_sympy((A * B).rem(M), p)
            assert trimmed(eb.inv().rep) == from_sympy(B.invert(M), p)
            assert trimmed((ea / eb).rep) == from_sympy((A * B.invert(M)).rem(M), p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rational_function_arithmetic_matches_sympy(p):
    # F_p(s) elements are reduced fractions with a monic denominator
    # (dense gcd and exact division over F_p); a constant denominator skips
    # the gcd, and equal denominators are added without cross products
    F = rational_function_field(p)
    rng = random.Random(4000 + p)

    def reduced(N, D):
        g = N.gcd(D)
        num, den = N.quo(g), D.quo(g)
        lc_inv = pow(int(den.LC()) % p, -1, p)
        return (from_sympy(num * lc_inv, p), from_sympy(den.monic(), p))

    def element(N, D):
        return F.from_polynomial(from_sympy(N, p)) / F.from_polynomial(from_sympy(D, p))

    for _ in range(25):
        common = to_sympy(random_dense(p, rng, rng.randint(0, 2)), p)
        n1, d1, n2, d2 = (
            common * to_sympy(random_dense(p, rng, rng.randint(0, 4)), p) for _ in range(4)
        )
        x1 = element(n1, d1)
        x2 = element(n2, d2)
        assert x1.rep == reduced(n1, d1)
        assert (x1 * x2).rep == reduced(n1 * n2, d1 * d2)
        assert (x1 / x2).rep == reduced(n1 * d2, d1 * n2)
        assert x2.inv().rep == reduced(d2, n2)
        assert (x1 + x2).rep == reduced(n1 * d2 + n2 * d1, d1 * d2)
        assert (x1 - x2).rep == reduced(n1 * d2 - n2 * d1, d1 * d2)
        assert (x1 - x1).rep == ((), (1,))

    one = to_sympy((1,), p)
    for _ in range(25):
        # constant denominators: x / c and c / x for a constant c, possibly
        # not 1 (from p = 3 on), and sums over one shared denominator
        c = to_sympy(random_dense(p, rng, 0), p)
        n, r, k = (to_sympy(random_dense(p, rng, rng.randint(0, 4)), p) for _ in range(3))
        x = element(n, one)
        assert (x / element(c, one)).rep == reduced(n, c)
        assert element(n, c).rep == reduced(n, c)
        assert (element(c, one) / x).rep == reduced(c, n)
        assert F.from_polynomial(from_sympy(c, p)).inv().rep == reduced(one, c)
        assert (element(n, c) + element(r, c)).rep == reduced(n + r, c)
        # over d = g*h, the sum (g*r - n)/d + n/d reduces to r/h
        g = to_sympy(random_dense(p, rng, rng.randint(1, 2)), p)
        d = g * k
        assert (element(g * r - n, d) + element(n, d)).rep == reduced(g * r, d)


def _factor_inputs():
    """52 seeded polynomials over F2, F3, F5, F7.  Every fourth one, and a
    few more, has a factor g^p or g(X^p), which takes the inseparable branch
    of the squarefree decomposition."""
    rng = random.Random(5000)
    for i in range(52):
        p = (2, 3, 5, 7)[i % 4]
        f = to_sympy(random_dense(p, rng, rng.randint(1, 4)), p)
        for _ in range(rng.randint(0, 2)):
            f *= to_sympy(random_dense(p, rng, rng.randint(1, 3)), p) ** rng.randint(1, 3)
        if i % 4 == 3 or i % 13 == 0:
            g = to_sympy(random_dense(p, rng, rng.randint(1, 3)), p)
            f *= g**p if i % 2 else g.compose(sympy.Poly(x**p, x, modulus=p))
        yield p, f


FACTOR_INPUTS = list(_factor_inputs())


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # inside sympy.factor_list
@pytest.mark.parametrize(
    "p,f", FACTOR_INPUTS, ids=[f"F{p}-{i}" for i, (p, _) in enumerate(FACTOR_INPUTS)]
)
def test_factor_mod_p_matches_sympy(p, f):
    coeffs = from_sympy(f, p)
    unit, factors = factor_mod_p(list(coeffs), p)
    assert unit == coeffs[-1]
    _, expected = sympy.factor_list(f.as_expr(), modulus=p)
    expected = [(from_sympy(sympy.Poly(g, x, modulus=p).monic(), p), m) for g, m in expected]
    assert sorted((tuple(g), m) for g, m in factors) == sorted(expected)
