"""Differential tests of the polynomial division kernel against sympy.

``exact_divide``, ``divides`` and ``divmod_in_variable`` all run on the heap
division of ``rect4.polynomials.multipoly``.  Seeded random polynomials over
Q, F5 and F7 are divided here and by ``sympy.div`` (``modulus=p`` over the
prime fields), with the generators ordered so that the division variable
comes first.  sympy divides recursively in its first generator, so for a
divisor whose leading coefficient in that variable is a constant its quotient
and remainder are the unique ones with deg_var r < deg_var g.  Over Q[i],
which sympy is not asked about, the division identity is checked directly.
"""

import ast
import pathlib
import random
from fractions import Fraction

import pytest
import sympy

from rect4.fields import GF, QQ, extend
from rect4.polynomials import (
    MultiPoly,
    PolynomialError,
    divides,
    divmod_in_variable,
    exact_divide,
)

from conftest import random_poly

XZT = ("X", "Z", "T")
SYMS = dict(zip(XZT, sympy.symbols("X Z T")))
FIELDS = [(QQ, None), (GF(5), 5), (GF(7), 7)]
FIELD_IDS = ["Q", "F5", "F7"]
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def gens_first(var):
    """The sympy generators with ``var`` first, the others in XZT order."""
    return [SYMS[var]] + [SYMS[v] for v in XZT if v != var]


def to_sympy(poly):
    expr = 0
    for e, c in poly.terms.items():
        q = Fraction(c)
        mono = sympy.Mul(*(SYMS[v] ** k for v, k in zip(XZT, e)))
        expr += sympy.Rational(q.numerator, q.denominator) * mono
    return expr


def sympy_div(f, g, var, p):
    """sympy's (quotient, remainder) of f by g, as MultiPolys."""
    gens = gens_first(var)
    opts = {} if p is None else {"modulus": p}
    q, r = sympy.div(to_sympy(f), to_sympy(g), *gens, **opts)
    return tuple(from_sympy(sympy.Poly(x, *gens, **opts), f.field, gens, p) for x in (q, r))


def from_sympy(poly, field, gens, p):
    names = [str(s) for s in gens]
    pairs = []
    for monom, c in poly.terms():
        exps = dict(zip(names, monom))
        c = Fraction(int(c.p), int(c.q)) if p is None else int(c) % p
        pairs.append((tuple(exps.get(v, 0) for v in XZT), c))
    return MultiPoly.from_terms(field, XZT, pairs)


def divisor_in(field, var, rng, pool=(-3, -2, -1, 1, 2, 3)):
    """A random divisor whose leading coefficient in ``var`` is a constant."""
    i = XZT.index(var)
    dg = rng.randint(1, 3)
    lead = [0, 0, 0]
    lead[i] = dg
    g = MultiPoly.from_terms(field, XZT, [(lead, rng.choice(pool))])
    for _ in range(rng.randint(1, 4)):
        e = [rng.randint(0, 2) for _ in XZT]
        e[i] = rng.randint(0, dg - 1)
        g = g + MultiPoly.from_terms(field, XZT, [(e, rng.choice(pool))])
    return g


@pytest.mark.parametrize("field,p", FIELDS, ids=FIELD_IDS)
def test_exact_divide_products_match_sympy(field, p):
    rng = random.Random(41 + (p or 0))
    for _ in range(25):
        g = random_poly(field, XZT, rng, max_deg=2, n_terms=3)
        h = random_poly(field, XZT, rng, max_deg=2, n_terms=4)
        if g.is_zero() or h.is_zero():
            continue
        f = g * h
        assert exact_divide(f, g) == h
        assert divides(g, f)
        q, r = sympy_div(f, g, "X", p)
        assert r.is_zero() and q == h


@pytest.mark.parametrize("field,p", FIELDS, ids=FIELD_IDS)
def test_non_divisors_are_rejected_like_sympy(field, p):
    rng = random.Random(43 + (p or 0))
    rejected = 0
    for _ in range(25):
        g = random_poly(field, XZT, rng, max_deg=2, n_terms=3)
        h = random_poly(field, XZT, rng, max_deg=2, n_terms=3)
        extra = random_poly(field, XZT, rng, max_deg=3, n_terms=1)
        if g.is_zero() or g.is_constant():
            continue
        f = g * h + extra
        _, r = sympy_div(f, g, "X", p)
        divisible = r.is_zero()
        assert divides(g, f) == divisible
        if divisible:
            assert exact_divide(f, g) * g == f
        else:
            rejected += 1
            with pytest.raises(PolynomialError):
                exact_divide(f, g)
    assert rejected >= 15


@pytest.mark.parametrize("var", ["X", "Z"])
@pytest.mark.parametrize("field,p", FIELDS, ids=FIELD_IDS)
def test_divmod_in_variable_matches_sympy(field, p, var):
    # "Z" is not the first of the variables (X, Z, T)
    rng = random.Random(47 + (p or 0) + 100 * XZT.index(var))
    for _ in range(25):
        g = divisor_in(field, var, rng)
        f = random_poly(field, XZT, rng, max_deg=4, n_terms=6)
        q, r = divmod_in_variable(f, g, var)
        assert (q, r) == sympy_div(f, g, var, p)
        assert r.degree_in(var) < g.degree_in(var)


def test_divmod_in_variable_over_gaussian_rationals():
    field = extend(QQ, [1, 0, 1], "i")
    i = field.generator()
    rng = random.Random(53)
    pool = (1, -2, 3, i, 1 + i, 2 - i)
    for var in ("X", "Z"):
        for _ in range(25):
            g = divisor_in(field, var, rng, pool)
            f = random_poly(field, XZT, rng, max_deg=4, n_terms=4)
            f = f + random_poly(field, XZT, rng, max_deg=4, n_terms=3).scale(i)
            q, r = divmod_in_variable(f, g, var)
            assert f == q * g + r
            assert r.degree_in(var) < g.degree_in(var)


def test_divmod_in_variable_needs_a_constant_leading_coefficient():
    X, Z, T = (MultiPoly.variable(QQ, XZT, v) for v in XZT)
    with pytest.raises(PolynomialError):
        divmod_in_variable(Z**3, X * Z + T, "Z")


def _imports(module):
    """The names that each import statement of ``src/rect4/<module>`` reads,
    one list per statement."""
    for node in ast.walk(ast.parse((SRC / "rect4" / module).read_text())):
        if isinstance(node, ast.ImportFrom):
            yield [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            yield [a.name for a in node.names]


@pytest.mark.parametrize("module", ["polynomials/groebner.py", "verifier.py"])
def test_referee_imports_nothing_from_plane_coordinates(module):
    # the verifier is an independent check of the coordinate certificates:
    # it shares polynomial arithmetic with their producer, not its code
    for names in _imports(module):
        assert not any("plane_coordinates" in n for n in names), names


def test_certificate_documents_import_nothing_from_the_decision_procedure():
    # the certificate reader replays through the producer's steps and the
    # referee; it must not reach the analysis whose answers it checks
    for names in _imports("certificates.py"):
        parts = {part for n in names for part in n.split(".")}
        assert not parts & {"hyperplane", "factor", "bivariate", "cli"}, names
