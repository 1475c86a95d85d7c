import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rect4.fields import QQ, GF, Embedding, FieldMismatch, extend, rational_function_field
from rect4.polynomials import (
    MultiPoly,
    PolynomialError,
    content_free_part,
    divmod_in_variable,
    exact_divide,
    univariate_gcd,
)

from conftest import XZT, _pool_element, naive_substitute, random_poly, zt_vars

XY = ("X", "Y")


def test_product_difference_of_squares():
    X = MultiPoly.variable(QQ, XY, "X")
    Y = MultiPoly.variable(QQ, XY, "Y")
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_divmod_univariate_example():
    X = MultiPoly.variable(QQ, ("X",), "X")
    q, r = divmod_in_variable(X**3, X**2, "X")
    assert q == X and r.is_zero()


def test_exact_divide_example():
    X = MultiPoly.variable(QQ, ("X",), "X")
    assert exact_divide(X * X - 1, X + 1) == X - 1
    with pytest.raises(PolynomialError):
        exact_divide(X * X + 1, X + 1)


def test_degrees_multiplicative(rng):
    for field in (QQ, GF(5)):
        for _ in range(60):
            f = random_poly(field, XY, rng)
            g = random_poly(field, XY, rng)
            if f.is_zero() or g.is_zero():
                continue
            assert (f * g).total_degree() == f.total_degree() + g.total_degree()
            assert (f * g).degree_in("X") == f.degree_in("X") + g.degree_in("X")


def test_substitute_specialization():
    XZT = ("X", "Z", "T")
    X, Z, T = (MultiPoly.variable(QQ, XZT, v) for v in XZT)
    F = X * Z + T
    assert F.substitute({"X": QQ.zero()}) == T.with_vars(XZT)


def test_substitute_quadric_template_char2():
    # Z^p + c*T^p + T at p = 2 with the parameter as coefficient
    F2s = rational_function_field(2)
    Z, T = zt_vars(F2s)
    s = MultiPoly.constant(F2s, ("Z", "T"), F2s.parameter())
    lam = MultiPoly.variable(F2s, ("Z", "T", "lam"), "lam")
    template = (
        MultiPoly.variable(F2s, ("Z", "T", "lam"), "Z") ** 2
        + lam * MultiPoly.variable(F2s, ("Z", "T", "lam"), "T") ** 2
        + MultiPoly.variable(F2s, ("Z", "T", "lam"), "T")
    )
    bound = template.substitute({"lam": F2s.parameter()})
    assert bound.with_vars(("Z", "T")) == Z * Z + s * T * T + T


def test_substitute_composition():
    Z, T = zt_vars(QQ)
    f = Z + T * T
    g = f.substitute({"T": T + Z**3})
    assert g == Z + (T + Z**3) * (T + Z**3)


def test_substitute_promotes_to_extension():
    K = extend(QQ, [1, 0, 1], "i")
    XZT = ("X", "Z", "T")
    X, Z, T = (MultiPoly.variable(QQ, XZT, v) for v in XZT)
    F = Z + X * T
    spec = F.substitute({"X": K.generator()})
    assert spec.field == K
    Z_coeff, T_coeff = K.from_base(1), K.generator()
    assert spec == MultiPoly.from_terms(K, XZT, [((0, 1, 0), Z_coeff), ((0, 0, 1), T_coeff)])


def test_substitute_simultaneous_bindings_with_bound_images(rng):
    for field in (QQ, GF(5)):
        Z, T = zt_vars(field)
        for images in ({"Z": T, "T": Z}, {"Z": Z + T**3, "T": T + Z}):
            for _ in range(10):
                f = random_poly(field, ("Z", "T"), rng, max_deg=4, n_terms=6)
                assert f.substitute(images) == naive_substitute(f, images)


def _promotion_cases():
    Qi = extend(QQ, [1, 0, 1], "i")
    F2s = rational_function_field(2)
    F2sb = extend(F2s, [F2s.parameter(), 0, 1], "b")
    return [(QQ, Qi), (F2s, F2sb)]


@pytest.mark.parametrize("base, K", _promotion_cases(), ids=lambda f: str(f))
def test_substitute_promotes_into_the_binding_field(base, K, rng):
    up = Embedding(base, K)
    g = K.generator()
    X, Z, T = (MultiPoly.variable(K, XZT, v) for v in XZT)
    Z0, T0 = (MultiPoly.variable(base, XZT, v) for v in ("Z", "T"))
    for _ in range(6):
        terms = {
            tuple(rng.randint(0, 3) for _ in XZT): _pool_element(base, rng, (-3, -1, 1, 2))
            for _ in range(5)
        }
        f = MultiPoly.from_terms(base, XZT, terms.items())
        f_K = f.embed(up)
        for images in (
            {"X": g},
            {"X": Z * T + MultiPoly.constant(K, XZT, g), "Z": T},
            {"X": Z0 + T0, "Z": X.scale(g) + 1, "T": Z * Z},
        ):
            got = f.substitute(images)
            assert got.field == K
            expected = naive_substitute(
                f_K,
                {
                    v: MultiPoly.constant(K, XZT, im) if not isinstance(im, MultiPoly)
                    else im.embed(up) if im.field == base else im
                    for v, im in images.items()
                },
            )
            assert got == expected


@pytest.mark.parametrize("base, K", _promotion_cases(), ids=lambda f: str(f))
def test_embed_maps_coefficients_and_refuses_other_fields(base, K, rng):
    up = Embedding(base, K)
    terms = {
        tuple(rng.randint(0, 3) for _ in XZT): _pool_element(base, rng, (-3, 1, 2))
        for _ in range(5)
    }
    f = MultiPoly.from_terms(base, XZT, terms.items())
    f_K = f.embed(up)
    assert f_K.field == K and f_K.vars == f.vars
    assert f_K == MultiPoly.from_terms(K, XZT, [(e, K.from_base(c)) for e, c in terms.items()])
    for other in (f_K, MultiPoly.variable(GF(7), XZT, "Z")):
        with pytest.raises(FieldMismatch):
            other.embed(up)


def test_substitute_ints_zero_and_unbound_variables(rng):
    X, Z, T = (MultiPoly.variable(QQ, XZT, v) for v in XZT)
    for _ in range(10):
        f = random_poly(QQ, XZT, rng, max_deg=4, n_terms=6)
        assert f.substitute({"X": 2, "T": -1}) == naive_substitute(
            f, {"X": MultiPoly.constant(QQ, XZT, 2), "T": MultiPoly.constant(QQ, XZT, -1)}
        )
        assert f.substitute({"X": 0}) == naive_substitute(f, {"X": MultiPoly.zero(QQ, XZT)})
        # Z and T are unbound: only X moves
        assert f.substitute({"X": Z + T}) == naive_substitute(f, {"X": Z + T})
        assert f.substitute({}) == f
    zero = MultiPoly.zero(QQ, XZT)
    assert zero.substitute({"X": Z, "T": 3}) == zero
    K = extend(QQ, [1, 0, 1], "i")
    promoted = zero.substitute({"X": K.generator()})
    assert promoted.is_zero() and promoted.field == K


def test_partial_derivatives():
    Z, T = zt_vars(QQ)
    f = Z * Z + T**3 + 1
    assert f.partial_derivative("Z") == 2 * Z
    assert f.partial_derivative("T") == 3 * T * T
    F5 = GF(5)
    Z5, T5 = zt_vars(F5)
    assert (Z5**5).partial_derivative("Z").is_zero()
    XZT = ("X", "Z", "T")
    X, Zx, Tx = (MultiPoly.variable(QQ, XZT, v) for v in XZT)
    assert (X * Zx + Tx).partial_derivative("X") == Zx


def test_content_free_part_examples():
    XZT = ("X", "Z", "T")
    X, Z, T = (MultiPoly.variable(QQ, XZT, v) for v in XZT)
    content, prim = content_free_part(X * Z + X * T, ("Z", "T"))
    assert content == X and prim == Z + T
    content, _ = content_free_part(Z * Z + T, ("Z", "T"))
    assert content.is_constant()
    content, prim = content_free_part(X**2 * Z + X**3 * T, ("Z", "T"))
    assert content == X**2 and prim == Z + X * T


def test_content_of_a_single_coefficient_is_monic():
    ZT = ("Z", "T")
    Z, T = (MultiPoly.variable(QQ, ZT, v) for v in ZT)
    content, prim = content_free_part(3 * Z**2 * T + 6 * T, ("T",))
    assert content == Z**2 + 2 and prim == 3 * T


CONTENT_FIELDS = [QQ, GF(5), extend(QQ, [1, 0, 1], "i")]
ZT_EXPONENTS = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def contents_and_cofactors(draw):
    """(f = c(Z) * h(Z, T) over a field of CONTENT_FIELDS, a permutation of
    the coefficient keys of f in T)."""
    field = draw(st.sampled_from(CONTENT_FIELDS))
    extra = _extra_constant(field)

    def poly(exponents):
        terms = draw(st.lists(st.tuples(exponents, st.integers(-3, 3), st.booleans()), min_size=1, max_size=4))
        return MultiPoly.from_terms(
            field, ("Z", "T"), [(e, field.from_int(k) + (extra if j else field.zero())) for e, k, j in terms]
        )

    f = poly(st.tuples(st.integers(0, 3), st.just(0))) * poly(ZT_EXPONENTS)
    keys = sorted(f.coefficients(("T",)))
    return f, draw(st.permutations(keys))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=contents_and_cofactors())
def test_content_is_the_monic_gcd_of_the_coefficients(case):
    f, order = case
    content, prim = content_free_part(f, ("T",))
    coeffs = f.coefficients(("T",))
    reference = MultiPoly.zero(f.field, f.vars)
    for key in order:  # any order gives the same monic gcd
        reference = univariate_gcd(reference, coeffs[key], "Z")
    if reference.is_zero() or reference.is_constant():
        assert content == 1 and prim == f
    else:
        assert content == reference and content.monic() == content
    assert not content.involves("T")
    assert content * prim == f


def test_univariate_gcd():
    X = MultiPoly.variable(QQ, ("X",), "X")
    g = univariate_gcd((X - 1) * (X + 2) ** 2, (X + 2) * (X - 3))
    assert g == X + 2
    assert univariate_gcd(X + 1, X - 1).is_constant()
    three = MultiPoly.constant(QQ, ("X",), 3)
    for f, g in ((X**5 + 1, three), (three, X**5 + 1), (three, three)):
        assert univariate_gcd(f, g) == 1
    assert univariate_gcd(X * 2, MultiPoly.zero(QQ, ("X",))) == X


def _extra_constant(field):
    """The generator or parameter of ``field``, else zero."""
    for name in ("generator", "parameter"):
        if hasattr(field, name):
            return getattr(field, name)()
    return field.zero()


VIEW_FIELDS = [QQ, GF(5), rational_function_field(2), extend(QQ, [1, 0, 1], "i")]
EXPONENTS = st.tuples(*[st.integers(0, 4)] * 3)


@st.composite
def polys_and_views(draw):
    """(f over a field of VIEW_FIELDS in X, Z, T; a variable subset in some
    order; a variable u; f with every variable but u set to 1)."""
    field = draw(st.sampled_from(VIEW_FIELDS))
    extra = _extra_constant(field)
    terms = draw(st.lists(st.tuples(EXPONENTS, st.integers(-3, 3), st.booleans()), max_size=8))
    f = MultiPoly.from_terms(
        field, XZT, [(e, field.from_int(k) + (extra if j else field.zero())) for e, k, j in terms]
    )
    vars = tuple(draw(st.lists(st.sampled_from(XZT), unique=True, max_size=3)))
    u = draw(st.sampled_from(XZT))
    return f, vars, u, f.substitute({v: 1 for v in XZT if v != u})


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=polys_and_views())
def test_coefficient_views_rebuild_the_polynomial(case):
    f, vars, u, g = case
    field = f.field
    idx = [XZT.index(v) for v in vars]
    coeffs = f.coefficients(vars)
    assert set(coeffs) == {tuple(e[i] for i in idx) for e in f.terms}
    total = MultiPoly.zero(field, XZT)
    for key, c in coeffs.items():
        assert not c.is_zero() and not any(c.involves(v) for v in vars)
        monomial = MultiPoly.one(field, XZT)
        for v, k in zip(vars, key):
            monomial = monomial * MultiPoly.variable(field, XZT, v) ** k
        total = total + c * monomial
    assert total == f

    reps = g.to_dense(u)
    assert len(reps) == g.degree_in(u) + 1  # () for zero
    assert not reps or not field.raw_is_zero(reps[-1])
    assert MultiPoly.zero(field, XZT).to_dense(u) == ()
    assert MultiPoly.from_raw_dense(field, XZT, u, reps) == g
    if g.involves(u):
        assert g.to_dense() == reps
    if len([v for v in XZT if f.involves(v)]) > 1:
        with pytest.raises(PolynomialError):
            f.to_dense()


def test_printing_roundtrip_through_parser():
    from rect4.exprparse import parse_polynomial

    rng = random.Random(5)
    K = extend(QQ, [1, 0, 1], "i")
    F2s = rational_function_field(2)
    fields = [QQ, GF(5), F2s, K]
    for field in fields:
        for _ in range(30):
            f = random_poly(field, ("Z", "T"), rng)
            if field is K:
                f = f + MultiPoly.constant(field, ("Z", "T"), K.generator()).scale(
                    field.from_int(rng.randint(-2, 2))
                )
            if field is F2s:
                f = f.scale(F2s.parameter() + F2s.one()) + MultiPoly.constant(
                    field, ("Z", "T"), F2s.parameter().inv()
                )
            text = str(f)
            again = parse_polynomial(text, field, ("Z", "T"))
            assert again == f, text
