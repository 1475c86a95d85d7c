import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rect4 import dense, fields
from rect4.exprparse import parse_field_spec
from rect4.fields import (
    GF,
    QQ,
    Embedding,
    FieldError,
    composite_extension,
    extend,
    rational_function_field,
)

from conftest import assert_canonical_rational, extension_element, pth_root


def random_element(field, rng):
    kind = field.kind
    if kind == "rationals":
        return field.coerce(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
    if kind == "prime-field":
        return field.from_int(rng.randrange(field.p))
    if kind == "rational-function-field":
        num = [rng.randrange(field.p) for _ in range(rng.randint(1, 3))]
        den = [rng.randrange(field.p) for _ in range(rng.randint(1, 3))]
        den[-1] = 1
        return field.from_polynomial(num) / field.from_polynomial(den)
    # extension
    return extension_element(field, [random_element(field.base, rng) for _ in range(field.deg)])


ALL_FIELDS = [
    QQ,
    GF(5),
    GF(2),
    rational_function_field(2),
    rational_function_field(3),
    extend(QQ, [1, 0, 1], "i"),
    extend(GF(2), [1, 1, 1], "w"),
    extend(QQ, [-2, 0, 1], "r"),
]


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_field_axioms_random(field):
    rng = random.Random(11)
    for _ in range(125):  # 125 triples x 8 fields = 1000 triples overall
        x, y, z = (random_element(field, rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        if not x.is_zero():
            assert x * x.inv() == field.one()
            assert (x / x) == field.one()


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_canonical_form_idempotent(field):
    rng = random.Random(7)
    for _ in range(50):
        x = random_element(field, rng)
        again = field.element(x.rep)
        assert again == x
        assert hash(again) == hash(x)
        # rebuilding from an arithmetic identity lands on the same rep
        y = x + field.zero()
        assert y.rep == x.rep


def _raw_rational(q):
    return q.numerator if q.denominator == 1 else q


# canonical raw rationals: ints (small ones and +-1 often) and fractions,
# some of them with a numerator or denominator past a machine word
RAW_RATIONALS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=12).map(_raw_rational),
    st.fractions(max_denominator=10**24).map(_raw_rational),
)


@st.composite
def raw_rational_pairs(draw):
    """Two raw rationals: independent draws, or b = k - a, a + k or k/a for
    an int k, so that a sum, a difference or a product is integral and the
    integral fold of the kernels is exercised."""
    a = draw(RAW_RATIONALS)
    how = draw(st.sampled_from(("free", "sum", "difference", "product")))
    if how == "free":
        return a, draw(RAW_RATIONALS)
    k = draw(st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30)))
    if how == "sum":
        return a, _raw_rational(k - Fraction(a))
    if how == "difference":
        return a, _raw_rational(Fraction(a) + k)
    return a, (_raw_rational(k / Fraction(a)) if a else k)


def assert_same_rational(got, want):
    """``got`` is the canonical raw rep of the Fraction ``want``, and agrees
    in ``==``, ``hash`` and ``str`` with the Fraction the public constructor
    normalizes from its own numerator and denominator."""
    assert_canonical_rational(got)
    public = Fraction(got.numerator, got.denominator)
    for other in (want, public):
        assert got == other and other == got
        assert hash(got) == hash(other)
        assert str(got) == str(other)


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(pair=raw_rational_pairs())
def test_rational_raw_operations_match_fraction_arithmetic(pair):
    a, b = pair
    fa, fb = Fraction(a), Fraction(b)
    results = [
        (QQ.raw_add(a, b), fa + fb),
        (QQ.raw_sub(a, b), fa - fb),
        (QQ.raw_mul(a, b), fa * fb),
        (QQ.raw_neg(a), -fa),
    ]
    if fb:
        results += [(QQ.raw_div(a, b), fa / fb), (QQ.raw_inv(b), 1 / fb)]
    else:
        with pytest.raises(FieldError):
            QQ.raw_div(a, b)
        with pytest.raises(FieldError):
            QQ.raw_inv(b)
    for got, want in results:
        assert_same_rational(got, want)
    assert QQ.raw_is_zero(a) == (fa == 0)


def test_rational_constructors_give_canonical_reps():
    for rep in (QQ.raw_zero(), QQ.raw_one(), QQ.raw_from_int(7), QQ.raw_from_int(True)):
        assert_canonical_rational(rep)
    assert QQ.coerce(Fraction(6, 3)).rep == 2 and type(QQ.coerce(Fraction(6, 3)).rep) is int
    assert QQ.coerce(Fraction(-1, 3)).rep == Fraction(-1, 3)
    assert type(QQ.coerce(True).rep) is int
    with pytest.raises(TypeError):
        QQ.coerce(0.5)
    with pytest.raises(TypeError):
        QQ.from_int(Fraction(1, 2))


def test_rational_examples():
    assert QQ.coerce(Fraction(2, 3)) + QQ.coerce(Fraction(1, 6)) == QQ.coerce(
        Fraction(5, 6)
    )
    assert QQ.characteristic() == 0


def test_gaussian_generator_squares_to_minus_one():
    K = extend(QQ, [1, 0, 1], "i")
    i = K.generator()
    assert i * i == K.from_int(-1)
    assert K.characteristic() == 0


def test_rff_inverse_law():
    F2s = rational_function_field(2)
    s = F2s.parameter()
    assert (s + 1).inv() * (s + 1) == F2s.one()
    assert F2s.characteristic() == 2


def test_extend_rejects_reducible_naming_a_factor():
    with pytest.raises(FieldError) as err:
        extend(QQ, [-1, 0, 1], "g")
    assert "g" in str(err.value)


def test_extend_f4():
    F4 = extend(GF(2), [1, 1, 1], "w")
    w = F4.generator()
    assert (w * w + w + 1).is_zero()


def test_minpoly_vanishes_at_generator():
    for field in ALL_FIELDS:
        if field.kind != "algebraic-extension":
            continue
        g = field.generator()
        acc = field.zero()
        for c in reversed(field.minpoly):
            acc = acc * g + field.from_base(field.base.element(c))
        assert acc.is_zero()


def test_descriptor_mismatch_raises():
    from rect4.fields import FieldMismatch

    with pytest.raises(FieldMismatch):
        QQ.one() + GF(5).one()
    with pytest.raises(FieldMismatch):
        GF(5).coerce(GF(7).one())


def test_division_by_zero_raises():
    with pytest.raises(FieldError):
        QQ.zero().inv()
    with pytest.raises(FieldError):
        GF(5).from_int(10).inv()
    F2s = rational_function_field(2)
    with pytest.raises(FieldError):
        F2s.zero().inv()
    K = extend(QQ, [1, 0, 1], "i")
    with pytest.raises(FieldError):
        K.zero().inv()


def test_towers_deeper_than_one_level_rejected():
    K = extend(QQ, [1, 0, 1], "i")
    with pytest.raises(FieldError):
        extend(K, [K.from_int(-2), K.zero(), K.one()], "r")


def test_pth_roots():
    F5 = GF(5)
    for n in range(5):
        c = F5.from_int(n)
        r = pth_root(c)
        assert r is not None and r**5 == c
    F25 = extend(F5, [2, 0, 1], "w")  # w^2 = -2
    rng = random.Random(3)
    for _ in range(10):
        c = random_element(F25, rng)
        r = pth_root(c)
        assert r is not None and r**5 == c
    F2s = rational_function_field(2)
    s = F2s.parameter()
    assert pth_root(s) is None
    assert pth_root(s * s) == s
    assert pth_root((s * s + 1) / (s * s)) == (s + 1) / s


def test_pth_root_in_rff_extension():
    F2s = rational_function_field(2)
    s = F2s.parameter()
    K = extend(F2s, [-s, F2s.zero(), F2s.one()], "b")  # b^2 = s
    r = pth_root(K.from_base(s))
    assert r == K.generator()
    assert pth_root(K.generator()) is None  # s^(1/4) is not in K


def test_composite_extension_of_extension():
    F2s = rational_function_field(2)
    s = F2s.parameter()
    K = extend(F2s, [-s, F2s.zero(), F2s.one()], "b")
    lam = K.generator()
    L, emb, root = composite_extension(K, [-lam, K.zero(), K.one()], "c")
    assert root * root == emb(lam)
    assert root**4 == L.from_base(s)
    assert L.deg == 4


def test_composite_extension_char0():
    K = extend(QQ, [1, 0, 1], "i")
    L, emb, root = composite_extension(
        K, [K.from_int(-2), K.zero(), K.one()], "r"
    )
    assert root * root == L.from_int(2)
    assert emb(K.generator()) * emb(K.generator()) == L.from_int(-1)
    assert L.deg == 4


def test_embedding_roundtrip_base_to_extension():
    K = extend(QQ, [1, 0, 1], "i")
    emb = Embedding(QQ, K)
    x = QQ.coerce(Fraction(7, 3))
    assert emb(x) == K.from_base(x)


def test_primality_agrees_with_trial_division():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(20000) if fields._is_prime(n)] == [n for n in range(20000) if trial_division(n)]


def test_large_primes_are_decided_up_to_the_miller_rabin_bound():
    assert GF(2**61 - 1).p == 2**61 - 1
    assert GF(10**18 + 3).p == 10**18 + 3
    # a strong pseudoprime to every prime base up to 37: base 41 refutes it
    with pytest.raises(FieldError, match="318665857834031151167461 is not prime"):
        GF(318665857834031151167461)
    # the bound itself is composite and a strong pseudoprime to bases up to
    # 41, so it is refused by the bound, not declared prime
    with pytest.raises(FieldError, match="exact only below 3317044064679887385961981"):
        GF(3317044064679887385961981)
    with pytest.raises(FieldError, match="is not prime"):
        GF(2 * 3317044064679887385961981)


def test_characteristics():
    assert QQ.characteristic() == 0
    assert GF(2).characteristic() == 2
    assert rational_function_field(2).characteristic() == 2
    assert extend(QQ, [-2, 0, 1], "r").characteristic() == 0


@pytest.mark.parametrize(
    "make, text",
    [
        (lambda: extend(QQ, [-2, 0, 1]), "Q[g]/(g^2-2)"),
        (lambda: extend(QQ, [1, -1, 1]), "Q[g]/(g^2-g+1)"),
        (lambda: extend(QQ, [3, -2, 1]), "Q[g]/(g^2-2*g+3)"),
        (lambda: extend(QQ, [1, 0, 1], "i"), "Q[i]/(i^2+1)"),
        (lambda: extend(GF(5), [2, 0, 1]), "F5[g]/(g^2+2)"),
        (lambda: extend(GF(5), [1, 4, 1], "b"), "F5[b]/(b^2+4*b+1)"),
        (
            lambda: extend(rational_function_field(2), [rational_function_field(2).parameter(), 0, 1]),
            "F2(s)[g]/(g^2+s)",
        ),
    ],
)
def test_extension_str_signs_and_round_trip(make, text):
    field = make()
    assert str(field) == text
    assert parse_field_spec(text) == field


@pytest.mark.parametrize(
    "make",
    [
        lambda: extend(QQ, [1, 0, 1], "i"),
        lambda: extend(GF(5), [2, 0, 1]),
        lambda: extend(rational_function_field(3), [rational_function_field(3).parameter(), 0, 0, 1]),
    ],
)
def test_extension_inverse_of_base_elements(make):
    field = make()
    rng = random.Random(5)
    for _ in range(10):
        c = random_element(field.base, rng)
        if c.is_zero():
            continue
        inv = field.from_base(c).inv()
        assert inv == field.from_base(c.inv())
        assert inv * field.from_base(c) == field.one()


# ---------------------------------------------------------------------------
# residue-field kernels against dense polynomial arithmetic
# ---------------------------------------------------------------------------

F2S = rational_function_field(2)
ORACLE_FIELDS = [
    extend(QQ, [1, 0, 1], "i"),
    extend(QQ, [-2, 0, 0, 1], "c"),
    extend(GF(5), [2, 0, 1], "b"),
    extend(GF(7), [1, 0, 1, 1], "b"),  # b^3+b^2+1: every power in the fold table is dense
    extend(F2S, [F2S.parameter(), 0, 1], "b"),  # inseparable: b^2 = s
]


def _remainder(field, coeffs):
    """sum coeffs[k]*g^k reduced by dense divmod, padded to a field rep."""
    base = field.base
    _, r = dense.divmod(base, dense.trim(base, coeffs), field.minpoly)
    return r + (base.raw_zero(),) * (field.deg - len(r))


def _oracle_elements(field, rng, count):
    """Random elements, with the generator and an element with a zero
    constant term among them, so that elimination must swap rows."""
    base = field.base
    shifted = (base.raw_zero(),) + random_element(field, rng).rep[:-1]
    reps = [field.generator().rep, shifted]
    reps += [random_element(field, rng).rep for _ in range(count)]
    return reps


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_extension_multiply_matches_dense_remainder(field):
    rng = random.Random(41)
    base = field.base
    reps = _oracle_elements(field, rng, 40)
    for a, b in zip(reps, reps[1:] + reps[:1]):
        want = _remainder(field, dense.mul(base, dense.trim(base, a), dense.trim(base, b)))
        assert field.raw_mul(a, b) == want
        assert field.raw_mul(b, a) == want


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_extension_inverse_matches_xgcd(field):
    rng = random.Random(43)
    base = field.base
    one = field.raw_one()
    for a in _oracle_elements(field, rng, 30):
        if field.raw_is_zero(a):
            continue
        u = field.raw_inv(a)
        assert field.raw_mul(a, u) == one
        g, s, _ = dense.xgcd(base, dense.trim(base, a), field.minpoly)
        assert g == (base.raw_one(),)
        assert u == _remainder(field, s)


@pytest.mark.parametrize(
    "base, minpoly, zero_divisor",
    [
        (QQ, (-1, 0, 1), (-1, 1)),  # g^2-1 = (g-1)(g+1)
        (GF(5), (4, 0, 1), (1, 1)),  # b^2-1 over F5
        (QQ, (-1, 1, -1, 1), (1, 0, 1)),  # g^3-g^2+g-1 = (g-1)(g^2+1)
    ],
)
def test_inverse_of_a_zero_divisor_names_the_reducible_minimal_polynomial(base, minpoly, zero_divisor):
    from rect4.fields import ExtensionField

    field = ExtensionField(base, minpoly)  # the unchecked constructor
    rep = tuple(zero_divisor) + (base.raw_zero(),) * (field.deg - len(zero_divisor))
    with pytest.raises(FieldError, match="minimal polynomial is not irreducible"):
        field.raw_inv(rep)
    with pytest.raises(FieldError, match="division by zero"):
        field.raw_inv(field.raw_zero())


@pytest.mark.parametrize("field", ALL_FIELDS + ORACLE_FIELDS, ids=str)
def test_zero_is_exactly_the_zero_rep(field):
    # the zero tests compare with raw_zero(), so every raw operation must
    # return the canonical rep of its value
    rng = random.Random(47)
    zero = field.raw_zero()
    reps = [random_element(field, rng).rep for _ in range(12)]
    results = []
    for a, b in zip(reps, reps[1:]):
        results += [
            field.raw_add(a, b), field.raw_sub(a, b), field.raw_neg(a), field.raw_mul(a, b),
            field.raw_sub(a, a), field.raw_add(a, field.raw_neg(a)), field.raw_mul(a, zero),
        ]
        if not field.raw_is_zero(b):
            results += [field.raw_div(a, b), field.raw_mul(field.raw_div(a, b), b)]
    assert any(r == zero for r in results) and any(r != zero for r in results)
    for r in results:
        assert field.raw_is_zero(r) == (r == zero)
        if field.kind == "algebraic-extension":
            assert len(r) == field.deg
            for c in r:
                assert field.base.raw_is_zero(c) == (c == field.base.raw_zero())


# ---------------------------------------------------------------------------
# composite extensions and embeddings
# ---------------------------------------------------------------------------

F3S = rational_function_field(3)
# (K, psi) with psi irreducible over the extension K, as coefficient lists low
# degree first; b is a p-th root of s over F_p(s), so X^p - b adjoins a deeper
# inseparable root
_QI, _CBRT2 = extend(QQ, [1, 0, 1], "i"), extend(QQ, [-2, 0, 0, 1], "c")
_F2S_B2 = extend(F2S, [F2S.parameter(), 0, 1], "b")
_F2S_B3 = extend(F2S, [F2S.parameter(), 0, 0, 1], "b")
_F3S_B3 = extend(F3S, [F3S.parameter(), 0, 0, 1], "b")
COMPOSITE_CASES = [
    (_QI, [-2, 0, 1]),  # sqrt(2) over Q(i)
    (_CBRT2, [1, 0, 1]),  # i over Q(cbrt 2), a real field
    (_F2S_B2, [-_F2S_B2.generator(), 0, 1]),  # s^(1/4)
    (_F2S_B3, [-_F2S_B3.generator(), 0, 1]),  # s^(1/6)
    (_F3S_B3, [-_F3S_B3.generator(), 0, 0, 1]),  # s^(1/9)
]


def _horner(field, coeffs, x):
    """sum coeffs[k] * x^k for elements of ``field``, by FieldElement arithmetic."""
    acc = field.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("K, psi", COMPOSITE_CASES, ids=[str(K) for K, _ in COMPOSITE_CASES])
def test_composite_extension_oracle(K, psi):
    rng = random.Random(53)
    L, emb, root = composite_extension(K, psi, "w")
    psi = [K.coerce(c) for c in psi]
    assert L.base == K.base and L.deg == K.deg * (len(psi) - 1)
    assert emb.src == K and emb.dst == L
    assert _horner(L, [emb(c) for c in psi], root).is_zero()
    lam = emb(K.generator())
    assert _horner(L, [L.from_base(K.base.element(c)) for c in K.minpoly], lam).is_zero()
    for _ in range(12):
        x, y = random_element(K, rng), random_element(K, rng)
        assert emb(x + y) == emb(x) + emb(y)
        assert emb(x * y) == emb(x) * emb(y)
        if not x.is_zero():
            assert emb(x.inv()) == emb(x).inv()


@pytest.mark.parametrize("K, psi", COMPOSITE_CASES, ids=[str(K) for K, _ in COMPOSITE_CASES])
def test_embedding_raw_matches_element_horner(K, psi):
    # the composite's embedding, the inclusion of the base into K, and the
    # two composed: raw images against FieldElement arithmetic
    rng = random.Random(59)
    _, emb, _ = composite_extension(K, psi, "w")
    up = Embedding(K.base, K)
    for e in (emb, up, up.then(emb)):
        src, dst = e.src, e.dst
        for _ in range(12):
            x = random_element(src, rng)
            if src.kind == "algebraic-extension":
                coeffs = [dst.from_base(src.base.element(c)) for c in x.rep]
                want = _horner(dst, coeffs, e.gen_image)
            else:
                want = dst.from_base(x)
            assert e.raw(x.rep) == want.rep
            assert e(x) == want
