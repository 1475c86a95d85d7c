import pytest

from rect4.fields import GF, QQ
from rect4.polynomials import MultiPoly
from rect4.hyperplane import Hyperplane
from rect4.filtration import (
    NEG_INF,
    AElement,
    FiltrationContext,
    FiltrationError,
    generators,
    gr_relation_residual,
    to_normal_form,
    w_degree,
)

from conftest import a_add, a_mul, a_var, xzt_vars
from filtration_oracle import admissible_representation, check_x_divisibility, defining_polynomial

V4 = ("X", "Y", "Z", "T")
XZT = ("X", "Z", "T")


def ctx_for(field, a, F):
    return FiltrationContext.build(Hyperplane(a, F))


def v4(field):
    return tuple(MultiPoly.variable(field, V4, v) for v in V4)


def random_normal_form(ctx, rng, max_y=2):
    field = ctx.field
    da = ctx.hyperplane.a.degree_in("X")
    coeffs = []
    for i in range(rng.randint(1, max_y + 1)):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            ev = (
                rng.randint(0, (da - 1) if i >= 1 else 3),
                rng.randint(0, 2),
                rng.randint(0, 2),
            )
            terms[ev] = field.from_int(rng.randint(-3, 3))
        coeffs.append(MultiPoly.from_terms(field, XZT, terms.items()))
    return AElement(ctx, coeffs)


@pytest.fixture
def ctx_simple():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    return ctx_for(QQ, aX * aX, Z + X * T)


def test_context_requires_root_at_zero():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    with pytest.raises(FiltrationError):
        ctx_for(QQ, aX - 1, Z)


def test_context_requires_nonzero_f0():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    with pytest.raises(FiltrationError):
        ctx_for(QQ, aX * aX, X * Z)


def test_normal_form_defining_relation(ctx_simple):
    X, Y, Z, T = v4(QQ)
    # a(X)*Y rewrites to F
    e = to_normal_form(X * X * Y, ctx_simple)
    assert e.polynomial() == (Z + X * T).with_vars(V4)
    # G itself maps to zero
    G = defining_polynomial(ctx_simple.hyperplane)
    assert to_normal_form(G, ctx_simple).is_zero()
    # level-2 cascade
    e2 = to_normal_form(X * X * Y * Y, ctx_simple)
    assert [str(c) for c in e2.coefficients] == ["0", "X*T+Z"]


def test_generator_degrees():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    for d, alpha_tail in ((1, []), (2, []), (3, [1])):
        a = aX**d
        for c in alpha_tail:
            a = a * (aX + c)
        ctx = ctx_for(QQ, a, Z + X * T)
        x, y, z, t = generators(ctx)
        assert w_degree(x, ctx) == -1
        assert w_degree(y, ctx) == ctx.d == d
        assert w_degree(z, ctx) == 0
        assert w_degree(t, ctx) == 0
        assert w_degree(to_normal_form(MultiPoly.zero(QQ, V4), ctx), ctx) == NEG_INF


def test_degree_function_laws(ctx_simple, rng):
    for _ in range(120):
        e1 = random_normal_form(ctx_simple, rng)
        e2 = random_normal_form(ctx_simple, rng)
        p = a_mul(e1, e2)
        s = a_add(e1, e2)
        w1, w2 = w_degree(e1, ctx_simple), w_degree(e2, ctx_simple)
        if not (e1.is_zero() or e2.is_zero()):
            assert w_degree(p, ctx_simple) == w1 + w2
        if not s.is_zero():
            assert w_degree(s, ctx_simple) <= max(w1, w2)


def test_mul_matches_polynomial_reduction(ctx_simple, rng):
    for _ in range(40):
        e1 = random_normal_form(ctx_simple, rng)
        e2 = random_normal_form(ctx_simple, rng)
        direct = to_normal_form(e1.polynomial() * e2.polynomial(), ctx_simple)
        assert a_mul(e1, e2) == direct


def test_x_divisibility_on_negative_elements(ctx_simple, rng):
    X4 = MultiPoly.variable(QQ, V4, "X")
    x = to_normal_form(X4, ctx_simple)
    seen = 0
    while seen < 50:
        e = random_normal_form(ctx_simple, rng)
        if e.is_zero() or w_degree(e, ctx_simple) >= 0:
            continue
        seen += 1
        divisible, quotient = check_x_divisibility(e, ctx_simple)
        assert divisible
        assert a_mul(x, quotient) == e


def test_admissible_representation_examples(ctx_simple):
    z4 = MultiPoly.variable(QQ, V4, "Z")
    e = to_normal_form(z4, ctx_simple)
    rep = admissible_representation(e, ctx_simple)
    assert rep == [((0, 0, 1, 0), QQ.one())]

    # alpha(0) x^d y has w-degree 0 and already admits a flat representation
    X4, Y4 = (MultiPoly.variable(QQ, V4, v) for v in ("X", "Y"))
    e2 = to_normal_form(X4 * X4 * Y4, ctx_simple)
    rep2 = admissible_representation(e2, ctx_simple)
    assert max(ctx_simple.d * ev[1] - ev[0] for ev, _ in rep2) == 0


def test_admissible_rewriting_fires_for_nonconstant_alpha():
    # with a = X^2(X+1) the normal form of x^2*y - z keeps a w-degree-0
    # monomial although the element has w = -1: the representation must be
    # rewritten through the graded relation, not just read off
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    ctx = ctx_for(QQ, aX * aX * (aX + 1), Z + X * T)
    X4, Y4, Z4 = (MultiPoly.variable(QQ, V4, v) for v in ("X", "Y", "Z"))
    for power in (1, 2):
        e = to_normal_form((X4 * X4 * Y4 - Z4) ** power, ctx)
        assert w_degree(e, ctx) == -power
        mono_max = max(
            ctx.d * ev[1] - ev[0] for ev in e.polynomial().terms
        )
        assert mono_max > -power  # the naive reading overshoots
        rep = admissible_representation(e, ctx)
        acc = MultiPoly.zero(QQ, V4)
        for ev, c in rep:
            acc = acc + MultiPoly.from_terms(QQ, V4, [(ev, c)])
        assert to_normal_form(acc, ctx) == e
        assert max(ctx.d * ev[1] - ev[0] for ev, _ in rep) == -power


def test_admissible_representation_random(ctx_simple, rng):
    for _ in range(40):
        e = random_normal_form(ctx_simple, rng)
        if e.is_zero():
            continue
        rep = admissible_representation(e, ctx_simple)
        acc = MultiPoly.zero(QQ, V4)
        for ev, c in rep:
            acc = acc + MultiPoly.from_terms(QQ, V4, [(ev, c)])
        assert to_normal_form(acc, ctx_simple) == e
        assert (
            max(ctx_simple.d * ev[1] - ev[0] for ev, _ in rep)
            == w_degree(e, ctx_simple)
        )


def test_gr_relation_residuals():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    ctx = ctx_for(QQ, aX * aX * (aX + 1), Z + X * T)
    assert gr_relation_residual(ctx) == -1
    ctx2 = ctx_for(QQ, aX * aX, Z + X * T)
    assert gr_relation_residual(ctx2) == -1
    ctx3 = ctx_for(QQ, aX, Z)
    assert gr_relation_residual(ctx3) == NEG_INF


def test_gr_relation_bound_over_corpus_contexts(rng):
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    F5 = GF(5)
    a5 = a_var(F5)
    X5, Z5, T5 = xzt_vars(F5)
    contexts = [
        ctx_for(QQ, aX, Z + T * T),
        ctx_for(QQ, aX**2, Z * Z + T**3 + 1),
        ctx_for(QQ, aX**3 * (aX - 2), Z + X * T + X * X * T * T),
        ctx_for(F5, a5**2, Z5 + X5 * T5),
        ctx_for(F5, a5 * (a5 + 1), T5 + Z5 * Z5),
    ]
    for ctx in contexts:
        r = gr_relation_residual(ctx)
        assert r == NEG_INF or r <= -1
