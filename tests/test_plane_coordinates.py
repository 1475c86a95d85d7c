import random

import pytest

from rect4.exprparse import parse_polynomial
from rect4.fields import GF, QQ, extend, rational_function_field
from rect4.polynomials import MultiPoly
from rect4 import plane_coordinates
from rect4.hyperplane import LINE, NOT_LINE, UNKNOWN_LINE, Hyperplane, analyze
from rect4.plane_coordinates import (
    PlaneCoordinateError,
    TameStep,
    complement,
    linear_fastpath,
    vartest,
)
from rect4.verifier import verify_plane_pair

from conftest import (
    ZT,
    _pool_element,
    naive_substitute,
    random_coordinate,
    random_poly,
    random_tame_steps,
    run_cli_capped,
    zt_vars,
)


# -- linear fastpath ---------------------------------------------------------


def test_fastpath_affine_in_z():
    Z, T = zt_vars(QQ)
    outcome = linear_fastpath(3 * Z + 5)
    assert outcome.accepted
    assert outcome.certificate.image_of_variable("T") == 3 * Z + 5


def test_fastpath_constant_t_coefficient():
    Z, T = zt_vars(QQ)
    f = Z * Z + 2 * T
    outcome = linear_fastpath(f)
    assert outcome.accepted
    cert = outcome.certificate
    assert cert.complement == Z
    assert cert.image_of_variable("T") == f


def test_fastpath_rejects_nonconstant_t_coefficient():
    Z, T = zt_vars(QQ)
    f = 1 + Z * T
    outcome = linear_fastpath(f)
    assert outcome.status == "reject" and outcome.certificate is None
    assert not vartest(f).accepted
    # independent unit oracle: modulo (1 + ZT) the class of Z is invertible
    # (Z * (-T) = 1), so the residue ring has units outside the constants and
    # cannot be a polynomial line
    from rect4.polynomials import groebner_basis, normal_form

    basis = groebner_basis([f])
    assert normal_form(Z * (-T) - 1, basis).is_zero()


def test_fastpath_not_applicable_for_higher_t_degree():
    Z, T = zt_vars(QQ)
    assert linear_fastpath(Z + T * T) is None


# -- vartest: accepts --------------------------------------------------------


def test_vartest_composed_example():
    Z, T = zt_vars(QQ)
    f = Z + (T + Z * Z) ** 3
    r = vartest(f)
    assert r.accepted
    assert r.certificate.image_of_variable("T") == f
    assert verify_plane_pair(f, r.certificate.complement)
    # the classical complement works too
    assert verify_plane_pair(f, T + Z * Z)


def test_vartest_linear_and_simple():
    Z, T = zt_vars(QQ)
    for f in (T, Z, Z + T * T, 2 * T - 7 * Z + 1):
        r = vartest(f)
        assert r.accepted, str(f)
        assert r.certificate.image_of_variable("T") == f


# -- vartest: rejects --------------------------------------------------------


def test_vartest_rejects_cusp_like():
    Z, T = zt_vars(QQ)
    # K[Z,T]/(Z^2 - T^3) is the cusp coordinate ring, not a polynomial ring:
    # the normalization witness u = Z/T satisfies u^2 = T, u^3 = Z
    r = vartest(Z * Z - T**3)
    assert not r.accepted
    r2 = vartest(Z * Z + T**3 + 1)
    assert not r2.accepted


def test_vartest_rejects_products(rng):
    for field in (QQ, GF(5)):
        count = 0
        while count < 60:
            g = random_poly(field, ZT, rng, max_deg=2, n_terms=3)
            h = random_poly(field, ZT, rng, max_deg=2, n_terms=3)
            if g.is_constant() or h.is_constant():
                continue
            count += 1
            assert not vartest(g * h).accepted, f"{g} * {h}"


def test_vartest_rejects_constants_and_zero():
    Z, T = zt_vars(QQ)
    assert not vartest(MultiPoly.zero(QQ, ZT)).accepted
    assert not vartest(MultiPoly.constant(QQ, ZT, 5)).accepted


# -- round trips --------------------------------------------------------------


@pytest.mark.parametrize(
    "field,cap", [(QQ, 24), (GF(5), 24), (extend(QQ, [1, 0, 1], "i"), 10)], ids=str
)
def test_round_trip_random_tame(field, cap):
    rng = random.Random(416)
    for k in range(100):
        f = random_coordinate(field, rng, deg_cap=cap)
        r = vartest(f)
        assert r.accepted, f"{field}: {f} rejected: {r.reason}"
        assert r.certificate.image_of_variable("T") == f
        if cap <= 10 and k % 3:
            continue  # elimination bases over the extension dominate runtime
        assert verify_plane_pair(f, r.certificate.complement)


def test_invariance_under_units_translation_and_linear_maps(rng):
    Z, T = zt_vars(QQ)
    samples = [Z + T * T, Z * Z - T**3, Z + (T + Z * Z) ** 3, Z * T + 1]
    for f in samples:
        base = vartest(f).accepted
        for _ in range(5):
            u = QQ.from_int(rng.choice([1, -1, 2, 3]))
            c = QQ.from_int(rng.randint(-3, 3))
            steps = random_tame_steps(QQ, rng, max_len=1, max_shift_deg=1)
            lin = [s for s in steps if s.kind == "linear"]
            g = f.scale(u) + MultiPoly.constant(QQ, ZT, c)
            if lin:
                g = lin[0].apply(g)
            assert vartest(g).accepted == base, str(g)


def test_degree_monotonic_termination():
    # an accepted input of high degree exercises several reduction rounds
    Z, T = zt_vars(QQ)
    f = Z + (T + Z**2) ** 4
    r = vartest(f)
    assert r.accepted


# -- characteristic p behavior -------------------------------------------------


def test_insep_quadric_rejected_over_base_accepted_over_extension(f2s):
    Z, T = zt_vars(f2s)
    s = MultiPoly.constant(f2s, ZT, f2s.parameter())
    f = Z * Z + s * T * T + T
    r = vartest(f)
    assert r.status == "reject-accepts-over-extension"
    cert = r.certificate
    promoted = f.embed(cert.embedding)
    assert cert.image_of_variable("T") == promoted
    assert verify_plane_pair(promoted, cert.complement)
    assert line_flags("X", "Z^2+s*T^2+T", f2s) == [UNKNOWN_LINE]


def test_insep_quadric_accepts_over_adjoined_root(f2s):
    s0 = f2s.parameter()
    K1 = extend(f2s, [-s0, f2s.zero(), f2s.one()], "b")
    Z, T = zt_vars(K1)
    s = MultiPoly.constant(K1, ZT, K1.from_base(s0))
    f = Z * Z + s * T * T + T
    r = vartest(f)
    assert r.accepted
    assert r.certificate.extension is None
    assert line_flags("X^2-s", "Z^2+s*T^2+T", f2s) == [LINE]


def line_flags(a, F, field):
    """The per-root line flags of analyze on a(X)Y - F."""
    h = Hyperplane(
        parse_polynomial(a, field, ("X",)),
        parse_polynomial(F, field, ("X", "Z", "T")),
    )
    return analyze(h).lines


def test_line_flag_char0():
    assert line_flags("X", "Z+T^2", QQ) == [LINE]
    assert line_flags("X", "Z^2+T^3+1", QQ) == [NOT_LINE]


def test_line_flag_charp_unknown_on_plain_reject(gf5):
    assert line_flags("X", "Z*T", gf5) == [UNKNOWN_LINE]


# -- complement ----------------------------------------------------------------


def test_complement_examples():
    Z, T = zt_vars(QQ)
    for f, expected in [(T, Z), (Z + T * T, T)]:
        r = vartest(f)
        g = complement(f, r.certificate)
        assert g == expected
        assert verify_plane_pair(f, g)


def test_complement_of_composed():
    Z, T = zt_vars(QQ)
    f = Z + (T + Z * Z) ** 3
    r = vartest(f)
    g = complement(f, r.certificate)
    assert verify_plane_pair(f, g)


def test_complement_rejects_stale_certificate():
    Z, T = zt_vars(QQ)
    r = vartest(Z + T * T)
    with pytest.raises(PlaneCoordinateError):
        complement(Z + T**3, r.certificate)


def test_complement_rejects_a_wrong_stored_complement():
    # the composite still maps T to f, but K[f, Z^2] is not K[Z, T]
    Z, T = zt_vars(QQ)
    f = Z + T * T
    cert = vartest(f).certificate
    cert.complement = Z * Z
    with pytest.raises(PlaneCoordinateError, match="elimination verifier"):
        complement(f, cert)


# -- TameStep.apply against the expanded substitution ----------------------------


def reference_images(step, vars):
    """The substitution a tame step stands for, as MultiPoly images."""
    zn, tn = vars
    field = step.field
    Z = MultiPoly.variable(field, vars, zn)
    T = MultiPoly.variable(field, vars, tn)
    if step.kind == "linear":
        (m00, m01), (m10, m11) = step.matrix
        v0, v1 = step.translation
        return {
            zn: Z.scale(m00) + T.scale(m01) + MultiPoly.constant(field, vars, v0),
            tn: Z.scale(m10) + T.scale(m11) + MultiPoly.constant(field, vars, v1),
        }
    shift = step.shift.with_vars(vars)
    if step.target == tn:
        return {zn: Z, tn: T + shift}
    return {zn: Z + shift, tn: T}


def random_field_poly(field, rng, max_deg=4, n_terms=6):
    """Random polynomial whose coefficients mix in the generator or parameter."""
    terms = {}
    for _ in range(n_terms):
        e = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        terms[e] = _pool_element(field, rng, (-3, -2, -1, 1, 2, 3))
    return MultiPoly.from_terms(field, ZT, terms.items())


def assert_apply_matches_substitute(step, poly):
    assert step.apply(poly) == naive_substitute(poly, reference_images(step, poly.vars))


TAME_FIELDS = [
    QQ,
    GF(5),
    extend(QQ, [1, 0, 1], "i"),
    rational_function_field(2),
]


@pytest.mark.parametrize("field", TAME_FIELDS, ids=str)
def test_apply_matches_substitute(field):
    rng = random.Random(7)
    seen = set()
    for _ in range(12):
        for step in random_tame_steps(field, rng, max_len=4, max_shift_deg=3):
            seen.add((step.kind, step.target))
            for _ in range(3):
                assert_apply_matches_substitute(step, random_field_poly(field, rng))
            assert_apply_matches_substitute(step, MultiPoly.zero(field, ZT))
            assert_apply_matches_substitute(step, MultiPoly.constant(field, ZT, 3))
    assert seen == {("linear", None), ("elementary", "Z"), ("elementary", "T")}


def test_apply_matches_substitute_over_inseparable_extension():
    # vartest reduces Z^2+s*T^2+T (the insep_binomial_quadric fiber) only
    # after adjoining a square root of s, promoting its earlier steps
    F2s = rational_function_field(2)
    result = vartest(parse_polynomial("Z^2+s*T^2+T", F2s, ZT))
    assert result.status == "reject-accepts-over-extension"
    cert = result.certificate
    assert cert.field == cert.extension != F2s
    rng = random.Random(11)
    steps = list(cert.steps)
    for _ in range(6):
        steps += [s.promote(cert.embedding) for s in random_tame_steps(F2s, rng, max_len=3)]
    assert {s.kind for s in steps} == {"linear", "elementary"}
    for step in steps:
        assert step.field == cert.field
        for _ in range(3):
            assert_apply_matches_substitute(step, random_field_poly(cert.field, rng))


def insep_extension_field():
    """The composite extension F2(s)[...] that vartest adjoins for the
    insep_binomial_quadric fibre Z^2+s*T^2+T."""
    result = vartest(parse_polynomial("Z^2+s*T^2+T", rational_function_field(2), ZT))
    return result.certificate.field


def translated_linear_step(field, rng):
    """A random invertible linear step whose translation has no zero entry."""
    while True:
        m = [_pool_element(field, rng, (-2, -1, 0, 1, 2)) for _ in range(4)]
        v = [_pool_element(field, rng, (-2, -1, 1, 2)) for _ in range(2)]
        if not (m[0] * m[3] - m[1] * m[2]).is_zero() and not any(x.is_zero() for x in v):
            return TameStep("linear", field, matrix=((m[0], m[1]), (m[2], m[3])), translation=tuple(v))


@pytest.mark.parametrize("field", TAME_FIELDS + [insep_extension_field()], ids=str)
def test_inverse_step_undoes_the_step(field):
    rng = random.Random(23)
    kinds = set()
    for _ in range(10):
        steps = [translated_linear_step(field, rng)]
        if field in TAME_FIELDS:
            steps += random_tame_steps(field, rng, max_len=4, max_shift_deg=3)
        else:
            shift = MultiPoly.from_dense(field, ZT, "Z", [_pool_element(field, rng, (1, 2)), field.generator()])
            steps.append(TameStep("elementary", field, target="T", shift=shift))
        for step in steps:
            kinds.add(step.kind)
            inverse = step.inverse()
            assert inverse.field == field
            if step.kind == "linear":
                assert all(x.field == field for x in inverse.matrix[0] + inverse.matrix[1] + inverse.translation)
                assert inverse.inverse() == step
            for p in (random_field_poly(field, rng), MultiPoly.variable(field, ZT, "T")):
                assert inverse.apply(step.apply(p)) == p
                assert step.apply(inverse.apply(p)) == p
    assert kinds == {"linear", "elementary"}


def test_singular_linear_step_has_no_inverse():
    for field in TAME_FIELDS:
        one, two = field.one(), field.from_int(2)
        step = TameStep("linear", field, matrix=((one, two), (two, two * two)), translation=(one, one))
        with pytest.raises(PlaneCoordinateError, match="not invertible"):
            step.inverse()


def test_apply_rejects_a_polynomial_over_another_field():
    steps = [
        TameStep("linear", QQ, matrix=((QQ.one(), QQ.zero()), (QQ.zero(), QQ.one())),
                 translation=(QQ.zero(), QQ.one())),
        TameStep("elementary", QQ, target="T", shift=zt_vars(QQ)[0]),
    ]
    for step in steps:
        with pytest.raises(PlaneCoordinateError):
            step.apply(zt_vars(GF(5))[1])
        with pytest.raises(PlaneCoordinateError):
            step.apply(zt_vars(extend(QQ, [1, 0, 1], "i"))[1])


# -- scaled powers of linear polynomials ---------------------------------------


def reference_power_of_linear(coeffs, field):
    """The decision of plane_coordinates._power_of_linear_univariate by
    expanding lc * (W - rho)^Dprime in full and comparing every coefficient."""
    D = len(coeffs) - 1
    lc = coeffs[-1]
    p = field.characteristic()
    e, Dprime = 0, D
    while p and Dprime % p == 0:
        Dprime //= p
        e += 1
    stride = p**e if p else 1
    if any(i % stride and not c.is_zero() for i, c in enumerate(coeffs)):
        return None
    psi = coeffs[::stride]
    rho = -psi[-2] / (field.from_int(Dprime) * lc)
    power = [field.one()]
    for _ in range(Dprime):
        nxt = [field.zero()] * (len(power) + 1)
        for k, a in enumerate(power):
            nxt[k] = nxt[k] - a * rho
            nxt[k + 1] = nxt[k + 1] + a
        power = nxt
    if [a * lc for a in power] != psi:
        return None
    while e > 0 and field.pth_root(rho) is not None:
        rho = field.pth_root(rho)
        e -= 1
    return ("value", rho) if e == 0 else ("extension", e, rho)


@pytest.mark.parametrize("field, max_e", [
    (QQ, 0),
    (GF(5), 2),  # D = Dprime * 5^e: the inseparable stride
    (rational_function_field(2), 3),  # s + c has no square root: extensions
], ids=str)
def test_power_of_linear_matches_the_expanded_power(field, max_e):
    rng = random.Random(41)
    outcomes = set()
    for _ in range(40):
        Dprime, stride = rng.choice((1, 2, 3, 5)), field.characteristic() ** rng.randint(0, max_e)
        if field.characteristic() and Dprime % field.characteristic() == 0:
            continue
        lc = _pool_element(field, rng, (1, 3))  # nonzero in every characteristic
        sigma = _pool_element(field, rng, (-2, -1, 0, 1, 2))
        psi = [lc]
        for _ in range(Dprime):  # psi * (V - sigma), low degree first
            psi = [-sigma * psi[0]] + [psi[k - 1] - sigma * psi[k] for k in range(1, len(psi))] + [psi[-1]]
        u = [field.zero()] * (Dprime * stride + 1)
        u[::stride] = psi  # u(W) = psi(W^stride)
        if rng.random() < 0.5:  # perturb one coefficient below the top
            k = rng.randrange(len(u) - 1)
            u[k] = u[k] + _pool_element(field, rng, (1, 2))
        got = plane_coordinates._power_of_linear_univariate(u, field)
        assert got == reference_power_of_linear(u, field), (u, field)
        outcomes.add(got[0] if got else None)
    assert {None, "value"} <= outcomes
    assert ("extension" in outcomes) == (max_e == 3)


def test_high_degree_leading_form_finishes():
    # Z^2000 + T^2000 is not a power of a linear form; the check must say so
    # in O(D) steps, without expanding (W - rho)^2000 in O(D^2)
    proc = run_cli_capped("analyze", "X", "Z^2000+T^2000+1", "Q")
    assert proc.returncode == 1, proc.stderr
    assert "coordinate=reject" in proc.stdout


def test_high_power_of_a_linear_form_finishes():
    # the shear Z -> Z - T turns (Z+T)^200 into Z^200; evaluated with the
    # image of Z outermost it costs O(d^2) term operations, not O(d^3)
    proc = run_cli_capped("analyze", "X", "(Z+T)^200+1", "Q")
    assert proc.returncode == 1, proc.stderr
    assert "coordinate=reject" in proc.stdout
