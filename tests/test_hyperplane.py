import random

import pytest

from rect4 import cli, hyperplane, plane_coordinates
from rect4.exprparse import parse_field_spec, parse_polynomial
from rect4.fields import GF, QQ, rational_function_field
from rect4.polynomials import MultiPoly, ideal_contains_one
from rect4.hyperplane import (
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_RECTIFIABLE,
    VERDICT_RECTIFIABLE,
    Hyperplane,
    analyze,
    coordinate_results,
    domain_check,
    normalize,
    regularity_check,
    root_data,
)
from rect4.plane_coordinates import vartest
from rect4.verifier import verify_plane_pair

from conftest import ROOT, XZT, a_var, load_case, random_coordinate, random_poly, run_cli_capped, xzt_vars

V4 = ("X", "Y", "Z", "T")


def build(field, a, F):
    return Hyperplane(a, F)


# -- normalize -----------------------------------------------------------------


def test_normalize_reduces_x_degree():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    h = build(QQ, aX**2, X**3 + Z)
    hn = normalize(h)
    assert hn.F == Z
    assert hn.original_F == X**3 + Z


def test_normalize_single_root():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    h = build(QQ, aX, X * Z + T)
    assert normalize(h).F == T


def test_normalize_idempotent_and_specialization_commutes(rng):
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    for _ in range(10):
        coeffs = [QQ.from_int(rng.randint(-3, 3)) for _ in range(3)] + [QQ.one()]
        a = MultiPoly.from_dense(QQ, ("X",), "X", coeffs)
        F = (
            Z * T.scale(QQ.from_int(rng.randint(-2, 2)))
            + X**4 * Z
            + T**2
            + X * X * T
        )
        h = build(QQ, a, F)
        if not domain_check(h)[0]:
            continue
        hn = normalize(h)
        assert normalize(hn).F == hn.F
        data_n, _ = root_data(hn)
        for rd in data_n:
            if rd.residue_field == QQ:
                lam = QQ.element(-rd.factor.to_dense("X")[0])
                direct = F.substitute({"X": lam}).with_vars(("Z", "T"))
                assert direct == rd.specialization


# -- domain check ----------------------------------------------------------------


def test_domain_examples():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    assert domain_check(build(QQ, aX, Z * Z + T**3 + 1))[0]
    ok, witness = domain_check(build(QQ, aX, X * Z))
    assert not ok and witness == a_var(QQ).with_vars(XZT)
    ok, witness = domain_check(
        build(QQ, aX * aX - 1, (X - 1) * Z + (X * X - 1) * T)
    )
    assert not ok and str(witness) == "X-1"


def test_domain_agrees_with_per_root_splitting_oracle(rng):
    # oracle: factor a fully and test vanishing of F at each root through the
    # residue embedding
    from rect4.polynomials import univariate_factor
    from rect4.fields import Embedding, extend as extend_field

    X, Z, T = xzt_vars(QQ)
    for _ in range(30):
        coeffs = [QQ.from_int(rng.randint(-2, 2)) for _ in range(rng.randint(1, 4))]
        coeffs.append(QQ.one())
        a = MultiPoly.from_dense(QQ, ("X",), "X", coeffs)
        if a.degree_in("X") < 1:
            continue
        F = MultiPoly.zero(QQ, XZT)
        for _ in range(rng.randint(1, 3)):
            e = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
            F = F + MultiPoly.from_terms(QQ, XZT, [(e, QQ.from_int(rng.choice([-2, -1, 1, 2])))])
        if rng.random() < 0.3:
            F = F * a.with_vars(XZT)  # force a common factor sometimes
        if F.is_zero():
            continue
        h = build(QQ, a, F)
        got, _ = domain_check(h)
        expected = True
        for p, _m in univariate_factor(a).factors:
            if p.degree_in("X") == 1:
                lam = QQ.element(-p.to_dense("X")[0])
                spec = F.substitute({"X": lam})
            else:
                K = extend_field(QQ, p.to_dense("X"), "g")
                emb = Embedding(QQ, K)
                spec = F.embed(emb).substitute({"X": K.generator()})
            if spec.is_zero():
                expected = False
                break
        assert got == expected, f"a={a}, F={F}"


@pytest.mark.parametrize(
    "a,F,field,code,line",
    [
        ("X", "Z^10000000+T^2", "Q", 1, "verdict:   NotRectifiable"),
        ("X", "X*Z^10000000+X*T", "Q", 3, "common factor: X"),
        ("X^2+1", "Z^10000000*T^2+T^3", "F5", 2, "verdict:   Inconclusive"),
    ],
)
def test_degree_ten_million_finishes(a, F, field, code, line):
    # the domain check and the contents read sparse coefficient views, whose
    # cost follows the two terms of F, not its degree
    proc = run_cli_capped("analyze", a, F, field)
    assert proc.returncode == code, proc.stderr
    assert line in proc.stdout.splitlines()


# -- root data -------------------------------------------------------------------


def test_root_data_examples():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    h = normalize(build(QQ, aX * aX * (aX - 1), Z))
    data, complete = root_data(h)
    assert complete
    assert [(str(rd.factor), rd.multiplicity) for rd in data] == [
        ("X", 2),
        ("X-1", 1),
    ]
    assert all(str(rd.specialization) == "Z" for rd in data)

    h2 = normalize(build(QQ, aX * aX + 1, Z + X * T))
    data2, _ = root_data(h2)
    assert len(data2) == 1
    rd = data2[0]
    assert rd.multiplicity == 1 and rd.residue_field.deg == 2
    assert str(rd.specialization) == "Z+g*T"


def test_root_data_char2_inseparable():
    F2s = rational_function_field(2)
    aX = a_var(F2s)
    X, Z, T = xzt_vars(F2s)
    s1 = MultiPoly.constant(F2s, ("X",), F2s.parameter())
    s3 = MultiPoly.constant(F2s, XZT, F2s.parameter())
    h = normalize(build(F2s, aX**2 * (aX**2 - s1), Z * Z + s3 * T * T + T))
    data, complete = root_data(h)
    assert complete
    assert [(str(rd.factor), rd.multiplicity, rd.separable) for rd in data] == [
        ("X", 2, True),
        ("X^2+s", 1, False),
    ]
    assert not any(rd.kbar_simple for rd in data)


# -- analyze: structure flags and verdicts ----------------------------------------


def test_cusp_fiber_analysis():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    rep = analyze(build(QQ, aX, Z * Z + T**3 + 1))
    assert rep.domain and rep.ufd == "true" and rep.fibration == "false"
    assert rep.regular == "true"
    assert rep.verdict == VERDICT_NOT_RECTIFIABLE
    assert "ch0" in rep.theorem_path


def test_unit_fiber_rules():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    rep = analyze(build(QQ, aX * aX, 1 + X * Z))
    assert rep.ufd == "true"
    assert rep.fibration == "false"
    assert rep.verdict == VERDICT_NOT_RECTIFIABLE


def test_reducible_fiber_rules():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    rep = analyze(build(QQ, aX, Z * T))
    assert rep.ufd == "false"
    assert rep.fibration == "false"
    assert rep.verdict == VERDICT_NOT_RECTIFIABLE


def test_rectifiable_with_two_roots_and_reverification():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    F = (1 - X) * Z + X * (T + Z * Z)
    rep = analyze(build(QQ, aX * (aX - 1), F))
    assert rep.verdict == VERDICT_RECTIFIABLE
    assert [c.status for c in rep.coordinates] == ["accept", "accept"]
    for rd, c in zip(rep.roots, rep.coordinates):
        assert verify_plane_pair(rd.specialization, c.certificate.complement)
    assert rep.fibration == "true" and rep.ufd == "true"


def test_nonconstant_linear_coefficient_fiber_is_rejected():
    # the fiber over 1 is Z + (Z^2+1)*T; a nonconstant T-coefficient makes the
    # residue ring unit group too big, so this input cannot straighten
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    F = (1 - X) * Z + X * (Z + Z * Z * T + T)
    rep = analyze(build(QQ, aX * (aX - 1), F))
    assert [c.status for c in rep.coordinates] == ["accept", "reject"]
    assert rep.verdict == VERDICT_NOT_RECTIFIABLE


def test_gaussian_residue_field_case():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    rep = analyze(build(QQ, aX * aX + 1, Z + X * T))
    assert rep.verdict == VERDICT_RECTIFIABLE


def test_mixed_residue_fields_all_coordinates():
    # fibers interpolated across three kinds of factors:
    # F(0) = T + Z^2, F at the quadratic factor = Z + gT, F(1) = T
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    f0 = T + Z * Z
    half = QQ.coerce(1) / QQ.coerce(2)
    F = (
        f0
        + X * T
        + X * X * (f0 - Z)
        + X * (X * X + 1) * (Z - 2 * f0).scale(half)
    )
    a = aX * (aX * aX + 1) * (aX - 1) ** 2
    rep = analyze(build(QQ, a, F))
    assert rep.verdict == VERDICT_RECTIFIABLE
    fibers = {str(rd.factor): str(rd.specialization) for rd in rep.roots}
    assert fibers == {"X": "Z^2+T", "X^2+1": "Z+g*T", "X-1": "T"}
    assert [c.status for c in rep.coordinates] == ["accept"] * 3
    for rd, c in zip(rep.roots, rep.coordinates):
        assert verify_plane_pair(rd.specialization, c.certificate.complement)


def test_cubic_residue_field_norm_route():
    # irreducible cubic base factor: the factoriality question for the
    # rejected fibers is settled through the norm over the residue field
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    rep = analyze(build(QQ, aX**3 - 2, Z * Z + T**3 + 1))
    assert rep.verdict == VERDICT_NOT_RECTIFIABLE
    assert rep.ufd == "true" and rep.irreducibility == ["true"]
    # a square root of -1 needs even extension degree, so Z^2 + T^2 stays
    # irreducible over the cubic field
    rep2 = analyze(build(QQ, aX**3 - 2, Z * Z + T * T))
    assert rep2.ufd == "true"
    # but splits over the quartic... over the Gaussian residue field
    rep3 = analyze(build(QQ, aX * aX + 1, Z * Z + T * T))
    assert rep3.ufd == "false" and rep3.irreducibility == ["false"]


def test_non_monic_a_is_accepted():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    rep = analyze(build(QQ, (2 * aX) * (3 * aX - 3), (1 - X) * Z + X * (T + Z * Z)))
    assert rep.verdict == VERDICT_RECTIFIABLE
    assert [str(rd.factor) for rd in rep.roots] == ["X", "X-1"]


def test_repeated_irreducible_quadratic_factor():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    rep = analyze(build(QQ, (aX * aX + 1) ** 2, Z + X * T))
    assert rep.verdict == VERDICT_RECTIFIABLE
    assert rep.roots[0].multiplicity == 2
    assert not rep.roots[0].kbar_simple
    assert rep.regular == "true"


def test_charp_simple_root_is_inconclusive():
    F5 = GF(5)
    aX = a_var(F5)
    X, Z, T = xzt_vars(F5)
    rep = analyze(build(F5, aX, Z * T))
    assert rep.verdict == VERDICT_INCONCLUSIVE


def test_charp_separable_multiple_root_decides():
    F5 = GF(5)
    aX = a_var(F5)
    X, Z, T = xzt_vars(F5)
    rep = analyze(build(F5, aX * aX * (aX - 1), Z * T))
    assert rep.verdict == VERDICT_NOT_RECTIFIABLE
    assert "chp3" in rep.theorem_path


def test_char2_no_simple_root_decides():
    F2s = rational_function_field(2)
    aX = a_var(F2s)
    X, Z, T = xzt_vars(F2s)
    s1 = MultiPoly.constant(F2s, ("X",), F2s.parameter())
    s3 = MultiPoly.constant(F2s, XZT, F2s.parameter())
    rep = analyze(build(F2s, aX**2 * (aX**2 - s1), Z * Z + s3 * T * T + T))
    assert rep.verdict == VERDICT_NOT_RECTIFIABLE
    assert "chp2" in rep.theorem_path
    assert rep.ufd == "true"


def test_char3_family_behaves_like_char2():
    F3s = rational_function_field(3)
    aX = a_var(F3s)
    X, Z, T = xzt_vars(F3s)
    s1 = MultiPoly.constant(F3s, ("X",), F3s.parameter())
    s3 = MultiPoly.constant(F3s, XZT, F3s.parameter())
    f = Z**3 + s3 * T**3 + T
    rep = analyze(build(F3s, aX**3 * (aX**3 - s1), f))
    assert rep.verdict == VERDICT_NOT_RECTIFIABLE
    assert "chp2" in rep.theorem_path and rep.ufd == "true"
    rep2 = analyze(build(F3s, aX**3 - s1, f))
    assert rep2.verdict == VERDICT_RECTIFIABLE


def test_char2_insep_binomial_rectifiable():
    F2s = rational_function_field(2)
    aX = a_var(F2s)
    X, Z, T = xzt_vars(F2s)
    s1 = MultiPoly.constant(F2s, ("X",), F2s.parameter())
    s3 = MultiPoly.constant(F2s, XZT, F2s.parameter())
    rep = analyze(build(F2s, aX**2 - s1, Z * Z + s3 * T * T + T))
    assert rep.verdict == VERDICT_RECTIFIABLE
    assert rep.fibration == "true"


def test_mixed_inseparable_and_simple_inconclusive():
    F2s = rational_function_field(2)
    aX = a_var(F2s)
    X, Z, T = xzt_vars(F2s)
    s1 = MultiPoly.constant(F2s, ("X",), F2s.parameter())
    s3 = MultiPoly.constant(F2s, XZT, F2s.parameter())
    rep = analyze(build(F2s, aX * (aX**2 - s1), Z * Z + s3 * T * T + T))
    assert rep.verdict == VERDICT_INCONCLUSIVE


# -- regularity ---------------------------------------------------------------------


def test_randomized_report_consistency(rng):
    # cross-consistency of the report on randomized inputs: a rectifiable
    # verdict forces all-accept coordinates and positive structure flags;
    # negative verdicts in characteristic p must cite a decided configuration
    from conftest import random_coordinate, random_poly

    checked = 0
    for _ in range(60):
        field = rng.choice([QQ, GF(5), GF(7), QQ])
        aX = MultiPoly.variable(field, ("X",), "X")
        a = MultiPoly.one(field, ("X",))
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                a = a * (aX - field.from_int(rng.randint(-2, 2))) ** rng.randint(1, 2)
            else:
                a = a * (aX * aX + field.from_int(rng.choice([1, 2, -2])))
        if a.degree_in("X") < 1:
            continue
        if rng.random() < 0.5:
            f0 = random_coordinate(field, rng, deg_cap=6, max_len=2, max_shift_deg=2)
            F = f0.with_vars(XZT) + MultiPoly.variable(
                field, XZT, "X"
            ) * random_poly(field, XZT, rng, max_deg=1, n_terms=2)
        else:
            F = random_poly(field, XZT, rng, max_deg=2, n_terms=4)
        if F.is_zero():
            continue
        rep = analyze(Hyperplane(a, F))
        checked += 1
        if not rep.domain:
            continue
        statuses = [c.status for c in rep.coordinates]
        if rep.verdict == VERDICT_RECTIFIABLE:
            assert all(s == "accept" for s in statuses)
            assert rep.fibration == "true" and rep.ufd == "true"
        elif rep.verdict == VERDICT_NOT_RECTIFIABLE:
            assert any(s != "accept" for s in statuses)
            if field.characteristic() > 0:
                assert ("chp2" in rep.theorem_path) or ("chp3" in rep.theorem_path)
        for s, line, irr in zip(statuses, rep.lines, rep.irreducibility):
            if s == "accept":
                assert line == "line" and irr == "true"
    assert checked >= 40


def _count_calls(monkeypatch, name, *modules):
    calls = []
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    "a, F, spec, vartests, groebner_tests, regular",
    [
        ("X", "Z^2+T^3+1", "Q", 1, 1, "true"),
        ("X^2*(X-1)", "Z*T", "F5", 3, 2, "false"),
        # corpus/insep_double_binomial.case: both roots certified
        ("X^2*(X^2-s)", "Z^2+s*T^2+T", "F2(s)", 2, 0, "true"),
    ],
)
def test_flags_read_the_coordinate_outcome(
    monkeypatch, a, F, spec, vartests, groebner_tests, regular
):
    """One coordinate test per root (plus the base-field test of the chp3
    rule) and Groebner regularity only on uncertified roots."""
    field = parse_field_spec(spec)
    h = Hyperplane(
        parse_polynomial(a, field, ("X",)), parse_polynomial(F, field, XZT)
    )
    vt = _count_calls(monkeypatch, "vartest", plane_coordinates, hyperplane)
    gb = _count_calls(monkeypatch, "ideal_contains_one", hyperplane)
    rep = analyze(h)
    assert len(vt) == vartests
    assert len(gb) == groebner_tests
    assert rep.regular == regular


def _seeded_hyperplanes(rng, count):
    """(a, F) over Q, F5, F7 and F2(s): products of linear and quadratic
    factors (X^2 - s among them over F2(s)), and F a tame coordinate, the
    inseparable quadric Z^2 + c*T^2 + T over F2(s), or a random polynomial,
    each plus X times a random polynomial."""
    F2s = rational_function_field(2)
    s = F2s.parameter()
    for field in (QQ, GF(5), GF(7), F2s):
        X = MultiPoly.variable(field, ("X",), "X")
        Z, T = (MultiPoly.variable(field, XZT, v) for v in ("Z", "T"))
        for _ in range(count):
            a = MultiPoly.one(field, ("X",))
            for _ in range(rng.randint(1, 2)):
                if field is F2s and rng.random() < 0.5:
                    a = a * (X * X - MultiPoly.constant(field, ("X",), s))
                elif rng.random() < 0.5:
                    a = a * (X - field.from_int(rng.randint(-2, 2))) ** rng.randint(1, 2)
                else:
                    a = a * (X * X + field.from_int(rng.choice([1, 2, -2])))
            pick = rng.random()
            if field is F2s and pick < 0.3:
                c = MultiPoly.constant(field, XZT, s + field.from_int(rng.randint(0, 1)))
                F0 = Z * Z + c * T * T + T
            elif pick < 0.65:
                F0 = random_coordinate(field, rng, deg_cap=6, max_len=2, max_shift_deg=2).with_vars(XZT)
            else:
                F0 = random_poly(field, XZT, rng, max_deg=2, n_terms=4)
            X3 = MultiPoly.variable(field, XZT, "X")
            yield a, F0 + X3 * random_poly(field, XZT, rng, max_deg=1, n_terms=2)


def _corpus_hyperplanes():
    for path in sorted((ROOT / "corpus").glob("*.case")):
        case = load_case(path)
        field = parse_field_spec(case["field"])
        yield parse_polynomial(case["a"], field, ("X",)), parse_polynomial(case["F"], field, XZT)


def _assert_one_outcome(outcome):
    """certified, a certificate and a status other than "reject" agree, and
    the certificate lives over an extension exactly for the status that says
    so."""
    assert outcome.certified == (outcome.certificate is not None) == (outcome.status != "reject")
    over_extension = outcome.certified and outcome.certificate.extension is not None
    assert over_extension == (outcome.status == "reject-accepts-over-extension")


def _certificate_json(outcome, f):
    return None if outcome.certificate is None else cli.certificate_to_json(outcome.certificate, f)


def test_report_coordinates_are_the_vartest_outcomes():
    """Every nonconstant root's report entry is what vartest answers on its
    specialization: status, reason and serialized certificate."""
    rng = random.Random(1905)
    inputs = [*_seeded_hyperplanes(rng, 25), *_corpus_hyperplanes()]
    statuses = set()
    for a, F in inputs:
        if F.is_zero() or a.degree_in("X") < 1:
            continue
        rep = analyze(Hyperplane(a, F), rng=random.Random(7))
        for rd, outcome in zip(rep.roots, rep.coordinates):
            _assert_one_outcome(outcome)
            statuses.add(outcome.status)
            f = rd.specialization
            if f.is_constant():
                assert (outcome.status, outcome.reason) == ("reject", "specialization is a unit")
                continue
            direct = vartest(f)
            _assert_one_outcome(direct)
            assert (outcome.status, outcome.reason) == (direct.status, direct.reason), str(f)
            assert _certificate_json(outcome, f) == _certificate_json(direct, f), str(f)
    assert statuses == {"accept", "reject", "reject-accepts-over-extension"}


def test_regularity_examples():
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    h = normalize(build(QQ, aX, Z * Z + T**3 + 1))
    data, _ = root_data(h)
    assert regularity_check(h, data, coordinate_results(data))[0] == "true"

    h2 = normalize(build(QQ, aX * aX, Z * Z))
    data2, _ = root_data(h2)
    assert regularity_check(h2, data2, coordinate_results(data2))[0] == "false"

    h3 = normalize(build(QQ, aX * aX, Z))
    data3, _ = root_data(h3)
    assert regularity_check(h3, data3, coordinate_results(data3))[0] == "true"


def _jacobian_smoothness_oracle(h):
    """Direct four-variable Jacobian test: the ideal generated by G and its
    partials is the unit ideal.  Unit-ideal membership is insensitive to
    extending the base field, so this matches a closure-point check."""
    G = h.defining_polynomial()
    gens = [G] + [
        G.partial_derivative(v) for v in ("X", "Y", "Z", "T")
    ]
    gens = [g for g in gens if not g.is_zero()]
    return ideal_contains_one(gens)


@pytest.mark.parametrize(
    "field", [QQ, GF(5), GF(3), rational_function_field(2)], ids=str
)
def test_regularity_agrees_with_jacobian_oracle(field):
    rng = random.Random(2718)
    aX = a_var(field)
    X, Z, T = xzt_vars(field)
    cases = [
        (aX, Z * Z + T**3 + 1),
        (aX * aX, Z * Z),
        (aX * aX, Z),
        (aX * (aX - 1), Z * T),
        (aX * aX + 1, Z + X * T) if field is QQ else (aX, Z + T),
        (aX, Z * Z - T * T),
        (aX * aX * (aX - 1), T + Z**3),
    ]
    if field.characteristic() == 2:
        # one root accepted, one accepted only over an inseparable extension
        s1 = MultiPoly.constant(field, ("X",), field.parameter())
        s3 = MultiPoly.constant(field, XZT, field.parameter())
        cases.append((aX**2 * (aX**2 - s1), Z * Z + s3 * T * T + T))
    for _ in range(5):
        coeffs = [field.from_int(rng.randint(-2, 2)) for _ in range(2)] + [field.one()]
        a = MultiPoly.from_dense(field, ("X",), "X", coeffs)
        F = (
            Z.scale(field.from_int(rng.randint(-2, 2)))
            + T * T
            + X * Z.scale(field.from_int(rng.randint(-1, 1)))
        )
        cases.append((a, F))
    for a, F in cases:
        h = build(field, a, F)
        if not domain_check(h)[0]:
            continue
        hn = normalize(h)
        data, complete = root_data(hn)
        if not complete:
            continue
        got, _ = regularity_check(hn, data, coordinate_results(data))
        want = "true" if _jacobian_smoothness_oracle(h) else "false"
        assert got == want, f"a={a}, F={F}"
