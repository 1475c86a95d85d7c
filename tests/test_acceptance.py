"""Acceptance suite: one test per exit criterion, each printing a PASS line
and enforcing its runtime budget."""

import io
import contextlib
import json
import random
import time

from rect4 import cli
from rect4.fields import GF, QQ
from rect4.polynomials import MultiPoly, ideal_contains_one
from rect4.hyperplane import (
    Hyperplane,
    analyze,
    coordinate_results,
    domain_check,
    normalize,
    regularity_check,
    root_data,
)
from rect4.filtration import (
    NEG_INF,
    FiltrationContext,
    check_x_divisibility,
    generators,
    gr_relation_residual,
    w_degree,
)
from rect4.plane_coordinates import vartest
from rect4.verifier import verify_plane_pair

from conftest import (
    XZT,
    ZT,
    a_mul,
    a_var,
    random_coordinate,
    random_poly,
    xzt_vars,
)


def run_cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--json"])
    return code, json.loads(buf.getvalue())


def _stamp(name, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_acceptance_1_cusp_fiber_report():
    t0 = time.monotonic()
    code, doc = run_cli_json(["analyze", "X", "Z^2+T^3+1", "Q"])
    assert code == 1
    assert doc["domain"] is True
    assert doc["ufd"] == "true"
    assert doc["fibration"] == "false"
    assert doc["verdict"] == "NotRectifiable"
    _stamp("cusp-fiber analyze", t0, 5.0)


def test_acceptance_2_char2_claim_verifies():
    t0 = time.monotonic()
    code, doc = run_cli_json(
        [
            "verify",
            "--field",
            "F2(s)",
            "--vars",
            "X,Y,Z,T",
            "X",
            "(X^2-s)*Y-(Z^2+s*T^2+T)",
            "Y+T^2",
            "Z+X*T",
        ]
    )
    assert code == 0
    assert doc["verdict"] == "Accept"
    assert set(doc["inverses"]) == {"X", "Y", "Z", "T"}
    # the command itself replays the inverses exactly before accepting; do it
    # once more from the emitted document
    from rect4.exprparse import parse_field_spec, parse_polynomial

    field = parse_field_spec(doc["field"])
    variables = tuple(doc["inputs"]["variables"])
    tags = tuple(f"U{i+1}" for i in range(len(variables)))
    allvars = variables + tags
    claims = [
        parse_polynomial(p, field, allvars) for p in doc["inputs"]["claims"]
    ]
    for name in variables:
        expr = parse_polynomial(doc["inverses"][name], field, allvars)
        bound = expr.substitute({tags[j]: claims[j] for j in range(len(tags))})
        assert bound == MultiPoly.variable(field, allvars, name)
    _stamp("characteristic-2 coordinate claim", t0, 10.0)


def test_acceptance_3_double_binomial_report():
    t0 = time.monotonic()
    code, doc = run_cli_json(
        ["analyze", "X^2*(X^2-s)", "Z^2+s*T^2+T", "F2(s)"]
    )
    assert code == 1
    assert doc["verdict"] == "NotRectifiable"
    assert "chp2" in doc["theorem_path"]
    assert doc["ufd"] == "true"
    _stamp("inseparable double-binomial analyze", t0, 10.0)


def test_acceptance_4_round_trip_500():
    t0 = time.monotonic()
    rng = random.Random(20240901)
    failures = []
    for k in range(500):
        f = random_coordinate(
            QQ, rng, deg_cap=20, term_cap=250, max_len=5, max_shift_deg=4
        )
        r = vartest(f)
        if not r.accepted:
            failures.append((k, str(f), r.reason))
            continue
        if r.certificate.image_of_variable("T") != f:
            failures.append((k, str(f), "composite mismatch"))
            continue
        if not verify_plane_pair(f, r.certificate.complement):
            failures.append((k, str(f), "complement rejected"))
    assert not failures, failures[:3]
    _stamp("500 tame round trips", t0, 60.0)


def test_acceptance_5_rejection_soundness():
    t0 = time.monotonic()
    rng = random.Random(555)
    accepted = []
    count = 0
    while count < 200:
        g = random_poly(QQ, ZT, rng, max_deg=3, n_terms=3)
        h = random_poly(QQ, ZT, rng, max_deg=3, n_terms=3)
        if g.is_constant() or h.is_constant():
            continue
        count += 1
        if vartest(g * h).accepted:
            accepted.append((str(g), str(h)))
    Z = MultiPoly.variable(QQ, ZT, "Z")
    T = MultiPoly.variable(QQ, ZT, "T")
    for f in (Z * Z - T**3, Z * Z + T**3 + 1):
        if vartest(f).accepted:
            accepted.append((str(f), ""))
    assert not accepted, accepted[:3]
    _stamp("rejection soundness", t0, 30.0)


def test_acceptance_6_constructed_rectifiable_family():
    t0 = time.monotonic()
    rng = random.Random(606)
    X, Z, T = xzt_vars(QQ)
    aX = a_var(QQ)
    combos = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
    cases = [combos[i % len(combos)] for i in range(20)]
    for m, n in cases:
        a = aX**m * (aX - 1) ** n
        f0 = random_coordinate(QQ, rng, deg_cap=8, max_len=3, max_shift_deg=2)
        f1 = random_coordinate(QQ, rng, deg_cap=8, max_len=3, max_shift_deg=2)
        F = f0.with_vars(XZT) + X * (f1.with_vars(XZT) - f0.with_vars(XZT))
        rep = analyze(Hyperplane(a, F))
        assert rep.verdict == "Rectifiable", (m, n, str(F))
        for rd, c in zip(rep.roots, rep.coordinates):
            assert c.status == "accept"
            assert verify_plane_pair(
                rd.specialization, c.certificate.complement
            )
    _stamp("constructed rectifiable family", t0, 60.0)


def test_acceptance_7_filtration_suite():
    t0 = time.monotonic()
    rng = random.Random(707)
    aX = a_var(QQ)
    X, Z, T = xzt_vars(QQ)
    F5 = GF(5)
    a5 = a_var(F5)
    X5, Z5, T5 = xzt_vars(F5)
    contexts = [
        FiltrationContext.build(Hyperplane(aX, Z + T * T)),
        FiltrationContext.build(Hyperplane(aX, Z * Z + T**3 + 1)),
        FiltrationContext.build(Hyperplane(aX**2, Z + X * T)),
        FiltrationContext.build(Hyperplane(aX**2 * (aX + 1), Z + X * T)),
        FiltrationContext.build(Hyperplane(aX**2, T + Z * Z)),
        FiltrationContext.build(Hyperplane(aX**3, Z + X * T + X * X * T)),
        FiltrationContext.build(Hyperplane(aX**3 * (aX - 2), Z * T + Z)),
        FiltrationContext.build(Hyperplane(a5, Z5 + T5 * T5)),
        FiltrationContext.build(Hyperplane(a5**2 * (a5 + 1), Z5 + X5 * T5)),
        FiltrationContext.build(Hyperplane(a5**3, T5 + Z5 * Z5)),
    ]
    assert sorted({c.d for c in contexts}) == [1, 2, 3]

    def random_nf(ctx):
        field = ctx.field
        da = ctx.hyperplane.a.degree_in("X")
        coeffs = []
        for i in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                ev = (
                    rng.randint(0, (da - 1) if i >= 1 else 3),
                    rng.randint(0, 2),
                    rng.randint(0, 2),
                )
                terms[ev] = field.from_int(rng.randint(-3, 3))
            coeffs.append(
                MultiPoly.from_terms(field, XZT, terms.items())
            )
        from rect4.filtration import AElement

        return AElement(ctx, coeffs)

    for ctx in contexts:
        x, y, z, t = generators(ctx)
        assert w_degree(x, ctx) == -1
        assert w_degree(y, ctx) == ctx.d
        assert w_degree(z, ctx) == 0
        assert w_degree(t, ctx) == 0
        residual = gr_relation_residual(ctx)
        assert residual == NEG_INF or residual <= -1

    pairs = 0
    negatives = 0
    while pairs < 500:
        ctx = contexts[pairs % len(contexts)]
        e1, e2 = random_nf(ctx), random_nf(ctx)
        if e1.is_zero() or e2.is_zero():
            continue
        pairs += 1
        assert w_degree(a_mul(e1, e2), ctx) == w_degree(e1, ctx) + w_degree(
            e2, ctx
        )
        if w_degree(e1, ctx) < 0:
            negatives += 1
            div, quo = check_x_divisibility(e1, ctx)
            assert div
    assert negatives > 20
    _stamp("filtration suite", t0, 60.0)


def test_acceptance_8_regularity_oracle_agreement():
    t0 = time.monotonic()
    checked = 0
    for field in (QQ, GF(5)):
        aX = a_var(field)
        X, Z, T = xzt_vars(field)
        cases = [
            (aX, Z * Z + T**3 + 1),
            (aX**2, Z * Z),
            (aX**2, Z),
            (aX * (aX - 1), Z * T),
            (aX**3, T + Z * Z),
            (aX**2 * (aX - 1), Z + X * T),
            (aX**2 + 1, Z + X * T),
            (aX, Z * Z - T * T),
            (aX * (aX - 1), Z * Z + T * T + 1),
            (aX**2, 1 + X * Z),
        ]
        for a, F in cases:
            h = Hyperplane(a, F)
            if not domain_check(h)[0]:
                continue
            hn = normalize(h)
            data, complete = root_data(hn)
            if not complete:
                continue
            got, _ = regularity_check(hn, data, coordinate_results(data))
            G = h.defining_polynomial()
            gens = [G] + [G.partial_derivative(v) for v in ("X", "Y", "Z", "T")]
            gens = [g for g in gens if not g.is_zero()]
            want = "true" if ideal_contains_one(gens) else "false"
            assert got == want, f"{field}: a={a}, F={F}"
            checked += 1
    assert checked >= 20
    _stamp("regularity oracle agreement", t0, 60.0)
