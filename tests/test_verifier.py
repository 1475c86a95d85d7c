import json
import random

import pytest

from rect4 import verifier
from rect4.exprparse import parse_field_spec, parse_polynomial
from rect4.fields import GF, QQ, extend, rational_function_field
from rect4.plane_coordinates import vartest
from rect4.polynomials import MonomialOrder, MultiPoly, groebner_basis, normal_form
from rect4.verifier import (
    CoordinateClaim,
    VerifierError,
    replay_inverses,
    verify_coordinate_system,
    verify_plane_pair,
)

from conftest import ROOT, ZT, random_coordinate, random_poly, random_tame_steps

V4 = ("X", "Y", "Z", "T")


def vars4(field):
    return tuple(MultiPoly.variable(field, V4, v) for v in V4)


def test_identity_claim():
    out = verify_coordinate_system(CoordinateClaim(V4, list(vars4(QQ))))
    assert out.accepted
    assert {k: str(v) for k, v in out.inverses.items()} == {
        "X": "U1",
        "Y": "U2",
        "Z": "U3",
        "T": "U4",
    }


def test_repeated_generator_rejected_with_witness():
    X, Y, Z, T = vars4(QQ)
    out = verify_coordinate_system(CoordinateClaim(V4, [X, Y, Z, Z]))
    assert not out.accepted
    assert out.witness == "T"


def test_char2_global_coordinates():
    F2s = rational_function_field(2)
    X, Y, Z, T = vars4(F2s)
    s = MultiPoly.constant(F2s, V4, F2s.parameter())
    G = (X * X - s) * Y - (Z * Z + s * T * T + T)
    claim = CoordinateClaim(V4, [X, G, Y + T * T, Z + X * T])
    out = verify_coordinate_system(claim)
    assert out.accepted
    assert replay_inverses(claim, out)
    # every inverse is tag-only by construction
    for expr in out.inverses.values():
        assert not any(expr.involves(v) for v in V4)


def test_plane_pairs():
    Z = MultiPoly.variable(QQ, ("Z", "T"), "Z")
    T = MultiPoly.variable(QQ, ("Z", "T"), "T")
    assert verify_plane_pair(T, Z)
    assert verify_plane_pair(Z + T * T, T)
    assert not verify_plane_pair(Z * Z, T)


def _count_groebner_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return groebner_basis(*args, **kwargs)

    monkeypatch.setattr(verifier, "groebner_basis", counting)
    return calls


def test_affine_pairs_are_decided_by_their_determinant(monkeypatch):
    calls = _count_groebner_calls(monkeypatch)
    for field, accepted in ((QQ, True), (GF(2), False)):
        Z = MultiPoly.variable(field, ZT, "Z")
        T = MultiPoly.variable(field, ZT, "T")
        # determinant -2: a unit over Q, zero over F2
        assert verify_plane_pair(Z + T, Z - T) is accepted
    assert calls == []
    # degree 1 against degree 2 is not affine, although the linear parts
    # (0, 1) and (1, 0) have determinant -1: T is elementary, and Z + Z*T
    # is not a K[T]-variable
    Z = MultiPoly.variable(QQ, ZT, "Z")
    T = MultiPoly.variable(QQ, ZT, "T")
    assert not verify_plane_pair(T, Z + Z * T)
    # one variable used: T is padded in, and Z is elementary
    assert not verify_plane_pair(Z, Z * Z)
    assert calls == []
    # no member elementary and no shear read: Buchberger, once
    assert not verify_plane_pair(Z * T, Z * Z + T * T)
    assert len(calls) == 1


AFFINE_FIELDS = [QQ, GF(2), GF(5), extend(QQ, [1, 0, 1], "i"), rational_function_field(2)]


@pytest.mark.parametrize("field", AFFINE_FIELDS, ids=str)
def test_affine_pairs_agree_with_the_elimination_referee(field):
    """verify_plane_pair on pairs of total degree at most 1, with
    coefficients in -2..2, against the Buchberger referee of the same claim
    over (Z, T).  Both polynomials are written in (Z, T) or in (X, Z, T) with
    X unused; a pair that uses one variable takes the padding path."""
    rng = random.Random(24)
    seen = set()
    for _ in range(60):
        variables = rng.choice((ZT, ("X", "Z", "T")))
        Z = MultiPoly.variable(field, variables, "Z")
        T = MultiPoly.variable(field, variables, "T")
        one_variable = rng.random() < 0.2
        pair = []
        for _ in range(2):
            c0, c1, c2 = (field.from_int(rng.randint(-2, 2)) for _ in range(3))
            if one_variable:
                c2 = field.zero()
            pair.append(Z.scale(c1) + T.scale(c2) + MultiPoly.constant(field, variables, c0))
        f, g = pair
        want = verify_coordinate_system(CoordinateClaim(ZT, [f.with_vars(ZT), g.with_vars(ZT)])).accepted
        assert verify_plane_pair(f, g) == want, (str(f), str(g))
        degrees = (f.total_degree(), g.total_degree())
        if degrees == (1, 1):
            seen.add("accepted" if want else "determinant 0")
        elif 0 in degrees:
            seen.add("constant")
        if one_variable:
            seen.add("one variable")
        if len(variables) == 3:
            seen.add("unused third variable")
    assert seen == {"accepted", "determinant 0", "constant", "one variable", "unused third variable"}


def _unit(field, rng):
    """A random nonzero element, with the generator or the parameter of the
    field mixed in now and then."""
    while True:
        c = field.from_int(rng.choice((1, 2, 3, -1, -2)))
        for name in ("generator", "parameter"):
            if hasattr(field, name) and rng.random() < 0.3:
                c = c + getattr(field, name)()
        if not c.is_zero():
            return c


def _univariate(field, rng, var, deg):
    """A random polynomial in ``var`` alone of degree exactly ``deg``; zero
    when ``deg`` is negative."""
    if deg < 0:
        return MultiPoly.zero(field, ZT)
    coeffs = [field.from_int(rng.randint(-2, 2)) for _ in range(deg)] + [_unit(field, rng)]
    return MultiPoly.from_dense(field, ZT, var, coeffs)


def _elementary_member(field, rng, v, w, deg=None):
    """c*v + h(w) with c a unit and h of degree ``deg`` (random in -1..3,
    -1 for h = 0, when None)."""
    deg = rng.randint(-1, 3) if deg is None else deg
    return MultiPoly.variable(field, ZT, v).scale(_unit(field, rng)) + _univariate(field, rng, w, deg)


def _second_member(field, rng, v, w, accepted):
    """A in K[v, w]: alpha*w + k(v) with alpha a unit when ``accepted``, else
    that form spoiled by a term v^i*w, a term w^2 or a missing w."""
    k = _univariate(field, rng, v, rng.randint(-1, 2))
    W = MultiPoly.variable(field, ZT, w)
    if accepted:
        return W.scale(_unit(field, rng)) + k
    V = MultiPoly.variable(field, ZT, v)
    spoil = rng.choice(("v^i*w", "w^2", "no w"))
    if spoil == "v^i*w":
        return W.scale(_unit(field, rng)) + V ** rng.randint(1, 2) * W.scale(_unit(field, rng)) + k
    if spoil == "w^2":
        return (W * W).scale(_unit(field, rng)) + W.scale(field.from_int(rng.randint(-2, 2))) + k
    return k


def _is_elementary(p):
    """Test-side oracle: p = c*v + h(w) for some order {v, w} = {Z, T}."""
    return any(
        unit in p.terms and all(e[i] == 0 or e == unit for e in p.terms)
        for i, unit in enumerate(((1, 0), (0, 1)))
    )


def _plane_pair(field, rng, kind):
    """A pair over (Z, T) built to take the route ``kind``, or None when the
    draw does not have the shape that route needs."""
    Z, T = (MultiPoly.variable(field, ZT, x) for x in ZT)
    if kind in ("elementary", "shear"):
        if kind == "elementary":
            v, w = rng.sample(ZT, 2)
            b = _elementary_member(field, rng, v, w)
        else:
            # the shear is read off a degree d with d != 0 in K
            v, w = "T", "Z"
            b = _elementary_member(field, rng, v, w, rng.choice([d for d in (2, 3) if not field.from_int(d).is_zero()]))
        accepted = rng.random() < 0.5
        # a o sigma = A for sigma: v -> (v - h(w))/c, since b o sigma = v
        a = _second_member(field, rng, v, w, accepted).substitute({v: b})
        pair = [b, a]
        if kind == "shear":
            # Z -> Z + rho*T; the referee reads rho back off b's leading form,
            # and off a's too when both are powers of the same linear form
            image = Z + T.scale(_unit(field, rng))
            pair = [p.substitute({"Z": image}) for p in pair]
            if any(_is_elementary(p) for p in pair):
                return None
            if not accepted:
                # b first: a spoiled a need not have a power of that linear
                # form as its leading form, so rho is read off b
                return pair
        rng.shuffle(pair)
        return pair
    if kind == "shear fails":
        # a leading form (Z + rho*T)^3 that the shear straightens, but no
        # member becomes elementary
        line = Z + T.scale(_unit(field, rng))
        f = line**3 + random_poly(field, ZT, rng, max_deg=1)
        g = random_poly(field, ZT, rng, max_deg=2) + (Z * T).scale(_unit(field, rng))
        return [f, g]
    if kind == "no shear":
        # no x_0^d term with its x_0^(d-1)*x_1 partner (or d = 0 in K)
        return [(Z * T).scale(_unit(field, rng)) + MultiPoly.constant(field, ZT, rng.randint(-2, 2)),
                (Z * Z).scale(_unit(field, rng)) + (T * T).scale(_unit(field, rng))]
    if kind == "constant":
        v, w = rng.sample(ZT, 2)
        return [MultiPoly.constant(field, ZT, rng.randint(-2, 2)), _elementary_member(field, rng, v, w)]
    # "one variable": c*v + k0 against a univariate polynomial in v
    v = rng.choice(ZT)
    return [_elementary_member(field, rng, v, v, deg=0), _univariate(field, rng, v, rng.randint(2, 3))]


ROUTE_KINDS = ("elementary", "shear", "shear fails", "no shear", "constant", "one variable")


@pytest.mark.parametrize("field", AFFINE_FIELDS, ids=str)
def test_closed_forms_agree_with_the_elimination_referee(field, monkeypatch):
    """verify_plane_pair on seeded pairs built for every route it has
    against the Buchberger referee of the same claim over (Z, T).

    The route a pair took is observed: whether the shear was read and
    whether Buchberger ran.  A pair built with an elementary member must be
    decided without Buchberger, and one built as an elementary pair after a
    shear must be decided by that shear.  Rejections are seeded on purpose:
    the spoiled second members of ``_second_member``, a constant member and
    the one-variable pairs.
    """
    rng = random.Random(26)
    calls = _count_groebner_calls(monkeypatch)
    shear, sheared = verifier._shear, []

    def recording(f, g):
        out = shear(f, g)
        sheared.append(out is not None)
        return out

    monkeypatch.setattr(verifier, "_shear", recording)
    seen = set()
    for kind in ROUTE_KINDS * 12:
        pair = _plane_pair(field, rng, kind)
        if pair is None:
            continue
        variables = rng.choice((ZT, ("X", "Z", "T")))
        f, g = (p.with_vars(variables) for p in pair)
        del calls[:], sheared[:]
        got = verify_plane_pair(f, g)
        route = {
            ((), False): "closed form",
            ((True,), False): "shear",
            ((True,), True): "shear fails",
            ((False,), True): "Buchberger",
        }[tuple(sheared), bool(calls)]
        assert len(calls) <= 1
        want = verify_coordinate_system(CoordinateClaim(ZT, list(pair))).accepted
        assert got == want, (kind, str(f), str(g))
        if kind == "elementary":
            assert route == "closed form", (str(f), str(g))
        if kind == "shear":
            assert route == "shear", (str(f), str(g))
        verdict = "accept" if want else "reject"
        seen.add(f"{route} {verdict}" if route in ("closed form", "shear") else route)
        if kind in ("constant", "one variable"):
            seen.add(kind)
        if len(variables) == 3:
            seen.add("unused third variable")
    assert seen >= {
        "closed form accept",
        "closed form reject",
        "shear accept",
        "shear reject",
        "shear fails",
        "Buchberger",
        "constant",
        "one variable",
        "unused third variable",
    }


@pytest.mark.parametrize("field", AFFINE_FIELDS, ids=str)
def test_straightening_is_the_substitution(field):
    """verifier._straighten(a, b, i, c) is a o sigma for sigma: x_i ->
    (x_i - h)/c, where b = c*x_i + h(x_j): it takes b to x_i, and it agrees
    with MultiPoly.substitute, also on a monomial b."""
    rng = random.Random(26)
    monomials = 0
    for _ in range(20):
        i = rng.randint(0, 1)
        v, w = ZT[i], ZT[1 - i]
        b = _elementary_member(field, rng, v, w)
        monomials += len(b.terms) == 1
        x = MultiPoly.variable(field, ZT, v)
        c = b.coeff((1, 0) if i == 0 else (0, 1))
        sigma = {v: (x - (b - x.scale(c))).scale(c.inv())}
        assert verifier._straighten(b, b, i, c.rep) == x
        a = random_poly(field, ZT, rng)
        assert verifier._straighten(a, b, i, c.rep) == a.substitute(sigma), (str(a), str(b))
    assert monomials


def test_acceptance_stable_under_linear_change(rng):
    X, Y, Z, T = vars4(QQ)
    claim_polys = [X, Y + X * X, Z + T**2, T]
    assert verify_coordinate_system(CoordinateClaim(V4, claim_polys)).accepted
    # compose with an invertible linear change of the ambient variables
    for _ in range(3):
        while True:
            entries = [[QQ.from_int(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
            # force invertibility by accepting only unit diagonals after pivoting;
            # cheap approach: perturb to upper triangular with unit diagonal
            for i in range(4):
                entries[i][i] = QQ.from_int(rng.choice([1, -1]))
                for j in range(i):
                    entries[i][j] = QQ.zero()
            break
        basis = vars4(QQ)
        images = []
        for i in range(4):
            acc = MultiPoly.zero(QQ, V4)
            for j in range(4):
                acc = acc + basis[j].scale(entries[i][j])
            images.append(acc)
        changed = [
            p.substitute({v: images[i] for i, v in enumerate(V4)})
            for p in claim_polys
        ]
        out = verify_coordinate_system(CoordinateClaim(V4, changed))
        assert out.accepted


def test_round_trip_identity_on_accepts():
    X, Y, Z, T = vars4(QQ)
    claim = CoordinateClaim(V4, [X + Y**2, Y, Z - T**3 + X, T])
    out = verify_coordinate_system(claim)
    assert out.accepted
    assert replay_inverses(claim, out)


def test_nonjacobian_pair_rejected():
    X, Y, Z, T = vars4(QQ)
    # (Z - T^3, T + Z^2) has nonconstant Jacobian determinant, hence is not
    # an automorphism pair of the plane
    out = verify_coordinate_system(CoordinateClaim(V4, [X, Y, Z - T**3, T + Z * Z]))
    assert not out.accepted


def test_reject_has_no_tag_only_normal_form():
    X, Y, Z, T = vars4(QQ)
    out = verify_coordinate_system(CoordinateClaim(V4, [X, Y, Z * Z, T]))
    assert not out.accepted
    assert out.witness == "Z"


def test_dimension_mismatch_raises():
    X, Y, Z, T = vars4(QQ)
    with pytest.raises(VerifierError):
        CoordinateClaim(V4, [X, Y, Z])


def test_global_system_from_fiber_certificate(rng):
    # for G = X^r * Y - f(Z,T) with f an X-free plane coordinate with
    # complement g, the four polynomials (X, G, g, Y) generate everything:
    # f = X^r*Y - G recovers f, and K[f, g] = K[Z, T]
    from rect4.plane_coordinates import vartest
    from conftest import random_coordinate

    X, Y, Z, T = vars4(QQ)
    for r in (1, 2, 3):
        f2 = random_coordinate(QQ, rng, deg_cap=8, max_len=3, max_shift_deg=2)
        res = vartest(f2)
        assert res.accepted
        g = res.certificate.complement.with_vars(V4)
        G = X**r * Y - f2.with_vars(V4)
        out = verify_coordinate_system(CoordinateClaim(V4, [X, G, g, Y]))
        assert out.accepted, f"r={r}, f={f2}"


def test_global_system_rejected_for_cusp_fiber():
    X, Y, Z, T = vars4(QQ)
    G = X * Y - (Z * Z + T**3 + 1)
    out = verify_coordinate_system(CoordinateClaim(V4, [X, G, Y, T]))
    assert not out.accepted
    assert out.witness == "Z"


def test_plane_pair_from_random_tame(rng):
    for _ in range(10):
        steps = random_tame_steps(QQ, rng, max_len=3, max_shift_deg=2)
        f = MultiPoly.variable(QQ, ("Z", "T"), "T")
        g = MultiPoly.variable(QQ, ("Z", "T"), "Z")
        for s in reversed(steps):
            f = s.apply(f)
            g = s.apply(g)
        assert verify_plane_pair(f, g)


# -- inverses read off the reduced basis, against normal forms ------------------


def reference_outcome(claim):
    """(accepted, witness, inverses) of a claim by reducing each X_i with
    ``groebner.normal_form`` against the reduced basis of (U_j - H_j), built
    with ``MultiPoly`` arithmetic and without clearing denominators (a unit
    scaling, so the reduced basis is the same)."""
    n = len(claim.variables)
    tags = tuple(f"U{i + 1}" for i in range(n))
    allvars = claim.variables + tags
    order = MonomialOrder("elimination", split=n)
    gens = [
        MultiPoly.variable(claim.field, allvars, t) - h.with_vars(allvars)
        for t, h in zip(tags, claim.polynomials)
    ]
    basis = groebner_basis(gens, order)
    inverses = {}
    for name in claim.variables:
        nf = normal_form(MultiPoly.variable(claim.field, allvars, name), basis, order)
        if any(nf.involves(v) for v in claim.variables):
            return False, name, None
        inverses[name] = nf
    return True, None, inverses


def assert_matches_reference(claim):
    out = verify_coordinate_system(claim)
    accepted, witness, inverses = reference_outcome(claim)
    assert (out.accepted, out.witness) == (accepted, witness), claim.polynomials
    assert out.inverses == inverses
    if inverses is not None:
        assert {k: str(v) for k, v in out.inverses.items()} == {k: str(v) for k, v in inverses.items()}
    return out.accepted


READ_OUT_FIELDS = [QQ, GF(5), extend(QQ, [1, 0, 1], "i"), rational_function_field(2)]


@pytest.mark.parametrize("field", READ_OUT_FIELDS, ids=str)
def test_basis_read_out_matches_normal_forms_on_plane_pairs(field):
    rng = random.Random(16)
    Z = MultiPoly.variable(field, ZT, "Z")
    verdicts = []
    for _ in range(8):
        f = random_coordinate(field, rng, deg_cap=8, max_len=3, max_shift_deg=3)
        g = vartest(f).certificate.complement
        for pair in ((f, g), (g, f), (f, g + Z * Z), (f, random_poly(field, ZT, rng))):
            verdicts.append(assert_matches_reference(CoordinateClaim(ZT, list(pair))))
    assert True in verdicts and False in verdicts


def test_basis_read_out_matches_normal_forms_on_four_variable_claims():
    doc = json.loads((ROOT / "corpus" / "claims" / "insep_binomial_quadric_claim.json").read_text())
    field = parse_field_spec(doc["field"])
    variables = tuple(doc["variables"])
    claim = CoordinateClaim(variables, [parse_polynomial(p, field, variables) for p in doc["claims"]])
    assert assert_matches_reference(claim)
    X, Y, Z, T = vars4(QQ)
    rejected = [
        [X, Y, Z * Z, T],  # witness Z: no basis element has lead Z
        [X, X * Y - (Z * Z + T**3 + 1), Y, T],  # the cusp fibre
        [X, Y, Z, Z],  # witness T
        [X, Y, Z - T**3, T + Z * Z],  # nonconstant Jacobian
    ]
    for polys in rejected:
        assert not assert_matches_reference(CoordinateClaim(V4, polys))
    assert assert_matches_reference(CoordinateClaim(V4, [X + Y**2, Y, Z - T**3 + X, T]))
