"""Kernel outputs are canonical.

Ring operations, coefficient views, substitution, division and the Groebner
results build their polynomials through ``MultiPoly._trusted``, which does not
check its terms.  Here it is swapped for a checking constructor while the
certify-and-referee path, ``analyze`` and ``gr-check`` run, over the prime,
rational-function and residue fields the pipeline meets: every polynomial it
builds that way must have a tuple of variables, exponent tuples of their
length and no zero coefficient.
"""

import contextlib
import io
import json
import random

import pytest

from rect4 import cli
from rect4.exprparse import parse_field_spec, parse_polynomial
from rect4.hyperplane import Hyperplane, analyze
from rect4.plane_coordinates import certificate_fault, vartest
from rect4.polynomials import MultiPoly
from rect4.verifier import verify_plane_pair

from conftest import XZT, ZT, random_coordinate, random_poly

trusted = MultiPoly._trusted


@pytest.fixture
def checked_kernels(monkeypatch):
    """Swap the trusted constructor for one that checks; yields the number
    of polynomials built through it so far."""
    built = [0]

    def checking(field, vars, terms):
        assert type(vars) is tuple, vars
        for e, c in terms.items():
            assert type(e) is tuple and len(e) == len(vars), (e, vars)
            assert not field.raw_is_zero(c), (e, c)
        built[0] += 1
        return trusted(field, vars, terms)

    monkeypatch.setattr(MultiPoly, "_trusted", staticmethod(checking))
    yield built


CERTIFY_FIELDS = ["Q", "F5", "F7", "Q[i]/(i^2+1)", "F5[b]/(b^2+2)", "F2(s)"]


@pytest.mark.parametrize("spec", CERTIFY_FIELDS)
def test_certify_and_referee_build_canonical_polynomials(spec, checked_kernels):
    field = parse_field_spec(spec)
    rng = random.Random(16)
    for _ in range(6):
        f = random_coordinate(field, rng, deg_cap=8, max_len=4, max_shift_deg=3)
        result = vartest(f)
        assert result.accepted
        cert = result.certificate
        assert cert.image_of_variable("T") == f
        assert verify_plane_pair(f, cert.complement)
        assert certificate_fault(f, cert) is None
        vartest(f * f + random_poly(field, ZT, rng))  # mostly rejections
        assert not verify_plane_pair(f, f * f)
    assert checked_kernels[0] > 0


# analyze over Q, F5, F7 and F2(s); the quadratic factors put the fibres over
# the residue fields Q[g]/(g^2+1) and F5[g]/(g^2+2), and F2(s) meets the
# inseparable extension of insep_binomial_quadric
ANALYZE = [
    ("X*(X-1)", "Z+X*T^2", "Q"),
    ("X^2+1", "Z+X*T", "Q"),
    ("X^2*(X+1)", "T+Z^2+X*Z*T", "Q"),
    ("X^3", "T+Z^2", "F5"),
    ("X^2+2", "Z+X*T+T^2", "F5"),
    ("X*(X+3)", "Z^2*T+T^3+X*Z", "F7"),
    ("X^2*(X^2-s)", "Z^2+s*T^2+T", "F2(s)"),
    ("X", "Z+T^2+s*X*Z", "F2(s)"),
]


@pytest.mark.parametrize("a, F, spec", ANALYZE)
def test_analyze_builds_canonical_polynomials(a, F, spec, checked_kernels):
    field = parse_field_spec(spec)
    report = analyze(Hyperplane(parse_polynomial(a, field, ("X",)), parse_polynomial(F, field, XZT)))
    assert report.verdict
    assert checked_kernels[0] > 0


def test_gr_check_builds_canonical_polynomials(checked_kernels):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["gr-check", "X^2*(X+1)", "Z+X*T", "Q", "--json"])
    assert code == 0 and json.loads(out.getvalue())["ok"]
    assert checked_kernels[0] > 0
