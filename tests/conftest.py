import math
import os
import pathlib
import random
import resource
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

from rect4.fields import GF, QQ, ExtensionField, FieldElement, RationalField, extend, rational_function_field
from rect4.filtration import to_normal_form
from rect4.polynomials import GREVLEX, MultiPoly
from rect4.plane_coordinates import TameStep

ZT = ("Z", "T")
XZT = ("X", "Z", "T")
ROOT = pathlib.Path(__file__).resolve().parent.parent

# wall-clock cap on the call phase of every test, so a regression that makes
# an exact computation loop or blow up fails the test it hangs, by name,
# instead of stalling the whole run
TEST_SECONDS = 30


class TimeCapExceeded(BaseException):
    """Raised in a test that runs past ``TEST_SECONDS``.  Not an Exception, so
    no ``except Exception`` in the code under test and no hypothesis shrink
    loop catches it; pytest reports it as the test's failure."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Arm a SIGALRM timer for the test call (where ``signal.setitimer``
    exists) and cancel it as soon as the call returns, before pytest formats
    any failure."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeCapExceeded(f"{item.nodeid} ran past {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_cli_capped(*argv, seconds=10, memory_mb=1024):
    """``python -m rect4.cli *argv`` on this tree's ``src`` in a subprocess,
    stopped after ``seconds`` of wall time (``subprocess.TimeoutExpired``)
    and held to ``memory_mb`` of address space, so an input that blows up
    fails its test instead of exhausting the machine.  Returns the
    ``CompletedProcess`` with text output."""

    def cap_memory():
        limit = memory_mb * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "rect4.cli", *argv],
        capture_output=True, text=True, timeout=seconds, preexec_fn=cap_memory,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


def extension_element(K, coeffs):
    """The element sum coeffs[i]*g^i of the extension K with generator g,
    from base-field coefficients (any number of them)."""
    g, acc = K.generator(), K.zero()
    for c in reversed(coeffs):
        acc = acc * g + K.from_base(c)
    return acc


def a_add(e1, e2):
    """The sum of two elements of A = K[X, Y, Z, T]/(a*Y - F), in normal form."""
    return to_normal_form(e1.polynomial() + e2.polynomial(), e1.ctx)


def a_mul(e1, e2):
    """The product of two elements of A, in normal form."""
    return to_normal_form(e1.polynomial() * e2.polynomial(), e1.ctx)


def zt_vars(field):
    return (
        MultiPoly.variable(field, ZT, "Z"),
        MultiPoly.variable(field, ZT, "T"),
    )


def xzt_vars(field):
    return tuple(MultiPoly.variable(field, XZT, v) for v in XZT)


def a_var(field):
    return MultiPoly.variable(field, ("X",), "X")


def leading_coeff(poly, order=GREVLEX):
    """The coefficient of poly's leading monomial in ``order``."""
    return poly.coeff(poly.leading_monomial(order))


def naive_substitute(poly, images):
    """sum c * prod_v images[v]^e_v over the terms of poly, expanded with
    ``*`` and ``**``; unbound variables stay.  The images are polynomials
    over poly's field in poly's variables.  A reference for
    ``MultiPoly.substitute`` that shares none of its code."""
    field, vars = poly.field, poly.vars
    out = MultiPoly.zero(field, vars)
    for e in poly.terms:
        term = MultiPoly.constant(field, vars, poly.coeff(e))
        for v, k in zip(vars, e):
            term = term * images.get(v, MultiPoly.variable(field, vars, v)) ** k
        out = out + term
    return out


def assert_canonical_rational(rep):
    """A raw rational is an int exactly when it is integral: otherwise a
    reduced Fraction with a denominator above one, and never a float or a
    bool.  ``RationalField`` builds its Fractions without normalizing them,
    so the reduction and the sign are checked here too."""
    assert type(rep) in (int, Fraction), f"raw rational {rep!r} is a {type(rep).__name__}"
    if type(rep) is Fraction:
        n, d = rep.numerator, rep.denominator
        assert type(n) is int and type(d) is int, f"raw rational {n!r}/{d!r} holds a non-int"
        assert d > 1, f"raw rational {n}/{d} is integral or has a negative denominator"
        assert math.gcd(n, d) == 1, f"raw rational {n}/{d} is not reduced"


def _field_rational_reps(field, rep):
    if isinstance(field, RationalField):
        yield rep
    elif isinstance(field, ExtensionField):
        for c in rep:
            yield from _field_rational_reps(field.base, c)


def rational_reps(obj):
    """Every raw rational inside ``obj``: the coefficients of a MultiPoly,
    the rep of a FieldElement (each entry of an extension tuple over Q) and
    the minimal polynomial of an extension of Q.  Lists, tuples and objects
    with a ``__dict__`` (tame steps, certificates, root data) are walked."""
    if isinstance(obj, MultiPoly):
        for c in obj.terms.values():
            yield from _field_rational_reps(obj.field, c)
    elif isinstance(obj, FieldElement):
        yield from _field_rational_reps(obj.field, obj.rep)
    elif isinstance(obj, ExtensionField):
        for c in obj.minpoly:
            yield from _field_rational_reps(obj.base, c)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from rational_reps(x)
    elif hasattr(obj, "__dict__"):
        yield from rational_reps(list(vars(obj).values()))


def assert_canonical_rationals(obj):
    """Assert :func:`assert_canonical_rational` on every raw rational inside
    ``obj`` and return them, so a caller can check that the walk saw some."""
    reps = list(rational_reps(obj))
    for rep in reps:
        assert_canonical_rational(rep)
    return reps


def load_case(path):
    """The key = value lines of a corpus/*.case file, as a dict."""
    data = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        data[key.strip()] = value.strip()
    return data


def _pool_element(field, rng, pool):
    c = field.from_int(rng.choice(pool))
    # over an extension or function field, mix in the generator now and then
    if hasattr(field, "generator") and rng.random() < 0.25:
        c = c + field.generator()
    elif hasattr(field, "parameter") and rng.random() < 0.25:
        c = c + field.parameter()
    return c


def random_tame_steps(field, rng, max_len=5, max_shift_deg=4, pool=(-2, -1, 0, 1, 2)):
    steps = []
    length = rng.randint(1, max_len)
    for _ in range(length):
        if rng.random() < 0.5:
            while True:
                m = [_pool_element(field, rng, pool) for _ in range(4)]
                det = m[0] * m[3] - m[1] * m[2]
                if not det.is_zero():
                    break
            v = (
                _pool_element(field, rng, pool),
                _pool_element(field, rng, pool),
            )
            steps.append(
                TameStep(
                    "linear",
                    field,
                    matrix=((m[0], m[1]), (m[2], m[3])),
                    translation=v,
                )
            )
        else:
            target = rng.choice(["Z", "T"])
            other = "T" if target == "Z" else "Z"
            deg = rng.randint(1, max_shift_deg)
            sh = MultiPoly.from_dense(
                field,
                ZT,
                other,
                [_pool_element(field, rng, pool) for _ in range(deg + 1)],
            )
            if sh.is_zero():
                continue
            steps.append(TameStep("elementary", field, target=target, shift=sh))
    return steps


def random_coordinate(field, rng, deg_cap=20, term_cap=250, **kw):
    """Image of T under a random tame automorphism, size-capped by resampling.

    Oversized intermediates abort the composition early; the returned values
    are still exactly the tame images that fit the caps."""
    while True:
        steps = random_tame_steps(field, rng, **kw)
        f = MultiPoly.variable(field, ZT, "T")
        for s in reversed(steps):
            f = s.apply(f)
            if f.total_degree() > deg_cap or len(f.terms) > term_cap:
                f = None
                break
        if f is None or f.is_constant():
            continue
        if f.total_degree() <= deg_cap and len(f.terms) <= term_cap:
            return f


def random_poly(field, vars, rng, max_deg=3, n_terms=4, pool=(-3, -2, -1, 1, 2, 3)):
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.randint(0, max_deg) for _ in vars)
        terms[e] = field.from_int(rng.choice(pool))
    p = MultiPoly.from_terms(field, vars, terms.items())
    return p


@pytest.fixture
def rng():
    return random.Random(20240901)


@pytest.fixture
def qq():
    return QQ


@pytest.fixture
def gf5():
    return GF(5)


@pytest.fixture
def f2s():
    return rational_function_field(2)


@pytest.fixture
def gaussian():
    return extend(QQ, [1, 0, 1], "i")
