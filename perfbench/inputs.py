"""Seeded input generators owned by the benchmark.

These mirror the generators the test suite uses for its randomized and
acceptance tests, but are a separate copy on purpose: editing a test must
never change what the benchmark measures.  Every generator draws only from
the ``random.Random`` it is given, so a seed fixes the inputs exactly.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from rect4.fields import GF, QQ, extend, rational_function_field
from rect4.plane_coordinates import TameStep
from rect4.polynomials import MultiPoly

ZT = ("Z", "T")
XZT = ("X", "Z", "T")

# gr-check refuses these corpus cases by design (exit 3): a(0) != 0 and a has
# no base-field root to shift to, or the input is not a domain
GR_CHECK_REFUSED = {
    "gaussian_residue_coordinate",
    "insep_binomial_quadric",
    "shared_factor_not_domain",
}
CLAIM_FILE = "corpus/claims/insep_binomial_quadric_claim.json"
VERDICT_EXIT = {"Rectifiable": 0, "NotRectifiable": 1, "Inconclusive": 2, "NotDomain": 3}


# ---------------------------------------------------------------------------
# random tame coordinates and random polynomials
# ---------------------------------------------------------------------------


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
    for _ in range(rng.randint(1, max_len)):
        if rng.random() < 0.5:
            while True:
                m = [_pool_element(field, rng, pool) for _ in range(4)]
                if not (m[0] * m[3] - m[1] * m[2]).is_zero():
                    break
            v = (_pool_element(field, rng, pool), _pool_element(field, rng, pool))
            steps.append(
                TameStep("linear", field, matrix=((m[0], m[1]), (m[2], m[3])), translation=v)
            )
        else:
            target = rng.choice(["Z", "T"])
            other = "T" if target == "Z" else "Z"
            deg = rng.randint(1, max_shift_deg)
            sh = MultiPoly.from_dense(
                field, ZT, other, [_pool_element(field, rng, pool) for _ in range(deg + 1)]
            )
            if sh.is_zero():
                continue
            steps.append(TameStep("elementary", field, target=target, shift=sh))
    return steps


def random_coordinate(field, rng, deg_cap=20, term_cap=250, **kw):
    """Image of T under a random tame automorphism, size-capped by resampling."""
    while True:
        steps = random_tame_steps(field, rng, **kw)
        f = MultiPoly.variable(field, ZT, "T")
        for s in reversed(steps):
            f = s.apply(f)
            if f.total_degree() > deg_cap or len(f.terms) > term_cap:
                f = None
                break
        if f is not None and not f.is_constant():
            return f


def random_poly(field, vars, rng, max_deg=3, n_terms=4, pool=(-3, -2, -1, 1, 2, 3)):
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.randint(0, max_deg) for _ in vars)
        terms[e] = field.from_int(rng.choice(pool))
    return MultiPoly.from_terms(field, vars, terms.items())


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------


def read_corpus(root):
    """Corpus cases as (name, a, F, field, expected_verdict), sorted by name."""
    cases = []
    for path in sorted(Path(root, "corpus").glob("*.case")):
        kv = {}
        for line in path.read_text().splitlines():
            line = line.strip()
            if line and not line.startswith("#") and "=" in line:
                k, v = line.split("=", 1)
                kv[k.strip()] = v.strip()
        cases.append((path.stem, kv["a"], kv["F"], kv["field"], kv["expected_verdict"]))
    if not cases:
        raise FileNotFoundError(f"no corpus cases under {root}/corpus")
    return cases


def corpus_pass(cases, rng):
    """One pass of CLI operations: (argv, expected exit code), seeded order.

    Each case is analyzed and gr-checked; the pass adds one claim verify.
    """
    ops = []
    for name, a, F, field, verdict in cases:
        ops.append((["analyze", a, F, field, "--json"], VERDICT_EXIT[verdict]))
        gr_exit = 3 if name in GR_CHECK_REFUSED else 0
        ops.append((["gr-check", a, F, field, "--json"], gr_exit))
    ops.append((["verify", "--claim-file", CLAIM_FILE, "--json"], 0))
    rng.shuffle(ops)
    return ops


def interleave(groups, rng):
    """Shuffle the union of ``groups`` so that every prefix holds each group in
    proportion to its size: the k-th of n items of a group goes to a random
    point of the k-th of n equal slices of the order."""
    keyed = []
    for items in groups:
        items = list(items)
        rng.shuffle(items)
        keyed.extend(((k + rng.random()) / len(items), item) for k, item in enumerate(items))
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed]


def apportion(count, shares):
    """Split ``count`` by ``shares`` (largest remainders; ties to the lower index)."""
    exact = [count * s for s in shares]
    out = [int(x) for x in exact]
    order = sorted(range(len(shares)), key=lambda i: (out[i] - exact[i], i))
    for i in order[: count - sum(out)]:
        out[i] += 1
    return out


DEGREE_EDGES = (5, 10, 15)  # total-degree buckets 1-4, 5-9, 10-14, 15-20

# (label, field factory, count per round, generator keyword arguments, share
# of each degree bucket among the generator's outputs, from 12000 draws for
# the degree cap 20 and 3000 for the cap 10)
_CAP20 = dict(deg_cap=20, term_cap=250, max_len=5, max_shift_deg=4)
_CAP10 = dict(deg_cap=10, term_cap=250, max_len=5, max_shift_deg=4)
TAME_MIX = (
    ("Q", lambda: QQ, 500, _CAP20, (0.8895, 0.0659, 0.0273, 0.0173)),
    ("F5", lambda: GF(5), 500, _CAP20, (0.8924, 0.0647, 0.0268, 0.0161)),
    ("Q[i]/(i^2+1)", lambda: extend(QQ, [1, 0, 1], "i"), 100, _CAP10, (0.9297, 0.0703)),
    ("F2(s)", lambda: rational_function_field(2), 100, _CAP10, (0.9523, 0.0477)),
)


def tame_inputs(rng, rounds):
    """``rounds`` times the 1200-coordinate TAME_MIX, as (label, f) pairs.

    Each field's coordinates are drawn from ``random_coordinate`` until every
    degree bucket holds its share of the count (draws for a full bucket are
    dropped), and the order is interleaved.  The heavy tail therefore has the
    same size in every seed and in every prefix a run issues, which keeps the
    spread between seeds down without changing what a coordinate looks like.
    """
    groups = []
    for label, make_field, count, kw, shares in TAME_MIX:
        field = make_field()
        want = apportion(count * rounds, shares)
        got = [[] for _ in want]
        while any(len(g) < w for g, w in zip(got, want)):
            f = random_coordinate(field, rng, **kw)
            b = sum(f.total_degree() >= e for e in DEGREE_EDGES)
            if b < len(want) and len(got[b]) < want[b]:
                got[b].append((label, f))
        groups.extend(got)
    return interleave(groups, rng)


# categories of hyperplane inputs and their shares of 16: a quarter from the
# constructed rectifiable family, the rest over Q, F5, F7 in the 2:1:1
# proportion of the randomized report-consistency test
HYPERPLANE_MIX = (("constructed", 4), ("Q", 6), ("F5", 3), ("F7", 3))


def hyperplane_input(category, factors, tame_f, rng):
    """One (label, a, F, constructed, quadratics) input for ``analyze``.

    The constructed family is a = X^m (X-1)^n, F = f0 + X*(f1 - f0) with f0,
    f1 tame coordinates over Q, whose known answer is Rectifiable.  Otherwise
    a is a product of ``factors`` linear or quadratic factors and F is a
    small tame coordinate plus X*(random) when ``tame_f``, else a random
    polynomial.  ``quadratics`` holds each c of a factor X^2 + c of a.
    """
    if category == "constructed":
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        aX = MultiPoly.variable(QQ, ("X",), "X")
        X = MultiPoly.variable(QQ, XZT, "X")
        f0 = random_coordinate(QQ, rng, deg_cap=8, max_len=3, max_shift_deg=2).with_vars(XZT)
        f1 = random_coordinate(QQ, rng, deg_cap=8, max_len=3, max_shift_deg=2).with_vars(XZT)
        return "Q", aX**m * (aX - 1) ** n, f0 + X * (f1 - f0), True, ()
    field = QQ if category == "Q" else GF(int(category[1:]))
    aX = MultiPoly.variable(field, ("X",), "X")
    while True:
        a = MultiPoly.one(field, ("X",))
        quadratics = set()
        for _ in range(factors):
            if rng.random() < 0.5:
                a = a * (aX - field.from_int(rng.randint(-2, 2))) ** rng.randint(1, 2)
            else:
                c = rng.choice([1, 2, -2])
                a = a * (aX * aX + field.from_int(c))
                quadratics.add(c)
        if tame_f:
            f0 = random_coordinate(field, rng, deg_cap=6, max_len=2, max_shift_deg=2)
            F = f0.with_vars(XZT) + MultiPoly.variable(field, XZT, "X") * random_poly(
                field, XZT, rng, max_deg=1, n_terms=2
            )
        else:
            F = random_poly(field, XZT, rng, max_deg=2, n_terms=4)
        if not F.is_zero():
            return category, a, F, False, tuple(sorted(quadratics))


def univariate_at_quadratic_root(F, quadratics):
    """Whether some X^2 + c of ``quadratics``, irreducible over the field of
    F, has a root g at which F(g, Z, T) is free of Z or of T and of degree
    at least 2: a univariate polynomial that is not a coordinate.

    Written without rect4's extension fields: F(g, Z, T) = A + g*B, where A
    and B collect the terms of F with X^i replaced by (-c)^(i//2) for even
    and odd i, and a monomial in Z, T survives iff its A or B part does.
    """
    field = F.field
    p = field.characteristic()
    ix, iz, it = (F.vars.index(v) for v in XZT)
    for c in quadratics:
        if p:
            if pow(-c % p, (p - 1) // 2, p) == 1:
                continue  # -c is a nonzero square mod p: X^2 + c splits
        elif -c >= 0 and math.isqrt(-c) ** 2 == -c:
            continue
        m = field.from_int(-c)
        parts = {}
        for e, coeff in F.terms.items():
            i = e[ix]
            for _ in range(i // 2):
                coeff = coeff * m
            ab = parts.setdefault((e[iz], e[it]), [field.zero(), field.zero()])
            ab[i % 2] = ab[i % 2] + coeff
        zt = [k for k, (x, y) in parts.items() if not (x.is_zero() and y.is_zero())]
        if zt and max(z + t for z, t in zt) >= 2 and (
            all(z == 0 for z, _ in zt) or all(t == 0 for _, t in zt)
        ):
            return True
    return False


def hyperplane_inputs(rng, count):
    """``count`` inputs in the HYPERPLANE_MIX shares, interleaved.

    Outside the constructed family, the number of factors of a (1 to 3) and
    the two kinds of F, uniform choices of the randomized test, get exactly
    equal shares: the number of factors sets the degree of a, the main cost.
    """
    groups = []
    for category, share in HYPERPLANE_MIX:
        n = share * count // 16
        if category == "constructed":
            groups.append([(category, 0, False)] * n)
            continue
        for factors in (1, 2, 3):
            for tame_f in (True, False):
                groups.append([(category, factors, tame_f)] * (n // 6))
    return [hyperplane_input(*spec, rng) for spec in interleave(groups, rng)]


def seeded(seed, stream):
    """Independent generator for one input stream of a workload seed."""
    return random.Random(f"{seed}:{stream}")
