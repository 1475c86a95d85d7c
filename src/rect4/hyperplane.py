"""Structural analysis of hypersurfaces G = a(X)Y - F(X,Z,T).

Pipeline: domain check, normalization of F modulo a, per-irreducible-factor
root data (residue field and specialization), one plane-coordinate test per
root, then the structural criteria (unique factorization, plane fibration
over k[x], regularity) and the rectifiability verdict.  Reports carry
citation tags: stable identifiers of the decision rules used, so a consumer
can see which equivalence produced a verdict.

Each criterion reads the root's coordinate outcome first: the
:class:`~rect4.plane_coordinates.CoordinateOutcome` that ``vartest``
returns, kept as is in ``AnalysisReport.coordinates``.  An accepted f is a
line.  An f certified over K, or over the purely inseparable L the test may
adjoin, is irreducible, and its partner g gives Jac(f, g) = c != 0, so
(f_Z, f_T) = (1) over L, hence over K (L[Z,T] is free over K[Z,T]).  Only
uncertified roots reach the Kronecker and Groebner tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .fields import ExtensionField, fresh_generator_name
from .polynomials import (
    MultiPoly,
    bivariate_irreducible,
    divmod_in_variable,
    gcd_fold,
    ideal_contains_one,
    univariate_factor,
)
from .plane_coordinates import CoordinateOutcome, complement, vartest

# citation tags used in reports
RULE_DOMAIN_GCD = "gcd"
RULE_DOMAIN_BASECHANGE = "rnew"
RULE_UFD = "ufd"
RULE_FIBRATION = "fib"
RULE_REGULARITY = "reg"
RULE_CHAR0 = "ch0"
RULE_NO_SIMPLE_ROOT = "chp2"
RULE_SEPARABLE_MULTIPLE = "chp3"
RULE_COORDINATES_GIVE_SYSTEM = "G"
RULE_FIBER_COORDINATES = "corG"
RULE_BASE_EXTENDS = "k[x]"
RULE_LINE_EQ_COORDINATE_CHAR0 = "ams"
RULE_SEPARABLE_DESCENT = "sepco"
RULE_LINEAR_FIBER = "linear"

# per-root values of the fibration flag
LINE = "line"
NOT_LINE = "not-line"
UNKNOWN_LINE = "unknown"

VERDICT_RECTIFIABLE = "Rectifiable"
VERDICT_NOT_RECTIFIABLE = "NotRectifiable"
VERDICT_INCONCLUSIVE = "Inconclusive"

_XVARS = ("X", "Z", "T")


class HyperplaneError(Exception):
    pass


@dataclass
class Hyperplane:
    """The pair (a, F) defining a(X)Y - F(X,Z,T) over a base field.

    ``a`` is univariate in X of degree >= 1; ``F`` lives in the variables
    (X, Z, T).  ``original_F`` keeps the input polynomial: the regularity
    test differentiates the pre-normalization F with respect to X.
    """

    a: MultiPoly
    F: MultiPoly
    normalized: bool = False
    original_F: MultiPoly = None

    def __post_init__(self):
        if self.a.degree_in("X") < 1:
            raise HyperplaneError("a(X) must have degree at least 1 in X")
        for v in self.a.vars:
            if v != "X" and self.a.involves(v):
                raise HyperplaneError("a must be univariate in X")
        for v in self.F.vars:
            if v not in _XVARS and self.F.involves(v):
                raise HyperplaneError("F may involve only X, Z and T")
        if self.original_F is None:
            self.original_F = self.F

    @property
    def field(self):
        return self.F.field

    def defining_polynomial(self):
        vars4 = ("X", "Y", "Z", "T")
        Y = MultiPoly.variable(self.field, vars4, "Y")
        return self.a.with_vars(vars4) * Y - self.F.with_vars(vars4)


@dataclass
class RootDatum:
    """One irreducible factor p of a with its residue-field specialization."""

    factor: MultiPoly  # monic irreducible over the base field
    multiplicity: int
    residue_field: object
    specialization: MultiPoly  # F(lambda, Z, T) over residue_field, vars (Z,T)
    simple: bool  # multiplicity == 1
    separable: bool  # gcd(p, p') = 1

    @property
    def kbar_simple(self):
        """Simple as a root over the algebraic closure: multiplicity one and
        separable (equivalently a'(lambda) != 0)."""
        return self.simple and self.separable


@dataclass
class AnalysisReport:
    domain: bool
    domain_witness: MultiPoly = None
    ufd: str = "unknown"  # "true" | "false" | "unknown"
    fibration: str = "unknown"
    regular: str = "unknown"
    roots: list = dataclass_field(default_factory=list)
    coordinates: list = dataclass_field(default_factory=list)  # CoordinateOutcome per root
    lines: list = dataclass_field(default_factory=list)
    irreducibility: list = dataclass_field(default_factory=list)
    irreducible_reasons: list = dataclass_field(default_factory=list)
    verdict: str = None
    failing_root: int = None
    inconclusive_reason: str = None
    theorem_path: list = dataclass_field(default_factory=list)
    hypotheses: dict = dataclass_field(default_factory=dict)
    implied: dict = dataclass_field(default_factory=dict)
    factor_complete: bool = True


# ---------------------------------------------------------------------------
# normalization and domain check
# ---------------------------------------------------------------------------


def normalize(h):
    """Replace F by its remainder under X-division by a.

    Rectifiability, domain-ness and every residue-field specialization are
    unchanged: the difference is a multiple of a, which vanishes at each root.
    """
    if h.normalized and h.F.degree_in("X") < h.a.degree_in("X"):
        return h
    a3 = h.a.with_vars(h.F.vars)
    _, r = divmod_in_variable(h.F, a3, "X")
    return Hyperplane(h.a, r, normalized=True, original_F=h.original_F)


def domain_check(h):
    """(is_domain, witness): the quotient is a domain iff gcd(a, F) = 1.

    The gcd lives in k[X]: it is the :func:`gcd_fold` of a and the
    X-polynomial coefficients of ``F.coefficients(("Z", "T"))``, smallest
    degree first, stopping at the first constant gcd: the fold that
    ``content_free_part`` runs.  Deciding the gcd over the base field settles
    it over the algebraic closure as well.
    """
    coeffs = h.F.coefficients(("Z", "T")).values()
    g = gcd_fold([h.a.with_vars(h.F.vars), *coeffs], "X")
    if g.is_constant():
        return True, None
    return False, g


# ---------------------------------------------------------------------------
# root data
# ---------------------------------------------------------------------------


def root_data(h, rng=None):
    """One datum per irreducible factor of a; requires a normalized domain.

    Returns (data, complete): ``complete`` is False when the factorization of
    a over F_p(s) could not be finished; analysis then proceeds on the known
    factors only.
    """
    fact = univariate_factor(h.a, rng=rng)
    data = []
    field = h.field
    for p, mult in fact.factors:
        # p is irreducible, so gcd(p, p') = 1 unless p' = 0
        sep = not p.partial_derivative("X").is_zero()
        if p.degree_in("X") == 1:
            K = field
        elif isinstance(field, ExtensionField):
            raise HyperplaneError("base field may not already be an extension")
        else:
            gen = fresh_generator_name(field, "g" if field.characteristic() == 0 else "b")
            K = ExtensionField(field, p.to_dense("X"), gen)
        spec = _at_root(h.F, p, K)
        if spec.is_zero():
            raise HyperplaneError(
                "specialization vanished: the domain check must run first"
            )
        data.append(
            RootDatum(
                factor=p,
                multiplicity=mult,
                residue_field=K,
                specialization=spec,
                simple=(mult == 1),
                separable=sep,
            )
        )
    return data, fact.complete


def _at_root(poly, p, K):
    """poly(lambda, Z, T) in K[Z,T] for a base-field poly in (X, Z, T), where
    lambda is the root of the monic factor p that generates K."""
    lam = -p.constant_term() if K == poly.field else K.generator()
    return poly.substitute({"X": lam}).with_vars(("Z", "T"))


# ---------------------------------------------------------------------------
# structural criteria
# ---------------------------------------------------------------------------


def coordinate_results(data):
    """The :func:`vartest` outcome of every specialization; a constant one is
    a unit."""
    return [
        CoordinateOutcome("reject", reason="specialization is a unit")
        if rd.specialization.is_constant()
        else vartest(rd.specialization)
        for rd in data
    ]


def ufd_check(data, coords, degree_bound=None):
    """"true" iff every specialization is irreducible or a nonzero constant.

    A certified root is irreducible (irreducibility descends from any field
    extension), so only the others reach the Kronecker machinery.  Returns
    the flag, the per-root verdicts and the per-root reasons (the cause of an
    "unknown" verdict, else None).
    """
    verdicts, reasons = [], []
    for rd, cr in zip(data, coords):
        f = rd.specialization
        reason = None
        if f.is_constant() or cr.certified:
            verdict = "true"  # a nonzero constant is a unit
        else:
            kwargs = {} if degree_bound is None else {"bound": degree_bound}
            res = bivariate_irreducible(f, "Z", "T", **kwargs)
            if res.is_irreducible:
                verdict = "true"
            elif res.is_reducible:
                verdict = "false"
            else:
                verdict, reason = "unknown", res.reason
        verdicts.append(verdict)
        reasons.append(reason)
    if "false" in verdicts:
        return "false", verdicts, reasons
    if "unknown" in verdicts:
        return "unknown", verdicts, reasons
    return "true", verdicts, reasons


def fibration_check(data, coords):
    """"true" iff every specialization is a line in its residue plane.

    A coordinate is a line and a unit is not.  In characteristic zero a line
    is a coordinate (Abhyankar-Moh-Suzuki), so a rejection is not a line; in
    characteristic p a rejected f may still be a line, which is unknown.
    """
    lines = []
    for rd, cr in zip(data, coords):
        if rd.specialization.is_constant():
            lines.append(NOT_LINE)
        elif cr.accepted:
            lines.append(LINE)
        elif rd.residue_field.characteristic() == 0:
            lines.append(NOT_LINE)
        else:
            lines.append(UNKNOWN_LINE)
    if NOT_LINE in lines:
        return "false", lines
    if UNKNOWN_LINE in lines:
        return "unknown", lines
    return "true", lines


def regularity_check(h, data, coords):
    """Jacobian smoothness test, root by root.

    Simple roots over the closure need (f, f_Z, f_T) = (1); multiple or
    inseparable ones add the X-derivative of the original, pre-normalization
    F.  A certified root already has (f_Z, f_T) = (1); the others get a
    Groebner unit-ideal test.  Returns ("true"/"false", per-root booleans).
    """
    FX = h.original_F.partial_derivative("X")
    per_root = []
    for rd, cr in zip(data, coords):
        if cr.certified:
            per_root.append(True)
            continue
        f = rd.specialization
        gens = [f, f.partial_derivative("Z"), f.partial_derivative("T")]
        if not rd.kbar_simple:
            gens.append(_at_root(FX, rd.factor, rd.residue_field))
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            per_root.append(False)
            continue
        per_root.append(ideal_contains_one(gens))
    return ("true" if all(per_root) else "false"), per_root


# ---------------------------------------------------------------------------
# the verdict
# ---------------------------------------------------------------------------


def analyze(h, degree_bound=None, rng=None):
    """Full analysis: domain, structure flags, coordinate data and verdict."""
    is_domain, witness = domain_check(h)
    if not is_domain:
        report = AnalysisReport(domain=False, domain_witness=witness)
        report.theorem_path = [RULE_DOMAIN_GCD, RULE_DOMAIN_BASECHANGE]
        return report

    hn = normalize(h)
    data, complete = root_data(hn, rng=rng)
    report = AnalysisReport(domain=True)
    report.factor_complete = complete
    report.roots = data
    report.theorem_path.extend([RULE_DOMAIN_GCD, RULE_DOMAIN_BASECHANGE])

    coords = coordinate_results(data)
    report.coordinates = coords
    report.ufd, report.irreducibility, report.irreducible_reasons = ufd_check(
        data, coords, degree_bound=degree_bound
    )
    report.theorem_path.append(RULE_UFD)
    report.fibration, report.lines = fibration_check(data, coords)
    report.theorem_path.append(RULE_FIBRATION)
    char = hn.field.characteristic()
    if char == 0:
        report.theorem_path.append(RULE_LINE_EQ_COORDINATE_CHAR0)
    report.regular, _ = regularity_check(hn, data, coords)
    report.theorem_path.append(RULE_REGULARITY)

    if not complete:
        report.verdict = VERDICT_INCONCLUSIVE
        report.inconclusive_reason = (
            "the factorization of a(X) could not be completed over this field"
        )
        return report

    if all(c.accepted for c in coords):
        # the referee re-checks every certificate; a refused one raises
        for rd, c in zip(data, coords):
            complement(rd.specialization, c.certificate)
        report.verdict = VERDICT_RECTIFIABLE
        report.theorem_path.extend(
            [
                RULE_COORDINATES_GIVE_SYSTEM,
                RULE_FIBER_COORDINATES,
                RULE_BASE_EXTENDS,
            ]
        )
        report.hypotheses["every_specialization_is_residue_coordinate"] = True
        report.implied = {
            "polynomial_ring_over_base": "true (implied)",
            "polynomial_ring_over_kx": "true (implied)",
            "makar_limanov_trivial": "true (implied)",
            "derksen_full": "true (implied)",
        }
        _assert_cross_consistency(report)
        return report

    # some specialization is not a coordinate of its residue plane
    report.failing_root = next(i for i, c in enumerate(coords) if not c.accepted)
    if char == 0:
        rules = [RULE_CHAR0]
        hypotheses = {"characteristic_zero": True, "some_specialization_not_coordinate": True}
    elif all(not rd.kbar_simple for rd in data):
        rules = [RULE_NO_SIMPLE_ROOT]
        hypotheses = {"no_simple_root_over_closure": True, "some_specialization_not_coordinate": True}
    elif (
        # the normalized presentation differs from the input by an ambient
        # substitution Y -> Y + q, so X-freeness may be read off after reduction
        not hn.F.involves("X")
        and any(rd.multiplicity > 1 and rd.separable for rd in data)
        and not vartest(hn.F.with_vars(("Z", "T"))).accepted
    ):
        rules = [RULE_SEPARABLE_MULTIPLE, RULE_SEPARABLE_DESCENT]
        hypotheses = {
            "F_free_of_X": True,
            "separable_multiple_root_exists": True,
            "base_field_test_rejects": True,
        }
    else:
        report.verdict = VERDICT_INCONCLUSIVE
        report.inconclusive_reason = (
            "positive characteristic with a simple separable root: the known "
            "equivalences do not decide this configuration"
        )
        return report
    report.verdict = VERDICT_NOT_RECTIFIABLE
    report.theorem_path.extend(rules)
    report.hypotheses.update(hypotheses)
    report.implied = {
        "polynomial_ring_over_base": "false (implied)",
        "polynomial_ring_over_kx": "false (implied)",
        "coordinate_pair_with_x": "false (implied)",
    }
    return report


def _assert_cross_consistency(report):
    if report.verdict != VERDICT_RECTIFIABLE:
        return
    if report.fibration not in ("true",):
        raise HyperplaneError(
            "internal inconsistency: rectifiable but the fibration flag is "
            f"{report.fibration}"
        )
    if report.ufd not in ("true",):
        raise HyperplaneError(
            "internal inconsistency: rectifiable but the factoriality flag is "
            f"{report.ufd}"
        )
