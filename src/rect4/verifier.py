"""Certification of claimed coordinate systems by tag-variable elimination.

Given claimed coordinates H_1..H_n of K[X_1..X_n], adjoin fresh tag variables
U_j, compute a Groebner basis of (U_j - H_j) under an elimination order with
the original variables ranked above the tags, and reduce each X_i.  The claim
holds exactly when every X_i has a tag-only normal form; those normal forms
are the inverse expressions.  This module is the independent referee for
every certificate the rest of the system produces.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dense
from .fields import RationalFunctionField
from .polynomials import MonomialOrder, MultiPoly, groebner_basis, normal_form


class VerifierError(Exception):
    pass


_TAG_PREFIX = "U"


@dataclass
class CoordinateClaim:
    """Ambient variables plus the claimed coordinate polynomials."""

    variables: tuple
    polynomials: list

    def __post_init__(self):
        self.variables = tuple(self.variables)
        if len(self.variables) < 1:
            raise VerifierError("claim needs at least one ambient variable")
        if len(self.polynomials) != len(self.variables):
            raise VerifierError(
                "number of claimed coordinates must match the ambient dimension"
            )
        fields = {p.field for p in self.polynomials}
        if len(fields) != 1:
            raise VerifierError("claimed coordinates live over different fields")
        for p in self.polynomials:
            if p.vars != self.variables:
                raise VerifierError(
                    "claimed coordinates must be written in the ambient variables"
                )

    @property
    def field(self):
        return self.polynomials[0].field


@dataclass
class VerifyOutcome:
    accepted: bool
    inverses: dict | None = None  # X_i name -> MultiPoly in tag variables
    witness: str | None = None  # unreachable variable on rejection

    def __bool__(self):
        return self.accepted


def verify_coordinate_system(claim):
    """Accept iff K[H_1..H_n] = K[X_1..X_n]; inverses accompany acceptance."""
    n = len(claim.variables)
    base_field = claim.field
    tags = tuple(f"{_TAG_PREFIX}{i+1}" for i in range(n))
    for t in tags:
        if t in claim.variables:
            raise VerifierError(f"ambient variable {t!r} collides with tag names")
    allvars = claim.variables + tags
    order = MonomialOrder("elimination", split=n)

    gens = []
    for j, h in enumerate(claim.polynomials):
        hh = h.with_vars(allvars)
        u = MultiPoly.variable(base_field, allvars, tags[j])
        gens.append(u - hh)
    gens = [_clear_denominators(g) for g in gens]
    basis = groebner_basis(gens, order)

    inverses = {}
    for name in claim.variables:
        x = MultiPoly.variable(base_field, allvars, name)
        nf = normal_form(x, basis, order)
        if any(nf.involves(v) for v in claim.variables):
            return VerifyOutcome(False, witness=name)
        inverses[name] = nf
    return VerifyOutcome(True, inverses=inverses)


def verify_plane_pair(f, g):
    """Specialization to n = 2: is (f, g) a coordinate system of K[Z, T]?"""
    if f.vars != g.vars:
        g = g.with_vars(f.vars)
    used = [v for v in f.vars if f.involves(v) or g.involves(v)]
    if len(used) > 2:
        raise VerifierError("plane pair involves more than two variables")
    pair_vars = tuple(v for v in f.vars if v in used)
    if len(pair_vars) < 2:
        # fewer than two variables actually used: pad with remaining names
        pad = [v for v in f.vars if v not in pair_vars]
        pair_vars = tuple(list(pair_vars) + pad[: 2 - len(pair_vars)])
    claim = CoordinateClaim(
        pair_vars,
        [f.with_vars(pair_vars), g.with_vars(pair_vars)],
    )
    return verify_coordinate_system(claim).accepted


def replay_inverses(claim, outcome):
    """Substitute the claimed polynomials into the inverse expressions and
    check each ambient variable is recovered exactly."""
    if not outcome.accepted:
        raise VerifierError("cannot replay a rejected claim")
    n = len(claim.variables)
    tags = tuple(f"{_TAG_PREFIX}{i+1}" for i in range(n))
    allvars = claim.variables + tags
    for name in claim.variables:
        expr = outcome.inverses[name]
        bound = expr.substitute(
            {tags[j]: claim.polynomials[j].with_vars(allvars) for j in range(n)}
        )
        if bound != MultiPoly.variable(claim.field, allvars, name):
            return False
    return True


def _clear_denominators(g):
    """Scale a generator by the lcm of its coefficient denominators over F_p(s).

    A unit scaling: the ideal is unchanged, but Buchberger then starts from
    polynomial-only coefficients, which keeps fraction growth down.
    """
    field = g.field
    if not isinstance(field, RationalFunctionField) or g.is_zero():
        return g
    base = field.base
    lcm = (1,)
    for c in g.terms.values():
        lcm = dense.lcm(base, lcm, c.rep[1])
    if lcm == (1,):
        return g
    return g.scale(field.element((lcm, (1,))))
