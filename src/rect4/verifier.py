"""Certification of claimed coordinate systems by tag-variable elimination.

Given claimed coordinates H_1..H_n of K[X_1..X_n], adjoin fresh tag variables
U_j and compute the reduced Groebner basis of (U_j - H_j) under an
elimination order with the original variables ranked above the tags.  The
claim holds exactly when every X_i has a tag-only normal form, the inverse
expression.  By the Shannon-Sweedler criterion (Shannon and Sweedler,
*J. Symbolic Comput.* 6, 1988; van den Essen, *Polynomial Automorphisms*,
2000, section 3.2) that holds exactly when the reduced basis has, for each i,
an element X_i - G_i(U) with G_i tag-only; G_i is then the normal form of
X_i, so the inverses are read off the basis instead of reduced again.  This
module is the independent referee for every certificate the rest of the
system produces.

A plane pair (f, g) is decided by elimination only when no closed form
decides it.  :func:`verify_plane_pair` has three exact routes before
Buchberger, each an "iff", so every verdict is the one elimination gives:

* an affine pair: (Z, T) -> (f, g) is invertible exactly when the 2x2
  determinant of the linear parts is nonzero;
* an elementary member b = c*v + h(w), with c in K*, {v, w} = {Z, T} and h in
  K[w]: sigma: v -> (v - h(w))/c is an automorphism with b o sigma = v, so
  K[f, g] = K[Z, T] exactly when K[v, a o sigma] = K[v][w] for the other
  member a.  A K[v]-variable of K[v][w] has w-degree 1 with a unit leading
  coefficient (degrees in w multiply under composition over the domain
  K[v]), so this holds exactly when a o sigma = alpha*w + k(v) with alpha in
  K*, a scan of its exponents (van den Essen, *Polynomial Automorphisms*,
  2000, section 5.1);
* one shear: a member of degree d >= 2 with a Z^d term, d != 0 in K, whose
  leading form may be c*(Z + rho*T)^d; rho is read off its Z^(d-1)*T term,
  Z -> Z - rho*T is applied to both members and the elementary test runs
  once more.  rho only picks the automorphism: a wrong guess decides
  nothing and the pair goes to Buchberger.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polynomials import MonomialOrder, MultiPoly, groebner_basis


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
    """Accept iff K[H_1..H_n] = K[X_1..X_n]; inverses accompany acceptance.

    Each generator U_j - H_j is built in one pass over the raw terms of H_j.
    The inverse of X_i is X_i - b for the basis element b whose leading
    monomial is X_i (the Shannon-Sweedler criterion, see the module
    docstring); the first X_i with no such b, or whose X_i - b involves an
    original variable, is the witness of a rejection.
    """
    n = len(claim.variables)
    field = claim.field
    tags = tuple(f"{_TAG_PREFIX}{i+1}" for i in range(n))
    for t in tags:
        if t in claim.variables:
            raise VerifierError(f"ambient variable {t!r} collides with tag names")
    allvars = claim.variables + tags
    order = MonomialOrder("elimination", split=n)
    one, neg = field.raw_one(), field.raw_neg
    pad = (0,) * n

    gens = []
    for j, h in enumerate(claim.polynomials):
        terms = {pad + pad[:j] + (1,) + pad[j + 1 :]: one}
        for e, c in h.terms.items():
            terms[e + pad] = neg(c)
        gens.append(MultiPoly(field, allvars, terms))
    basis = groebner_basis(gens, order)

    by_lead = {b.leading_monomial(order): b for b in basis}
    inverses = {}
    for i, name in enumerate(claim.variables):
        x = pad[:i] + (1,) + pad[i + 1 :] + pad
        b = by_lead.get(x)
        if b is None:
            return VerifyOutcome(False, witness=name)
        inverse = {e: neg(c) for e, c in b.terms.items() if e != x}
        if any(any(e[:n]) for e in inverse):
            return VerifyOutcome(False, witness=name)
        inverses[name] = MultiPoly(field, allvars, inverse)
    return VerifyOutcome(True, inverses=inverses)


def verify_plane_pair(f, g):
    """Specialization to n = 2: is (f, g) a coordinate system of K[Z, T]?

    The two variables are the ones f and g use, padded from ``f.vars`` when
    they use fewer.  Three routes decide without elimination (see the module
    docstring): when f and g both have total degree 1, the determinant of
    their linear parts; when a member is elementary, c*v + h(w), whether the
    other member, composed with the automorphism that takes that member to
    v, is a K[v]-variable alpha*w + k(v); and the same test once more after
    the shear read off a leading form.  Every other pair goes to
    :func:`verify_coordinate_system`.
    """
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
    f, g = claim.polynomials
    if f.total_degree() == 1 and g.total_degree() == 1:
        field, zero = claim.field, claim.field.raw_zero()
        f1, f2 = (f.terms.get(e, zero) for e in _UNITS)
        g1, g2 = (g.terms.get(e, zero) for e in _UNITS)
        return not field.raw_is_zero(field.raw_sub(field.raw_mul(f1, g2), field.raw_mul(f2, g1)))
    verdict = _elementary_verdict(f, g)
    if verdict is None:
        sheared = _shear(f, g)
        if sheared is not None:
            verdict = _elementary_verdict(*sheared)
    if verdict is not None:
        return verdict
    return verify_coordinate_system(claim).accepted


# exponents of the two plane variables x_0, x_1
_UNITS = ((1, 0), (0, 1))


def _elementary(p, i):
    """The coefficient c when p = c*x_i + h(x_j), with c in K* and h in
    K[x_j] for the other variable x_j; otherwise None."""
    unit = _UNITS[i]
    c = p.terms.get(unit)
    if c is not None and all(e[i] == 0 or e == unit for e in p.terms):
        return c
    return None


def _straighten(a, b, i, c):
    """a o sigma for sigma: x_i -> (x_i - h(x_j))/c, where b = c*x_i + h(x_j)
    and so b o sigma = x_i."""
    field = a.field
    inv = field.raw_inv(c)
    unit, scale = _UNITS[i], field.raw_neg(inv)
    image = [(e, inv if e == unit else field.raw_mul(scale, cf)) for e, cf in b.terms.items()]
    return a.substitute_terms([(a.vars[i], image)])


def _elementary_verdict(f, g):
    """Whether K[f, g] = K[x_0, x_1] when f or g is elementary, else None:
    for b = c*x_i + h(x_j), whether the other member a makes a o sigma of
    :func:`_straighten` a K[x_i]-variable alpha*x_j + k(x_i) (see the module
    docstring)."""
    for b, a in ((f, g), (g, f)):
        for i in (0, 1):
            c = _elementary(b, i)
            if c is not None:
                return _elementary(_straighten(a, b, i, c), 1 - i) is not None
    return None


def _shear(f, g):
    """(f, g) o (x_0 -> x_0 - rho*x_1), or None when no shear is read.

    rho is read off the first member b of total degree d >= 2 that has an
    x_0^d term and d != 0 in K: coef(x_0^(d-1)*x_1) / (d*coef(x_0^d)), so
    that a leading form c*(x_0 + rho*x_1)^d becomes c*x_0^d.  rho only picks
    the automorphism to try: a wrong guess leaves both members
    non-elementary and the pair goes to Buchberger.
    """
    field = f.field
    for b in (f, g):
        d = b.total_degree()
        top, n = b.terms.get((d, 0)), field.raw_from_int(d)
        if d < 2 or top is None or field.raw_is_zero(n):
            continue
        rho = b.terms.get((d - 1, 1))
        if rho is None:
            return None
        rho = field.raw_div(rho, field.raw_mul(n, top))
        image = [(_UNITS[0], field.raw_one()), (_UNITS[1], field.raw_neg(rho))]
        return tuple(p.substitute_terms([(p.vars[0], image)]) for p in (f, g))
    return None


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
