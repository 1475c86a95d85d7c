"""Buchberger's algorithm with the coprimality and chain criteria.

Produces reduced (monic, auto-reduced) bases; :func:`ideal_contains_one`
reads the unit ideal off the basis.  :func:`normal_form`, the remainder
under a basis, has no caller in the package: the test suite and the
benchmark's tracer use it.  Default order is graded reverse lexicographic;
elimination uses a block order.

:func:`groebner_basis` enters the generators in ascending order of their
leading monomials, so each one is reduced by the smaller ones before it makes
pairs: in the referee's ideal (U1 - f, U2 - g) the complement g usually has
the smaller lead and reduces U1 - f, and in a Jacobian ideal (f, f_Z, f_T)
the derivatives reduce f.  Pending pairs wait in a heap keyed by the order
key of their lcm, computed once when the pair is made (normal selection: the
smallest lcm first), next to the set of live pairs that the chain criterion
reads.  Each basis element is only top-reduced when it enters
(``heap_divide(..., top=True)``), since Buchberger needs its leading
monomial irreducible, not its tail.  The top-reduced remainder comes with its
leading monomial first, so one pass over it tests for a nonzero constant,
makes it monic and puts it in the form that
:func:`~rect4.polynomials.multipoly.heap_divide` reads.  Every later
reduction runs on those prepared forms, and so does the final
interreduction, the one place where tails are reduced.  A reduction that
leaves a nonzero constant ends the computation at once: the ideal then
contains a unit, so it is the whole ring, whose reduced basis is ``[1]``
whatever the other pairs would add.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import add, le, sub

from .multipoly import GREVLEX, MultiPoly, PolynomialError, add_multiple, heap_divide, prepare_divisor


def _lcm(e1, e2):
    return tuple(map(max, e1, e2))


def _divides_exp(e1, e2):
    return all(map(le, e1, e2))


def normal_form(f, basis, order=GREVLEX):
    """Remainder of f under multivariate division by the (ordered) basis.

    Each step takes the largest monomial left and reduces it by the first
    basis element whose leading monomial divides it, or moves it to the
    remainder (:func:`~rect4.polynomials.multipoly.heap_divide`).
    """
    if not basis:
        return f
    key = order.descending_key
    for g in basis:
        f._check_compatible(g)
    _, rem = heap_divide(f, [prepare_divisor(g, key) for g in basis], key)
    return MultiPoly._trusted(f.field, f.vars, rem)


def s_polynomial(f, g, order=GREVLEX):
    f._check_compatible(g)
    field = f.field
    fe, ge = f.leading_monomial(order), g.leading_monomial(order)
    lcm = _lcm(fe, ge)
    out = {}
    add_multiple(
        field, out, f.terms.items(), tuple(map(sub, lcm, fe)),
        field.raw_inv(f.terms[fe]),
    )
    add_multiple(
        field, out, g.terms.items(), tuple(map(sub, lcm, ge)),
        field.raw_neg(field.raw_inv(g.terms[ge])),
    )
    return MultiPoly._trusted(field, f.vars, out)


def groebner_basis(generators, order=GREVLEX):
    """Reduced Groebner basis of the ideal generated by ``generators``."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise PolynomialError("empty or zero generator list")
    for g in gens:
        g._check_compatible(gens[0])
    field, vars = gens[0].field, gens[0].vars
    key = order.descending_key
    one, inv, mul, neg = field.raw_one(), field.raw_inv, field.raw_mul, field.raw_neg
    basis, prepared, leads = [], [], []
    queue, live = [], set()  # pending pairs: (order key of lcm, i, j, lcm), (i, j)

    def enter(f):
        """Top-reduce f by the basis and append a nonzero remainder, monic,
        with its pairs; True when the remainder is a nonzero constant.

        Only the leading monomial is reduced: the tail stays as the division
        left it until the final interreduction.  A top-reduced remainder is a
        nonzero constant exactly when the full remainder is one, since both
        share the first monomial that no basis lead divides.  That monomial
        is the remainder's first key, so one pass over the rest makes it
        monic and builds its prepared divisor."""
        _, rem = heap_divide(f, prepared, key, top=True)
        if not rem:
            return False
        terms = iter(rem.items())
        lead, lc = next(terms)
        if not any(lead):
            return True  # the lead is 1, the smallest monomial
        scale = None if lc == one else inv(lc)
        monic, tail = {lead: one}, []
        for e, c in terms:
            if scale is not None:
                c = mul(c, scale)
            monic[e] = c
            tail.append((e, neg(c)))
        new = len(basis)
        basis.append(MultiPoly._trusted(field, vars, monic))
        prepared.append((lead, None, tail))
        leads.append(lead)
        for k in range(new):
            lcm = _lcm(leads[k], leads[new])
            heappush(queue, (order.key(lcm), k, new, lcm))
            live.add((k, new))
        return False

    def chain_criterion(i, j, lcm_ij):
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if not _divides_exp(leads[k], lcm_ij):
                continue
            ik = (min(i, k), max(i, k))
            jk = (min(j, k), max(j, k))
            if ik not in live and jk not in live:
                return True
        return False

    # smallest lead first; the sort is stable, so equal leads keep their order
    for g in sorted(gens, key=lambda g: key(g.leading_monomial(order)), reverse=True):
        if enter(g):
            return [MultiPoly.one(field, vars)]
    while queue:
        _, i, j, lcm_ij = heappop(queue)
        live.discard((i, j))
        if lcm_ij == tuple(map(add, leads[i], leads[j])):
            continue  # coprime leading terms
        if chain_criterion(i, j, lcm_ij):
            continue
        if enter(s_polynomial(basis[i], basis[j], order)):
            return [MultiPoly.one(field, vars)]

    # minimalize: a divisor monomial is never larger in a monomial order, so
    # processing leads in ascending order and keeping the non-divisible ones
    # yields the minimal generating set
    keep = []
    for i in sorted(range(len(basis)), key=lambda i: order.key(leads[i])):
        if not any(_divides_exp(leads[j], leads[i]) for j in keep):
            keep.append(i)
    # interreduce, largest lead first: each remainder keeps its monic lead,
    # which no other lead of a minimal basis divides
    reduced = []
    for i in reversed(keep):
        _, rem = heap_divide(basis[i], [prepared[j] for j in keep if j != i], key)
        reduced.append(MultiPoly._trusted(field, vars, rem))
    return reduced


def ideal_contains_one(generators, order=GREVLEX):
    basis = groebner_basis(generators, order)
    return len(basis) == 1 and basis[0].is_constant()
