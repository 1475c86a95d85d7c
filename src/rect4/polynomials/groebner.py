"""Buchberger's algorithm with the coprimality and chain criteria.

Produces reduced (monic, auto-reduced) bases; ideal membership is decided by
:func:`normal_form`.  Default order is graded reverse lexicographic;
elimination uses a block order.
"""

from __future__ import annotations

from .multipoly import GREVLEX, MultiPoly, PolynomialError, add_multiple, heap_divide


def _lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _divides_exp(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def normal_form(f, basis, order=GREVLEX):
    """Remainder of f under multivariate division by the (ordered) basis.

    Each step takes the largest monomial left and reduces it by the first
    basis element whose leading monomial divides it, or moves it to the
    remainder (:func:`~rect4.polynomials.multipoly.heap_divide`).
    """
    if not basis:
        return f
    _, rem = heap_divide(f, basis, order.descending_key)
    return MultiPoly(f.field, f.vars, rem)


def s_polynomial(f, g, order=GREVLEX):
    f._check_compatible(g)
    field = f.field
    fe, ge = f.leading_monomial(order), g.leading_monomial(order)
    lcm = _lcm(fe, ge)
    out = {}
    add_multiple(
        field, out, f.terms.items(), tuple(a - b for a, b in zip(lcm, fe)),
        field.raw_inv(f.terms[fe]),
    )
    add_multiple(
        field, out, g.terms.items(), tuple(a - b for a, b in zip(lcm, ge)),
        field.raw_neg(field.raw_inv(g.terms[ge])),
    )
    return MultiPoly(field, f.vars, out)


def groebner_basis(generators, order=GREVLEX):
    """Reduced Groebner basis of the ideal generated by ``generators``."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise PolynomialError("empty or zero generator list")
    for g in gens:
        g._check_compatible(gens[0])
    basis = []
    for g in gens:
        r = normal_form(g, basis, order)
        if not r.is_zero():
            basis.append(r.monic(order))
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    leads = [g.leading_monomial(order) for g in basis]

    def chain_criterion(i, j):
        lcm_ij = _lcm(leads[i], leads[j])
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if not _divides_exp(leads[k], lcm_ij):
                continue
            ik = (min(i, k), max(i, k))
            jk = (min(j, k), max(j, k))
            if ik not in pairs and jk not in pairs:
                return True
        return False

    while pairs:
        # normal selection: smallest lcm in the order
        i, j = min(pairs, key=lambda ij: order.key(_lcm(leads[ij[0]], leads[ij[1]])))
        pairs.discard((i, j))
        lcm_ij = _lcm(leads[i], leads[j])
        if lcm_ij == tuple(a + b for a, b in zip(leads[i], leads[j])):
            continue  # coprime leading terms
        if chain_criterion(i, j):
            continue
        s = s_polynomial(basis[i], basis[j], order)
        r = normal_form(s, basis, order)
        if r.is_zero():
            continue
        r = r.monic(order)
        basis.append(r)
        leads.append(r.leading_monomial(order))
        new_idx = len(basis) - 1
        for k in range(new_idx):
            pairs.add((k, new_idx))

    # minimalize: a divisor monomial is never larger in a monomial order, so
    # processing leads in ascending order and keeping the non-divisible ones
    # yields the minimal generating set
    indices = sorted(range(len(basis)), key=lambda i: order.key(leads[i]))
    keep = []
    for i in indices:
        if not any(_divides_exp(leads[j], leads[i]) for j in keep):
            keep.append(i)
    minimal = [basis[i] for i in keep]
    # interreduce
    reduced = []
    for i, g in enumerate(minimal):
        others = [minimal[j] for j in range(len(minimal)) if j != i]
        r = normal_form(g, others, order)
        if not r.is_zero():
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)), reverse=True)
    return reduced


def ideal_contains_one(generators, order=GREVLEX):
    basis = groebner_basis(generators, order)
    return len(basis) == 1 and basis[0].is_constant()
