"""Sparse exact multivariate polynomials over a field descriptor.

A :class:`MultiPoly` stores a field, an ordered tuple of variable names and a
dict mapping exponent tuples to nonzero :class:`~rect4.fields.FieldElement`
coefficients.  Values are treated as immutable; all operations return new
polynomials.
"""

from __future__ import annotations

from .. import dense
from ..fields import Embedding, FieldElement, FieldMismatch


class PolynomialError(Exception):
    pass


class MonomialOrder:
    """Total order on exponent tuples compatible with multiplication.

    kind: "lex", "grevlex" or "elimination" (block order, first ``split``
    variables ranked strictly above the rest, graded-reverse-lex inside each
    block).
    """

    def __init__(self, kind, split=None):
        if kind not in ("lex", "grevlex", "elimination"):
            raise PolynomialError(f"unknown monomial order {kind!r}")
        if kind == "elimination" and (split is None or split < 1):
            raise PolynomialError("elimination order needs a positive split index")
        self.kind = kind
        self.split = split

    def key(self, expv):
        if self.kind == "lex":
            return expv
        if self.kind == "grevlex":
            return _grevlex_key(expv)
        head, tail = expv[: self.split], expv[self.split :]
        return (_grevlex_key(head), _grevlex_key(tail))

    def __repr__(self):
        if self.kind == "elimination":
            return f"MonomialOrder(elimination, split={self.split})"
        return f"MonomialOrder({self.kind})"


def _grevlex_key(expv):
    return (sum(expv), tuple(-e for e in reversed(expv)))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


class MultiPoly:
    __slots__ = ("field", "vars", "terms")

    def __init__(self, field, vars, terms):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "vars", tuple(vars))
        clean = {}
        for expv, c in terms.items():
            if len(expv) != len(self.vars):
                raise PolynomialError("exponent vector length mismatch")
            if not c.is_zero():
                clean[tuple(expv)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, field, vars):
        return cls(field, vars, {})

    @classmethod
    def constant(cls, field, vars, value):
        value = field.coerce(value)
        return cls(field, vars, {(0,) * len(vars): value})

    @classmethod
    def one(cls, field, vars):
        return cls.constant(field, vars, field.one())

    @classmethod
    def variable(cls, field, vars, name):
        vars = tuple(vars)
        if name not in vars:
            raise PolynomialError(f"unknown variable {name!r}")
        expv = tuple(1 if v == name else 0 for v in vars)
        return cls(field, vars, {expv: field.one()})

    @classmethod
    def from_terms(cls, field, vars, pairs):
        terms = {}
        for expv, c in pairs:
            c = field.coerce(c)
            expv = tuple(expv)
            if expv in terms:
                c = terms[expv] + c
            terms[expv] = c
        return cls(field, vars, terms)

    # -- basic queries --------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in expv) for expv in self.terms)

    def constant_term(self):
        zero = (0,) * len(self.vars)
        return self.terms.get(zero, self.field.zero())

    def constant_value(self):
        if not self.is_constant():
            raise PolynomialError("polynomial is not constant")
        return self.constant_term()

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var):
        if not self.terms:
            return -1
        i = self._var_index(var)
        return max(e[i] for e in self.terms)

    def _var_index(self, var):
        try:
            return self.vars.index(var)
        except ValueError:
            raise PolynomialError(f"unknown variable {var!r}") from None

    def coeff(self, expv):
        return self.terms.get(tuple(expv), self.field.zero())

    def involves(self, var):
        i = self._var_index(var)
        return any(e[i] for e in self.terms)

    def _check_compatible(self, other):
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")
        if self.vars != other.vars:
            raise PolynomialError("polynomials with different variable lists")

    # -- ring operations ------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        self._check_compatible(other)
        terms = dict(self.terms)
        for expv, c in other.terms.items():
            if expv in terms:
                s = terms[expv] + c
                if s.is_zero():
                    del terms[expv]
                else:
                    terms[expv] = s
            else:
                terms[expv] = c
        return MultiPoly(self.field, self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(
            self.field, self.vars, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_compatible(other)
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.field, self.vars)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                if e in out:
                    c = out[e] + c
                if c.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = c
        return MultiPoly(self.field, self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise PolynomialError("negative polynomial power")
        result = MultiPoly.one(self.field, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def scale(self, c):
        c = self.field.coerce(c)
        if c.is_zero():
            return MultiPoly.zero(self.field, self.vars)
        return MultiPoly(
            self.field, self.vars, {e: v * c for e, v in self.terms.items()}
        )

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, FieldElement)):
            return MultiPoly.constant(self.field, self.vars, other)
        raise TypeError(f"cannot combine MultiPoly with {other!r}")

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(self.field, self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.field.kind, self.vars, frozenset(self.terms.items()))
        )

    # -- leading data -----------------------------------------------------------
    def leading_term(self, order=GREVLEX):
        if not self.terms:
            raise PolynomialError("zero polynomial has no leading term")
        expv = max(self.terms, key=order.key)
        return expv, self.terms[expv]

    def leading_form(self):
        """Homogeneous component of maximal total degree."""
        d = self.total_degree()
        return MultiPoly(
            self.field,
            self.vars,
            {e: c for e, c in self.terms.items() if sum(e) == d},
        )

    def homogeneous_component(self, d, weights=None):
        if weights is None:
            weights = (1,) * len(self.vars)
        return MultiPoly(
            self.field,
            self.vars,
            {
                e: c
                for e, c in self.terms.items()
                if sum(w * x for w, x in zip(weights, e)) == d
            },
        )

    def weighted_degree(self, weights):
        if not self.terms:
            return -1
        return max(sum(w * x for w, x in zip(weights, e)) for e in self.terms)

    def monic(self, order=GREVLEX):
        if self.is_zero():
            return self
        _, lc = self.leading_term(order)
        return self.scale(lc.inv())

    # -- calculus / substitution ---------------------------------------------
    def partial_derivative(self, var):
        i = self._var_index(var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            factor = self.field.from_int(e[i])
            nc = c * factor
            if nc.is_zero():
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1 :]
            out[ne] = out[ne] + nc if ne in out else nc
        return MultiPoly(self.field, self.vars, out)

    def substitute(self, bindings):
        """Substitute variables by polynomials or field elements.

        Binding values may live in an extension of this polynomial's field;
        the result is promoted accordingly.  Unbound variables are unchanged.
        """
        if not bindings:
            return self
        target_field = self.field
        for v in bindings.values():
            f = v.field if isinstance(v, (MultiPoly, FieldElement)) else None
            if f is not None and f != target_field:
                target_field = _join_fields(target_field, f)
        poly = self
        if target_field != self.field:
            poly = poly.map_coefficients(_embedding_into(self.field, target_field), target_field)
        resolved = {}
        for name, value in bindings.items():
            poly._var_index(name)
            if isinstance(value, MultiPoly):
                if value.vars != poly.vars:
                    value = value.with_vars(poly.vars)
                if value.field != target_field:
                    value = value.map_coefficients(
                        _embedding_into(value.field, target_field), target_field
                    )
                resolved[name] = value
            else:
                if isinstance(value, int):
                    value = target_field.from_int(value)
                elif value.field != target_field:
                    value = _embedding_into(value.field, target_field)(value)
                resolved[name] = MultiPoly.constant(target_field, poly.vars, value)
        acc = MultiPoly.zero(target_field, poly.vars)
        powers = {name: {0: MultiPoly.one(target_field, poly.vars)} for name in resolved}

        def power_of(name, n):
            cache = powers[name]
            if n in cache:
                return cache[n]
            m = max(k for k in cache if k <= n)
            p = cache[m]
            while m < n:
                p = p * resolved[name]
                m += 1
                cache[m] = p
            return p

        idx = {name: poly.vars.index(name) for name in resolved}
        for e, c in poly.terms.items():
            term_exp = list(e)
            factor = MultiPoly.constant(target_field, poly.vars, c)
            for name, i in idx.items():
                if e[i]:
                    factor = factor * power_of(name, e[i])
                    term_exp[i] = 0
            mono = MultiPoly(
                target_field, poly.vars, {tuple(term_exp): target_field.one()}
            )
            acc = acc + factor * mono
        return acc

    def map_coefficients(self, func, new_field=None):
        field = new_field if new_field is not None else self.field
        out = {}
        for e, c in self.terms.items():
            nc = func(c)
            if not nc.is_zero():
                out[e] = nc
        return MultiPoly(field, self.vars, out)

    def with_vars(self, new_vars):
        """Reinterpret over a different variable tuple (superset or reorder)."""
        new_vars = tuple(new_vars)
        mapping = []
        for v in self.vars:
            if v not in new_vars:
                if self.involves(v):
                    raise PolynomialError(
                        f"cannot drop variable {v!r} that occurs in the polynomial"
                    )
                mapping.append(None)
            else:
                mapping.append(new_vars.index(v))
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_vars)
            for pos, exp in enumerate(e):
                if exp:
                    ne[mapping[pos]] = exp
            out[tuple(ne)] = c
        return MultiPoly(self.field, new_vars, out)

    # -- univariate views ---------------------------------------------------------
    def as_univariate(self, var):
        """Dense list of coefficient polynomials in the remaining variables."""
        i = self._var_index(var)
        deg = self.degree_in(var)
        buckets = [dict() for _ in range(deg + 1)] if deg >= 0 else []
        for e, c in self.terms.items():
            ne = e[:i] + (0,) + e[i + 1 :]
            buckets[e[i]][ne] = c
        return [MultiPoly(self.field, self.vars, b) for b in buckets]

    def to_dense(self, var=None):
        """Dense FieldElement coefficient list for a univariate polynomial."""
        used = [v for v in self.vars if self.involves(v)]
        if var is None:
            if len(used) > 1:
                raise PolynomialError("polynomial is not univariate")
            var = used[0] if used else self.vars[0]
        elif any(u != var for u in used):
            raise PolynomialError(f"polynomial involves variables besides {var!r}")
        i = self._var_index(var)
        deg = self.degree_in(var)
        out = [self.field.zero()] * (deg + 1) if deg >= 0 else []
        for e, c in self.terms.items():
            out[e[i]] = c
        return out

    @classmethod
    def from_dense(cls, field, vars, var, coeffs):
        vars = tuple(vars)
        i = vars.index(var)
        terms = {}
        for k, c in enumerate(coeffs):
            c = field.coerce(c)
            if c.is_zero():
                continue
            e = [0] * len(vars)
            e[i] = k
            terms[tuple(e)] = c
        return cls(field, vars, terms)

    def evaluate(self, assignment):
        """Full evaluation to a FieldElement (all occurring variables bound)."""
        result = self.substitute(assignment)
        return result.constant_value()

    # -- printing ---------------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: GREVLEX.key(kv[0]), reverse=True)
        parts = []
        for e, c in items:
            factors = []
            for v, k in zip(self.vars, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            cs = str(c)
            need_parens = any(ch in cs[1:] for ch in "+-") or "/" in cs
            if not factors:
                parts.append(f"({cs})" if need_parens and not cs.startswith("(") else cs)
                continue
            mono = "*".join(factors)
            if c.is_one():
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                if need_parens and not (cs.startswith("(") and cs.endswith(")")):
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}")
        text = parts[0]
        for p in parts[1:]:
            text += p if p.startswith("-") else "+" + p
        return text

    def __repr__(self):
        return f"MultiPoly({self})"


def _join_fields(f1, f2):
    """The larger of two fields when one embeds canonically in the other."""
    if f1 == f2:
        return f1
    from ..fields import ExtensionField

    if isinstance(f2, ExtensionField) and f2.base == f1:
        return f2
    if isinstance(f1, ExtensionField) and f1.base == f2:
        return f1
    raise FieldMismatch(f"no canonical common field for {f1} and {f2}")


def _embedding_into(src, dst):
    if src == dst:
        return lambda c: c
    return Embedding(src, dst)


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------


def exact_divide(f, g):
    """Quotient f/g when g divides f exactly; raises otherwise."""
    f._check_compatible(g)
    if g.is_zero():
        raise PolynomialError("division by the zero polynomial")
    quo = MultiPoly.zero(f.field, f.vars)
    rem = f
    ge, gc = g.leading_term(GREVLEX)
    while not rem.is_zero():
        re, rc = rem.leading_term(GREVLEX)
        diff = tuple(a - b for a, b in zip(re, ge))
        if any(d < 0 for d in diff):
            raise PolynomialError("polynomial is not exactly divisible")
        t = MultiPoly(f.field, f.vars, {diff: rc / gc})
        quo = quo + t
        rem = rem - t * g
    return quo


def divides(g, f):
    try:
        exact_divide(f, g)
        return True
    except PolynomialError:
        return False


def divmod_in_variable(f, g, var):
    """Division with remainder of f by g along one variable.

    The divisor must have an invertible (constant) leading coefficient in
    ``var``.  Returns (q, r) with deg_var r < deg_var g.
    """
    f._check_compatible(g)
    dg = g.degree_in(var)
    if dg < 0:
        raise PolynomialError("division by the zero polynomial")
    g_coeffs = g.as_univariate(var)
    lc = g_coeffs[-1]
    if not lc.is_constant():
        raise PolynomialError(
            f"divisor's leading coefficient in {var!r} is not invertible"
        )
    lc_inv = lc.constant_value().inv()
    i = f._var_index(var)
    q = MultiPoly.zero(f.field, f.vars)
    r = f
    while not r.is_zero() and r.degree_in(var) >= dg:
        dr = r.degree_in(var)
        r_top = [
            (e[:i] + (dr - dg,) + e[i + 1 :], c)
            for e, c in r.terms.items()
            if e[i] == dr
        ]
        t = MultiPoly.from_terms(f.field, f.vars, r_top).scale(lc_inv)
        q = q + t
        r = r - t * g
    return q, r


def univariate_gcd(f, g, var=None):
    """Monic gcd of two polynomials that are univariate in a common variable."""
    if f.is_zero():
        return g.monic() if not g.is_zero() else g
    if g.is_zero():
        return f.monic()
    if var is None:
        used = {v for v in f.vars if f.involves(v)} | {
            v for v in g.vars if g.involves(v)
        }
        if len(used) > 1:
            raise PolynomialError("gcd arguments are not univariate")
        var = used.pop() if used else f.vars[0]
    field = f.field
    if g.field != field:
        raise FieldMismatch("polynomials over different fields")
    a = [c.rep for c in f.to_dense(var)]
    b = [c.rep for c in g.to_dense(var)]
    return MultiPoly.from_dense(
        field, f.vars, var, [field.element(c) for c in dense.gcd(field, a, b)]
    )


def content_free_part(f, main_vars):
    """Split f = content * primitive w.r.t. the given main variables.

    The content is the gcd of the coefficients of f seen as a polynomial in
    ``main_vars``; those coefficients must involve at most one remaining
    variable.  Returns (content, primitive), with a monic content when it is
    nonconstant and content 1 for f = 0 or unit-content inputs.
    """
    if isinstance(main_vars, str):
        main_vars = (main_vars,)
    main_idx = [f._var_index(v) for v in main_vars]
    if f.is_zero():
        return MultiPoly.one(f.field, f.vars), f
    buckets = {}
    for e, c in f.terms.items():
        key = tuple(e[i] if i in main_idx else 0 for i in range(len(e)))
        coeff_e = tuple(0 if i in main_idx else e[i] for i in range(len(e)))
        buckets.setdefault(key, {})[coeff_e] = c
    coeffs = [MultiPoly(f.field, f.vars, b) for b in buckets.values()]
    used = set()
    for c in coeffs:
        for v in c.vars:
            if c.involves(v):
                used.add(v)
    if not used:
        return MultiPoly.one(f.field, f.vars), f
    if len(used) > 1:
        raise PolynomialError(
            "content computation requires coefficients in at most one variable"
        )
    var = used.pop()
    g = coeffs[0]
    for c in coeffs[1:]:
        g = univariate_gcd(g, c, var)
        if g.is_constant():
            return MultiPoly.one(f.field, f.vars), f
    return g, exact_divide(f, g)
