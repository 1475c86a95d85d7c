"""Sparse exact multivariate polynomials over a field descriptor.

A :class:`MultiPoly` stores a field, an ordered tuple of variable names and a
dict mapping exponent tuples to nonzero raw coefficients, in the
representation of the field's ``raw_*`` interface.  Arithmetic runs on the raw
coefficients; :class:`~rect4.fields.FieldElement` is the public boundary only:
constructors such as :meth:`MultiPoly.from_dense` take elements or ints, and
readers such as :meth:`MultiPoly.coeff` return elements.  The two views stay
raw: :meth:`MultiPoly.coefficients` (sparse, the nonzero coefficients in some
variables) and :meth:`MultiPoly.to_dense` (the raw tuple that
:mod:`rect4.dense` reads; :meth:`MultiPoly.from_raw_dense` inverts it).
Values are treated as immutable; all operations return new polynomials.

Three kernels on raw terms carry the arithmetic: :func:`add_multiple`
(``out += c * x^shift * p``); :func:`_nested_horner`, the substitution behind
:meth:`MultiPoly.substitute_terms`, which every tame step calls with the raw
terms of its images and :meth:`MultiPoly.substitute` calls once it has
coerced its bindings; and :func:`heap_divide`, a division over a heap of
monomials (Yan, *The geobucket data structure for polynomials*, 1998) by
divisors that :func:`prepare_divisor` has put in the form it reads.  It serves
``groebner.normal_form``, the reductions inside ``groebner.groebner_basis``
(which prepares each basis element once), :func:`exact_divide` and
:func:`divmod_in_variable`.

The constructor checks its terms: each exponent has one entry per variable,
and zero coefficients are dropped.  Kernel outputs are canonical already, so
ring operations, views, substitution, division and the Groebner results build
theirs through ``MultiPoly._trusted``, which skips that scan.  Inputs from
outside (:meth:`MultiPoly.from_terms`, :meth:`MultiPoly.constant`,
:meth:`MultiPoly.from_raw_dense`, :meth:`MultiPoly.partial_derivative`,
whose coefficients may vanish in characteristic p) keep the check.
:meth:`MultiPoly.embed`, the one change of coefficient field, maps the raw
terms through :meth:`Embedding.raw <rect4.fields.Embedding.raw>` and skips it
too, since an embedding of fields is injective.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add as _plus, ge as _ge, neg as _neg, sub as _minus

from .. import dense
from ..fields import Embedding, ExtensionField, FieldElement, FieldMismatch, RationalField, term_sum_str
from .zpoly import rational_gcd


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

    def descending_key(self, expv):
        """Flat int tuple whose ascending order is this order's descending
        order: the min-heap key of sparse reduction."""
        if self.kind == "lex":
            return tuple(map(_neg, expv))
        if self.kind == "grevlex":
            return (-sum(expv),) + expv[::-1]
        head, tail = expv[: self.split], expv[self.split :]
        return (-sum(head),) + head[::-1] + (-sum(tail),) + tail[::-1]

    def __repr__(self):
        if self.kind == "elimination":
            return f"MonomialOrder(elimination, split={self.split})"
        return f"MonomialOrder({self.kind})"


def _grevlex_key(expv):
    return (sum(expv), tuple(map(_neg, reversed(expv))))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


class MultiPoly:
    __slots__ = ("field", "vars", "terms")

    def __init__(self, field, vars, terms):
        """``terms`` maps exponent tuples to raw coefficients of ``field``;
        zero coefficients are dropped."""
        vars = tuple(vars)
        n, is_zero = len(vars), field.raw_is_zero
        clean = {}
        for expv, c in terms.items():
            if len(expv) != n:
                raise PolynomialError("exponent vector length mismatch")
            if not is_zero(c):
                clean[tuple(expv)] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _trusted(field, vars, terms):
        """The polynomial with canonical ``terms``: ``vars`` a tuple, every
        exponent a tuple of its length, no zero coefficient.  The outputs of
        the kernels on raw terms are canonical (a product of nonzero
        coefficients is nonzero in a field), so they skip the scan of
        :meth:`__init__`; ``terms`` is kept, not copied."""
        p = _new(MultiPoly)
        _set_field(p, field)
        _set_vars(p, vars)
        _set_terms(p, terms)
        return p

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, field, vars):
        return cls(field, vars, {})

    @classmethod
    def constant(cls, field, vars, value):
        return cls(field, vars, {(0,) * len(vars): field.coerce(value).rep})

    @classmethod
    def one(cls, field, vars):
        return cls(field, vars, {(0,) * len(vars): field.raw_one()})

    @classmethod
    def variable(cls, field, vars, name):
        vars = tuple(vars)
        if name not in vars:
            raise PolynomialError(f"unknown variable {name!r}")
        expv = tuple(1 if v == name else 0 for v in vars)
        return cls(field, vars, {expv: field.raw_one()})

    @classmethod
    def from_terms(cls, field, vars, pairs):
        """Sum of (exponent, coefficient) pairs, each coefficient anything
        ``field.coerce`` takes (a FieldElement, an int or a Fraction).  Each
        is stored as the field's canonical raw rep: over Q an int when it is
        integral, so ``Fraction(6, 3)`` is stored as ``2``."""
        terms = {}
        for expv, c in pairs:
            c = field.coerce(c).rep
            expv = tuple(expv)
            if expv in terms:
                c = field.raw_add(terms[expv], c)
            terms[expv] = c
        return cls(field, vars, terms)

    # -- basic queries --------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in expv) for expv in self.terms)

    def constant_term(self):
        return self.coeff((0,) * len(self.vars))

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
        field = self.field
        return field.element(self.terms.get(tuple(expv), field.raw_zero()))

    def involves(self, var):
        i = self._var_index(var)
        return any(e[i] for e in self.terms)

    def _check_compatible(self, other):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("polynomials over different fields")
        if self.vars != other.vars:
            raise PolynomialError("polynomials with different variable lists")

    # -- ring operations ------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        self._check_compatible(other)
        add, is_zero = self.field.raw_add, self.field.raw_is_zero
        terms = dict(self.terms)
        for expv, c in other.terms.items():
            old = terms.get(expv)
            if old is None:
                terms[expv] = c
                continue
            c = add(old, c)
            if is_zero(c):
                del terms[expv]
            else:
                terms[expv] = c
        return MultiPoly._trusted(self.field, self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field.raw_neg
        return MultiPoly._trusted(self.field, self.vars, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_compatible(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        b = list(b.items())
        out = {}
        for e, c in a.items():
            add_multiple(self.field, out, b, e, c)
        return MultiPoly._trusted(self.field, self.vars, out)

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
        field = self.field
        c = field.coerce(c).rep
        if field.raw_is_zero(c):
            return MultiPoly.zero(field, self.vars)
        mul = field.raw_mul
        return MultiPoly._trusted(field, self.vars, {e: mul(v, c) for e, v in self.terms.items()})

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
    def leading_monomial(self, order=GREVLEX):
        if not self.terms:
            raise PolynomialError("zero polynomial has no leading term")
        return min(self.terms, key=order.descending_key)

    def leading_form(self):
        """Homogeneous component of maximal total degree."""
        d = self.total_degree()
        return MultiPoly._trusted(
            self.field, self.vars, {e: c for e, c in self.terms.items() if sum(e) == d}
        )

    def weighted_degree(self, weights):
        if not self.terms:
            return -1
        return max(sum(w * x for w, x in zip(weights, e)) for e in self.terms)

    def monic(self):
        """Scaled to leading coefficient 1 under grevlex."""
        if self.is_zero():
            return self
        field = self.field
        mul = field.raw_mul
        inv = field.raw_inv(self.terms[self.leading_monomial()])
        return MultiPoly._trusted(field, self.vars, {e: mul(c, inv) for e, c in self.terms.items()})

    # -- calculus / substitution ---------------------------------------------
    def partial_derivative(self, var):
        i = self._var_index(var)
        field = self.field
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = e[:i] + (e[i] - 1,) + e[i + 1 :]
                out[ne] = field.raw_mul(c, field.raw_from_int(e[i]))
        return MultiPoly(field, self.vars, out)

    def substitute(self, bindings):
        """Substitute variables by polynomials, field elements or ints, all
        at once, by :meth:`substitute_terms` in the order the bindings are
        given.

        Binding values may live in an extension of this polynomial's field;
        the result is promoted accordingly.  Unbound variables are unchanged.
        """
        if not bindings:
            return self
        field = self.field
        for v in bindings.values():
            if isinstance(v, (MultiPoly, FieldElement)) and v.field is not field and v.field != field:
                field = _join_fields(field, v.field)
        poly = self
        if field is not self.field:
            poly = poly.embed(Embedding(self.field, field))
        vars = poly.vars
        images = []
        for name, value in bindings.items():
            if not isinstance(value, MultiPoly):
                own = value.field if isinstance(value, FieldElement) else field
                value = MultiPoly.constant(own, vars, value)
            elif value.vars != vars:
                value = value.with_vars(vars)
            if value.field is not field and value.field != field:
                value = value.embed(Embedding(value.field, field))
            images.append((name, list(value.terms.items())))
        return poly.substitute_terms(images)

    def substitute_terms(self, images):
        """:meth:`substitute` on raw terms, by :func:`_nested_horner`.

        ``images`` is a nonempty list of pairs (variable name, its image as
        a list of raw (exponent, coefficient) terms over this polynomial's
        field and variables), the first split outermost.  Repeated exponents
        in an image are summed.
        """
        field = self.field
        images = [(self._var_index(name), terms) for name, terms in images]
        return MultiPoly._trusted(field, self.vars, _nested_horner(field, self.terms, images))

    def embed(self, emb):
        """This polynomial over ``emb.dst``, its raw coefficients mapped by
        the :class:`~rect4.fields.Embedding` ``emb`` from this field.  An
        embedding is injective, so no coefficient vanishes."""
        if self.field != emb.src:
            raise FieldMismatch(f"polynomial over {self.field} embedded from {emb.src}")
        raw = emb.raw
        return MultiPoly._trusted(emb.dst, self.vars, {e: raw(c) for e, c in self.terms.items()})

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
        return MultiPoly._trusted(self.field, new_vars, out)

    # -- coefficient views ---------------------------------------------------------
    def coefficients(self, vars):
        """{exponents in ``vars``: coefficient}, each coefficient a polynomial
        in the same variables free of ``vars``; only nonzero coefficients
        appear, so the cost follows the terms, not the degree."""
        idx = [self._var_index(v) for v in vars]
        buckets = {}
        for e, c in self.terms.items():
            rest = list(e)
            for i in idx:
                rest[i] = 0
            buckets.setdefault(tuple([e[i] for i in idx]), {})[tuple(rest)] = c
        return {k: MultiPoly._trusted(self.field, self.vars, b) for k, b in buckets.items()}

    def univariate_var(self, var=None):
        """The variable this polynomial is univariate in: ``var``, checked,
        or the one variable it involves (the first variable when constant)."""
        used = [v for v in self.vars if self.involves(v)]
        if var is None:
            if len(used) > 1:
                raise PolynomialError("polynomial is not univariate")
            return used[0] if used else self.vars[0]
        if any(u != var for u in used):
            raise PolynomialError(f"polynomial involves variables besides {var!r}")
        return var

    def to_dense(self, var=None):
        """Raw dense view: the tuple of raw coefficients in ``var`` (see
        :meth:`univariate_var`), low degree first, with no trailing zero, as
        :mod:`rect4.dense` reads it; ``()`` for zero."""
        var = self.univariate_var(var)
        i = self._var_index(var)
        out = [self.field.raw_zero()] * (self.degree_in(var) + 1)
        for e, c in self.terms.items():
            out[e[i]] = c
        return tuple(out)

    @classmethod
    def from_raw_dense(cls, field, vars, var, reps):
        """Inverse of :meth:`to_dense`: the polynomial in ``var`` with the
        canonical raw coefficients ``reps``, low degree first."""
        vars = tuple(vars)
        i, pad = vars.index(var), (0,) * (len(vars) - 1)
        return cls(field, vars, {pad[:i] + (k,) + pad[i:]: c for k, c in enumerate(reps)})

    @classmethod
    def from_dense(cls, field, vars, var, coeffs):
        """:meth:`from_raw_dense` on coefficients that ``field.coerce`` takes."""
        return cls.from_raw_dense(field, vars, var, [field.coerce(c).rep for c in coeffs])

    # -- printing ---------------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        field = self.field
        one = field.raw_one()
        items = sorted(self.terms.items(), key=lambda kv: GREVLEX.key(kv[0]), reverse=True)
        terms = []
        for e, c in items:
            factors = []
            for v, k in zip(self.vars, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            terms.append((field.raw_str(c), c == one, "*".join(factors)))
        return term_sum_str(terms)

    def __repr__(self):
        return f"MultiPoly({self})"


_new = object.__new__
_set_field = MultiPoly.field.__set__  # the slots, past the immutable __setattr__
_set_vars = MultiPoly.vars.__set__
_set_terms = MultiPoly.terms.__set__


def _join_fields(f1, f2):
    """The larger of two distinct fields when one embeds canonically in the
    other."""
    if isinstance(f2, ExtensionField) and f2.base == f1:
        return f2
    if isinstance(f1, ExtensionField) and f1.base == f2:
        return f1
    raise FieldMismatch(f"no canonical common field for {f1} and {f2}")


# ---------------------------------------------------------------------------
# kernels on raw terms
# ---------------------------------------------------------------------------


def add_multiple(field, out, terms, shift, c):
    """out += c * x^shift * p on raw coefficients, where ``terms`` iterates
    the (exponent, coefficient) pairs of p and ``out`` is a raw term dict.

    Each exponent sum is ``tuple(map(add, e, shift))``, which runs the loop
    over the variables in C."""
    add, mul, is_zero = field.raw_add, field.raw_mul, field.raw_is_zero
    for e, pc in terms:
        m = tuple(map(_plus, e, shift))
        v = mul(c, pc)
        old = out.get(m)
        if old is not None:
            v = add(old, v)
            if is_zero(v):
                del out[m]
                continue
        out[m] = v


def _split_by_degree(terms, i):
    """Raw terms as a list over the degree k in variable i of the terms with
    that degree, each with its exponent of variable i set to 0."""
    out = []
    for e, c in terms.items():
        k = e[i]
        while len(out) <= k:
            out.append({})
        out[k][e[:i] + (0,) + e[i + 1 :]] = c
    return out


def _nested_horner(field, terms, images):
    """Raw terms with each variable i of ``images``, a list of pairs
    (i, image terms), replaced by its image at once.

    Splits by the first variable, evaluates each coefficient in the
    remaining ones, then runs Horner's rule in the first variable's image.
    Images may involve the bound variables: each split consumes its
    variable, and the images are only ever multiplied in.
    """
    (i, image), rest = images[0], images[1:]
    acc = {}
    for c in reversed(_split_by_degree(terms, i)):
        if rest:
            c = _nested_horner(field, c, rest)
        if acc:
            for e, v in image:
                add_multiple(field, c, acc.items(), e, v)
        acc = c
    return acc


def prepare_divisor(g, key):
    """The form of a divisor that :func:`heap_divide` reads: (lead exponent,
    inverse of the lead coefficient or None when it is one, negated tail as
    a list of raw terms).

    ``key`` is the ``descending_key`` of a monomial order; it picks the
    leading monomial.
    """
    if g.is_zero():
        raise PolynomialError("division by the zero polynomial")
    field = g.field
    neg = field.raw_neg
    ge = min(g.terms, key=key)
    lc = g.terms[ge]
    inv = None if lc == field.raw_one() else field.raw_inv(lc)
    return ge, inv, [(e, neg(c)) for e, c in g.terms.items() if e != ge]


def heap_divide(f, prepared, key, exact=False, top=False):
    """Division of f by a list of divisors, on raw coefficients.

    ``prepared`` holds each divisor as :func:`prepare_divisor` returns it,
    with the same ``key``, the ``descending_key`` of a monomial order: its
    ascending order is the descending monomial order.  Each step takes the
    largest monomial left and reduces it by the first divisor whose leading
    monomial divides it, or moves it to the remainder; with ``exact`` such a
    monomial raises :class:`PolynomialError` instead, and with ``top`` it
    ends the division: the remainder is then that monomial, its leading
    monomial and first key, followed by the rest of the work, a
    top-reduction whose leading monomial no divisor lead divides and whose
    full reduction is the full remainder of f.  The work polynomial
    is a dict with a heap of its monomials; a monomial that cancels stays in
    the heap and is skipped when popped.

    Returns ``(quotients, remainder)`` as raw term dicts, one quotient per
    divisor; f minus the sum of quotient times divisor is the remainder.

    The divisibility test, the shift and each product monomial map
    ``operator.ge``, ``sub`` and ``add`` over the exponent vectors, so no
    per-variable loop runs in the interpreter.
    """
    field = f.field
    add, mul, is_zero = field.raw_add, field.raw_mul, field.raw_is_zero
    quotients = [{} for _ in prepared]
    work = dict(f.terms)
    heap = [(key(e), e) for e in work]
    heapify(heap)
    rem = {}
    while heap:
        we = heappop(heap)[1]
        wc = work.pop(we, None)
        if wc is None:
            continue
        for (lead, inv, tail), quo in zip(prepared, quotients):
            if all(map(_ge, we, lead)):
                shift = tuple(map(_minus, we, lead))
                q = quo[shift] = wc if inv is None else mul(wc, inv)
                for te, tc in tail:
                    m = tuple(map(_plus, shift, te))
                    v = mul(q, tc)
                    old = work.get(m)
                    if old is None:
                        work[m] = v
                        heappush(heap, (key(m), m))
                    else:
                        v = add(old, v)
                        if is_zero(v):
                            del work[m]
                        else:
                            work[m] = v
                break
        else:
            if exact:
                raise PolynomialError("polynomial is not exactly divisible")
            if top:
                return quotients, {we: wc, **work}
            rem[we] = wc
    return quotients, rem


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------


def exact_divide(f, g):
    """Quotient f/g when g divides f exactly; raises otherwise."""
    f._check_compatible(g)
    key = GREVLEX.descending_key
    (quo,), _ = heap_divide(f, [prepare_divisor(g, key)], key, exact=True)
    return MultiPoly._trusted(f.field, f.vars, quo)


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
    i = f._var_index(var)
    dg = g.degree_in(var)
    if any(e[i] == dg and sum(e) != dg for e in g.terms):
        raise PolynomialError(
            f"divisor's leading coefficient in {var!r} is not invertible"
        )
    f._check_compatible(g)

    def key(e):
        # a monomial order that ranks the degree in var first: the divisor's
        # leading monomial is var^dg, which divides exactly the monomials of
        # degree >= dg in var
        return (-e[i],) + GREVLEX.descending_key(e)

    (quo,), rem = heap_divide(f, [prepare_divisor(g, key)], key)
    return MultiPoly._trusted(f.field, f.vars, quo), MultiPoly._trusted(f.field, f.vars, rem)


def univariate_gcd(f, g, var=None):
    """Monic gcd of two polynomials that are univariate in a common variable;
    1 at once when either is a nonzero constant."""
    if f.is_zero():
        return g.monic() if not g.is_zero() else g
    if g.is_zero():
        return f.monic()
    if g.field != f.field:
        raise FieldMismatch("polynomials over different fields")
    if f.is_constant() or g.is_constant():
        return MultiPoly.one(f.field, f.vars)
    var = f.univariate_var(var)
    field = f.field
    a, b = f.to_dense(var), g.to_dense(var)
    if isinstance(field, RationalField):
        # over Q the gcd stays in Z[X]
        return MultiPoly.from_raw_dense(field, f.vars, var, rational_gcd(field, a, b))
    return MultiPoly.from_raw_dense(field, f.vars, var, dense.gcd(field, a, b))


def gcd_fold(polys, var):
    """Monic gcd of nonzero polynomials in ``var`` alone; a nonzero constant
    when the gcd is 1.

    The polynomials are folded smallest degree first and the fold stops at
    the first constant gcd, so a unit gcd ends after the cheapest gcds, at
    once when a polynomial is constant; the monic gcd does not depend on the
    order.
    """
    polys = sorted(polys, key=lambda c: c.degree_in(var))
    g = polys[0]
    for c in polys[1:]:
        if g.is_constant():
            return g
        g = univariate_gcd(g, c, var)
    return g if len(polys) > 1 else g.monic()  # no gcd has made it monic


def content_free_part(f, main_vars):
    """Split f = content * primitive w.r.t. the given main variables.

    The content is the :func:`gcd_fold` of the nonzero coefficients of
    ``f.coefficients(main_vars)``, which must involve at most one remaining
    variable.  Returns (content, primitive), with a monic content when it is
    nonconstant and content 1 for f = 0 or unit-content inputs.
    """
    coeffs = f.coefficients(main_vars).values()
    used = {v for c in coeffs for v in c.vars if c.involves(v)}
    if not used:
        return MultiPoly.one(f.field, f.vars), f
    if len(used) > 1:
        raise PolynomialError(
            "content computation requires coefficients in at most one variable"
        )
    g = gcd_fold(coeffs, used.pop())
    if g.is_constant():
        return MultiPoly.one(f.field, f.vars), f
    return g, exact_divide(f, g)
