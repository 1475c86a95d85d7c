"""Decide whether f in K[Z,T] is a coordinate of the plane.

The decision procedure is degree reduction over the tame group: the top
homogeneous form of a coordinate is a scaled power of a single linear form; a
linear change makes it a power of the first variable; then the two partial
degrees must divide and a single elementary substitution
``T -> T + c * Z^q`` strictly lowers the total degree.  Iterating reaches a
linear polynomial exactly for coordinates.

Every answer is one :class:`CoordinateOutcome`, from :func:`linear_fastpath`
and :func:`vartest` to the hyperplane report.  An accepted input carries a
:class:`CoordinateCertificate`: a list of tame steps whose composite maps T
to f exactly, plus a complement polynomial; the Groebner-based verifier
re-checks both independently.  A step is applied by the cheapest kernel its
form allows (:meth:`TameStep.apply`): the swap permutes exponents, a shear or
a one-term shift expands by the binomial theorem, a variable the step leaves
alone or that does not occur costs no pass, and only the other steps run a
nested Horner pass.  The last step of a certificate is written down from the
linear polynomial the reduction ends at, not built as its inverse.

The test computes on raw field reps only, as :mod:`rect4.polynomials.multipoly`
does: leading forms, scalar conditions, shears and the entries of every
:class:`TameStep` are raw reps, compared as canonical reps.  The
:class:`TameStep` constructor is the boundary where FieldElements are
checked and unboxed; the one place that boxes is the rare adjoining of a
p-power root, because :func:`~rect4.fields.composite_extension` takes
elements.

In characteristic p the scalar conditions can force a purely inseparable
extension (p-power roots).  Coordinates over K never need one, so a reduction
that succeeds only after such an extension is the status
"reject-accepts-over-extension", still carrying the certificate over the
extension; the caller can use it as evidence over the algebraic closure
(e.g. for irreducibility and smoothness).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldElement, composite_extension, fresh_generator_name
from .polynomials import MultiPoly
from .polynomials.multipoly import binomial_shift, swapped_terms


class PlaneCoordinateError(Exception):
    """Internal failure (never used to signal a mere rejection)."""


# ---------------------------------------------------------------------------
# tame steps and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TameStep:
    """One tame substitution step on K[Z,T].

    kind "linear": images Z -> m00*Z + m01*T + v0, T -> m10*Z + m11*T + v1
    with an invertible matrix.  kind "elementary": the target variable is
    shifted by a univariate polynomial in the other variable.

    ``matrix`` and ``translation`` hold raw reps of ``field``.  The
    constructor is the boundary: it takes raw reps or FieldElements, checks
    each element against ``field`` and unboxes it, so steps built either way
    compare equal.
    """

    kind: str
    field: object
    matrix: tuple = None  # ((m00, m01), (m10, m11)), raw reps
    translation: tuple = None  # (v0, v1), raw reps
    target: str = None  # "Z" or "T"
    shift: object = None  # MultiPoly in the other variable

    def __post_init__(self):
        if self.kind == "linear":
            coerce = self.field.coerce

            def raw(row):
                return tuple([coerce(c).rep if isinstance(c, FieldElement) else c for c in row])

            object.__setattr__(self, "matrix", tuple(map(raw, self.matrix)))
            object.__setattr__(self, "translation", raw(self.translation))

    def apply(self, poly):
        """Image of ``poly``, a polynomial in the two plane variables, under
        the substitution.  The step reads its own form first:

        * a binding that is the identity (v -> v), or whose variable does not
          occur in ``poly``, is dropped, and with no binding left ``poly`` is
          its own image;
        * the swap Z <-> T permutes the exponents;
        * a lone binding v -> v + beta*u^q, u the other variable (the shears
          of :func:`vartest` and their inverses, q = 1, and every elementary
          step with a one-term shift), is expanded by the binomial theorem,
          :func:`~rect4.polynomials.multipoly.binomial_shift`.

        Every other step, one with a translation, two moving rows or a shift
        of several terms, binds its variables to their images at once by one
        nested Horner pass, :meth:`MultiPoly.substitute_terms`, Z outside T.
        """
        field = self.field
        if poly.field is not field and poly.field != field:
            raise PlaneCoordinateError(
                f"tame step over {field} applied to a polynomial over {poly.field}"
            )
        vars, terms = poly.vars, poly.terms
        if len(vars) != 2:
            raise PlaneCoordinateError("a tame step acts on polynomials in two variables")
        zero, one = field.raw_zero(), field.raw_one()
        if self.kind == "linear":
            if self.matrix == ((zero, one), (one, zero)) and self.translation == (zero, zero):
                return MultiPoly._trusted(field, vars, swapped_terms(terms))
            moving = [
                (i, row, v)
                for i, (row, v) in enumerate(zip(self.matrix, self.translation))
                if (row[i] != one or row[1 - i] != zero or v != zero) and any(e[i] for e in terms)
            ]
            if not moving:
                return poly
            if len(moving) == 1:
                i, row, v = moving[0]
                if row[i] == one and v == zero:
                    return MultiPoly._trusted(field, vars, binomial_shift(field, terms, i, row[1 - i], 1))
            basis = ((1, 0), (0, 1), (0, 0))  # Z, T, 1
            images = [
                (vars[i], [(e, c) for e, c in zip(basis, (*row, v)) if c != zero])
                for i, row, v in moving
            ]
            return poly.substitute_terms(images)
        i = poly._var_index(self.target)
        if not any(e[i] for e in terms):
            return poly
        shift = self.shift.with_vars(vars)
        if len(shift.terms) == 1:
            ((e, beta),) = shift.terms.items()
            if not e[i]:
                return MultiPoly._trusted(field, vars, binomial_shift(field, terms, i, beta, e[1 - i]))
        target = (int(i == 0), int(i == 1))
        return poly.substitute_terms([(self.target, [*shift.terms.items(), (target, one)])])

    def inverse(self):
        """The inverse step."""
        field = self.field
        if self.kind == "elementary":
            return TameStep("elementary", field, target=self.target, shift=-self.shift)
        add, mul, neg = field.raw_add, field.raw_mul, field.raw_neg
        (m00, m01), (m10, m11) = self.matrix
        v0, v1 = self.translation
        det = field.raw_sub(mul(m00, m11), mul(m01, m10))
        if field.raw_is_zero(det):
            raise PlaneCoordinateError("linear step is not invertible")
        di = field.raw_inv(det)
        i00, i01 = mul(m11, di), mul(neg(m01), di)
        i10, i11 = mul(neg(m10), di), mul(m00, di)
        w0 = neg(add(mul(i00, v0), mul(i01, v1)))
        w1 = neg(add(mul(i10, v0), mul(i11, v1)))
        return TameStep("linear", field, matrix=((i00, i01), (i10, i11)), translation=(w0, w1))

    def promote(self, embedding):
        """This step over ``embedding.dst``, its coefficients embedded."""
        new_field = embedding.dst
        if self.kind == "elementary":
            return TameStep(
                "elementary",
                new_field,
                target=self.target,
                shift=self.shift.embed(embedding),
            )
        raw = embedding.raw
        return TameStep(
            "linear",
            new_field,
            matrix=tuple(tuple(map(raw, row)) for row in self.matrix),
            translation=tuple(map(raw, self.translation)),
        )


@dataclass
class CoordinateCertificate:
    """Tame steps whose composite sends T to the certified polynomial."""

    field: object  # field the steps live over
    variables: tuple  # (zname, tname)
    steps: list
    complement: object = None  # MultiPoly over ``field``
    embedding: object = None  # Embedding of the input field when the steps left it

    @property
    def extension(self):
        """The extension the steps live over when they left the input field."""
        return None if self.embedding is None else self.field

    def image_of(self, poly):
        for s in reversed(self.steps):
            poly = s.apply(poly)
        return poly

    def image_of_variable(self, name):
        v = MultiPoly.variable(self.field, self.variables, name)
        return self.image_of(v)


@dataclass
class CoordinateOutcome:
    """The answer of the coordinate test for one f.

    ``status`` is "accept" (f is a coordinate over its own field), "reject",
    or "reject-accepts-over-extension" (f is a coordinate only over the
    purely inseparable extension its certificate lives over).  A certified
    outcome carries the certificate; f is then irreducible and
    (f_Z, f_T) = (1) over the input field as well.
    """

    status: str
    certificate: CoordinateCertificate = None
    reason: str = None

    @property
    def accepted(self):
        return self.status == "accept"

    @property
    def certified(self):
        return self.certificate is not None


# ---------------------------------------------------------------------------
# scaled powers of linear polynomials
# ---------------------------------------------------------------------------


def _power_of_linear_univariate(coeffs, field):
    """Decide u = lc * (W - rho)^D for a dense univariate u of degree D >= 1,
    given by its raw coefficients, low degree first.

    Returns None when u is not such a power; otherwise ("value", rho) with
    rho a raw rep of the field, or ("extension", e, rho) meaning the root
    generates the purely inseparable extension W^(p^e) = rho (rho has no p-th
    root).
    """
    D = len(coeffs) - 1
    lc = coeffs[-1]
    p = field.characteristic()
    e = 0
    Dprime = D
    if p:
        while Dprime % p == 0:
            Dprime //= p
            e += 1
    stride = p**e if p else 1
    zero = field.raw_zero()
    for i, c in enumerate(coeffs):
        if i % stride and c != zero:
            return None
    psi = coeffs[::stride]
    # psi has degree Dprime >= 1 with p not dividing Dprime
    mul, from_int = field.raw_mul, field.raw_from_int
    neg_rho = field.raw_div(psi[-2], mul(from_int(Dprime), lc))
    # verify psi[k] == lc * C(Dprime, k) * (-rho)^(Dprime - k), from the top
    # down, so a mismatch returns after O(Dprime - k) steps
    binom, power = 1, lc
    for k in range(Dprime, -1, -1):
        if psi[k] != mul(power, from_int(binom)):
            return None
        binom = binom * k // (Dprime - k + 1)
        power = mul(power, neg_rho)
    rho = field.raw_neg(neg_rho)
    while e > 0:
        r = field.raw_pth_root(rho)
        if r is None:
            break
        rho = r
        e -= 1
    if e == 0:
        return ("value", rho)
    return ("extension", e, rho)


def _analyze_leading_form(lead, zname, tname):
    """Classify a homogeneous form of degree d >= 2 as c*Z^d, c*T^d or
    c*(T - rho*Z)^d with rho != 0.

    Returns ("Z",), ("T",), ("shift", res) with res the answer of
    :func:`_power_of_linear_univariate` on the coefficients read along T, or
    None.
    """
    iz = lead.vars.index(zname)
    it = lead.vars.index(tname)
    d = lead.total_degree()
    if len(lead.terms) == 1:
        (e,) = lead.terms
        return ("Z",) if e[iz] == d else ("T",) if e[it] == d else None
    zero = lead.field.raw_zero()
    u = [zero] * (d + 1)
    for e, c in lead.terms.items():
        u[e[it]] = c
    if u[0] == zero or u[d] == zero:
        return None
    res = _power_of_linear_univariate(u, lead.field)
    return None if res is None else ("shift", res)


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------


def linear_fastpath(f):
    """Direct decision for deg_T f <= 1 (f = a0(Z) + a1(Z)*T).

    Returns the :class:`CoordinateOutcome`, or None when the fastpath does
    not apply.
    """
    if len(f.vars) != 2:
        raise PlaneCoordinateError("plane test needs exactly two variables")
    zn, tn = f.vars
    if f.degree_in(tn) > 1:
        return None
    field, vars = f.field, f.vars
    coeffs = f.coefficients((tn,))
    zero = MultiPoly.zero(field, vars)
    a0, a1 = coeffs.get((0,), zero), coeffs.get((1,), zero)
    if a1.is_zero():
        if f.degree_in(zn) == 1:
            return _finish(f, [])
        return CoordinateOutcome("reject", reason="polynomial is univariate of degree != 1")
    if a1.is_constant():
        c = a1.terms[(0, 0)]
        steps = []
        if not a0.is_zero():
            # T -> T + a0/c maps c*T to f = a0 + c*T, so c*T is left to finish
            ci, mul = field.raw_inv(c), field.raw_mul
            shift = MultiPoly(field, vars, {e: mul(a, ci) for e, a in a0.terms.items()})
            steps.append(TameStep("elementary", field, target=tn, shift=shift))
        return _finish(MultiPoly(field, vars, {(0, 1): c}), steps)
    return CoordinateOutcome(
        "reject",
        reason="the coefficient of T is nonconstant, so the residue ring has "
        "nonscalar units",
    )


def _finish(work, inv_steps, embedding=None):
    """work has total degree 1; append the last step and certify.

    With work = alpha*Z + beta*T + gamma the last step, which maps T to work,
    is written down: Z -> Z, T -> alpha*Z + beta*T + gamma when beta != 0,
    and Z -> T, T -> alpha*Z + gamma when beta = 0 (then alpha != 0).

    With ``embedding`` set the steps left the input field for a purely
    inseparable extension.  A coordinate over the input field never needs
    one, so the outcome rejects over the input field and carries the
    certificate over the extension."""
    field, vars = work.field, work.vars
    zero, one = field.raw_zero(), field.raw_one()
    alpha, beta, gamma = (work.terms.get(e, zero) for e in ((1, 0), (0, 1), (0, 0)))
    if beta != zero:
        mat = ((one, zero), (alpha, beta))
    else:
        mat = ((zero, one), (alpha, zero))
    last = TameStep("linear", field, matrix=mat, translation=(zero, gamma))
    if last.apply(MultiPoly.variable(field, vars, vars[1])) != work:
        raise PlaneCoordinateError("the last step does not map T to the reduced polynomial")
    steps = list(inv_steps) + [last]
    cert = CoordinateCertificate(field, vars, steps, embedding=embedding)
    cert.complement = cert.image_of_variable(vars[0])
    if embedding is None:
        return CoordinateOutcome("accept", certificate=cert)
    return CoordinateOutcome(
        "reject-accepts-over-extension",
        certificate=cert,
        reason=(
            "coordinate only over the inseparable extension "
            f"{field}, not over {embedding.src}"
        ),
    )


def vartest(f):
    """Full coordinate test with certificate construction.

    Accept means f is a coordinate of K[Z,T] for K the coefficient field of
    f.  When the reduction succeeded only over a purely inseparable
    extension, the outcome is "reject-accepts-over-extension" with the
    certificate over the extension: f is then a coordinate of the extended
    plane but not of the K-plane.
    """
    if f.is_zero():
        return CoordinateOutcome("reject", reason="zero polynomial")
    if len(f.vars) != 2:
        raise PlaneCoordinateError("plane test needs exactly two variables")
    zn, tn = f.vars
    if f.is_constant():
        return CoordinateOutcome("reject", reason="constant polynomial")

    fast = linear_fastpath(f)
    if fast is not None:
        return fast

    field = f.field
    embedding = None  # from f.field into the current field
    work = f
    inv_steps = []
    degree_log = [work.total_degree()]

    def extend_with(e, rho):
        # the one boxing path: composite_extension takes FieldElements
        nonlocal field, embedding, work, inv_steps
        psi = [field.zero()] * (field.characteristic() ** e + 1)
        psi[0] = field.element(field.raw_neg(rho))
        psi[-1] = field.one()
        gen_name = fresh_generator_name(field)
        L, emb, root = composite_extension(field, psi, gen_name)
        work = work.embed(emb)
        inv_steps = [s.promote(emb) for s in inv_steps]
        embedding = emb if embedding is None else embedding.then(emb)
        field = L
        return root.rep

    def resolve(res):
        # ("value", rho), or ("extension", e, rho): adjoin rho^(1/p^e)
        if res[0] == "value":
            return res[1]
        if field.characteristic() == 0:
            raise PlaneCoordinateError("unexpected extension request in characteristic zero")
        return extend_with(res[1], res[2])

    while True:
        d = work.total_degree()
        if d == 1:
            return _finish(work, inv_steps, embedding)
        info = _analyze_leading_form(work.leading_form(), zn, tn)
        if info is None:
            return CoordinateOutcome(
                "reject",
                reason="leading form is not a scaled power of a single linear form",
            )
        if info[0] != "Z":
            # a swap for c*T^d; for c*(T - rho*Z)^d the shear Z -> Z + T/rho.
            # Either makes the leading form c'*Z^d.  resolve may extend the
            # field, so zero and one are read after it.
            rho = resolve(info[1]) if info[0] == "shift" else None
            zero, one = field.raw_zero(), field.raw_one()
            mat = ((zero, one), (one, zero)) if rho is None else ((one, field.raw_inv(rho)), (zero, one))
            step = TameStep("linear", field, matrix=mat, translation=(zero, zero))
            work = step.apply(work)
            inv_steps.append(step.inverse())
        n = work.degree_in(tn)
        if n <= 0 or d % n != 0:
            return CoordinateOutcome(
                "reject",
                reason=f"partial degrees do not divide (deg_Z = {d}, deg_T = {n})",
            )
        q = d // n
        if q < 2:
            raise PlaneCoordinateError("reduction invariant violated: q < 2")
        weights = tuple(1 if v == zn else q for v in work.vars)
        if work.weighted_degree(weights) > d:
            return CoordinateOutcome(
                "reject",
                reason="weighted top form obstructs any degree-lowering "
                "elementary step",
            )
        phi = [field.raw_zero()] * (n + 1)
        iz = work.vars.index(zn)
        it = work.vars.index(tn)
        for e, c in work.terms.items():
            if e[iz] + q * e[it] == d:
                phi[e[it]] = c
        res = _power_of_linear_univariate(phi, field)
        if res is None:
            return CoordinateOutcome(
                "reject",
                reason="the scalar condition for the elementary step has no "
                "multiplicity-n root",
            )
        rho = resolve(res)
        shift_exp = [0] * len(work.vars)
        shift_exp[iz] = q
        shift = MultiPoly(field, work.vars, {tuple(shift_exp): rho})
        step = TameStep("elementary", field, target=tn, shift=shift)
        work = step.apply(work)
        inv_steps.append(step.inverse())
        new_d = work.total_degree()
        degree_log.append(new_d)
        if new_d >= d:
            raise PlaneCoordinateError(
                f"elementary step failed to reduce the degree ({degree_log})"
            )


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------


def certificate_fault(f, certificate):
    """Why ``certificate`` does not certify f as a coordinate, or None.

    Its composite must map T to f (read in the certificate's field), and f
    with the stored complement must pass the Groebner verifier.
    """
    image = certificate.image_of_variable(certificate.variables[1])
    if certificate.field != f.field:
        emb = certificate.embedding
        if emb is None or emb.src != f.field:
            return "certificate field mismatch"
        f = f.embed(emb)
    f = f.with_vars(image.vars)
    if image != f:
        return "composite does not reproduce f"
    from .verifier import verify_plane_pair

    if not verify_plane_pair(f, certificate.complement):
        return "complement fails the elimination verifier"
    return None


def complement(f, certificate):
    """The partner polynomial g with K[f, g] = K[Z, T]: the certificate's
    stored complement, once :func:`certificate_fault` finds no fault."""
    fault = certificate_fault(f, certificate)
    if fault is not None:
        raise PlaneCoordinateError(f"certificate refused: {fault}")
    return certificate.complement
