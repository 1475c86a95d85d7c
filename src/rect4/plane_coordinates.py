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
re-checks both independently.

In characteristic p the scalar conditions can force a purely inseparable
extension (p-power roots).  Coordinates over K never need one, so a reduction
that succeeds only after such an extension is the status
"reject-accepts-over-extension", still carrying the certificate over the
extension; the caller can use it as evidence over the algebraic closure
(e.g. for irreducibility and smoothness).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import composite_extension, fresh_generator_name
from .polynomials import MultiPoly


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
    """

    kind: str
    field: object
    matrix: tuple = None  # ((m00, m01), (m10, m11)) FieldElements
    translation: tuple = None  # (v0, v1)
    target: str = None  # "Z" or "T"
    shift: object = None  # MultiPoly in the other variable

    def apply(self, poly):
        """Image of ``poly`` under the substitution: one nested Horner pass,
        :meth:`MultiPoly.substitute_terms`, on the raw terms of the images.

        A linear step binds Z and T to their affine images at once, Z first,
        so Horner's rule runs in the image of Z outside the one of T.  The
        shears of :func:`vartest` move only Z (Z -> Z - gamma*T, T -> T), so
        the inner pass in the image of T only shifts exponents and the image
        of Z is multiplied in once per degree in Z: on (Z+T)^d + 1 that is
        O(d^2) term operations, against O(d^3) in the other order.  An
        elementary step binds the target to target + shift.
        """
        field = self.field
        if poly.field is not field and poly.field != field:
            raise PlaneCoordinateError(
                f"tame step over {field} applied to a polynomial over {poly.field}"
            )
        vars = poly.vars
        if self.kind == "linear":
            is_zero = field.raw_is_zero
            zero = (0,) * len(vars)
            basis = ((1,) + zero[1:], (0, 1) + zero[2:], zero)  # Z, T, 1
            images = [
                (name, [(e, c.rep) for e, c in zip(basis, (*row, v)) if not is_zero(c.rep)])
                for name, row, v in zip(vars, self.matrix, self.translation)
            ]
        else:
            shift = self.shift if self.shift.vars == vars else self.shift.with_vars(vars)
            target = tuple([int(v == self.target) for v in vars])
            images = [(self.target, [*shift.terms.items(), (target, field.raw_one())])]
        return poly.substitute_terms(images)

    def inverse(self):
        """The inverse step; a linear one is inverted on raw coefficients."""
        field = self.field
        if self.kind == "elementary":
            return TameStep("elementary", field, target=self.target, shift=-self.shift)
        add, mul, neg = field.raw_add, field.raw_mul, field.raw_neg
        (m00, m01), (m10, m11) = [[m.rep for m in row] for row in self.matrix]
        v0, v1 = [v.rep for v in self.translation]
        det = field.raw_sub(mul(m00, m11), mul(m01, m10))
        if field.raw_is_zero(det):
            raise PlaneCoordinateError("linear step is not invertible")
        di = field.raw_inv(det)
        i00, i01 = mul(m11, di), mul(neg(m01), di)
        i10, i11 = mul(neg(m10), di), mul(m00, di)
        w0 = neg(add(mul(i00, v0), mul(i01, v1)))
        w1 = neg(add(mul(i10, v0), mul(i11, v1)))
        el = field.element
        return TameStep(
            "linear",
            field,
            matrix=((el(i00), el(i01)), (el(i10), el(i11))),
            translation=(el(w0), el(w1)),
        )

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
        (m00, m01), (m10, m11) = self.matrix
        v0, v1 = self.translation
        return TameStep(
            "linear",
            new_field,
            matrix=((embedding(m00), embedding(m01)), (embedding(m10), embedding(m11))),
            translation=(embedding(v0), embedding(v1)),
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
    """Decide u = lc * (W - rho)^D for a dense univariate u of degree D >= 1.

    Returns None when u is not such a power; otherwise ("value", rho) with
    rho in the field, or ("extension", e, rho) meaning the root generates the
    purely inseparable extension W^(p^e) = rho (rho has no p-th root).
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
    for i, c in enumerate(coeffs):
        if i % stride and not c.is_zero():
            return None
    psi = [coeffs[i] for i in range(0, len(coeffs), stride)]
    # psi has degree Dprime with p not dividing Dprime
    denom = field.from_int(Dprime) * lc
    rho = -psi[-2] / denom if Dprime >= 1 else field.zero()
    # verify psi[k] == lc * C(Dprime, k) * (-rho)^(Dprime - k), from the top
    # down, so a mismatch returns after O(Dprime - k) steps
    binom, power = 1, lc
    for k in range(Dprime, -1, -1):
        if psi[k] != power * field.from_int(binom):
            return None
        binom = binom * k // (Dprime - k + 1)
        power = power * -rho
    while e > 0:
        r = field.pth_root(rho)
        if r is None:
            break
        rho = r
        e -= 1
    if e == 0:
        return ("value", rho)
    return ("extension", e, rho)


def _analyze_leading_form(lead, zname, tname):
    """Classify a homogeneous form as c*Z^d, c*T^d or c*(Z + g*T)^d.

    Returns ("Z", c) / ("T", c) / ("shift", c, result-from-univariate-test) /
    None.
    """
    field = lead.field
    iz = lead.vars.index(zname)
    it = lead.vars.index(tname)
    d = lead.total_degree()
    c0 = None
    cd = None
    mixed = False
    for e, c in lead.terms.items():
        if e[iz] == d:
            c0 = field.element(c)
        elif e[it] == d:
            cd = field.element(c)
        else:
            mixed = True
    if not mixed:
        if c0 is not None and cd is None:
            return ("Z", c0)
        if cd is not None and c0 is None:
            return ("T", cd)
    if c0 is None:
        return None
    u = [field.zero()] * (d + 1)
    for e, c in lead.terms.items():
        u[e[it]] = field.element(c)
    while u and u[-1].is_zero():
        u.pop()
    if len(u) - 1 != d:
        return None
    res = _power_of_linear_univariate(u, field)
    if res is None:
        return None
    return ("shift", c0, res)


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
    coeffs = f.coefficients((tn,))
    zero = MultiPoly.zero(f.field, f.vars)
    a0, a1 = coeffs.get((0,), zero), coeffs.get((1,), zero)
    if a1.is_zero():
        if f.degree_in(zn) == 1:
            return _finish(f, [])
        return CoordinateOutcome("reject", reason="polynomial is univariate of degree != 1")
    if a1.is_constant():
        c = a1.constant_value()
        steps = []
        if not a0.is_zero():
            shift = a0.scale(-(c.inv()))
            step = TameStep("elementary", f.field, target=tn, shift=shift)
            steps.append(step.inverse())
            f = step.apply(f)
        return _finish(f, steps)
    return CoordinateOutcome(
        "reject",
        reason="the coefficient of T is nonconstant, so the residue ring has "
        "nonscalar units",
    )


def _finish(work, inv_steps, embedding=None):
    """work has total degree 1; append the closing linear step and certify.

    With ``embedding`` set the steps left the input field for a purely
    inseparable extension.  A coordinate over the input field never needs
    one, so the outcome rejects over the input field and carries the
    certificate over the extension."""
    field, vars = work.field, work.vars
    zn, tn = vars
    zero = field.zero()
    one = field.one()
    alpha = work.coeff(_expv(vars, {zn: 1}))
    beta = work.coeff(_expv(vars, {tn: 1}))
    gamma = work.constant_term()
    if not beta.is_zero():
        bi = beta.inv()
        mat = ((one, zero), (-alpha * bi, bi))
        tr = (zero, -gamma * bi)
    else:
        ai = alpha.inv()
        mat = ((zero, ai), (one, zero))
        tr = (-gamma * ai, zero)
    final = TameStep("linear", field, matrix=mat, translation=tr)
    check = final.apply(work)
    expected = MultiPoly.variable(field, vars, tn)
    if check != expected:
        raise PlaneCoordinateError("final normalization failed to produce T")
    steps = list(inv_steps) + [final.inverse()]
    cert = CoordinateCertificate(field, vars, steps, embedding=embedding)
    cert.complement = cert.image_of_variable(zn)
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


def _expv(vars, assignment):
    return tuple(assignment.get(v, 0) for v in vars)


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
        nonlocal field, embedding, work, inv_steps
        p = field.characteristic()
        deg = p**e
        psi = [field.zero()] * (deg + 1)
        psi[0] = -rho
        psi[-1] = field.one()
        gen_name = fresh_generator_name(field)
        L, emb, root = composite_extension(field, psi, gen_name)
        work = work.embed(emb)
        inv_steps = [s.promote(emb) for s in inv_steps]
        embedding = emb if embedding is None else embedding.then(emb)
        field = L
        return root

    def resolve(res):
        # ("value", rho), or ("extension", e, rho): adjoin rho^(1/p^e)
        if res[0] == "value":
            return res[1]
        if field.characteristic() == 0:
            raise PlaneCoordinateError("unexpected extension request in characteristic zero")
        return extend_with(res[1], res[2])

    while True:
        d = work.total_degree()
        if d <= 0:
            return CoordinateOutcome("reject", reason="reduced to a constant")
        if d == 1:
            return _finish(work, inv_steps, embedding)
        lead = work.leading_form()
        info = _analyze_leading_form(lead, zn, tn)
        if info is None:
            return CoordinateOutcome(
                "reject",
                reason="leading form is not a scaled power of a single linear form",
            )
        if info[0] == "T":
            step = TameStep(
                "linear",
                field,
                matrix=((field.zero(), field.one()), (field.one(), field.zero())),
                translation=(field.zero(), field.zero()),
            )
            work = step.apply(work)
            inv_steps.append(step.inverse())
        elif info[0] == "shift":
            rho = resolve(info[2])
            if rho.is_zero():
                raise PlaneCoordinateError("degenerate linear-form ratio")
            gamma = -(rho.inv())
            # lead = c*(Z + gamma*T)^d; substituting Z -> Z - gamma*T makes it c*Z^d
            step = TameStep(
                "linear",
                field,
                matrix=((field.one(), -gamma), (field.zero(), field.one())),
                translation=(field.zero(), field.zero()),
            )
            work = step.apply(work)
            inv_steps.append(step.inverse())
        # now the leading form is c * Z^d
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
        phi = [field.zero()] * (n + 1)
        iz = work.vars.index(zn)
        it = work.vars.index(tn)
        for e, c in work.terms.items():
            if e[iz] + q * e[it] == d:
                phi[e[it]] = field.element(c)
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
        shift = MultiPoly.from_terms(field, work.vars, [(shift_exp, rho)])
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
