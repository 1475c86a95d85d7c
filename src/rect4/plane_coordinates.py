"""Decide whether f in K[Z,T] is a coordinate of the plane.

The decision procedure is degree reduction over the tame group: the top
homogeneous form of a coordinate is a scaled power of a single linear form; a
linear change makes it a power of the first variable; then the two partial
degrees must divide and a single elementary substitution
``T -> T + c * Z^q`` strictly lowers the total degree.  Iterating reaches a
linear polynomial exactly for coordinates.

Every accepted input carries a :class:`CoordinateCertificate`: a list of tame
steps whose composite maps T to f exactly, plus a complement polynomial; the
Groebner-based verifier re-checks both independently.

In characteristic p the scalar conditions can force a purely inseparable
extension (p-power roots).  Coordinates over K never need one, so a reduction
that succeeds only after such an extension yields a rejection over K carrying
the extension certificate; the caller can still use it as evidence over the
algebraic closure (e.g. for irreducibility).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import ExtensionField, composite_extension
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

    def images(self, vars):
        zn, tn = vars
        Z = MultiPoly.variable(self.field, vars, zn)
        T = MultiPoly.variable(self.field, vars, tn)
        if self.kind == "linear":
            (m00, m01), (m10, m11) = self.matrix
            v0, v1 = self.translation
            return (
                Z.scale(m00) + T.scale(m01) + MultiPoly.constant(self.field, vars, v0),
                Z.scale(m10) + T.scale(m11) + MultiPoly.constant(self.field, vars, v1),
            )
        shift = self.shift.with_vars(vars)
        if self.target == tn:
            return (Z, T + shift)
        return (Z + shift, T)

    def apply(self, poly):
        zi, ti = poly.vars[0], poly.vars[1]
        pz, pt = self.images((zi, ti))
        return poly.substitute({zi: pz, ti: pt})

    def inverse(self):
        if self.kind == "elementary":
            return TameStep(
                "elementary",
                self.field,
                target=self.target,
                shift=-self.shift,
            )
        (m00, m01), (m10, m11) = self.matrix
        det = m00 * m11 - m01 * m10
        if det.is_zero():
            raise PlaneCoordinateError("linear step is not invertible")
        di = det.inv()
        i00, i01 = m11 * di, -m01 * di
        i10, i11 = -m10 * di, m00 * di
        v0, v1 = self.translation
        w0 = -(i00 * v0 + i01 * v1)
        w1 = -(i10 * v0 + i11 * v1)
        return TameStep(
            "linear", self.field, matrix=((i00, i01), (i10, i11)), translation=(w0, w1)
        )

    def promote(self, embedding, new_field):
        if self.kind == "elementary":
            return TameStep(
                "elementary",
                new_field,
                target=self.target,
                shift=self.shift.map_coefficients(embedding, new_field),
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
    extension: object = None  # ExtensionField when steps left the input field
    embedding: object = None  # Embedding of the input field when extension set

    def image_of(self, poly):
        for s in reversed(self.steps):
            poly = s.apply(poly)
        return poly

    def image_of_variable(self, name):
        v = MultiPoly.variable(self.field, self.variables, name)
        return self.image_of(v)


@dataclass
class VartestResult:
    status: str  # "accept" | "reject"
    certificate: CoordinateCertificate = None
    reason: str = None
    extension_certificate: CoordinateCertificate = None

    @property
    def accepted(self):
        return self.status == "accept"

    @property
    def accepted_over_extension(self):
        return self.extension_certificate is not None


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
    # verify psi == lc * (v - rho)^Dprime
    power = [field.one()]
    for _ in range(Dprime):
        nxt = [field.zero()] * (len(power) + 1)
        for k, a in enumerate(power):
            nxt[k] = nxt[k] - a * rho
            nxt[k + 1] = nxt[k + 1] + a
        power = nxt
    if len(power) != len(psi):
        return None
    for a, b in zip(power, psi):
        if a * lc != b:
            return None
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
            c0 = c
        elif e[it] == d:
            cd = c
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
        u[e[it]] = c
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

    Returns ("accept", certificate), ("reject", reason) or None when the
    fastpath does not apply.
    """
    if len(f.vars) != 2:
        raise PlaneCoordinateError("plane test needs exactly two variables")
    zn, tn = f.vars
    if f.degree_in(tn) > 1:
        return None
    coeffs = f.as_univariate(tn)
    a0 = coeffs[0] if coeffs else MultiPoly.zero(f.field, f.vars)
    a1 = coeffs[1] if len(coeffs) > 1 else MultiPoly.zero(f.field, f.vars)
    if a1.is_zero():
        if f.degree_in(zn) == 1:
            cert = _finish(f, [], f.field, None, (zn, tn))
            return ("accept", cert)
        return ("reject", "polynomial is univariate of degree != 1")
    if a1.is_constant():
        c = a1.constant_value()
        steps = []
        if not a0.is_zero():
            shift = a0.scale(-(c.inv()))
            step = TameStep("elementary", f.field, target=tn, shift=shift)
            steps.append(step.inverse())
            f = step.apply(f)
        cert = _finish(f, steps, f.field, None, (zn, tn))
        return ("accept", cert)
    return (
        "reject",
        "the coefficient of T is nonconstant, so the residue ring has "
        "nonscalar units",
    )


def _finish(work, inv_steps, field, extension, vars, embedding=None):
    """work has total degree 1; append the closing linear step and build the
    certificate."""
    zn, tn = vars
    zero = field.zero()
    one = field.one()
    alpha = work.coeff(_expv(work.vars, {zn: 1}))
    beta = work.coeff(_expv(work.vars, {tn: 1}))
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
    expected = MultiPoly.variable(field, work.vars, tn)
    if check != expected:
        raise PlaneCoordinateError("final normalization failed to produce T")
    steps = list(inv_steps) + [final.inverse()]
    cert = CoordinateCertificate(
        field, vars, steps, extension=extension, embedding=embedding
    )
    cert.complement = cert.image_of_variable(zn)
    return cert


def _expv(vars, assignment):
    return tuple(assignment.get(v, 0) for v in vars)


def vartest(f):
    """Full coordinate test with certificate construction.

    Accept means f is a coordinate of K[Z,T] for K the coefficient field of
    f.  A rejection may carry ``extension_certificate`` when the reduction
    succeeded over a purely inseparable extension: f is then a coordinate of
    the extended plane but not of the K-plane.
    """
    if f.is_zero():
        return VartestResult("reject", reason="zero polynomial")
    if len(f.vars) != 2:
        raise PlaneCoordinateError("plane test needs exactly two variables")
    zn, tn = f.vars
    if f.is_constant():
        return VartestResult("reject", reason="constant polynomial")

    fast = linear_fastpath(f)
    if fast is not None:
        status, payload = fast
        if status == "accept":
            return VartestResult("accept", certificate=payload)
        return VartestResult("reject", reason=payload)

    field0 = f.field
    field = field0
    embedding = None  # from field0 into the current field
    extension = None
    work = f
    inv_steps = []
    degree_log = [work.total_degree()]

    def extend_with(e, rho):
        nonlocal field, embedding, extension, work, inv_steps
        p = field.characteristic()
        deg = p**e
        psi = [field.zero()] * (deg + 1)
        psi[0] = -rho
        psi[-1] = field.one()
        gen_name = _fresh_generator_name(field)
        L, emb, root = composite_extension(field, psi, gen_name)
        work = work.map_coefficients(emb, L)
        inv_steps = [s.promote(emb, L) for s in inv_steps]
        embedding = emb if embedding is None else embedding.then(emb)
        extension = L
        field = L
        return root

    while True:
        d = work.total_degree()
        if d <= 0:
            return VartestResult("reject", reason="reduced to a constant")
        if d == 1:
            cert = _finish(work, inv_steps, field, extension, (zn, tn), embedding)
            return _wrap_accept(f, cert, field0)
        lead = work.leading_form()
        info = _analyze_leading_form(lead, zn, tn)
        if info is None:
            return VartestResult(
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
            _, _, res = info
            if res[0] == "value":
                rho = res[1]
            else:
                if field.characteristic() == 0:
                    raise PlaneCoordinateError(
                        "unexpected extension request in characteristic zero"
                    )
                rho = extend_with(res[1], res[2])
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
            return VartestResult(
                "reject",
                reason=f"partial degrees do not divide (deg_Z = {d}, deg_T = {n})",
            )
        q = d // n
        if q < 2:
            raise PlaneCoordinateError("reduction invariant violated: q < 2")
        weights = tuple(1 if v == zn else q for v in work.vars)
        if work.weighted_degree(weights) > d:
            return VartestResult(
                "reject",
                reason="weighted top form obstructs any degree-lowering "
                "elementary step",
            )
        phi = [field.zero()] * (n + 1)
        iz = work.vars.index(zn)
        it = work.vars.index(tn)
        for e, c in work.terms.items():
            if e[iz] + q * e[it] == d:
                phi[e[it]] = c
        res = _power_of_linear_univariate(phi, field)
        if res is None:
            return VartestResult(
                "reject",
                reason="the scalar condition for the elementary step has no "
                "multiplicity-n root",
            )
        if res[0] == "value":
            rho = res[1]
        else:
            if field.characteristic() == 0:
                raise PlaneCoordinateError(
                    "unexpected extension request in characteristic zero"
                )
            rho = extend_with(res[1], res[2])
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


def _wrap_accept(f, cert, field0):
    if cert.extension is None:
        return VartestResult("accept", certificate=cert)
    # Reduction left the input field.  The extension is purely inseparable by
    # construction, so the polynomial cannot be a coordinate over the input
    # field itself; report the extension certificate alongside the rejection.
    return VartestResult(
        "reject",
        reason=(
            "coordinate only over the inseparable extension "
            f"{cert.extension}, not over {field0}"
        ),
        extension_certificate=cert,
    )


def _fresh_generator_name(field):
    taken = set()
    if isinstance(field, ExtensionField):
        taken.add(field.gen)
    for name in "bcwgamma":
        if name not in taken:
            return name
    return "b1"


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------

LINE = "line"
NOT_LINE = "not-line"
UNKNOWN_LINE = "unknown"


def line_test(f):
    """Is the residue ring K[Z,T]/(f) a polynomial line?

    In characteristic zero this matches the coordinate test exactly.  In
    characteristic p a coordinate is still a line, but non-coordinates may or
    may not be lines, so any rejection yields Unknown.
    """
    if f.is_zero() or f.is_constant():
        raise PlaneCoordinateError("line test needs a nonzero nonconstant input")
    result = vartest(f)
    if result.accepted:
        return LINE
    if f.field.characteristic() == 0:
        return NOT_LINE
    return UNKNOWN_LINE


def complement(f, certificate):
    """The partner polynomial g with K[f, g] = K[Z, T], from the certificate."""
    zn, tn = certificate.variables
    expected = certificate.image_of_variable(tn)
    promoted = f
    if certificate.field != f.field:
        emb = certificate.embedding
        if emb is None or emb.src != f.field:
            raise PlaneCoordinateError("certificate field mismatch")
        promoted = f.map_coefficients(emb, certificate.field)
    if expected != promoted.with_vars(expected.vars):
        raise PlaneCoordinateError("stale certificate: composite does not map T to f")
    g = certificate.image_of_variable(zn)
    from .verifier import verify_plane_pair

    if not verify_plane_pair(promoted.with_vars(expected.vars), g):
        raise PlaneCoordinateError("certificate complement failed verification")
    return g
