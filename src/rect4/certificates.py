"""The certificate documents: every JSON document that ``verify`` reads or
``--cert-out`` writes.

* A coordinate certificate (``SCHEMA_CERT``) holds a field, two variables,
  f, its complement, the extension it was built over (or null) and the tame
  steps whose composite maps T to f.
* A bundle, written by ``analyze --cert-out``, holds one certificate per
  root, null for a root without one.
* A claim document holds a field, the ambient variables and the claimed
  coordinate polynomials, for ``verify --claim-file``.

A document of the wrong shape raises :class:`~rect4.exprparse.ParseError`
naming the key at fault, as a polynomial that does not parse does.

Independence.  Soundness of an accepted certificate rests on the referee:
the document's f and complement go to
:func:`rect4.verifier.verify_plane_pair`, which imports nothing from
:mod:`rect4.plane_coordinates`.  The step replay, which checks that the
composite maps T to f, uses the producer's own
:meth:`~rect4.plane_coordinates.TameStep.apply`, binomial kernel included;
it checks that the document is consistent, not that f is a coordinate.
"""

from .exprparse import ParseError, parse_field_spec, parse_polynomial
from .plane_coordinates import CoordinateCertificate, TameStep, certificate_fault

SCHEMA_CERT = "rect4-certificate-v1"


def certificate_to_json(cert, f):
    steps = []
    for s in cert.steps:
        if s.kind == "linear":
            show = s.field.raw_str
            steps.append(
                {
                    "kind": "linear",
                    "matrix": [[show(m) for m in row] for row in s.matrix],
                    "translation": [show(v) for v in s.translation],
                }
            )
        else:
            steps.append(
                {"kind": "elementary", "target": s.target, "shift": str(s.shift)}
            )
    f_here = f
    if cert.field != f.field and cert.embedding is not None:
        f_here = f.embed(cert.embedding)
    return {
        "schema": SCHEMA_CERT,
        "field": str(cert.field),
        "variables": list(cert.variables),
        "f": str(f_here),
        "complement": str(cert.complement),
        "extension": None if cert.extension is None else str(cert.extension),
        "steps": steps,
    }


_JSON_TYPES = {str: "a string", list: "a list"}


def _key(doc, key, what, kind):
    """``doc[key]``, which must have the JSON type ``kind`` (``str`` or
    ``list``); a document that is not an object, a missing key or a value of
    another type is a ParseError naming the key."""
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object with key {key!r}")
    try:
        value = doc[key]
    except KeyError:
        raise ParseError(f"missing key {key!r} in {what}") from None
    if not isinstance(value, kind):
        raise ParseError(f"key {key!r} in {what} must be {_JSON_TYPES[kind]}")
    return value


def _pair(value, key, what):
    """``value`` when it is a list of two entries; else a ParseError naming the key."""
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"key {key!r} in {what} must be a list of two entries")
    return value


def _strings(values, key, what):
    """``values`` when every entry is a string; else a ParseError naming the key."""
    if not all(isinstance(v, str) for v in values):
        raise ParseError(f"key {key!r} in {what} must hold strings only")
    return values


def certificate_from_json(doc):
    field = parse_field_spec(_key(doc, "field", "certificate", str))
    vars = _pair(_key(doc, "variables", "certificate", list), "variables", "certificate")
    vars = tuple(_strings(vars, "variables", "certificate"))
    if vars[0] == vars[1]:
        raise ParseError("key 'variables' in certificate must name two distinct variables")

    def constants(value, key):
        return tuple(
            parse_polynomial(entry, field, vars).constant_value()
            for entry in _strings(_pair(value, key, "certificate step"), key, "certificate step")
        )

    steps = []
    for s in _key(doc, "steps", "certificate", list):
        kind = _key(s, "kind", "certificate step", str)
        if kind == "linear":
            rows = _pair(_key(s, "matrix", "certificate step", list), "matrix", "certificate step")
            mat = tuple(constants(row, "matrix") for row in rows)
            tr = constants(_key(s, "translation", "certificate step", list), "translation")
            steps.append(TameStep("linear", field, matrix=mat, translation=tr))
        elif kind == "elementary":
            shift = parse_polynomial(_key(s, "shift", "certificate step", str), field, vars)
            target = _key(s, "target", "certificate step", str)
            if target not in vars:
                raise ParseError(
                    f"key 'target' in certificate step must be one of {list(vars)}, not {target!r}"
                )
            steps.append(TameStep("elementary", field, target=target, shift=shift))
        else:
            raise ParseError(
                f"key 'kind' in certificate step must be 'linear' or 'elementary', not {kind!r}"
            )
    cert = CoordinateCertificate(field, vars, steps)
    cert.complement = parse_polynomial(_key(doc, "complement", "certificate", str), field, vars)
    f = parse_polynomial(_key(doc, "f", "certificate", str), field, vars)
    return cert, f


def replay_certificate(doc):
    """Re-check a serialized certificate: composite maps T to f and the pair
    (f, complement) passes the Groebner verifier."""
    cert, f = certificate_from_json(doc)
    fault = certificate_fault(f, cert)
    return fault is None, fault


def certificate_bundle(certs):
    """The document ``analyze --cert-out`` writes: ``certs`` holds one
    certificate document per root, None for a root without one."""
    return {"schema": SCHEMA_CERT + "-bundle", "certificates": certs}


def replay_bundle(doc, replay):
    """``(field, failures)`` for the document ``verify --cert`` reads: a
    bundle, whose null entries are dropped and which must keep one, or a
    single certificate.  Each certificate goes to ``replay``, the caller's
    :func:`replay_certificate`; ``failures`` holds ``(index, reason)`` for
    each it rejects, indexed among the kept entries."""
    if isinstance(doc, dict) and "certificates" in doc:
        bundle = _key(doc, "certificates", "certificate bundle", list)
        certs = [c for c in bundle if c is not None]
        if not certs:
            raise ParseError("certificate bundle contains no certificates")
    else:
        certs = [doc]
    failures = [(i, why) for i, (ok, why) in enumerate(map(replay, certs)) if not ok]
    return certs[0]["field"], failures


def claim_from_json(doc):
    """``(field, variables, claimed polynomials)`` of a claim document."""
    what = "claim document"
    field = parse_field_spec(_key(doc, "field", what, str))
    variables = tuple(_strings(_key(doc, "variables", what, list), "variables", what))
    polys = [
        parse_polynomial(p, field, variables)
        for p in _strings(_key(doc, "claims", what, list), "claims", what)
    ]
    return field, variables, polys
