"""Command-line surface: analyze, vartest, verify, gr-check, factor.

Exit codes are the stable interface:

* ``analyze``: 0 Rectifiable, 1 NotRectifiable, 2 Inconclusive, 3 not a
  domain or usage error
* ``vartest`` / ``verify``: 0 accept, 1 reject, 3 usage error
* ``gr-check``: 0 all degree checks pass, 1 violation, 3 usage error
* ``factor``: 0 success (2 when the factorization is incomplete), 3 usage

``--json`` renders machine-readable reports (schema shipped with the
package); ``--cert-out`` persists coordinate certificates, replayable with
``verify --cert``.

:func:`main` may be called many times in one process.  It builds its
argument parser on the first call and reuses it afterwards, since the
parser does not depend on the input; importing this module builds nothing.
:func:`build_parser` returns a fresh parser on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .exprparse import ParseError, parse_field_spec, parse_polynomial
from .fields import FieldError
from .filtration import (
    NEG_INF,
    FiltrationContext,
    FiltrationError,
    generators,
    gr_relation_residual,
    w_degree,
)
from .hyperplane import (
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_RECTIFIABLE,
    VERDICT_RECTIFIABLE,
    Hyperplane,
    HyperplaneError,
    analyze,
)
from .plane_coordinates import CoordinateCertificate, TameStep, certificate_fault, vartest
from .polynomials import FactorizationError, MultiPoly, PolynomialError, univariate_factor
from .verifier import CoordinateClaim, VerifierError, replay_inverses, verify_coordinate_system

SCHEMA_REPORT = "rect4-report-v1"
SCHEMA_CERT = "rect4-certificate-v1"
SCHEMA_CLAIM = "rect4-claim-v1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# certificate (de)serialization
# ---------------------------------------------------------------------------


def certificate_to_json(cert, f):
    steps = []
    for s in cert.steps:
        if s.kind == "linear":
            (m00, m01), (m10, m11) = s.matrix
            steps.append(
                {
                    "kind": "linear",
                    "matrix": [[str(m00), str(m01)], [str(m10), str(m11)]],
                    "translation": [str(v) for v in s.translation],
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
    another type is a CliError naming the key."""
    if not isinstance(doc, dict):
        raise CliError(f"{what} must be a JSON object with key {key!r}")
    try:
        value = doc[key]
    except KeyError:
        raise CliError(f"missing key {key!r} in {what}") from None
    if not isinstance(value, kind):
        raise CliError(f"key {key!r} in {what} must be {_JSON_TYPES[kind]}")
    return value


def _pair(value, key, what):
    """``value`` when it is a list of two entries; else a CliError naming the key."""
    if not isinstance(value, list) or len(value) != 2:
        raise CliError(f"key {key!r} in {what} must be a list of two entries")
    return value


def _strings(values, key, what):
    """``values`` when every entry is a string; else a CliError naming the key."""
    if not all(isinstance(v, str) for v in values):
        raise CliError(f"key {key!r} in {what} must hold strings only")
    return values


def certificate_from_json(doc):
    field = parse_field_spec(_key(doc, "field", "certificate", str))
    vars = _pair(_key(doc, "variables", "certificate", list), "variables", "certificate")
    vars = tuple(_strings(vars, "variables", "certificate"))
    if vars[0] == vars[1]:
        raise CliError("key 'variables' in certificate must name two distinct variables")

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
                raise CliError(
                    f"key 'target' in certificate step must be one of {list(vars)}, not {target!r}"
                )
            steps.append(TameStep("elementary", field, target=target, shift=shift))
        else:
            raise CliError(
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


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _root_to_json(rd, coord, line, irreducible, irreducible_reason):
    cert_json = None
    if coord.certificate is not None:
        cert_json = certificate_to_json(coord.certificate, rd.specialization)
    return {
        "factor": str(rd.factor),
        "multiplicity": rd.multiplicity,
        "residue_field": str(rd.residue_field),
        "specialization": str(rd.specialization),
        "separable": rd.separable,
        "kbar_simple": rd.kbar_simple,
        "coordinate": {
            "status": coord.status,
            "reason": coord.reason,
            "certificate": cert_json,
        },
        "line": line,
        "irreducible": irreducible,
        "irreducible_reason": irreducible_reason,
    }


def analysis_to_json(report, field, a_text, f_text):
    doc = {
        "schema": SCHEMA_REPORT,
        "command": "analyze",
        "field": str(field),
        "inputs": {"a": a_text, "F": f_text},
        "domain": report.domain,
        "domain_witness": (
            None if report.domain_witness is None else str(report.domain_witness)
        ),
        "verdict": report.verdict if report.domain else "NotDomain",
        "ufd": report.ufd,
        "fibration": report.fibration,
        "regular": report.regular,
        "factor_complete": report.factor_complete,
        "failing_root": report.failing_root,
        "inconclusive_reason": report.inconclusive_reason,
        "theorem_path": report.theorem_path,
        "hypotheses": report.hypotheses,
        "implied": report.implied,
        "roots": [
            _root_to_json(rd, coord, line, irr, why)
            for rd, coord, line, irr, why in zip(
                report.roots,
                report.coordinates,
                report.lines,
                report.irreducibility,
                report.irreducible_reasons,
            )
        ],
    }
    return doc


def _print_report(doc, as_json, out=None):
    out = out if out is not None else sys.stdout
    if as_json:
        json.dump(doc, out, indent=2)
        out.write("\n")
        return
    command = doc.get("command")
    if command == "analyze":
        out.write(f"field:     {doc['field']}\n")
        out.write(f"a(X):      {doc['inputs']['a']}\n")
        out.write(f"F(X,Z,T):  {doc['inputs']['F']}\n")
        out.write(f"domain:    {doc['domain']}\n")
        if not doc["domain"]:
            out.write(f"common factor: {doc['domain_witness']}\n")
            out.write("verdict:   NotDomain\n")
            return
        out.write(
            f"ufd: {doc['ufd']}   fibration: {doc['fibration']}   "
            f"regular: {doc['regular']}\n"
        )
        for i, r in enumerate(doc["roots"]):
            out.write(
                f"root {i}: factor {r['factor']} (multiplicity "
                f"{r['multiplicity']}, residue field {r['residue_field']}) "
                f"coordinate={r['coordinate']['status']} line={r['line']} "
                f"irreducible={r['irreducible']}\n"
            )
        out.write(f"verdict:   {doc['verdict']}\n")
        if doc.get("inconclusive_reason"):
            out.write(f"reason:    {doc['inconclusive_reason']}\n")
        out.write(f"rules:     {', '.join(doc['theorem_path'])}\n")
    elif command == "vartest":
        out.write(f"f over {doc['field']}: {doc['inputs']['f']}\n")
        out.write(f"verdict: {doc['verdict']}\n")
        if doc.get("reason"):
            out.write(f"reason:  {doc['reason']}\n")
        cert = doc.get("certificate") or doc.get("extension_certificate")
        if cert:
            scope = "" if doc.get("certificate") else f" (over {cert['field']})"
            out.write(f"complement{scope}: {cert['complement']}\n")
            out.write(f"steps: {len(cert['steps'])}\n")
    elif command == "verify":
        out.write(f"verdict: {doc['verdict']}\n")
        if doc.get("witness"):
            out.write(f"unreachable variable: {doc['witness']}\n")
        if doc.get("reason"):
            out.write(f"reason: {doc['reason']}\n")
        for name, expr in (doc.get("inverses") or {}).items():
            out.write(f"  {name} = {expr}\n")
    elif command == "factor":
        out.write(f"unit: {doc['unit']}\n")
        for g, m in doc["factors"]:
            out.write(f"  ({g})^{m}\n" if m > 1 else f"  {g}\n")
        for g, m in doc.get("unresolved", []):
            out.write(f"  unresolved: ({g})^{m}\n")
    else:
        for k, v in doc.items():
            if k in ("schema",):
                continue
            out.write(f"{k}: {json.dumps(v) if not isinstance(v, str) else v}\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_analyze(args):
    field = parse_field_spec(args.field)
    a = parse_polynomial(args.a, field, ("X",))
    F = parse_polynomial(args.F, field, ("X", "Z", "T"))
    rng = random.Random(args.seed)
    h = Hyperplane(a, F)
    report = analyze(h, degree_bound=args.degree_bound, rng=rng)
    doc = analysis_to_json(report, field, args.a, args.F)
    _print_report(doc, args.json)
    if args.cert_out:
        certs = [r["coordinate"]["certificate"] for r in doc["roots"]]
        with open(args.cert_out, "w") as fh:
            json.dump({"schema": SCHEMA_CERT + "-bundle", "certificates": certs}, fh, indent=2)
    if not report.domain:
        return EXIT_USAGE
    return {
        VERDICT_RECTIFIABLE: EXIT_OK,
        VERDICT_NOT_RECTIFIABLE: EXIT_NEGATIVE,
        VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[report.verdict]


def _cmd_vartest(args):
    field = parse_field_spec(args.field)
    f = parse_polynomial(args.f, field, ("Z", "T"))
    outcome = vartest(f)
    cert_json = None
    if outcome.certified:
        cert_json = certificate_to_json(outcome.certificate, f)
    doc = {
        "schema": SCHEMA_REPORT,
        "command": "vartest",
        "field": str(field),
        "inputs": {"f": args.f},
        "verdict": "Accept" if outcome.accepted else "Reject",
        "reason": outcome.reason,
        "certificate": cert_json if outcome.accepted else None,
        "extension_certificate": None if outcome.accepted else cert_json,
    }
    _print_report(doc, args.json)
    if args.cert_out and cert_json:
        with open(args.cert_out, "w") as fh:
            json.dump(cert_json, fh, indent=2)
    return EXIT_OK if outcome.accepted else EXIT_NEGATIVE


def _cmd_verify(args):
    if args.cert:
        with open(args.cert) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "certificates" in doc:
            bundle = _key(doc, "certificates", "certificate bundle", list)
            certs = [c for c in bundle if c is not None]
            if not certs:
                raise CliError("certificate bundle contains no certificates")
        else:
            certs = [doc]
        failures = []
        for i, c in enumerate(certs):
            ok, why = replay_certificate(c)
            if not ok:
                failures.append((i, why))
        out_doc = {
            "schema": SCHEMA_REPORT,
            "command": "verify",
            "field": certs[0]["field"] if certs else "Q",
            "verdict": "Accept" if not failures else "Reject",
            "reason": None if not failures else str(failures),
        }
        _print_report(out_doc, args.json)
        return EXIT_OK if not failures else EXIT_NEGATIVE

    if args.claim_file:
        with open(args.claim_file) as fh:
            claim_doc = json.load(fh)
        what = "claim document"
        field = parse_field_spec(_key(claim_doc, "field", what, str))
        variables = tuple(_strings(_key(claim_doc, "variables", what, list), "variables", what))
        polys = [
            parse_polynomial(p, field, variables)
            for p in _strings(_key(claim_doc, "claims", what, list), "claims", what)
        ]
    else:
        if not args.field or not args.vars or not args.polys:
            raise CliError(
                "verify needs either --cert, --claim-file, or --field/--vars "
                "with claimed polynomials"
            )
        field = parse_field_spec(args.field)
        variables = tuple(v.strip() for v in args.vars.split(","))
        polys = [parse_polynomial(p, field, variables) for p in args.polys]
    claim = CoordinateClaim(variables, polys)
    outcome = verify_coordinate_system(claim)
    inverses = None
    if outcome.accepted:
        if not replay_inverses(claim, outcome):
            raise CliError("internal error: inverse round-trip failed")
        inverses = {k: str(v) for k, v in outcome.inverses.items()}
    doc = {
        "schema": SCHEMA_REPORT,
        "command": "verify",
        "field": str(field),
        "inputs": {"variables": list(variables), "claims": [str(p) for p in polys]},
        "verdict": "Accept" if outcome.accepted else "Reject",
        "witness": outcome.witness,
        "inverses": inverses,
    }
    _print_report(doc, args.json)
    return EXIT_OK if outcome.accepted else EXIT_NEGATIVE


def _cmd_gr_check(args):
    field = parse_field_spec(args.field)
    a = parse_polynomial(args.a, field, ("X",))
    F = parse_polynomial(args.F, field, ("X", "Z", "T"))
    h = Hyperplane(a, F)
    shift_used = None
    try:
        ctx = FiltrationContext.build(h)
    except FiltrationError as e:
        if "a(0)" not in str(e):
            raise
        lam = _find_rational_root(a, field, args.seed)
        if lam is None:
            raise CliError(
                "a(0) != 0 and a has no root in the base field to shift to"
            ) from None
        X1 = MultiPoly.variable(field, ("X",), "X")
        a_shift = a.substitute({"X": X1 + MultiPoly.constant(field, ("X",), lam)})
        X3 = MultiPoly.variable(field, ("X", "Z", "T"), "X")
        F_shift = F.substitute(
            {"X": X3 + MultiPoly.constant(field, ("X", "Z", "T"), lam)}
        )
        shift_used = str(lam)
        ctx = FiltrationContext.build(Hyperplane(a_shift, F_shift))
    x, y, z, t = generators(ctx)
    wx, wy, wz, wt = (w_degree(e, ctx) for e in (x, y, z, t))
    residual = gr_relation_residual(ctx)
    ok = (
        wx == -1
        and wy == ctx.d
        and wz == 0
        and wt == 0
        and (residual == NEG_INF or residual <= -1)
    )
    doc = {
        "schema": SCHEMA_REPORT,
        "command": "gr-check",
        "field": str(field),
        "inputs": {"a": args.a, "F": args.F},
        "d": ctx.d,
        "alpha": str(ctx.alpha),
        "f0": str(ctx.f0),
        "w_x": wx,
        "w_y": wy,
        "w_z": wz,
        "w_t": wt,
        "residual": "-inf" if residual == NEG_INF else str(int(residual)),
        "shift": shift_used,
        "ok": ok,
    }
    _print_report(doc, args.json)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _find_rational_root(a, field, seed):
    fact = univariate_factor(a, rng=random.Random(seed))
    for p, _ in fact.factors:
        if p.degree_in("X") == 1:
            return -p.constant_term()
    return None


def _cmd_factor(args):
    field = parse_field_spec(args.field)
    poly = parse_polynomial(args.poly, field, ("X",))
    fact = univariate_factor(poly, rng=random.Random(args.seed))
    doc = {
        "schema": SCHEMA_REPORT,
        "command": "factor",
        "field": str(field),
        "inputs": {"poly": args.poly},
        "unit": str(fact.unit),
        "factors": [[str(g), m] for g, m in fact.factors],
        "unresolved": [[str(g), m] for g, m in fact.unresolved],
    }
    _print_report(doc, args.json)
    return EXIT_OK if fact.complete else EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _degree_bound(text):
    """The value of ``--degree-bound``: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, not {text!r}")
    return value


_OPTIONS = {
    "--seed": dict(type=int, default=20240901, help="seed for randomized subroutines"),
    "--degree-bound": dict(type=_degree_bound, default=None, help="Kronecker total-degree bound"),
    "--cert-out": dict(default=None, help="write certificates to this path"),
}


def _add_common(p, *options):
    """The output-format flags, and those ``_OPTIONS`` that the subcommand's
    handler reads, so that argparse refuses the others."""
    g = p.add_mutually_exclusive_group()
    g.add_argument("--json", action="store_true", help="machine-readable output")
    g.add_argument("--text", action="store_true", help="human-readable output (default)")
    for name in options:
        p.add_argument(name, **_OPTIONS[name])


def build_parser():
    """A new parser for the ``rect4`` command line; each subcommand sets
    ``func`` to its handler."""
    ap = argparse.ArgumentParser(
        prog="rect4",
        description=(
            "Exact rectifiability analysis for hypersurfaces "
            "a(X)Y - F(X,Z,T) in affine 4-space"
        ),
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="full structural analysis and verdict")
    p.add_argument("a", help="a(X), e.g. \"X^2*(X-1)\"")
    p.add_argument("F", help="F(X,Z,T), e.g. \"Z^2+T^3+1\"")
    p.add_argument("field", help="field spec: Q, F5, F2(s), Q[i]/(i^2+1)")
    _add_common(p, "--seed", "--degree-bound", "--cert-out")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("vartest", help="plane-coordinate test for f(Z,T)")
    p.add_argument("f", help="f(Z,T)")
    p.add_argument("field")
    _add_common(p, "--cert-out")
    p.set_defaults(func=_cmd_vartest)

    p = sub.add_parser("verify", help="verify a coordinate-system claim or replay a certificate")
    p.add_argument("polys", nargs="*", help="claimed coordinate polynomials")
    p.add_argument("--field", help="field spec")
    p.add_argument("--vars", help="comma-separated ambient variables")
    p.add_argument("--claim-file", help="JSON claim document")
    p.add_argument("--cert", help="JSON certificate (or bundle) to replay")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gr-check", help="degree-filtration diagnostics")
    p.add_argument("a")
    p.add_argument("F")
    p.add_argument("field")
    _add_common(p, "--seed")
    p.set_defaults(func=_cmd_gr_check)

    p = sub.add_parser("factor", help="univariate factorization of a(X)")
    p.add_argument("poly")
    p.add_argument("field")
    _add_common(p, "--seed")
    p.set_defaults(func=_cmd_factor)
    return ap


@functools.cache
def _parser():
    """The parser :func:`main` uses: built on the first call, then reused.
    Parsing leaves no state in it.  The ``_cmd_*`` handlers it dispatches to
    look up what they call (``replay_certificate``, ``analyze``, ...) when
    they run, so a module name replaced after the build is still seen."""
    return build_parser()


def main(argv=None):
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (
        ParseError,
        CliError,
        FieldError,
        PolynomialError,
        FactorizationError,
        HyperplaneError,
        FiltrationError,
        VerifierError,
        OSError,
        json.JSONDecodeError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
