"""Expression and field-spec parsing for the command-line surface.

Grammar (no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-')* power
    power  := atom ('^' INT)?
    atom   := INT | NAME | '(' expr ')'

Division is exact and only by nonzero constants.  NAME resolves to an ambient
variable, the extension generator or the function-field parameter.  Field
specs: ``Q``, ``Fp``, ``Fp(s)``, each optionally followed by
``[g]/(minpoly)`` for a simple algebraic extension.
"""

from __future__ import annotations

import re

from .fields import GF, QQ, ExtensionField, FieldError, RationalFunctionField, extend, rational_function_field
from .polynomials import MultiPoly


class ParseError(Exception):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^()]))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group("int") is not None:
            out.append(("int", int(m.group("int")), m.start()))
        elif m.group("name") is not None:
            out.append(("name", m.group("name"), m.start()))
        else:
            out.append(("op", m.group("op"), m.start()))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _Parser:
    def __init__(self, tokens, field, vars):
        self.tokens = tokens
        self.i = 0
        self.field = field
        self.vars = tuple(vars)

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        poly = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return poly

    def expr(self):
        acc = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self):
        acc = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                if val == "*":
                    acc = acc * rhs
                else:
                    if not rhs.is_constant() or rhs.is_zero():
                        raise ParseError(
                            "division is only by nonzero constants", pos
                        )
                    acc = acc.scale(rhs.constant_value().inv())
            else:
                return acc

    def unary(self):
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                if val == "-":
                    sign = -sign
            else:
                break
        p = self.power()
        return p if sign > 0 else -p

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, expo, pos = self.take()
            if kind != "int":
                raise ParseError("exponent must be an integer literal", pos)
            return base**expo
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return MultiPoly.constant(self.field, self.vars, val)
        if kind == "name":
            if val in self.vars:
                return MultiPoly.variable(self.field, self.vars, val)
            const = _named_constant(self.field, val)
            if const is not None:
                return MultiPoly.constant(self.field, self.vars, const)
            raise ParseError(f"unknown variable {val!r}", pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {val!r}", pos)


def _named_constant(field, name):
    if isinstance(field, ExtensionField):
        if name == field.gen:
            return field.generator()
        base = _named_constant(field.base, name)
        if base is not None:
            return field.from_base(base)
        return None
    if isinstance(field, RationalFunctionField) and name == field.param:
        return field.parameter()
    return None


def parse_polynomial(text, field, vars):
    """Parse ``text`` into a MultiPoly over ``field`` in exactly ``vars``.

    No variable may share its name with the generator or the parameter of
    ``field``: a certificate could not then tell the variable from the
    constant when it is replayed.
    """
    for name in vars:
        if _named_constant(field, name) is not None:
            raise ParseError(f"variable {name!r} is also the name of a constant of {field}")
    return _Parser(_tokenize(text), field, vars).parse()


_FIELD_RE = re.compile(
    r"^\s*(?P<base>Q|F(?P<p>\d+))"
    r"(?:\((?P<param>[A-Za-z][A-Za-z0-9]*)\))?"
    r"(?:\[(?P<gen>[A-Za-z][A-Za-z0-9]*)\]\s*/\s*\((?P<minpoly>.*)\))?\s*$"
)


def parse_field_spec(text):
    """Field descriptor from a spec string like Q, F5, F2(s) or Q[i]/(i^2+1)."""
    m = _FIELD_RE.match(text)
    if not m:
        raise ParseError(f"bad field spec {text!r}")
    if m.group("base") == "Q":
        base = QQ
        if m.group("param"):
            raise ParseError("the rationals take no function-field parameter")
    else:
        p = int(m.group("p"))
        try:
            base = rational_function_field(p, m.group("param")) if m.group(
                "param"
            ) else GF(p)
        except FieldError as e:
            raise ParseError(str(e)) from None
    if not m.group("gen"):
        return base
    gen = m.group("gen")
    minpoly = parse_polynomial(m.group("minpoly"), base, (gen,))
    coeffs = [minpoly.coeff((k,)) for k in range(minpoly.degree_in(gen) + 1)]
    try:
        return extend(base, coeffs, gen)
    except FieldError as e:
        raise ParseError(f"bad extension: {e}") from None

