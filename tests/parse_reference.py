"""The polynomial parser the library used before it parsed into terms.

Every number and variable token became an ``MPoly`` and every ``+``, ``-``,
``*`` and ``^`` an ``MPoly`` operation.  ``tests/test_parse_reference.py``
requires the library's term-level parser to return equal polynomials on
seeded random expressions and to raise the same exceptions, with the same
messages and positions, on malformed ones.
"""

from __future__ import annotations

import re
from fractions import Fraction

from coxmap.coxring import MPoly, ParseError, UnknownVariable

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))"
)


def tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character %r" % stripped[0],
                             len(text) - len(stripped))
        kind = match.lastgroup
        value = match.group(kind)
        tokens.append((kind, value, match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


def reference_parse(names: tuple[str, ...], text: str) -> MPoly:
    """Parse text over the variables names the way the library did before it
    parsed into terms: every token is an MPoly and every operator an MPoly
    operation."""
    tokens = tokenize(text)
    nvars = len(names)
    index = {name: i for i, name in enumerate(names)}
    pos = [0]

    def peek():
        return tokens[pos[0]]

    def advance():
        tok = tokens[pos[0]]
        pos[0] += 1
        return tok

    def expect_op(op):
        kind, value, at = peek()
        if kind != "op" or value != op:
            raise ParseError("expected %r" % op, at)
        advance()

    def parse_expr() -> MPoly:
        kind, value, _ = peek()
        negate = False
        if kind == "op" and value in "+-":
            advance()
            negate = value == "-"
        result = parse_term()
        if negate:
            result = -result
        while True:
            kind, value, _ = peek()
            if kind == "op" and value in "+-":
                advance()
                term = parse_term()
                result = result - term if value == "-" else result + term
            else:
                return result

    def parse_term() -> MPoly:
        result = parse_factor()
        while True:
            kind, value, _ = peek()
            if kind == "op" and value == "*":
                advance()
                result = result * parse_factor()
            else:
                return result

    def parse_factor() -> MPoly:
        base = parse_atom()
        kind, value, _ = peek()
        if kind == "op" and value == "^":
            advance()
            kind, value, at = peek()
            if kind != "number" or "/" in value:
                raise ParseError("exponents are nonnegative integers", at)
            advance()
            return base ** int(value)
        return base

    def parse_atom() -> MPoly:
        kind, value, at = advance()
        if kind == "number":
            if "/" in value:
                num, den = (part.strip() for part in value.split("/"))
                if int(den) == 0:
                    raise ParseError("zero denominator", at)
                return MPoly.constant(nvars, Fraction(int(num), int(den)))
            return MPoly.constant(nvars, int(value))
        if kind == "name":
            if value not in index:
                raise UnknownVariable(value, at)
            return MPoly.variable(nvars, index[value])
        if kind == "op" and value == "(":
            inner = parse_expr()
            expect_op(")")
            return inner
        raise ParseError("expected a number, variable or parenthesis", at)

    result = parse_expr()
    kind, _, at = peek()
    if kind != "end":
        raise ParseError("trailing input", at)
    return result
