"""Cox rings of toric varieties and their graded polynomials.

A Cox ring has one variable per ray of the fan and is graded by the divisor
class group, the cokernel of the ray pairing matrix.  Polynomials are sparse
dicts from exponent tuples to exact rational coefficients: an integral
coefficient is an ``int`` and any other a ``Fraction``, never a float.  The
canonical monomial order everywhere is degree-lexicographic with variables
ordered by ray index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Optional, Sequence, Union

from coxmap._kernel_py import deglex_key, poly_exact_div, poly_mul
from coxmap.abelian import FGAbelianGroup, GroupElement, IntMatrix, cokernel
from coxmap.fan import Fan


class NameCollision(ValueError):
    pass


class ZeroPolynomial(ValueError):
    pass


class DivisionByZeroPolynomial(ZeroDivisionError):
    pass


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownVariable(ParseError):
    def __init__(self, name: str, position: int):
        ParseError.__init__(self, "unknown variable %r" % name, position)
        self.name = name


def _coeff(c) -> Union[int, Fraction]:
    """An exact coefficient: an int when c is integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class MPoly:
    """Sparse polynomial with exact rational coefficients, ints where
    integral and Fractions elsewhere; immutable by convention.

    Equality and hashing go by value, so a coefficient Fraction(3) left
    behind by arithmetic compares and hashes like the int 3.
    """

    __slots__ = ("nvars", "terms", "_hash", "_sort_key")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError("exponent tuple of wrong length")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent in polynomial")
                c = _coeff(coeff)
                if c:
                    clean[tuple(int(e) for e in exps)] = c
        self.terms = clean
        self._hash = None
        self._sort_key = None

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MPoly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], c=1) -> "MPoly":
        return cls(nvars, {tuple(exps): c})

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "MPoly":
        obj = cls.__new__(cls)
        obj.nvars = nvars
        obj.terms = terms
        obj._hash = None
        obj._sort_key = None
        return obj

    # -- queries ------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no leading monomial")
        return max(self.terms, key=deglex_key)

    def total_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no degree")
        return max(sum(e) for e in self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Union[int, Fraction]]]:
        return sorted(self.terms.items(), key=lambda t: deglex_key(t[0]), reverse=True)

    def sort_key(self) -> tuple:
        # ascending order under this key lists x0 before x1 and lower
        # degrees first, matching the order factors are reported in;
        # computed once, like the hash, since terms are never mutated
        if self._sort_key is None:
            self._sort_key = tuple(
                ((sum(e), tuple(-x for x in e)), c) for e, c in self.sorted_terms()
            )
        return self._sort_key

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise ValueError("mixing polynomials in different variable counts")
            return other
        return MPoly.constant(self.nvars, other)

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return MPoly._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MPoly":
        other = self._coerce(other)
        return MPoly._raw(self.nvars, poly_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("polynomial powers take nonnegative exponents")
        result = MPoly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return "MPoly(%d, %r)" % (self.nvars, self.terms)

    # -- normalization and evaluation ---------------------------------------
    def content_and_primitive(self) -> tuple[Union[int, Fraction], "MPoly"]:
        """Write self = c * p with p integer-coefficient, coefficient gcd one,
        positive leading coefficient.  The content c is an int when every
        coefficient is integral, else a Fraction; p's coefficients are ints."""
        terms = self.terms
        if not terms:
            raise ZeroPolynomial("the zero polynomial has no content")
        negative = terms[self.leading_monomial()] < 0
        if all(type(c) is int for c in terms.values()):
            g = gcd(*terms.values())
            if negative:
                g = -g
            return g, MPoly._raw(self.nvars, {e: c // g for e, c in terms.items()})
        c = Fraction(
            gcd(*(x.numerator for x in terms.values())),
            lcm(*(x.denominator for x in terms.values())),
        )
        if negative:
            c = -c
        prim = {e: _coeff(coeff / c) for e, coeff in terms.items()}
        return _coeff(c), MPoly._raw(self.nvars, prim)

    def evaluate(self, point: Sequence[complex]) -> complex:
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        total = 0j
        for exps, coeff in self.terms.items():
            value = complex(coeff)
            for x, e in zip(point, exps):
                if e:
                    value *= x ** e
            total += value
        return total


def exact_divide(f: MPoly, g: MPoly) -> Optional[MPoly]:
    """Quotient f/g when g divides f exactly, else None."""
    if g.is_zero:
        raise DivisionByZeroPolynomial("division by the zero polynomial")
    if f.nvars != g.nvars:
        raise ValueError("mixing polynomials in different variable counts")
    q = poly_exact_div(f.terms, g.terms)
    return None if q is None else MPoly._raw(f.nvars, q)


def order_along(f: MPoly, p: MPoly) -> int:
    """Largest k with p^k dividing f."""
    if f.is_zero:
        raise ZeroPolynomial("order of the zero polynomial is undefined")
    if p.is_zero or p.is_constant:
        raise ValueError("order is taken along a non-constant polynomial")
    order = 0
    current = f
    while True:
        q = exact_divide(current, p)
        if q is None:
            return order
        order += 1
        current = q


@dataclass(frozen=True)
class HomogeneousWitness:
    """Either the common degree of all monomials or a certificate pair of
    monomials with distinct degrees."""

    degree: Optional[GroupElement]
    offending: Optional[tuple[tuple[int, ...], GroupElement, tuple[int, ...], GroupElement]]

    @property
    def is_homogeneous(self) -> bool:
        return self.offending is None


@dataclass(frozen=True)
class ToricCoxRing:
    """Polynomial ring with one variable per ray, graded by the class group."""

    fan: Fan
    names: tuple[str, ...]
    class_group: FGAbelianGroup
    degrees: tuple[GroupElement, ...]

    @property
    def nvars(self) -> int:
        return len(self.names)

    def variable(self, i: int) -> MPoly:
        return MPoly.variable(self.nvars, i)

    def constant(self, c) -> MPoly:
        return MPoly.constant(self.nvars, c)

    def monomial_degree(self, exps: Sequence[int]) -> GroupElement:
        total = self.class_group.zero()
        for e, d in zip(exps, self.degrees):
            if e:
                total = total + d.scale(e)
        return total

    def parse(self, text: str) -> MPoly:
        return parse_poly(self, text)

    def poly_str(self, f: MPoly) -> str:
        return format_poly(f, self.names)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def build_cox_ring(fan: Fan, names: Sequence[str]) -> ToricCoxRing:
    """Cox ring of a fan, with the class group presented as the cokernel of
    the ray pairing matrix and one graded variable per ray.  Each distinct
    fan and name tuple is built once, Smith form included, and the ring is
    shared between equal ones.

    Args:
        fan: source or target fan; rays index the variables.
        names: variable names, one per ray, distinct identifiers.
    """
    return _cox_ring(fan, tuple(names))


@lru_cache(maxsize=64)
def _cox_ring(fan: Fan, names: tuple[str, ...]) -> ToricCoxRing:
    if len(names) != fan.nrays:
        raise NameCollision(
            "expected %d variable names, got %d" % (fan.nrays, len(names))
        )
    if len(set(names)) != len(names):
        raise NameCollision("variable names repeat")
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise NameCollision("invalid variable name %r" % name)
    pairing = IntMatrix.from_rows(fan.rays, cols=fan.dim)
    group = cokernel(pairing)
    degrees = tuple(
        group.element([1 if i == j else 0 for j in range(fan.nrays)])
        for i in range(fan.nrays)
    )
    return ToricCoxRing(fan, names, group, degrees)


@lru_cache(maxsize=256)
def _degree_cached(ring: ToricCoxRing, f: MPoly) -> HomogeneousWitness:
    items = f.sorted_terms()
    lead_exps = items[0][0]
    lead_deg = ring.monomial_degree(lead_exps)
    for exps, _ in items[1:]:
        deg = ring.monomial_degree(exps)
        if deg != lead_deg:
            return HomogeneousWitness(None, (lead_exps, lead_deg, exps, deg))
    return HomogeneousWitness(lead_deg, None)


def homogeneous_degree(ring: ToricCoxRing, f: MPoly) -> HomogeneousWitness:
    """Degree of f in the class group, or a two-monomial inhomogeneity
    certificate (leading monomial first, then the first offender in
    descending degree-lexicographic order)."""
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no degree")
    return _degree_cached(ring, f)


# ---------------------------------------------------------------------------
# Parsing and printing

# Each nesting level costs the parser four frames; 200 stays under the recursion limit.
_MAX_NESTING = 200

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
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


def parse_poly(ring: ToricCoxRing, text: str) -> MPoly:
    """Parse rationals, ring variables, + - * ^ and parentheses.

    Exponents are nonnegative integer literals; parentheses nest at most
    200 deep.  Raises ParseError with the offending position, or
    UnknownVariable for names outside the ring.
    """
    return _parse_named(tuple(ring.names), text)


def _parse_named(names: tuple[str, ...], text: str) -> MPoly:
    # every rule returns a fresh term dict that its caller may change in
    # place; products go through poly_mul, and the one MPoly is built last
    tokens = _tokenize(text)
    nvars = len(names)
    index = {name: i for i, name in enumerate(names)}
    one = (0,) * nvars
    pos = [0]
    depth = [0]

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

    def parse_expr() -> dict:
        kind, value, _ = peek()
        negate = False
        if kind == "op" and value in "+-":
            advance()
            negate = value == "-"
        result = parse_term()
        if negate:
            result = {e: -c for e, c in result.items()}
        while True:
            kind, value, _ = peek()
            if kind == "op" and value in "+-":
                advance()
                sign = -1 if value == "-" else 1
                for e, c in parse_term().items():
                    s = result.get(e, 0) + sign * c
                    if s:
                        result[e] = s
                    else:
                        del result[e]
            else:
                return result

    def parse_term() -> dict:
        result = parse_factor()
        while True:
            kind, value, _ = peek()
            if kind == "op" and value == "*":
                advance()
                result = poly_mul(result, parse_factor())
            else:
                return result

    def parse_factor() -> dict:
        base = parse_atom()
        kind, value, _ = peek()
        if kind == "op" and value == "^":
            advance()
            kind, value, at = peek()
            if kind != "number" or "/" in value:
                raise ParseError("exponents are nonnegative integers", at)
            advance()
            n = int(value)
            if len(base) == 1:
                ((e, c),) = base.items()
                return {tuple(n * x for x in e): c ** n}
            return (MPoly._raw(nvars, base) ** n).terms
        return base

    def parse_atom() -> dict:
        kind, value, at = advance()
        if kind == "number":
            if "/" in value:
                num, den = (part.strip() for part in value.split("/"))
                if int(den) == 0:
                    raise ParseError("zero denominator", at)
                c = _coeff(Fraction(int(num), int(den)))
            else:
                c = int(value)
            return {one: c} if c else {}
        if kind == "name":
            if value not in index:
                raise UnknownVariable(value, at)
            exps = [0] * nvars
            exps[index[value]] = 1
            return {tuple(exps): 1}
        if kind == "op" and value == "(":
            depth[0] += 1
            if depth[0] > _MAX_NESTING:
                raise ParseError("parentheses nest deeper than %d" % _MAX_NESTING, at)
            inner = parse_expr()
            expect_op(")")
            depth[0] -= 1
            return inner
        raise ParseError("expected a number, variable or parenthesis", at)

    terms = parse_expr()
    kind, _, at = peek()
    if kind != "end":
        raise ParseError("trailing input", at)
    for e, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[e] = c.numerator
    return MPoly._raw(nvars, terms)


def format_poly(f: MPoly, names: Sequence[str]) -> str:
    """Canonical string, terms in descending degree-lexicographic order."""
    if f.is_zero:
        return "0"
    pieces = []
    for i, (exps, coeff) in enumerate(f.sorted_terms()):
        factors = []
        for j, e in enumerate(exps):
            if e == 1:
                factors.append(names[j])
            elif e > 1:
                factors.append("%s^%d" % (names[j], e))
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if i == 0:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append((" + " if coeff > 0 else " - ") + body)
    return "".join(pieces)
