"""Multi-valued sections: rational powers of irreducible polynomials.

A section is either zero or sign * (radical scalar) * product p_k^(e_k)
with the p_k normalized irreducible polynomials (integer coefficients,
coefficient gcd one, positive leading coefficient, pairwise distinct) and
the e_k nonzero rationals.  The scalar part is a product of rational powers
of primes, so every section is an exact symbolic object; taking an r-th
power with r the least common denominator of all exponents lands back in
honest rational functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Optional, Sequence

from coxmap.coxring import MPoly, ToricCoxRing, format_poly, homogeneous_degree


class NegativeRadicand(ValueError):
    """A negative rational would acquire a fractional exponent."""


class DivisionByZeroSection(ZeroDivisionError):
    pass


class ZeroToNonpositivePower(ValueError):
    pass


class ZeroSection(ValueError):
    """The zero section was used where a nonzero one is required."""


class InhomogeneousFactor(ValueError):
    pass


@lru_cache(maxsize=256)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of a positive integer by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@dataclass(frozen=True)
class RadicalScalar:
    """sign * product prime^exponent with rational exponents."""

    sign: int
    powers: tuple[tuple[int, Fraction], ...]

    @classmethod
    def one(cls) -> "RadicalScalar":
        return cls(1, ())

    @classmethod
    def make(cls, sign: int, powers: Iterable[tuple[int, Fraction]]) -> "RadicalScalar":
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        merged: dict[int, Fraction] = {}
        for prime, exp in powers:
            if prime < 2:
                raise ValueError("prime bases must be at least 2")
            merged[prime] = merged.get(prime, Fraction(0)) + Fraction(exp)
        cleaned = tuple(sorted((p, e) for p, e in merged.items() if e))
        return cls(sign, cleaned)

    @classmethod
    def from_rational(cls, q) -> "RadicalScalar":
        q = Fraction(q)
        if q == 0:
            raise ZeroSection("the zero rational is not a unit")
        sign = 1 if q > 0 else -1
        powers = [(p, Fraction(e)) for p, e in _factorize(abs(q.numerator))]
        powers += [(p, Fraction(-e)) for p, e in _factorize(q.denominator)]
        return cls.make(sign, powers)

    def __mul__(self, other: "RadicalScalar") -> "RadicalScalar":
        return RadicalScalar.make(self.sign * other.sign, self.powers + other.powers)

    def __truediv__(self, other: "RadicalScalar") -> "RadicalScalar":
        return self * other.inverse()

    def inverse(self) -> "RadicalScalar":
        return RadicalScalar(self.sign, tuple((p, -e) for p, e in self.powers))

    def pow(self, e) -> "RadicalScalar":
        e = Fraction(e)
        if e == 0:
            return RadicalScalar.one()
        if self.sign == -1:
            if e.denominator != 1:
                raise NegativeRadicand("fractional power of a negative rational")
            sign = -1 if e.numerator % 2 else 1
        else:
            sign = 1
        return RadicalScalar.make(sign, ((p, exp * e) for p, exp in self.powers))

    @property
    def root_order(self) -> int:
        return lcm(1, *(e.denominator for _, e in self.powers))

    def as_fraction(self) -> Optional[Fraction]:
        if self.root_order != 1:
            return None
        value = Fraction(self.sign)
        for p, e in self.powers:
            value *= Fraction(p) ** int(e)
        return value

    def value(self) -> float:
        out = float(self.sign)
        for p, e in self.powers:
            out *= float(p) ** float(e)
        return out

    def fractional_part(self) -> "RadicalScalar":
        """Exponents reduced into [0, 1); the sign stays behind."""
        return RadicalScalar.make(1, ((p, e - int(e // 1)) for p, e in self.powers if e.denominator != 1))

    def __str__(self) -> str:
        if not self.powers:
            return "1" if self.sign == 1 else "-1"
        body = "*".join(
            "%d^%s" % (p, e) if e.denominator != 1 or e != 1 else str(p)
            for p, e in self.powers
        )
        return body if self.sign == 1 else "-" + body


@dataclass(frozen=True)
class FactoredSection:
    """Zero, or a radical scalar times a product of rational powers of
    normalized irreducible polynomials.  ``unit is None`` encodes zero."""

    nvars: int
    unit: Optional[RadicalScalar]
    factors: tuple[tuple[MPoly, Fraction], ...]

    @classmethod
    def zero(cls, nvars: int) -> "FactoredSection":
        return cls(nvars, None, ())

    @classmethod
    def one(cls, nvars: int) -> "FactoredSection":
        return cls(nvars, RadicalScalar.one(), ())

    @classmethod
    def from_factors(
        cls,
        nvars: int,
        factors: Iterable[tuple[MPoly, object]],
        unit: Optional[RadicalScalar] = None,
    ) -> "FactoredSection":
        """Normalize raw (polynomial, exponent) pairs into a section.

        Polynomial contents move into the scalar; associate factors merge;
        zero or trivial exponents drop.  A zero polynomial with positive
        exponent collapses the whole section to zero.
        """
        unit = unit if unit is not None else RadicalScalar.one()
        merged: dict[MPoly, Fraction] = {}
        for poly, exp in factors:
            e = Fraction(exp)
            if e == 0:
                continue
            if poly.is_zero:
                if e > 0:
                    return cls.zero(nvars)
                raise ZeroToNonpositivePower("zero polynomial to a nonpositive power")
            content, prim = poly.content_and_primitive()
            unit = unit * RadicalScalar.from_rational(content).pow(e)
            if prim.is_constant:
                continue
            merged[prim] = merged.get(prim, Fraction(0)) + e
        cleaned = tuple(
            sorted(((p, e) for p, e in merged.items() if e), key=lambda t: t[0].sort_key())
        )
        return cls(nvars, unit, cleaned)

    @property
    def is_zero(self) -> bool:
        return self.unit is None

    @property
    def is_one(self) -> bool:
        return self.unit == RadicalScalar.one() and not self.factors

    def exponent_of(self, p: MPoly) -> Fraction:
        for poly, e in self.factors:
            if poly == p:
                return e
        return Fraction(0)

    def factor_polys(self) -> tuple[MPoly, ...]:
        return tuple(p for p, _ in self.factors)

    def __str__(self) -> str:
        return self.to_str(None)

    def to_str(self, names: Optional[Sequence[str]]) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if self.unit != RadicalScalar.one():
            parts.append(str(self.unit))
        for p, e in self.factors:
            body = format_poly(p, names) if names else repr(p)
            if len(p.terms) > 1 or e != 1:
                body = "(%s)" % body
            parts.append(body if e == 1 else "%s^%s" % (body, e))
        return "*".join(parts) if parts else "1"


def section_mul(a: FactoredSection, b: FactoredSection) -> FactoredSection:
    if a.nvars != b.nvars:
        raise ValueError("sections over different variable counts")
    if a.is_zero or b.is_zero:
        return FactoredSection.zero(a.nvars)
    merged: dict[MPoly, Fraction] = dict(a.factors)
    for p, e in b.factors:
        merged[p] = merged.get(p, Fraction(0)) + e
    cleaned = tuple(
        sorted(((p, e) for p, e in merged.items() if e), key=lambda t: t[0].sort_key())
    )
    return FactoredSection(a.nvars, a.unit * b.unit, cleaned)


def section_div(a: FactoredSection, b: FactoredSection) -> FactoredSection:
    if b.is_zero:
        raise DivisionByZeroSection("division by the zero section")
    return section_mul(a, section_pow(b, Fraction(-1)))


def section_pow(a: FactoredSection, e) -> FactoredSection:
    e = Fraction(e)
    if a.is_zero:
        if e > 0:
            return a
        raise ZeroToNonpositivePower("zero section to a nonpositive power")
    if e == 0:
        return FactoredSection.one(a.nvars)
    return FactoredSection(
        a.nvars,
        a.unit.pow(e),
        tuple((p, exp * e) for p, exp in a.factors),
    )


def root_order(a: FactoredSection) -> int:
    """Least r such that a^r has integral exponents throughout."""
    if a.is_zero:
        return 1
    return lcm(a.unit.root_order, *(1,), *(e.denominator for _, e in a.factors))


def section_degree(
    ring: ToricCoxRing, a: FactoredSection
) -> tuple[tuple[Fraction, ...], Optional[object]]:
    """Degree in Cl tensor Q (free part), plus the exact class group element
    when the section is single-valued."""
    if a.is_zero:
        raise ZeroSection("the zero section has no degree")
    free = [Fraction(0)] * ring.class_group.free_rank
    for p, e in a.factors:
        witness = homogeneous_degree(ring, p)
        if not witness.is_homogeneous:
            raise InhomogeneousFactor(
                "factor %s is not homogeneous" % ring.poly_str(p)
            )
        for k, d in enumerate(witness.degree.free):
            free[k] += e * d
    exact = None
    if root_order(a) == 1:
        exact = ring.class_group.zero()
        for p, e in a.factors:
            exact = exact + homogeneous_degree(ring, p).degree.scale(int(e))
    return tuple(free), exact


def fractional_part(a: FactoredSection) -> FactoredSection:
    """Factor and scalar exponents reduced into [0, 1); sign dropped.

    The quotient a / fractional_part(a) has integral exponents everywhere.
    """
    if a.is_zero:
        raise ZeroSection("the zero section has no fractional part")
    frac_factors = tuple(
        (p, e - int(e // 1)) for p, e in a.factors if e.denominator != 1
    )
    return FactoredSection(a.nvars, a.unit.fractional_part(), frac_factors)


def rational_quotient(a: FactoredSection, gamma: FactoredSection) -> tuple[Fraction, tuple[tuple[MPoly, int], ...]]:
    """Write a = gamma * (rational function); requires the quotient to have
    integral exponents, i.e. matching fractional parts."""
    quotient = section_div(a, gamma)
    if root_order(quotient) != 1:
        raise ValueError("fractional parts do not match")
    scalar = quotient.unit.as_fraction()
    return scalar, tuple((p, int(e)) for p, e in quotient.factors)


@dataclass(frozen=True)
class PulledBackSection:
    """A common radical part times a rational function num/den."""

    nvars: int
    radical: FactoredSection
    num: MPoly
    den: MPoly

    @classmethod
    def zero(cls, nvars: int) -> "PulledBackSection":
        return cls(
            nvars,
            FactoredSection.one(nvars),
            MPoly.zero(nvars),
            MPoly.constant(nvars, 1),
        )

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __mul__(self, other: "PulledBackSection") -> "PulledBackSection":
        if self.nvars != other.nvars:
            raise ValueError("sections over different variable counts")
        if self.is_zero or other.is_zero:
            return PulledBackSection.zero(self.nvars)
        combined = section_mul(self.radical, other.radical)
        gamma = fractional_part(combined)
        scalar, overflow = rational_quotient(combined, gamma)
        num = self.num * other.num * MPoly.constant(self.nvars, scalar)
        den = self.den * other.den
        for p, k in overflow:
            if k > 0:
                num = num * p ** k
            else:
                den = den * p ** (-k)
        return PulledBackSection(self.nvars, gamma, num, den)
