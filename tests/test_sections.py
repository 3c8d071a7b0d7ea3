from __future__ import annotations

import random
from fractions import Fraction

import pytest

from coxmap import sections as sections_module
from coxmap.coxring import MPoly
from coxmap.sections import (
    DivisionByZeroSection,
    FactoredSection,
    NegativeRadicand,
    PulledBackSection,
    RadicalScalar,
    ZeroSection,
    ZeroToNonpositivePower,
    fractional_part,
    rational_quotient,
    root_order,
    section_degree,
    section_div,
    section_mul,
    section_pow,
)
from varieties import ring_p2, ring_quarter_quotient


def sec(ring, spec, unit=None):
    """Build a section from (polynomial string, exponent) pairs."""
    return FactoredSection.from_factors(
        ring.nvars, [(ring.parse(s), Fraction(e)) for s, e in spec], unit=unit
    )


def test_radical_scalar_factorization():
    r = RadicalScalar.from_rational(Fraction(12, 5))
    assert r.sign == 1
    assert r.powers == ((2, Fraction(2)), (3, Fraction(1)), (5, Fraction(-1)))
    assert r.as_fraction() == Fraction(12, 5)
    assert RadicalScalar.from_rational(-2).pow(3).as_fraction() == -8


def test_factorization_cache_is_bounded():
    bound = sections_module._factorize.cache_info().maxsize
    assert bound is not None
    for k in range(bound + 20):
        n = 6 * (k + 1)
        assert RadicalScalar.from_rational(Fraction(n)).as_fraction() == n
    assert sections_module._factorize.cache_info().currsize <= bound


def test_radical_scalar_roots():
    r = RadicalScalar.from_rational(2).pow(Fraction(1, 2))
    assert r.root_order == 2
    assert r.as_fraction() is None
    assert abs(r.value() - 2 ** 0.5) < 1e-12
    with pytest.raises(NegativeRadicand):
        RadicalScalar.from_rational(-2).pow(Fraction(1, 2))


def test_radical_scalar_fractional_part():
    r = RadicalScalar.from_rational(8).pow(Fraction(1, 2))  # 2^(3/2)
    frac = r.fractional_part()
    assert frac.powers == ((2, Fraction(1, 2)),)
    assert (r / frac).as_fraction() == 2


def test_section_normalization_moves_content():
    p2 = ring_p2()
    s = sec(p2, [("2*x0 + 2*x1", 1)])
    assert s.unit.as_fraction() == 2
    assert [p2.poly_str(p) for p in s.factor_polys()] == ["x0 + x1"]
    t = sec(p2, [("-x0", 2)])
    assert t.unit.as_fraction() == 1
    u = sec(p2, [("-x0", 3)])
    assert u.unit.as_fraction() == -1


def test_section_zero_rules():
    p2 = ring_p2()
    zero = FactoredSection.zero(3)
    s = sec(p2, [("x0", 1)])
    assert section_mul(zero, s).is_zero
    assert section_pow(zero, Fraction(2)).is_zero
    with pytest.raises(ZeroToNonpositivePower):
        section_pow(zero, Fraction(-1))
    with pytest.raises(DivisionByZeroSection):
        section_div(s, zero)
    assert FactoredSection.from_factors(3, [(MPoly.zero(3), Fraction(1, 2))]).is_zero


def test_section_algebra():
    p2 = ring_p2()
    a = sec(p2, [("x0", Fraction(3, 2)), ("x1", -1)])
    b = sec(p2, [("x0", Fraction(1, 2)), ("x2", 2)])
    ab = section_mul(a, b)
    assert ab.exponent_of(p2.parse("x0")) == 2
    assert ab.exponent_of(p2.parse("x1")) == -1
    assert ab.exponent_of(p2.parse("x2")) == 2
    quot = section_div(ab, b)
    assert quot == a
    inv = section_pow(a, Fraction(-1))
    assert section_mul(a, inv).is_one


def test_root_order():
    p2 = ring_p2()
    assert root_order(sec(p2, [("x0", 1)])) == 1
    assert root_order(sec(p2, [("x0", Fraction(3, 2))])) == 2
    assert root_order(sec(p2, [("x0", Fraction(1, 2)), ("x1", Fraction(1, 3))])) == 6
    unit = RadicalScalar.from_rational(2).pow(Fraction(1, 2))
    assert root_order(sec(p2, [("x0", 1)], unit=unit)) == 2
    assert root_order(FactoredSection.zero(3)) == 1


def test_section_degree():
    p2 = ring_p2()
    a = sec(p2, [("x0", Fraction(3, 2)), ("x1", -1)])
    free, exact = section_degree(p2, a)
    assert free == (Fraction(1, 2),)
    assert exact is None
    b = sec(p2, [("x0 + x1", 1), ("x2", -1)])
    free, exact = section_degree(p2, b)
    assert free == (0,) and exact is not None and exact.is_zero
    with pytest.raises(ZeroSection):
        section_degree(p2, FactoredSection.zero(3))


def test_section_degree_torsion():
    quarter = ring_quarter_quotient()
    s = sec(quarter, [("y1", 1)])
    free, exact = section_degree(quarter, s)
    assert free == () and exact.torsion == (1,)


def test_fractional_part_and_rational_quotient():
    p2 = ring_p2()
    a = sec(p2, [("x0", Fraction(3, 2)), ("x1", -1)])
    gamma = fractional_part(a)
    assert gamma.exponent_of(p2.parse("x0")) == Fraction(1, 2)
    assert gamma.exponent_of(p2.parse("x1")) == 0
    scalar, factors = rational_quotient(a, gamma)
    assert scalar == 1
    assert dict((p2.poly_str(p), e) for p, e in factors) == {"x0": 1, "x1": -1}
    with pytest.raises(ValueError):
        rational_quotient(sec(p2, [("x1", Fraction(1, 2))]), gamma)


def test_section_pow_round_trip_random():
    rng = random.Random(43)
    p2 = ring_p2()
    pool = ["x0", "x1", "x2", "x0 + x1", "x1 - x2"]
    for _ in range(250):
        spec = [
            (rng.choice(pool), Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            for _ in range(rng.randint(1, 3))
        ]
        s = sec(p2, spec)
        if s.is_zero:
            continue
        e = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert section_pow(section_pow(s, e), 1 / e) == s
        r = root_order(s)
        powered = section_pow(s, Fraction(r))
        assert root_order(powered) == 1


def test_pulled_back_section_product():
    p2 = ring_p2()
    half_x0 = PulledBackSection(
        3, sec(p2, [("x0", Fraction(1, 2))]), p2.parse("x1"), p2.parse("x2")
    )
    other = PulledBackSection(
        3, sec(p2, [("x0", Fraction(1, 2))]), p2.parse("x1 + x2"), p2.constant(1)
    )
    prod = half_x0 * other
    assert prod.radical.is_one
    assert prod.num == p2.parse("x0*x1") * p2.parse("x1 + x2")
    assert prod.den == p2.parse("x2")
    assert (half_x0 * PulledBackSection.zero(3)).is_zero
