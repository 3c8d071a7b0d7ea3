from __future__ import annotations

import random
from fractions import Fraction

import pytest

from coxmap.coxring import (
    DivisionByZeroPolynomial,
    MPoly,
    NameCollision,
    ParseError,
    UnknownVariable,
    ZeroPolynomial,
    _degree_cached,
    build_cox_ring,
    exact_divide,
    format_poly,
    homogeneous_degree,
    order_along,
    parse_poly,
)
from varieties import (
    product_of_lines,
    projective_plane,
    quarter_plane_quotient,
    ring_affine_line,
    ring_p1xp1,
    ring_p2,
    ring_quarter_quotient,
)


def random_poly(rng: random.Random, nvars: int, max_terms=4, max_exp=3) -> MPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if coeff:
            terms[exps] = coeff
    return MPoly(nvars, terms)


def test_build_cox_ring_gradings():
    p2 = ring_p2()
    assert p2.class_group.free_rank == 1 and p2.class_group.torsion == ()
    assert [d.free for d in p2.degrees] == [(1,), (1,), (1,)]

    p1xp1 = ring_p1xp1()
    assert p1xp1.class_group.free_rank == 2
    assert [d.free for d in p1xp1.degrees] == [(1, 0), (1, 0), (0, 1), (0, 1)]

    quarter = ring_quarter_quotient()
    assert quarter.class_group.free_rank == 0
    assert quarter.class_group.torsion == (2,)
    assert [d.torsion for d in quarter.degrees] == [(1,), (1,)]

    line = ring_affine_line()
    assert line.class_group.is_trivial


def test_build_cox_ring_name_validation():
    fan = projective_plane()
    with pytest.raises(NameCollision):
        build_cox_ring(fan, ("x", "x", "y"))
    with pytest.raises(NameCollision):
        build_cox_ring(fan, ("x", "y"))
    with pytest.raises(NameCollision):
        build_cox_ring(fan, ("x", "y", "2z"))


def test_homogeneous_degree_examples():
    p2 = ring_p2()
    f = p2.parse("x0^2*x1 - 2*x2^3")
    witness = homogeneous_degree(p2, f)
    assert witness.is_homogeneous and witness.degree.free == (3,)

    bad = p2.parse("x0 + x1^2")
    witness = homogeneous_degree(p2, bad)
    assert not witness.is_homogeneous
    lead_exps, lead_deg, other_exps, other_deg = witness.offending
    assert lead_exps == (0, 2, 0) and lead_deg.free == (2,)
    assert other_exps == (1, 0, 0) and other_deg.free == (1,)

    with pytest.raises(ZeroPolynomial):
        homogeneous_degree(p2, p2.zero_poly())


def test_degree_cache_is_bounded():
    p2 = ring_p2()
    bound = _degree_cached.cache_info().maxsize
    assert bound is not None
    for k in range(1, bound + 20):
        witness = homogeneous_degree(p2, p2.parse("x0^%d - x1^%d" % (k, k)))
        assert witness.degree.free == (k,)
    assert _degree_cached.cache_info().currsize <= bound


def test_homogeneous_degree_torsion_grading():
    quarter = ring_quarter_quotient()
    f = quarter.parse("y1^2 + y1*y2")
    witness = homogeneous_degree(quarter, f)
    assert witness.is_homogeneous and witness.degree.is_zero
    mixed = quarter.parse("y1 + y1*y2")
    assert not homogeneous_degree(quarter, mixed).is_homogeneous


def test_exact_divide_examples():
    p2 = ring_p2()
    f = p2.parse("x0^2 - x1^2")
    g = p2.parse("x0 - x1")
    q = exact_divide(f, g)
    assert q == p2.parse("x0 + x1")
    assert exact_divide(f, p2.parse("x0 + x2")) is None
    assert exact_divide(p2.zero_poly(), g) == p2.zero_poly()
    with pytest.raises(DivisionByZeroPolynomial):
        exact_divide(f, p2.zero_poly())


def test_exact_divide_random_roundtrip():
    rng = random.Random(31)
    for _ in range(250):
        nvars = rng.randint(1, 3)
        g = random_poly(rng, nvars)
        q = random_poly(rng, nvars)
        if g.is_zero or q.is_zero:
            continue
        f = g * q
        assert exact_divide(f, g) == q
        # adding a fresh non-multiple breaks exactness
        probe = f + MPoly.constant(nvars, 1)
        if exact_divide(probe, g) is not None:
            assert exact_divide(probe, g) * g == probe


def test_order_along_examples():
    p2 = ring_p2()
    x2 = p2.variable(2)
    f = p2.parse("x0*x2^3 + x1*x2^3")
    assert order_along(f, x2) == 3
    assert order_along(f, p2.parse("x0 + x1")) == 1
    assert order_along(f, p2.parse("x0 - x1")) == 0
    with pytest.raises(ZeroPolynomial):
        order_along(p2.zero_poly(), x2)
    with pytest.raises(ValueError):
        order_along(f, p2.constant(3))


def test_order_along_additivity():
    rng = random.Random(37)
    p2 = ring_p2()
    x0 = p2.variable(0)
    for _ in range(200):
        a = rng.randint(0, 3)
        rest = random_poly(rng, 3)
        if rest.is_zero or order_along(rest, x0) != 0:
            continue
        f = (x0 ** a) * rest
        assert order_along(f, x0) == a


def test_parser_round_trip_examples():
    p2 = ring_p2()
    f = p2.parse("3*x0^2*x1 - 2*x2^3")
    assert p2.poly_str(f) == "3*x0^2*x1 - 2*x2^3"
    assert p2.parse(p2.poly_str(f)) == f
    assert p2.poly_str(p2.parse("x1 + x0")) == "x0 + x1"
    assert p2.poly_str(p2.parse("0")) == "0"
    assert p2.parse("1/2*x0 - (x1 - x2)^2") == p2.parse("1/2*x0 - x1^2 + 2*x1*x2 - x2^2")
    assert p2.poly_str(p2.parse("-x0 + 1/3")) == "-x0 + 1/3"


def test_parser_round_trip_random():
    rng = random.Random(41)
    p1xp1 = ring_p1xp1()
    for _ in range(250):
        f = random_poly(rng, 4)
        assert p1xp1.parse(p1xp1.poly_str(f)) == f


def test_parser_errors_carry_positions():
    p2 = ring_p2()
    with pytest.raises(ParseError) as err:
        p2.parse("x0 + ")
    assert err.value.position == 5
    with pytest.raises(UnknownVariable) as err:
        p2.parse("x0 * w1")
    assert err.value.position == 5 and err.value.name == "w1"
    with pytest.raises(ParseError):
        p2.parse("x0 ^ -1")
    with pytest.raises(ParseError):
        p2.parse("x0^1/2")
    with pytest.raises(ParseError):
        p2.parse("(x0 + x1")
    with pytest.raises(ParseError):
        p2.parse("x0 @ x1")
    with pytest.raises(ParseError):
        p2.parse("1/0")


def test_content_and_primitive():
    p2 = ring_p2()
    f = p2.parse("1/2*x0 - 3/4*x1")
    c, prim = f.content_and_primitive()
    assert c * prim == f
    assert prim.leading_coeff() > 0
    nums = [abs(x.numerator) for x in prim.terms.values()]
    dens = {x.denominator for x in prim.terms.values()}
    assert dens == {1}
    from math import gcd
    assert gcd(*nums) == 1


def random_int_poly(rng: random.Random, nvars: int, max_terms=4, max_exp=3) -> MPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[exps] = rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6])
    return MPoly(nvars, terms)


def assert_exact(f: MPoly):
    for c in f.terms.values():
        assert type(c) in (int, Fraction), f


def assert_int_where_integral(f: MPoly):
    for c in f.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), f


def test_arithmetic_never_makes_float_coefficients():
    rng = random.Random(43)
    makers = (random_poly, random_int_poly)
    orders = 0
    for _ in range(300):
        f = rng.choice(makers)(rng, 3)
        g = rng.choice(makers)(rng, 3)
        for h in (f + g, f - g, f * g, g ** rng.randint(0, 3), -f, 2 - f, f * 3):
            assert_exact(h)
        if not f.is_zero:
            content, prim = f.content_and_primitive()
            assert type(content) in (int, Fraction)
            assert_exact(prim)
            assert all(type(c) is int for c in prim.terms.values())
        if not g.is_zero:
            for divisor in (g, MPoly.constant(3, rng.choice([2, 3, Fraction(2, 3)]))):
                q = exact_divide(f * divisor, divisor)
                assert q == f
                assert_exact(q)
                probe = exact_divide(f + 1, divisor)
                if probe is not None:
                    assert_exact(probe)
        if not f.is_zero and not g.is_constant:
            k = rng.randint(0, 2)
            order = order_along(f * g ** k, g)
            assert type(order) is int and order >= k
            orders += 1
    assert orders > 100


def test_integral_coefficients_are_ints():
    p2 = ring_p2()
    parsed = p2.parse("2/2*x0 + 4/2 + 1/2 + 1/2 - 3/9*x1 + (1/3*x1)^2 - 1/9*x1^2 + (1/2*x2)*2")
    assert parsed.terms == {(1, 0, 0): 1, (0, 0, 0): 3, (0, 1, 0): Fraction(-1, 3), (0, 0, 1): 1}
    assert_int_where_integral(parsed)
    assert type(parsed.terms[(0, 0, 0)]) is int
    built = [
        MPoly(3, {(1, 0, 0): Fraction(4, 2), (0, 0, 0): 2.0, (0, 1, 0): True}),
        MPoly.constant(3, Fraction(6, 3)),
        MPoly.variable(3, 1),
        MPoly.monomial(3, (0, 0, 2), Fraction(-8, 4)),
        p2.constant(5),
        p2.variable(2),
    ]
    for f in built:
        assert f.terms and all(type(c) is int for c in f.terms.values()), f
    for text in ("6*x0 - 4*x1", "1/2*x0 - 3/4*x1", "-3/2*x0^2 + 9/4*x2"):
        content, prim = p2.parse(text).content_and_primitive()
        assert all(type(c) is int for c in prim.terms.values())
        assert type(content) is int or content.denominator != 1
        assert MPoly.constant(3, content) * prim == p2.parse(text)
    assert p2.parse("6*x0 - 4*x1").content_and_primitive()[0] == 2
    assert type(MPoly(3, {(1, 0, 0): Fraction(-6)}).content_and_primitive()[0]) is int


def test_exact_division_by_an_integer_keeps_fractions_exact():
    p2 = ring_p2()
    q = exact_divide(p2.parse("2*x0 + 1"), p2.constant(2))
    assert q.terms == {(1, 0, 0): 1, (0, 0, 0): Fraction(1, 2)}
    assert type(q.terms[(1, 0, 0)]) is int
    assert type(q.terms[(0, 0, 0)]) is Fraction


def test_integral_fraction_coefficient_equals_and_hashes_like_int():
    as_fraction = MPoly._raw(3, {(1, 0, 0): Fraction(3), (0, 0, 0): Fraction(1, 2)})
    as_int = MPoly(3, {(1, 0, 0): 3, (0, 0, 0): Fraction(1, 2)})
    assert type(as_int.terms[(1, 0, 0)]) is int
    assert as_fraction == as_int and hash(as_fraction) == hash(as_int)
    assert as_fraction.sort_key() == as_int.sort_key()
    assert len({as_fraction, as_int}) == 1
    p2 = ring_p2()
    assert homogeneous_degree(p2, as_fraction) == homogeneous_degree(p2, as_int)


def test_sort_key_is_computed_once():
    rng = random.Random(3)
    for _ in range(20):
        f = random_poly(rng, 3)
        key = f.sort_key()
        assert f.sort_key() is key
        # a fresh copy of the terms gives an equal key, built anew
        g = MPoly(3, dict(f.terms))
        assert g.sort_key() == key and g.sort_key() is not key


def test_monomial_degrees_in_torsion_group():
    quarter = ring_quarter_quotient()
    assert quarter.monomial_degree((1, 1)).is_zero
    assert quarter.monomial_degree((2, 0)).is_zero
    assert quarter.monomial_degree((1, 0)).torsion == (1,)
    assert quarter.rational_monomial_degree((Fraction(3, 2), Fraction(1, 2))) == ()


def test_rational_monomial_degree_free_part():
    p2 = ring_p2()
    assert p2.rational_monomial_degree((Fraction(1, 2), 0, Fraction(1, 2))) == (1,)
