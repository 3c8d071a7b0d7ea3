"""The sparse polynomial kernels against sympy's multivariate Poly over QQ.

Each differential runs on three kinds of coefficients: Fractions (integral
ones included), ints, and a per-term mix of the two.  A quarter of the
operands are single terms, on either side, to cover the monomial shortcut
of ``poly_mul``.
"""

import random
from fractions import Fraction

import pytest

from coxmap._kernel_py import poly_exact_div, poly_mul

sympy = pytest.importorskip("sympy")

GENS = sympy.symbols("x0:3")
KINDS = ("fraction", "int", "mixed")


def random_coeff(rng, kind):
    n = rng.choice([-3, -2, -1, 1, 2, 3])
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return n
    return Fraction(n, rng.randint(1, 4))


def random_terms(rng, nvars, kind, max_terms=6, max_exp=4):
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        out[e] = random_coeff(rng, kind)
    return out


def operand(rng, nvars, kind):
    return random_terms(rng, nvars, kind, max_terms=1 if rng.random() < 0.25 else 6)


def to_sympy(terms, nvars):
    coeffs = {e: sympy.Rational(c.numerator, c.denominator) for e, c in terms.items()}
    return sympy.Poly.from_dict(coeffs, *GENS[:nvars], domain=sympy.QQ)


def from_sympy(poly):
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.as_dict().items()}


def assert_exact(terms, kind):
    for c in terms.values():
        assert type(c) in (int, Fraction)
        if kind == "int":
            assert type(c) is int or c.denominator != 1


def test_poly_mul_matches_sympy():
    for kind in KINDS:
        check_poly_mul(kind)


def check_poly_mul(kind):
    rng = random.Random("mul:" + kind)
    single = 0
    for _ in range(200):
        nvars = rng.randint(1, 3)
        a = operand(rng, nvars, kind)
        b = operand(rng, nvars, kind)
        single += len(a) == 1 or len(b) == 1
        expected = from_sympy(to_sympy(a, nvars) * to_sympy(b, nvars))
        got = poly_mul(a, b)
        assert got == expected
        assert got is not a and got is not b
        assert_exact(got, kind)
    assert single > 50


def test_poly_exact_div_matches_sympy():
    for kind in KINDS:
        check_poly_exact_div(kind)


def check_poly_exact_div(kind):
    rng = random.Random("div:" + kind)
    exact = inexact = fractional = 0
    for _ in range(300):
        nvars = rng.randint(1, 3)
        g = operand(rng, nvars, kind)
        roll = rng.random()
        if roll < 0.4:
            f = operand(rng, nvars, kind)
        elif roll < 0.7:
            f = poly_mul(operand(rng, nvars, kind), g)
        else:
            # g's monomials with unit coefficients: exact for a single-term
            # g, with a non-integral quotient when its coefficient is not 1
            f = poly_mul(operand(rng, nvars, kind), {e: 1 for e in g})
        q, r = to_sympy(f, nvars).div(to_sympy(g, nvars))
        got = poly_exact_div(f, g)
        if r.is_zero:
            assert got == from_sympy(q)
            assert_exact(got, kind)
            exact += 1
            fractional += any(type(c) is Fraction and c.denominator != 1 for c in got.values())
        else:
            assert got is None
            inexact += 1
    assert exact > 80 and inexact > 80 and fractional > 20


def test_poly_exact_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        poly_exact_div({(0,): Fraction(1)}, {})
