"""The sparse polynomial kernels against sympy's multivariate Poly over QQ."""

import random
from fractions import Fraction

import pytest

from coxmap._kernel_py import poly_exact_div, poly_mul

sympy = pytest.importorskip("sympy")

GENS = sympy.symbols("x0:3")


def random_terms(rng, nvars, max_terms=6, max_exp=4):
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        out[e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    return out


def to_sympy(terms, nvars):
    coeffs = {e: sympy.Rational(c.numerator, c.denominator) for e, c in terms.items()}
    return sympy.Poly.from_dict(coeffs, *GENS[:nvars], domain=sympy.QQ)


def from_sympy(poly):
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.as_dict().items()}


def test_poly_mul_matches_sympy():
    rng = random.Random(404)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        a = random_terms(rng, nvars)
        b = random_terms(rng, nvars)
        expected = from_sympy(to_sympy(a, nvars) * to_sympy(b, nvars))
        assert poly_mul(a, b) == expected


def test_poly_exact_div_matches_sympy():
    rng = random.Random(405)
    exact = inexact = 0
    for _ in range(200):
        nvars = rng.randint(1, 3)
        g = random_terms(rng, nvars)
        if rng.random() < 0.5:
            f = random_terms(rng, nvars)
        else:
            f = poly_mul(random_terms(rng, nvars), g)
        q, r = to_sympy(f, nvars).div(to_sympy(g, nvars))
        got = poly_exact_div(f, g)
        if r.is_zero:
            assert got == from_sympy(q)
            exact += 1
        else:
            assert got is None
            inexact += 1
    assert exact > 50 and inexact > 50


def test_poly_exact_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        poly_exact_div({(0,): Fraction(1)}, {})
