"""Ideal pullback against the expand-then-sum reference.

The reference is the earlier formulation of ``pullback_polynomial``: each
surviving target monomial, with its coefficient factored into the radical
scalar, was expanded into a full polynomial before the terms were summed.
The library sums the terms in the factor monoid first and scales them by
the coefficients without factoring them.  On seeded random cases both must
return the same ``PulledBackSection`` or raise the same exception type.

The reference factored coefficients by trial division, which cannot
finish for the 10- to 30-digit primes used here; see ``reference_scalar``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from coxmap.coxring import MPoly, build_cox_ring
from coxmap.descriptions import (
    CoxDescription,
    FractionalPartMismatch,
    pullback_polynomial,
)
from coxmap.sections import (
    FactoredSection,
    PulledBackSection,
    RadicalScalar,
    fractional_part,
    rational_quotient,
    section_mul,
    section_pow,
)
from varieties import affine_space, ring_p1xp1, ring_p2, ring_p3


# ---------------------------------------------------------------------------
# reference


def reference_scalar(q: Fraction) -> RadicalScalar:
    """RadicalScalar.from_rational(q) with trial division stopped at 10^4.

    What is left of the numerator or the denominator stays one base with
    exponent 1 or -1.  A base with an integer exponent changes neither a
    fractional part nor the value of a rational quotient, so the pullback
    is the same as with a full factorization, and the image primes
    (2, 3, 5, 7) are still split off the coefficient.
    """
    powers = []
    for n, sign in ((abs(q.numerator), 1), (q.denominator, -1)):
        p = 2
        while p < 10 ** 4 and p <= n:
            while n % p == 0:
                n //= p
                powers.append((p, Fraction(sign)))
            p += 1
        if n > 1:
            powers.append((n, Fraction(sign)))
    return RadicalScalar.make(1 if q > 0 else -1, powers)


def reference_pullback(d, g) -> PulledBackSection:
    if g.nvars != d.target.nvars:
        raise ValueError("polynomial over the wrong number of target variables")
    nv = d.source.nvars
    terms = []
    for exps, coeff in g.sorted_terms():
        if any(exps[i] and i in d.zero_set for i in range(len(exps))):
            continue
        section = FactoredSection.one(nv)
        for i, e in enumerate(exps):
            if e:
                section = section_mul(section, section_pow(d.images[i], Fraction(e)))
        section = section_mul(
            section,
            FactoredSection(nv, reference_scalar(coeff), ()),
        )
        terms.append(section)
    if not terms:
        return PulledBackSection.zero(nv)
    gamma = fractional_part(terms[0])
    rationals = []
    for section in terms:
        try:
            rationals.append(rational_quotient(section, gamma))
        except ValueError:
            raise FractionalPartMismatch(
                "monomials of %s pull back with different radical parts"
                % d.target.poly_str(g)
            ) from None
    depth: dict[MPoly, int] = {}
    for _, factors in rationals:
        for p, k in factors:
            if k < 0:
                depth[p] = max(depth.get(p, 0), -k)
    den = MPoly.constant(nv, 1)
    for p, k in sorted(depth.items(), key=lambda t: t[0].sort_key()):
        den = den * p ** k
    num = MPoly.zero(nv)
    for scalar, factors in rationals:
        term = MPoly.constant(nv, scalar)
        exps = dict(factors)
        for p in depth:
            exps[p] = exps.get(p, 0) + depth[p]
        for p, k in exps.items():
            if k:
                term = term * p ** k
        num = num + term
    if num.is_zero:
        return PulledBackSection.zero(nv)
    return PulledBackSection(nv, gamma, num, den)


# ---------------------------------------------------------------------------
# random cases


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twenty primes as bases: exact below
    3.3e24 and a probable prime above."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, digits: int) -> int:
    while True:
        n = rng.randrange(10 ** (digits - 1), 10 ** digits)
        if _is_prime(n):
            return n


def _coefficient(rng: random.Random) -> Fraction:
    """A small rational, a 10- to 30-digit prime or a small integer over
    such a prime, with a random sign."""
    sign = rng.choice((1, -1))
    kind = rng.random()
    if kind < 0.4:
        return sign * Fraction(rng.randint(1, 12), rng.randint(1, 12))
    p = random_prime(rng, rng.randint(10, 30))
    if kind < 0.8:
        return Fraction(sign * p)
    return Fraction(sign * rng.randint(1, 6), p)


def _form(rng, ring, degree):
    """A random form of the given total degree with at least two terms."""
    while True:
        f = MPoly.zero(ring.nvars)
        for _ in range(rng.randint(2, 3)):
            exps = [0] * ring.nvars
            for _ in range(degree):
                exps[rng.randrange(ring.nvars)] += 1
            f = f + MPoly.monomial(ring.nvars, exps, rng.choice((-3, -2, -1, 1, 2, 3)))
        if len(f.terms) >= 2:
            return f.content_and_primitive()[1]


def _unit(rng) -> RadicalScalar:
    """Sign and prime scalars with exponents in quarters."""
    powers = [
        (p, Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 4)), 4))
        for p in rng.sample((2, 3, 5, 7), rng.randint(0, 2))
    ]
    if any(e.denominator != 1 for _, e in powers):
        return RadicalScalar.make(1, powers)
    return RadicalScalar.make(rng.choice((1, -1)), powers)


def _segre(rng, source):
    """Images (AB, AC, DB, DC) times a common radical section; forms may
    coincide, so factors are shared within an image as well as across."""
    pool = [_form(rng, source, rng.randint(1, 2)) for _ in range(3)]
    a, b, c, dd = (rng.choice(pool) for _ in range(4))
    r = Fraction(rng.choice((1, 1, 2, 3, -1, -2)), rng.choice((1, 2, 4)))
    common = [(rng.choice(pool), r)] if rng.random() < 0.5 else []
    unit = _unit(rng)
    images = [
        FactoredSection.from_factors(source.nvars, [(p, 1), (q, 1)] + common, unit)
        for p, q in ((a, b), (a, c), (dd, b), (dd, c))
    ]
    target = ring_p3()
    relation = target.parse("z0*z3 - z1*z2")
    return CoxDescription(source, target, images), relation


def _veronese(rng, source):
    """Images (A^2, AB, B^2) with rational or fractional exponents k/2."""
    a, b = _form(rng, source, 1), _form(rng, source, 2)
    s = Fraction(rng.choice((1, 1, -1, 1, 3)), rng.choice((1, 2)))
    unit = _unit(rng)
    images = [
        FactoredSection.from_factors(source.nvars, [(p, s), (q, s)], unit)
        for p, q in ((a, a), (a, b), (b, b))
    ]
    target = ring_p2(("w0", "w1", "w2"))
    relation = target.parse("w0*w2 - w1^2")
    return CoxDescription(source, target, images), relation


def _random_images(rng, source):
    """Two to four coordinates with fourth-root units, fractional and
    negative exponents and zero images: radical parts may not match."""
    n = rng.randint(2, 4)
    target = build_cox_ring(affine_space(n), tuple("y%d" % i for i in range(n)))
    pool = [_form(rng, source, 1) for _ in range(3)]
    images = []
    for _ in range(n):
        if rng.random() < 0.2:
            images.append(FactoredSection.zero(source.nvars))
            continue
        factors = [
            (p, Fraction(rng.choice((-2, -1, 1, 1, 2, 3)), rng.choice((1, 1, 2, 4))))
            for p in rng.sample(pool, rng.randint(1, 2))
        ]
        images.append(FactoredSection.from_factors(source.nvars, factors, _unit(rng)))
    return CoxDescription(source, target, images), None


def _monomial(rng, ring, degree):
    exps = [0] * ring.nvars
    for _ in range(degree):
        exps[rng.randrange(ring.nvars)] += 1
    return MPoly.monomial(ring.nvars, exps)


def _generator(rng, d, relation):
    """A form that combines multiples of the relation, plus random
    monomials of the same degree when there is no relation or for a
    perturbation; mostly homogeneous, so radical parts mostly match."""
    target = d.target
    g = MPoly.zero(target.nvars)
    k = rng.randint(0, 2)
    if relation is not None:
        for _ in range(rng.randint(1, 3)):
            m = _monomial(rng, target, k)
            g = g + relation * m * MPoly.constant(target.nvars, _coefficient(rng))
        k += 2
    if relation is None or rng.random() < 0.4:
        for _ in range(rng.randint(1, 3)):
            degree = max(k, 1) if rng.random() < 0.8 else rng.randint(1, 3)
            m = _monomial(rng, target, degree)
            g = g + m * MPoly.constant(target.nvars, _coefficient(rng))
    return g


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return type(exc)


def test_pullbacks_match_reference():
    rng = random.Random(31)
    sources = [ring_p2(), ring_p1xp1()]
    kinds = [_segre, _veronese, _random_images]
    outcomes = {"zero": 0, "nonzero": 0, "mismatch": 0, "radical": 0}
    for _ in range(240):
        d, relation = rng.choice(kinds)(rng, rng.choice(sources))
        g = _generator(rng, d, relation)
        got = _outcome(lambda: pullback_polynomial(d, g))
        expected = _outcome(lambda: reference_pullback(d, g))
        assert got == expected, (d.images, g)
        if got is FractionalPartMismatch:
            outcomes["mismatch"] += 1
        elif isinstance(got, PulledBackSection):
            outcomes["zero" if got.is_zero else "nonzero"] += 1
            if not got.radical.is_one:
                outcomes["radical"] += 1
    assert outcomes["zero"] >= 40, outcomes
    assert outcomes["nonzero"] >= 40, outcomes
    assert outcomes["mismatch"] >= 10, outcomes
    assert outcomes["radical"] >= 20, outcomes


def test_cancelled_terms_keep_their_denominator():
    # x/y - x/y + 1 over y: the cancelled pair still sets den = y
    ring = ring_p2()
    x, y = ring.parse("x1"), ring.parse("x2")
    images = [
        FactoredSection.from_factors(3, [(x, 1), (y, -1)]),
        FactoredSection.from_factors(3, [(x, 1), (y, -1)]),
        FactoredSection.one(3),
    ]
    target = build_cox_ring(affine_space(3), ("y0", "y1", "y2"))
    d = CoxDescription(ring, target, images)
    g = target.parse("y0 - y1 + y2")
    pb = pullback_polynomial(d, g)
    assert pb == reference_pullback(d, g)
    assert pb.num == y and pb.den == y
