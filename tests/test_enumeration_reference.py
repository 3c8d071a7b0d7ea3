"""Pattern and branch enumeration against the product-based reference.

The reference is the earlier formulation: ``regularity_report`` ran
``itertools.product`` over one factor set per target maximal cone and kept
the distinct minimal choice sets, and ``evaluate_description`` walked every
combination of d-th root phases, one per slot.  The library computes the
minimal transversals with Berge's algorithm and the branch phases as the
subgroup generated by the slot columns; on seeded random small cases the
pattern lists must be identical and the value sets must agree within tol.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from coxmap import descriptions
from coxmap.coxring import build_cox_ring
from coxmap.descriptions import (
    CoxDescription,
    NonIntegralL,
    NonTermination,
    ZeroConeNotInFan,
    _minimal_transversals,
    complete,
    regularity_report,
)
from coxmap.oracle import OnPole, ValueSet, _unit_root, evaluate_description
from coxmap.sections import FactoredSection, RadicalScalar
from varieties import (
    affine_space,
    hirzebruch_surface,
    ring_line_power,
    ring_p2,
)


# ---------------------------------------------------------------------------
# references


class TooLarge(Exception):
    """The reference would walk too many choices for a unit test."""


def reference_minimal_choice_sets(factor_sets, limit=20000):
    if math.prod(len(s) for s in factor_sets) > limit:
        raise TooLarge
    patterns = []
    for choice in itertools.product(*factor_sets):
        pattern = frozenset(choice)
        if pattern not in patterns:
            patterns.append(pattern)
    return [p for p in patterns if not any(q < p for q in patterns)]


def reference_evaluate(d, point, tol=1e-9):
    point = tuple(complex(z) for z in point)
    n = d.target.nvars
    values, exps, index = [], [], {}

    def slot(key, value):
        if key not in index:
            index[key] = len(values)
            values.append(complex(value))
            exps.append([Fraction(0)] * n)
        return index[key]

    signs = [1] * n
    for i, img in enumerate(d.images):
        if img.is_zero:
            continue
        signs[i] = img.unit.sign
        for p, e in img.factors:
            exps[slot(("factor", p), p.evaluate(point))][i] += e
        for prime, e in img.unit.powers:
            exps[slot(("prime", prime), complex(prime))][i] += e
    order = 1
    for row in exps:
        for e in row:
            order = math.lcm(order, e.denominator)
    for value, row in zip(values, exps):
        if abs(value) <= tol and any(e < 0 for e in row):
            raise OnPole("a factor with negative exponent vanishes at the point")
    roots = [value ** (1.0 / order) for value in values]
    numerators = [[int(e * order) for e in row] for row in exps]
    base = []
    for i in range(n):
        if i in d.zero_set:
            base.append(0j)
            continue
        acc = complex(signs[i])
        for r, nums in zip(roots, numerators):
            if nums[i]:
                acc *= r ** nums[i]
        base.append(acc)
    varying = [k for k in range(len(values)) if any(x % order for x in numerators[k])]
    tuples = []
    for combo in itertools.product(range(order), repeat=len(varying)):
        out = []
        for i in range(n):
            if i in d.zero_set:
                out.append(0j)
                continue
            phase = sum(j * numerators[k][i] for j, k in zip(combo, varying)) % order
            out.append(base[i] * _unit_root(phase, order))
        candidate = tuple(out)
        if not any(
            max(abs(a - b) for a, b in zip(candidate, kept)) <= tol for kept in tuples
        ):
            tuples.append(candidate)
    tuples.sort(key=lambda t: tuple((z.real, z.imag) for z in t))
    return ValueSet(point, tuple(tuples), order)


# ---------------------------------------------------------------------------
# regularity patterns


def test_minimal_transversals_match_reference_on_random_hypergraphs():
    rng = random.Random(4)
    for _ in range(400):
        vertices = rng.randint(1, 8)
        edges = [
            rng.sample(range(vertices), rng.randint(1, min(4, vertices)))
            for _ in range(rng.randint(0, 6))
        ]
        got = _minimal_transversals(edges)
        assert len(got) == len(set(got))
        assert set(got) == set(reference_minimal_choice_sets(edges)), edges
    assert _minimal_transversals([]) == [frozenset()]
    assert _minimal_transversals([[1, 2], []]) == []


def _forms(ring, rng, degree):
    """Random homogeneous forms of total degree ``degree`` in the variables,
    one per class-group degree with at least two monomials."""
    by_degree = {}
    for exps in itertools.combinations_with_replacement(range(ring.nvars), degree):
        key = tuple(
            sum(ring.degrees[i].free[k] for i in exps)
            for k in range(len(ring.degrees[0].free))
        )
        by_degree.setdefault(key, []).append(exps)
    forms = []
    for monomials in by_degree.values():
        if len(monomials) < 2:
            continue
        chosen = rng.sample(monomials, rng.randint(2, min(3, len(monomials))))
        text = " + ".join(
            "%d*%s" % (rng.randint(1, 9), "*".join(ring.names[i] for i in m))
            for m in chosen
        )
        forms.append(ring.parse(text))
    return forms


def _random_description(rng, source, target):
    pool = [source.parse(n) for n in source.names]
    pool += _forms(source, rng, 1) + _forms(source, rng, 2)
    most = 1 if len(target.fan.max_cones) > 4 else 2
    images = []
    for _ in range(target.nvars):
        if rng.random() < 0.12:
            images.append(FactoredSection.zero(source.nvars))
            continue
        factors = [
            (p, Fraction(rng.choice((1, 1, 1, 2, -1))))
            for p in rng.sample(pool, rng.randint(1, most))
        ]
        images.append(FactoredSection.from_factors(source.nvars, factors))
    return CoxDescription(source, target, images)


def test_regularity_patterns_match_reference(monkeypatch):
    rng = random.Random(17)
    f1 = build_cox_ring(hirzebruch_surface(1), ("a", "b", "c", "e"))
    rings = [ring_p2(), ring_line_power(2), ring_line_power(3), f1]
    compared = skipped = 0
    for _ in range(240):
        source, target = rng.choice(rings), rng.choice(rings)
        d = _random_description(rng, source, target)
        try:
            done, _ = complete(d)
            report = regularity_report(done)
        except (ZeroConeNotInFan, NonIntegralL, NonTermination):
            continue
        with monkeypatch.context() as m:
            m.setattr(descriptions, "_minimal_transversals", reference_minimal_choice_sets)
            try:
                expected = regularity_report(done)
            except TooLarge:
                skipped += 1
                continue
        assert report == expected, done
        compared += 1
    assert compared >= 150 and skipped <= 20, (compared, skipped)


# ---------------------------------------------------------------------------
# branch values


def _affine_forms(ring, rng, count):
    out = []
    while len(out) < count:
        a, b, c = (rng.choice([k for k in range(-9, 10) if k]) for _ in range(3))
        _, p = ring.parse(
            "%d*x %s %d*y %s %d" % (a, "+-"[b < 0], abs(b), "+-"[c < 0], abs(c))
        ).content_and_primitive()
        if all(p != q for q in out):
            out.append(p)
    return out


def _section(nvars, factors, sign=1, scalars=()):
    unit = RadicalScalar.make(sign, [(p, Fraction(e)) for p, e in scalars])
    return FactoredSection.from_factors(nvars, factors, unit=unit)


def _radical_pairs(rng, source, pairs):
    """Fourth roots of ``pairs`` forms in each of y1 and y2, balanced in y0:
    16 branches however many pairs there are."""
    forms = _affine_forms(source, rng, 2 * pairs + 2)
    g, a, b = forms[:2], forms[2:2 + pairs], forms[2 + pairs:]
    q = Fraction(1, 4)
    images = [
        _section(2, [(g[0], 1), (g[1], -1)] + [(p, -q) for p in a + b]),
        _section(2, [(p, q) for p in a]),
        _section(2, [(p, q) for p in b]),
    ]
    target = build_cox_ring(affine_space(3), ("y0", "y1", "y2"))
    return CoxDescription(source, target, images)


def _random_radical(rng, source):
    """Two to four target coordinates with random rational exponents (root
    orders up to 6), scalar roots, signs and zero images."""
    n = rng.randint(2, 4)
    target = build_cox_ring(affine_space(n), tuple("y%d" % i for i in range(n)))
    forms = _affine_forms(source, rng, 3)
    denominators = rng.choice([(1, 2), (1, 2, 4), (1, 3), (2, 3)])
    images = []
    for _ in range(n):
        if rng.random() < 0.15:
            images.append(FactoredSection.zero(2))
            continue
        factors = [
            (p, Fraction(rng.choice((-2, -1, 1, 1, 2, 3)), rng.choice(denominators)))
            for p in rng.sample(forms, rng.randint(1, 2))
        ]
        scalars = []
        if rng.random() < 0.4:
            scalars.append((rng.choice((2, 3, 5)), Fraction(1, rng.choice(denominators))))
        images.append(_section(2, factors, rng.choice((1, -1)), scalars))
    return CoxDescription(source, target, images)


def _near_pole_point(rng, d, offset):
    """A point at distance ``offset`` from the zero line of a factor that
    some image carries with a negative exponent, or None."""
    poles = [p for img in d.images if not img.is_zero for p, e in img.factors if e < 0]
    if not poles:
        return None
    p = rng.choice(poles)
    terms = dict(p.terms)
    a = Fraction(terms.get((1, 0), 0))
    b = Fraction(terms.get((0, 1), 0))
    c = Fraction(terms.get((0, 0), 0))
    y = Fraction(rng.randint(-5, 5))
    if a:
        return (complex(-(b * y + c) / a + offset), complex(y))
    return (complex(y), complex(-c / b + offset))


def assert_same_values(got, expected, tol):
    assert got.root_order == expected.root_order
    assert len(got.values) == len(expected.values)
    for mine, theirs in ((got.values, expected.values), (expected.values, got.values)):
        for t in mine:
            assert any(max(abs(a - b) for a, b in zip(t, u)) <= tol for u in theirs), t


def _compare(d, point, tol=1e-9):
    try:
        expected = reference_evaluate(d, point, tol)
    except OnPole:
        with pytest.raises(OnPole):
            evaluate_description(d, point, tol)
        return "pole"
    got = evaluate_description(d, point, tol)
    assert_same_values(got, expected, tol)
    return len(got.values)


def test_branch_values_match_reference():
    rng = random.Random(23)
    source = build_cox_ring(affine_space(2), ("x", "y"))
    outcomes = []
    for pairs in (1, 2, 3):
        for _ in range(3):
            d = _radical_pairs(rng, source, pairs)
            point = (complex(rng.randint(1, 30)), complex(rng.randint(1, 30)))
            outcomes.append(_compare(d, point))
            assert outcomes[-1] in (16, "pole")
    for _ in range(150):
        d = _random_radical(rng, source)
        point = (
            cmath.rect(rng.uniform(0.5, 3), rng.uniform(0, 2 * math.pi)),
            complex(rng.randint(-4, 4)),
        )
        outcomes.append(_compare(d, point))
        for offset in (1e-12, 1e-7):
            near = _near_pole_point(rng, d, offset)
            if near is not None:
                outcomes.append(_compare(d, near))
    assert outcomes.count("pole") >= 10
    assert sum(1 for o in outcomes if o != "pole" and o > 1) >= 100
