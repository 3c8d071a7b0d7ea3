"""The term-level parser against the MPoly-arithmetic reference.

``tests/parse_reference.py`` keeps the parser as it was before it built term
dicts directly.  On seeded random expressions, with nested parentheses,
``^0`` and ``0^0``, rational literals, unary minus and sums that cancel to
zero, both must give equal polynomials.  On malformed strings, made by
cutting, inserting and deleting characters in valid ones, both must raise
the same exception type with the same message and position.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from coxmap.coxring import _parse_named
from parse_reference import reference_parse

NAMES = ("x", "y", "z")


def random_atom(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if roll < 0.25 and depth > 0:
        return "(" + random_expr(rng, depth - 1) + ")"
    if roll < 0.45:
        return str(rng.randint(0, 12))
    if roll < 0.6:
        slash = rng.choice(["/", " / ", "/ "])
        return "%d%s%d" % (rng.randint(0, 9), slash, rng.randint(1, 9))
    return rng.choice(NAMES)


def random_factor(rng: random.Random, depth: int) -> str:
    atom = random_atom(rng, depth)
    roll = rng.random()
    if roll < 0.1:
        return atom + "^0"
    if roll < 0.35:
        return atom + rng.choice(["^", " ^ "]) + str(rng.randint(1, 3))
    return atom


def random_term(rng: random.Random, depth: int) -> str:
    factors = [random_factor(rng, depth) for _ in range(rng.randint(1, 3))]
    return rng.choice(["*", " * "]).join(factors)


def random_expr(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if roll < 0.1:
        inner = random_expr(rng, max(depth - 1, 0))
        return "(%s) - (%s)" % (inner, inner)
    if roll < 0.15:
        return "0^0" + rng.choice(["", " - 1", " + x^0"])
    text = rng.choice(["", "-", "+", "- "]) + random_term(rng, depth)
    for _ in range(rng.randint(0, 3)):
        text += rng.choice([" + ", " - ", "+", "-"]) + random_term(rng, depth)
    return text


def outcome(parse, text: str):
    try:
        return ("value", parse(NAMES, text))
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "position", None))


def test_parser_matches_reference_on_random_expressions():
    rng = random.Random(2024)
    zeros = nonconstant = rational = 0
    for _ in range(600):
        text = random_expr(rng, 2)
        got = _parse_named(NAMES, text)
        assert got == reference_parse(NAMES, text), text
        for c in got.terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), text
        zeros += got.is_zero
        nonconstant += not got.is_constant
        rational += any(type(c) is Fraction for c in got.terms.values())
    assert zeros >= 40 and nonconstant >= 300 and rational >= 100


# exponents of two or more digits on sums are left out: they only make the
# mutated cases slow, not different
_LONG_EXPONENT = re.compile(r"\^\s*\d\d")


def mutate(rng: random.Random, text: str) -> str:
    at = rng.randint(0, len(text))
    roll = rng.random()
    if roll < 0.3:
        return text[:at]
    if roll < 0.65:
        return text[:at] + rng.choice("+-*^()/@ #.xw_0") + text[at:]
    return text[:at] + text[at + 1:]


def test_parser_errors_match_reference_on_malformed_strings():
    rng = random.Random(2025)
    failures = successes = 0
    checked = 0
    while checked < 800:
        text = mutate(rng, random_expr(rng, 2))
        if _LONG_EXPONENT.search(text):
            continue
        checked += 1
        got = outcome(_parse_named, text)
        want = outcome(reference_parse, text)
        assert got == want, text
        if got[0] == "value":
            successes += 1
        else:
            failures += 1
    assert failures >= 300 and successes >= 100


def test_parser_matches_reference_on_fixed_edge_cases():
    cases = [
        "0^0", "0^3", "x^0", "(x + y)^0", "(x - x)^0", "-(x)^2", "--x", "-x^2",
        "1/2 + 1/2", "2/4*x", "6/3", "0/5", "((x))", "(x + 1/3)^3 - (x + 1/3)^3",
        "x*y - y*x", "x^1*x^2", "3*(1/3)", "", " ", "x +", "x ^ y", "x^1/2",
        "(x", "x)", "1/0", "w", "x @ y", "x y", "x^", "^2", "()", "x**2",
    ]
    for text in cases:
        assert outcome(_parse_named, text) == outcome(reference_parse, text), text
