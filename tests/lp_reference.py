"""Fourier-Motzkin elimination: the reference for the library's simplex.

This is the exact LP method the library used before its lexicographic
simplex.  It is exponential in the number of variables, so tests run it only
on small systems.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm


def _normalize_ineq(coeffs, rhs):
    denoms = [x.denominator for x in coeffs] + [rhs.denominator]
    nums = [x.numerator for x in coeffs] + [rhs.numerator]
    scale = Fraction(lcm(*denoms), gcd(*(abs(x) for x in nums)) or 1)
    return tuple(x * scale for x in coeffs), rhs * scale


def fourier_motzkin_lexmin(ineqs: list[tuple[list[Fraction], Fraction]], n: int):
    """Exact Fourier-Motzkin feasibility for a system sum c_j x_j <= rhs.

    Returns a feasible point or None.  Variables are eliminated from the last
    to the first, and back-substitution picks the smallest feasible value of
    each variable in turn, so when the feasible region is bounded below the
    result is the lexicographically smallest point.
    """
    if n == 0:
        return () if all(rhs >= 0 for _, rhs in ineqs) else None
    stack = []
    current = [([Fraction(c) for c in coeffs], Fraction(rhs)) for coeffs, rhs in ineqs]
    for k in range(n - 1, -1, -1):
        uppers = []  # x_k <= expr
        lowers = []  # x_k >= expr
        rest = []
        seen = set()
        for coeffs, rhs in current:
            c = coeffs[k]
            if c > 0:
                uppers.append(([x / c for x in coeffs[:k]], rhs / c))
            elif c < 0:
                lowers.append(([x / c for x in coeffs[:k]], rhs / c))
            else:
                if any(coeffs[:k]):
                    key = _normalize_ineq(tuple(coeffs[:k]), rhs)
                    if key not in seen:
                        seen.add(key)
                        rest.append((list(key[0]), key[1]))
                elif rhs < 0:
                    return None
        stack.append((uppers, lowers))
        for (uc, ur), (lc, lr) in itertools.product(uppers, lowers):
            # lower bound <= upper bound
            coeffs = [ux - lx for ux, lx in zip(uc, lc)]
            rhs = ur - lr
            if any(coeffs):
                key = _normalize_ineq(tuple(coeffs), rhs)
                if key not in seen:
                    seen.add(key)
                    rest.append((list(key[0]), key[1]))
            elif rhs < 0:
                return None
        current = rest
    point: list[Fraction] = []
    for k in range(n):
        uppers, lowers = stack[n - 1 - k]
        ubs = [rhs - sum(c * x for c, x in zip(coeffs, point)) for coeffs, rhs in uppers]
        lbs = [rhs - sum(c * x for c, x in zip(coeffs, point)) for coeffs, rhs in lowers]
        if lbs:
            value = max(lbs)
        elif ubs:
            value = min(Fraction(0), min(ubs))
        else:
            value = Fraction(0)
        if ubs and value > min(ubs):
            return None
        point.append(value)
    return tuple(point)


def nonneg_lexmin(a, b):
    """The lexicographically smallest x >= 0 with a x = b (``a`` an
    ``IntMatrix``), or None."""
    n = a.cols
    ineqs = []
    for i in range(n):
        row = [Fraction(0)] * n
        row[i] = Fraction(-1)
        ineqs.append((row, Fraction(0)))
    for row, rhs in zip(a.entries, b):
        row = [Fraction(x) for x in row]
        ineqs.append((row, Fraction(rhs)))
        ineqs.append(([-x for x in row], -Fraction(rhs)))
    return fourier_motzkin_lexmin(ineqs, n)
