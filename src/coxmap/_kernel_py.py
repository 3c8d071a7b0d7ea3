"""Kernels for sparse polynomial arithmetic.

Polynomials are dicts mapping exponent tuples to nonzero exact rationals:
an integral coefficient is an ``int``, any other a ``Fraction``.  These two
loops dominate pullback expansion and order-of-vanishing computation.  The
degree-lexicographic key lives here rather than in coxmap.coxring, which
imports it, so that the kernels do not import coxring.
"""

from __future__ import annotations

from fractions import Fraction


def deglex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


def poly_mul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
    if len(a) == 1:
        # a monomial times b: shift every exponent and scale every
        # coefficient; distinct exponents stay distinct and no product of
        # nonzero rationals is zero, so nothing merges or cancels
        ((ea, ca),) = a.items()
        if not any(ea):
            return {eb: ca * cb for eb, cb in b.items()}
        return {tuple(x + y for x, y in zip(ea, eb)): ca * cb for eb, cb in b.items()}
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e)
            if c is None:
                out[e] = ca * cb
            else:
                c = c + ca * cb
                if c:
                    out[e] = c
                else:
                    del out[e]
    return out


def poly_exact_div(f: dict, g: dict):
    """Quotient of f by g when the division is exact, else None.

    Single-divisor reduction in degree-lexicographic order; the first leading
    term not divisible by the leading term of g proves inexactness.  Integer
    coefficients are divided with ``divmod`` and stay ints when the division
    leaves no remainder; every other quotient is a ``Fraction``.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
        return {}
    lt_g = max(g, key=deglex_key)
    cg = g[lt_g]
    whole = type(cg) is int
    r = dict(f)
    q: dict = {}
    while r:
        lt_r = max(r, key=deglex_key)
        e = tuple(x - y for x, y in zip(lt_r, lt_g))
        if any(x < 0 for x in e):
            return None
        cr = r[lt_r]
        if whole and type(cr) is int:
            c, rem = divmod(cr, cg)
            if rem:
                c = Fraction(cr, cg)
        else:
            c = Fraction(cr) / cg
        q[e] = c
        for eg, cgg in g.items():
            m = tuple(x + y for x, y in zip(e, eg))
            nc = r.get(m)
            if nc is None:
                r[m] = -c * cgg
            else:
                nc = nc - c * cgg
                if nc:
                    r[m] = nc
                else:
                    del r[m]
    return q
