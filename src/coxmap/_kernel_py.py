"""Kernels for sparse polynomial arithmetic.

Polynomials are dicts mapping exponent tuples to nonzero Fractions.  These
two loops dominate pullback expansion and order-of-vanishing computation.
The degree-lexicographic key lives here rather than in coxmap.coxring,
which imports it, so that the kernels do not import coxring.
"""

from __future__ import annotations


def deglex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


def poly_mul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
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
    term not divisible by the leading term of g proves inexactness.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
        return {}
    lt_g = max(g, key=deglex_key)
    cg = g[lt_g]
    r = dict(f)
    q: dict = {}
    while r:
        lt_r = max(r, key=deglex_key)
        e = tuple(x - y for x, y in zip(lt_r, lt_g))
        if any(x < 0 for x in e):
            return None
        c = r[lt_r] / cg
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
