"""What the benchmark in coxbench/ relies on from the polynomial core.

``coxbench`` is not part of this suite.  Its pipeline reads ``MPoly.terms``
and turns every coefficient into a ``Fraction``; its kernel calibration
calls ``coxmap._kernel.poly_mul`` and ``poly_exact_div`` on dicts from
exponent tuples to Fractions; its tracer wraps ``poly_mul`` wherever a
module binds it and reports the calls made during ideal verification.  This
test pins each of those, so that a change to the core that would break the
benchmark fails here.
"""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from coxmap import _kernel, _kernel_py, coxring
from coxmap.coxring import MPoly
from coxmap.descriptions import CoxDescription, verify_ideal_vanishing
from coxmap.sections import FactoredSection
from varieties import ring_p2, ring_p3

LAYERTRACE = Path(__file__).resolve().parent.parent / "coxbench" / "layertrace.py"


def test_terms_map_int_tuples_to_fraction_inputs():
    p2 = ring_p2()
    for text in ("3*x0^2*x1 - 2*x2^3", "1/2*x0 - (x1 - 2/3*x2)^2", "0", "7"):
        f = p2.parse(text)
        assert isinstance(f.terms, dict)
        for exps, coeff in f.terms.items():
            assert type(exps) is tuple and len(exps) == f.nvars
            assert all(type(e) is int and e >= 0 for e in exps)
            assert Fraction(coeff) == coeff


def dense_fraction_poly(rng: random.Random, nvars: int, degree: int) -> dict:
    out = {}
    for _ in range(12):
        exps = tuple(rng.randint(0, degree) for _ in range(nvars))
        out[exps] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    return out


def test_reexported_kernels_on_fraction_dicts():
    assert _kernel.poly_mul is _kernel_py.poly_mul
    assert _kernel.poly_exact_div is _kernel_py.poly_exact_div
    rng = random.Random(7)
    for nvars, degree in ((2, 4), (3, 3), (4, 2)):
        a = dense_fraction_poly(rng, nvars, degree)
        b = dense_fraction_poly(rng, nvars, degree)
        product = _kernel.poly_mul(a, b)
        assert product == _kernel.poly_mul(b, a)
        assert product == (MPoly(nvars, a) * MPoly(nvars, b)).terms
        assert _kernel.poly_exact_div(product, b) == a
        assert _kernel.poly_exact_div(product, a) == b
        # x0 * a + 1 is not a multiple of a
        probe = dict(_kernel.poly_mul(a, {(1,) + (0,) * (nvars - 1): Fraction(1)}))
        probe[(0,) * nvars] = probe.get((0,) * nvars, 0) + 1
        assert _kernel.poly_exact_div(probe, a) is None


def test_coxring_binds_the_python_kernel():
    assert coxring.poly_mul is _kernel_py.poly_mul
    assert coxring.poly_exact_div is _kernel_py.poly_exact_div


def test_traced_ideal_verification_calls_the_kernel():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    p2, p3 = ring_p2(), ring_p3()
    # a Segre-type map P2 -> P3: (AB, AC, DB, DC) for forms A, B, C, D of
    # equal degree, so z0*z3 - z1*z2 pulls back to zero and a perturbed
    # quadric does not
    a, b, c, d = (p2.parse(t) for t in ("x0 + 2*x1", "x1 - 3*x2", "x0 + x2", "5*x0 - x1"))
    images = [
        FactoredSection.from_factors(3, [(f, Fraction(1)), (g, Fraction(1))])
        for f, g in ((a, b), (a, c), (d, b), (d, c))
    ]
    description = CoxDescription(p2, p3, images)
    quadric = p3.parse("z0*z3 - z1*z2")
    perturbed = p3.parse("z0*z3 - z1*z2 + 1/2*z0^2")
    tracer = layertrace.Tracer()
    with tracer:
        assert verify_ideal_vanishing(description, [quadric]) == (True, None)
        ok, witness = verify_ideal_vanishing(description, [quadric, perturbed])
    assert not ok and witness[0] == perturbed
    assert coxring.poly_mul is _kernel_py.poly_mul
    metrics = tracer.metrics()
    assert metrics["kernel.poly_mul.calls"] > 0
    assert metrics["kernel.poly_mul.term_products"] >= metrics["kernel.poly_mul.calls"]
