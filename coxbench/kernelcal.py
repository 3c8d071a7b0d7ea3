"""Kernel calibration: the dense scenarios of benchmarks/bench_kernel.py.

Times sparse multiplication and exact division of dense random polynomials
with Fraction coefficients on the active kernel, and checks both results
exactly: the product divided by either factor gives the other factor back.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time
from fractions import Fraction

SCENARIOS = ((2, 10), (3, 6), (4, 4))  # (variables, total degree)
REPEATS = 3


def dense_poly(rng: random.Random, nvars: int, degree: int) -> dict:
    out = {}
    for exps in itertools.product(range(degree + 1), repeat=nvars):
        if sum(exps) <= degree:
            out[exps] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    return out


def _median_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def metric_names():
    return [
        ("kernel.%s_dense_ms.%dv_deg%d" % (op, nvars, degree), "ms")
        for nvars, degree in SCENARIOS
        for op in ("mul", "div")
    ]


def calibrate(seed: int):
    """Returns (metrics, problems); problems lists wrong kernel results."""
    from coxmap import _kernel

    rng = random.Random(seed)
    metrics, problems = {}, []
    for nvars, degree in SCENARIOS:
        a = dense_poly(rng, nvars, degree)
        b = dense_poly(rng, nvars, degree)
        product = _kernel.poly_mul(a, b)
        label = "%dv_deg%d" % (nvars, degree)
        if _kernel.poly_mul(b, a) != product:
            problems.append("kernel mul %s is not commutative" % label)
        if _kernel.poly_exact_div(product, b) != a or _kernel.poly_exact_div(product, a) != b:
            problems.append("kernel div %s does not undo mul" % label)
        metrics["kernel.mul_dense_ms.%s" % label] = _median_ms(lambda: _kernel.poly_mul(a, b))
        metrics["kernel.div_dense_ms.%s" % label] = _median_ms(
            lambda: _kernel.poly_exact_div(product, b)
        )
    return metrics, problems
