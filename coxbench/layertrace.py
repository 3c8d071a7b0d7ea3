"""Per-layer spans around coxmap's public functions.

The tracer wraps each function named in ``LAYERS`` wherever it is looked
up: every ``coxmap`` module attribute bound to the original is replaced,
because modules import one another's functions by name (``descriptions``
imports ``solve_rational``, ``coxring`` imports ``poly_mul``).  Methods are
replaced on their class.  A span's self time is its duration minus the
time covered by the spans opened inside it, so time is counted once, in
the innermost wrapped function.  Spans are folded into per-function totals
as they close instead of being kept, because kernel calls number in the
thousands per pass.

The library is single-threaded and has no queues, so no layer ever waits
for another; the tracer reports work and busy time only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> (module, [(function or Class.method, stats emitted)])
LAYERS = {
    "abelian": ("coxmap.abelian", [
        ("solve_rational", ("calls", "self_ms")),
        ("feasible_lexmin", ("calls", "self_ms")),
        ("smith_normal_form", ("self_ms",)),
        ("saturated_kernel", ("self_ms",)),
    ]),
    "fan": ("coxmap.fan", [
        ("star_fan", ("calls",)),
        ("ray_projection_map", ("calls", "self_ms")),
        ("StarFan.support_contains", ("calls", "self_ms")),
        ("StarFan.minimal_image_cone", ("self_ms",)),
        ("StarFan.cones_with_image", ("self_ms",)),
    ]),
    "kernel": ("coxmap._kernel", [
        ("poly_mul", ("calls", "self_ms", "term_products")),
        ("poly_exact_div", ("calls", "self_ms", "dividend_terms")),
    ]),
    "coxring": ("coxmap.coxring", [
        ("ToricCoxRing.parse", ("self_ms",)),
        ("homogeneous_degree", ("calls", "self_ms")),
        ("MPoly.sort_key", ("calls", "self_ms")),
        ("MPoly.content_and_primitive", ("calls",)),
    ]),
    "sections": ("coxmap.sections", [
        ("section_mul", ("calls", "self_ms")),
        ("section_pow", ("self_ms",)),
        ("RadicalScalar.from_rational", ("calls", "self_ms")),
        ("section_degree", ("self_ms",)),
    ]),
    "descriptions": ("coxmap.descriptions", [
        ("divisor_status", ("calls", "self_ms")),
        ("twist_description", ("calls",)),
        ("complete", ("self_ms",)),
        ("regularity_report", ("self_ms", "patterns")),
        ("pullback_polynomial", ("self_ms",)),
        ("construct_description", ("self_ms",)),
    ]),
    "oracle": ("coxmap.oracle", [
        ("evaluate_description", ("calls", "self_ms", "branches")),
        ("sample_agreement", ("self_ms",)),
    ]),
    "cli": ("coxmap.cli", [
        ("description_from_json", ("self_ms",)),
        ("charmap_from_json", ("self_ms",)),
    ]),
}

# the work stat of a function (term_products, ...): its amount in one call
COUNTERS = {
    "poly_mul": lambda args, result: len(args[0]) * len(args[1]),
    "poly_exact_div": lambda args, result: len(args[0]),
    "regularity_report": lambda args, result: len(result.patterns_inside_irrelevant)
    + len(result.non_regular_patterns),
    "evaluate_description": lambda args, result: len(result.values),
}


def metric_names():
    """Every per-layer metric the tracer emits, with its unit."""
    out = []
    for layer, (_, functions) in LAYERS.items():
        for name, stats in functions:
            for stat in stats:
                out.append(("%s.%s.%s" % (layer, name, stat), "ms" if stat == "self_ms" else "count"))
    return out


class Tracer:
    """Wraps the functions while entered (``with tracer:``, any number of
    times); ``metrics()`` gives the totals over every entry."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self._children: list[float] = []  # child time of each open span
        self._undo: list = []

    def _wrap(self, key: str, short: str, fn):
        record = self.stats.setdefault(key, {"calls": 0, "self_s": 0.0, "work": 0})
        counter = COUNTERS.get(short)
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                record["calls"] += 1
                record["self_s"] += elapsed - inner
            if counter is not None:
                record["work"] += counter(args, result)
            return result

        return wrapper

    def __enter__(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "coxmap" or name.startswith("coxmap."))
        ]
        for layer, (module_name, functions) in LAYERS.items():
            module = importlib.import_module(module_name)
            for name, _ in functions:
                key = "%s.%s" % (layer, name)
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(key, attr, raw.__func__))
                    else:
                        wrapped = self._wrap(key, attr, raw)
                    setattr(cls, attr, wrapped)
                    self._undo.append((cls, attr, raw))
                    continue
                original = getattr(module, name)
                wrapped = self._wrap(key, name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
                            self._undo.append((m, attr, original))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def metrics(self) -> dict[str, float]:
        out = {}
        for layer, (_, functions) in LAYERS.items():
            for name, stats in functions:
                record = self.stats.get("%s.%s" % (layer, name), {"calls": 0, "self_s": 0.0, "work": 0})
                for stat in stats:
                    key = "%s.%s.%s" % (layer, name, stat)
                    if stat == "calls":
                        out[key] = record["calls"]
                    elif stat == "self_ms":
                        out[key] = record["self_s"] * 1e3
                    else:
                        out[key] = record["work"]
        return out
