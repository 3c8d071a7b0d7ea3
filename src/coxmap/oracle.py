"""Numerical checks for descriptions, independent of the symbolic layer.

Evaluation enumerates one root branch per stored factor, so the value of a
description at a point is a finite set of coordinate tuples.  Whether two
tuples name the same point of the target is decided by the invariant
Laurent monomials of the grading torus: same vanishing pattern plus equal
values on a lattice basis of the degree-zero exponent vectors, torsion
orders included.  Sampling then certifies on random points that all
branches land in one orbit and that rescaling the input by a torus element
does not move the output orbit, which is the numerical shadow of the
homogeneity conditions.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from coxmap.abelian import IntMatrix, saturated_kernel
from coxmap.coxring import ToricCoxRing
from coxmap.descriptions import CoxDescription
from coxmap.fan import ConeNotInFan
from coxmap.sections import FactoredSection, root_order


class OnPole(ValueError):
    """A factor with negative exponent vanishes at the evaluation point."""


class OutOfFloatRange(ValueError):
    """A factor, root or branch value at the point overflows a float."""


class IrrelevantPoint(ValueError):
    """The vanishing pattern of a point is not a face of the fan, so the
    point names no point of the variety."""


@dataclass(frozen=True)
class ValueSet:
    """All values of a description at one point, one tuple per branch."""

    point: tuple[complex, ...]
    values: tuple[tuple[complex, ...], ...]
    root_order: int


def _unit_root(phase: int, order: int) -> complex:
    """exp(2 pi i phase / order), exact at quarter turns so that real
    branches stay exactly real."""
    q, r = divmod(4 * phase, order)
    if r == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[q % 4]
    return cmath.exp(2j * math.pi * phase / order)


def evaluate_description(
    d: CoxDescription, point: Sequence[complex], tol: float = 1e-9
) -> ValueSet:
    """Evaluate the images at a point, one tuple per consistent choice of
    root branches.

    Every factor and scalar prime receives its own d-th root, d being the
    least common multiple of all root orders.  Changing the root of one
    slot by a d-th root of unity moves the phases of the live coordinates
    by that slot's column of exponent numerators mod d, so the branch
    phases are exactly the subgroup of (Z/d)^n generated by those columns.
    It is enumerated by closure, at a cost linear in its size rather than
    in d to the number of slots; branches that produce the same tuple
    within tol are merged.  Distinct d-th roots of unity lie at least
    2 sin(pi/d) apart, so two branches whose phases differ at a coordinate
    with |value| sin(pi/d) > tol are more than 2 tol apart; the merge only
    compares branches that agree in phase at every such coordinate.
    """
    point = tuple(complex(z) for z in point)
    if len(point) != d.source.nvars:
        raise ValueError("point dimension mismatch")
    n = d.target.nvars

    values: list[complex] = []
    exps: list[list[Fraction]] = []
    index: dict = {}

    def slot(key, value: complex) -> int:
        if key not in index:
            index[key] = len(values)
            values.append(complex(value))
            exps.append([Fraction(0)] * n)
        return index[key]

    signs = [1] * n
    try:
        for i, img in enumerate(d.images):
            if img.is_zero:
                continue
            signs[i] = img.unit.sign
            for p, e in img.factors:
                exps[slot(("factor", p), p.evaluate(point))][i] += e
            for prime, e in img.unit.powers:
                exps[slot(("prime", prime), complex(prime))][i] += e
    except OverflowError:
        raise OutOfFloatRange("a factor value leaves the float range") from None

    order = 1
    for row in exps:
        for e in row:
            order = math.lcm(order, e.denominator)

    for value, row in zip(values, exps):
        if abs(value) <= tol and any(e < 0 for e in row):
            raise OnPole("a factor with negative exponent vanishes at the point")

    numerators = [[int(e * order) for e in row] for row in exps]
    live = [i for i in range(n) if i not in d.zero_set]
    base = [0j] * n
    try:
        roots = [value ** (1.0 / order) for value in values]
        for i in live:
            acc = complex(signs[i])
            for r, nums in zip(roots, numerators):
                if nums[i]:
                    acc *= r ** nums[i]
            base[i] = acc
    except OverflowError:
        raise OutOfFloatRange("a branch value leaves the float range") from None
    if not all(cmath.isfinite(z) for z in values + roots + base):
        raise OutOfFloatRange("a branch value leaves the float range")

    zero = (0,) * len(live)
    columns = sorted(
        {tuple(nums[i] % order for i in live) for nums in numerators} - {zero}
    )
    phases = [zero]
    seen = set(phases)
    for h in phases:  # grows while it is walked: a breadth-first closure
        for c in columns:
            g = tuple((a + b) % order for a, b in zip(h, c))
            if g not in seen:
                seen.add(g)
                phases.append(g)

    # sys.float_info.min keeps rounding relative: subnormal values stay out
    floor = max(tol, sys.float_info.min)
    gap = math.sin(math.pi / order)
    separating = [k for k, i in enumerate(live) if abs(base[i]) * gap > floor]
    units = [_unit_root(phase, order) for phase in range(order)]
    groups: dict[tuple[int, ...], list[tuple[complex, ...]]] = {}
    for h in phases:
        out = [0j] * n
        for i, phase in zip(live, h):
            out[i] = base[i] * units[phase]
        candidate = tuple(out)
        group = groups.setdefault(tuple(h[k] for k in separating), [])
        if not any(
            max(abs(a - b) for a, b in zip(candidate, kept)) <= tol for kept in group
        ):
            group.append(candidate)
    tuples = sorted(
        (t for group in groups.values() for t in group),
        key=lambda t: tuple((z.real, z.imag) for z in t),
    )
    return ValueSet(point, tuple(tuples), order)


def evaluate_section(
    section: FactoredSection, point: Sequence[complex], tol: float = 1e-9
) -> complex:
    """Value of a single-valued section; rejects multi-valued input."""
    if section.is_zero:
        return 0j
    if root_order(section) != 1:
        raise ValueError("section is multi-valued")
    point = tuple(complex(z) for z in point)
    acc = complex(section.unit.value())
    for p, e in section.factors:
        value = p.evaluate(point)
        if abs(value) <= tol and e < 0:
            raise OnPole("a factor with negative exponent vanishes at the point")
        acc *= value ** int(e)
    return acc


# ---------------------------------------------------------------------------
# Orbit comparison


@lru_cache(maxsize=256)
def _invariant_exponents(
    ring: ToricCoxRing, live: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Basis of the exponent vectors on the live coordinates whose total
    degree vanishes, torsion included."""
    group = ring.class_group
    t = len(group.torsion)
    width = len(live) + t
    rows = []
    for k in range(group.free_rank):
        rows.append([ring.degrees[i].free[k] for i in live] + [0] * t)
    for k, dk in enumerate(group.torsion):
        aux = [0] * t
        aux[k] = dk
        rows.append([ring.degrees[i].torsion[k] for i in live] + aux)
    kernel = saturated_kernel(IntMatrix.from_rows(rows, cols=width))
    return tuple(row[: len(live)] for row in kernel.entries)


def vanishing_pattern(point: Sequence[complex], tol: float = 1e-6) -> frozenset[int]:
    return frozenset(i for i, z in enumerate(point) if abs(z) <= tol)


def _orbit_compare(
    ring: ToricCoxRing, a: Sequence[complex], b: Sequence[complex], tol: float
) -> tuple[bool, float, str]:
    a = tuple(complex(z) for z in a)
    b = tuple(complex(z) for z in b)
    if len(a) != ring.nvars or len(b) != ring.nvars:
        raise ValueError("point dimension mismatch")
    pa, pb = vanishing_pattern(a, tol), vanishing_pattern(b, tol)
    if pa != pb:
        return False, math.inf, "different vanishing patterns %s and %s" % (
            sorted(pa),
            sorted(pb),
        )
    try:
        ring.fan.cone(pa)
    except ConeNotInFan:
        raise IrrelevantPoint(
            "vanishing pattern %s is not a face of the fan" % sorted(pa)
        ) from None
    live = tuple(i for i in range(ring.nvars) if i not in pa)
    deviation = 0.0
    for u in _invariant_exponents(ring, live):
        ma = 1 + 0j
        mb = 1 + 0j
        for i, e in zip(live, u):
            if e:
                ma *= a[i] ** e
                mb *= b[i] ** e
        scale = max(1.0, abs(ma), abs(mb))
        deviation = max(deviation, abs(ma - mb) / scale)
    if deviation > tol:
        return False, deviation, "invariant monomial values differ"
    return True, deviation, ""


def orbit_equal(
    ring: ToricCoxRing, a: Sequence[complex], b: Sequence[complex], tol: float = 1e-6
) -> bool:
    """Whether two coordinate tuples name the same point of the variety."""
    equal, _, _ = _orbit_compare(ring, a, b, tol)
    return equal


# ---------------------------------------------------------------------------
# Randomized agreement checks


@dataclass(frozen=True)
class AgreementFailure:
    sample: int
    point: Optional[tuple[complex, ...]]
    kind: str  # "sampling", "irrelevant", "multi_orbit", "scaling", "character"
    detail: str


@dataclass(frozen=True)
class AgreementReport:
    samples: int
    failures: tuple[AgreementFailure, ...]
    max_deviation: float

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_scalar(rng: random.Random) -> complex:
    return cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2 * math.pi))


def _random_torus_scales(
    ring: ToricCoxRing, rng: random.Random
) -> tuple[complex, ...]:
    """Coordinate scalings of a random element of the grading torus."""
    group = ring.class_group
    free = [_random_scalar(rng) for _ in range(group.free_rank)]
    tors = [rng.randrange(dk) for dk in group.torsion]
    scales = []
    for deg in ring.degrees:
        z = 1 + 0j
        for g, e in zip(free, deg.free):
            if e:
                z *= g ** e
        for j, (a, dk) in zip(tors, zip(deg.torsion, group.torsion)):
            z *= cmath.exp(2j * math.pi * j * a / dk)
        scales.append(z)
    return tuple(scales)


def sample_agreement(
    d: CoxDescription,
    samples: int = 20,
    seed: int = 0,
    tol: float = 1e-6,
    charmap=None,
) -> AgreementReport:
    """Certify on random points that the description is a map into the
    target variety.

    At each point all branch values must lie in one orbit, and rescaling
    the input by a random grading-torus element must not move the output
    orbit.  When a character map is supplied, its values are also compared
    against the corresponding monomials in the output coordinates.
    """
    master = random.Random(seed)
    point_seeds = [master.getrandbits(64) for _ in range(samples)]
    failures: list[AgreementFailure] = []
    max_deviation = 0.0
    fan = d.target.fan

    for idx, s in enumerate(point_seeds):
        rng = random.Random(s)
        found = None
        for _ in range(16):
            candidate = tuple(_random_scalar(rng) for _ in range(d.source.nvars))
            try:
                vs = evaluate_description(d, candidate, tol=1e-12)
            except OnPole:
                continue
            if any(
                abs(z) <= tol
                for t in vs.values
                for i, z in enumerate(t)
                if i not in d.zero_set
            ):
                continue
            found = (candidate, vs)
            break
        if found is None:
            failures.append(
                AgreementFailure(idx, None, "sampling", "no usable point found")
            )
            continue
        point, vs = found

        try:
            single_orbit = True
            for other in vs.values[1:]:
                equal, dev, why = _orbit_compare(d.target, vs.values[0], other, tol)
                if equal:
                    max_deviation = max(max_deviation, dev)
                else:
                    single_orbit = False
                    failures.append(
                        AgreementFailure(
                            idx, point, "multi_orbit", "branches split orbits: " + why
                        )
                    )
                    break
        except IrrelevantPoint as exc:
            failures.append(AgreementFailure(idx, point, "irrelevant", str(exc)))
            continue

        scales = _random_torus_scales(d.source, rng)
        scaled = tuple(z * c for z, c in zip(point, scales))
        try:
            vs2 = evaluate_description(d, scaled, tol=1e-12)
            equal, dev, why = _orbit_compare(d.target, vs.values[0], vs2.values[0], tol)
            if equal:
                max_deviation = max(max_deviation, dev)
            else:
                failures.append(
                    AgreementFailure(
                        idx,
                        point,
                        "scaling",
                        "rescaled input moved the output orbit: " + why,
                    )
                )
        except (OnPole, IrrelevantPoint) as exc:
            failures.append(AgreementFailure(idx, point, "scaling", str(exc)))

        if charmap is not None:
            reference = vs.values[0]
            for m, section in zip(charmap.basis, charmap.values):
                try:
                    lhs = evaluate_section(section, point)
                except (OnPole, ValueError) as exc:
                    failures.append(
                        AgreementFailure(idx, point, "character", str(exc))
                    )
                    continue
                rhs = 1 + 0j
                for i in range(d.target.nvars):
                    if i in d.zero_set:
                        continue
                    e = sum(a * b for a, b in zip(m, fan.rays[i]))
                    if e:
                        rhs *= reference[i] ** e
                scale = max(1.0, abs(lhs), abs(rhs))
                dev = abs(lhs - rhs) / scale
                if dev > tol:
                    failures.append(
                        AgreementFailure(
                            idx,
                            point,
                            "character",
                            "character %s value drifts by %.3g" % (list(m), dev),
                        )
                    )
                else:
                    max_deviation = max(max_deviation, dev)
    return AgreementReport(samples, tuple(failures), max_deviation)
