"""Fans of strongly convex rational cones and their star fans.

Cones are stored combinatorially: a fan keeps primitive ray generators and
the ray-index sets of its maximal cones; every other cone is a face of one
of those.  Cone queries (membership, minimal containing face, the cones of
a star fan over a given image) run on an integer H-representation of each
cone -- equations and facet normals -- so they are exact integer dot
products.  Face tests and the pairwise check in ``validate_fan`` solve
small exact rational feasibility problems by Fourier-Motzkin.  There is no
floating point anywhere in the decision path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from coxmap.abelian import (
    DimensionMismatch,
    IntMatrix,
    _row_reduce,
    feasible_lexmin,
    saturated_kernel,
    smith_normal_form,
)


class ConeNotInFan(ValueError):
    pass


class ValidationFailure(ValueError):
    pass


PAIRWISE_CHECK_LIMIT = 64


@dataclass(frozen=True)
class Fan:
    """A fan given by primitive rays and maximal cones as ray-index sets."""

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[frozenset[int], ...]

    @classmethod
    def make(cls, dim: int, rays: Iterable[Sequence[int]], max_cones: Iterable[Iterable[int]]) -> "Fan":
        return cls(
            int(dim),
            tuple(tuple(int(x) for x in ray) for ray in rays),
            tuple(frozenset(int(i) for i in cone) for cone in max_cones),
        )

    @property
    def nrays(self) -> int:
        return len(self.rays)

    def cone(self, indices: Iterable[int]) -> "Cone":
        idx = frozenset(indices)
        if not self.is_face(idx):
            raise ConeNotInFan("ray set %s does not span a cone of the fan" % sorted(idx))
        return Cone(self, idx)

    def is_face(self, indices: frozenset[int]) -> bool:
        """Whether the given rays span a cone of the fan.

        True exactly when some maximal cone admits a supporting functional
        vanishing on these rays and strictly positive on its other rays.
        """
        return _is_face_cached(self, frozenset(indices))


@dataclass(frozen=True)
class Cone:
    fan: Fan
    indices: frozenset[int]

    @property
    def rays(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.fan.rays[i] for i in sorted(self.indices))

    @property
    def is_zero(self) -> bool:
        return not self.indices


@lru_cache(maxsize=256)
def _is_face_cached(fan: Fan, indices: frozenset[int]) -> bool:
    if any(i < 0 or i >= fan.nrays for i in indices):
        return False
    for cone in fan.max_cones:
        if indices <= cone and _face_witness(fan, indices, cone) is not None:
            return True
    return False


def _face_witness(
    fan: Fan, indices: frozenset[int], cone: frozenset[int], opposite: frozenset[int] = frozenset()
):
    """Functional vanishing on ``indices``, >= 1 on the cone's other rays and
    <= -1 on the other rays of ``opposite``."""
    ineqs = []
    for i in sorted(indices):
        ray = fan.rays[i]
        ineqs.append(([Fraction(x) for x in ray], Fraction(0)))
        ineqs.append(([Fraction(-x) for x in ray], Fraction(0)))
    for j in sorted(cone - indices):
        ray = fan.rays[j]
        ineqs.append(([Fraction(-x) for x in ray], Fraction(-1)))
    for j in sorted(opposite - indices):
        ray = fan.rays[j]
        ineqs.append(([Fraction(x) for x in ray], Fraction(-1)))
    return feasible_lexmin(ineqs, fan.dim)


def _dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


@dataclass(frozen=True)
class _ConeHRep:
    """Integer H-representation of the cone spanned by indexed generators.

    A point of Q^dim lies in the cone exactly when every equation vanishes
    on it and every facet normal is nonnegative on it.  Each facet keeps the
    indices of the generators lying on it; zero generators lie on all.
    """

    dim: int
    indices: frozenset[int]
    equations: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[tuple[int, ...], frozenset[int]], ...]

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.dim:
            raise DimensionMismatch("point dimension mismatch")
        return all(_dot(e, v) == 0 for e in self.equations) and all(
            _dot(normal, v) >= 0 for normal, _ in self.facets
        )

    def minimal_face(self, v: Sequence) -> frozenset[int]:
        """Generators of the smallest face containing v, which must lie in
        the cone: those on every facet tight at v."""
        face = self.indices
        for normal, on in self.facets:
            if _dot(normal, v) == 0:
                face = face & on
        return face


def _cone_hrep(dim: int, gens: Sequence[tuple[int, Sequence[int]]]) -> _ConeHRep:
    """H-representation of the cone spanned by (index, generator) pairs."""
    vecs = [tuple(g) for _, g in gens if any(g)]
    equations = saturated_kernel(IntMatrix.from_rows(vecs, cols=dim)).entries
    rank = dim - len(equations)
    if rank == len(vecs):
        normals = _dual_basis(vecs)
    else:
        normals = _facet_normals(dim, vecs, rank)
    facets = tuple(
        (normal, frozenset(i for i, g in gens if _dot(normal, g) == 0))
        for normal in normals
    )
    return _ConeHRep(dim, frozenset(i for i, _ in gens), equations, facets)


def _primitive(row: Sequence[Fraction]) -> tuple[int, ...]:
    """The positive multiple of a nonzero rational vector with coprime
    integer entries."""
    scale = lcm(*(x.denominator for x in row))
    ints = [int(x * scale) for x in row]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _dual_basis(vecs: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Facet normals of a simplicial cone: integer multiples of the rows of
    (G^T G)^-1 G^T, so normal j is positive on generator j and vanishes on
    the others."""
    k = len(vecs)
    aug = [[Fraction(_dot(a, b)) for b in vecs] + [Fraction(x) for x in a] for a in vecs]
    _row_reduce(aug, k)
    return [_primitive(row[k:]) for row in aug]


def _facet_normals(dim: int, vecs: list[tuple[int, ...]], rank: int) -> list[tuple[int, ...]]:
    """Facet normals of a cone with linearly dependent generators: one per
    hyperplane of the span that is spanned by rank - 1 generators and has
    every generator on one side."""
    found: dict[frozenset[int], tuple[int, ...]] = {}
    for subset in itertools.combinations(vecs, rank - 1):
        kernel = saturated_kernel(IntMatrix.from_rows(subset, cols=dim)).entries
        if len(kernel) != dim - rank + 1:
            continue  # the subset spans less than a hyperplane of the span
        # the kernel is one dimension larger than the equations, so some
        # basis vector is nonzero on the span
        normal = next(m for m in kernel if any(_dot(m, g) for g in vecs))
        values = [_dot(normal, g) for g in vecs]
        if all(x <= 0 for x in values):
            normal = tuple(-x for x in normal)
            values = [-x for x in values]
        elif any(x < 0 for x in values):
            continue
        found.setdefault(frozenset(j for j, x in enumerate(values) if x == 0), normal)
    return list(found.values())


def _fan_cone_hrep(fan: Fan, indices: frozenset[int]) -> _ConeHRep:
    return _cone_hrep(fan.dim, [(i, fan.rays[i]) for i in sorted(indices)])


def cone_contains(cone: Cone, v: Sequence) -> bool:
    """Exact test for v in the cone (rational coordinates allowed)."""
    if len(v) != cone.fan.dim:
        raise ValueError("point dimension mismatch")
    return _fan_cone_hrep(cone.fan, cone.indices).contains([Fraction(x) for x in v])


def minimal_cone_containing(fan: Fan, v: Sequence) -> Optional[Cone]:
    """The unique smallest cone of the fan containing v, or None outside."""
    vv = [Fraction(x) for x in v]
    for cone in fan.max_cones:
        hrep = _fan_cone_hrep(fan, cone)
        if hrep.contains(vv):
            return Cone(fan, hrep.minimal_face(vv))
    return None


def validate_fan(fan: Fan) -> list[str]:
    """Check fan invariants; returns a list of human-readable violations.

    Ray primitivity and distinctness, cone index bounds, maximality of the
    listed cones, strong convexity, and (for fans with at most 64 maximal
    cones) the pairwise requirement that two cones intersect in a common
    face.  By the separation lemma, cones meet exactly in the cone over
    their common rays, a face of each, when some functional vanishes on the
    common rays, is >= 1 on the other rays of the first cone and <= -1 on
    the other rays of the second; one exact feasibility problem in ``dim``
    variables per pair decides this, and only a failing pair runs the
    face tests that name the violation.
    """
    problems = []
    seen = {}
    for i, ray in enumerate(fan.rays):
        if len(ray) != fan.dim:
            problems.append("ray %d has length %d, expected %d" % (i, len(ray), fan.dim))
            continue
        if not any(ray):
            problems.append("ray %d is zero" % i)
        elif gcd(*(abs(x) for x in ray)) != 1:
            problems.append("ray %d = %s is not primitive" % (i, list(ray)))
        if ray in seen:
            problems.append("rays %d and %d coincide" % (seen[ray], i))
        else:
            seen[ray] = i
    if problems:
        return problems
    for c, cone in enumerate(fan.max_cones):
        if any(i < 0 or i >= fan.nrays for i in cone):
            problems.append("cone %d uses an out-of-range ray index" % c)
    if problems:
        return problems
    for c1, cone1 in enumerate(fan.max_cones):
        for c2, cone2 in enumerate(fan.max_cones):
            if c1 < c2 and (cone1 <= cone2 or cone2 <= cone1):
                problems.append("cones %d and %d are nested, so one is not maximal" % (c1, c2))
    for c, cone in enumerate(fan.max_cones):
        if _face_witness(fan, frozenset(), cone) is None:
            problems.append("cone %d is not strongly convex" % c)
    if problems:
        return problems
    if len(fan.max_cones) <= PAIRWISE_CHECK_LIMIT:
        for c1, cone1 in enumerate(fan.max_cones):
            for c2, cone2 in enumerate(fan.max_cones):
                if c1 >= c2:
                    continue
                problems.extend(_intersection_problems(fan, c1, cone1, c2, cone2))
    return problems


def _intersection_problems(fan, c1, cone1, c2, cone2) -> list[str]:
    common = cone1 & cone2
    if _face_witness(fan, common, cone1, cone2) is not None:
        return []
    for c, cone in ((c1, cone1), (c2, cone2)):
        if _face_witness(fan, common, cone) is None:
            return ["shared rays of cones %d and %d do not span a face of cone %d" % (c1, c2, c)]
    return ["cones %d and %d intersect outside their common face" % (c1, c2)]


@dataclass(frozen=True)
class QuotientLattice:
    """Surjection N -> N(sigma) killing exactly the saturated span of a cone."""

    ambient_dim: int
    rank: int
    projection: IntMatrix  # rank x ambient_dim

    def project(self, v: Sequence) -> tuple:
        return self.projection.apply(v)


def quotient_by_span(dim: int, gens: Sequence[Sequence[int]]) -> QuotientLattice:
    span = IntMatrix.from_rows(
        [[gen[d] for gen in gens] for d in range(dim)], cols=len(gens)
    )
    snf = smith_normal_form(span)
    rank = sum(1 for d in snf.diagonal if d != 0)
    proj_rows = [snf.u.row(i) for i in range(rank, dim)]
    return QuotientLattice(dim, dim - rank, IntMatrix.from_rows(proj_rows, cols=dim))


@dataclass(frozen=True)
class StarFan:
    """Cones of a fan containing a fixed cone, with their images downstairs.

    ``entries`` pairs each maximal cone containing sigma with the projected
    generators of its image cone; image generators are the projections of
    the original rays, kept without re-primitivization so that membership
    tests can reuse them directly.  ``ray_map`` has the projection of ray i
    as column i, and ``cones`` holds the H-representation of each entry's
    image cone, indexed by the rays upstairs.
    """

    base: Cone
    lattice: QuotientLattice
    entries: tuple[tuple[frozenset[int], tuple[tuple[int, ...], ...]], ...]
    ray_map: IntMatrix = field(compare=False, repr=False)
    cones: tuple[_ConeHRep, ...] = field(compare=False, repr=False)

    @property
    def fan(self) -> Fan:
        return self.base.fan

    def image_gens(self, indices: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        return tuple(self.ray_map.col(i) for i in sorted(indices))

    def support_contains(self, v: Sequence) -> bool:
        return any(cone.contains(v) for cone in self.cones)

    def minimal_image_cone(self, v: Sequence) -> Optional[frozenset[int]]:
        """Ray indices upstairs spanning the cone over the minimal image
        cone containing v; None when v is outside the support."""
        for cone in self.cones:
            if cone.contains(v):
                return cone.minimal_face(v)
        return None

    def cones_with_image(self, tau_gens: Sequence[Sequence[int]]) -> list[frozenset[int]]:
        """All cones containing the base whose image equals the given cone."""
        tau_list = [tuple(g) for g in tau_gens]
        tau = _cone_hrep(self.lattice.rank, list(enumerate(tau_list)))
        found = []
        for cone in self.cones:
            if not all(cone.contains(t) for t in tau_list):
                continue
            candidate = frozenset(
                i for i in cone.indices if tau.contains(self.ray_map.col(i))
            )
            if candidate not in found:
                found.append(candidate)
        return found


def star_fan(fan: Fan, sigma: Cone) -> StarFan:
    """Star of a cone: every maximal cone containing it, projected to N(sigma)."""
    if sigma.fan != fan:
        raise ConeNotInFan("cone belongs to a different fan")
    lattice = quotient_by_span(fan.dim, [fan.rays[i] for i in sorted(sigma.indices)])
    images = [lattice.project(ray) for ray in fan.rays]
    ray_map = IntMatrix.from_rows(
        [[col[r] for col in images] for r in range(lattice.rank)], cols=fan.nrays
    )
    entries = []
    cones = []
    for cone in fan.max_cones:
        if sigma.indices <= cone:
            order = sorted(cone)
            entries.append((cone, tuple(images[i] for i in order)))
            cones.append(_cone_hrep(lattice.rank, [(i, images[i]) for i in order]))
    if not entries:
        raise ConeNotInFan("no maximal cone contains the given cone")
    return StarFan(sigma, lattice, tuple(entries), ray_map, tuple(cones))


def ray_projection_map(star: StarFan) -> IntMatrix:
    """Matrix whose i-th column is the projection of ray i; columns for rays
    of the base cone are zero."""
    return star.ray_map


def orthogonal_character_basis(fan: Fan, sigma: Cone) -> tuple[tuple[int, ...], ...]:
    """Hermite basis of the characters vanishing on a cone of the fan."""
    rows = [fan.rays[i] for i in sorted(sigma.indices)]
    kernel = saturated_kernel(IntMatrix.from_rows(rows, cols=fan.dim))
    return kernel.entries


def irrelevant_monomials(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """One square-free exponent vector per maximal cone: exponent one on each
    ray outside the cone."""
    return tuple(
        tuple(0 if i in cone else 1 for i in range(fan.nrays)) for cone in fan.max_cones
    )
