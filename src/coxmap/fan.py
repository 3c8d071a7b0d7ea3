"""Fans of strongly convex rational cones and their star fans.

Cones are stored combinatorially: a fan keeps primitive ray generators and
the ray-index sets of its maximal cones; every other cone is a face of one
of those.  Cone queries (membership, minimal containing face, the cones of
a star fan over a given image), face tests and strong convexity run on an
integer H-representation of each cone -- equations and facet normals -- so
they are exact integer dot products.  The pairwise check in
``validate_fan`` tries an integer separating functional built from facet
normals and solves an exact LP only for the pairs where it fails.  There is
no floating point anywhere in the decision path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
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


@dataclass(frozen=True)
class Fan:
    """A fan given by primitive rays and maximal cones as ray-index sets.

    Everything derived from a fan is kept on it: the maximal cones'
    H-representations, the fan check, and, for each of its cones, the
    ``Cone`` that ``cone`` and ``is_face`` found and the star fan.  Ray sets
    that span no cone are not kept, so neither dict outgrows the fan's own
    cones.  ``Fan.make`` hands out one fan per distinct input, so equal fans
    share all of it; a ``Fan(...)`` built directly gives the same answers
    and shares them with nobody.
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[frozenset[int], ...]
    _faces: dict[frozenset[int], "Cone"] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    _stars: dict[frozenset[int], "StarFan"] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @classmethod
    def make(cls, dim: int, rays: Iterable[Sequence[int]], max_cones: Iterable[Iterable[int]]) -> "Fan":
        return _interned(
            int(dim),
            tuple(tuple(int(x) for x in ray) for ray in rays),
            tuple(frozenset(int(i) for i in cone) for cone in max_cones),
        )

    @property
    def nrays(self) -> int:
        return len(self.rays)

    @cached_property
    def _hreps(self) -> tuple[_ConeHRep, ...]:
        """H-representation of each maximal cone, in order."""
        return tuple(
            _cone_hrep(self.dim, [(i, self.rays[i]) for i in sorted(cone)])
            for cone in self.max_cones
        )

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        return _fan_violations(self)

    def cone(self, indices: Iterable[int]) -> "Cone":
        idx = frozenset(indices)
        cone = self._face(idx)
        if cone is None:
            raise ConeNotInFan("ray set %s does not span a cone of the fan" % sorted(idx))
        return cone

    def is_face(self, indices: frozenset[int]) -> bool:
        """Whether the given rays span a cone of the fan.

        True exactly when they lie in some maximal cone and are all of its
        rays on the smallest face containing their sum.
        """
        return self._face(frozenset(indices)) is not None

    def _face(self, indices: frozenset[int]) -> Optional["Cone"]:
        """The cone spanned by the given rays, or None when they span none."""
        cone = self._faces.get(indices)
        if cone is None and all(0 <= i < self.nrays for i in indices) and any(
            indices <= c and _spans_face(self, hrep, indices)
            for c, hrep in zip(self.max_cones, self._hreps)
        ):
            cone = self._faces[indices] = Cone(self, indices)
        return cone


@lru_cache(maxsize=64)
def _interned(dim: int, rays: tuple[tuple[int, ...], ...], max_cones: tuple[frozenset[int], ...]) -> Fan:
    """The one fan handed out for a normalized input, while it is among the
    64 most recently asked for."""
    return Fan(dim, rays, max_cones)


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


def _spans_face(fan: Fan, hrep: _ConeHRep, indices: frozenset[int]) -> bool:
    """Whether the given rays of the cone are all of its rays on some face,
    namely on the smallest face containing their sum."""
    total = [sum(fan.rays[i][d] for i in indices) for d in range(fan.dim)]
    return hrep.minimal_face(total) == indices


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


def cone_contains(cone: Cone, v: Sequence) -> bool:
    """Exact test for v in the cone (rational coordinates allowed).

    A cone of the fan is a face of the smallest maximal cone holding its
    rays, and v lies in that face exactly when it lies in the maximal cone
    and its minimal face there has no other rays.
    """
    fan = cone.fan
    if len(v) != fan.dim:
        raise ValueError("point dimension mismatch")
    containing = [k for k, c in enumerate(fan.max_cones) if cone.indices <= c]
    if not containing:
        raise ConeNotInFan("no maximal cone contains the given cone")
    hrep = fan._hreps[min(containing, key=lambda k: len(fan.max_cones[k]))]
    vv = [Fraction(x) for x in v]
    return hrep.contains(vv) and hrep.minimal_face(vv) <= cone.indices


def minimal_cone_containing(fan: Fan, v: Sequence) -> Optional[Cone]:
    """The unique smallest cone of the fan containing v, or None outside."""
    vv = [Fraction(x) for x in v]
    for hrep in fan._hreps:
        if hrep.contains(vv):
            return Cone(fan, hrep.minimal_face(vv))
    return None


def validate_fan(fan: Fan) -> list[str]:
    """Check fan invariants; returns a list of human-readable violations.

    Ray primitivity and distinctness, cone index bounds, maximality of the
    listed cones, strong convexity, and, for every pair of maximal cones,
    the requirement that they intersect in a common face.  By the
    separation lemma (Cox-Little-Schenck, Lemma 1.2.13), two cones meet
    exactly in the cone over their common rays, a face of each, when some
    functional vanishes on the common rays, is positive on the other rays
    of the first cone and negative on the other rays of the second.  Each
    pair first tries the integer candidate u1 - u2, where ui sums the facet
    normals of cone i that vanish on the common rays; only when it fails
    does the pair solve the Farkas alternative, an exact LP, and only a
    failing pair runs the face tests that name the violation.

    The check runs once per fan; each call returns a list of its own.
    """
    return list(fan._violations)


def _fan_violations(fan: Fan) -> tuple[str, ...]:
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
        return tuple(problems)
    for c, cone in enumerate(fan.max_cones):
        if any(i < 0 or i >= fan.nrays for i in cone):
            problems.append("cone %d uses an out-of-range ray index" % c)
    if problems:
        return tuple(problems)
    for c1, cone1 in enumerate(fan.max_cones):
        for c2, cone2 in enumerate(fan.max_cones):
            if c1 < c2 and (cone1 <= cone2 or cone2 <= cone1):
                problems.append("cones %d and %d are nested, so one is not maximal" % (c1, c2))
    hreps = fan._hreps
    for c, (cone, hrep) in enumerate(zip(fan.max_cones, hreps)):
        # linearly independent rays span a strongly convex cone
        if len(cone) > fan.dim - len(hrep.equations) and hrep.minimal_face([0] * fan.dim):
            problems.append("cone %d is not strongly convex" % c)
    if problems:
        return tuple(problems)
    for c1, c2 in itertools.combinations(range(len(fan.max_cones)), 2):
        problems.extend(_intersection_problems(fan, hreps, c1, c2))
    return tuple(problems)


def _intersection_problems(fan: Fan, hreps, c1: int, c2: int) -> list[str]:
    cone1, cone2 = fan.max_cones[c1], fan.max_cones[c2]
    hrep1, hrep2 = hreps[c1], hreps[c2]
    common = cone1 & cone2
    u1, u2 = (
        [sum(n[d] for n, on in hrep.facets if common <= on) for d in range(fan.dim)]
        for hrep in (hrep1, hrep2)
    )
    # u1 and u2 vanish on the common rays, which lie on every facet summed
    m = [x - y for x, y in zip(u1, u2)]
    if all(_dot(m, fan.rays[j]) > 0 for j in cone1 - common) and all(
        _dot(m, fan.rays[k]) < 0 for k in cone2 - common
    ):
        return []
    if not _separation_alternative(fan, common, cone1 - common, cone2 - common):
        return []
    for c, hrep in ((c1, hrep1), (c2, hrep2)):
        if not _spans_face(fan, hrep, common):
            return ["shared rays of cones %d and %d do not span a face of cone %d" % (c1, c2, c)]
    return ["cones %d and %d intersect outside their common face" % (c1, c2)]


def _separation_alternative(fan: Fan, common, rest1, rest2) -> bool:
    """Whether no functional vanishes on the ``common`` rays, is positive on
    ``rest1`` and negative on ``rest2``.  By Farkas' lemma that happens
    exactly when sum(b_j r_j) - sum(c_k r_k) + sum(a_i r_i) = 0 with b, c >= 0
    summing to 1 and a free (j in rest1, k in rest2, i in common)."""
    columns = (
        [fan.rays[j] for j in sorted(rest1)]
        + [[-x for x in fan.rays[k]] for k in sorted(rest2)]
        + [fan.rays[i] for i in sorted(common)]
        + [[-x for x in fan.rays[i]] for i in sorted(common)]
    )
    weights = [1] * (len(rest1) + len(rest2)) + [0] * (2 * len(common))
    a = IntMatrix.from_rows(
        [[col[d] for col in columns] for d in range(fan.dim)] + [weights], cols=len(columns)
    )
    return feasible_lexmin(a, [0] * fan.dim + [1]) is not None


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
    """Star of a cone: every maximal cone containing it, projected to N(sigma).

    Built once per cone of the fan and kept on the fan; a ray set that
    spans no cone of the fan gets a star fan of its own on every call.
    """
    if sigma.fan != fan:
        raise ConeNotInFan("cone belongs to a different fan")
    star = fan._stars.get(sigma.indices)
    if star is None:
        star = _star_fan(fan, sigma.indices)
        if fan.is_face(sigma.indices):
            fan._stars[sigma.indices] = star
    return star


def _star_fan(fan: Fan, indices: frozenset[int]) -> StarFan:
    sigma = Cone(fan, indices)
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
