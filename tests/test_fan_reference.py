"""Fan geometry against an LP reference on seeded random fans.

The reference is the earlier formulation, on the Fourier-Motzkin LPs of
``lp_reference``: face tests and strong convexity ask for a functional
vanishing on some rays and >= 1 on the cone's other rays; the pairwise
check of ``validate_fan`` accepts a pair with a separating functional and
otherwise solves for a point of both cones in |cone1| + |cone2| variables
on which a face witness of the common rays is positive; cone membership
and minimal faces are exact nonnegative solves.
The library answers the same questions with integer H-representations, an
integer separating functional per pair and, where that fails, one simplex
LP; every answer must agree, messages included.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

from coxmap.abelian import IntMatrix
from coxmap.fan import (
    Cone,
    ConeNotInFan,
    Fan,
    cone_contains,
    minimal_cone_containing,
    star_fan,
    validate_fan,
)
from lp_reference import fourier_motzkin_lexmin, nonneg_lexmin
from varieties import (
    cube_fan,
    hirzebruch_surface,
    plane_mod_3,
    product_of_lines,
    projective_plane,
    projective_space_3,
    quarter_plane_quotient,
)


COMPLETE_FANS = [projective_plane(), product_of_lines(), hirzebruch_surface(2),
                 projective_space_3(), cube_fan()]


def _face_witness(fan, indices, cone, opposite=frozenset()):
    """Functional vanishing on ``indices``, >= 1 on the cone's other rays and
    <= -1 on the other rays of ``opposite``."""
    ineqs = []
    for i in sorted(indices):
        ray = fan.rays[i]
        ineqs.append(([Fraction(x) for x in ray], Fraction(0)))
        ineqs.append(([Fraction(-x) for x in ray], Fraction(0)))
    for j in sorted(cone - indices):
        ineqs.append(([Fraction(-x) for x in fan.rays[j]], Fraction(-1)))
    for j in sorted(opposite - indices):
        ineqs.append(([Fraction(x) for x in fan.rays[j]], Fraction(-1)))
    return fourier_motzkin_lexmin(ineqs, fan.dim)


def reference_intersection_problems(fan, c1, cone1, c2, cone2) -> list[str]:
    common = cone1 & cone2
    # a separating functional shows that the cones meet in their common face
    # (the cheap direction of the separation lemma); every other pair is
    # decided by looking for a point of both cones outside that face
    if _face_witness(fan, common, cone1, cone2) is not None:
        return []
    m1 = _face_witness(fan, common, cone1)
    if m1 is None:
        return ["shared rays of cones %d and %d do not span a face of cone %d" % (c1, c2, c1)]
    if _face_witness(fan, common, cone2) is None:
        return ["shared rays of cones %d and %d do not span a face of cone %d" % (c1, c2, c2)]
    # Any point of cone1 & cone2 where m1 is positive escapes the common face.
    g1 = sorted(cone1)
    g2 = sorted(cone2)
    n = len(g1) + len(g2)
    ineqs = []
    for k in range(n):
        row = [Fraction(0)] * n
        row[k] = Fraction(-1)
        ineqs.append((row, Fraction(0)))
    for d in range(fan.dim):
        row = [Fraction(fan.rays[i][d]) for i in g1] + [Fraction(-fan.rays[j][d]) for j in g2]
        ineqs.append((row, Fraction(0)))
        ineqs.append(([-x for x in row], Fraction(0)))
    m1row = [
        -sum(Fraction(m1[d]) * fan.rays[i][d] for d in range(fan.dim)) for i in g1
    ] + [Fraction(0)] * len(g2)
    ineqs.append((m1row, Fraction(-1)))
    if fourier_motzkin_lexmin(ineqs, n) is not None:
        return ["cones %d and %d intersect outside their common face" % (c1, c2)]
    return []


def reference_validate_fan(fan) -> list[str]:
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
    for c1, cone1 in enumerate(fan.max_cones):
        for c2, cone2 in enumerate(fan.max_cones):
            if c1 < c2:
                problems.extend(reference_intersection_problems(fan, c1, cone1, c2, cone2))
    return problems


def reference_is_face(fan, indices) -> bool:
    return all(0 <= i < fan.nrays for i in indices) and any(
        indices <= cone and _face_witness(fan, indices, cone) is not None
        for cone in fan.max_cones
    )


def reference_contains(gens, v, dim) -> bool:
    cols = IntMatrix.from_rows([[gen[d] for gen in gens] for d in range(dim)], cols=len(gens))
    return nonneg_lexmin(cols, list(v)) is not None


def reference_minimal_face(gens: dict, v, dim) -> frozenset[int]:
    """Generator i is outside the minimal face exactly when some functional
    is nonnegative on all generators, zero on v and >= 1 on generator i."""
    face = set()
    for i, gen in gens.items():
        ineqs = [([Fraction(-x) for x in other], Fraction(0)) for other in gens.values()]
        ineqs.append(([Fraction(x) for x in v], Fraction(0)))
        ineqs.append(([Fraction(-x) for x in v], Fraction(0)))
        ineqs.append(([Fraction(-x) for x in gen], Fraction(-1)))
        if fourier_motzkin_lexmin(ineqs, dim) is None:
            face.add(i)
    return frozenset(face)


def reference_minimal_cone(fan, v):
    for cone in fan.max_cones:
        gens = {i: fan.rays[i] for i in sorted(cone)}
        if reference_contains(list(gens.values()), v, fan.dim):
            return reference_minimal_face(gens, v, fan.dim)
    return None


def random_ray(rng, dim):
    while True:
        ray = tuple(rng.randint(-2, 2) for _ in range(dim))
        if any(ray) and gcd(*ray) == 1:
            return ray


def random_fan(rng) -> Fan:
    """Random rays and cones of 1 to dim + 1 rays: simplicial, not
    simplicial, overlapping, nested or not strongly convex."""
    dim = rng.choice((2, 3))
    rays = []
    while len(rays) < rng.randint(dim + 1, dim + 4):
        ray = random_ray(rng, dim)
        if ray not in rays:
            rays.append(ray)
    cones = [
        rng.sample(range(len(rays)), rng.randint(1, min(dim + 1, len(rays))))
        for _ in range(rng.randint(1, 4))
    ]
    return Fan.make(dim, rays, cones)


def transformed(rng, fan: Fan) -> Fan:
    """The fan under a random unimodular map, with a random subset of its
    maximal cones: still a fan."""
    m = [[int(i == j) for j in range(fan.dim)] for i in range(fan.dim)]
    for _ in range(3):
        i, j = rng.sample(range(fan.dim), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    rays = [tuple(sum(row[k] * ray[k] for k in range(fan.dim)) for row in m) for ray in fan.rays]
    cones = rng.sample(fan.max_cones, rng.randint(1, len(fan.max_cones)))
    return Fan.make(fan.dim, rays, cones)


def random_points(rng, dim, count):
    return [
        tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2))) for _ in range(dim))
        for _ in range(count)
    ]


def test_validate_fan_matches_reference():
    rng = random.Random(41)
    rejected = 0
    for k in range(240):
        fan = random_fan(rng) if k % 3 else transformed(rng, rng.choice(COMPLETE_FANS))
        problems = validate_fan(fan)
        assert problems == reference_validate_fan(fan), fan
        for cone in fan.max_cones:
            for r in range(len(cone) + 1):
                for face in map(frozenset, itertools.combinations(sorted(cone), r)):
                    assert fan.is_face(face) == reference_is_face(fan, face), (fan, face)
        rejected += bool(problems)
    # both kinds of fan occur
    assert 40 < rejected < 200


def test_validate_fan_special_cases_match_reference():
    # (P^1)^6 plus the cone {(1,1,0,0,0,0), e3, e4, e5, e6, -e1}: 65 cones,
    # more than the 64 above which the pairwise check used to be skipped
    lines = product_of_lines(6)
    overlapping = Fan.make(
        6, list(lines.rays) + [(1, 1, 0, 0, 0, 0)], list(lines.max_cones) + [{12, 4, 6, 8, 10, 1}]
    )
    problems = validate_fan(overlapping)
    assert "cones 0 and 64 intersect outside their common face" in problems
    assert problems == reference_validate_fan(overlapping)
    # five rays in angular order, coned off in pentagram order: the cones
    # wind twice around the origin
    pentagram = Fan.make(
        2, [(1, 0), (1, 3), (-1, 1), (-1, -1), (1, -3)], [{0, 2}, {2, 4}, {4, 1}, {1, 3}, {3, 0}]
    )
    # cones over the triangles ABD, BCM and CDM of a square ABCD, with M the
    # midpoint of BD: the edge BD of the first is split between the others
    split = Fan.make(
        3, [(0, 0, 1), (2, 0, 1), (2, 2, 1), (0, 2, 1), (1, 1, 1)], [{0, 1, 3}, {1, 2, 4}, {2, 3, 4}]
    )
    # two simplicial cones whose shared rays are no face of one of them; the
    # sum of facet normals is zero on an unshared ray of the first cone, and
    # in the second fan of the second cone
    zero_on_first = Fan.make(
        3, [(0, -1, 0), (1, -2, 2), (1, -2, -2), (-1, -1, 2)], [{0, 2, 3}, {0, 1, 2}]
    )
    zero_on_second = Fan.make(
        3, [(-1, 0, 2), (1, 1, 2), (-2, 1, -1), (-2, -1, 0)], [{0, 2, 3}, {0, 1, 3}]
    )
    for fan in (pentagram, split, zero_on_first, zero_on_second):
        problems = validate_fan(fan)
        assert problems and problems == reference_validate_fan(fan)


def test_cone_queries_match_reference():
    rng = random.Random(43)
    for k in range(60):
        fan = random_fan(rng) if k % 2 else transformed(rng, rng.choice(COMPLETE_FANS))
        for v in random_points(rng, fan.dim, 5):
            for cone in fan.max_cones:
                gens = [fan.rays[i] for i in sorted(cone)]
                assert cone_contains(Cone(fan, cone), v) == reference_contains(gens, v, fan.dim)
            found = minimal_cone_containing(fan, v)
            expected = reference_minimal_cone(fan, v)
            assert (found and found.indices) == expected, (fan, v)


def test_star_fan_queries_match_reference():
    rng = random.Random(47)
    for _ in range(25):
        fan = transformed(rng, rng.choice(COMPLETE_FANS))
        cone = rng.choice(fan.max_cones)
        sigma = Cone(fan, frozenset(rng.sample(sorted(cone), rng.randint(0, len(cone)))))
        if not fan.is_face(sigma.indices):
            continue
        star = star_fan(fan, sigma)
        q = star.lattice.rank
        for v in itertools.islice(itertools.product(range(-2, 3), repeat=q), 30):
            inside = [
                dict(zip(sorted(indices), gens))
                for indices, gens in star.entries
                if reference_contains(gens, v, q)
            ]
            assert star.support_contains(v) == bool(inside)
            tau = star.minimal_image_cone(v)
            if not inside:
                assert tau is None
                continue
            assert tau == reference_minimal_face(inside[0], v, q)
            tau_gens = star.image_gens(tau)
            expected = []
            for images in (dict(zip(sorted(ix), gens)) for ix, gens in star.entries):
                if all(reference_contains(list(images.values()), t, q) for t in tau_gens):
                    candidate = frozenset(
                        i for i, g in images.items() if reference_contains(tau_gens, g, q)
                    )
                    if candidate not in expected:
                        expected.append(candidate)
            assert star.cones_with_image(tau_gens) == expected


def _answers(fan, points):
    """Every question the fan module answers about a fan, with exceptions as
    answers, for comparing a fan built directly with the interned one."""
    subsets = [
        frozenset(s) for r in range(fan.nrays + 1)
        for s in itertools.combinations(range(fan.nrays), r)
    ]
    valid = not validate_fan(fan)
    answers = [validate_fan(fan)]
    for face in subsets:
        answers.append(fan.is_face(face))
        try:
            cone = fan.cone(face)
        except ConeNotInFan as exc:
            answers.append(str(exc))
            continue
        answers.append(cone.indices)
        if valid:
            star = star_fan(fan, cone)
            answers.append((star, star.ray_map, star.cones))
    for v in points:
        answers.append([cone_contains(Cone(fan, cone), v) for cone in fan.max_cones])
        found = minimal_cone_containing(fan, v)
        answers.append(found and found.indices)
    return answers


def test_direct_fans_answer_like_interned_ones():
    rng = random.Random(53)
    fixed = COMPLETE_FANS + [
        hirzebruch_surface(3), plane_mod_3(), quarter_plane_quotient(),
        Fan.make(2, [(1, 0), (0, 1), (1, 1)], [{0, 1}, {0, 2}]),
    ]
    random_fans = [
        random_fan(rng) if k % 2 else transformed(rng, rng.choice(COMPLETE_FANS))
        for k in range(60)
    ]
    rejected = 0
    for shared in fixed + random_fans:
        direct = Fan(shared.dim, shared.rays, shared.max_cones)
        assert direct == shared and direct is not shared
        points = random_points(rng, shared.dim, 5)
        assert _answers(direct, points) == _answers(shared, points), shared
        rejected += bool(validate_fan(shared))
    assert 10 < rejected < 50
