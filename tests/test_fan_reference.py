"""Fan geometry against an LP reference on seeded random fans.

The reference is the earlier formulation: the pairwise check of
``validate_fan`` solves for a point of both cones in |cone1| + |cone2|
variables on which a face witness of the common rays is positive, and cone
membership and minimal faces are exact nonnegative solves.  The library
answers the same questions with one separation system per pair and integer
H-representations; every answer must agree, messages included.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

from coxmap import fan as fan_module
from coxmap.abelian import IntMatrix, feasible_lexmin, solve_rational
from coxmap.fan import (
    Cone,
    Fan,
    _face_witness,
    cone_contains,
    minimal_cone_containing,
    star_fan,
    validate_fan,
)
from varieties import (
    cube_fan,
    hirzebruch_surface,
    product_of_lines,
    projective_plane,
    projective_space_3,
)


COMPLETE_FANS = [projective_plane(), product_of_lines(), hirzebruch_surface(2),
                 projective_space_3(), cube_fan()]


def reference_intersection_problems(fan, c1, cone1, c2, cone2) -> list[str]:
    common = cone1 & cone2
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
    if feasible_lexmin(ineqs, n) is not None:
        return ["cones %d and %d intersect outside their common face" % (c1, c2)]
    return []


def reference_validate_fan(fan, monkeypatch) -> list[str]:
    # every check before the pairwise one is shared code
    with monkeypatch.context() as patch:
        patch.setattr(fan_module, "_intersection_problems", reference_intersection_problems)
        return validate_fan(fan)


def reference_contains(gens, v, dim) -> bool:
    cols = IntMatrix.from_rows([[gen[d] for gen in gens] for d in range(dim)], cols=len(gens))
    return solve_rational(cols, list(v), nonneg=True) is not None


def reference_minimal_face(gens: dict, v, dim) -> frozenset[int]:
    """Generator i is outside the minimal face exactly when some functional
    is nonnegative on all generators, zero on v and >= 1 on generator i."""
    face = set()
    for i, gen in gens.items():
        ineqs = [([Fraction(-x) for x in other], Fraction(0)) for other in gens.values()]
        ineqs.append(([Fraction(x) for x in v], Fraction(0)))
        ineqs.append(([Fraction(-x) for x in v], Fraction(0)))
        ineqs.append(([Fraction(-x) for x in gen], Fraction(-1)))
        if feasible_lexmin(ineqs, dim) is None:
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


def test_validate_fan_matches_reference(monkeypatch):
    rng = random.Random(41)
    rejected = 0
    for k in range(240):
        fan = random_fan(rng) if k % 3 else transformed(rng, rng.choice(COMPLETE_FANS))
        problems = validate_fan(fan)
        assert problems == reference_validate_fan(fan, monkeypatch), fan
        rejected += bool(problems)
    # both kinds of fan occur
    assert 40 < rejected < 200


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
