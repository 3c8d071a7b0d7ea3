from __future__ import annotations

import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from coxmap import abelian
from coxmap import fan as fan_module
from coxmap.fan import (
    Cone,
    ConeNotInFan,
    Fan,
    cone_contains,
    irrelevant_monomials,
    minimal_cone_containing,
    orthogonal_character_basis,
    ray_projection_map,
    star_fan,
    validate_fan,
)
from varieties import (
    affine_line,
    cube_fan,
    hirzebruch_surface,
    product_of_lines,
    projective_line,
    projective_plane,
    projective_space_3,
    quarter_plane_quotient,
)


def test_validate_standard_fans():
    for fan in (projective_line(), projective_plane(), product_of_lines(),
                affine_line(), quarter_plane_quotient()):
        assert validate_fan(fan) == []


def test_validate_non_simplicial_fan():
    fan = cube_fan()
    assert all(len(cone) == 4 for cone in fan.max_cones)
    assert validate_fan(fan) == []
    # rays at the corners of the square {x = 1}: the two diagonals cross
    twisted = Fan.make(3, fan.rays, [{0, 3}, {1, 2}])
    assert validate_fan(twisted) == ["cones 0 and 1 intersect outside their common face"]
    # the cones meet in the ray (1, 1, 0), which is not a face of the flat
    # cone spanned by (1, 0, 0), (0, 1, 0) and itself
    flat = Fan.make(3, [(1, 1, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0)], [{0, 1}, {0, 2, 3}])
    assert validate_fan(flat) == ["shared rays of cones 0 and 1 do not span a face of cone 1"]


def test_validate_rejects_imprimitive_ray():
    fan = Fan.make(2, [(2, 0), (0, 1)], [{0, 1}])
    problems = validate_fan(fan)
    assert any("not primitive" in p for p in problems)


def test_validate_rejects_zero_and_duplicate_rays():
    assert any("zero" in p for p in validate_fan(Fan.make(2, [(0, 0)], [{0}])))
    dup = Fan.make(1, [(1,), (1,)], [{0}, {1}])
    assert any("coincide" in p for p in validate_fan(dup))


def test_validate_rejects_non_convex_cone():
    fan = Fan.make(1, [(1,), (-1,)], [{0, 1}])
    assert any("strongly convex" in p for p in validate_fan(fan))


def test_validate_rejects_overlapping_cones():
    # two 2-cones overlapping in a 2-dimensional region share no common face
    fan = Fan.make(2, [(1, 0), (0, 1), (1, 1), (-1, 1)], [{0, 1}, {2, 3}])
    problems = validate_fan(fan)
    assert any("outside their common face" in p for p in problems)


def test_validate_rejects_nested_cones():
    fan = Fan.make(2, [(1, 0), (0, 1)], [{0, 1}, {0}])
    assert any("nested" in p for p in validate_fan(fan))


def test_cone_membership():
    fan = projective_plane()
    cone01 = fan.cone({0, 1})
    assert cone_contains(cone01, (2, 3))
    assert cone_contains(cone01, (0, 0))
    assert not cone_contains(cone01, (-1, 0))
    # (1, 1) lies in the maximal cone {0, 1} but not in its face {0}
    assert not cone_contains(fan.cone({0}), (1, 1))
    assert cone_contains(fan.cone({0}), (3, 0))
    ray2 = fan.cone({2})
    assert cone_contains(ray2, (-2, -2))
    assert not cone_contains(ray2, (-2, -1))
    assert cone_contains(cone01, (Fraction(1, 2), Fraction(1, 3)))


def test_cone_requires_face():
    fan = projective_plane()
    with pytest.raises(ConeNotInFan):
        fan.cone({0, 1, 2})


def test_minimal_cone_containing():
    fan = projective_plane()
    assert minimal_cone_containing(fan, (1, 1)).indices == {0, 1}
    assert minimal_cone_containing(fan, (3, 0)).indices == {0}
    assert minimal_cone_containing(fan, (0, 0)).indices == frozenset()
    affine = quarter_plane_quotient()
    assert minimal_cone_containing(affine, (-1, 0)) is None
    assert minimal_cone_containing(affine, (2, 1)).indices == {0, 1}
    assert minimal_cone_containing(affine, (1, 2)).indices == {1}


def test_minimal_cone_is_common_face():
    # brute force: the minimal cone's rays lie in every maximal cone containing v
    rng = random.Random(23)
    fans = [projective_plane(), product_of_lines(), quarter_plane_quotient()]
    for _ in range(100):
        fan = rng.choice(fans)
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        cone = minimal_cone_containing(fan, v)
        containing = [c for c in fan.max_cones
                      if cone_contains(Cone(fan, c), v)]
        if cone is None:
            assert not containing
        else:
            assert containing
            for c in containing:
                assert cone.indices <= c


def test_face_subsets_of_simplicial_cones():
    fan = projective_plane()
    for cone in fan.max_cones:
        for r in range(len(cone) + 1):
            for sub in itertools.combinations(sorted(cone), r):
                assert fan.is_face(frozenset(sub))
    assert not fan.is_face(frozenset({0, 1, 2}))


def test_face_cache_is_bounded():
    # a fan keeps the cones it found and nothing for ray sets spanning
    # none, so no sequence of queries grows its memo past its 7 cones
    fan = projective_plane()
    for k in range(276):
        assert not fan.is_face(frozenset({0, 3 + k}))
        with pytest.raises(ConeNotInFan):
            fan.cone({1, 3 + k})
    for r in range(4):
        for sub in itertools.combinations(range(3), r):
            assert fan.is_face(frozenset(sub)) == (r < 3)
    assert len(fan._faces) == 7
    # face answers and H-representations live on the fan, so they go when
    # the intern table lets the fan go
    bound = fan_module._interned.cache_info().maxsize
    refs = []
    for k in range(1000, 1020 + bound):
        fan = Fan.make(2, [(1, 0), (k, 1)], [{0, 1}])
        assert minimal_cone_containing(fan, (k, 1)) == fan.cone({1})
        refs.append(weakref.ref(fan))
    del fan
    gc.collect()
    assert sum(ref() is not None for ref in refs) <= bound


def test_star_fan_of_ray_in_projective_plane():
    fan = projective_plane()
    sigma = fan.cone({2})
    star = star_fan(fan, sigma)
    assert star.lattice.rank == 1
    p0 = star.lattice.project(fan.rays[0])
    p1 = star.lattice.project(fan.rays[1])
    p2 = star.lattice.project(fan.rays[2])
    assert p2 == (0,)
    assert abs(p0[0]) == 1 and p1[0] == -p0[0]
    # entries: the two maximal cones containing ray 2, images are opposite rays
    assert sorted(sorted(ix) for ix, _ in star.entries) == [[0, 2], [1, 2]]
    assert star.support_contains((5,)) and star.support_contains((-5,))


def test_star_fan_zero_cone_is_identity():
    fan = projective_line()
    star = star_fan(fan, fan.cone(set()))
    assert star.lattice.projection.entries == ((1,),)
    L = ray_projection_map(star)
    assert L.entries == ((1, -1),)


def test_star_fan_full_cone_gives_point():
    fan = quarter_plane_quotient()
    star = star_fan(fan, fan.cone({0, 1}))
    assert star.lattice.rank == 0
    assert star.support_contains(())
    assert star.minimal_image_cone(()) == frozenset({0, 1})


def test_star_fan_minimal_image_cone():
    fan = projective_plane()
    star = star_fan(fan, fan.cone(set()))
    assert star.minimal_image_cone((0, 0)) == frozenset()
    assert star.minimal_image_cone((-1, 0)) == {1, 2}
    assert star.minimal_image_cone((0, 1)) == {1}


def test_star_fan_cones_with_image():
    fan = projective_line()
    star = star_fan(fan, fan.cone(set()))
    assert star.cones_with_image([]) == [frozenset()]
    assert star.cones_with_image([(-1,)]) == [frozenset({1})]


def test_cube_fan_geometry():
    fan = cube_fan()
    index = {ray: i for i, ray in enumerate(fan.rays)}
    top, edge = index[(1, 1, 1)], index[(1, 1, -1)]
    facet = frozenset(i for i, ray in enumerate(fan.rays) if ray[0] == 1)
    assert cone_contains(fan.cone(facet), (2, 1, -1))
    assert not cone_contains(fan.cone(facet), (1, 2, 0))
    assert minimal_cone_containing(fan, (2, 1, 1)).indices == facet
    assert minimal_cone_containing(fan, (1, 1, 0)).indices == {top, edge}
    assert minimal_cone_containing(fan, (2, 2, 2)).indices == {top}

    star = star_fan(fan, fan.cone(set()))
    assert star.support_contains((0, 0, 0)) and star.support_contains((3, -1, 2))
    assert star.minimal_image_cone((0, 0, 0)) == frozenset()
    assert star.minimal_image_cone((2, 1, 1)) == facet
    assert star.minimal_image_cone((1, 1, 0)) == {top, edge}
    assert star.minimal_image_cone((1, 1, 1)) == {top}
    assert star.cones_with_image([]) == [frozenset()]
    assert star.cones_with_image([(1, 1, 1)]) == [frozenset({top})]
    assert star.cones_with_image(star.image_gens(facet)) == [facet]

    # three square faces meet at a corner; their images cover the quotient
    star = star_fan(fan, fan.cone({top}))
    assert star.lattice.rank == 2 and len(star.entries) == 3
    for v in itertools.product(range(-2, 3), repeat=2):
        assert star.support_contains(v)
    assert star.minimal_image_cone((0, 0)) == {top}
    (edge_image,) = star.image_gens({edge})
    assert star.minimal_image_cone(edge_image) == {top, edge}
    assert star.cones_with_image([]) == [frozenset({top})]
    assert star.cones_with_image([edge_image]) == [frozenset({top, edge})]
    assert star.cones_with_image(star.image_gens(facet)) == [facet]


def refuse_lps(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fan geometry solved an LP")

    for module in (abelian, fan_module):
        for name in ("feasible_lexmin", "solve_rational"):
            monkeypatch.setattr(module, name, refuse, raising=False)


def test_star_fan_queries_solve_no_lps(monkeypatch):
    fans = [projective_plane(), product_of_lines(), hirzebruch_surface(1), cube_fan()]
    faces = [
        Cone(fan, frozenset(face))
        for fan in fans
        for cone in fan.max_cones
        for r in range(len(cone) + 1)
        for face in itertools.combinations(sorted(cone), r)
        if fan.is_face(frozenset(face))
    ]
    refuse_lps(monkeypatch)
    for sigma in faces:
        star = star_fan(sigma.fan, sigma)
        for v in itertools.product(range(-2, 3), repeat=star.lattice.rank):
            assert star.support_contains(v)  # every fan here is complete
            tau = star.minimal_image_cone(v)
            assert sigma.indices <= tau
            assert tau in star.cones_with_image(star.image_gens(tau))


def test_fan_decisions_solve_no_lps(monkeypatch):
    # fans made from here on are new, so no decision comes from a memo
    fan_module._interned.cache_clear()
    refuse_lps(monkeypatch)
    # fan and its number of cones: the cube fan has the empty cone, 8 rays,
    # 12 edges and 6 squares
    for fan, ncones in ((projective_plane(), 7), (projective_space_3(), 15),
                        (product_of_lines(4), 81), (hirzebruch_surface(1), 9),
                        (cube_fan(), 27), (quarter_plane_quotient(), 4)):
        assert validate_fan(fan) == []
        faces = set()
        for cone in fan.max_cones:
            for r in range(len(cone) + 1):
                for face in map(frozenset, itertools.combinations(sorted(cone), r)):
                    if fan.is_face(face):
                        faces.add(fan.cone(face).indices)
                    else:
                        with pytest.raises(ConeNotInFan):
                            fan.cone(face)
        assert len(faces) == ncones
        for v in itertools.product(range(-2, 3), repeat=fan.dim):
            cone = minimal_cone_containing(fan, v)
            assert cone is None or cone_contains(cone, v)


def test_validate_falls_back_to_the_lp(monkeypatch):
    # on F_2 the facet-normal functional fails for the opposite cones
    # {(1,0),(0,1)} and {(-1,2),(0,-1)}: it vanishes on (-1,2)
    calls = []

    def counting(a, b):
        calls.append(a)
        return abelian.feasible_lexmin(a, b)

    monkeypatch.setattr(fan_module, "feasible_lexmin", counting)
    assert validate_fan(hirzebruch_surface(2)) == []
    assert calls


def test_ray_projection_map_for_ray_star():
    fan = projective_plane()
    star = star_fan(fan, fan.cone({2}))
    L = ray_projection_map(star)
    assert L.rows == 1 and L.cols == 3
    assert L[0, 2] == 0 and abs(L[0, 0]) == 1 and L[0, 1] == -L[0, 0]


def test_orthogonal_character_basis():
    fan = projective_plane()
    assert orthogonal_character_basis(fan, fan.cone({2})) == ((1, -1),)
    assert orthogonal_character_basis(fan, fan.cone(set())) == ((1, 0), (0, 1))
    assert orthogonal_character_basis(fan, fan.cone({0, 1})) == ()


def test_irrelevant_monomials():
    fan = projective_plane()
    mono = irrelevant_monomials(fan)
    assert sorted(mono) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert irrelevant_monomials(affine_line()) == ((0,),)
    assert sorted(irrelevant_monomials(product_of_lines())) == [
        (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]


def test_irrelevant_monomials_match_vanishing_patterns():
    # a 0/1 point kills every irrelevant monomial exactly when its zero set
    # is contained in no maximal cone
    rng = random.Random(29)
    fans = [projective_plane(), product_of_lines(), projective_line()]
    for _ in range(100):
        fan = rng.choice(fans)
        point = [rng.randint(0, 1) for _ in range(fan.nrays)]
        zeros = {i for i, x in enumerate(point) if x == 0}
        monos = irrelevant_monomials(fan)
        all_die = all(
            any(e and point[i] == 0 for i, e in enumerate(mono)) for mono in monos
        )
        assert all_die == (not any(zeros <= c for c in fan.max_cones))
