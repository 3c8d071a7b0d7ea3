"""Standard fans and Cox rings used across the test modules."""

from __future__ import annotations

import itertools

from coxmap.coxring import build_cox_ring
from coxmap.fan import Fan


def projective_line():
    return Fan.make(1, [(1,), (-1,)], [{0}, {1}])


def projective_plane():
    return Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {0, 2}, {1, 2}])


def projective_space_3():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    return Fan.make(3, rays, [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}])


def product_of_lines(k=2):
    """(P^1)^k: rays +-e_j, one maximal cone per choice of signs."""
    rays = [tuple(s if i == j else 0 for i in range(k)) for j in range(k) for s in (1, -1)]
    cones = [
        {2 * j + s for j, s in enumerate(choice)}
        for choice in itertools.product((0, 1), repeat=k)
    ]
    return Fan.make(k, rays, cones)


def affine_line():
    return Fan.make(1, [(1,)], [{0}])


def quarter_plane_quotient():
    # the affine plane modulo the sign involution: class group Z/2
    return Fan.make(2, [(1, 0), (1, 2)], [{0, 1}])


def hirzebruch_surface(a):
    return Fan.make(2, [(1, 0), (0, 1), (-1, a), (0, -1)], [{0, 1}, {1, 2}, {2, 3}, {0, 3}])


def plane_mod_3():
    """P^2 modulo mu_3 acting with weights (0, 1, 2): class group Z + Z/3."""
    return Fan.make(2, [(2, -1), (-1, 2), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])


def cube_fan():
    """Cones over the six square faces of the cube [-1, 1]^3: complete and
    not simplicial."""
    rays = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    cones = [
        {i for i, ray in enumerate(rays) if ray[axis] == sign}
        for axis in range(3)
        for sign in (1, -1)
    ]
    return Fan.make(3, rays, cones)


def ring_p1(names=("u", "v")):
    return build_cox_ring(projective_line(), names)


def ring_p2(names=("x0", "x1", "x2")):
    return build_cox_ring(projective_plane(), names)


def ring_p3(names=("z0", "z1", "z2", "z3")):
    return build_cox_ring(projective_space_3(), names)


def ring_p1xp1(names=("x0", "x1", "y0", "y1")):
    return build_cox_ring(product_of_lines(), names)


def ring_affine_line(names=("t",)):
    return build_cox_ring(affine_line(), names)


def ring_quarter_quotient(names=("y1", "y2")):
    return build_cox_ring(quarter_plane_quotient(), names)


def ring_line_power(k):
    names = ["%s%d" % (chr(ord("a") + j), s) for j in range(k) for s in (0, 1)]
    return build_cox_ring(product_of_lines(k), names)


def affine_space(n):
    rays = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return Fan.make(n, rays, [set(range(n))])
