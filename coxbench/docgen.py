"""Seeded input documents for the benchmark, each with its known answer.

This module does not import coxmap.  Every document is built from a map
whose verdicts follow from how it was made (a twist by a kernel vector is
undone by completion, a Segre-type map kills the quadric, a character map
round-trips through construction), so answers never come from the code
under test.

Documents are JSON objects in the schema the ``coxmap`` command reads.
Polynomials are held here as ``{exponent tuple: int}`` dicts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

# ---------------------------------------------------------------------------
# integer polynomials


def _deglex(exps):
    return (sum(exps), exps)


def normalize(terms: dict) -> dict:
    """Primitive integer polynomial with a positive leading coefficient in
    degree-lexicographic order, the form coxmap stores factors in."""
    terms = {e: c for e, c in terms.items() if c}
    g = 0
    for c in terms.values():
        g = gcd(g, c)
    if terms[max(terms, key=_deglex)] < 0:
        g = -g
    return {e: c // g for e, c in terms.items()}


def poly_str(terms: dict, names) -> str:
    parts = []
    for exps in sorted(terms, key=_deglex, reverse=True):
        c = terms[exps]
        mono = "*".join(
            name if k == 1 else "%s^%d" % (name, k)
            for name, k in zip(names, exps)
            if k
        )
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = "%d*%s" % (abs(c), mono)
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(" %s %s" % part for part in parts[1:])


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_eval(terms: dict, point) -> Fraction:
    total = Fraction(0)
    for exps, c in terms.items():
        value = Fraction(c)
        for x, k in zip(point, exps):
            value *= Fraction(x) ** k
        total += value
    return total


def monomials(nvars: int, degree: int):
    """Exponent tuples of total degree ``degree``, in a fixed order."""
    return [
        exps
        for exps in product(range(degree + 1), repeat=nvars)
        if sum(exps) == degree
    ]


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def random_form(rng: random.Random, nvars: int, degree: int, bound: int = 9) -> dict:
    """Dense form of one degree with nonzero coefficients up to ``bound``."""
    return normalize({e: _nonzero(rng, bound) for e in monomials(nvars, degree)})


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:  # deterministic below 3.3e24
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A prime in [lo, hi].  coxmap factors scalars by trial division, so
    narrow ranges keep that cost the same from one document to the next."""
    while True:
        n = rng.randint(lo, hi)
        if _is_prime(n):
            return n


# ---------------------------------------------------------------------------
# varieties: fans in the document schema


def _ring(dim, rays, cones, names) -> dict:
    return {
        "dim": dim,
        "rays": [list(r) for r in rays],
        "max_cones": [sorted(c) for c in cones],
        "variables": list(names),
    }


def projective_space(n: int, prefix: str = "x") -> dict:
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    return _ring(
        n, rays, combinations(range(n + 1), n), ["%s%d" % (prefix, i) for i in range(n + 1)]
    )


_LINE_NAMES = ("x", "y", "z")


def product_of_lines(k: int) -> dict:
    rays, names = [], []
    for j in range(k):
        for sign in (1, -1):
            rays.append(tuple(sign if i == j else 0 for i in range(k)))
            names.append("%s%d" % (_LINE_NAMES[j], 0 if sign == 1 else 1))
    cones = [[2 * j + s for j, s in enumerate(choice)] for choice in product((0, 1), repeat=k)]
    return _ring(k, rays, cones, names)


def hirzebruch(a: int) -> dict:
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    return _ring(2, rays, [[0, 1], [1, 2], [2, 3], [0, 3]], ["x0", "x1", "x2", "x3"])


def plane_mod_3() -> dict:
    """P^2 modulo mu_3 acting with weights (0, 1, 2): class group Z + Z/3."""
    rays = [(2, -1), (-1, 2), (-1, -1)]
    return _ring(2, rays, [[0, 1], [1, 2], [0, 2]], ["x0", "x1", "x2"])


def affine_plane() -> dict:
    return _ring(2, [(1, 0), (0, 1)], [[0, 1]], ["x", "y"])


def space_mod_4x4() -> dict:
    """Affine 3-space modulo mu_4 x mu_4: class group Z/4 + Z/4, so that
    characters force fourth roots on two independent coordinates."""
    rays = [(1, 0, 0), (1, 4, 0), (1, 0, 4)]
    return _ring(3, rays, [[0, 1, 2]], ["y0", "y1", "y2"])


# ---------------------------------------------------------------------------
# images


def _image(factors, unit=None):
    """An image from (polynomial text, exponent) pairs; None means zero."""
    if factors is None:
        return "0"
    out = {"factors": [[text, str(Fraction(e))] for text, e in factors]}
    if unit is not None:
        out["unit"] = unit
    return out


def _var_images(names, exponent_rows):
    """Monomial images: row i gives the exponent of each source variable."""
    images = []
    for row in exponent_rows:
        if row is None:
            images.append(_image(None))
        else:
            images.append(_image([(names[j], e) for j, e in enumerate(row) if e]))
    return images


def _pattern(*names):
    return tuple(sorted(names))


# ---------------------------------------------------------------------------
# complete-ladder: complete base maps, twisted out of completeness


class BaseMap:
    """A complete description with its regularity answer, derived by hand.

    ``kernel`` spans the integer relations among the target rays not in the
    zero set (columns of zero images are ignored by a twist); any nonzero
    combination is a twist that completion must undo.  ``twist_forms``
    draws a random irreducible form of one class-group degree in the source
    ring.
    """

    def __init__(self, label, source, target, rows, regular, patterns, kernel, twist_forms):
        self.label = label
        self.source = source
        self.target = target
        self.rows = rows
        self.images = _var_images(source["variables"], rows)
        self.regular = regular
        self.patterns = sorted(patterns)
        self.kernel = kernel
        self.twist_forms = twist_forms


def _linear_in(indices, nvars):
    """Random linear forms supported on at least two of the given variables."""

    def draw(rng):
        while True:
            terms = {}
            for i in indices:
                if rng.random() < 0.8:
                    terms[tuple(1 if j == i else 0 for j in range(nvars))] = _nonzero(rng, 9)
            if len(terms) >= 2:
                return normalize(terms)

    return draw


def _projective_maps(n):
    space = projective_space(n)
    names = space["variables"]
    ones = [1] * (n + 1)
    draw = _linear_in(range(n + 1), n + 1)
    ident = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    square = [[2 * int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    cremona = [[int(i != j) for j in range(n + 1)] for i in range(n + 1)]
    projection = ident[:n] + [None]
    return [
        BaseMap("P%d identity" % n, space, space, ident, True, [], [ones], draw),
        BaseMap("P%d square" % n, space, space, square, True, [], [ones], draw),
        # the standard Cremona map is undefined where two coordinates vanish
        BaseMap(
            "P%d cremona" % n, space, space, cremona, False,
            [_pattern(a, b) for a, b in combinations(names, 2)], [ones], draw,
        ),
        # projection from the last coordinate point, which is the base locus
        BaseMap(
            "P%d projection" % n, space, space, projection, False,
            [_pattern(*names[:n])], [ones[:n] + [0]], draw,
        ),
    ]


def _line_product_maps(k):
    space = product_of_lines(k)
    names = space["variables"]
    nv = 2 * k
    kernel = [[int(i // 2 == j) for i in range(nv)] for j in range(k)]

    def draw(rng):
        j = rng.randrange(k)
        return _linear_in((2 * j, 2 * j + 1), nv)(rng)

    ident = [[int(i == j) for j in range(nv)] for i in range(nv)]
    swap = [ident[2], ident[3], ident[0], ident[1]] + ident[4:]
    # x0 -> x0*y0, x1 -> x1*y1: undefined at ([0:1],[1:0]) and ([1:0],[0:1])
    mix = [
        [1, 0, 1, 0] + [0] * (nv - 4),
        [0, 1, 0, 1] + [0] * (nv - 4),
    ] + ident[2:]
    return [
        BaseMap("(P1)^%d identity" % k, space, space, ident, True, [], kernel, draw),
        BaseMap("(P1)^%d swap" % k, space, space, swap, True, [], kernel, draw),
        BaseMap(
            "(P1)^%d mix" % k, space, space, mix, False,
            [_pattern(names[0], names[3]), _pattern(names[1], names[2])], kernel, draw,
        ),
    ]


def _hirzebruch_maps(a):
    surface = hirzebruch(a)
    line = projective_space(1, "u")
    fiber = _linear_in((0, 2), 4)

    def draw(rng):
        if rng.random() < 0.5:
            return fiber(rng)
        # c*x3 + x1*g(x0, x2) with g of degree a: linear in x3, so irreducible
        terms = {(0, 0, 0, 1): _nonzero(rng, 9)}
        for i in range(a + 1):
            if rng.random() < 0.7 or i == a:
                terms[(a - i, 1, i, 0)] = _nonzero(rng, 9)
        return normalize(terms)

    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    return [
        BaseMap(
            "F%d identity" % a, surface, surface, ident, True, [],
            [[1, -a, 1, 0], [0, 1, 0, 1]], draw,
        ),
        # the ruling F_a -> P^1; {x0, x2} lies in no cone, so it is harmless
        BaseMap(
            "F%d ruling" % a, surface, line, [ident[0], ident[2]], True, [],
            [[1, 1]], draw,
        ),
    ]


def _quotient_maps():
    surface = plane_mod_3()
    plane = projective_space(2)

    def draw(rng):
        # a*x0^3 + b*x1^3 + c*x2^3 + e*x0*x1*x2 is smooth unless e^3 = -27abc
        while True:
            a, b, c = (_nonzero(rng, 5) for _ in range(3))
            e = rng.randint(-5, 5)
            if e ** 3 != -27 * a * b * c:
                return normalize(
                    {(3, 0, 0): a, (0, 3, 0): b, (0, 0, 3): c, (1, 1, 1): e}
                )

    ident = [[int(i == j) for j in range(3)] for i in range(3)]
    cube = [[3 * int(i == j) for j in range(3)] for i in range(3)]
    return [
        BaseMap("P2/mu3 identity", surface, surface, ident, True, [], [[1, 1, 1]], draw),
        BaseMap("P2/mu3 cube", surface, plane, cube, True, [], [[1, 1, 1]], draw),
    ]


def ladder_maps():
    maps = []
    for n in (2, 3, 4):
        maps += _projective_maps(n)
    for k in (2, 3):
        maps += _line_product_maps(k)
    for a in (1, 2, 3):
        maps += _hirzebruch_maps(a)
    return maps + _quotient_maps()


LADDER = ladder_maps()


def _twist_vector(rng, base):
    while True:
        coeffs = [rng.randint(-2, 2) for _ in base.kernel]
        delta = [sum(c * row[i] for c, row in zip(coeffs, base.kernel)) for i in range(len(base.images))]
        if any(d and img != "0" for d, img in zip(delta, base.images)):
            return delta


def complete_ladder_doc(rng: random.Random, index: int):
    """A ladder map twisted by one or two random forms f^delta, delta in the
    ray relations, so that it is homogeneous but no longer complete."""
    base = LADDER[index % len(LADDER)]
    names = base.source["variables"]
    images = [dict(img) if img != "0" else img for img in base.images]
    for img in images:
        if img != "0":
            img["factors"] = [list(pair) for pair in img["factors"]]
    used = []
    for _ in range(1 + index // len(LADDER) % 2):  # rounds alternate 1 and 2 twists
        f = base.twist_forms(rng)
        if f in used:
            continue
        used.append(f)
        text = poly_str(f, names)
        for img, d in zip(images, _twist_vector(rng, base)):
            if d and img != "0":
                img["factors"].append([text, str(d)])
    doc = {"source": base.source, "target": base.target, "images": images}
    answer = {
        "map": base.label,
        "base_images": base.images,
        "twists": len(used),
        "regular": base.regular,
        "non_regular_patterns": [list(p) for p in base.patterns],
    }
    return doc, answer


# ---------------------------------------------------------------------------
# pullback-ideal: Segre-type maps P^2 -> P^3 and the quadric they satisfy


PULLBACK_DEGREES = (1, 1, 2, 2, 2, 3)  # the cycle of form degrees


def pullback_ideal_doc(rng: random.Random, index: int):
    """Images (AB, AC, DB, DC) of degree-d forms satisfy z0*z3 - z1*z2 = 0.

    The document carries that quadric, a quartic multiple of it and a
    perturbation of it by one monomial, each with prime coefficients.
    """
    d = PULLBACK_DEGREES[index % len(PULLBACK_DEGREES)]
    source, target = projective_space(2), projective_space(3, "z")
    xs, zs = source["variables"], target["variables"]
    forms = []
    while len(forms) < 4:
        f = random_form(rng, 3, d)
        if f not in forms:
            forms.append(f)
    a, b, c, dd = forms
    pairs = [(a, b), (a, c), (dd, b), (dd, c)]
    images = [_image([(poly_str(p, xs), 1), (poly_str(q, xs), 1)]) for p, q in pairs]

    quadric = {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}
    c0 = random_prime(rng, 4 * 10 ** 9, 5 * 10 ** 9)
    scaled = {e: c0 * k for e, k in quadric.items()}
    multiplier = {}
    for mono in rng.sample(monomials(4, 2), 2):
        multiplier[mono] = random_prime(rng, 10 ** 6, 2 * 10 ** 6) * rng.choice((1, -1))
    quartic = poly_mul(multiplier, quadric)
    # a monomial outside the quadric, so every coefficient stays a prime
    bump = rng.choice([m for m in monomials(4, 2) if m not in quadric])
    c1 = random_prime(rng, 4 * 10 ** 9, 5 * 10 ** 9)
    perturbed = dict(scaled)
    perturbed[bump] = c1

    # the perturbed generator pulls back to c1 * (bump evaluated on images)
    point = [rng.randint(-20, 20) or 1 for _ in range(3)]
    image_values = [poly_eval(p, point) * poly_eval(q, point) for p, q in pairs]
    expected = Fraction(c1)
    for value, k in zip(image_values, bump):
        expected *= value ** k
    doc = {
        "source": source,
        "target": target,
        "images": images,
        "ideal": [poly_str(scaled, zs), poly_str(quartic, zs), poly_str(perturbed, zs)],
    }
    answer = {
        "degree": d,
        "vanishes": [True, True, False],
        "witness_point": point,
        "witness_value": str(expected),
    }
    return doc, answer


# ---------------------------------------------------------------------------
# radical-oracle and branch evaluation: character data with fourth roots


def _affine_linear(rng, count):
    """Distinct normalized forms a*x + b*y + c with all three nonzero."""
    out = []
    while len(out) < count:
        f = normalize({(1, 0): _nonzero(rng, 9), (0, 1): _nonzero(rng, 9), (0, 0): _nonzero(rng, 9)})
        if f not in out:
            out.append(f)
    return out


def radical_character_data(rng: random.Random, pairs: int, scalar_root: bool):
    """Character values on affine 3-space mod mu_4 x mu_4 over the plane.

    Values of e1, e2, e3 are g, prod a_i and prod b_i; construction puts
    a_i^(1/4) into y1 and b_i^(1/4) into y2, so every evaluation has 16
    branches however many pairs there are.  With ``scalar_root`` the value
    of e2 also carries a prime, whose fourth root joins y1.
    """
    source, target = affine_plane(), space_mod_4x4()
    names = source["variables"]
    polys = _affine_linear(rng, 2 * pairs + 2)
    g = polys[:2]
    a = polys[2:2 + pairs]
    b = polys[2 + pairs:]
    num = random_prime(rng, 10 ** 7, 2 * 10 ** 7)
    den = random_prime(rng, 10 ** 5, 2 * 10 ** 5)
    v1 = _image(
        [(poly_str(g[0], names), 1), (poly_str(g[1], names), -1)],
        unit={"sign": rng.choice((1, -1)), "base": "%d/%d" % (num, den), "exp": "1"},
    )
    unit2 = None
    if scalar_root:
        unit2 = {"sign": 1, "base": str(random_prime(rng, 10 ** 7, 2 * 10 ** 7)), "exp": "1"}
    v2 = _image([(poly_str(p, names), 1) for p in a], unit=unit2)
    v3 = _image([(poly_str(p, names), 1) for p in b])
    charmap = {"sigma": [], "basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "values": [v1, v2, v3]}
    return source, target, charmap, (g, a, b)


RADICAL_PAIRS = (1, 1, 1, 2)  # the cycle of radical pair counts
ORACLE_SAMPLES = 4


def radical_oracle_doc(rng: random.Random, index: int):
    pairs = RADICAL_PAIRS[index % len(RADICAL_PAIRS)]
    source, target, charmap, _ = radical_character_data(rng, pairs, scalar_root=True)
    # "sampling" holds what the command line takes as --samples and --seed
    doc = {
        "source": source,
        "target": target,
        "character_map": charmap,
        "sampling": {"samples": ORACLE_SAMPLES, "seed": rng.randrange(2 ** 32)},
    }
    return doc, {"pairs": pairs, "root_orders": [4, 4, 4]}


# ---------------------------------------------------------------------------
# enumeration-blowup: regularity patterns and branch sets


BLOWUP_CYCLE = (
    ("regularity", 2),
    ("regularity", 3),
    ("branches", 1),
    ("branches", 2),
    ("branches", 3),
)


def _blowup_regularity(rng: random.Random, k: int, index: int):
    """A (P^1)^k ladder map composed with a random automorphism of the source
    (factors permuted and flipped) and with powers on the target factors.

    Neither changes completeness or regularity; the automorphism renames
    the variables in the answer.
    """
    maps = [m for m in LADDER if m.label.startswith("(P1)^%d " % k)]
    base = maps[index // len(BLOWUP_CYCLE) % len(maps)]
    names = base.source["variables"]
    perm = list(range(k))
    rng.shuffle(perm)
    flips = [rng.randrange(2) for _ in range(k)]
    powers = [rng.randint(1, 3) for _ in range(k)]
    col = [2 * perm[i // 2] + ((i % 2) ^ flips[i // 2]) for i in range(2 * k)]
    rows = []
    for t, row in enumerate(base.rows):
        new = [0] * (2 * k)
        for i, e in enumerate(row):
            new[col[i]] = e * powers[t // 2]
        rows.append(new)
    rename = {names[i]: names[col[i]] for i in range(2 * k)}
    doc = {"source": base.source, "target": base.target, "images": _var_images(names, rows)}
    answer = {
        "kind": "regularity",
        "map": base.label,
        "regular": base.regular,
        "non_regular_patterns": sorted(
            list(_pattern(*(rename[n] for n in p))) for p in base.patterns
        ),
    }
    return doc, answer


def _blowup_branches(rng: random.Random, pairs: int):
    """Images over the plane with fourth roots of ``pairs`` forms in each of
    y1 and y2, and the exact character values at one rational point."""
    source, target, _, (g, a, b) = radical_character_data(rng, pairs, scalar_root=False)
    names = source["variables"]
    def s(p):
        return poly_str(p, names)

    quarter = Fraction(1, 4)
    images = [
        _image([(s(g[0]), 1), (s(g[1]), -1)] + [(s(p), -quarter) for p in a + b]),
        _image([(s(p), quarter) for p in a]),
        _image([(s(p), quarter) for p in b]),
    ]
    while True:
        point = [rng.randint(1, 30) for _ in range(2)]
        if all(poly_eval(p, point) for p in g + a + b):
            break
    prod_a = prod_b = Fraction(1)
    for p in a:
        prod_a *= poly_eval(p, point)
    for p in b:
        prod_b *= poly_eval(p, point)
    doc = {"source": source, "target": target, "images": images,
           "eval_points": [point]}
    answer = {
        "kind": "branches",
        "pairs": pairs,
        "branches": 16,
        # y0*y1*y2, y1^4 and y2^4 are single-valued
        "characters": [
            str(poly_eval(g[0], point) / poly_eval(g[1], point)),
            str(prod_a),
            str(prod_b),
        ],
    }
    return doc, answer


def enumeration_blowup_doc(rng: random.Random, index: int):
    kind, size = BLOWUP_CYCLE[index % len(BLOWUP_CYCLE)]
    if kind == "regularity":
        return _blowup_regularity(rng, size, index)
    return _blowup_branches(rng, size)


# ---------------------------------------------------------------------------


GENERATORS = {
    "complete-ladder": complete_ladder_doc,
    "pullback-ideal": pullback_ideal_doc,
    "radical-oracle": radical_oracle_doc,
    "enumeration-blowup": enumeration_blowup_doc,
}

# documents per round of each workload's fixed mix of sizes
CYCLES = {
    "complete-ladder": len(LADDER),
    "pullback-ideal": len(PULLBACK_DEGREES),
    "radical-oracle": len(RADICAL_PAIRS),
    "enumeration-blowup": len(BLOWUP_CYCLE),
}


def document(workload: str, seed: int, stream: str, index: int):
    """The index-th (document, answer) pair of a stream; the same arguments
    always give the same pair."""
    rng = random.Random("coxbench:%s:%d:%s:%d" % (workload, seed, stream, index))
    return GENERATORS[workload](rng, index)
