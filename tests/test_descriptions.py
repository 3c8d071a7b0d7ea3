import random
import time
from fractions import Fraction

import pytest

from coxmap import coxring as coxring_module
from coxmap import descriptions as descriptions_module
from coxmap import fan as fan_module
from coxmap.coxring import MPoly
from coxmap.descriptions import (
    CharacterMap,
    CoxDescription,
    DescriptionNotHomogeneous,
    DivisorStatus,
    FractionalPartMismatch,
    HomogeneityFailure,
    IncompleteDescription,
    InconsistentCharacterData,
    InhomogeneousImage,
    NonIntegralL,
    NonTermination,
    NotInKernel,
    ZeroConeNotInFan,
    candidate_divisors,
    check_homogeneity,
    check_relevance,
    complete,
    complete_along,
    construct_description,
    divisor_status,
    induced_character_map,
    pullback_polynomial,
    regularity_report,
    twist_description,
    validate_description,
    verify_ideal_vanishing,
)
from coxmap.sections import FactoredSection, RadicalScalar

from varieties import (
    ring_affine_line,
    ring_line_power,
    ring_p1,
    ring_p1xp1,
    ring_p2,
    ring_p3,
    ring_quarter_quotient,
)


def sec(ring, spec, *, sign=1, scalars=()):
    unit = RadicalScalar.make(sign, [(p, Fraction(e)) for p, e in scalars])
    return FactoredSection.from_factors(
        ring.nvars,
        [(ring.parse(s), Fraction(e)) for s, e in spec],
        unit=unit,
    )


def desc(source, target, specs):
    images = [
        FactoredSection.zero(source.nvars) if s is None else sec(source, s)
        for s in specs
    ]
    return CoxDescription(source, target, images)


def cremona():
    ring = ring_p2()
    return desc(ring, ring, [[("x1", 1), ("x2", 1)], [("x0", 1), ("x2", 1)], [("x0", 1), ("x1", 1)]])


def segre():
    return desc(
        ring_p1xp1(),
        ring_p3(),
        [
            [("x0", 1), ("y0", 1)],
            [("x0", 1), ("y1", 1)],
            [("x1", 1), ("y0", 1)],
            [("x1", 1), ("y1", 1)],
        ],
    )


def line_embedding():
    return desc(ring_p1(), ring_p2(), [[("u", 1)], [("v", 1)], None])


def collapse_p2_to_p1():
    return desc(ring_p2(), ring_p1(), [[("x0", 1), ("x2", 1)], [("x1", 1), ("x2", 1)]])


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_line_embedding():
    d = line_embedding()
    zero_set, sigma = validate_description(d)
    assert zero_set == frozenset({2})
    assert sigma.indices == frozenset({2})


def test_validate_rejects_non_cone_zero_set():
    d = desc(ring_p1(), ring_p1(), [None, None])
    with pytest.raises(ZeroConeNotInFan):
        validate_description(d)


def test_inhomogeneous_factor_is_rejected():
    d = desc(ring_p2(), ring_p1(), [[("x0 + x1^2", 1)], [("x2", 2)]])
    with pytest.raises(InhomogeneousImage):
        check_homogeneity(d)
    # the zero-cone condition itself is indifferent to factor degrees
    assert validate_description(d)[0] == frozenset()


def test_wrong_image_count_rejected():
    with pytest.raises(ValueError):
        CoxDescription(ring_p1(), ring_p2(), [FactoredSection.zero(2)] * 2)


# ---------------------------------------------------------------------------
# homogeneity


def test_cremona_is_homogeneous():
    result = check_homogeneity(cremona())
    assert isinstance(result, CharacterMap)
    assert result.sigma_indices == frozenset()
    assert result.basis == ((1, 0), (0, 1))
    ring = ring_p2()
    x0, x2 = ring.parse("x0"), ring.parse("x2")
    assert result.values[0].exponent_of(x2) == 1
    assert result.values[0].exponent_of(x0) == -1


def test_degree_mismatch_is_reported():
    d = desc(ring_p1(), ring_p1(), [[("u", 1)], [("v", 2)]])
    result = check_homogeneity(d)
    assert isinstance(result, HomogeneityFailure)
    assert result.reason == "nonzero_degree"
    assert result.character == (1,)
    assert result.degree_free == (Fraction(-1),)


def test_fractional_character_value_is_reported():
    d = desc(
        ring_p1(),
        ring_p1(),
        [[("u", 1)], [("u", Fraction(1, 2)), ("v", Fraction(1, 2))]],
    )
    result = check_homogeneity(d)
    assert isinstance(result, HomogeneityFailure)
    assert result.reason == "fractional_exponent"


def test_line_embedding_is_homogeneous():
    result = check_homogeneity(line_embedding())
    assert isinstance(result, CharacterMap)
    assert result.basis == ((1, -1),)
    ring = ring_p1()
    assert result.values[0].exponent_of(ring.parse("u")) == 1
    assert result.values[0].exponent_of(ring.parse("v")) == -1


def test_torsion_degree_blocks_homogeneity():
    # the target is the affine line, the source the quotient surface whose
    # class group is pure 2-torsion: a single coordinate has torsion degree
    from varieties import affine_line
    from coxmap.coxring import build_cox_ring

    source = ring_quarter_quotient()
    target = build_cox_ring(affine_line(), ("s",))
    bad = desc(source, target, [[("y1", 1)]])
    result = check_homogeneity(bad)
    assert isinstance(result, HomogeneityFailure)
    assert result.reason == "nonzero_degree"
    assert result.degree_free == ()
    assert result.degree_torsion == (1,)
    good = desc(source, target, [[("y1", 1), ("y2", 1)]])
    assert isinstance(check_homogeneity(good), CharacterMap)


def test_induced_character_map_raises_on_failure():
    d = desc(ring_p1(), ring_p1(), [[("u", 1)], [("v", 2)]])
    with pytest.raises(DescriptionNotHomogeneous):
        induced_character_map(d)


def test_relevance_witness():
    d = line_embedding()
    ok, witness = check_relevance(d)
    assert ok
    assert frozenset({2}) <= d.target.fan.max_cones[witness]


# ---------------------------------------------------------------------------
# pullbacks


def test_segre_quadric_pulls_back_to_zero():
    d = segre()
    quadric = d.target.parse("z0*z3 - z1*z2")
    assert pullback_polynomial(d, quadric).is_zero
    ok, witness = verify_ideal_vanishing(d, [quadric])
    assert ok and witness is None


def test_nonvanishing_pullback_witness():
    d = segre()
    g = d.target.parse("z0*z3 + z1*z2")
    ok, witness = verify_ideal_vanishing(d, [g])
    assert not ok
    bad, pb = witness
    assert bad == g
    assert pb.num == d.source.parse("2*x0*x1*y0*y1")
    assert pb.den == d.source.constant(1)


def test_pullback_drops_terms_meeting_zero_images():
    d = line_embedding()
    assert pullback_polynomial(d, d.target.parse("x2")).is_zero
    pb = pullback_polynomial(d, d.target.parse("x0 + x2"))
    assert pb.num == d.source.parse("u")


def test_pullback_collects_denominators():
    d = desc(ring_p1(), ring_p1(), [[("u", 1), ("v", -1)], [("v", 0)]])
    pb = pullback_polynomial(d, d.target.parse("u + v"))
    assert pb.num == d.source.parse("u + v")
    assert pb.den == d.source.parse("v")


def test_pullback_radical_mismatch():
    d = desc(ring_p1(), ring_p1(), [[("u", Fraction(1, 2))], [("v", 1)]])
    with pytest.raises(FractionalPartMismatch):
        pullback_polynomial(d, d.target.parse("u + v"))


def test_pullback_keeps_common_radical_part():
    d = desc(
        ring_affine_line(),
        ring_p1(),
        [[("t", Fraction(3, 2))], [("t", Fraction(1, 2))]],
    )
    pb = pullback_polynomial(d, d.target.parse("u + v"))
    t = d.source.parse("t")
    # t^{3/2} + t^{1/2} = t^{1/2} (t + 1): the fractional part sits in the
    # factored prefix, not in the numerator
    assert pb.radical.factors == ((t, Fraction(1, 2)),)
    assert pb.num == d.source.parse("t + 1")
    assert pullback_polynomial(d, d.target.parse("u")).num == t


@pytest.mark.parametrize("prime", [10 ** 19 + 51, 10 ** 29 + 319])
def test_prime_coefficients_are_never_factored(prime):
    # factoring the coefficient by trial division took about 3 s for the
    # 16-digit prime 10^15 + 37, a cost that grows with its square root
    d = segre()
    vanishing = d.target.parse("%d*z0*z3 - %d*z1*z2" % (prime, prime))
    perturbed = d.target.parse("%d*z0*z3 - %d*z1*z2 + %d*z0^2" % (prime, prime, prime))
    t0 = time.perf_counter()
    assert verify_ideal_vanishing(d, [vanishing]) == (True, None)
    ok, (bad, pb) = verify_ideal_vanishing(d, [vanishing, perturbed])
    assert time.perf_counter() - t0 < 1.0
    assert not ok and bad == perturbed
    assert pb.num == d.source.parse("%d*x0^2*y0^2" % prime)


def test_segre_relations_cancel_before_expansion():
    # images (AB, AC, DB, DC) of degree-6 forms: the quadric, a quartic
    # multiple and a perturbed quadric took about 2 s when every monomial was
    # expanded before the sum
    rng = random.Random(6)
    source = ring_p2()
    monomials = [
        (a, b, 6 - a - b) for a in range(7) for b in range(7 - a)
    ]
    forms = []
    for _ in range(4):
        f = MPoly.zero(3)
        for exps in rng.sample(monomials, 14):
            f = f + MPoly.monomial(3, exps, rng.choice((-9, -5, -2, 1, 3, 7)))
        forms.append(f)
    a, b, c, e = forms
    images = [
        FactoredSection.from_factors(3, [(p, 1), (q, 1)])
        for p, q in ((a, b), (a, c), (e, b), (e, c))
    ]
    d = CoxDescription(source, ring_p3(), images)
    quadric = d.target.parse("4000000007*z0*z3 - 4000000007*z1*z2")
    quartic = quadric * d.target.parse("1000003*z0^2 - 1000033*z1*z2")
    perturbed = quadric + d.target.parse("4000000009*z0*z2")
    t0 = time.perf_counter()
    verdicts = [verify_ideal_vanishing(d, [g])[0] for g in (quadric, quartic, perturbed)]
    assert time.perf_counter() - t0 < 1.0
    assert verdicts == [True, True, False]


# ---------------------------------------------------------------------------
# construction from character data


def test_construct_affine_root_map():
    source = ring_affine_line()
    target = ring_quarter_quotient()
    charmap = CharacterMap(
        frozenset(),
        ((1, 0), (0, 1)),
        (sec(source, [("t", 2)]), sec(source, [("t", 1)])),
    )
    d = construct_description(source, target, charmap)
    t = source.parse("t")
    assert d.images[0].exponent_of(t) == Fraction(3, 2)
    assert d.images[1].exponent_of(t) == Fraction(1, 2)
    assert induced_character_map(d) == charmap


def test_construct_projective_line_chart():
    source = ring_p1()
    target = ring_p1()
    charmap = CharacterMap(
        frozenset(),
        ((1,),),
        (sec(source, [("u", 1), ("v", -1)]),),
    )
    d = construct_description(source, target, charmap)
    assert d.images[0] == sec(source, [("u", 1), ("v", -1)])
    assert d.images[1].is_one


def test_construct_rejects_non_basis():
    source = ring_p1()
    charmap = CharacterMap(frozenset(), ((2,),), (sec(source, [("u", 2), ("v", -2)]),))
    with pytest.raises(InconsistentCharacterData):
        construct_description(source, ring_p1(), charmap)


def test_construct_rejects_bad_values():
    source = ring_p1()
    target = ring_p1()
    multi = CharacterMap(
        frozenset(), ((1,),), (sec(source, [("u", Fraction(1, 2))]),)
    )
    with pytest.raises(InconsistentCharacterData):
        construct_description(source, target, multi)
    graded = CharacterMap(frozenset(), ((1,),), (sec(source, [("u", 1)]),))
    with pytest.raises(InconsistentCharacterData):
        construct_description(source, target, graded)
    short = CharacterMap(frozenset(), ((1,),), ())
    with pytest.raises(InconsistentCharacterData):
        construct_description(source, target, short)


def test_construct_rejects_unmatchable_sign():
    source = ring_affine_line()
    target = ring_quarter_quotient()
    charmap = CharacterMap(
        frozenset(),
        ((1, 0), (0, 1)),
        (sec(source, [("t", 2)]), sec(source, [("t", 1)], sign=-1)),
    )
    with pytest.raises(InconsistentCharacterData):
        construct_description(source, target, charmap)


def test_construct_matches_signs_when_possible():
    source = ring_p1()
    charmap = CharacterMap(
        frozenset(), ((1,),), (sec(source, [("u", 1), ("v", -1)], sign=-1),)
    )
    d = construct_description(source, ring_p1(), charmap)
    assert induced_character_map(d) == charmap


def identity_chart_on_plane():
    source = ring_p2()
    charmap = CharacterMap(
        frozenset(),
        ((1, 0), (0, 1)),
        (
            sec(source, [("x0", 1), ("x2", -1)]),
            sec(source, [("x1", 1), ("x2", -1)]),
        ),
    )
    return construct_description(source, ring_p2(), charmap)


def test_construct_identity_chart_on_plane():
    source = ring_p2()
    d = identity_chart_on_plane()
    assert d.images[0] == sec(source, [("x0", 1), ("x2", -1)])
    assert d.images[1] == sec(source, [("x1", 1), ("x2", -1)])
    assert d.images[2].is_one


# ---------------------------------------------------------------------------
# twisting


def test_twist_reaches_polynomial_images():
    d = collapse_p2_to_p1()
    twisted = twist_description(d, d.source.parse("x2"), (-1, -1))
    assert twisted.images[0] == sec(d.source, [("x0", 1)])
    assert twisted.images[1] == sec(d.source, [("x1", 1)])


def test_twist_requires_kernel_vector():
    d = collapse_p2_to_p1()
    with pytest.raises(NotInKernel):
        twist_description(d, d.source.parse("x2"), (1, 0))


def test_twist_preserves_character_map():
    d = collapse_p2_to_p1()
    twisted = twist_description(d, d.source.parse("x2"), (-1, -1))
    assert induced_character_map(twisted) == induced_character_map(d)


def test_twist_shares_the_star_fan(monkeypatch):
    d = collapse_p2_to_p1()
    twisted = twist_description(d, d.source.parse("x2"), (-1, -1))
    assert twisted.sigma is d.sigma and twisted.star is d.star

    # new fans and rings, so that the star fan is built in this test
    fan_module._interned.cache_clear()
    coxring_module._cox_ring.cache_clear()
    calls = []
    real = fan_module._star_fan
    monkeypatch.setattr(fan_module, "_star_fan", lambda *a: calls.append(a) or real(*a))
    done, entries = complete(collapse_p2_to_p1())
    assert any(e.modified for e in entries)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# divisor diagnosis


def test_collapse_needs_modification_along_shared_factor():
    d = collapse_p2_to_p1()
    diag = divisor_status(d, d.source.parse("x2"))
    assert diag.status == DivisorStatus.NEEDS_MODIFICATION
    assert diag.mu == (Fraction(1), Fraction(1))
    assert diag.L_mu == (0,)
    assert diag.tau_y == frozenset()
    assert diag.mu_prime == (Fraction(0), Fraction(0))
    repaired = complete_along(d, diag)
    assert repaired.images[0] == sec(d.source, [("x0", 1)])
    assert repaired.images[1] == sec(d.source, [("x1", 1)])


def test_cremona_divisors_agree():
    d = cremona()
    for name in ("x0", "x1", "x2"):
        diag = divisor_status(d, d.source.parse(name))
        assert diag.status == DivisorStatus.AGREES


def test_pole_is_detected():
    from varieties import affine_line
    from coxmap.coxring import build_cox_ring

    source = ring_p1()
    target = build_cox_ring(affine_line(), ("s",))
    d = desc(source, target, [[("u", 1), ("v", -1)]])
    diag = divisor_status(d, source.parse("v"))
    assert diag.status == DivisorStatus.NON_REGULAR_MAP_LOCUS
    assert diag.L_mu == (-1,)
    assert divisor_status(d, source.parse("u")).status == DivisorStatus.AGREES


def test_fractional_projection_is_rejected():
    from varieties import affine_line
    from coxmap.coxring import build_cox_ring

    line = build_cox_ring(affine_line(), ("s",))
    source = ring_affine_line()
    d = desc(source, line, [[("t", Fraction(1, 2))]])
    with pytest.raises(NonIntegralL):
        divisor_status(d, source.parse("t"))


def test_divisor_input_is_normalized():
    d = cremona()
    diag = divisor_status(d, d.source.parse("-3*x0"))
    assert diag.f == d.source.parse("x0")
    assert diag.status == DivisorStatus.AGREES


# ---------------------------------------------------------------------------
# completion


def test_complete_collapse():
    d = collapse_p2_to_p1()
    done, entries = complete(d)
    assert done.images[0] == sec(d.source, [("x0", 1)])
    assert done.images[1] == sec(d.source, [("x1", 1)])
    by_factor = {e.f: e for e in entries}
    x2 = d.source.parse("x2")
    assert by_factor[x2].modified
    assert by_factor[x2].status == DivisorStatus.AGREES
    for name in ("x0", "x1"):
        assert not by_factor[d.source.parse(name)].modified


def test_complete_identity_chart():
    d = identity_chart_on_plane()
    done, entries = complete(d)
    source = d.source
    for i, name in enumerate(("x0", "x1", "x2")):
        assert done.images[i] == sec(source, [(name, 1)])
    x2 = source.parse("x2")
    trigger = next(e for e in entries if e.f == x2)
    assert trigger.modified
    assert trigger.diagnosis.tau_y == frozenset({2})
    assert trigger.diagnosis.mu_prime == (Fraction(0), Fraction(0), Fraction(1))


def test_complete_chart_of_line():
    source = ring_p1()
    d = desc(source, ring_p1(), [[("u", 1), ("v", -1)], [("u", 0)]])
    done, entries = complete(d)
    assert done.images[0] == sec(source, [("u", 1)])
    assert done.images[1] == sec(source, [("v", 1)])


def test_complete_keeps_poles():
    from varieties import affine_line
    from coxmap.coxring import build_cox_ring

    source = ring_p1()
    target = build_cox_ring(affine_line(), ("s",))
    d = desc(source, target, [[("u", 1), ("v", -1)]])
    done, entries = complete(d)
    assert done == d
    by_factor = {e.f: e for e in entries}
    assert by_factor[source.parse("v")].status == DivisorStatus.NON_REGULAR_MAP_LOCUS
    assert not by_factor[source.parse("v")].modified


def test_complete_is_idempotent():
    d = collapse_p2_to_p1()
    done, _ = complete(d)
    again, entries = complete(done)
    assert again == done
    assert all(not e.modified for e in entries)


def test_complete_refuses_a_repair_that_does_not_settle(monkeypatch):
    # one repair pass suffices because a twist leaves its divisor agreeing;
    # a twist that did not would leave the entries pass to find it
    monkeypatch.setattr(descriptions_module, "complete_along", lambda d, diag: d)
    with pytest.raises(NonTermination, match="x2 still needs modification"):
        complete(collapse_p2_to_p1())


# ---------------------------------------------------------------------------
# regularity


def test_cremona_regularity_patterns():
    d = cremona()
    report = regularity_report(d)
    ring = d.source
    expected = (
        (ring.parse("x0"), ring.parse("x1")),
        (ring.parse("x0"), ring.parse("x2")),
        (ring.parse("x1"), ring.parse("x2")),
    )
    assert report.non_regular_patterns == expected
    assert report.poles == ()
    assert report.images_polynomial
    assert not report.is_regular


def test_segre_is_regular():
    report = regularity_report(segre())
    assert report.is_regular
    assert report.non_regular_patterns == ()
    assert len(report.patterns_inside_irrelevant) == 2


def test_line_embedding_is_regular():
    report = regularity_report(line_embedding())
    assert report.is_regular
    assert report.non_regular_patterns == ()


def test_regularity_requires_completion():
    with pytest.raises(IncompleteDescription):
        regularity_report(collapse_p2_to_p1())


def test_squaring_map_of_four_lines_regularity_is_output_sensitive():
    # 16 factor sets of 4 variables each: the product enumeration walks 4^16
    # choices, while the only minimal transversals are the 4 pairs {a0, a1},
    # {b0, b1}, {c0, c1} and {d0, d1}
    ring = ring_line_power(4)
    d = desc(ring, ring, [[(name, 2)] for name in ring.names])
    t0 = time.perf_counter()
    report = regularity_report(d)
    assert time.perf_counter() - t0 < 1.0
    assert report.patterns_inside_irrelevant == tuple(
        (ring.parse(ring.names[2 * j]), ring.parse(ring.names[2 * j + 1]))
        for j in range(4)
    )
    assert report.non_regular_patterns == ()
    assert report.is_regular


def test_pole_blocks_regularity():
    from varieties import affine_line
    from coxmap.coxring import build_cox_ring

    source = ring_p1()
    target = build_cox_ring(affine_line(), ("s",))
    d = desc(source, target, [[("u", 1), ("v", -1)]])
    report = regularity_report(d)
    assert report.poles == (source.parse("v"),)
    assert not report.is_regular


# ---------------------------------------------------------------------------
# randomized round trips


def random_monomial_plane_map(rng):
    """Monomial self-maps of the projective plane with equal column sums
    are exactly the homogeneous ones."""
    ring = ring_p2()
    degree = rng.randint(1, 4)
    images = []
    for _ in range(3):
        a = rng.randint(0, degree)
        b = rng.randint(0, degree - a)
        exps = [a, b, degree - a - b]
        images.append(
            sec(ring, [(n, e) for n, e in zip(("x0", "x1", "x2"), exps) if e])
        )
    return CoxDescription(ring, ring, images)


def test_random_monomial_maps_are_homogeneous_and_complete():
    rng = random.Random(20260823)
    for _ in range(150):
        d = random_monomial_plane_map(rng)
        charmap = check_homogeneity(d)
        assert isinstance(charmap, CharacterMap)
        done, entries = complete(d)
        assert all(e.status != DivisorStatus.NEEDS_MODIFICATION for e in entries)
        assert induced_character_map(done) == charmap
        again, second = complete(done)
        assert again == done
        assert all(not e.modified for e in second)


def test_random_pullbacks_are_multiplicative():
    rng = random.Random(5)
    d = cremona()

    def random_poly():
        p = MPoly.zero(3)
        for _ in range(rng.randint(1, 3)):
            coeff = rng.randint(-3, 3) or 1
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            p = p + MPoly.monomial(3, exps, coeff)
        return p if not p.is_zero else MPoly.constant(3, 1)

    for _ in range(100):
        g, h = random_poly(), random_poly()
        pg = pullback_polynomial(d, g)
        ph = pullback_polynomial(d, h)
        pgh = pullback_polynomial(d, g * h)
        if pg.is_zero or ph.is_zero:
            assert pgh.is_zero
            continue
        prod = pg * ph
        assert pgh.radical == prod.radical
        assert pgh.num * prod.den == prod.num * pgh.den


def test_candidate_divisors_are_sorted_and_unique():
    d = collapse_p2_to_p1()
    ring = d.source
    assert candidate_divisors(d) == [
        ring.parse("x0"),
        ring.parse("x1"),
        ring.parse("x2"),
    ]
