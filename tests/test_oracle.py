import cmath
import math
import time
from fractions import Fraction

import pytest

from coxmap import oracle as oracle_module
from coxmap.coxring import build_cox_ring
from coxmap.descriptions import CharacterMap, CoxDescription, induced_character_map
from coxmap.fan import Fan
from coxmap.oracle import (
    AgreementReport,
    IrrelevantPoint,
    OnPole,
    OutOfFloatRange,
    evaluate_description,
    evaluate_section,
    orbit_equal,
    sample_agreement,
    vanishing_pattern,
)
from coxmap.sections import FactoredSection, RadicalScalar

from varieties import (
    affine_line,
    ring_affine_line,
    ring_p1,
    ring_p2,
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


def square_root_map():
    return desc(
        ring_affine_line(),
        ring_quarter_quotient(),
        [[("t", Fraction(3, 2))], [("t", Fraction(1, 2))]],
    )


def cremona():
    ring = ring_p2()
    return desc(
        ring,
        ring,
        [[("x1", 1), ("x2", 1)], [("x0", 1), ("x2", 1)], [("x0", 1), ("x1", 1)]],
    )


def approx_in(expected, values, tol=1e-9):
    return any(
        max(abs(a - b) for a, b in zip(expected, v)) <= tol for v in values
    )


# ---------------------------------------------------------------------------
# evaluation


def test_square_root_map_has_two_branches():
    vs = evaluate_description(square_root_map(), (4,))
    assert vs.root_order == 2
    assert len(vs.values) == 2
    assert approx_in((8, 2), vs.values)
    assert approx_in((-8, -2), vs.values)


def test_single_valued_evaluation_is_exact():
    vs = evaluate_description(cremona(), (1, 2, 3))
    assert vs.root_order == 1
    assert vs.values == ((6 + 0j, 3 + 0j, 2 + 0j),)


def test_zero_images_evaluate_to_zero():
    ring_source = ring_p1()
    d = desc(ring_source, ring_p2(), [[("u", 1)], [("v", 1)], None])
    vs = evaluate_description(d, (2, 5))
    assert vs.values == (((2 + 0j), (5 + 0j), 0j),)


def test_pole_is_refused():
    d = desc(ring_p1(), ring_p1(), [[("u", 1), ("v", -1)], [("u", 0)]])
    with pytest.raises(OnPole):
        evaluate_description(d, (1, 0))


def test_scalar_radical_branches():
    target = build_cox_ring(affine_line(), ("s",))
    d = desc(ring_affine_line(), target, [[("t", 1)]])
    d = CoxDescription(
        d.source,
        d.target,
        (sec(d.source, [("t", 1)], scalars=((2, Fraction(1, 2)),)),),
    )
    vs = evaluate_description(d, (3,))
    assert len(vs.values) == 2
    r = 3 * math.sqrt(2)
    assert approx_in((r,), vs.values, tol=1e-9)
    assert approx_in((-r,), vs.values, tol=1e-9)


def radical_pairs(pairs):
    """Fourth roots of ``pairs`` linear forms in each of y1 and y2 over the
    plane, into affine 3-space modulo mu_4 x mu_4: the 2 * pairs + 2 slots
    span only two distinct phase columns, so there are 16 branches however
    many pairs there are."""
    source = build_cox_ring(Fan.make(2, [(1, 0), (0, 1)], [{0, 1}]), ("x", "y"))
    target = build_cox_ring(
        Fan.make(3, [(1, 0, 0), (1, 4, 0), (1, 0, 4)], [{0, 1, 2}]), ("y0", "y1", "y2")
    )
    forms = ["x + %d*y + %d" % (k + 1, 2 * k + 3) for k in range(2 * pairs + 2)]
    g, a, b = forms[:2], forms[2:2 + pairs], forms[2 + pairs:]
    q = Fraction(1, 4)
    return desc(
        source,
        target,
        [
            [(g[0], 1), (g[1], -1)] + [(p, -q) for p in a + b],
            [(p, q) for p in a],
            [(p, q) for p in b],
        ],
    )


@pytest.mark.parametrize("pairs", [5, 8])
def test_radical_pairs_evaluate_in_time_linear_in_the_branches(pairs):
    # the phase product has 4^(2 * pairs) combinations: 4^16 for 8 pairs
    d = radical_pairs(pairs)
    t0 = time.perf_counter()
    vs = evaluate_description(d, (2, 3))
    assert time.perf_counter() - t0 < 1.0
    assert vs.root_order == 4
    assert len(vs.values) == 16
    for t in vs.values:
        assert orbit_equal(d.target, vs.values[0], t)


def test_distinct_branches_merge_in_time_linear_in_the_branches():
    # eighth roots of four distinct forms: 8^4 branches, all distinct; the
    # pairwise merge took about 15 s
    source = build_cox_ring(Fan.make(2, [(1, 0), (0, 1)], [{0, 1}]), ("x", "y"))
    target = build_cox_ring(
        Fan.make(4, [tuple(int(i == j) for i in range(4)) for j in range(4)],
                 [{0, 1, 2, 3}]),
        ("z0", "z1", "z2", "z3"),
    )
    forms = ["x + %d*y + %d" % (k + 1, 2 * k + 3) for k in range(4)]
    d = desc(source, target, [[(f, Fraction(1, 8))] for f in forms])
    t0 = time.perf_counter()
    vs = evaluate_description(d, (2, 3))
    assert time.perf_counter() - t0 < 1.0
    assert vs.root_order == 8
    assert len(vs.values) == 4096
    for value, f in zip(vs.values[0], forms):
        assert abs(abs(value) - abs(d.source.parse(f).evaluate((2, 3))) ** 0.125) < 1e-9


def test_overflowing_values_are_refused():
    d = square_root_map()
    vs = evaluate_description(d, (1e200,))
    assert max(abs(t[0]) for t in vs.values) == pytest.approx(1e300)
    for point in [(1e250,), (-1e250,), (1e250j,)]:
        with pytest.raises(OutOfFloatRange):
            evaluate_description(d, point)
    # each factor value fits, their product does not
    product = desc(ring_p1(), ring_p1(("a", "b")), [[("u", 1), ("v", 1)], [("u", 1)]])
    with pytest.raises(OutOfFloatRange):
        evaluate_description(product, (1e200, 1e200))


def test_evaluate_section_rejects_roots():
    ring = ring_affine_line()
    with pytest.raises(ValueError):
        evaluate_section(sec(ring, [("t", Fraction(1, 2))]), (4,))
    assert evaluate_section(sec(ring, [("t", 2)]), (3,)) == pytest.approx(9)


# ---------------------------------------------------------------------------
# orbit comparison


def test_orbit_scaling_on_plane():
    ring = ring_p2()
    assert orbit_equal(ring, (1, 2, 3), (2, 4, 6))
    assert orbit_equal(ring, (1, 2, 3), (-1, -2, -3))
    assert not orbit_equal(ring, (1, 2, 3), (2, 4, 5))
    assert not orbit_equal(ring, (1, 2, 0), (1, 2, 3))


def test_invariant_exponent_cache_is_bounded():
    bound = oracle_module._invariant_exponents.cache_info().maxsize
    assert bound is not None
    for k in range(bound + 20):
        ring = ring_p1(("u%d" % k, "v%d" % k))
        assert orbit_equal(ring, (1, 2), (3, 6))
    assert oracle_module._invariant_exponents.cache_info().currsize <= bound


def test_orbit_with_torsion_only_sees_diagonal_signs():
    ring = ring_quarter_quotient()
    assert orbit_equal(ring, (8, 2), (-8, -2))
    assert not orbit_equal(ring, (8, 2), (8, -2))
    assert not orbit_equal(ring, (8, 2), (16, 4))


def test_orbit_respects_vanishing_faces():
    ring = ring_p2()
    assert orbit_equal(ring, (0, 2, 3), (0, 4, 6))
    with pytest.raises(IrrelevantPoint):
        orbit_equal(ring, (0, 0, 0), (0, 0, 0))
    from varieties import ring_p1xp1

    prod = ring_p1xp1()
    assert orbit_equal(prod, (0, 1, 0, 1), (0, 2, 0, 3))
    with pytest.raises(IrrelevantPoint):
        orbit_equal(prod, (0, 0, 1, 1), (0, 0, 1, 1))


def test_vanishing_pattern_uses_tolerance():
    assert vanishing_pattern((1e-9, 1.0, 0j), tol=1e-6) == frozenset({0, 2})
    assert vanishing_pattern((1e-3, 1.0), tol=1e-6) == frozenset()


# ---------------------------------------------------------------------------
# sampled agreement


def test_square_root_map_agrees():
    d = square_root_map()
    report = sample_agreement(d, samples=12, seed=7)
    assert isinstance(report, AgreementReport)
    assert report.ok
    assert report.max_deviation < 1e-7


def test_agreement_with_character_map():
    d = square_root_map()
    charmap = induced_character_map(d)
    report = sample_agreement(d, samples=8, seed=3, charmap=charmap)
    assert report.ok


def test_cremona_agrees():
    report = sample_agreement(cremona(), samples=10, seed=1)
    assert report.ok


def test_inhomogeneous_images_fail_by_scaling():
    d = desc(ring_p1(), ring_p1(), [[("u", 1)], [("v", 2)]])
    report = sample_agreement(d, samples=10, seed=2)
    assert not report.ok
    assert any(f.kind == "scaling" for f in report.failures)


def test_torsion_grading_scales_by_signs():
    # the Z/2 quotient has no free degree, so every torus scaling comes from
    # the torsion part: (y1, y2) -> (-y1, -y2)
    ring = ring_quarter_quotient()
    identity = desc(ring, ring, [[("y1", 1)], [("y2", 1)]])
    assert sample_agreement(identity, samples=8, seed=4).ok
    squared = desc(ring, ring, [[("y1", 2)], [("y2", 1)]])
    report = sample_agreement(squared, samples=8, seed=4)
    assert not report.ok
    assert any(f.kind == "scaling" for f in report.failures)


def test_orbit_splitting_branches_fail():
    target = ring_p1()
    d = desc(
        ring_affine_line(), target, [[("t", Fraction(1, 2))], [("t", 0)]]
    )
    report = sample_agreement(d, samples=6, seed=5)
    assert not report.ok
    assert any(f.kind == "multi_orbit" for f in report.failures)


def test_tampered_character_map_is_caught():
    d = cremona()
    ring = d.source
    wrong = CharacterMap(
        frozenset(),
        ((1, 0), (0, 1)),
        (
            sec(ring, [("x2", 2), ("x0", -2)]),
            sec(ring, [("x2", 1), ("x1", -1)]),
        ),
    )
    report = sample_agreement(d, samples=6, seed=11, charmap=wrong)
    assert not report.ok
    assert any(f.kind == "character" for f in report.failures)


def test_agreement_is_deterministic():
    d = square_root_map()
    a = sample_agreement(d, samples=9, seed=42)
    b = sample_agreement(d, samples=9, seed=42)
    assert a == b
