"""Completion and regularity against the re-diagnosing reference.

The reference is the earlier formulation: ``divisor_status`` summed L·mu
as ``Fraction``s over every ray and kept nothing, ``twist_description``
checked the kernel condition the same way, and ``complete`` diagnosed every
divisor afresh in every pass, in the verification pass and again for the
entries; star fans and fan validation were rebuilt on every call.  The
library computes L·mu in integers over one common denominator, keeps each
diagnosis on its description, hands the unchanged ones on through a twist
and shares star fans, fan checks and Cox rings between equal inputs.  On
seeded random twisted maps every outcome must be identical: completed
images, entries, regularity reports and error messages.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from coxmap import descriptions
from coxmap import fan as fan_module
from coxmap.abelian import IntMatrix, feasible_lexmin, saturated_kernel
from coxmap.coxring import build_cox_ring
from coxmap.descriptions import (
    CompletionEntry,
    CoxDescription,
    DivisorDiagnosis,
    DivisorStatus,
    NonIntegralL,
    NonTermination,
    NotInKernel,
    ZeroConeNotInFan,
    candidate_divisors,
    complete,
    regularity_report,
    twist_description,
    validate_description,
)
from coxmap.fan import Fan, star_fan, validate_fan
from coxmap.sections import FactoredSection, section_mul
from varieties import (
    cube_fan,
    hirzebruch_surface,
    plane_mod_3,
    product_of_lines,
    projective_plane,
    projective_space_3,
    ring_line_power,
    ring_p2,
    ring_p3,
)


RINGS = [
    ring_p2(),
    ring_p3(),
    ring_line_power(2),
    ring_line_power(3),
    build_cox_ring(hirzebruch_surface(1), ("a", "b", "c", "e")),
    build_cox_ring(hirzebruch_surface(2), ("a", "b", "c", "e")),
    build_cox_ring(hirzebruch_surface(3), ("a", "b", "c", "e")),
    build_cox_ring(plane_mod_3(), ("y0", "y1", "y2")),
]


# ---------------------------------------------------------------------------
# references


def reference_star(d):
    """The star fan of the description's zero cone, built afresh."""
    return fan_module._star_fan(d.target.fan, d.sigma.indices)


def reference_divisor_status(d, f):
    validate_description(d)
    _, prim = f.content_and_primitive()
    if prim.is_constant:
        raise ValueError("divisors come from non-constant polynomials")
    n = d.target.nvars
    mu = tuple(
        Fraction(0) if i in d.zero_set else d.images[i].exponent_of(prim)
        for i in range(n)
    )
    star = reference_star(d)
    L = star.ray_map
    l_mu = [
        sum((mu[i] * L[r, i] for i in range(n)), Fraction(0)) for r in range(L.rows)
    ]
    if any(x.denominator != 1 for x in l_mu):
        raise NonIntegralL(
            "orders %s project to the non-lattice point %s" % (mu, l_mu)
        )
    l_mu = tuple(int(x) for x in l_mu)
    if not star.support_contains(l_mu):
        return DivisorDiagnosis(prim, mu, l_mu, DivisorStatus.NON_REGULAR_MAP_LOCUS)
    vanishing = d.zero_set | {i for i in range(n) if mu[i] > 0}
    if all(x >= 0 for x in mu) and any(
        vanishing <= cone for cone in d.target.fan.max_cones
    ):
        return DivisorDiagnosis(prim, mu, l_mu, DivisorStatus.AGREES)
    tau_indices = star.minimal_image_cone(l_mu)
    candidates = star.cones_with_image(star.image_gens(tau_indices))
    candidates.sort(key=lambda c: (-len(c), tuple(sorted(c))))
    tau_y = candidates[0]
    support = sorted(tau_y)
    columns = IntMatrix.from_rows(
        [[L[r, i] for i in support] for r in range(L.rows)], cols=len(support)
    )
    sol = feasible_lexmin(columns, list(l_mu))
    mu_prime = [Fraction(0)] * n
    for k, i in enumerate(support):
        mu_prime[i] = sol[k]
    return DivisorDiagnosis(
        prim, mu, l_mu, DivisorStatus.NEEDS_MODIFICATION, tau_indices, tau_y,
        tuple(mu_prime),
    )


def reference_twist(d, f, delta):
    delta = [Fraction(x) for x in delta]
    if len(delta) != d.target.nvars:
        raise ValueError("one twist exponent per target variable required")
    L = reference_star(d).ray_map
    image = [
        sum((delta[i] * L[r, i] for i in range(L.cols)), Fraction(0))
        for r in range(L.rows)
    ]
    if any(image):
        raise NotInKernel("twist vector projects to %s" % (image,))
    images = [
        img if img.is_zero or delta[i] == 0
        else section_mul(img, FactoredSection.from_factors(d.source.nvars, [(f, delta[i])]))
        for i, img in enumerate(d.images)
    ]
    return CoxDescription(d.source, d.target, images)


def reference_complete(d):
    candidates = candidate_divisors(d)
    current = d
    triggers = {}
    for _ in range(len(candidates) + 1):
        changed = False
        for f in candidates:
            diag = reference_divisor_status(current, f)
            if diag.status == DivisorStatus.NEEDS_MODIFICATION:
                triggers[f] = diag
                delta = tuple(a - b for a, b in zip(diag.mu_prime, diag.mu))
                current = reference_twist(current, diag.f, delta)
                changed = True
        if not changed:
            break
    else:
        raise NonTermination("completion did not settle within the pass bound")
    entries = []
    for f in candidates:
        diag = reference_divisor_status(current, f)
        entries.append(CompletionEntry(f, diag.status, f in triggers, triggers.get(f, diag)))
    return current, tuple(entries)


def reference_regularity_report(d, monkeypatch):
    """The library's report with every divisor diagnosed by the reference."""
    with monkeypatch.context() as m:
        m.setattr(descriptions, "divisor_status", reference_divisor_status)
        return regularity_report(CoxDescription(d.source, d.target, d.images))


# ---------------------------------------------------------------------------
# random twisted maps


def _forms(ring, rng, degree):
    """Random forms of total degree ``degree``, one per free class-group
    degree with at least two monomials."""
    by_degree = {}
    for exps in itertools.combinations_with_replacement(range(ring.nvars), degree):
        key = tuple(sum(ring.degrees[i].free[k] for i in exps)
                    for k in range(ring.class_group.free_rank))
        by_degree.setdefault(key, []).append(exps)
    forms = []
    for monomials in by_degree.values():
        if len(monomials) < 2:
            continue
        chosen = rng.sample(monomials, rng.randint(2, min(3, len(monomials))))
        forms.append(ring.parse(" + ".join(
            "%d*%s" % (rng.randint(1, 9), "*".join(ring.names[i] for i in m))
            for m in chosen
        )))
    return forms


def ray_relations(fan):
    """A basis of the integer relations sum(delta_i * ray_i) = 0."""
    columns = IntMatrix.from_rows(
        [[ray[k] for ray in fan.rays] for k in range(fan.dim)], cols=fan.nrays
    )
    return saturated_kernel(columns).entries


def random_twisted_map(rng, source, target):
    """A random description twisted by a random form along a random ray
    relation of the target, so that completion has something to undo."""
    pool = [source.parse(n) for n in source.names]
    pool += _forms(source, rng, 1) + _forms(source, rng, 2)
    images = []
    for _ in range(target.nvars):
        if rng.random() < 0.08:
            images.append(FactoredSection.zero(source.nvars))
            continue
        factors = [
            (p, Fraction(rng.choice((1, 1, 1, 2, -1) if rng.random() < 0.9 else (1, 2)),
                         1 if rng.random() < 0.95 else 2))
            for p in rng.sample(pool, rng.randint(1, 2))
        ]
        images.append(FactoredSection.from_factors(source.nvars, factors))
    d = CoxDescription(source, target, images)
    relations = ray_relations(target.fan)
    for _ in range(rng.randint(1, 2)):
        f = rng.choice(pool[source.nvars:] or pool)
        delta = [0] * target.nvars
        for rel in relations:
            k = rng.randint(-2, 2)
            delta = [a + k * b for a, b in zip(delta, rel)]
        try:
            if rng.random() < 0.5:
                # diagnose first, so that the twist hands diagnoses on
                for g in candidate_divisors(d):
                    descriptions.divisor_status(d, g)
            d = twist_description(d, f, delta)
        except (ZeroConeNotInFan, NonIntegralL):
            break
    return d


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ZeroConeNotInFan, NonIntegralL, NonTermination) as exc:
        return type(exc).__name__, str(exc)


def test_complete_and_regularity_match_reference(monkeypatch):
    rng = random.Random(29)
    completed = modified = failures = 0
    for _ in range(150):
        source, target = rng.choice(RINGS), rng.choice(RINGS)
        d = random_twisted_map(rng, source, target)
        fresh = CoxDescription(d.source, d.target, d.images)
        got = _outcome(complete, d)
        expected = _outcome(reference_complete, fresh)
        assert got == expected, d
        if isinstance(got[0], str):
            failures += 1
            continue
        done, entries = got
        completed += 1
        modified += any(e.modified for e in entries)
        assert regularity_report(done) == reference_regularity_report(done, monkeypatch)
    # the random maps must exercise twists, plain agreement and failures
    assert modified >= 80, modified
    assert completed - modified >= 3, completed - modified
    assert failures >= 15, failures


def test_projection_errors_match_reference():
    rng = random.Random(31)
    kernel_ok = not_in_kernel = non_integral = 0
    for _ in range(150):
        source, target = rng.choice(RINGS), rng.choice(RINGS)
        d = random_twisted_map(rng, source, target)
        try:
            validate_description(d)
        except ZeroConeNotInFan:
            continue
        f = source.parse(source.names[0])
        if rng.random() < 0.5:
            delta = [Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3)))
                     for _ in range(target.nvars)]
        else:
            rel = rng.choice(ray_relations(target.fan))
            delta = [Fraction(x, rng.choice((1, 2))) for x in rel]
        try:
            got = twist_description(d, f, delta).images
        except NotInKernel as exc:
            got = str(exc)
            not_in_kernel += 1
        try:
            expected = reference_twist(d, f, delta).images
        except NotInKernel as exc:
            expected = str(exc)
        assert got == expected, (d, delta)
        kernel_ok += not isinstance(got, str)
        for g in candidate_divisors(d):
            try:
                descriptions.divisor_status(CoxDescription(source, target, d.images), g)
            except NonIntegralL as exc:
                got = str(exc)
                non_integral += 1
            else:
                got = None
            try:
                reference_divisor_status(d, g)
            except NonIntegralL as exc:
                expected = str(exc)
            else:
                expected = None
            assert got == expected
    assert kernel_ok >= 20 and not_in_kernel >= 60 and non_integral >= 15, (
        kernel_ok, not_in_kernel, non_integral)


def test_shared_star_fans_and_fan_checks_match_uncached():
    fans = [projective_plane(), projective_space_3(), product_of_lines(2),
            product_of_lines(3), hirzebruch_surface(3), plane_mod_3(), cube_fan()]
    for fan in fans:
        assert validate_fan(fan) == list(fan_module._fan_violations(fan)) == []
        for size in range(fan.dim + 1):
            for indices in itertools.combinations(range(fan.nrays), size):
                if not fan.is_face(frozenset(indices)):
                    continue
                sigma = fan.cone(indices)
                shared = star_fan(fan, sigma)
                built = fan_module._star_fan(fan, sigma.indices)
                assert shared == built
                assert shared.ray_map == built.ray_map and shared.cones == built.cones
                assert star_fan(Fan.make(fan.dim, fan.rays, fan.max_cones), sigma) is shared
    broken = Fan.make(2, [(1, 0), (0, 1), (1, 1)], [{0, 1}, {0, 2}])
    assert validate_fan(broken) == list(fan_module._fan_violations(broken))
    assert validate_fan(broken)


# ---------------------------------------------------------------------------
# kept diagnoses


def test_kept_diagnoses_equal_fresh_ones():
    rng = random.Random(37)
    checked = 0
    for _ in range(80):
        source, target = rng.choice(RINGS), rng.choice(RINGS)
        d = random_twisted_map(rng, source, target)
        try:
            done, entries = complete(d)
        except (ZeroConeNotInFan, NonIntegralL, NonTermination):
            continue
        fresh = CoxDescription(done.source, done.target, done.images)
        assert set(done.diagnoses) == set(candidate_divisors(d))
        for g, diag in done.diagnoses.items():
            assert diag == descriptions.divisor_status(fresh, g)
        checked += 1
    assert checked >= 40, checked


def test_twist_drops_exactly_the_twisted_divisor():
    rng = random.Random(41)
    twisted_count = 0
    for _ in range(80):
        source, target = rng.choice(RINGS), rng.choice(RINGS)
        d = random_twisted_map(rng, source, target)
        try:
            for g in candidate_divisors(d):
                descriptions.divisor_status(d, g)
        except (ZeroConeNotInFan, NonIntegralL):
            continue
        if not d.diagnoses:
            continue
        f = rng.choice(list(d.diagnoses))
        relation = rng.choice(ray_relations(target.fan))
        # a multiple of the divisor twists along the same divisor
        twisted = twist_description(d, f * rng.choice((1, -3)), relation)
        kept = dict(twisted.diagnoses)
        assert kept == {g: diag for g, diag in d.diagnoses.items() if g != f}
        fresh = CoxDescription(source, target, twisted.images)
        for g, diag in kept.items():
            assert diag == descriptions.divisor_status(fresh, g)
        twisted_count += 1
    assert twisted_count >= 40, twisted_count
