"""The operation each workload times, and the check of its verdicts.

An operation takes one generated JSON document, decodes it through the
command-line codec and runs the library calls a user would run on it.  The
check compares the outcome with the answer the generator knows by
construction and returns a description of the first wrong verdict, or
None.  Library functions are looked up on their modules at call time, so
that the per-layer tracer sees the calls made from here.
"""

from __future__ import annotations

from fractions import Fraction

from coxmap import cli, descriptions, oracle, sections

# ---------------------------------------------------------------------------
# helpers


def _exact_value(poly, point) -> Fraction:
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        value = Fraction(coeff)
        for x, k in zip(point, exps):
            value *= Fraction(x) ** k
        total += value
    return total


def _pattern_names(ring, patterns):
    return sorted(sorted(ring.poly_str(p) for p in pattern) for pattern in patterns)


def _close(got: complex, want: complex, tol: float = 1e-9) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# complete-ladder


def ladder_op(doc):
    d = cli.description_from_json(doc, trust_factors=False)
    homogeneity = descriptions.check_homogeneity(d)
    relevant, _ = descriptions.check_relevance(d)
    done, entries = descriptions.complete(d)
    report = descriptions.regularity_report(done)
    return homogeneity, relevant, done, entries, report


def ladder_check(outcome, answer):
    homogeneity, relevant, done, entries, report = outcome
    if not isinstance(homogeneity, descriptions.CharacterMap):
        return "twisted description judged inhomogeneous"
    if not relevant:
        return "twisted description judged irrelevant"
    base = [
        cli.section_from_json(done.source, img, "base image %d" % i)
        for i, img in enumerate(answer["base_images"])
    ]
    if list(done.images) != base:
        return "completion did not return the untwisted map"
    modified = sum(1 for entry in entries if entry.modified)
    if modified != answer["twists"]:
        return "completion twisted %d divisors, expected %d" % (modified, answer["twists"])
    if report.is_regular != answer["regular"]:
        return "regularity verdict %s, expected %s" % (report.is_regular, answer["regular"])
    got = _pattern_names(done.source, report.non_regular_patterns)
    if got != answer["non_regular_patterns"]:
        return "non-regular patterns %s, expected %s" % (got, answer["non_regular_patterns"])
    return None


# ---------------------------------------------------------------------------
# pullback-ideal


def pullback_op(doc):
    d = cli.description_from_json(doc, trust_factors=False)
    generators = [d.target.parse(text) for text in doc["ideal"]]
    return d, generators, [descriptions.verify_ideal_vanishing(d, [g]) for g in generators]


def pullback_check(outcome, answer):
    d, generators, verdicts = outcome
    for k, ((vanishes, witness), want) in enumerate(zip(verdicts, answer["vanishes"])):
        if vanishes != want:
            return "generator %d: vanishes=%s, expected %s" % (k, vanishes, want)
        if vanishes:
            continue
        g, pb = witness
        if g != generators[k]:
            return "generator %d: witness names another generator" % k
        radical = pb.radical
        if sections.root_order(radical) != 1:
            return "generator %d: witness has a radical part" % k
        point = answer["witness_point"]
        value = radical.unit.as_fraction()
        for p, e in radical.factors:
            value *= _exact_value(p, point) ** int(e)
        value *= _exact_value(pb.num, point) / _exact_value(pb.den, point)
        if value != Fraction(answer["witness_value"]):
            return "generator %d: witness evaluates to %s, expected %s" % (
                k, value, answer["witness_value"])
    return None


# ---------------------------------------------------------------------------
# radical-oracle


def oracle_op(doc):
    source = cli.ring_from_json(doc["source"], "source")
    target = cli.ring_from_json(doc["target"], "target")
    charmap = cli.charmap_from_json(source, target, doc["character_map"], trust_factors=False)
    d = descriptions.construct_description(source, target, charmap)
    homogeneity = descriptions.check_homogeneity(d)
    sampling = doc["sampling"]
    report = oracle.sample_agreement(
        d, samples=sampling["samples"], seed=sampling["seed"], charmap=charmap
    )
    return charmap, d, homogeneity, report, sampling["samples"]


def oracle_check(outcome, answer):
    charmap, d, homogeneity, report, samples = outcome
    orders = [sections.root_order(img) for img in d.images]
    if orders != answer["root_orders"]:
        return "image root orders %s, expected %s" % (orders, answer["root_orders"])
    if homogeneity != charmap:
        return "constructed description does not round-trip its character map"
    if report.samples != samples or not report.ok:
        return "agreement sampling failed: %s" % (report.failures[:1],)
    return None


# ---------------------------------------------------------------------------
# enumeration-blowup


def blowup_op(doc):
    d = cli.description_from_json(doc, trust_factors=False)
    if "eval_points" in doc:
        return d, [oracle.evaluate_description(d, point) for point in doc["eval_points"]]
    return d, descriptions.regularity_report(d)


def blowup_check(outcome, answer):
    d, result = outcome
    if answer["kind"] == "regularity":
        if result.is_regular != answer["regular"]:
            return "regularity verdict %s, expected %s" % (result.is_regular, answer["regular"])
        got = _pattern_names(d.source, result.non_regular_patterns)
        if got != answer["non_regular_patterns"]:
            return "non-regular patterns %s, expected %s" % (got, answer["non_regular_patterns"])
        return None
    (values,) = result
    if len(values.values) != answer["branches"]:
        return "%d branches, expected %d" % (len(values.values), answer["branches"])
    g, prod_a, prod_b = (float(Fraction(c)) for c in answer["characters"])
    for y0, y1, y2 in values.values:
        if not (_close(y0 * y1 * y2, g) and _close(y1 ** 4, prod_a) and _close(y2 ** 4, prod_b)):
            return "a branch misses the character values"
    return None


OPERATIONS = {
    "complete-ladder": (ladder_op, ladder_check),
    "pullback-ideal": (pullback_op, pullback_check),
    "radical-oracle": (oracle_op, oracle_check),
    "enumeration-blowup": (blowup_op, blowup_check),
}
