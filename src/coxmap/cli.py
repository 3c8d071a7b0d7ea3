"""Command line front end.

Documents are JSON files describing a source and target variety together
with either image sections (check, complete, eval, verify-ideal) or
character data (construct).  Subcommands print a human-readable report to
stdout and write a machine-readable JSON result with -o.  Exit codes: 0
when the checked properties hold, 1 when a property is violated, 2 when
the input cannot be understood.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from coxmap.coxring import (
    MPoly,
    NameCollision,
    ParseError,
    ToricCoxRing,
    UnknownVariable,
    build_cox_ring,
    exact_divide,
)
from coxmap.descriptions import (
    CharacterMap,
    CoxDescription,
    DivisorStatus,
    FractionalPartMismatch,
    InconsistentCharacterData,
    InhomogeneousImage,
    NonIntegralL,
    NonTermination,
    ZeroConeNotInFan,
    check_homogeneity,
    check_relevance,
    complete,
    construct_description,
    divisor_status,
    candidate_divisors,
    pullback_polynomial,
    regularity_report,
)
from coxmap.fan import Fan, validate_fan
from coxmap.oracle import (
    OnPole,
    OutOfFloatRange,
    evaluate_description,
    sample_agreement,
)
from coxmap.sections import FactoredSection, RadicalScalar


class SchemaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# JSON codec


def _require(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError("%s: missing field %r" % (where, key))
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError("%s: field %r has the wrong type" % (where, key))
    return value


def _fraction(value, where) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError("%s: expected a rational number" % where)
    try:
        if isinstance(value, (int, str)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise SchemaError("%s: %r is not a rational number" % (where, value))


def _integer(value, where) -> int:
    """A JSON integer; bools, floats and strings are refused, not coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SchemaError("%s: %r is not an integer" % (where, value))


def fan_from_json(obj, where) -> Fan:
    dim = _integer(_require(obj, "dim", None, where), where + " dim")
    rays = _require(obj, "rays", list, where)
    cones = _require(obj, "max_cones", list, where)
    if not all(isinstance(r, list) for r in rays + cones):
        raise SchemaError("%s: rays and max_cones must be lists of lists" % where)
    rays = [tuple(_integer(x, where + " ray") for x in r) for r in rays]
    cones = [set(_integer(i, where + " max cone") for i in c) for c in cones]
    fan = Fan.make(dim, rays, cones)
    problems = validate_fan(fan)
    if problems:
        raise SchemaError("%s: %s" % (where, "; ".join(problems)))
    return fan


def ring_from_json(obj, where) -> ToricCoxRing:
    fan = fan_from_json(obj, where)
    names = _require(obj, "variables", list, where)
    if not all(isinstance(n, str) for n in names):
        raise SchemaError("%s: variable names must be strings" % where)
    try:
        return build_cox_ring(fan, names)
    except (NameCollision, ValueError) as exc:
        raise SchemaError("%s: %s" % (where, exc)) from None


def ring_to_json(ring: ToricCoxRing) -> dict:
    return {
        "dim": ring.fan.dim,
        "rays": [list(r) for r in ring.fan.rays],
        "max_cones": [sorted(c) for c in ring.fan.max_cones],
        "variables": list(ring.names),
    }


def unit_from_json(obj, where) -> RadicalScalar:
    if obj is None:
        return RadicalScalar.one()
    if not isinstance(obj, dict):
        raise SchemaError("%s: unit must be an object" % where)
    sign = _integer(obj.get("sign", 1), where + " unit sign")
    if sign not in (1, -1):
        raise SchemaError("%s: unit sign must be 1 or -1" % where)
    base = _fraction(obj.get("base", "1"), where)
    exp = _fraction(obj.get("exp", "1"), where)
    if base <= 0:
        raise SchemaError("%s: unit base must be positive" % where)
    scalar = RadicalScalar.from_rational(base).pow(exp)
    return RadicalScalar.make(sign, scalar.powers)


def unit_to_json(unit: RadicalScalar) -> Optional[dict]:
    if not unit.powers:
        return None if unit.sign == 1 else {"sign": -1}
    order = 1
    for _, e in unit.powers:
        order = math.lcm(order, e.denominator)
    base = Fraction(1)
    for p, e in unit.powers:
        base *= Fraction(p) ** int(e * order)
    out = {"sign": unit.sign, "base": str(base), "exp": str(Fraction(1, order))}
    return out


def _parse_poly(ring: ToricCoxRing, text, where) -> MPoly:
    if not isinstance(text, str):
        raise SchemaError("%s: polynomials are written as strings" % where)
    try:
        return ring.parse(text)
    except (ParseError, UnknownVariable) as exc:
        raise SchemaError("%s: %s" % (where, exc)) from None


def section_from_json(
    ring: ToricCoxRing, obj, where, collector: Optional[list] = None
) -> FactoredSection:
    if obj == "0" or (type(obj) is int and obj == 0):
        return FactoredSection.zero(ring.nvars)
    if not isinstance(obj, dict):
        raise SchemaError(
            "%s: an image is \"0\" or an object with factors" % where
        )
    raw = obj.get("factors", [])
    if not isinstance(raw, list):
        raise SchemaError("%s: factors must be a list" % where)
    factors = []
    for k, pair in enumerate(raw):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise SchemaError(
                "%s: factor %d must be a [polynomial, exponent] pair" % (where, k)
            )
        p = _parse_poly(ring, pair[0], "%s factor %d" % (where, k))
        e = _fraction(pair[1], "%s factor %d" % (where, k))
        factors.append((p, e))
        if collector is not None:
            collector.append(p)
    unit = unit_from_json(obj.get("unit"), where)
    return FactoredSection.from_factors(ring.nvars, factors, unit=unit)


def section_to_json(ring: ToricCoxRing, section: FactoredSection):
    if section.is_zero:
        return "0"
    out = {
        "factors": [
            [ring.poly_str(p), str(e)] for p, e in section.factors
        ]
    }
    unit = unit_to_json(section.unit)
    if unit is not None:
        out["unit"] = unit
    return out


def _factor_problems(ring: ToricCoxRing, polys: Sequence[MPoly]) -> list[str]:
    """Cheap necessary conditions on user-asserted irreducible factors."""
    problems = []
    distinct = []
    for p in polys:
        if p.is_constant:
            problems.append("factor %s is constant" % ring.poly_str(p))
            continue
        content, prim = p.content_and_primitive()
        if content != 1 or prim != p:
            problems.append(
                "factor %s is not normalized (use %s)"
                % (ring.poly_str(p), ring.poly_str(prim))
            )
        if prim not in distinct:
            distinct.append(prim)
    # distinct normalized factors of equal degree cannot divide each other:
    # the quotient would be a positive constant, so it would be 1
    degrees = [p.total_degree() for p in distinct]
    for p, dp in zip(distinct, degrees):
        for q, dq in zip(distinct, degrees):
            if dq < dp and exact_divide(p, q) is not None:
                problems.append(
                    "factor %s divides factor %s, so the latter is reducible"
                    % (ring.poly_str(q), ring.poly_str(p))
                )
    return problems


def description_from_json(doc, trust_factors: bool) -> CoxDescription:
    source = ring_from_json(_require(doc, "source", dict, "document"), "source")
    target = ring_from_json(_require(doc, "target", dict, "document"), "target")
    raw_images = _require(doc, "images", list, "document")
    if len(raw_images) != target.nvars:
        raise SchemaError(
            "document: expected %d images, got %d" % (target.nvars, len(raw_images))
        )
    pool: list[MPoly] = []
    images = [
        section_from_json(source, obj, "image %d" % i, collector=pool)
        for i, obj in enumerate(raw_images)
    ]
    if not trust_factors:
        problems = _factor_problems(source, pool)
        if problems:
            raise SchemaError("; ".join(problems))
    return CoxDescription(source, target, images)


def description_to_json(d: CoxDescription) -> dict:
    return {
        "source": ring_to_json(d.source),
        "target": ring_to_json(d.target),
        "images": [section_to_json(d.source, img) for img in d.images],
    }


def charmap_from_json(source: ToricCoxRing, target: ToricCoxRing, obj,
                      trust_factors: bool) -> CharacterMap:
    sigma = _require(obj, "sigma", list, "character_map")
    basis = _require(obj, "basis", list, "character_map")
    values = _require(obj, "values", list, "character_map")
    if not all(isinstance(row, list) for row in basis):
        raise SchemaError("character_map: basis rows must be lists")
    sigma = frozenset(_integer(i, "character_map sigma") for i in sigma)
    basis = tuple(
        tuple(_integer(x, "character_map basis") for x in row) for row in basis
    )
    if any(len(row) != target.fan.dim for row in basis):
        raise SchemaError("character_map: basis rows must have the target dimension")
    pool: list[MPoly] = []
    sections = tuple(
        section_from_json(source, v, "character value %d" % i, collector=pool)
        for i, v in enumerate(values)
    )
    if not trust_factors:
        problems = _factor_problems(source, pool)
        if problems:
            raise SchemaError("; ".join(problems))
    return CharacterMap(sigma, basis, sections)


def charmap_to_json(source: ToricCoxRing, charmap: CharacterMap) -> dict:
    return {
        "sigma": sorted(charmap.sigma_indices),
        "basis": [list(row) for row in charmap.basis],
        "values": [section_to_json(source, v) for v in charmap.values],
    }


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SchemaError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise SchemaError("%s is not valid JSON: %s" % (path, exc)) from None
    if not isinstance(doc, dict):
        raise SchemaError("%s: the top level must be an object" % path)
    return doc


def _write_output(path: Optional[str], payload: dict) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# report helpers


def _fmt_complex(z: complex) -> str:
    if abs(z.imag) < 1e-12:
        return "%g" % z.real
    return "%g%+gj" % (z.real, z.imag)


def _coordinate(value, where) -> complex:
    """A finite complex number from a JSON number, a string such as "1+2j"
    or a [real, imag] pair; bools are refused, not read as 0 or 1, and so
    are NaN, infinities and numbers beyond the float range."""
    z = None
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            z = complex(value)
        elif isinstance(value, str):
            z = complex(value.replace(" ", ""))
        elif (
            isinstance(value, (list, tuple))
            and len(value) == 2
            and not any(isinstance(x, bool) for x in value)
        ):
            z = complex(float(value[0]), float(value[1]))
    except (TypeError, ValueError, OverflowError):
        pass
    if z is None or not cmath.isfinite(z):
        raise SchemaError("%s: %r is not a finite number" % (where, value))
    return z


def _section_str(ring: ToricCoxRing, section: FactoredSection) -> str:
    return section.to_str(ring.names)


def _diagnosis_json(ring: ToricCoxRing, diag) -> dict:
    out = {
        "factor": ring.poly_str(diag.f),
        "status": diag.status.value,
        "mu": [str(x) for x in diag.mu],
        "L_mu": list(diag.L_mu),
    }
    if diag.mu_prime is not None:
        out["mu_prime"] = [str(x) for x in diag.mu_prime]
    return out


def _diagnosis_line(ring: ToricCoxRing, diag, modified: Optional[bool] = None) -> str:
    bits = ["divisor %s: %s" % (ring.poly_str(diag.f), diag.status.value.replace("_", " "))]
    if diag.status == DivisorStatus.NEEDS_MODIFICATION:
        bits.append(
            "(mu = [%s], L(mu) = %s, mu' = [%s])"
            % (
                ", ".join(str(x) for x in diag.mu),
                list(diag.L_mu),
                ", ".join(str(x) for x in diag.mu_prime),
            )
        )
    elif diag.status == DivisorStatus.NON_REGULAR_MAP_LOCUS:
        bits.append("(L(mu) = %s leaves the image fan)" % (list(diag.L_mu),))
    if modified:
        bits.append("[image twisted]")
    return " ".join(bits)


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    doc = _load_document(args.file)
    d = description_from_json(doc, args.trust_factors)
    certificate: dict = {"conditions": {}}
    lines = []
    ok = True

    try:
        sigma = d.sigma
        certificate["conditions"]["zero_cone"] = True
        lines.append("zero cone: ok (rays %s)" % sorted(d.zero_set))
    except ZeroConeNotInFan as exc:
        certificate["conditions"]["zero_cone"] = False
        certificate["conditions"]["homogeneity"] = None
        certificate["conditions"]["relevance"] = None
        lines.append("zero cone: violated: %s" % exc)
        certificate["status"] = "violated"
        for line in lines:
            print(line)
        print("result: violated")
        _write_output(args.output, certificate)
        return 1

    charmap = None
    factors_ok = True
    try:
        result = check_homogeneity(d)
    except InhomogeneousImage as exc:
        certificate["conditions"]["homogeneity"] = False
        certificate["homogeneity_failure"] = {"reason": "inhomogeneous_factor",
                                              "detail": str(exc)}
        lines.append("homogeneity: violated: %s" % exc)
        ok = False
        factors_ok = False
    else:
        if isinstance(result, CharacterMap):
            charmap = result
            certificate["conditions"]["homogeneity"] = True
            lines.append("homogeneity: ok")
        else:
            certificate["conditions"]["homogeneity"] = False
            failure = {
                "reason": result.reason,
                "character": list(result.character),
                "value": section_to_json(d.source, result.value),
            }
            if result.degree_free is not None:
                failure["degree_free"] = [str(x) for x in result.degree_free]
                failure["degree_torsion"] = list(result.degree_torsion)
            certificate["homogeneity_failure"] = failure
            lines.append(
                "homogeneity: violated: character %s pulls back with %s"
                % (list(result.character), result.reason.replace("_", " "))
            )
            ok = False

    relevant, witness = check_relevance(d)
    certificate["conditions"]["relevance"] = relevant
    lines.append("relevance: ok (witness max cone %d)" % witness)

    divisors = []
    incomplete = False
    if factors_ok:
        for f in candidate_divisors(d):
            try:
                diag = divisor_status(d, f)
            except NonIntegralL as exc:
                divisors.append(
                    {"factor": d.source.poly_str(f), "status": "non_integral_projection"}
                )
                lines.append("divisor %s: non-integral projection (%s)"
                             % (d.source.poly_str(f), exc))
                ok = False
                incomplete = True
                continue
            divisors.append(_diagnosis_json(d.source, diag))
            lines.append(_diagnosis_line(d.source, diag))
            if diag.status == DivisorStatus.NEEDS_MODIFICATION:
                ok = False
                incomplete = True
        certificate["divisors"] = divisors

        if not incomplete:
            report = regularity_report(d)
            certificate["non_regular_patterns"] = [
                [d.source.poly_str(p) for p in pattern]
                for pattern in report.non_regular_patterns
            ]
            for pattern in report.non_regular_patterns:
                lines.append(
                    "non-regular pattern: {%s}"
                    % ", ".join(d.source.poly_str(p) for p in pattern)
                )
            lines.append("regular map: %s" % ("yes" if report.is_regular else "no"))

    if args.samples > 0:
        sampled = sample_agreement(
            d, samples=args.samples, seed=args.seed, tol=args.tol, charmap=charmap
        )
        certificate["sampling"] = {
            "samples": sampled.samples,
            "ok": sampled.ok,
            "max_deviation": sampled.max_deviation,
            "failures": [
                {"sample": f.sample, "kind": f.kind, "detail": f.detail}
                for f in sampled.failures
            ],
        }
        lines.append(
            "sampling: %d points, %s, max deviation %.3g"
            % (sampled.samples, "ok" if sampled.ok else "failed", sampled.max_deviation)
        )
        if not sampled.ok:
            ok = False

    certificate["status"] = "pass" if ok else "violated"
    for line in lines:
        print(line)
    print("result: %s" % certificate["status"])
    _write_output(args.output, certificate)
    return 0 if ok else 1


def cmd_complete(args) -> int:
    doc = _load_document(args.file)
    d = description_from_json(doc, args.trust_factors)
    try:
        done, entries = complete(d)
    except (ZeroConeNotInFan, InhomogeneousImage, NonIntegralL, NonTermination) as exc:
        print("completion failed: %s" % exc)
        return 1
    for entry in entries:
        print(_diagnosis_line(d.source, entry.diagnosis, entry.modified))
    for i, img in enumerate(done.images):
        print("image %s = %s" % (d.target.names[i], _section_str(d.source, img)))
    payload = description_to_json(done)
    payload["completion"] = [
        dict(_diagnosis_json(d.source, e.diagnosis), modified=e.modified,
             final_status=e.status.value)
        for e in entries
    ]
    _write_output(args.output, payload)
    return 0


def cmd_construct(args) -> int:
    doc = _load_document(args.file)
    source = ring_from_json(_require(doc, "source", dict, "document"), "source")
    target = ring_from_json(_require(doc, "target", dict, "document"), "target")
    charmap = charmap_from_json(
        source, target, _require(doc, "character_map", dict, "document"),
        args.trust_factors,
    )
    try:
        d = construct_description(source, target, charmap)
    except (InconsistentCharacterData, ZeroConeNotInFan, InhomogeneousImage) as exc:
        print("construction failed: %s" % exc)
        return 1
    for i, img in enumerate(d.images):
        print("image %s = %s" % (target.names[i], _section_str(source, img)))
    payload = description_to_json(d)
    payload["character_map"] = charmap_to_json(source, charmap)
    _write_output(args.output, payload)
    return 0


def cmd_eval(args) -> int:
    doc = _load_document(args.file)
    d = description_from_json(doc, args.trust_factors)
    points = []
    for text in args.point or []:
        points.append(
            tuple(_coordinate(part, "--point %r" % text) for part in text.split(","))
        )
    raw_points = doc.get("eval_points", [])
    if not isinstance(raw_points, list):
        raise SchemaError("eval_points must be a list of points")
    for k, raw in enumerate(raw_points):
        if not isinstance(raw, list):
            raise SchemaError("eval_points[%d] must be a list" % k)
        points.append(
            tuple(
                _coordinate(v, "eval_points[%d][%d]" % (k, j))
                for j, v in enumerate(raw)
            )
        )
    if not points:
        raise SchemaError("no evaluation points: pass --point or eval_points")
    evaluations = []
    had_pole = False
    for point in points:
        if len(point) != d.source.nvars:
            raise SchemaError(
                "point (%s) has %d coordinates, expected %d"
                % (", ".join(_fmt_complex(z) for z in point), len(point), d.source.nvars)
            )
        label = ", ".join(_fmt_complex(z) for z in point)
        try:
            vs = evaluate_description(d, point, tol=args.tol)
        except OnPole as exc:
            print("point (%s): pole (%s)" % (label, exc))
            evaluations.append(
                {"point": [[z.real, z.imag] for z in point], "error": "pole"}
            )
            had_pole = True
            continue
        except OutOfFloatRange as exc:
            raise SchemaError("point (%s): %s" % (label, exc)) from None
        print("point (%s): %d value%s" % (label, len(vs.values),
                                          "" if len(vs.values) == 1 else "s"))
        for value in vs.values:
            print("  (%s)" % ", ".join(_fmt_complex(z) for z in value))
        evaluations.append(
            {
                "point": [[z.real, z.imag] for z in point],
                "root_order": vs.root_order,
                "values": [
                    [[z.real, z.imag] for z in value] for value in vs.values
                ],
            }
        )
    _write_output(args.output, {"evaluations": evaluations})
    return 1 if had_pole else 0


def cmd_verify_ideal(args) -> int:
    doc = _load_document(args.file)
    d = description_from_json(doc, args.trust_factors)
    raw = _require(doc, "ideal", list, "document")
    generators = [
        _parse_poly(d.target, text, "ideal generator %d" % i)
        for i, text in enumerate(raw)
    ]
    results = []
    all_vanish = True
    for g in generators:
        name = d.target.poly_str(g)
        try:
            pb = pullback_polynomial(d, g)
        except FractionalPartMismatch as exc:
            print("generator %s: mixed radical parts (%s)" % (name, exc))
            results.append({"generator": name, "vanishes": False,
                            "error": "fractional_part_mismatch"})
            all_vanish = False
            continue
        if pb.is_zero:
            print("generator %s: pulls back to 0" % name)
            results.append({"generator": name, "vanishes": True})
        else:
            witness = "(%s) / (%s)" % (d.source.poly_str(pb.num),
                                       d.source.poly_str(pb.den))
            prefix = _section_str(d.source, pb.radical)
            if prefix != "1":
                witness = "%s * %s" % (prefix, witness)
            print("generator %s: does not vanish, pullback = %s" % (name, witness))
            results.append({"generator": name, "vanishes": False,
                            "pullback": witness})
            all_vanish = False
    print("result: %s" % ("pass" if all_vanish else "violated"))
    _write_output(args.output, {"generators": results, "all_vanish": all_vanish})
    return 0 if all_vanish else 1


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxmap",
        description="Rational maps between toric varieties in Cox coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="JSON document")
        p.add_argument("-o", "--output", help="write a JSON result here")
        p.add_argument("--tol", type=float, default=1e-6,
                       help="numerical tolerance (default 1e-6)")
        p.add_argument("--trust-factors", action="store_true",
                       help="skip sanity checks on the supplied factorizations")

    p = sub.add_parser("check", help="verify the map conditions")
    common(p)
    p.add_argument("--samples", type=int, default=0,
                   help="also certify on this many random points")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("complete", help="repair the description along its divisors")
    common(p)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("construct", help="build a description from character data")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("eval", help="evaluate the images at points")
    common(p)
    p.add_argument("--point", action="append",
                   help="comma-separated coordinates, may repeat")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify-ideal", help="check that an ideal pulls back to zero")
    common(p)
    p.set_defaults(func=cmd_verify_ideal)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not (math.isfinite(args.tol) and args.tol >= 0):
            raise SchemaError("--tol must be finite and non-negative, not %r" % args.tol)
        return args.func(args)
    except SchemaError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
