"""Descriptions of rational maps between toric varieties in Cox coordinates.

A description assigns to every variable of the target Cox ring either zero
or a multi-valued section over the source.  The conditions checked here are
exactly the ones that make such an assignment describe an honest rational
map: every character of the target supported off the zero set must pull
back to a single-valued, degree-zero rational function (homogeneity), the
zero set must span a cone of the target fan (so some irrelevant monomial
survives), and along each irreducible divisor of the source the description
must reproduce the vanishing orders of the map, which is what the
completion pass enforces divisor by divisor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from coxmap.abelian import IntMatrix, feasible_lexmin, hermite_normal_form, solve_rational
from coxmap.coxring import (
    MPoly,
    ToricCoxRing,
    format_poly,
    homogeneous_degree,
)
from coxmap.fan import (
    Cone,
    ConeNotInFan,
    StarFan,
    orthogonal_character_basis,
    ray_projection_map,
    star_fan,
)
from coxmap.sections import (
    FactoredSection,
    InhomogeneousFactor,
    PulledBackSection,
    RadicalScalar,
    fractional_part,
    rational_quotient,
    root_order,
    section_degree,
    section_mul,
    section_pow,
)


class ZeroConeNotInFan(ValueError):
    """The zero set of the images does not span a cone of the target fan."""


class InhomogeneousImage(ValueError):
    """An image carries a factor that is not homogeneous over the source."""


class DescriptionNotHomogeneous(ValueError):
    def __init__(self, failure: "HomogeneityFailure"):
        super().__init__(
            "character %s pulls back with %s" % (list(failure.character), failure.reason)
        )
        self.failure = failure


class FractionalPartMismatch(ValueError):
    """Monomials of one homogeneous polynomial pulled back with different
    radical parts; the description cannot be homogeneous."""


class InconsistentCharacterData(ValueError):
    pass


class NotInKernel(ValueError):
    """A twist vector whose weighted ray projection is nonzero."""


class NonIntegralL(ValueError):
    """Vanishing orders whose ray projection is not a lattice point."""


class NonTermination(RuntimeError):
    pass


class IncompleteDescription(ValueError):
    pass


class CoxDescription:
    """Images of the target Cox variables as sections over the source.

    A description keeps the divisor diagnoses made on it, keyed by the
    primitive divisor, so each divisor is diagnosed once per description.
    """

    def __init__(
        self,
        source: ToricCoxRing,
        target: ToricCoxRing,
        images: Sequence[FactoredSection],
    ):
        images = tuple(images)
        if len(images) != target.nvars:
            raise ValueError(
                "expected %d images, got %d" % (target.nvars, len(images))
            )
        for img in images:
            if img.nvars != source.nvars:
                raise ValueError("image over the wrong number of source variables")
        self.source = source
        self.target = target
        self.images = images
        self._diagnoses: dict[MPoly, DivisorDiagnosis] = {}

    @property
    def diagnoses(self) -> Mapping[MPoly, "DivisorDiagnosis"]:
        """The diagnoses kept so far, by primitive divisor (read-only)."""
        return MappingProxyType(self._diagnoses)

    @cached_property
    def zero_set(self) -> frozenset[int]:
        return frozenset(i for i, img in enumerate(self.images) if img.is_zero)

    @cached_property
    def sigma(self) -> Cone:
        try:
            return self.target.fan.cone(self.zero_set)
        except ConeNotInFan:
            raise ZeroConeNotInFan(
                "zero images at %s do not span a cone of the target fan"
                % sorted(self.zero_set)
            ) from None

    @cached_property
    def star(self) -> StarFan:
        return star_fan(self.target.fan, self.sigma)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoxDescription)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __repr__(self) -> str:
        return "CoxDescription(%s)" % ", ".join(
            img.to_str(self.source.names) for img in self.images
        )


@dataclass(frozen=True)
class CharacterMap:
    """Values of a basis of the characters vanishing on a cone."""

    sigma_indices: frozenset[int]
    basis: tuple[tuple[int, ...], ...]
    values: tuple[FactoredSection, ...]


@dataclass(frozen=True)
class HomogeneityFailure:
    character: tuple[int, ...]
    value: FactoredSection
    reason: str  # "fractional_exponent" or "nonzero_degree"
    degree_free: Optional[tuple[Fraction, ...]] = None
    degree_torsion: Optional[tuple[int, ...]] = None


def validate_description(d: CoxDescription) -> tuple[frozenset[int], Cone]:
    """Check that the zero set of the images spans a cone of the target fan.

    Returns the zero set and its cone.  Failure means every irrelevant
    monomial of the target pulls back to zero, so the description cannot
    reach the relevant locus.
    """
    return d.zero_set, d.sigma


def check_homogeneity(d: CoxDescription):
    """Pull back a basis of the characters vanishing on the zero cone.

    Every stored factor must be homogeneous, and every such character must
    land on a single-valued section of degree exactly zero.  Returns the
    CharacterMap on success, else a HomogeneityFailure naming the offending
    character and whether it picked up a fractional exponent or a nonzero
    degree.  An inhomogeneous factor raises InhomogeneousImage instead,
    since then no image even has a well-defined degree.
    """
    validate_description(d)
    for i, img in enumerate(d.images):
        if img.is_zero:
            continue
        for p in img.factor_polys():
            witness = homogeneous_degree(d.source, p)
            if not witness.is_homogeneous:
                raise InhomogeneousImage(
                    "image %d carries inhomogeneous factor %s"
                    % (i, d.source.poly_str(p))
                )
    fan = d.target.fan
    basis = orthogonal_character_basis(fan, d.sigma)
    values = []
    for m in basis:
        value = FactoredSection.one(d.source.nvars)
        for i, img in enumerate(d.images):
            if i in d.zero_set:
                continue
            e = sum(a * b for a, b in zip(m, fan.rays[i]))
            if e:
                value = section_mul(value, section_pow(img, Fraction(e)))
        if root_order(value) != 1:
            return HomogeneityFailure(m, value, "fractional_exponent")
        free, exact = section_degree(d.source, value)
        assert exact is not None
        if not exact.is_zero:
            return HomogeneityFailure(
                m, value, "nonzero_degree", tuple(free), exact.torsion
            )
        values.append(value)
    return CharacterMap(d.zero_set, basis, tuple(values))


def check_relevance(d: CoxDescription) -> tuple[bool, int]:
    """Some maximal cone must contain the zero set; returns the first
    witness cone index.  Always relevant once ``validate_description``
    passes, because every cone of the fan lies in a maximal cone."""
    validate_description(d)
    cones = d.target.fan.max_cones
    return True, next(c for c, cone in enumerate(cones) if d.zero_set <= cone)


def induced_character_map(d: CoxDescription) -> CharacterMap:
    result = check_homogeneity(d)
    if isinstance(result, HomogeneityFailure):
        raise DescriptionNotHomogeneous(result)
    return result


def pullback_polynomial(d: CoxDescription, g: MPoly) -> PulledBackSection:
    """Pull a polynomial over the target back through the description.

    Monomials meeting a zero image drop; the survivors must share one
    radical part, and the result is that radical part times their sum over
    a common denominator.  Returns zero when all terms drop or cancel.

    Each surviving monomial c * z^m is, over the radical part, c times a
    Laurent monomial in the image factors.  Terms are summed in that factor
    monoid first and only the monomials with a nonzero sum are expanded, so
    the relations the map satisfies cancel before any polynomial product.
    The coefficients c are never factored: they only scale the rational
    quotients, since an integer power of a rational has no fractional part.
    The denominator covers every surviving monomial, cancelled ones too.
    """
    if g.nvars != d.target.nvars:
        raise ValueError("polynomial over the wrong number of target variables")
    nv = d.source.nvars
    terms = []
    for exps, coeff in g.sorted_terms():
        if any(exps[i] and i in d.zero_set for i in range(len(exps))):
            continue
        section = FactoredSection.one(nv)
        for i, e in enumerate(exps):
            if e:
                section = section_mul(section, section_pow(d.images[i], Fraction(e)))
        terms.append((coeff, section))
    if not terms:
        return PulledBackSection.zero(nv)
    gamma = fractional_part(terms[0][1])
    rationals = []
    for coeff, section in terms:
        try:
            scalar, factors = rational_quotient(section, gamma)
        except ValueError:
            raise FractionalPartMismatch(
                "monomials of %s pull back with different radical parts"
                % d.target.poly_str(g)
            ) from None
        rationals.append((coeff * scalar, factors))
    depth: dict[MPoly, int] = {}
    for _, factors in rationals:
        for p, k in factors:
            if k < 0:
                depth[p] = max(depth.get(p, 0), -k)
    den = MPoly.constant(nv, 1)
    for p, k in sorted(depth.items(), key=lambda t: t[0].sort_key()):
        den = den * p ** k
    sums: dict[frozenset, Fraction] = {}
    for scalar, factors in rationals:
        exps = dict(depth)
        for p, k in factors:
            exps[p] = exps.get(p, 0) + k
        key = frozenset((p, k) for p, k in exps.items() if k)
        sums[key] = sums.get(key, 0) + scalar
    num = MPoly.zero(nv)
    for key, scalar in sums.items():
        if scalar:
            term = MPoly.constant(nv, scalar)
            for p, k in sorted(key, key=lambda t: t[0].sort_key()):
                term = term * p ** k
            num = num + term
    if num.is_zero:
        return PulledBackSection.zero(nv)
    return PulledBackSection(nv, gamma, num, den)


def verify_ideal_vanishing(
    d: CoxDescription, generators: Sequence[MPoly]
) -> tuple[bool, Optional[tuple[MPoly, PulledBackSection]]]:
    """Whether every generator pulls back to zero; on failure returns the
    first generator together with its nonzero pullback as a witness."""
    for g in generators:
        pb = pullback_polynomial(d, g)
        if not pb.is_zero:
            return False, (g, pb)
    return True, None


# ---------------------------------------------------------------------------
# Construction from character data


def _solve_mod2(rows: list[list[int]], rhs: list[int], n: int) -> Optional[list[int]]:
    m = [[rows[i][j] & 1 for j in range(n)] + [rhs[i] & 1] for i in range(len(rows))]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [(x + y) & 1 for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for row in m[r:]:
        if row[n]:
            return None
    x = [0] * n
    for i, c in enumerate(pivots):
        x[c] = m[i][n]
    return x


def construct_description(
    source: ToricCoxRing, target: ToricCoxRing, charmap: CharacterMap
) -> CoxDescription:
    """Build a description realizing the given character values.

    The values must be single-valued degree-zero sections over the source,
    one per basis character vanishing on the chosen cone.  Each stored
    factor and each scalar prime yields an independent linear system for
    the image exponents; free variables are set to zero and signs are
    matched modulo squares.  Raises InconsistentCharacterData when no exact
    solution exists.
    """
    fan = target.fan
    try:
        sigma = fan.cone(charmap.sigma_indices)
    except ConeNotInFan:
        raise ZeroConeNotInFan(
            "chosen zero set does not span a cone of the target fan"
        ) from None
    reference = orthogonal_character_basis(fan, sigma)
    given = IntMatrix.from_rows(charmap.basis, cols=fan.dim)
    if (
        len(charmap.basis) != len(reference)
        or hermite_normal_form(given).entries != reference
    ):
        raise InconsistentCharacterData(
            "characters do not form a basis of the lattice vanishing on the cone"
        )
    if len(charmap.values) != len(charmap.basis):
        raise InconsistentCharacterData("one value per basis character required")
    for value in charmap.values:
        if value.is_zero:
            raise InconsistentCharacterData("character values must be nonzero")
        if root_order(value) != 1:
            raise InconsistentCharacterData("character values must be single-valued")
        try:
            _, exact = section_degree(source, value)
        except InhomogeneousFactor:
            raise InconsistentCharacterData(
                "character values must have homogeneous factors"
            ) from None
        if exact is None or not exact.is_zero:
            raise InconsistentCharacterData("character values must have degree zero")

    free_indices = [i for i in range(target.nvars) if i not in charmap.sigma_indices]
    system = IntMatrix.from_rows(
        [
            [sum(a * b for a, b in zip(m, fan.rays[i])) for i in free_indices]
            for m in charmap.basis
        ],
        cols=len(free_indices),
    )

    pool: list[MPoly] = []
    for value in charmap.values:
        for p in value.factor_polys():
            if p not in pool:
                pool.append(p)
    pool.sort(key=lambda p: p.sort_key())
    primes = sorted({p for value in charmap.values for p, _ in value.unit.powers})

    factor_exps: dict[MPoly, tuple] = {}
    for p in pool:
        rhs = [value.exponent_of(p) for value in charmap.values]
        sol = solve_rational(system, rhs)
        if sol is None:
            raise InconsistentCharacterData(
                "no exponent assignment matches factor %s" % source.poly_str(p)
            )
        factor_exps[p] = sol
    prime_exps: dict[int, tuple] = {}
    for prime in primes:
        rhs = [dict(value.unit.powers).get(prime, Fraction(0)) for value in charmap.values]
        sol = solve_rational(system, rhs)
        if sol is None:
            raise InconsistentCharacterData(
                "no exponent assignment matches the scalar prime %d" % prime
            )
        prime_exps[prime] = sol
    signs = [0] * len(free_indices)
    if any(value.unit.sign < 0 for value in charmap.values):
        bits = _solve_mod2(
            [list(row) for row in system.entries],
            [0 if value.unit.sign > 0 else 1 for value in charmap.values],
            len(free_indices),
        )
        if bits is None:
            raise InconsistentCharacterData(
                "character value signs cannot be matched by real scalars"
            )
        signs = bits

    images: list[FactoredSection] = []
    for i in range(target.nvars):
        if i in charmap.sigma_indices:
            images.append(FactoredSection.zero(source.nvars))
            continue
        k = free_indices.index(i)
        unit = RadicalScalar.make(
            -1 if signs[k] else 1,
            [(prime, prime_exps[prime][k]) for prime in primes],
        )
        images.append(
            FactoredSection.from_factors(
                source.nvars,
                [(p, factor_exps[p][k]) for p in pool],
                unit=unit,
            )
        )
    return CoxDescription(source, target, images)


# ---------------------------------------------------------------------------
# Twisting and completion


def twist_description(
    d: CoxDescription, f: MPoly, delta: Sequence
) -> CoxDescription:
    """Multiply image i by f^delta_i; requires the weighted ray projections
    of delta to cancel, which keeps all character pullbacks unchanged."""
    delta = [Fraction(x) for x in delta]
    if len(delta) != d.target.nvars:
        raise ValueError("one twist exponent per target variable required")
    sums, den = _scaled_projection(ray_projection_map(d.star), delta)
    if any(sums):
        raise NotInKernel(
            "twist vector projects to %s" % ([Fraction(s, den) for s in sums],)
        )
    images = []
    for i, img in enumerate(d.images):
        if img.is_zero or delta[i] == 0:
            images.append(img)
        else:
            images.append(
                section_mul(
                    img,
                    FactoredSection.from_factors(d.source.nvars, [(f, delta[i])]),
                )
            )
    twisted = CoxDescription(d.source, d.target, images)
    if twisted.zero_set == d.zero_set and not f.is_zero:
        # the orders along every other divisor are unchanged, so are their
        # diagnoses
        _, prim = f.content_and_primitive()
        twisted._diagnoses.update(
            (g, diag) for g, diag in d._diagnoses.items() if g != prim
        )
    return twisted


def _scaled_projection(L: IntMatrix, v: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """L·v in integers: the common denominator den of v and, for each row r,
    the sum of L[r, i]·v_i·den over the nonzero entries of v only."""
    support = [(i, x) for i, x in enumerate(v) if x]
    den = lcm(*(x.denominator for _, x in support))
    scaled = [(i, x.numerator * (den // x.denominator)) for i, x in support]
    return tuple(sum(row[i] * m for i, m in scaled) for row in L.entries), den


def candidate_divisors(d: CoxDescription) -> list[MPoly]:
    """Stored factors across all images, deduplicated, in canonical order."""
    seen = []
    for img in d.images:
        if img.is_zero:
            continue
        for p in img.factor_polys():
            if p not in seen:
                seen.append(p)
    seen.sort(key=lambda p: p.sort_key())
    return seen


class DivisorStatus(enum.Enum):
    AGREES = "agrees"
    NON_REGULAR_MAP_LOCUS = "non_regular_map_locus"
    NEEDS_MODIFICATION = "needs_modification"


@dataclass(frozen=True)
class DivisorDiagnosis:
    """Comparison of a description with the underlying map along one
    irreducible divisor of the source."""

    f: MPoly
    mu: tuple[Fraction, ...]
    L_mu: tuple[int, ...]
    status: DivisorStatus
    tau_indices: Optional[frozenset[int]] = None
    tau_y: Optional[frozenset[int]] = None
    mu_prime: Optional[tuple[Fraction, ...]] = None


def divisor_status(d: CoxDescription, f: MPoly) -> DivisorDiagnosis:
    """Diagnose the description along the divisor of an irreducible f.

    The vanishing orders of the images push forward along the ray
    projection; the map is undefined on the divisor when that projection
    leaves the star fan's support, the description already matches the map
    when the orders are nonnegative and supported inside one maximal cone,
    and otherwise a twist supported on a cone over the projection repairs
    it.  The diagnosis is kept on the description, so asking again for the
    same divisor costs a lookup.
    """
    known = d._diagnoses.get(f)
    if known is not None:
        return known
    validate_description(d)
    _, prim = f.content_and_primitive()
    if prim.is_constant:
        raise ValueError("divisors come from non-constant polynomials")
    known = d._diagnoses.get(prim)
    if known is None:
        known = d._diagnoses[prim] = _diagnose(d, prim)
    return known


def _diagnose(d: CoxDescription, prim: MPoly) -> DivisorDiagnosis:
    n = d.target.nvars
    mu = tuple(
        Fraction(0) if i in d.zero_set else d.images[i].exponent_of(prim)
        for i in range(n)
    )
    star = d.star
    L = ray_projection_map(star)
    sums, den = _scaled_projection(L, mu)
    if any(s % den for s in sums):
        raise NonIntegralL(
            "orders %s project to the non-lattice point %s"
            % (mu, [Fraction(s, den) for s in sums])
        )
    l_mu = tuple(s // den for s in sums)
    if not star.support_contains(l_mu):
        return DivisorDiagnosis(prim, mu, l_mu, DivisorStatus.NON_REGULAR_MAP_LOCUS)
    vanishing = d.zero_set | {i for i in range(n) if mu[i] > 0}
    if all(x >= 0 for x in mu) and any(
        vanishing <= cone for cone in d.target.fan.max_cones
    ):
        return DivisorDiagnosis(prim, mu, l_mu, DivisorStatus.AGREES)
    tau_indices = star.minimal_image_cone(l_mu)
    assert tau_indices is not None
    tau_gens = star.image_gens(tau_indices)
    candidates = star.cones_with_image(tau_gens)
    assert candidates
    tau_y = min(candidates, key=lambda c: (-len(c), tuple(sorted(c))))
    support = sorted(tau_y)
    columns = IntMatrix.from_rows(
        [[L[r, i] for i in support] for r in range(L.rows)], cols=len(support)
    )
    sol = feasible_lexmin(columns, l_mu)
    assert sol is not None
    mu_prime = [Fraction(0)] * n
    for k, i in enumerate(support):
        mu_prime[i] = sol[k]
    return DivisorDiagnosis(
        prim,
        mu,
        l_mu,
        DivisorStatus.NEEDS_MODIFICATION,
        tau_indices,
        tau_y,
        tuple(mu_prime),
    )


def complete_along(d: CoxDescription, diagnosis: DivisorDiagnosis) -> CoxDescription:
    """Apply the repairing twist for one divisor diagnosed as modifiable."""
    if diagnosis.status != DivisorStatus.NEEDS_MODIFICATION:
        raise ValueError("only a needs-modification diagnosis can be applied")
    delta = tuple(a - b for a, b in zip(diagnosis.mu_prime, diagnosis.mu))
    return twist_description(d, diagnosis.f, delta)


@dataclass(frozen=True)
class CompletionEntry:
    f: MPoly
    status: DivisorStatus
    modified: bool
    diagnosis: DivisorDiagnosis


def complete(d: CoxDescription) -> tuple[CoxDescription, tuple[CompletionEntry, ...]]:
    """Repair the description along every stored divisor.

    One pass over the initial candidate divisors twists wherever the
    diagnosis asks for it.  That pass is enough: the twist along f leaves
    f agreeing (mu' >= 0 is supported on tau_y, which lies in a maximal
    cone, and L mu' = L mu) and leaves the orders along every other divisor
    unchanged, so it hands their diagnoses on.  The entries therefore
    diagnose only twisted divisors anew; a divisor that still needs
    modification there raises NonTermination.
    """
    candidates = candidate_divisors(d)
    current = d
    triggers: dict[MPoly, DivisorDiagnosis] = {}
    for f in candidates:
        diag = divisor_status(current, f)
        if diag.status == DivisorStatus.NEEDS_MODIFICATION:
            triggers[f] = diag
            current = complete_along(current, diag)
    entries = []
    for f in candidates:
        diag = divisor_status(current, f)
        if diag.status == DivisorStatus.NEEDS_MODIFICATION:
            raise NonTermination(
                "divisor %s still needs modification after the repair pass"
                % format_poly(f, d.source.names)
            )
        entries.append(
            CompletionEntry(f, diag.status, f in triggers, triggers.get(f, diag))
        )
    return current, tuple(entries)


# ---------------------------------------------------------------------------
# Regularity


@dataclass(frozen=True)
class RegularityReport:
    """Where the map described by a complete description fails to be regular.

    ``poles`` lists divisors on which the map is undefined;
    ``non_regular_patterns`` lists the vanishing patterns (sets of stored
    factors) cutting out the loci that land in the target's irrelevant
    locus without being irrelevant upstairs.
    """

    agrees: tuple[MPoly, ...]
    poles: tuple[MPoly, ...]
    patterns_inside_irrelevant: tuple[tuple[MPoly, ...], ...]
    non_regular_patterns: tuple[tuple[MPoly, ...], ...]
    images_polynomial: bool
    is_regular: bool


def _minimal_transversals(edges: Sequence[Sequence[MPoly]]) -> list[frozenset[MPoly]]:
    """The minimal sets meeting every edge, by Berge's incremental algorithm
    (Eiter & Gottlob, SIAM J. Comput. 24, 1995).

    The family starts with the empty set alone.  For each edge, the sets
    that meet it stay and every other set is extended by each element of
    the edge.  As the family before the step is an antichain, an extension
    can only fail to be minimal by containing a set that stayed.  Sets are
    bit masks over the distinct factors.
    """
    factors = list(dict.fromkeys(p for edge in edges for p in edge))
    bit = {p: 1 << k for k, p in enumerate(factors)}
    masks = {sum(bit[p] for p in set(edge)) for edge in edges}
    family = [0]
    for edge in sorted(masks, key=lambda m: (m.bit_count(), m)):
        kept = [t for t in family if t & edge]
        members = [b for b in bit.values() if b & edge]
        grown = [t | b for t in family if not t & edge for b in members]
        family = kept + [g for g in grown if all(k & ~g for k in kept)]
    return [frozenset(p for p in factors if bit[p] & t) for t in family]


def regularity_report(d: CoxDescription) -> RegularityReport:
    """Classify candidate divisors and the preimage of the irrelevant locus.

    Requires a complete description.  The preimage analysis works on the
    monomial level: the zero locus of each pulled-back irrelevant monomial
    is the union of its positively occurring factors.  A vanishing pattern
    is a minimal set of factors meeting every such zero locus, that is a
    minimal transversal of these factor sets, and it is harmless exactly
    when its variable part is contained in no maximal cone of the source
    fan.
    """
    agrees = []
    poles = []
    for f in candidate_divisors(d):
        diag = divisor_status(d, f)
        if diag.status == DivisorStatus.NEEDS_MODIFICATION:
            raise IncompleteDescription(
                "description still disagrees along %s" % d.source.poly_str(f)
            )
        if diag.status == DivisorStatus.AGREES:
            agrees.append(f)
        else:
            poles.append(f)
    images_polynomial = all(
        img.is_zero or all(e > 0 for _, e in img.factors) for img in d.images
    )

    # zero loci of the pulled-back irrelevant monomials, as factor sets; an
    # empty one (a monomial vanishing nowhere) leaves no pattern at all
    factor_sets = []
    for cone in d.target.fan.max_cones:
        outside = [i for i in range(d.target.nvars) if i not in cone]
        if any(i in d.zero_set for i in outside):
            continue  # this monomial pulls back to zero: no constraint
        total: dict[MPoly, Fraction] = {}
        for i in outside:
            for p, e in d.images[i].factors:
                total[p] = total.get(p, Fraction(0)) + e
        factor_sets.append([p for p, e in total.items() if e > 0])
    patterns = _minimal_transversals(factor_sets)

    variable_index = {
        MPoly.variable(d.source.nvars, i): i for i in range(d.source.nvars)
    }
    inside = []
    outside_patterns = []
    for pattern in patterns:
        var_part = {variable_index[p] for p in pattern if p in variable_index}
        harmless = not any(
            var_part <= cone for cone in d.source.fan.max_cones
        )
        ordered = tuple(sorted(pattern, key=lambda p: p.sort_key()))
        (inside if harmless else outside_patterns).append(ordered)
    outside_patterns.sort(key=lambda pat: [p.sort_key() for p in pat])
    inside.sort(key=lambda pat: [p.sort_key() for p in pat])
    return RegularityReport(
        tuple(agrees),
        tuple(poles),
        tuple(inside),
        tuple(outside_patterns),
        images_polynomial,
        not poles and images_polynomial and not outside_patterns,
    )
