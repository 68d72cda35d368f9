"""Substructure enumeration: families, certificates, modes and radicals."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from srings.bits import contains, elements_of, mask_of
from srings.config import DEFAULT_LIMITS
from srings.elements import classify_idempotents, s_idempotents_within
from srings.errors import CapacityError
from srings.predicates import law_holds_on, s_localized_law
from srings.rings import group_ring, product_ring, subring_as_ring, zn
from srings.specparse import ring_from_text
from srings.structures import symmetric_group
from srings.substructures import (
    additive_subgroups,
    domain_subsets,
    field_subsets,
    has_s_ring,
    ideal_generated,
    ideals,
    jacobson_radical,
    maximal_minimal_prime,
    s_characteristic,
    s_ideals,
    s_maximal_minimal,
    s_pseudo_ideals,
    s_simplicity,
    s_subrings,
    subrings,
    units_mask,
)
from test_rings import SMALL_SPECS


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def brute_force_additive_subgroups(R) -> set[int]:
    """Oracle for tiny rings: scan all subsets containing zero."""
    out = set()
    n = R.cardinality
    for mask in range(1, 1 << n):
        if not contains(mask, R.zero):
            continue
        members = elements_of(mask)
        if all(contains(mask, R.add(a, b)) for a in members for b in members):
            out.add(mask)
    return out


def test_additive_subgroups_zn():
    fam = additive_subgroups(zn(12))
    expected = {mask_of(range(0, 12, 12 // d)) for d in divisors(12)}
    assert set(fam) == expected


def test_additive_subgroups_brute_force_oracle():
    for R in (zn(8), zn(12), product_ring([zn(2), zn(4)])):
        assert set(additive_subgroups(R)) == brute_force_additive_subgroups(R)


def test_additive_subgroup_count_z3_x_z12():
    # oracle: number of subgroups of Z_m x Z_n is sum over divisor pairs of gcd
    R = product_ring([zn(3), zn(12)])
    expected = sum(math.gcd(a, b) for a in divisors(3) for b in divisors(12))
    assert len(additive_subgroups(R)) == expected == 18


def test_additive_subgroups_z2s3_gaussian_binomial():
    # (Z2S3, +) is a 6-dimensional F_2 space: Gaussian binomial sum
    def gaussian(n, k, q=2):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        return num // den

    R = group_ring(zn(2), symmetric_group(3))
    fam = additive_subgroups(R)
    assert len(fam) == sum(gaussian(6, k) for k in range(7)) == 2825


def test_subrings_zn_are_divisor_spans():
    for n in range(2, 61):
        fam = subrings(zn(n, validate=False))
        expected = {mask_of(range(0, n, n // d)) for d in divisors(n)}
        assert set(fam) == expected


def test_subrings_examples():
    assert mask_of([0, 3, 6, 9, 12]) in subrings(zn(15))
    assert subrings(zn(7)) == [mask_of([0]), mask_of(range(7))]
    # diagonal embedding x -> (x mod 3, 4x mod 12) is a subring of Z3 x Z12
    R = product_ring([zn(3), zn(12)])
    diag = mask_of((x % 3) + 3 * ((4 * x) % 12) for x in range(3))
    assert diag in subrings(R)


def test_ideals_examples():
    fam = ideals(zn(22))
    assert mask_of([0, 11]) in fam and mask_of(range(0, 22, 2)) in fam
    fam12 = ideals(zn(12))
    expected = {
        mask_of([0]),
        mask_of([0, 6]),
        mask_of([0, 4, 8]),
        mask_of([0, 3, 6, 9]),
        mask_of([0, 2, 4, 6, 8, 10]),
        mask_of(range(12)),
    }
    assert set(fam12) == expected


def test_two_sided_ideals_are_subrings():
    for R in (zn(12), zn(24), group_ring(zn(2), symmetric_group(3))):
        assert set(ideals(R)) <= set(subrings(R))


def test_each_ideal_passes_direct_recheck():
    R = zn(24)
    for mask in ideals(R):
        members = elements_of(mask)
        assert all(contains(mask, R.add(a, b)) for a in members for b in members)
        assert all(contains(mask, R.mul(r, a)) for r in range(24) for a in members)


def test_ideal_generated():
    assert ideal_generated(zn(25), [5]) == mask_of([0, 5, 10, 15, 20])
    assert ideal_generated(zn(24), [20]) == mask_of([0, 4, 8, 12, 16, 20])
    assert ideal_generated(zn(12), [0]) == mask_of([0])


def test_ideal_generated_is_minimal():
    # no ideal strictly between the generators and the result contains them
    R = zn(24)
    fam = ideals(R)
    for g in range(24):
        I = ideal_generated(R, [g])
        assert I in fam
        for J in fam:
            if contains(J, g) and J & ~I == 0:
                assert J == I


def absorb_and_add(R, g, side):
    """Oracle: grow {0, g} by sums and the side's products to a fixpoint."""
    add, mul = R.add_table.tolist(), R.mul_table.tolist()
    ideal = {R.zero, g}
    while True:
        grown = ideal | {add[a][b] for a in ideal for b in ideal}
        if side in ("left", "two_sided"):
            grown |= {mul[r][a] for r in R.elements() for a in ideal}
        if side in ("right", "two_sided"):
            grown |= {mul[a][r] for a in ideal for r in R.elements()}
        if grown == ideal:
            return mask_of(ideal)
        ideal = grown


@pytest.mark.parametrize("spec", ["M2(Z2)", "GR(Z2, S3)"])
def test_ideal_generated_on_noncommutative_rings(spec):
    R = ring_from_text(spec)
    for side in ("two_sided", "left", "right"):
        for g in R.elements():
            assert ideal_generated(R, [g], side) == absorb_and_add(R, g, side), (side, g)
    # one-sided ideals differ on these rings, so each side was really exercised
    assert ideals(R, "left") != ideals(R, "right")


@pytest.mark.parametrize("spec, path", [
    ("Z2 x Z4", "additive subgroup"),  # cyclic subgroups joined by sumsets
    ("Z2 x Z2 x Z2", "subspace"),  # elementary abelian: echelon forms
])
def test_family_cap_refusal_on_each_additive_path(spec, path):
    count = len(additive_subgroups(ring_from_text(spec)))
    for cap in (1, count - 1):
        R = ring_from_text(spec)
        with pytest.raises(CapacityError, match=f"{path} family cap exceeded") as e:
            additive_subgroups(R, dataclasses.replace(DEFAULT_LIMITS, family_cap=cap))
        assert e.value.partial_count == cap
    R = ring_from_text(spec)
    assert len(additive_subgroups(R, dataclasses.replace(DEFAULT_LIMITS, family_cap=count))) == count


def plain_multiples(add, x, zero):
    """x, x + x, ... back to zero, as a list starting at zero."""
    out, m = [zero], x
    while m != zero:
        out.append(m)
        m = add[m][x]
    return out


def plain_span(add, gens, zero) -> int:
    """Mask of the subgroup the gens generate: the sums reached from zero."""
    span, frontier = {zero}, [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            if add[x][g] not in span:
                span.add(add[x][g])
                frontier.append(add[x][g])
    return mask_of(span)


def plain_subgroups(R) -> list[int]:
    """Oracle: grow {0} by one cyclic subgroup at a time; S + <x> is the
    span of S and x."""
    add = R.add_table.tolist()
    cyclic = [plain_multiples(add, x, R.zero) for x in R.elements()]
    found, queue = {frozenset([R.zero])}, [frozenset([R.zero])]
    while queue:
        S = queue.pop()
        for x in R.elements():
            if x not in S:
                T = frozenset(add[s][m] for s in S for m in cyclic[x])
                if T not in found:
                    found.add(T)
                    queue.append(T)
    return sorted(mask_of(T) for T in found)


@pytest.mark.parametrize("spec", [
    "Z2", "Z2 x Z2", "Z2 x Z2 x Z2", "Z2 x Z2 x Z2 x Z2", "Z2 x Z2 x Z2 x Z2 x Z2",
    "Z3 x Z3 x Z3", "Z5 x Z5", "M2(Z2)", "GR(Z2, C2)",
])
def test_subspaces_match_a_plain_span_oracle(spec):
    R = ring_from_text(spec)
    family, gens = additive_subgroups(R, with_generators=True)
    assert family == plain_subgroups(R)
    add = R.add_table.tolist()
    assert [plain_span(add, g, R.zero) for g in gens.tolist()] == family


def test_maximal_minimal_prime_z12():
    R = zn(12)
    notes = {a.mask: a for a in maximal_minimal_prime(R, ideals(R))}
    evens = mask_of([0, 2, 4, 6, 8, 10])
    threes = mask_of([0, 3, 6, 9])
    assert notes[evens].maximal and notes[threes].maximal
    assert notes[mask_of([0, 6])].minimal and notes[mask_of([0, 4, 8])].minimal
    assert not notes[mask_of([0, 6])].maximal
    assert notes[evens].prime and notes[threes].prime


def test_prime_ideal_negative_case():
    # <8>-analogue in Z_24: {0, 8, 16} is not prime (4*2 inside, neither factor)
    R = zn(24)
    notes = {a.mask: a for a in maximal_minimal_prime(R, ideals(R))}
    assert not notes[mask_of([0, 8, 16])].prime


def test_jacobson_radical():
    assert jacobson_radical(zn(12)) == mask_of([0, 6])
    assert jacobson_radical(zn(7)) == mask_of([0])
    assert jacobson_radical(zn(8)) == mask_of([0, 2, 4, 6])


def test_jacobson_equals_maximal_intersection():
    for n in (4, 6, 8, 9, 10, 12, 15, 16, 24, 30, 36, 60):
        R = zn(n)
        notes = maximal_minimal_prime(R, ideals(R))
        inter = (1 << n) - 1
        for a in notes:
            if a.maximal:
                inter &= a.mask
        assert jacobson_radical(R) == inter


def test_field_subsets_examples():
    fs12 = {(f.mask, f.identity) for f in field_subsets(zn(12))}
    assert fs12 == {(mask_of([0, 4, 8]), 4)}
    fs6 = {(f.mask, f.identity) for f in field_subsets(zn(6))}
    assert fs6 == {(mask_of([0, 3]), 3), (mask_of([0, 2, 4]), 4)}
    assert field_subsets(zn(8)) == []


def test_field_subsets_internal_identity_is_unique_idempotent():
    for n in (6, 10, 12, 14, 15, 30):
        R = zn(n)
        for f in field_subsets(R):
            members = elements_of(f.mask)
            assert all(R.mul(f.identity, m) == m for m in members)
            assert R.mul(f.identity, f.identity) == f.identity


def test_domain_subsets():
    assert domain_subsets(zn(4)) == [mask_of([0])]
    assert mask_of([0, 2, 4]) in domain_subsets(zn(6))
    # diagonal matrices with equal entries inside M2(Z3) form a domain subset
    from srings.rings import matrix_ring

    R = matrix_ring(zn(3), 2)
    diag = mask_of(a + a * 27 for a in range(3))  # a*I
    assert diag in domain_subsets(R)


def test_finite_domain_subsets_are_fields():
    # every nontrivial domain subset of a finite ring is a field subset
    for R in (zn(12), zn(30), product_ring([zn(7), zn(9)])):
        fields = {f.mask for f in field_subsets(R)}
        for m in domain_subsets(R):
            if m.bit_count() >= 2:
                assert m in fields


# left out for time: M2(Z4) and Q(Z4), whose subring families take 7 s on the
# cyclic-join path, and the three rings whose (R,+) is Z2^8, whose 417,199
# additive subgroups the plain filters below would scan member by member
SLOW_SUBRINGS = {"M2(Z4)", "M2(Z2) x M2(Z2)", "M2(Z2 x Z2)", "M2(GR(Z2, C2))", "Q(Z4)"}
PLAIN_FILTER_SPECS = [s for s in SMALL_SPECS if s not in SLOW_SUBRINGS]


@pytest.mark.parametrize("spec", PLAIN_FILTER_SPECS)
def test_field_and_domain_subsets_match_a_plain_filter(spec):
    # the definitions applied to every subring, with no additive-order skip
    R = ring_from_text(spec)
    fields, domains = [], []
    for mask in subrings(R):
        members = elements_of(mask)
        mul = R.mul_table[np.ix_(members, members)].tolist()
        nonzero = [i for i, x in enumerate(members) if x != R.zero]
        if all(mul[i][j] != R.zero for i in nonzero for j in nonzero):
            domains.append(mask)
        ones = [e for i, e in enumerate(members) if all(mul[i][j] == mul[j][i] == x for j, x in enumerate(members))]
        commutative = all(mul[i][j] == mul[j][i] for i in range(len(members)) for j in range(i))
        if commutative and ones and ones[0] != R.zero and all(ones[0] in mul[i] for i in nonzero):
            fields.append((mask, ones[0]))
    assert [(f.mask, f.identity) for f in field_subsets(R)] == fields
    assert domain_subsets(R) == domains


@pytest.mark.parametrize("spec", PLAIN_FILTER_SPECS)
def test_s_idempotents_within_match_the_subring_census(spec):
    # each subring built as a ring of its own, then censused
    R = ring_from_text(spec)
    masks = subrings(R)
    xs, found = s_idempotents_within(R, masks)
    for mask, row in zip(masks, found):
        members = elements_of(mask)
        _, s_idem, _, _ = classify_idempotents(subring_as_ring(R, mask))
        assert xs[row].tolist() == [members[x] for x in s_idem], mask


def plain_absorbing(R, multipliers) -> list[int]:
    """Oracle: the additive subgroups S with every product multipliers(S)
    yields inside S, all members checked."""
    mul = R.mul_table.tolist()
    out = []
    for mask in additive_subgroups(R):
        members = set(elements_of(mask))
        if all(p in members for p in multipliers(mul, members)):
            out.append(mask)
    return out


def left_products(B):
    return lambda mul, S: (mul[b][s] for b in B for s in S)


def right_products(B):
    return lambda mul, S: (mul[s][b] for s in S for b in B)


def both_products(B):
    return lambda mul, S: itertools.chain(left_products(B)(mul, S), right_products(B)(mul, S))


@pytest.mark.parametrize("spec", PLAIN_FILTER_SPECS)
def test_subrings_and_ideals_match_a_plain_product_check(spec):
    R = ring_from_text(spec)
    ring = list(R.elements())
    assert subrings(R) == plain_absorbing(R, lambda mul, S: (mul[s][t] for s in S for t in S))
    assert ideals(R, "left") == plain_absorbing(R, left_products(ring))
    assert ideals(R, "right") == plain_absorbing(R, right_products(ring))
    assert ideals(R, "two_sided") == plain_absorbing(R, both_products(ring))


@pytest.mark.parametrize("spec", PLAIN_FILTER_SPECS)
def test_s_pseudo_ideals_match_a_plain_product_check(spec):
    R = ring_from_text(spec)
    full = (1 << R.cardinality) - 1
    fields = [f.mask for f in field_subsets(R)]
    if not any(f != full for f in fields):
        return  # not an S-ring: S-pseudo ideals are undefined
    for B in {fields[0], fields[-1]}:
        members = elements_of(B)
        assert s_pseudo_ideals(R, B, "left") == plain_absorbing(R, left_products(members))
        assert s_pseudo_ideals(R, B, "right") == plain_absorbing(R, right_products(members))
        assert s_pseudo_ideals(R, B, "two_sided") == plain_absorbing(R, both_products(members))


def plain_certified(R, masks, level, mode):
    """Oracle: each mask with its least qualifying certificate by (size,
    mask), every certificate checked against every mask."""
    full = (1 << R.cardinality) - 1
    if level == "I":
        certs = [f.mask for f in field_subsets(R)]
    else:
        certs = [m for m in domain_subsets(R) if m.bit_count() >= 2]
    out = []
    for mask in masks:
        found = [c for c in certs if c & ~mask == 0 and c != full and (mode == "lax" or c != mask)]
        if found:
            out.append((mask, min(found, key=lambda c: (c.bit_count(), c))))
    return out


@pytest.mark.parametrize("spec", ["Z12", "Z30", "Z3 x Z12 x Z7", "M2(Z2) x Z5", "GR(Z2, S3)", "Z2 x Z2 x Z2 x Z2 x Z2"])
def test_s_families_keep_the_least_certificate(spec):
    R = ring_from_text(spec)
    full, zero_mask = (1 << R.cardinality) - 1, 1 << R.zero
    for level in ("I", "II"):
        for mode in ("strict", "lax"):
            got = [(v.mask, v.certificate) for v in s_subrings(R, level, mode)]
            assert got == plain_certified(R, [m for m in subrings(R) if m != full], level, mode)
            got = [(v.mask, v.certificate) for v in s_ideals(R, level, mode, include_trivial=False)]
            assert got == plain_certified(R, [m for m in ideals(R) if m not in (full, zero_mask)], level, mode)


@pytest.mark.parametrize("law", ["zero_square", "e_ring", "pre_j_ring"])
@pytest.mark.parametrize("mode", ["strict", "lax"])
def test_subring_of_s_subring_keeps_the_first_witness(law, mode):
    # oracle: the first (S-subring, subring) pair in mask order whose subring obeys the law
    R = ring_from_text("Z2 x Z2 x Z2 x Z2 x Z2")
    expected = None
    for v in s_subrings(R, "I", mode):
        for b in subrings(R):
            if b.bit_count() >= 2 and b & ~v.mask == 0:
                holds, data = law_holds_on(R, elements_of(b), law)
                if holds:
                    expected = (v.mask, b, data)
                    break
        if expected:
            break
    verdict = s_localized_law(R, law, "subring_of_s_subring", mode=mode)
    assert verdict.verdict == (expected is not None) and verdict.witness == expected


def plain_localized_law(R, law, placement, p, mode):
    """s_localized_law as a plain loop: law_holds_on on every candidate in
    scan order; (verdict, witness)."""
    holds_on = functools.cache(lambda b: law_holds_on(R, elements_of(b), law, p))
    subs = [b for b in subrings(R) if b.bit_count() >= 2]
    if placement == "subring_of_s_ring":
        if not has_s_ring(R, "I", mode)[0]:
            return None, None
        candidates = [((b,), b) for b in subs]
    else:
        s_subs = s_subrings(R, "I", mode)
        if not s_subs:
            return None, None
        if placement == "s_subring":
            candidates = [((v.mask,), v.mask) for v in s_subs]
        else:
            candidates = [((v.mask, b), b) for v in s_subs for b in subs if b & ~v.mask == 0]
    for key, b in candidates:
        holds, data = holds_on(b)
        if holds:
            return True, key + (data,)
    return False, None


@pytest.mark.parametrize("spec", PLAIN_FILTER_SPECS)
def test_s_localized_law_matches_a_plain_loop(spec):
    # the per-element laws, whose failing subrings are skipped by one mask test
    R = ring_from_text(spec)
    for law, p in (("zero_square", None), ("j_ring", None), ("weakly_boolean", None), ("p_ring", 2), ("p_ring", 3)):
        for placement in ("subring_of_s_ring", "s_subring", "subring_of_s_subring"):
            verdict = s_localized_law(R, law, placement, p)
            expected = plain_localized_law(R, law, placement, p, "strict")
            assert (verdict.verdict, verdict.witness) == expected, (law, p, placement)


def test_s_subrings_z12():
    fam = s_subrings(zn(12), "I", "strict")
    assert [(v.mask, v.certificate) for v in fam] == [
        (mask_of([0, 2, 4, 6, 8, 10]), mask_of([0, 4, 8]))
    ]


def test_s_subrings_z6_mode_split():
    assert s_subrings(zn(6), "I", "strict") == []
    lax = {v.mask for v in s_subrings(zn(6), "I", "lax")}
    assert mask_of([0, 3]) in lax and mask_of([0, 2, 4]) in lax


def test_s_ideals_z12():
    strict = s_ideals(zn(12), "I", "strict")
    nontrivial = [v for v in strict if not v.trivial]
    assert [v.mask for v in nontrivial] == [mask_of([0, 2, 4, 6, 8, 10])]
    assert nontrivial[0].certificate == mask_of([0, 4, 8])


def test_s_ideals_z6_strict_empty():
    assert [v for v in s_ideals(zn(6), "I", "strict") if not v.trivial] == []


def test_s_ideals_z15_mode_dependent():
    threes = mask_of([0, 3, 6, 9, 12])
    lax = {v.mask for v in s_ideals(zn(15), "I", "lax", include_trivial=False)}
    strict = {v.mask for v in s_ideals(zn(15), "I", "strict", include_trivial=False)}
    assert threes in lax and threes not in strict


def test_strict_is_subset_of_lax():
    for R in (zn(12), zn(30), product_ring([zn(7), zn(9)]), group_ring(zn(2), symmetric_group(3))):
        for level in ("I", "II"):
            strict = {v.mask for v in s_ideals(R, level, "strict")}
            lax = {v.mask for v in s_ideals(R, level, "lax")}
            assert strict <= lax


def test_level_I_implies_level_II():
    for R in (zn(12), zn(30), product_ring([zn(7), zn(9)])):
        for mode in ("strict", "lax"):
            one = {v.mask for v in s_ideals(R, "I", mode)}
            two = {v.mask for v in s_ideals(R, "II", mode)}
            assert one <= two


def test_s_ring_levels_coincide_for_finite_commutative():
    for n in range(2, 61):
        R = zn(n, validate=False)
        for mode in ("strict", "lax"):
            assert has_s_ring(R, "I", mode)[0] == has_s_ring(R, "II", mode)[0]


def test_cover_example_19_s_ideals():
    R = product_ring([zn(3), zn(12), zn(7)])
    fam = s_ideals(R, "I", "strict")
    assert len(fam) == 19


def test_s_pseudo_ideals_z12():
    R = zn(12)
    B = mask_of([0, 4, 8])
    fam = s_pseudo_ideals(R, B)
    assert mask_of([0, 6]) in fam
    assert mask_of([0]) in fam
    # every ideal is an S-pseudo ideal relative to every field subset
    for I in ideals(R):
        assert I in fam


def test_s_pseudo_ideal_requires_field_subset():
    with pytest.raises(ValueError):
        s_pseudo_ideals(zn(12), mask_of([0, 6]))
    with pytest.raises(ValueError):
        s_pseudo_ideals(zn(8), mask_of([0, 2]))  # Z8 has no field subsets at all


def test_s_maximal_minimal_z12():
    R = zn(12)
    fam = s_ideals(R, "I", "strict")
    flags = {f.mask: f for f in s_maximal_minimal(R, fam)}
    evens = mask_of([0, 2, 4, 6, 8, 10])
    assert flags[evens].s_maximal
    assert not any(f.s_minimal for f in flags.values())  # {0} blocks minimality


def test_s_maximal_z14_lax():
    R = zn(14)
    fam = s_ideals(R, "I", "lax")
    flags = {f.mask: f for f in s_maximal_minimal(R, fam)}
    assert flags[mask_of(range(0, 14, 2))].s_maximal


def test_s_characteristic():
    assert s_characteristic(zn(12)) == {3}
    assert s_characteristic(zn(6)) == {2, 3}
    assert s_characteristic(zn(8)) == set()


def test_s_simplicity():
    assert s_simplicity(zn(6), "II", "strict") is True
    assert s_simplicity(zn(12), "II", "strict") is False
    assert s_simplicity(zn(7), "II", "strict") is None


def test_units_mask():
    assert elements_of(units_mask(zn(12))) == [1, 5, 7, 11]
    assert elements_of(units_mask(zn(10))) == [1, 3, 7, 9]
