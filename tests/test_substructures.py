"""Substructure enumeration: families, certificates, modes and radicals."""

import dataclasses
import math

import pytest

from srings.bits import contains, elements_of, mask_of
from srings.config import DEFAULT_LIMITS
from srings.errors import CapacityError
from srings.rings import group_ring, product_ring, zn
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
