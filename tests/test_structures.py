"""Group/semigroup construction and subset machinery.

Brute-force oracles re-derive the small cases independently of the
closure-growing enumeration being checked.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from srings.bits import elements_of, mask_of
from srings.config import DEFAULT_LIMITS
from srings.errors import CapacityError, ValidationError
from srings.structures import (
    CayleyStructure,
    associative_over,
    build_group,
    build_semigroup,
    close_under_op,
    cyclic_group,
    dihedral_group,
    enumerate_subsemigroups,
    generators,
    group_subsets,
    is_s_semigroup,
    is_subgroup,
    maximal_subgroups,
    s_normal_subgroups,
    semigroup_from_table,
    subgroups_and_subsemigroups,
    symmetric_group,
    symmetric_semigroup,
    zn_multiplicative,
)


def brute_force_subsemigroups(s: CayleyStructure) -> set[int]:
    """Oracle: scan all nonempty subsets for closure (tiny sizes only)."""
    out = set()
    for bitsmask in range(1, 1 << s.size):
        members = elements_of(bitsmask)
        if all((bitsmask >> s.op(a, b)) & 1 for a in members for b in members):
            out.add(bitsmask)
    return out


def brute_force_group_subsets(s: CayleyStructure) -> set[int]:
    out = set()
    for mask in brute_force_subsemigroups(s):
        if is_subgroup(s, mask) is not None:
            out.add(mask)
    return out


def test_symmetric_group_sizes():
    assert symmetric_group(3).size == 6  # order 3!
    assert symmetric_group(4).size == 24


def test_cyclic_trivial():
    g = cyclic_group(1)
    assert g.size == 1 and g.identity == 0


def test_dihedral_presentation_closure():
    # a^2 = b^n = 1 and bab = a, checked exhaustively on D3 and D4
    for n in (3, 4):
        d = dihedral_group(n)
        a = n  # s*n + r with s=1, r=0
        b = 1
        e = d.identity
        assert d.op(a, a) == e
        acc = b
        for _ in range(n - 1):
            acc = d.op(acc, b)
        assert acc == e
        assert d.op(d.op(b, a), b) == a
    # D3 is non-abelian
    d3 = dihedral_group(3)
    assert any(d3.op(x, y) != d3.op(y, x) for x in range(6) for y in range(6))


def test_dihedral_matches_presentation_enumeration():
    # oracle: close {a, b} under the relations inside S_n's regular image
    d = dihedral_group(3)
    full = close_under_op(d.table, mask_of([1, 3]))  # b and a generate
    assert full == (1 << d.size) - 1


def test_composition_convention():
    # (p o q)(i) = p(q(i)) pinned against a hand-computed product in S3
    s3 = symmetric_group(3)
    p1 = s3.labels.index("132")
    p2 = s3.labels.index("321")
    assert s3.label(s3.op(p1, p2)) == "231"
    assert s3.label(s3.op(p2, p1)) == "312"
    # whole tables, cell by cell from the labelled maps
    for s in (symmetric_group(3), symmetric_group(4), symmetric_group(5),
              symmetric_semigroup(3), symmetric_semigroup(4)):
        maps = [tuple(int(c) - 1 for c in lab) for lab in s.labels]
        index = {f: i for i, f in enumerate(maps)}
        assert s.table.tolist() == [[index[tuple(p[i] for i in q)] for q in maps] for p in maps]
    # b^r1 a^s1 . b^r2 a^s2 = b^(r1 + (-1)^s1 r2) a^(s1 + s2)
    for n in range(1, 65):
        d = dihedral_group(n)
        pairs = [(s, r) for s in (0, 1) for r in range(n)]
        assert d.table.tolist() == [
            [(s1 ^ s2) * n + (r1 + (-1) ** s1 * r2) % n for s2, r2 in pairs] for s1, r1 in pairs
        ]


def test_symmetric_semigroup_sizes():
    assert symmetric_semigroup(2).size == 4  # a monoid of order 4
    assert symmetric_semigroup(3).size == 27


def test_zn_multiplicative_monoid():
    s = zn_multiplicative(12)
    assert s.size == 12 and s.identity == 1
    assert s.zero() == 0


def test_explicit_table_validation():
    ok = semigroup_from_table([[0, 0], [0, 1]])
    assert ok.size == 2
    with pytest.raises(ValidationError):
        # x*(y*y) != (x*y)*y for this table
        semigroup_from_table([[1, 0], [0, 0]])


def test_light_test_matches_triple_check_on_every_small_magma():
    for n in (1, 2, 3):
        for cells in itertools.product(range(n), repeat=n * n):
            t = np.array(cells).reshape(n, n)
            gens = generators(t)
            assert close_under_op(t, mask_of(gens)) == (1 << n) - 1
            associative = all(t[t[a, b], c] == t[a, t[b, c]] for a, b, c in itertools.product(range(n), repeat=3))
            assert associative_over(t, gens) == associative


def test_large_table_fault_found_at_least_triple():
    # Z600 under multiplication with 1*1 set to 7.  No triple (0, b, c) fails
    # (0 absorbs), nor (1, 0, c), (1, 1, 0) or (1, 1, 1); then (1*1)*2 = 14
    # but 1*(1*2) = 2.  About 1,500 of the 2.16e8 triples fail, so 2,000
    # random triples would almost surely miss every one.
    r = np.arange(600)
    rows = np.multiply.outer(r, r) % 600
    rows[1, 1] = 7
    with pytest.raises(ValidationError, match=r"^table: associativity fails at \(1, 1, 2\)$"):
        semigroup_from_table(rows)


def test_structure_cap():
    with pytest.raises(CapacityError):
        symmetric_semigroup(6)


def test_subgroups_of_s3():
    subs, subsemis = subgroups_and_subsemigroups(symmetric_group(3))
    assert len(subs) == 6  # trivial, three of order 2, one of order 3, whole
    assert sorted(m.bit_count() for m in subs) == [1, 2, 2, 2, 3, 6]
    # independent re-check by brute force; op-closed subsets of a group are
    # its subgroups
    for s in (symmetric_group(3), dihedral_group(4), cyclic_group(6)):
        subs, subsemis = subgroups_and_subsemigroups(s)
        assert subs == subsemis
        assert set(subs) == brute_force_group_subsets(s)


def test_subgroups_of_cyclic_8():
    subs, _ = subgroups_and_subsemigroups(cyclic_group(8))
    assert sorted(m.bit_count() for m in subs) == [1, 2, 4, 8]


def test_subsemigroups_of_s2_brute_force():
    s = symmetric_semigroup(2)
    _, subsemis = subgroups_and_subsemigroups(s)
    assert set(subsemis) == brute_force_subsemigroups(s)
    # every singleton idempotent is present
    for x in range(s.size):
        if s.op(x, x) == x:
            assert (1 << x) in subsemis


def test_subsemigroup_family_cap_refusal():
    s = symmetric_semigroup(2)
    count = len(enumerate_subsemigroups(s))
    for cap in (1, count - 1):
        with pytest.raises(CapacityError, match="subsemigroup family cap exceeded") as e:
            enumerate_subsemigroups(s, dataclasses.replace(DEFAULT_LIMITS, family_cap=cap))
        assert e.value.partial_count == cap
    assert len(enumerate_subsemigroups(s, dataclasses.replace(DEFAULT_LIMITS, family_cap=count))) == count


def test_every_family_member_passes_direct_recheck():
    for s in (symmetric_group(3), zn_multiplicative(12), symmetric_semigroup(2)):
        groups, subsemis = subgroups_and_subsemigroups(s)
        for mask in subsemis:
            members = elements_of(mask)
            assert all((mask >> s.op(a, b)) & 1 for a in members for b in members)
        for mask in groups:
            assert is_subgroup(s, mask) is not None


def test_s_semigroup_zn12():
    ok, w = is_s_semigroup(zn_multiplicative(12), min_group_size=2)
    assert ok
    members = elements_of(w.members)
    assert is_subgroup(zn_multiplicative(12), w.members) == w.identity
    assert len(members) >= 2 and w.members != (1 << 12) - 1
    # the stated witness {3, 9} with identity 9 is among the maximal subgroups
    found = {(m.members, m.identity) for m in maximal_subgroups(zn_multiplicative(12))}
    assert (mask_of([3, 9]), 9) in found


def test_s_semigroup_s2():
    ok, w = is_s_semigroup(symmetric_semigroup(2), min_group_size=2)
    assert ok
    # witness is the 2-element permutation subgroup
    assert w.members.bit_count() == 2


def test_s_semigroup_trivial_false():
    trivial = semigroup_from_table([[0]])
    ok, w = is_s_semigroup(trivial, min_group_size=2)
    assert not ok and w is None


def test_s_semigroup_witnesses_verify():
    for n in range(2, 30):
        ok, w = is_s_semigroup(zn_multiplicative(n), min_group_size=2)
        if ok:
            assert is_subgroup(zn_multiplicative(n), w.members) == w.identity
            assert w.members.bit_count() >= 2


def test_s_normal_subgroups_z10():
    fam = s_normal_subgroups(zn_multiplicative(10))
    assert mask_of([2, 4, 6, 8]) in {w.members for w in fam}
    # direct definitional re-check on every returned member
    s = zn_multiplicative(10)
    zero = s.zero()
    for w in fam:
        members = elements_of(w.members)
        for a in range(s.size):
            left = {s.op(a, x) for x in members}
            right = {s.op(x, a) for x in members}
            assert (left <= set(members) and right <= set(members)) or (
                left == {zero} and right == {zero}
            )


def test_s_normal_subgroups_z12_brute_force():
    s = zn_multiplicative(12)
    zero = s.zero()
    expected = set()
    for mask in brute_force_group_subsets(s):
        if mask == (1 << s.size) - 1:
            continue
        members = elements_of(mask)
        ok = True
        for a in range(s.size):
            left = {s.op(a, x) for x in members}
            right = {s.op(x, a) for x in members}
            if not ((left <= set(members) and right <= set(members)) or (left == {zero} and right == {zero})):
                ok = False
                break
        if ok:
            expected.add(mask)
    assert {w.members for w in s_normal_subgroups(s)} == expected


def test_s_normal_on_group_is_empty():
    assert s_normal_subgroups(symmetric_group(3)) == []


def test_symmetric_group_embeds_in_symmetric_semigroup():
    # the S_n image is found among the group subsets of S(n)
    for n in (2, 3):
        s = symmetric_semigroup(n)
        maps = list(itertools.product(range(n), repeat=n))
        image = mask_of(maps.index(p) for p in itertools.permutations(range(n)))
        assert image in {w.members for w in group_subsets(s)}


def test_associativity_holds_on_all_constructions():
    for s in (symmetric_group(3), dihedral_group(4), zn_multiplicative(15), symmetric_semigroup(3)):
        t = s.table
        for a in range(s.size):
            assert np.array_equal(t[t[a], :], t[a][t])


def test_build_entry_points():
    assert build_group(("cyclic", 5)).size == 5
    assert build_group(("dihedral", 3)).size == 6
    assert build_semigroup(("symmetric_semigroup", 2)).size == 4
    assert build_semigroup(("zn_multiplicative", 15)).size == 15
    with pytest.raises(ValueError):
        build_group(("frobnitz", 3))
    with pytest.raises(ValueError):
        cyclic_group(0)
