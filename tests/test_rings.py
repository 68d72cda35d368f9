"""Ring constructors, codecs, characteristic, the additive record,
quaternions, hyperrings, quotients and the axiom audit."""

import math
import random
import sys

import numpy as np
import pytest

import srings.rings
import srings.structures
from srings.bits import elements_of, mask_of
from srings.elements import classify_nilpotents, classify_zero_divisors, inverses
from srings.errors import CapacityError, ValidationError
from srings.report import classify_report
from srings.rings import (
    RingHandle,
    additive_group,
    characteristic,
    group_ring,
    hyperring,
    hyperring_family_partition,
    is_two_sided_ideal,
    matrix_ring,
    product_ring,
    quaternion_ring,
    quotient_ring,
    ring_axiom_audit,
    semigroup_ring,
    subring_as_ring,
    table_ring,
    zn,
)
from srings.specparse import ring_from_text
from srings.structures import cyclic_group, symmetric_group, symmetric_semigroup
from srings.substructures import additive_subgroups, ideals


def test_zn_basics():
    R = zn(12)
    assert R.cardinality == 12 and R.zero == 0 and R.one == 1
    assert R.add(7, 8) == 3 and R.mul(7, 8) == 8 and R.neg(5) == 7


def test_group_ring_cardinality():
    R = group_ring(zn(2), symmetric_group(3))
    assert R.cardinality == 64


def test_product_ring_z2z5():
    R = product_ring([zn(2), zn(5)])
    assert R.cardinality == 10
    # commutative with zero divisors
    assert all(R.mul(a, b) == R.mul(b, a) for a in range(10) for b in range(10))
    assert any(R.mul(a, b) == 0 for a in range(1, 10) for b in range(1, 10))


def test_group_ring_over_trivial_group_is_base():
    # coefficient map gives the isomorphism onto Z_m
    R = group_ring(zn(5), cyclic_group(1))
    base = zn(5)
    assert R.cardinality == 5
    for a in range(5):
        for b in range(5):
            assert R.add(a, b) == base.add(a, b)
            assert R.mul(a, b) == base.mul(a, b)


def test_matrix_ring_m2z4():
    R = matrix_ring(zn(4), 2)
    assert R.cardinality == 256  # 4^(2*2)
    # identity matrix acts as 1
    assert all(R.mul(R.one, x) == x and R.mul(x, R.one) == x for x in range(0, 256, 17))


def test_matrix_codec_row_major_little_endian():
    R = matrix_ring(zn(4), 2)
    # [[1,2],[3,0]] row-major little-endian: 1 + 2*4 + 3*16 + 0*64
    a = 1 + 2 * 4 + 3 * 16
    assert R.label(a) == "[1,2;3,0]"


def test_characteristic_values():
    assert characteristic(zn(9)) == 9
    assert characteristic(zn(15)) == 15
    # lcm of component exponents, cross-checked against the direct scan
    P = product_ring([zn(2), zn(5)])
    assert characteristic(P) == 10 == math.lcm(2, 5)
    assert characteristic(group_ring(zn(2), symmetric_group(3))) == 2


def test_characteristic_zn_catalog():
    for n in range(1, 61):
        assert characteristic(zn(n, validate=False)) == n


def test_characteristic_above_cap_derived():
    R = semigroup_ring(zn(2), symmetric_semigroup(3), validate=False)
    assert not R.enumerable
    assert characteristic(R) == 2


# every ring spec the tests build with at most 256 elements, and Z1
SMALL_SPECS = [
    "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10", "Z12", "Z14", "Z15", "Z16",
    "Z22", "Z24", "Z25", "Z30", "Z105", "Z128", "Z256", "Z2 x Z4", "Z2 x Z8", "Z5 x Z7",
    "Z2 x Z2 x Z2", "Z2 x Z2 x Z2 x Z2 x Z2 x Z2", "Z4 x Z4 x Z4", "Z4 x Z4 x Z4 x Z2",
    "Z3 x Z12 x Z7", "M2(Z2)", "M2(Z3)", "M2(Z4)", "M2(Z2) x Z5", "M2(Z2) x M2(Z2)",
    "M2(Z2 x Z2)", "M2(GR(Z2, C2))", "Q(Z3)", "Q(Z4)", "GR(Z2, C2)", "GR(Z2 x Z2, C2)",
    "GR(Z2, C2) x GR(Z2, C2)", "GR(Z2, S3)", "GR(Z4, C2) x Z4",
]


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_batch_ops_read_the_table_cell(spec):
    # the flat gather a * n + b against table[a, b], broadcasting as numpy does
    R = ring_from_text(spec)
    n = R.cardinality
    a, b = np.random.default_rng(0).integers(0, n, size=(2, 40))
    shapes = [(a, b), (a[:5, None], np.arange(n)[None, :]), (a[:1], b[:1])]
    for op, table in ((R.vadd, R.add_table), (R.vmul, R.mul_table)):
        for x, y in shapes:
            assert np.array_equal(op(x, y), table[x, y])


def test_table_gathers_see_only_codes_in_range(monkeypatch):
    # a flat gather reads a wrong cell, with no error, for a code b >= n
    seen = set()
    for name in ("vadd", "vmul"):
        real = getattr(RingHandle, name)

        def checked(self, a, b, real=real):
            if self._add_table is not None:
                for x in (np.asarray(a), np.asarray(b)):
                    assert x.size == 0 or 0 <= x.min() <= x.max() < self.cardinality, self.name
                seen.add(self.name)
            return real(self, a, b)

        monkeypatch.setattr(RingHandle, name, checked)
    # each ring's kernel on 2,000 random pairs: M2(Z2 x Z2) multiplies through
    # its base's ops, the others by structure constants, adding through the
    # base's ops
    rnd = random.Random(0)
    for spec in ["SR(Z2, S(3))", "M2(Z4)", "Q(Z4)", "GR(Z2, S3)", "M2(Z2) x Z5", "M2(Z2 x Z2)"]:
        R = ring_from_text(spec)
        a, b = (np.array([rnd.randrange(R.cardinality) for _ in range(2000)]) for _ in range(2))
        R.kernel.add(a, b), R.kernel.mul(a, b)
    assert seen == {"Z2", "Z4", "Z5", "M2(Z2)", "Z2 x Z2"}


def plain_additive_group(R):
    """Orders and cyclic subgroup masks -> least generator, by walking
    x, x + x, ... back to 0 for each element in turn."""
    add = R.add_table.tolist()
    orders, cyclics = [], {}
    for x in range(R.cardinality):
        members, m = [R.zero], x
        while m != R.zero:
            members.append(m)
            m = add[m][x]
        orders.append(len(members))
        cyclics.setdefault(mask_of(members), x)
    return orders, cyclics


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_additive_group_matches_plain_walk(spec):
    R = ring_from_text(spec)
    group = additive_group(R)
    orders, cyclics = plain_additive_group(R)
    assert group.orders.tolist() == orders
    assert group.cyclics == cyclics
    assert group.exponent == math.lcm(*orders) == characteristic(R)
    assert additive_group(R) is group  # read once per ring handle


def test_additive_walk_refuses_a_non_group_table():
    # x + y = max(x, y): 0 is neutral, but 1 + 1 = 1 never comes back to 0
    add = [[max(x, y) for y in range(3)] for x in range(3)]
    R = table_ring(add, [[0] * 3] * 3, name="maxplus", validate=False)
    for read in (characteristic, additive_subgroups):
        with pytest.raises(ValidationError) as e:
            read(R)
        assert str(e.value) == "maxplus: additive structure is not a group"


@pytest.mark.parametrize("spec", ["GR(Z2, S3)", "Z4 x Z4 x Z4"])
def test_additive_generators_run_once_per_ring(monkeypatch, spec):
    # the axiom audit, the subspace basis and the ideals all read them
    tables = []
    real = srings.structures.generators

    def counted(table, span=0):
        tables.append(table)
        return real(table, span)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("srings") and getattr(module, "generators", None) is real:
            monkeypatch.setattr(module, "generators", counted)
    R = ring_from_text(spec)
    classify_report(spec, R)
    assert sum(t is R.add_table for t in tables) == 1


def test_quaternion_generator_relations():
    # i2 = j2 = k2 = n-1 = ijk; ij = k, ji = (n-1)k, jk = i, kj = (n-1)i,
    # ki = j, ik = (n-1)j -- each relation evaluated directly
    for n in (3, 4, 5):
        R = quaternion_ring(n)
        e = {"1": 1, "i": n, "j": n * n, "k": n**3}
        minus1 = n - 1  # scalar n-1 = code n-1
        assert R.mul(e["i"], e["i"]) == minus1
        assert R.mul(e["j"], e["j"]) == minus1
        assert R.mul(e["k"], e["k"]) == minus1
        assert R.mul(R.mul(e["i"], e["j"]), e["k"]) == minus1
        assert R.mul(e["i"], e["j"]) == e["k"]
        assert R.mul(e["j"], e["i"]) == R.mul(minus1, e["k"])
        assert R.mul(e["j"], e["k"]) == e["i"]
        assert R.mul(e["k"], e["j"]) == R.mul(minus1, e["i"])
        assert R.mul(e["k"], e["i"]) == e["j"]
        assert R.mul(e["i"], e["k"]) == R.mul(minus1, e["j"])


def test_quaternion_labels():
    R = quaternion_ring(3)
    # coefficients of 1, i, j, k are the little-endian base-3 digits; zero
    # coefficients are left out
    codes = (0, 1, 3, 2 * 9, 27, 1 + 2 * 3 + 27)
    assert [R.label(c) for c in codes] == ["0", "1", "1i", "2j", "1k", "1+2i+1k"]


def test_quaternion_identity_and_order():
    R = quaternion_ring(5)
    assert R.cardinality == 625
    rng = np.random.default_rng(1)
    for x in rng.integers(0, 625, size=20):
        assert R.mul(R.one, int(x)) == int(x) == R.mul(int(x), R.one)
    with pytest.raises(ValueError):
        quaternion_ring(1)


def test_quaternion_z3_has_zero_divisors():
    R = quaternion_ring(3)
    assert R.cardinality == 81
    hits = [(x, y) for x in range(1, 81) for y in range(1, 81) if R.mul(x, y) == 0]
    assert hits
    x, y = hits[0]
    assert R.mul(x, y) == 0  # witness re-verifies by direct multiplication


def test_hyperring_z4_tables():
    h = hyperring(4, 3, "additive")
    assert h.pairs == frozenset({(0, 3), (1, 0), (2, 1), (3, 2)})
    assert not h.is_subring
    h0 = hyperring(4, 0, "multiplicative")
    assert h0.pairs == frozenset({(0, 0), (1, 0), (2, 0), (3, 0)})
    assert h0.is_subring


def test_hyperring_diagonal_identity():
    # (Z_n, 1, .) = (Z_n, 0, +) as sets, both the diagonal
    for n in range(2, 13):
        assert hyperring(n, 1, "multiplicative").pairs == hyperring(n, 0, "additive").pairs


def test_hyperring_partitions():
    for n in range(2, 17):
        disjoint, covers = hyperring_family_partition(n, "additive")
        assert disjoint and covers
        disjoint, covers = hyperring_family_partition(n, "multiplicative")
        assert not (disjoint and covers)


def plain_hyperring(n, q, op_kind):
    """Pairs and closure by the definition: an n^2 loop, then every two pairs."""
    op = (lambda x, y: (x + y) % n) if op_kind == "additive" else (lambda x, y: x * y % n)
    pairs = {(op(x, y), op(op(x, y), q)) for x in range(n) for y in range(n)}
    closed = all(((a - c) % n, (b - d) % n) in pairs and (a * c % n, b * d % n) in pairs
                 for a, b in pairs for c, d in pairs)
    return frozenset(pairs), closed


def plain_partition(n, op_kind):
    seen = {}
    disjoint = True
    for q in range(n):
        for p in plain_hyperring(n, q, op_kind)[0]:
            disjoint &= seen.setdefault(p, q) == q
    return disjoint, len(seen) == n * n


@pytest.mark.parametrize("op_kind", ["additive", "multiplicative"])
def test_hyperrings_match_plain_loops(op_kind):
    for n in range(2, 13):
        for q in range(n):
            h = hyperring(n, q, op_kind)
            assert (h.pairs, h.is_subring) == plain_hyperring(n, q, op_kind)
        assert hyperring_family_partition(n, op_kind) == plain_partition(n, op_kind)


def test_quotient_z12():
    R = zn(12)
    Q = quotient_ring(R, mask_of([0, 6]))
    assert Q.cardinality == 6
    assert Q.cardinality * 2 == R.cardinality
    # not a field: the coset of 2 has no inverse
    assert any(all(Q.mul(a, b) != Q.one for b in range(6)) for a in range(1, 6))
    Q2 = quotient_ring(R, mask_of([0, 2, 4, 6, 8, 10]))
    assert Q2.cardinality == 2
    assert all(any(Q2.mul(a, b) == Q2.one for b in range(2)) for a in range(1, 2))


def test_quotient_by_whole_ring():
    R = zn(6)
    Q = quotient_ring(R, (1 << 6) - 1)
    assert Q.cardinality == 1


def test_quotient_rejects_non_ideal():
    with pytest.raises(ValueError):
        quotient_ring(zn(12), mask_of([0, 5]))


def test_quotient_size_invariant():
    R = zn(24)
    for members in ([0, 12], [0, 8, 16], [0, 6, 12, 18]):
        Q = quotient_ring(R, mask_of(members))
        assert Q.cardinality * len(members) == R.cardinality


def plain_is_two_sided_ideal(R, mask):
    members = elements_of(mask)
    add, mul = R.add_table.tolist(), R.mul_table.tolist()
    return (R.zero in members
            and all(add[a][b] in members for a in members for b in members)
            and all(R.neg(a) in members for a in members)
            and all(mul[r][a] in members and mul[a][r] in members for r in R.elements() for a in members))


def plain_quotient(R, mask):
    """(reps, add, mul, one) of R/I with the least element of each coset."""
    members = elements_of(mask)
    add, mul = R.add_table.tolist(), R.mul_table.tolist()
    rep = [min(add[x][i] for i in members) for x in R.elements()]
    reps = sorted(set(rep))
    pos = {r: i for i, r in enumerate(reps)}
    tables = [[[pos[rep[t[a][b]]] for b in reps] for a in reps] for t in (add, mul)]
    return reps, *tables, None if R.one is None else pos[rep[R.one]]


@pytest.mark.parametrize("spec, subring", [
    ("Z12", None), ("Z2 x Z4", None), ("M2(Z2)", None), ("GR(Z2, C2) x GR(Z2, C2)", None),
    ("Z8", [0, 2, 4, 6]),  # no 1
])
def test_ideals_and_quotients_match_plain_loops(spec, subring):
    R = ring_from_text(spec)
    if subring:
        R = subring_as_ring(R, mask_of(subring))
    rnd = random.Random(spec)
    masks = additive_subgroups(R) + [rnd.getrandbits(R.cardinality) | rnd.getrandbits(1) for _ in range(50)]
    for mask in masks:
        assert is_two_sided_ideal(R, mask) == plain_is_two_sided_ideal(R, mask), mask
    two_sided = [mask for mask in masks if plain_is_two_sided_ideal(R, mask)]
    assert set(two_sided) == set(ideals(R))
    for mask in two_sided:
        Q = quotient_ring(R, mask)
        reps, add, mul, one = plain_quotient(R, mask)
        assert (Q.meta["reps"], Q.add_table.tolist(), Q.mul_table.tolist(), Q.one) == (reps, add, mul, one)
    if spec == "M2(Z2)":  # the left ideals that are not two-sided are refused
        one_sided = set(ideals(R, "left")) - set(ideals(R))
        assert one_sided and not any(is_two_sided_ideal(R, mask) for mask in one_sided)


def test_axiom_audit_passes():
    assert ring_axiom_audit(zn(12)).passed
    rep = ring_axiom_audit(group_ring(zn(2), symmetric_group(3)))
    assert rep.passed and rep.method == "exhaustive"


def test_axiom_audit_presentation_above_cap():
    R = quaternion_ring(9)  # 6,561 elements, above the enumeration cap
    rep = ring_axiom_audit(R)
    assert rep.passed and rep.method == "presentation" and rep.triples_checked == 6561**3


def test_corrupted_table_reports_violation():
    base = zn(4)
    add = base.add_table.copy()
    mul = base.mul_table.copy()
    mul[2, 3] = 1  # break 2*3
    bad = table_ring(add, mul, name="corrupted", validate=False)
    rep = ring_axiom_audit(bad)
    assert not rep.passed
    axioms = {v.axiom for v in rep.violations}
    assert axioms & {"left-distributivity", "right-distributivity", "multiplicative-associativity"}
    with pytest.raises(ValidationError):
        table_ring(add, mul, name="corrupted")


def test_enumeration_cap_errors():
    R = semigroup_ring(zn(2), symmetric_semigroup(3), validate=False)
    assert R.cardinality == 2**27
    with pytest.raises(CapacityError):
        R.elements()
    with pytest.raises(CapacityError):
        _ = R.add_table
    # element arithmetic still works above the cap
    x = (1 << 0) | (1 << 5)
    assert R.add(x, x) == 0  # char 2
    assert R.mul(R.one, x) == x


def test_subring_as_ring():
    R = zn(12)
    A = subring_as_ring(R, mask_of([0, 4, 8]))
    assert A.cardinality == 3
    # {0,4,8} is a field with 4 acting as unit; induced ring is Z3-like
    assert ring_axiom_audit(A).passed


def test_mixed_radix_codec_is_little_endian():
    R = product_ring([zn(3), zn(12), zn(7)])
    # component 0 least significant: (a, b, c) -> a + 3b + 36c
    assert R.label(1 + 3 * 4 + 36 * 2) == "(1,4,2)"
    assert R.add(1, 2) == 0  # (1,0,0)+(2,0,0) = (0,0,0)


def test_presentation_audit_above_int64():
    # codes from 2^63 on are Python ints
    rep = ring_axiom_audit(zn(10**23))
    assert rep.passed and rep.method == "presentation"
    R = matrix_ring(zn(9), 9)
    assert R.cardinality == 9**81
    rep = ring_axiom_audit(R)
    assert rep.passed and rep.method == "presentation"
    x = R.cardinality - 1  # every entry 8
    assert R.mul(R.one, x) == x == R.mul(x, R.one)
    assert R.add(x, R.neg(x)) == 0
    # each entry of the all-8 matrix squared is 9 * 64 = 0 mod 9
    assert R.mul(x, x) == 0


def test_a_validated_component_is_not_audited_again(monkeypatch):
    audited = []
    real = srings.rings._audit_tables
    monkeypatch.setattr(srings.rings, "_audit_tables", lambda R: audited.append(R.name) or real(R))
    R = ring_from_text("M2(Z2) x Z5000")  # above the cap, so audited from its factors
    assert not R.enumerable and ring_axiom_audit(R).passed
    assert audited == ["Z2", "M2(Z2)"]


def _census(R):
    n = R.cardinality
    idempotents = np.count_nonzero(R.mul_table[np.arange(n), np.arange(n)] == np.arange(n))
    return (len(inverses(R)), int(idempotents), len(classify_nilpotents(R)[0]),
            len(classify_zero_divisors(R)[0]))


@pytest.mark.parametrize("spec, product, units, idempotents", [
    # M2(A x B) = M2(A) x M2(B); M2(Z2) has 6 units and 8 idempotents
    ("M2(Z2 x Z2)", "M2(Z2) x M2(Z2)", 36, 64),
    # (A x B)G = AG x BG; Z2C2 has units 1, g and idempotents 0, 1
    ("GR(Z2 x Z2, C2)", "GR(Z2, C2) x GR(Z2, C2)", 4, 4),
])
def test_rings_over_product_bases(spec, product, units, idempotents):
    R, P = ring_from_text(spec), ring_from_text(product)
    assert R.cardinality == P.cardinality
    rep = ring_axiom_audit(R)
    assert rep.passed and rep.method == "exhaustive"
    # units and idempotents multiply across the factors
    assert _census(R) == _census(P)
    assert _census(R)[:2] == (units, idempotents)


def test_matrix_ring_over_group_ring():
    R = ring_from_text("M2(GR(Z2, C2))")
    assert R.cardinality == 256
    rep = ring_axiom_audit(R)
    assert rep.passed and rep.method == "exhaustive"
    # GR(Z2, C2) is local with maximal ideal m = {0, 1+g} and residue field Z2,
    # so |GL2| = |GL2(Z2)| * |M2(m)| = 6 * 16
    assert len(inverses(R)) == 96
