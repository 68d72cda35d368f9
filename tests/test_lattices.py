"""Poset construction, lattice recognition, identity checks, forbidden
sublattices, chain statistics and DOT export."""

import itertools
import operator
import random
from functools import reduce

import pytest

from srings import lattices
from srings.bits import mask_of
from srings.config import DEFAULT_LIMITS
from srings.errors import CapacityError, NotALatticeError
from srings.lattices import (
    IDENTITIES,
    chain_stats,
    check_identity,
    covering_relation,
    export_hasse,
    forbidden_sublattices,
    lattice_from_poset,
    poset_from_family,
)
from srings.rings import product_ring, zn
from srings.specparse import ring_from_text
from srings.substructures import FAMILIES, ideals, s_ideals


def n5_family():
    # bottom {} , chain {0} < {0,1}, side {2}, top {0,1,2}
    return [mask_of([]), mask_of([0]), mask_of([0, 1]), mask_of([2]), mask_of([0, 1, 2])]


def m3_family():
    return [mask_of([]), mask_of([0]), mask_of([1]), mask_of([2]), mask_of([0, 1, 2])]


def m4_family():
    # the diamond with four atoms: modular, not distributive
    return [mask_of([]), mask_of([0]), mask_of([1]), mask_of([2]), mask_of([3]), mask_of([0, 1, 2, 3])]


def eight_node_family():
    # the smallest lattice on at most 4 points that is not quasi-distributive
    return [
        mask_of(s)
        for s in ([], [0], [0, 1], [2], [0, 1, 2], [3], [0, 1, 3], [0, 1, 2, 3])
    ]


def dual_breaker_family():
    # 9 nodes: the quasi-distributive identity holds, its order dual fails
    return [
        mask_of(s)
        for s in ([], [0], [1], [0, 1], [2], [0, 2], [1, 2], [0, 1, 3], [0, 1, 2, 3])
    ]


def chain_family(k):
    return [mask_of(range(i)) for i in range(k)]


def test_poset_bottom_top():
    p = poset_from_family(n5_family())
    assert p.nodes[p.bottom] == 0
    assert p.nodes[p.top] == mask_of([0, 1, 2])


def test_poset_requires_unique_bounds():
    # the poset builds; a lattice needs the unique bottom and top it lacks
    p = poset_from_family([mask_of([0]), mask_of([1])])
    assert p.bottom is None and p.top is None
    with pytest.raises(NotALatticeError) as e:
        lattice_from_poset(p)
    assert e.value.pair == (0, 1) and e.value.kind == "meet"
    empty = poset_from_family([])
    with pytest.raises(NotALatticeError, match="family is empty"):
        lattice_from_poset(empty)
    assert chain_stats(empty) == (0, True)


def test_singleton_family():
    p = poset_from_family([mask_of([0])])
    assert len(p.nodes) == 1 and p.bottom == p.top == 0


def bowtie_family():
    # {0} and {1} have two minimal common upper bounds, {0,1,2} and {0,1,3}
    return [mask_of(s) for s in ([], [0], [1], [0, 1, 2], [0, 1, 3], [0, 1, 2, 3])]


def test_not_a_lattice_witness():
    p = poset_from_family(bowtie_family())
    with pytest.raises(NotALatticeError) as err:
        lattice_from_poset(p)
    # the join of nodes 1 and 2 fails before the meet of nodes 3 and 4
    assert (err.value.pair, err.value.kind) == ((1, 2), "join")
    assert str(err.value) == "nodes 1 and 2 have 2 minimal common upper bounds"


def test_pentagon_fixture():
    L = lattice_from_poset(poset_from_family(n5_family()))
    assert not check_identity(L, "modular").holds
    assert check_identity(L, "modular").counterexample is not None
    assert forbidden_sublattices(L, "pentagon") == [(0, 1, 2, 3, 4)]
    assert forbidden_sublattices(L, "diamond") == []


def test_diamond_fixture():
    L = lattice_from_poset(poset_from_family(m3_family()))
    assert check_identity(L, "modular").holds
    assert not check_identity(L, "distributive").holds
    assert forbidden_sublattices(L, "diamond") == [(0, 1, 2, 3, 4)]
    assert forbidden_sublattices(L, "pentagon") == []


def test_chains_are_distributive_and_n5_free():
    for k in (2, 4, 7):
        L = lattice_from_poset(poset_from_family(chain_family(k)))
        assert check_identity(L, "distributive").holds
        assert check_identity(L, "modular").holds
        assert forbidden_sublattices(L, "pentagon") == []
        assert forbidden_sublattices(L, "diamond") == []


def test_meet_join_absorption_idempotency():
    for fam in (n5_family(), m3_family(), chain_family(5)):
        L = lattice_from_poset(poset_from_family(fam))
        k = len(L.poset.nodes)
        for x in range(k):
            assert L.meet[x, x] == x and L.join[x, x] == x
            for y in range(k):
                assert L.meet[x, L.join[x, y]] == x
                assert L.join[x, L.meet[x, y]] == x
                assert L.meet[x, y] == L.meet[y, x]
                assert L.join[x, y] == L.join[y, x]


def lattice_zoo():
    """Assorted lattices: fixtures, divisor lattices, S-ideal lattices."""
    fams = [n5_family(), m3_family(), chain_family(4)]
    for n in (12, 16, 24, 30, 36, 60):
        fams.append(ideals(zn(n, validate=False)))
    fams.append([v.mask for v in s_ideals(product_ring([zn(7), zn(9)]), "I", "lax")])
    fams.append([v.mask for v in s_ideals(product_ring([zn(3), zn(12), zn(7)]), "I", "strict")])
    return fams


def test_distributive_implies_modular_and_n5_agreement():
    for fam in lattice_zoo():
        L = lattice_from_poset(poset_from_family(fam))
        modular = check_identity(L, "modular").holds
        if check_identity(L, "distributive").holds:
            assert modular
            assert forbidden_sublattices(L, "diamond") == []
        # no-N5 <=> modular, asserted pairwise on every analyzed lattice
        assert (forbidden_sublattices(L, "pentagon") == []) == modular


def test_full_ideal_lattices_are_modular():
    for n in (8, 12, 16, 24, 30, 36, 48, 60):
        L = lattice_from_poset(poset_from_family(ideals(zn(n, validate=False))))
        assert check_identity(L, "modular").holds
        assert check_identity(L, "distributive").holds  # Z_n: divisor lattice


def test_cover_lattice_pentagon():
    R = product_ring([zn(3), zn(12), zn(7)])
    fam = [v.mask for v in s_ideals(R, "I", "strict")]
    p = poset_from_family(fam)
    L = lattice_from_poset(p)
    assert len(p.nodes) == 19
    assert not check_identity(L, "modular").holds
    pents = forbidden_sublattices(L, "pentagon")
    assert pents
    # the stated witness {0, A3, A7, A15, A10} is among the pentagons found
    def pmask(s3, s12, s7):
        return mask_of(a + 3 * b + 36 * c for a in s3 for b in s12 for c in s7)

    book = frozenset(
        {
            1 << 0,
            pmask(range(3), [0, 6], [0]),
            pmask(range(3), [0, 6], range(7)),
            pmask([0], [0, 4, 8], range(7)),
            pmask(range(3), [0, 2, 4, 6, 8, 10], range(7)),
        }
    )
    assert book in {frozenset(p.nodes[i] for i in t) for t in pents}


def test_supermodular_and_quasi_distributive_on_chains():
    L = lattice_from_poset(poset_from_family(chain_family(4)))
    assert check_identity(L, "quasi_distributive").holds
    assert check_identity(L, "supermodular").holds
    # one node above the cap is refused before any tuple is scanned
    cap = DEFAULT_LIMITS.identity4_cap
    L = lattice_from_poset(poset_from_family(chain_family(cap + 1)))
    for identity in ("quasi_distributive", "supermodular"):
        with pytest.raises(CapacityError, match=f"{cap + 1} nodes above 4-variable identity cap {cap}"):
            check_identity(L, identity)


def test_supermodular_fails_on_diamond():
    # Supermodularity is strictly stronger than modularity, so it fails on a
    # modular, non-distributive diamond -- but not on M3.  In the coded
    # identity (a+b)(a+c)(a+d) = a + bc(a+d) + bd(a+c) + dc(a+b): if a is the
    # bottom both sides are bcd, if a is the top both sides are the top, and
    # if a is an atom a break needs b, c, d to be three further atoms,
    # distinct from a and from each other.  M3 has only two atoms besides a;
    # the four-atom diamond M4 has three, and there the left side is the top
    # while the right side is a.
    M4 = lattice_from_poset(poset_from_family(m4_family()))
    assert check_identity(M4, "modular").holds
    verdict = check_identity(M4, "supermodular")
    assert not verdict.holds
    assert verdict.counterexample == (1, 2, 3, 4)
    M3 = lattice_from_poset(poset_from_family(m3_family()))
    assert check_identity(M3, "supermodular").holds


def test_quasi_distributive_fails_on_eight_node_lattice():
    for fam in (n5_family(), m3_family()):
        L = lattice_from_poset(poset_from_family(fam))
        assert check_identity(L, "quasi_distributive").holds
    L = lattice_from_poset(poset_from_family(eight_node_family()))
    verdict = check_identity(L, "quasi_distributive")
    assert not verdict.holds
    assert verdict.counterexample == (1, 3, 1, 5)
    # x={0}, y={2}, z={0}, u={3}: (x+y)(z+u) = {0,1}, but the right side is {0}
    nodes = L.poset.nodes
    assert [nodes[i] for i in verdict.counterexample] == [mask_of(s) for s in ([0], [2], [0], [3])]
    assert nodes[L.meet[L.join[1, 3], L.join[1, 5]]] == mask_of([0, 1])
    # only the order dual fails here: x={0,2}, y=u={0,1,3}, z={1,2} gives
    # xy+zu = {0,1}, but (x+zu)(y+zu)(z+xy)(u+xy) = {0,1,3}
    L = lattice_from_poset(poset_from_family(dual_breaker_family()))
    assert check_identity(L, "quasi_distributive").counterexample == (5, 7, 6, 7)


# Brute-force oracle: lattice terms evaluated straight on an
# intersection-closed family, with meet as intersection and join as the
# intersection of all members containing the union.


def _oracle_ops(fam):
    def meet(*xs):
        return reduce(operator.and_, xs)

    def join(*xs):
        union = reduce(operator.or_, xs)
        return meet(*(m for m in fam if union & ~m == 0))

    return meet, join


def _oracle_law(identity, meet, join):
    """(arity, law) with law(*masks) -> bool, written from the formulas."""
    if identity == "modular":
        return 3, lambda x, y, z: x & ~z != 0 or join(x, meet(y, z)) == meet(join(x, y), z)
    if identity == "distributive":
        return 3, lambda x, y, z: join(x, meet(y, z)) == meet(join(x, y), join(x, z))
    if identity == "supermodular":
        return 4, lambda a, b, c, d: meet(join(a, b), join(a, c), join(a, d)) == join(
            a, meet(b, c, join(a, d)), meet(b, d, join(a, c)), meet(d, c, join(a, b))
        )

    def qd(x, y, z, u):  # the identity and its order dual
        xy, zu = join(x, y), join(z, u)
        ok = meet(xy, zu) == join(meet(x, zu), meet(y, zu), meet(z, xy), meet(u, xy))
        xy, zu = meet(x, y), meet(z, u)
        return ok and join(xy, zu) == meet(join(x, zu), join(y, zu), join(z, xy), join(u, xy))

    return 4, qd


def intersection_closed_families(n):
    """Every family of subsets of n points that holds the full set and is
    closed under intersection; each is a lattice under inclusion."""
    full = (1 << n) - 1
    for picks in range(1 << full):
        fam = {full} | {m for m in range(full) if picks >> m & 1}
        if all(a & b in fam for a in fam for b in fam):
            yield sorted(fam)


def test_identity_checks_match_brute_force_oracle():
    on_three_points = list(intersection_closed_families(3))
    assert len(on_three_points) == 61
    fams = [n5_family(), m3_family(), m4_family(), eight_node_family(), dual_breaker_family()]
    fams += [chain_family(k) for k in range(1, 6)] + on_three_points
    for fam in fams:
        L = lattice_from_poset(poset_from_family(fam))
        nodes = L.poset.nodes
        meet, join = _oracle_ops(nodes)
        for identity in ("modular", "distributive", "supermodular", "quasi_distributive"):
            arity, law = _oracle_law(identity, meet, join)
            fails = [
                t
                for t in itertools.product(range(len(nodes)), repeat=arity)
                if not law(*(nodes[i] for i in t))
            ]
            verdict = check_identity(L, identity)
            assert verdict.holds == (not fails), (fam, identity)
            if fails:
                assert verdict.counterexample in fails, (fam, identity)
            if fails and identity != "modular":  # modular scans (x, z, y)
                assert verdict.counterexample == fails[0], (fam, identity)


def test_chain_stats():
    p16 = poset_from_family(ideals(zn(16)))
    assert chain_stats(p16) == (5, True)
    lax = [v.mask for v in s_ideals(product_ring([zn(7), zn(9)]), "I", "lax")]
    assert chain_stats(poset_from_family(lax)) == (4, True)
    strict = [v.mask for v in s_ideals(product_ring([zn(7), zn(9)]), "I", "strict")]
    assert chain_stats(poset_from_family(strict)) == (3, True)
    # antichain of 3 incomparable nodes plus bounds
    fam = [mask_of([]), mask_of([0]), mask_of([1]), mask_of([2]), mask_of([0, 1, 2])]
    assert chain_stats(poset_from_family(fam)) == (3, False)


def test_s_ideal_chain_z12():
    fam = [v.mask for v in s_ideals(zn(12), "I", "strict")]
    p = poset_from_family(fam)
    assert chain_stats(p) == (3, True)  # (0) in I1 in Z12


def test_export_hasse():
    p = poset_from_family(chain_family(4))
    dot = export_hasse(p)
    assert dot.count("->") == 3 and dot.count("label=") == 4
    pn5 = poset_from_family(n5_family())
    dot5 = export_hasse(pn5)
    assert dot5.count("->") == 5 and dot5.count("label=") == 5
    # deterministic output
    assert dot5 == export_hasse(pn5)


def test_export_hasse_cover_edges_match_covering_relation():
    R = product_ring([zn(3), zn(12), zn(7)])
    fam = [v.mask for v in s_ideals(R, "I", "strict")]
    p = poset_from_family(fam)
    dot = export_hasse(p, R)
    assert dot.count("->") == len(covering_relation(p))
    assert dot.count("label=") == 19


# Plain-Python oracles over the masks themselves, each written from the
# definition, run on every family of subsets of 3 points, on N5, M3, M4 and
# on the bow-tie, the one family here whose first failing pair has two
# minimal bounds.


def every_family(n):
    for picks in range(1 << (1 << n)):
        yield [m for m in range(1 << n) if picks >> m & 1]


def oracle_families():
    return [*every_family(3), n5_family(), m3_family(), m4_family(), bowtie_family()]


def _oracle_order(fam):
    nodes = sorted(set(fam))
    return nodes, [[a & ~b == 0 for b in nodes] for a in nodes]


def _oracle_lattice(leq):
    """Per-pair meet and join tables, or the first pair (row-major, meet
    before join) without a unique maximal lower or minimal upper bound."""
    k = len(leq)
    meet = [[0] * k for _ in range(k)]
    join = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            lower = [x for x in range(k) if leq[x][i] and leq[x][j]]
            maximal = [x for x in lower if not any(y != x and leq[x][y] for y in lower)]
            if len(maximal) != 1:
                return None, ((i, j), "meet", f"{len(maximal)} maximal common lower")
            upper = [x for x in range(k) if leq[i][x] and leq[j][x]]
            minimal = [x for x in upper if not any(y != x and leq[y][x] for y in upper)]
            if len(minimal) != 1:
                return None, ((i, j), "join", f"{len(minimal)} minimal common upper")
            meet[i][j], join[i][j] = maximal[0], minimal[0]
    return (meet, join), None


def test_lattice_from_poset_matches_per_pair_definition():
    lattices = 0
    for fam in oracle_families():
        if not fam:
            continue
        nodes, leq = _oracle_order(fam)
        p = poset_from_family(fam)
        assert p.nodes == tuple(nodes) and p.leq.tolist() == leq
        tables, failure = _oracle_lattice(leq)
        if failure is None:
            L = lattice_from_poset(p)
            assert (L.meet.tolist(), L.join.tolist()) == tables, fam
            lattices += 1
            continue
        (i, j), kind, bounds = failure
        with pytest.raises(NotALatticeError) as e:
            lattice_from_poset(p)
        assert (e.value.pair, e.value.kind) == ((i, j), kind), fam
        assert str(e.value) == f"nodes {i} and {j} have {bounds} bounds", fam
    assert lattices == 3 + 108  # N5, M3, M4 and the lattices on 3 points


def _oracle_sublattices(meet, join, leq, shape):
    k = len(leq)
    found = set()
    for x, y, z in itertools.product(range(k), repeat=3):
        if shape == "pentagon":
            # chain x < z, side y incomparable to both, shared meet and join
            ok = x != z and leq[x][z] and not (leq[y][x] or leq[x][y] or leq[y][z] or leq[z][y])
            ok = ok and meet[x][y] == meet[z][y] and join[x][y] == join[z][y]
            o, i = meet[x][y], join[x][y]
        else:
            # pairwise incomparable atoms x < y < z, shared meet and join
            ok = x < y < z and not any(leq[a][b] for a, b in itertools.permutations((x, y, z), 2))
            ok = ok and meet[x][y] == meet[x][z] == meet[y][z] and join[x][y] == join[x][z] == join[y][z]
            o, i = meet[x][y], join[x][y]
        if ok and len({o, x, y, z, i}) == 5:
            found.add(tuple(sorted((o, x, y, z, i))))
    return sorted(found)


def test_forbidden_sublattices_match_triple_loop():
    seen = {"pentagon": 0, "diamond": 0}
    for fam in oracle_families():
        _, leq = _oracle_order(fam)
        tables, failure = _oracle_lattice(leq)
        if not fam or failure is not None:
            continue
        L = lattice_from_poset(poset_from_family(fam))
        for shape in seen:
            want = _oracle_sublattices(*tables, leq, shape)
            assert forbidden_sublattices(L, shape) == want, (fam, shape)
            seen[shape] += bool(want)
    assert seen["pentagon"] and seen["diamond"]


def test_chain_stats_match_brute_force():
    for fam in oracle_families():
        nodes, leq = _oracle_order(fam)
        k = len(nodes)
        longest = max(
            (
                len(c)
                for r in range(k + 1)
                for c in itertools.combinations(range(k), r)
                if all(leq[a][b] or leq[b][a] for a, b in itertools.combinations(c, 2))
            ),
            default=0,
        )
        total = all(leq[a][b] or leq[b][a] for a in range(k) for b in range(k))
        assert chain_stats(poset_from_family(fam)) == (longest, total), fam


def test_covering_relation_matches_definition():
    for fam in oracle_families():
        _, leq = _oracle_order(fam)
        k = len(leq)
        covers = [
            (i, j)
            for i in range(k)
            for j in range(k)
            if i != j and leq[i][j] and not any(x not in (i, j) and leq[i][x] and leq[x][j] for x in range(k))
        ]
        assert covering_relation(poset_from_family(fam)) == covers, fam


# The valuation test against the block scan it stands in front of: the
# scan, forced by a valuation test that proves nothing, is the oracle.


def random_moore_families(count, seed):
    """Distinct seeded random lattices: up to 8 random subsets of at most 6
    points, of a random density, closed under intersection, with the full set."""
    rng = random.Random(seed)
    fams = set()
    while len(fams) < count:
        points, density = rng.randint(1, 6), rng.random()
        fam = {(1 << points) - 1}
        for _ in range(rng.randint(1, 8)):
            m = mask_of(i for i in range(points) if rng.random() < density)
            fam |= {m} | {m & x for x in fam}
        fams.add(tuple(sorted(fam)))
    return sorted(fams)


def _answers(L, identities):
    return [check_identity(L, i) for i in identities], [
        forbidden_sublattices(L, s) for s in ("pentagon", "diamond")
    ]


def test_valuation_test_matches_the_scan(monkeypatch):
    fams = [n5_family(), m3_family(), m4_family(), eight_node_family(), dual_breaker_family()]
    fams += lattice_zoo() + random_moore_families(600, seed=11)
    seen = {"modular": 0, "distributive": 0, "neither": 0, "4-variable scanned": 0}
    for fam in fams:
        L = lattice_from_poset(poset_from_family(fam))
        identities = list(IDENTITIES) if len(L.poset.nodes) <= 18 else ["modular", "distributive"]
        with monkeypatch.context() as m:
            m.setattr(lattices, "_proved", lambda *args: False)
            scanned = _answers(L, identities)
        assert _answers(L, identities) == scanned, fam
        # both 2-variable tests are exact: they fail just where the scan fails
        modular, distributive = (v.holds for v in scanned[0][:2])
        assert lattices._proved(L, "modular") == modular, fam
        assert lattices._proved(L, "distributive") == distributive, fam
        seen["distributive" if distributive else "modular" if modular else "neither"] += 1
        seen["4-variable scanned"] += len(identities) == 4 and not distributive
    assert min(seen.values()) >= 10, seen


def test_no_tuple_is_scanned_where_the_law_holds(monkeypatch):
    def lattice_of(spec, family):
        return lattice_from_poset(poset_from_family(FAMILIES[family](ring_from_text(spec), "I", "strict", True)))

    subgroups = lattice_of("M2(Z3)", "additive_subgroups")
    ideal_lattice = lattice_of("Z3 x Z12 x Z7", "ideals")
    subring_lattice = lattice_of("GR(Z2, S3)", "subrings")
    assert (len(subgroups.poset.nodes), len(ideal_lattice.poset.nodes), len(subring_lattice.poset.nodes)) == (212, 24, 174)

    def refuse(k, arity):
        raise AssertionError(f"scanned {k}^{arity} node tuples")

    with monkeypatch.context() as m:
        m.setattr(lattices, "_tuples", refuse)
        assert check_identity(subgroups, "modular").holds
        assert all(check_identity(ideal_lattice, i).holds for i in IDENTITIES)
        assert _answers(ideal_lattice, [])[1] == [[], []]
    # where the law fails, the scan still names the least counterexample
    assert check_identity(subring_lattice, "modular").counterexample == (2, 23, 3)
    assert check_identity(subring_lattice, "distributive").counterexample == (1, 6, 7)
