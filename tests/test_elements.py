"""Element censuses and elementwise laws against plain-Python scans.

Each oracle below is a direct loop over the definition, on the ring's op
tables read as nested lists, scanning element codes in ascending order in
the nesting the definition names; so it also pins the least witness and
its clause.  Where perfbench/oracle.py can rebuild a ring from its spec,
its independent census is compared too.
"""

import math
import random

import pytest

from perfbench import oracle
from srings.bits import elements_of, mask_of
from srings.elements import (
    CENSUSES,
    WitnessRecord,
    classify_nilpotents,
    classify_zero_divisors,
    power_sequences,
    semiunits,
)
from srings.predicates import law_holds_on
from srings.rings import subring_as_ring, table_ring
from srings.specparse import ring_from_text
from srings.substructures import field_subsets, subrings

# every ring spec the tests build with at most 64 elements, and Z1
SPECS = [
    "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10", "Z12", "Z14", "Z15", "Z16",
    "Z22", "Z24", "Z25", "Z30", "Z2 x Z4", "Z2 x Z2 x Z2", "M2(Z2)", "GR(Z2, C2)",
    "GR(Z2 x Z2, C2)", "GR(Z2, C2) x GR(Z2, C2)", "GR(Z2, S3)",
]
# subrings without a 1: 2Z8, 4Z16, 2Z12 and the matrices of M2(Z2) with a
# zero second row (left identities only)
SUBRINGS = [("Z8", [0, 2, 4, 6]), ("Z16", [0, 4, 8, 12]), ("Z12", [0, 2, 4, 6, 8, 10]),
            ("M2(Z2)", [0, 1, 2, 3])]


def _rings():
    for spec in SPECS:
        yield spec, ring_from_text(spec)
    for spec, members in SUBRINGS:
        yield f"{spec}|{members}", subring_as_ring(ring_from_text(spec), mask_of(members))
    yield "Z5 x Z7", ring_from_text("Z5 x Z7")


RINGS = dict(_rings())


class Plain:
    """Census definitions as plain loops over the op tables."""

    def __init__(self, R):
        self.R = R
        self.n, self.one = R.cardinality, R.one
        self.add, self.mul = R.add_table.tolist(), R.mul_table.tolist()
        self.els = range(self.n)
        self.neg = [next(y for y in self.els if self.add[x][y] == 0) for x in self.els]

    def inverse(self, x):
        return next((y for y in self.els if self.mul[x][y] == self.one == self.mul[y][x]), None)

    def units(self):
        return [x for x in self.els if self.one is not None and self.inverse(x) is not None]

    def s_unit_witnesses(self):
        mul, one, out = self.mul, self.one, {}
        for x in self.units():
            y = self.inverse(x)
            if x == one or y == x:
                continue
            for a in self.units():
                b = self.inverse(a)
                if {a, b} & {x, y, one}:
                    continue
                clauses = [("xa=y", mul[x][a] == y), ("ax=y", mul[a][x] == y),
                           ("yb=x", mul[y][b] == x), ("by=x", mul[b][y] == x)]
                clause = next((c for c, ok in clauses if ok), None)
                if clause:
                    out[x] = WitnessRecord("s_unit", (x,), {"y": y, "a": a, "b": b}, clause)
                    break
        return out

    def zero_divisors(self):
        mul = self.mul
        return [x for x in self.els if x and any(y and (mul[x][y] == 0 or mul[y][x] == 0) for y in self.els)]

    def s_zero_divisor_pairs(self):
        mul = self.mul

        def ann(v):
            return [u for u in self.els if mul[v][u] == 0 or mul[u][v] == 0]

        out = {}
        for x in self.zero_divisors():
            for y in self.els:
                if y == 0 or mul[x][y] != 0:
                    continue
                found = next(
                    ((a, b) for a in ann(x) if a not in (0, x, y) for b in ann(y)
                     if b not in (0, x, y) and (mul[a][b] != 0 or mul[b][a] != 0)),
                    None,
                )
                if found:
                    out[(x, y)] = WitnessRecord("s_zero_divisor", (x, y), dict(zip("ab", found)), "ab!=0")
        return out

    def idempotents(self):
        return [x for x in self.els if x not in (0, self.one) and self.mul[x][x] == x]

    def s_idempotent_witnesses(self):
        mul, out = self.mul, {}
        for x in self.idempotents():
            for a in self.els:
                if a in (x, 0, self.one) or mul[a][a] != x:
                    continue
                clauses = [("xa=a", mul[x][a] == a), ("ax=a", mul[a][x] == a),
                           ("ax=x", mul[a][x] == x), ("xa=x", mul[x][a] == x)]
                clause = next((c for c, ok in clauses if ok), None)
                if clause:
                    out[x] = WitnessRecord("s_idempotent", (x,), {"a": a}, clause)
                    break
        return out

    def co_idempotents(self):
        mul, out = self.mul, {}
        for x in self.idempotents():
            cos = [y for y in self.els if y not in (0, self.one, x) and mul[y][y] == x
                   and (mul[y][x] == x or mul[x][y] == y)]
            if cos:
                out[x] = cos
        return out

    def powers(self, x):
        seen, cur = [], x
        while cur != 0 and cur not in seen:
            seen.append(cur)
            cur = self.mul[cur][x]
        return seen, cur == 0

    def nilpotents(self):
        return [x for x in self.els if x and self.powers(x)[1]]

    def s_nilpotent_witnesses(self):
        mul, nil, out = self.mul, self.nilpotents(), {}
        for x in nil:
            for y in self.els:
                if y in (0, x) or y in nil:
                    continue
                for r, p in enumerate(self.powers(x)[0], start=1):
                    if mul[p][y] == 0:
                        out[x] = WitnessRecord("s_nilpotent", (x,), {"y": y, "r": r}, "x^r.y=0")
                    elif mul[y][p] == 0:
                        out[x] = WitnessRecord("s_nilpotent", (x,), {"y": y, "s": r}, "y.x^s=0")
                    if x in out:
                        break
                if x in out:
                    break
        return out

    def defect(self, x):
        return self.add[self.mul[x][x]][self.neg[x]]

    def ideal(self, g):
        """Least two-sided ideal holding g: absorb and add to a fixpoint."""
        members = {0, g}
        while True:
            grown = members | {self.add[a][b] for a in members for b in members}
            grown |= {self.mul[r][a] for r in self.els for a in members}
            grown |= {self.mul[a][r] for r in self.els for a in members}
            if grown == members:
                return mask_of(members)
            members = grown

    def semi_idempotents(self, level):
        full = (1 << self.n) - 1
        certs = [f.mask for f in field_subsets(self.R)]
        out = [0] if level == "plain" else []
        for x in self.els:
            if x == 0:
                continue
            ideal = self.ideal(self.defect(x))
            if not (ideal >> x & 1) or ideal == full:
                if level == "plain" or any(m & ~ideal == 0 and m not in (ideal, full) for m in certs):
                    out.append(x)
        return out

    def super_idempotents(self):
        return [x for x in self.els if x and self.mul[self.defect(x)][self.defect(x)] == self.defect(x)]

    def ss_elements(self):
        two = self.add[self.one][self.one] if self.one is not None else None
        return [a for a in self.els if a not in (0, two) and self.mul[a][a] == self.add[a][a]]

    def sss_pairs(self):
        return [(x, y) for x in self.els for y in self.els if y != x and self.mul[x][y] == self.add[x][y]]

    def semiunits(self, level):
        if self.one is None:
            return {}
        s_units = set(self.s_unit_witnesses())
        out = {}
        for x in self.els:
            for y in self.els:
                xp, yp = self.add[x][self.one], self.add[y][self.one]
                if y == 0 or self.mul[xp][yp] != self.one:
                    continue
                if level == "smarandache" and not (xp in s_units and yp in s_units):
                    continue
                out[x] = WitnessRecord("semiunit", (x,), {"y": y}, "(x+1)(y+1)=1")
                break
        return out

    def clean_elements(self):
        idems = [e for e in self.els if e not in (0, self.one) and self.mul[e][e] == e]
        return sorted({self.add[e][u] for e in idems for u in self.units()})

    def regular_elements(self):
        mul = self.mul
        return [s for s in self.els if all(mul[s][r] != 0 and mul[r][s] != 0 for r in self.els if r)]

    def lookups(self) -> dict:
        """The censuses that need no ring axiom, only lookups in the tables."""
        s_units, s_idem = self.s_unit_witnesses(), self.s_idempotent_witnesses()
        return {
            "units": self.units(),
            "s_units": list(s_units),
            "s_unit_witnesses": s_units,
            "zero_divisors": self.zero_divisors(),
            "s_zero_divisor_pairs": list(self.s_zero_divisor_pairs()),
            "idempotents": self.idempotents(),
            "s_idempotents": list(s_idem),
            "s_idempotent_witnesses": s_idem,
            "co_idempotents": self.co_idempotents(),
            "ss_elements": self.ss_elements(),
            "sss_pairs": self.sss_pairs(),
            "semiunits": list(self.semiunits("plain")),
            "s_semiunits": list(self.semiunits("smarandache")),
            "clean_elements": self.clean_elements(),
            "regular_elements": self.regular_elements(),
        }

    def census(self) -> dict:
        supers, s_idem = self.super_idempotents(), self.s_idempotent_witnesses()
        return {
            **self.lookups(),
            "nilpotents": self.nilpotents(),
            "s_nilpotents": list(self.s_nilpotent_witnesses()),
            "semi_idempotents": self.semi_idempotents("plain"),
            "s_semi_idempotents_1": self.semi_idempotents("s_level_1"),
            "super_idempotents": supers,
            "nontrivial_super_idempotents": [x for x in supers if self.defect(x)],
            "s_super_idempotents": [x for x in supers if self.defect(x) in s_idem],
        }


@pytest.mark.parametrize("name", list(RINGS))
def test_every_census_matches_its_definition(name):
    R = RINGS[name]
    expected = Plain(R).census()
    assert expected.keys() == CENSUSES.keys()
    for cid, census in CENSUSES.items():
        # repr: the same Python ints, in the same order, as the report prints them
        assert repr(census(R)) == repr(expected[cid]), cid


@pytest.mark.parametrize("name", [s for s in SPECS if s != "GR(Z2, S3)"])
def test_censuses_match_the_benchmark_oracle(name):
    R = RINGS[name]
    for key, values in oracle.census(oracle.ring(name)).items():
        assert CENSUSES[key](R) == values, key


@pytest.mark.parametrize("name", list(RINGS))
def test_witnesses_outside_the_census_keys(name):
    # S-zero-divisor pairs, S-nilpotents and semiunits keep their witness
    # records out of the classify report
    R, plain = RINGS[name], Plain(RINGS[name])
    assert classify_zero_divisors(R)[2] == plain.s_zero_divisor_pairs()
    assert classify_nilpotents(R)[2] == plain.s_nilpotent_witnesses()
    assert semiunits(R)[1] == plain.semiunits("plain")
    assert semiunits(R, "smarandache")[1] == plain.semiunits("smarandache")


@pytest.mark.parametrize("seed", range(40))
def test_lookup_censuses_match_their_definitions_on_random_tables(seed):
    # Z_n addition and a random product with 0 absorbing: far more witness
    # configurations than the rings above (such as the S-zero-divisor pair
    # whose only b would be y itself, with y^2 = 0).  Odd seeds keep most of
    # Z_n's products and 1 as identity, so that units and S-units occur.
    rnd = random.Random(seed)
    n = rnd.randint(2, 12)
    mul = [[0 if 0 in (a, b) else a * b % n if seed % 2 and rnd.random() < 0.7
            else rnd.randrange(n) if rnd.random() < 0.5 else 0 for b in range(n)] for a in range(n)]
    for a in range(n if seed % 2 else 0):
        mul[1][a], mul[a][1] = a, a
    R = table_ring([[(a + b) % n for b in range(n)] for a in range(n)], mul, validate=False)
    plain = Plain(R)
    for cid, expected in plain.lookups().items():
        assert CENSUSES[cid](R) == expected, cid
    assert classify_zero_divisors(R)[2] == plain.s_zero_divisor_pairs()
    assert semiunits(R)[1] == plain.semiunits("plain")


@pytest.mark.parametrize("name", list(RINGS))
def test_power_sequences_match_a_walk(name):
    R = RINGS[name]
    seq = power_sequences(R)
    mul = R.mul_table.tolist()
    for x in range(R.cardinality):
        seen, cur, i = {}, x, 1
        while cur not in seen:
            seen[cur] = i
            cur, i = mul[cur][x], i + 1
        assert (seq.preperiod[x], seq.period[x]) == (seen[cur] - 1, i - seen[cur]), x
        e = [y for y, k in seen.items() if k >= seen[cur] and mul[y][y] == y]
        assert [seq.idempotent[x]] == e
    for k in (1, 2, 3, 7, 64):
        want = []
        for x in range(R.cardinality):
            acc = x
            for _ in range(k - 1):
                acc = mul[acc][x]
            want.append(acc)
        assert seq.power(k).tolist() == want


# -- elementwise laws ---------------------------------------------------------------


def plain_law(R, members, law, p=None):
    """The five laws as direct loops over the op tables."""
    mul, add = R.mul_table.tolist(), R.add_table.tolist()

    def power(x, k):
        acc = x
        for _ in range(k - 1):
            acc = mul[acc][x]
        return acc

    def times(k, x):
        acc = 0
        for _ in range(k):
            acc = add[acc][x]
        return acc

    def pre_period(x):
        seen, cur, i = {}, x, 1
        while cur not in seen:
            seen[cur] = i
            cur, i = mul[cur][x], i + 1
        return seen[cur] - 1, i - seen[cur]

    nonzero = [x for x in members if x]
    if law == "zero_square":
        bad = next((x for x in members if mul[x][x] != 0), None)
        return bad is None, bad
    if law == "p_ring":
        if p is None:
            orders = [next(k for k in range(1, R.cardinality + 1) if times(k, x) == 0) for x in members]
            p = math.lcm(*orders)
            if p < 2 or any(p % q == 0 for q in range(2, p)):
                return False, None
        bad = next((x for x in members if power(x, p) != x or times(p, x) != 0), None)
        return (True, p) if bad is None else (False, bad)
    if law == "e_ring":
        bad = next((x for x in members if times(2, x) != 0), None)
        if bad is not None:
            return False, bad
        k = next((k for k in range(1, 13) if all(power(x, 2**k) == x for x in nonzero)), None)
        return (True, k) if k else (False, None)
    if law in ("j_ring", "weakly_boolean"):
        bad = next((x for x in nonzero if pre_period(x)[0] != 0), None)
        if bad is not None:
            return False, bad
        periods = [pre_period(x)[1] for x in nonzero]
        exps = {x: 1 + period for x, period in zip(nonzero, periods)}
        return True, {"exponents": exps, "uniform": 1 + math.lcm(*periods) if periods else 2}
    if law == "pre_j_ring":
        if not members:
            return True, 2
        bound = max([2] + [sum(pre_period(x)) + 1 for x in members])
        top = bound + math.lcm(*(pre_period(x)[1] for x in members))
        for n in range(2, top + 1):
            if all(mul[power(a, n)][b] == mul[a][power(b, n)] for a in nonzero for b in nonzero):
                return True, n
        return False, None
    raise ValueError(law)


LAWS = ["zero_square", "p_ring", "e_ring", "j_ring", "weakly_boolean", "pre_j_ring"]
LAW_RINGS = ["Z1", "Z2", "Z4", "Z6", "Z8", "Z12", "Z15", "Z2 x Z2 x Z2", "M2(Z2)", "GR(Z2, C2)",
             "GR(Z2 x Z2, C2)", "Z8|[0, 2, 4, 6]", "M2(Z2)|[0, 1, 2, 3]", "Z5 x Z7"]


def _member_lists(R):
    """The whole ring, every subring, and seeded random subsets in shuffled
    order (so the first failure is not always the least element)."""
    rnd = random.Random(R.cardinality)
    yield list(range(R.cardinality))
    if R.name == "Z5 x Z7":
        # (1, 0), (2, 0), (0, 1), (0, 3): pre-J first at n = 13, past its bound 7
        yield [1, 2, 5, 15]
    for mask in subrings(R):
        yield elements_of(mask)
    for _ in range(6):
        yield rnd.sample(range(R.cardinality), rnd.randint(0, R.cardinality))


@pytest.mark.parametrize("name", LAW_RINGS)
@pytest.mark.parametrize("law", LAWS)
def test_law_holds_on_matches_plain_loops(name, law):
    R = RINGS[name]
    for members in _member_lists(R):
        # p = None is the existential branch: p is the subset's additive exponent
        for p in ((None, 2, 3) if law == "p_ring" else (None,)):
            # repr: the same Python ints, in the same order, as the report prints them
            assert repr(law_holds_on(R, members, law, p)) == repr(plain_law(R, members, law, p)), (members, p)
