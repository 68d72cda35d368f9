"""Inclusion posets of subset families, lattice recognition and identity checks.

Meet and join are computed inside the family (greatest lower / least upper
bound among the family's own members), not as set intersection or generated
join: S-ideal families are not intersection-closed, so the family-meet of
two members can sit strictly below their set intersection.

Everything here is array code over the poset's ``leq`` matrix and the
``meet``/``join`` tables.  Nodes ascend by mask, and a proper subset has the
smaller mask, so a node lies below only nodes of higher index.  Hence the
greatest-index common lower bound of a pair is maximal among its common
lower bounds, and it is the meet exactly when it lies above all of them;
dually the join is the least-index common upper bound when it lies below
all of them.  ``lattice_from_poset`` finds both one row of pairs at a time.

Identity checks decide first, by one O(k^2) test of whether a node valuation
v has v[x] + v[y] = v[xy] + v[x + y] for every pair (Birkhoff): the height
passes iff the lattice is modular, the count of join-irreducibles below a
node iff it is distributive, and both 4-variable laws hold on distributive
lattices, as in the two-element one.  Only a law the test cannot prove is
scanned: every node tuple of its arity in lexicographic order, in blocks each
tested by one array formula, so the first failing tuple is the least one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import fingerprint, is_subset
from .config import DEFAULT_LIMITS, EngineLimits
from .errors import CapacityError, NotALatticeError

# tuples per scanned block: 2**16 costs ~17 % more peak RSS at the same speed
_BLOCK = 1 << 12


@dataclass(frozen=True)
class PosetModel:
    nodes: tuple[int, ...]  # subset masks, ascending
    leq: np.ndarray  # leq[i, j] iff nodes[i] subseteq nodes[j]
    bottom: int | None  # None unless unique
    top: int | None


@dataclass(frozen=True)
class LatticeModel:
    poset: PosetModel
    meet: np.ndarray
    join: np.ndarray


@dataclass(frozen=True)
class IdentityVerdict:
    identity: str
    holds: bool
    counterexample: tuple[int, ...] | None  # node indices, canonically least


def poset_from_family(family) -> PosetModel:
    """Inclusion order over a subset family, which may be empty or lack a
    bottom or top; lattice_from_poset rejects those."""
    nodes = tuple(sorted(set(family)))
    k = len(nodes)
    leq = np.array([[is_subset(a, b) for b in nodes] for a in nodes], dtype=bool).reshape(k, k)
    bottoms = np.flatnonzero(leq.all(axis=1))
    tops = np.flatnonzero(leq.all(axis=0))
    bottom = int(bottoms[0]) if len(bottoms) == 1 else None
    top = int(tops[0]) if len(tops) == 1 else None
    return PosetModel(nodes, leq, bottom, top)


def lattice_from_poset(p: PosetModel) -> LatticeModel:
    """Meet/join tables, or NotALatticeError with the offending pair.

    Row i of both tables is found at once (see the module docstring).  The
    error names the first failing pair in row-major order, meet before
    join, with its count of maximal (minimal) common bounds.  A poset
    without a unique bottom or top fails at a pair with no common lower or
    upper bound; an empty one fails with no pair.  A meet is never the
    first failure with two maximal bounds c and d: the join of c and d
    fails first, in an earlier row.
    """
    if not p.nodes:
        raise NotALatticeError("family is empty", None, "join")
    k = len(p.nodes)
    leq = p.leq
    below = np.ascontiguousarray(leq.T)  # below[j, x] iff x <= j
    meet = np.zeros((k, k), dtype=np.int64)
    join = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        lower = below & below[i]  # lower[j]: the common lower bounds of i and j
        upper = leq & leq[i]
        meet[i] = k - 1 - lower[:, ::-1].argmax(axis=1)
        join[i] = upper.argmax(axis=1)
        bad_meet = ~lower.any(axis=1) | (lower & ~below[meet[i]]).any(axis=1)
        bad_join = ~upper.any(axis=1) | (upper & ~leq[join[i]]).any(axis=1)
        bad = bad_meet | bad_join
        if bad.any():
            j = int(bad.argmax())
            if bad_meet[j]:
                bounds = np.flatnonzero(lower[j])
                under = leq[np.ix_(bounds, bounds)] & ~np.eye(len(bounds), dtype=bool)
                count, kind, what = int((~under.any(axis=1)).sum()), "meet", "maximal common lower"
            else:
                bounds = np.flatnonzero(upper[j])
                under = leq[np.ix_(bounds, bounds)] & ~np.eye(len(bounds), dtype=bool)
                count, kind, what = int((~under.any(axis=0)).sum()), "join", "minimal common upper"
            raise NotALatticeError(f"nodes {i} and {j} have {count} {what} bounds", (i, j), kind)
    return LatticeModel(p, meet, join)


def _tuples(k: int, arity: int):
    """Every node tuple of the arity in lexicographic order, as blocks of
    ``_BLOCK`` tuples: one index array per position."""
    total = k**arity
    for start in range(0, total, _BLOCK):
        yield np.unravel_index(np.arange(start, min(start + _BLOCK, total)), (k,) * arity)


def _ops(L: LatticeModel):
    """meet, join and leq as functions of two node-index arrays, read off
    the flattened tables; node indices are always in range, so ``clip``
    only skips the bounds check."""
    k = len(L.poset.nodes)
    flat = [t.ravel() for t in (L.meet, L.join, L.poset.leq)]
    return [lambda a, b, t=t: t.take(a * k + b, mode="clip") for t in flat]


def _valuations(p: PosetModel) -> tuple[np.ndarray, np.ndarray]:
    """Each node's longest-chain height (in nodes) and count of join-irreducibles
    at or below it, in node order: j is join-irreducible iff it has strict lower
    bounds and all lie below the greatest-index one (see the module docstring)."""
    k = len(p.nodes)
    height, count, irreducible = np.zeros(k, np.int64), np.zeros(k, np.int64), np.zeros(k, bool)
    for j in range(k):
        below = p.leq[:j, j]
        height[j] = height[:j][below].max(initial=0) + 1
        irreducible[j] = below.any() and (below <= p.leq[:j, j - 1 - below[::-1].argmax()]).all()
        count[j] = np.count_nonzero(below & irreducible[:j]) + irreducible[j]
    return height, count


def _proved(L: LatticeModel, law: str) -> bool:
    """Whether a valuation proves the law: the height for ``modular``, the
    join-irreducible count for any other, tested one table row at a time."""
    v = _valuations(L.poset)[law != "modular"]
    return all(np.array_equal(v[i] + v, v[L.meet[i]] + v[L.join[i]]) for i in range(len(v)))


def check_identity(
    L: LatticeModel, identity: str, limits: EngineLimits = DEFAULT_LIMITS
) -> IdentityVerdict:
    """Exhaustive law check over all node tuples, with + as join and
    juxtaposition as meet.

    - ``modular``: x + yz = (x + y)z for every triple with x <= z; the
      counterexample is the first (x, y, z) failing in (x, z, y) scan order.
    - ``distributive``: x + yz = (x + y)(x + z).
    - ``quasi_distributive``: (x+y)(z+u) = x(z+u) + y(z+u) + z(x+y) + u(x+y)
      and its order dual, (xy)+(zu) = (x+zu)(y+zu)(z+xy)(u+xy); both must
      hold.  It holds on N5 and M3; the smallest failing lattice on at most
      4 points has 8 nodes.
    - ``supermodular``: (a+b)(a+c)(a+d) = a + bc(a+d) + bd(a+c) + dc(a+b).
      As coded it holds on every distributive lattice and on M3, and fails
      on the four-atom diamond M4 at four distinct atoms.

    Above ``identity4_cap`` nodes the 4-variable checks refuse.  A law the
    valuation test proves holds; any other is one array formula over each
    block of the tuple scan, so the counterexample is the least failing tuple.
    The source's own wording of the two 4-variable definitions is not in
    this repository, so these formulas are checked as written here.
    """
    if identity not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}")
    arity, law = IDENTITIES[identity]
    k = len(L.poset.nodes)
    if arity == 4 and k > limits.identity4_cap:
        raise CapacityError(f"{k} nodes above 4-variable identity cap {limits.identity4_cap}")
    if _proved(L, identity):
        return IdentityVerdict(identity, True, None)
    ops = _ops(L)
    for t in _tuples(k, arity):
        fails = ~law(*ops, *t)
        if fails.any():
            at = fails.argmax()
            bad = tuple(int(c[at]) for c in t)
            if identity == "modular":  # scanned as (x, z, y)
                bad = (bad[0], bad[2], bad[1])
            return IdentityVerdict(identity, False, bad)
    return IdentityVerdict(identity, True, None)


def _modular(meet, join, leq, x, z, y):
    return ~leq(x, z) | (join(x, meet(y, z)) == meet(join(x, y), z))


def _distributive(meet, join, leq, x, y, z):
    return join(x, meet(y, z)) == meet(join(x, y), join(x, z))


def _quasi_distributive(meet, join, leq, x, y, z, u):
    xy, zu = join(x, y), join(z, u)
    holds = meet(xy, zu) == join(join(meet(x, zu), meet(y, zu)), join(meet(z, xy), meet(u, xy)))
    xy, zu = meet(x, y), meet(z, u)  # the order dual
    return holds & (join(xy, zu) == meet(meet(join(x, zu), join(y, zu)), meet(join(z, xy), join(u, xy))))


def _supermodular(meet, join, leq, a, b, c, d):
    ab, ac, ad = join(a, b), join(a, c), join(a, d)
    lhs = meet(meet(ab, ac), ad)
    return lhs == join(join(a, meet(meet(b, c), ad)), join(meet(meet(b, d), ac), meet(meet(d, c), ab)))


# The lattice identities the CLI and the claim ledger check, in the CLI's
# order: id -> (arity, law), the law mapping meet, join and leq (see _ops)
# and a block of node tuples to a boolean array of where it holds.
IDENTITIES = {
    "modular": (3, _modular),
    "distributive": (3, _distributive),
    "quasi_distributive": (4, _quasi_distributive),
    "supermodular": (4, _supermodular),
}


def forbidden_sublattices(
    L: LatticeModel, shape: str, limits: EngineLimits = DEFAULT_LIMITS
) -> list[tuple[int, ...]]:
    """All 5-node sublattices isomorphic to the pentagon N5 or diamond M3.

    Exact search up to the configured node cap, over the same block scan
    of node triples as the identity checks; witnesses are sorted node
    tuples in canonical order.  A lattice can house several pentagons, so
    claim checks compare against the whole list.  A lattice the valuation
    test proves modular (distributive) holds no pentagon (diamond).
    """
    k = len(L.poset.nodes)
    if k > limits.sublattice_cap:
        raise CapacityError(f"{k} nodes above sublattice search cap {limits.sublattice_cap}")
    if shape not in ("pentagon", "diamond"):
        raise ValueError(f"unknown shape {shape!r}")
    if _proved(L, "modular" if shape == "pentagon" else "distributive"):
        return []
    meet, join, leq = _ops(L)
    found = [np.empty((0, 5), dtype=np.int64)]
    for a, b, c in _tuples(k, 3):
        if shape == "pentagon":
            # N5 on a chain x = a < z = b and a side y = c with yz <= x and
            # z <= x + y; these force y to be incomparable to x and z
            o, i = meet(b, c), join(a, c)
            hit = (a != b) & leq(a, b) & leq(o, a) & leq(b, i)
        else:
            # M3 on atoms a < b < c (by index) sharing one meet and one join;
            # these force the atoms to be pairwise incomparable
            o, i = meet(a, b), join(a, b)
            hit = (a < b) & (b < c) & (meet(a, c) == o) & (meet(b, c) == o)
            hit &= (join(a, c) == i) & (join(b, c) == i)
        found.append(np.stack([o, a, b, c, i], axis=1)[hit])
    rows = np.sort(np.concatenate(found), axis=1)
    # return_index skips np.unique's masked-array check, as in bits.distinct
    return [tuple(map(int, r)) for r in np.unique(rows, axis=0, return_index=True)[0]]


def covering_relation(p: PosetModel) -> list[tuple[int, int]]:
    """Pairs (i, j) with i < j and nothing strictly between, row-major."""
    strict = p.leq & ~np.eye(len(p.nodes), dtype=bool)
    through = (strict.astype(np.float32) @ strict.astype(np.float32)) > 0
    return [(int(i), int(j)) for i, j in np.argwhere(strict & ~through)]


def chain_stats(p: PosetModel) -> tuple[int, bool]:
    """Longest chain length (node count) and whether the order is total."""
    return int(_valuations(p)[0].max(initial=0)), bool((p.leq | p.leq.T).all())


def node_label(p: PosetModel, i: int, ring=None, max_members: int = 8) -> str:
    mask = p.nodes[i]
    if mask.bit_count() <= max_members:
        from .bits import elements_of

        names = [ring.label(e) if ring else str(e) for e in elements_of(mask)]
        return "{" + ",".join(names) + "}"
    return f"#{mask.bit_count()}:{fingerprint(mask)}"


def export_hasse(p: PosetModel, ring=None, graph_name: str = "poset") -> str:
    """Deterministic DOT text; edges are covering relations only."""
    lines = [f"digraph {graph_name} {{", "  rankdir=BT;"]
    for i in range(len(p.nodes)):
        lines.append(f'  n{i} [label="{node_label(p, i, ring)}"];')
    for a, b in sorted(covering_relation(p)):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
