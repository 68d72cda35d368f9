"""Inclusion posets of subset families, lattice recognition and identity checks.

Meet and join are computed inside the family (greatest lower / least upper
bound among the family's own members), not as set intersection or generated
join: S-ideal families are not intersection-closed, so the family-meet of
two members can sit strictly below their set intersection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bits import fingerprint, is_subset
from .config import DEFAULT_LIMITS, EngineLimits
from .errors import CapacityError, NotALatticeError


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
    leq = np.zeros((k, k), dtype=bool)
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            leq[i, j] = is_subset(a, b)
    bottoms = [i for i in range(k) if leq[i].all()]
    tops = [j for j in range(k) if leq[:, j].all()]
    bottom = bottoms[0] if len(bottoms) == 1 else None
    top = tops[0] if len(tops) == 1 else None
    return PosetModel(nodes, leq, bottom, top)


def lattice_from_poset(p: PosetModel) -> LatticeModel:
    """Meet/join tables, or NotALatticeError with the offending pair.

    A poset without a unique bottom or top fails at a pair with no common
    lower or upper bound; an empty one fails with no pair.
    """
    if not p.nodes:
        raise NotALatticeError("family is empty", None, "join")
    k = len(p.nodes)
    meet = np.zeros((k, k), dtype=np.int64)
    join = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            lower = np.where(p.leq[:, i] & p.leq[:, j])[0]
            maximal = [x for x in lower if not (p.leq[x, lower] & (lower != x)).any()]
            if len(maximal) != 1:
                raise NotALatticeError(
                    f"nodes {i} and {j} have {len(maximal)} maximal common lower bounds",
                    (i, j),
                    "meet",
                )
            meet[i, j] = maximal[0]
            upper = np.where(p.leq[i] & p.leq[j])[0]
            minimal = [x for x in upper if not (p.leq[upper, x] & (upper != x)).any()]
            if len(minimal) != 1:
                raise NotALatticeError(
                    f"nodes {i} and {j} have {len(minimal)} minimal common upper bounds",
                    (i, j),
                    "join",
                )
            join[i, j] = minimal[0]
    return LatticeModel(p, meet, join)


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

    The 4-variable counterexamples are the lexicographically least failing
    tuple.  The source's own wording of the two 4-variable definitions is
    not in this repository, so these formulas are checked as written here.
    """
    if identity not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}")
    bad = IDENTITIES[identity](L, limits)
    return IdentityVerdict(identity, bad is None, bad)


def _modular(L: LatticeModel, limits: EngineLimits) -> tuple[int, ...] | None:
    meet, join, leq = L.meet, L.join, L.poset.leq
    k = len(L.poset.nodes)
    for x in range(k):
        for z in range(k):
            if not leq[x, z]:
                continue
            lhs = join[x, meet[:, z]]
            rhs = meet[join[x, :], z]
            bad = np.where(lhs != rhs)[0]
            if len(bad):
                return (x, int(bad[0]), z)
    return None


def _distributive(L: LatticeModel, limits: EngineLimits) -> tuple[int, ...] | None:
    meet, join = L.meet, L.join
    for x in range(len(L.poset.nodes)):
        lhs = join[x, meet]  # x v (y ^ z)
        rhs = meet[np.ix_(join[x], join[x])]  # (x v y) ^ (x v z)
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            y, z = bad[0]
            return (x, int(y), int(z))
    return None


def _four_variable(holds_at, L: LatticeModel, limits: EngineLimits) -> tuple[int, ...] | None:
    """The first node 4-tuple, in lexicographic order, where ``holds_at`` fails."""
    k = len(L.poset.nodes)
    if k > limits.identity4_cap:
        raise CapacityError(f"{k} nodes above 4-variable identity cap {limits.identity4_cap}")
    meet, join = L.meet, L.join
    for tup in itertools.product(range(k), repeat=4):
        if not holds_at(meet, join, tup):
            return tup
    return None


def _quasi_distributive_at(meet, join, tup) -> bool:
    """The identity and its order dual, both at ``tup``."""
    x, y, z, u = tup
    lhs = meet[join[x, y], join[z, u]]
    rhs = join[
        join[meet[x, join[z, u]], meet[y, join[z, u]]],
        join[meet[z, join[x, y]], meet[u, join[x, y]]],
    ]
    if lhs != rhs:
        return False
    # order dual
    lhs2 = join[meet[x, y], meet[z, u]]
    rhs2 = meet[
        meet[join[x, meet[z, u]], join[y, meet[z, u]]],
        meet[join[z, meet[x, y]], join[u, meet[x, y]]],
    ]
    return lhs2 == rhs2


def _supermodular_at(meet, join, tup) -> bool:
    # (a+b)(a+c)(a+d) = a + bc(a+d) + bd(a+c) + dc(a+b), with + as join and
    # juxtaposition as meet
    a, b, c, d = tup
    lhs = meet[meet[join[a, b], join[a, c]], join[a, d]]
    rhs = join[
        join[a, meet[meet[b, c], join[a, d]]],
        join[meet[meet[b, d], join[a, c]], meet[meet[d, c], join[a, b]]],
    ]
    return lhs == rhs


# The lattice identities the CLI and the claim ledger check, in the CLI's
# order: id -> checker returning the least failing node tuple, or None.
IDENTITIES = {
    "modular": _modular,
    "distributive": _distributive,
    "quasi_distributive": partial(_four_variable, _quasi_distributive_at),
    "supermodular": partial(_four_variable, _supermodular_at),
}


def forbidden_sublattices(
    L: LatticeModel, shape: str, limits: EngineLimits = DEFAULT_LIMITS
) -> list[tuple[int, ...]]:
    """All 5-node sublattices isomorphic to the pentagon N5 or diamond M3.

    Exact search up to the configured node cap; witnesses are sorted node
    tuples in canonical order.  A lattice can house several pentagons, so
    claim checks compare against the whole list.
    """
    k = len(L.poset.nodes)
    if k > limits.sublattice_cap:
        raise CapacityError(f"{k} nodes above sublattice search cap {limits.sublattice_cap}")
    meet, join, leq = L.meet, L.join, L.poset.leq
    found: set[tuple[int, ...]] = set()

    if shape == "pentagon":
        # N5: bottom o, chain x < z, side y with x^y = z^y = o, x v y = z v y = i
        for x in range(k):
            for z in range(k):
                if x == z or not leq[x, z]:
                    continue
                for y in range(k):
                    if leq[y, z] or leq[x, y] or leq[z, y] or leq[y, x]:
                        continue
                    if meet[x, y] != meet[z, y] or join[x, y] != join[z, y]:
                        continue
                    o, i = int(meet[x, y]), int(join[x, y])
                    cand = tuple(sorted((o, x, z, y, i)))
                    if len(set(cand)) == 5:
                        found.add(cand)
    elif shape == "diamond":
        # M3: three pairwise incomparable atoms with common meet and join
        for a in range(k):
            for b in range(a + 1, k):
                if leq[a, b] or leq[b, a]:
                    continue
                for c in range(b + 1, k):
                    if leq[a, c] or leq[c, a] or leq[b, c] or leq[c, b]:
                        continue
                    if not (meet[a, b] == meet[a, c] == meet[b, c]):
                        continue
                    if not (join[a, b] == join[a, c] == join[b, c]):
                        continue
                    o, i = int(meet[a, b]), int(join[a, b])
                    cand = tuple(sorted((o, a, b, c, i)))
                    if len(set(cand)) == 5:
                        found.add(cand)
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return sorted(found)


def find_forbidden_sublattice(
    L: LatticeModel, shape: str, limits: EngineLimits = DEFAULT_LIMITS
) -> tuple[int, ...] | None:
    """Canonically least forbidden sublattice of the given shape, or None."""
    hits = forbidden_sublattices(L, shape, limits)
    return hits[0] if hits else None


def covering_relation(p: PosetModel) -> list[tuple[int, int]]:
    k = len(p.nodes)
    covers = []
    for i in range(k):
        for j in range(k):
            if i == j or not p.leq[i, j]:
                continue
            if not any(x != i and x != j and p.leq[i, x] and p.leq[x, j] for x in range(k)):
                covers.append((i, j))
    return covers


def chain_stats(p: PosetModel) -> tuple[int, bool]:
    """Longest chain length (node count) and whether the order is total."""
    k = len(p.nodes)
    covers = covering_relation(p)
    height = [1] * k
    for i in sorted(range(k), key=lambda i: int(p.leq[:, i].sum())):
        for a, b in covers:
            if b == i:
                height[i] = max(height[i], height[a] + 1)
    total = all(p.leq[i, j] or p.leq[j, i] for i in range(k) for j in range(k))
    return max(height, default=0), total


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
