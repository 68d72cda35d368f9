"""Finite groups and semigroups presented by Cayley tables.

Elements are canonical indices 0..size-1.  Permutations of symmetric
groups and symmetric semigroups are indexed by the lexicographic order of
their image tuples (Lehmer order), so the same structure always produces
the same indexing.  Composition convention throughout: (p o q)(i) = p(q(i)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bits import bits, close, elements_of, grow_family, mask_of
from .config import DEFAULT_LIMITS, EngineLimits
from .errors import CapacityError, ValidationError


@dataclass(frozen=True)
class CayleyStructure:
    kind: str  # "group" | "semigroup"
    size: int
    table: np.ndarray  # table[a, b] = index of a*b
    identity: int | None
    name: str
    labels: tuple[str, ...] | None = None

    def op(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels is not None else str(a)

    def zero(self) -> int | None:
        """The absorbing element a*x = x*a = a for all x, if one exists."""
        for a in range(self.size):
            if (self.table[a, :] == a).all() and (self.table[:, a] == a).all():
                return a
        return None


@dataclass(frozen=True)
class GroupWitness:
    """A subset of a semigroup that is a group under the induced operation."""

    members: int  # bitmask
    identity: int


def close_under_op(table: np.ndarray, mask: int, closed: int = 0) -> int:
    """Smallest subset containing mask and closed under the table's operation;
    ``closed`` is a part of mask known to be closed already."""
    return close(mask, lambda new, members: np.concatenate(
        (table[np.ix_(new, members)].ravel(), table[np.ix_(members, new)].ravel())
    ), closed)


def generators(table: np.ndarray, span: int = 0) -> list[int]:
    """Greedy generators of a Cayley table's operation over span: candidates
    with larger row images first (ties by index; 6 generators for S(5), 156
    in index order), each kept if outside the closure of span and those kept."""
    n = table.shape[0]
    reached = np.zeros((n, n), dtype=bool)
    reached[np.arange(n)[:, None], table] = True
    gens, closed = [], 0
    for x in np.argsort(-reached.sum(axis=1), kind="stable").tolist():
        if not span >> x & 1:
            gens.append(x)
            span = closed = close_under_op(table, span | 1 << x, closed)
    return gens


def associative_over(table: np.ndarray, gens: list[int]) -> bool:
    """Light's test: (xb)y = x(by) for all x, y and each b in gens.  The b that
    pass are closed under the operation, so for generators this is exact
    (Clifford & Preston, The Algebraic Theory of Semigroups, vol. 1, 1.2)."""
    n = table.shape[0]
    step = max(1, (1 << 18) // n)  # rows per block, so the arrays stay a few MB
    for b in gens:
        for r0 in range(0, n, step):
            rows = table[r0 : r0 + step]
            if not np.array_equal(table[rows[:, b]], rows[:, table[b]]):
                return False
    return True


def associativity_witness(table: np.ndarray) -> tuple[int, int, int] | None:
    """Least triple (a,b,c) with (ab)c != a(bc), or None; one row a at a time."""
    n = table.shape[0]
    for a in range(n):
        lhs = table[table[a], :]       # (ab)c
        rhs = table[a][table]          # a(bc)
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            return a, int(b), int(c)
    return None


def validate_structure(s: CayleyStructure) -> None:
    """Verify the structure axioms exactly (a row scan finds the least witness)."""
    t = s.table
    if t.shape != (s.size, s.size) or (t < 0).any() or (t >= s.size).any():
        raise ValidationError(f"{s.name}: operation table is not closed over 0..{s.size - 1}")
    if not associative_over(t, generators(t)):
        raise ValidationError(f"{s.name}: associativity fails at {associativity_witness(t)}")
    if s.identity is not None:
        e = s.identity
        if not ((t[e, :] == np.arange(s.size)).all() and (t[:, e] == np.arange(s.size)).all()):
            raise ValidationError(f"{s.name}: declared identity {e} is not two-sided")
    if s.kind == "group":
        if s.identity is None:
            raise ValidationError(f"{s.name}: group without identity")
        e = s.identity
        for a in range(s.size):
            row = np.where(t[a] == e)[0]
            if len(row) == 0 or int(t[row[0], a]) != e:
                raise ValidationError(f"{s.name}: element {a} has no two-sided inverse")


def _finish(kind, size, table, identity, name, labels, limits, validate=True) -> CayleyStructure:
    if size > limits.enumeration_cap:
        raise CapacityError(f"{name}: size {size} exceeds structure cap {limits.enumeration_cap}")
    s = CayleyStructure(kind, size, table, identity, name, labels)
    if validate:
        validate_structure(s)
    return s


# group families ------------------------------------------------------------


def cyclic_group(n: int, limits: EngineLimits = DEFAULT_LIMITS) -> CayleyStructure:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    r = np.arange(n)
    table = np.add.outer(r, r) % n
    return _finish("group", n, table.astype(np.int64), 0, f"C{n}", None, limits)


def _perm_table(maps: list[tuple[int, ...]]) -> np.ndarray:
    """Composition table of self-maps listed in lexicographic order: each
    composite is ranked by its base-d code, as the maps' codes ascend."""
    m = np.array(maps, dtype=np.int64)
    n, d = m.shape
    weights = d ** np.arange(d - 1, -1, -1)
    codes = m @ weights
    table = np.empty((n, n), dtype=np.int64)
    rows = max(1, (1 << 18) // (n * d))
    for start in range(0, n, rows):
        # composed[a, b, i] = pa[pb[i]] for the block's rows a
        composed = m[start : start + rows][:, m]
        table[start : start + rows] = np.searchsorted(codes, composed @ weights)
    return table


def symmetric_group(n: int, limits: EngineLimits = DEFAULT_LIMITS) -> CayleyStructure:
    if n < 1:
        raise ValueError("symmetric group needs n >= 1")
    import math

    if math.factorial(n) > limits.enumeration_cap:
        raise CapacityError(f"S{n} has {math.factorial(n)} elements, above the cap")
    perms = list(itertools.permutations(range(n)))
    labels = tuple("".join(str(x + 1) for x in p) for p in perms)
    return _finish("group", len(perms), _perm_table(perms), 0, f"S{n}", labels, limits)


def dihedral_group(n: int, limits: EngineLimits = DEFAULT_LIMITS) -> CayleyStructure:
    """Presentation a^2 = b^n = 1, bab = a; element s*n + r stands for b^r a^s."""
    if n < 1:
        raise ValueError("dihedral group needs n >= 1")
    size = 2 * n
    s, r = np.divmod(np.arange(size), n)
    table = (s[:, None] ^ s) * n + (r[:, None] + (1 - 2 * s)[:, None] * r) % n
    labels = tuple(f"b{r}" if s == 0 else f"b{r}a" for s in (0, 1) for r in range(n))
    return _finish("group", size, table, 0, f"D{n}", labels, limits)


# semigroup families ---------------------------------------------------------


def zn_multiplicative(n: int, limits: EngineLimits = DEFAULT_LIMITS) -> CayleyStructure:
    if n < 1:
        raise ValueError("needs n >= 1")
    r = np.arange(n)
    table = np.multiply.outer(r, r) % n
    identity = 1 if n > 1 else 0
    return _finish("semigroup", n, table.astype(np.int64), identity, f"Zn*{n}", None, limits)


def symmetric_semigroup(n: int, limits: EngineLimits = DEFAULT_LIMITS) -> CayleyStructure:
    """All self-maps of an n-point set under composition; n^n elements."""
    if n < 1:
        raise ValueError("needs n >= 1")
    if n**n > limits.enumeration_cap:
        raise CapacityError(f"S({n}) has {n**n} elements, above the cap")
    maps = list(itertools.product(range(n), repeat=n))
    labels = tuple("".join(str(x + 1) for x in f) for f in maps)
    identity = maps.index(tuple(range(n)))
    return _finish("semigroup", len(maps), _perm_table(maps), identity, f"S({n})", labels, limits)


def semigroup_from_table(
    rows: list[list[int]], name: str = "table", limits: EngineLimits = DEFAULT_LIMITS
) -> CayleyStructure:
    table = np.asarray(rows, dtype=np.int64)
    n = table.shape[0]
    identity = None
    for e in range(n):
        if (table[e] == np.arange(n)).all() and (table[:, e] == np.arange(n)).all():
            identity = e
            break
    return _finish("semigroup", n, table, identity, name, None, limits)


def build_group(spec: tuple[str, int], limits: EngineLimits = DEFAULT_LIMITS) -> CayleyStructure:
    kind, n = spec
    builder = {"cyclic": cyclic_group, "symmetric": symmetric_group, "dihedral": dihedral_group}
    if kind not in builder:
        raise ValueError(f"unknown group family {kind!r}")
    return builder[kind](n, limits)


def build_semigroup(spec, limits: EngineLimits = DEFAULT_LIMITS) -> CayleyStructure:
    if spec[0] == "symmetric_semigroup":
        return symmetric_semigroup(spec[1], limits)
    if spec[0] == "zn_multiplicative":
        return zn_multiplicative(spec[1], limits)
    if spec[0] == "explicit_table":
        return semigroup_from_table(spec[1], limits=limits)
    raise ValueError(f"unknown semigroup family {spec[0]!r}")


# subset machinery -----------------------------------------------------------


def enumerate_subsemigroups(s: CayleyStructure, limits: EngineLimits = DEFAULT_LIMITS) -> list[int]:
    """All nonempty op-closed subsets: every join of singleton closures.

    On a finite group these are exactly the subgroups.
    """
    atoms = [(close_under_op(s.table, 1 << x), x) for x in range(s.size)]
    family = grow_family(atoms, lambda a, b: close_under_op(s.table, a | b, a), limits.family_cap, "subsemigroup")
    return sorted(family)


def is_subgroup(s: CayleyStructure, mask: int) -> int | None:
    """Internal identity of mask if it is a group under the induced op, else None."""
    members = elements_of(mask)
    if not members:
        return None
    table = s.table
    sub = table[np.ix_(members, members)]
    member_set = set(members)
    if any(int(v) not in member_set for v in sub.ravel()):
        return None
    identity = None
    for i, e in enumerate(members):
        if all(int(sub[i, j]) == m and int(sub[j, i]) == m for j, m in enumerate(members)):
            identity = e
            break
    if identity is None:
        return None
    ei = members.index(identity)
    for i in range(len(members)):
        if not any(int(sub[i, j]) == identity and int(sub[j, i]) == identity for j in range(len(members))):
            return None
    return identity


def maximal_subgroups(s: CayleyStructure) -> list[GroupWitness]:
    """The maximal group at each idempotent e: units of the local monoid eSe."""
    out = []
    table = s.table
    for e in range(s.size):
        if int(table[e, e]) != e:
            continue
        local = sorted({int(table[int(table[e, x]), e]) for x in range(s.size)})
        group = []
        for x in local:
            if int(table[e, x]) != x or int(table[x, e]) != x:
                continue
            if any(int(table[x, y]) == e and int(table[y, x]) == e for y in local):
                group.append(x)
        if group:
            out.append(GroupWitness(mask_of(group), e))
    return sorted(out, key=lambda w: (w.members.bit_count(), w.members))


def group_subsets(s: CayleyStructure, limits: EngineLimits = DEFAULT_LIMITS) -> list[GroupWitness]:
    """Every subset that is a group under the induced operation.

    Any such subset lies inside the maximal subgroup at its own identity,
    so it suffices to enumerate subgroups of each maximal subgroup.
    """
    out: dict[int, int] = {}
    for w in maximal_subgroups(s):
        members = elements_of(w.members)
        sub_table = s.table[np.ix_(members, members)]
        relabel = np.searchsorted(members, sub_table)
        local = CayleyStructure("group", len(members), relabel, members.index(w.identity), "local")
        for sub in enumerate_subsemigroups(local, limits):
            mask = mask_of(members[i] for i in bits(sub))
            ident = is_subgroup(s, mask)
            if ident is not None:
                out.setdefault(mask, ident)
    return [GroupWitness(m, e) for m, e in sorted(out.items())]


def subgroups_and_subsemigroups(
    s: CayleyStructure, limits: EngineLimits = DEFAULT_LIMITS
) -> tuple[list[int], list[int]]:
    """Complete families, canonically ordered by bitset value."""
    if s.kind == "group":
        subs = enumerate_subsemigroups(s, limits)
        return subs, subs
    groups = sorted(w.members for w in group_subsets(s, limits))
    return groups, enumerate_subsemigroups(s, limits)


def is_s_semigroup(
    s: CayleyStructure, min_group_size: int = 2, limits: EngineLimits = DEFAULT_LIMITS
) -> tuple[bool, GroupWitness | None]:
    """True iff some proper subset of size >= min_group_size is a group."""
    full = (1 << s.size) - 1
    best: GroupWitness | None = None
    for w in maximal_subgroups(s):
        if w.members != full and w.members.bit_count() >= min_group_size:
            if best is None or (w.members.bit_count(), w.members) < (best.members.bit_count(), best.members):
                best = w
    if best is not None:
        return True, best
    # the only qualifying groups may be proper subgroups of a maximal one
    for w in group_subsets(s, limits):
        if w.members != full and w.members.bit_count() >= min_group_size:
            return True, w
    return False, None


def s_normal_subgroups(
    s: CayleyStructure, min_size: int = 1, limits: EngineLimits = DEFAULT_LIMITS
) -> list[GroupWitness]:
    """Proper group subsets X with aX, Xa inside X, or absorbed to {0}, for all a."""
    if s.kind == "group":
        return []
    zero = s.zero()
    full = (1 << s.size) - 1
    table = s.table
    out = []
    for w in group_subsets(s, limits):
        if w.members == full or w.members.bit_count() < min_size:
            continue
        members = elements_of(w.members)
        ok = True
        for a in range(s.size):
            left = {int(v) for v in table[a, members]}
            right = {int(v) for v in table[members, a]}
            if left <= set(members) and right <= set(members):
                continue
            if zero is not None and left == {zero} and right == {zero}:
                continue
            ok = False
            break
        if ok:
            out.append(w)
    return sorted(out, key=lambda w: w.members)
