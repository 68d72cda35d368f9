"""Enumeration of subrings, ideals, field/domain subsets and S-substructures.

Families are lists of bitmasks in canonical (ascending mask) order.
Additive subgroups are every join of cyclic subgroups, grown by
``bits.grow_family``; elementary abelian additive groups switch to subspace
enumeration in echelon form, which is far faster there.  Subrings, ideals
and field/domain subsets filter the additive subgroups.  A generated ideal
is read off the cached ideal family rather than closed again.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bits import contains, elements_of, grow_family, mask_of
from .config import DEFAULT_LIMITS, EngineLimits
from .errors import CapacityError
from .rings import RingHandle, additive_orders, is_prime
from .structures import generators


@dataclass(frozen=True)
class FieldSubset:
    mask: int
    identity: int  # internal identity; need not be the ring's 1


@dataclass(frozen=True)
class SubstructureVerdict:
    mask: int
    kind: str  # "s_subring" | "s_ideal" | "s_pseudo_ideal"
    level: str  # "I" | "II"
    mode: str  # "strict" | "lax"
    certificate: int | None  # embedded field/domain subset, None on trivial members
    certificate_identity: int | None
    trivial: bool = False


@dataclass(frozen=True)
class IdealAnnotation:
    mask: int
    maximal: bool
    minimal: bool
    prime: bool


# -- additive subgroup enumeration ------------------------------------------


def _cached(R: RingHandle, key, compute):
    if key not in R._cache:
        R._cache[key] = compute()
    return R._cache[key]


def _vector_space_data(R: RingHandle, p: int):
    """Basis and coordinates of (R,+) as an F_p space; None if not elementary."""
    n = R.cardinality
    basis = generators(R.add_table, 1 << R.zero)
    d = len(basis)
    if p**d != n:
        return None
    # multiples of each basis element
    mult = []
    for b in basis:
        row = [R.zero]
        for _ in range(p - 1):
            row.append(R.add(row[-1], b))
        mult.append(row)
    elem_of_vec: dict[tuple[int, ...], int] = {}
    for coeffs in itertools.product(range(p), repeat=d):
        e = R.zero
        for i, c in enumerate(coeffs):
            e = R.add(e, mult[i][c])
        elem_of_vec[coeffs] = e
    if len(set(elem_of_vec.values())) != n:
        return None
    return basis, elem_of_vec


def _enumerate_subspaces(p: int, d: int, elem_of_vec, limits: EngineLimits):
    """All subspaces of F_p^d via reduced row echelon forms; yields (mask, gens)."""
    count = 0
    for k in range(d + 1):
        for pivots in itertools.combinations(range(d), k):
            free_pos = [
                (i, j)
                for i in range(k)
                for j in range(pivots[i] + 1, d)
                if j not in pivots
            ]
            for fill in itertools.product(range(p), repeat=len(free_pos)):
                rows = [[0] * d for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = 1
                for (i, j), v in zip(free_pos, fill):
                    rows[i][j] = v
                vecs = [tuple(r) for r in rows]
                span = {tuple([0] * d)}
                for v in vecs:
                    cur = list(span)
                    for c in range(1, p):
                        cv = tuple((c * x) % p for x in v)
                        for s in cur:
                            span.add(tuple((a + b) % p for a, b in zip(s, cv)))
                if count >= limits.family_cap:
                    raise CapacityError("subspace family cap exceeded", partial_count=count)
                count += 1
                yield mask_of(elem_of_vec[v] for v in span), [elem_of_vec[v] for v in vecs]


def additive_subgroups(
    R: RingHandle, limits: EngineLimits | None = None, with_generators: bool = False
):
    """All subsets closed under + and negation containing 0."""
    family, gens_by_mask = _cached(
        R, "additive_subgroups", lambda: _additive_subgroups(R, limits or R.limits)
    )
    return (family, gens_by_mask) if with_generators else family


def _additive_subgroups(R: RingHandle, limits: EngineLimits):
    if not R.enumerable:
        raise CapacityError(f"{R.name}: not enumerable")
    orders = additive_orders(R)
    exponent = math.lcm(*orders.tolist())
    if is_prime(exponent) and set(orders.tolist()) <= {1, exponent}:
        data = _vector_space_data(R, exponent)
        if data is not None:
            _, elem_of_vec = data
            d = round(math.log(R.cardinality, exponent))
            gens_by_mask = dict(_enumerate_subspaces(exponent, d, elem_of_vec, limits))
            return sorted(gens_by_mask), gens_by_mask
    # (R,+) is abelian: every subgroup is a join (sumset) of cyclic subgroups
    add = R.add_table
    cyclics: dict[int, int] = {}  # mask -> generator
    for x in range(R.cardinality):
        m = R.zero
        mask = 0
        while True:
            mask |= 1 << m
            m = R.add(m, x)
            if m == R.zero:
                break
        cyclics.setdefault(mask, x)
    members = functools.cache(elements_of)
    gens_by_mask = grow_family(
        sorted(cyclics.items()),
        lambda a, b: mask_of(np.unique(add[np.ix_(members(a), members(b))]).tolist()),
        limits.family_cap,
        "additive subgroup",
    )
    return sorted(gens_by_mask), gens_by_mask


# -- subrings and ideals ------------------------------------------------------


def subrings(R: RingHandle, limits: EngineLimits | None = None) -> list[int]:
    """Additive subgroups closed under multiplication; 1 not required."""

    def compute():
        family, gens = additive_subgroups(R, limits, with_generators=True)
        mul = R.mul_table
        out = []
        for mask in family:
            g = gens[mask] or [R.zero]
            # bilinearity: closure on an additive generating set suffices
            if all(contains(mask, int(v)) for v in mul[np.ix_(g, g)].ravel()):
                out.append(mask)
        return out

    return _cached(R, "subrings", compute)


def ideals(R: RingHandle, side: str = "two_sided", limits: EngineLimits | None = None) -> list[int]:
    def compute():
        family, gens = additive_subgroups(R, limits, with_generators=True)
        mul = R.mul_table
        ring_gens = generators(R.add_table, 1 << R.zero) or [R.zero]
        out = []
        for mask in family:
            g = gens[mask] or [R.zero]
            left_ok = all(contains(mask, int(v)) for v in mul[np.ix_(ring_gens, g)].ravel())
            right_ok = all(contains(mask, int(v)) for v in mul[np.ix_(g, ring_gens)].ravel())
            if side == "left" and left_ok:
                out.append(mask)
            elif side == "right" and right_ok:
                out.append(mask)
            elif side == "two_sided" and left_ok and right_ok:
                out.append(mask)
        return out

    return _cached(R, ("ideals", side), compute)


def ideal_generated(R: RingHandle, gens, side: str = "two_sided") -> int:
    """Least ideal of the given sidedness containing gens.

    It is read off the cached family ``ideals(R, side)``: ideals are closed
    under intersection, so the smallest member containing gens is the
    generated ideal.  It therefore needs that family within ``family_cap``
    and raises CapacityError otherwise.
    """
    if not R.enumerable:
        raise CapacityError(f"{R.name}: not enumerable")
    want = mask_of(int(g) for g in gens)
    return min((I for I in ideals(R, side) if want & ~I == 0), key=int.bit_count)


def maximal_minimal_prime(R: RingHandle, family: list[int]) -> list[IdealAnnotation]:
    """Flag each proper ideal maximal/minimal/prime by direct poset and
    product checks inside the given family."""
    full = (1 << R.cardinality) - 1
    zero_mask = 1 << R.zero
    out = []
    for I in family:
        if I == full:
            continue
        maximal = not any(I != J != full and I & J == I for J in family)
        minimal = I != zero_mask and not any(
            zero_mask != J != I and J & I == J for J in family
        )
        prime = True
        members = set(elements_of(I))
        for x in R.elements():
            if x in members:
                continue
            row = R.mul_table[x]
            for y in R.elements():
                if y not in members and int(row[y]) in members:
                    prime = False
                    break
            if not prime:
                break
        out.append(IdealAnnotation(I, maximal, minimal, prime))
    return out


def units_mask(R: RingHandle) -> int:
    def compute():
        if R.one is None:
            return 0
        hits = R.mul_table == R.one
        unit = hits & hits.T  # xy = 1 and yx = 1
        return mask_of(int(x) for x in np.where(unit.any(axis=1))[0])

    return _cached(R, "units_mask", compute)


def jacobson_radical(R: RingHandle) -> int:
    """{r : 1 - rx is a unit for every x}."""
    if R.one is None:
        raise ValueError(f"{R.name}: radical needs a unit element")
    units = units_mask(R)
    unit_flag = np.zeros(R.cardinality, dtype=bool)
    for u in elements_of(units):
        unit_flag[u] = True
    out = 0
    neg = R.neg_vec
    add = R.add_table
    for r in R.elements():
        vals = add[R.one, neg[R.mul_table[r]]]
        if unit_flag[vals].all():
            out |= 1 << r
    return out


# -- field and domain subsets ---------------------------------------------------


def _internal_identity(R: RingHandle, members: list[int]) -> int | None:
    sub = R.mul_table[np.ix_(members, members)]
    arr = np.array(members)
    for i in range(len(members)):
        if np.array_equal(sub[i], arr) and np.array_equal(sub[:, i], arr):
            return members[i]
    return None


def field_subsets(R: RingHandle, limits: EngineLimits | None = None) -> list[FieldSubset]:
    """Subrings that are commutative, have an internal identity e (e need not
    be the ring's 1) and whose nonzero members are invertible within."""

    def compute():
        out = []
        for mask in subrings(R, limits):
            if mask.bit_count() < 2:
                continue
            members = elements_of(mask)
            sub = R.mul_table[np.ix_(members, members)]
            if not np.array_equal(sub, sub.T):
                continue
            e = _internal_identity(R, members)
            if e is None or e == R.zero:
                continue
            invertible = all(
                any(int(sub[i, j]) == e for j in range(len(members)))
                for i in range(len(members))
                if members[i] != R.zero
            )
            if invertible:
                out.append(FieldSubset(mask, e))
        return sorted(out, key=lambda f: f.mask)

    return _cached(R, "field_subsets", compute)


def domain_subsets(R: RingHandle, limits: EngineLimits | None = None) -> list[int]:
    """Subrings with no internal zero divisors (identity not required)."""

    def compute():
        out = []
        for mask in subrings(R, limits):
            members = [x for x in elements_of(mask) if x != R.zero]
            if members:
                sub = R.mul_table[np.ix_(members, members)]
                if (sub == R.zero).any():
                    continue
            out.append(mask)
        return out

    return _cached(R, "domain_subsets", compute)


# -- S-substructures ---------------------------------------------------------------


def _certificates(R, level: str, limits) -> list[tuple[int, int | None]]:
    if level == "I":
        return [(f.mask, f.identity) for f in field_subsets(R, limits)]
    if level == "II":
        return [(m, _internal_identity(R, elements_of(m))) for m in domain_subsets(R, limits) if m.bit_count() >= 2]
    raise ValueError("level must be 'I' or 'II'")


def _qualifies(cert_mask: int, subset: int, full: int, mode: str) -> bool:
    if cert_mask & ~subset:
        return False
    if cert_mask == full:
        return False
    if mode == "strict":
        return cert_mask != subset
    if mode == "lax":
        return True
    raise ValueError("mode must be 'strict' or 'lax'")


def s_subrings(
    R: RingHandle, level: str = "I", mode: str = "strict", limits: EngineLimits | None = None
) -> list[SubstructureVerdict]:
    """Proper subrings carrying a field (level I) or domain (level II) subset."""
    full = (1 << R.cardinality) - 1
    certs = _certificates(R, level, limits)
    out = []
    for mask in subrings(R, limits):
        if mask == full:
            continue
        found = [c for c in certs if _qualifies(c[0], mask, full, mode)]
        if found:
            best = min(found, key=lambda c: (c[0].bit_count(), c[0]))
            out.append(SubstructureVerdict(mask, "s_subring", level, mode, best[0], best[1]))
    return sorted(out, key=lambda v: v.mask)


def s_ideals(
    R: RingHandle,
    level: str = "I",
    mode: str = "strict",
    include_trivial: bool = True,
    side: str = "two_sided",
    limits: EngineLimits | None = None,
) -> list[SubstructureVerdict]:
    """Ideals carrying a certificate per level/mode; {0} and R join the family
    by convention when include_trivial is set."""
    full = (1 << R.cardinality) - 1
    zero_mask = 1 << R.zero
    certs = _certificates(R, level, limits)
    out = []
    for mask in ideals(R, side, limits):
        if mask in (full, zero_mask):
            continue
        found = [c for c in certs if _qualifies(c[0], mask, full, mode)]
        if found:
            best = min(found, key=lambda c: (c[0].bit_count(), c[0]))
            out.append(SubstructureVerdict(mask, "s_ideal", level, mode, best[0], best[1]))
    if include_trivial:
        out.append(SubstructureVerdict(zero_mask, "s_ideal", level, mode, None, None, trivial=True))
        out.append(SubstructureVerdict(full, "s_ideal", level, mode, None, None, trivial=True))
    return sorted(out, key=lambda v: v.mask)


# The substructure families the CLI and the claim ledger enumerate, in the
# CLI's order: id -> members(R, level, mode, include_trivial).  Members are
# masks, or records carrying one in ``.mask``.  The CLI spells each id with
# hyphens for underscores.
FAMILIES = {
    "additive_subgroups": lambda R, level, mode, trivial: additive_subgroups(R),
    "subrings": lambda R, level, mode, trivial: subrings(R),
    "ideals": lambda R, level, mode, trivial: ideals(R, "two_sided"),
    "left_ideals": lambda R, level, mode, trivial: ideals(R, "left"),
    "right_ideals": lambda R, level, mode, trivial: ideals(R, "right"),
    "field_subsets": lambda R, level, mode, trivial: field_subsets(R),
    "s_subrings": lambda R, level, mode, trivial: s_subrings(R, level, mode),
    "s_ideals": lambda R, level, mode, trivial: s_ideals(R, level, mode, trivial),
}


def has_s_ring(R: RingHandle, level: str = "I", mode: str = "strict", limits=None):
    """Ring-level S-property: a qualifying certificate inside R itself."""
    full = (1 << R.cardinality) - 1
    for cert, ident in _certificates(R, level, limits):
        if _qualifies(cert, full, full, "lax"):  # cert != R is the only constraint
            return True, (cert, ident)
    return False, None


def s_pseudo_ideals(
    R: RingHandle, field_mask: int, side: str = "two_sided", limits: EngineLimits | None = None
) -> list[int]:
    """Additive subgroups S with S.B in S (right), B.S in S (left), or both,
    relative to the designated field subset B."""
    fields = {f.mask for f in field_subsets(R, limits)}
    if field_mask not in fields:
        raise ValueError("related subset is not a field subset of the ring")
    ok, _ = has_s_ring(R, "I", "strict", limits)
    ok_lax, _ = has_s_ring(R, "I", "lax", limits)
    if not (ok or ok_lax):
        raise ValueError(f"{R.name}: S-pseudo ideals are defined only on rings with a field subset")
    b_members = elements_of(field_mask)
    family, gens = additive_subgroups(R, limits, with_generators=True)
    mul = R.mul_table
    out = []
    for mask in family:
        g = gens[mask] or [R.zero]
        right_ok = all(contains(mask, int(v)) for v in mul[np.ix_(g, b_members)].ravel())
        left_ok = all(contains(mask, int(v)) for v in mul[np.ix_(b_members, g)].ravel())
        if (side == "right" and right_ok) or (side == "left" and left_ok) or (
            side == "two_sided" and left_ok and right_ok
        ):
            out.append(mask)
    return out


@dataclass(frozen=True)
class SMaxMinFlags:
    mask: int
    s_maximal: bool
    s_minimal: bool


def s_maximal_minimal(R: RingHandle, family: list[SubstructureVerdict]) -> list[SMaxMinFlags]:
    """Maximal/minimal flags inside the S-ideal family's inclusion poset.

    Flags apply to nontrivial proper members only.  A member above M other
    than R kills maximality; any member strictly below I (the conventional
    {0} included) kills minimality, so with the trivial convention active no
    nontrivial member is ever S-minimal.
    """
    full = (1 << R.cardinality) - 1
    zero_mask = 1 << R.zero
    masks = [v.mask for v in family]
    out = []
    for v in family:
        if v.mask in (full, zero_mask):
            continue
        maximal = not any(m != v.mask and m != full and v.mask & m == v.mask for m in masks)
        minimal = not any(m != v.mask and m & v.mask == m for m in masks)
        out.append(SMaxMinFlags(v.mask, maximal, minimal))
    return out


def s_characteristic(R: RingHandle, limits: EngineLimits | None = None) -> set[int]:
    """Characteristics (additive exponents) of every field/domain certificate."""
    orders = additive_orders(R)
    out = set()
    certs = {f.mask for f in field_subsets(R, limits)}
    certs |= {m for m in domain_subsets(R, limits) if m.bit_count() >= 2}
    for mask in certs:
        out.add(math.lcm(*orders[elements_of(mask)].tolist()))
    return out


def s_simplicity(R: RingHandle, level: str = "I", mode: str = "strict", limits=None):
    """S-simple at a level iff R is an S-ring at that level and its nontrivial
    S-ideal family is empty; None when the predicate does not apply."""
    is_s, _ = has_s_ring(R, level, mode, limits)
    if not is_s:
        return None
    nontrivial = [v for v in s_ideals(R, level, mode, include_trivial=False, limits=limits)]
    return not nontrivial
