"""Enumeration of subrings, ideals, field/domain subsets and S-substructures.

Families are lists of bitmasks in canonical (ascending mask) order, each
cached per ring handle with an array of additive generators, one row per
member.  Additive subgroups are every join of the cyclic subgroups that
``rings.additive_group`` reads off (R,+), grown by ``bits.grow_family``;
when (R,+) is elementary abelian they are its subspaces over the basis
``rings.additive_generators``, built as array blocks of reduced echelon
forms (one rank and pivot set each), spans as one matrix product.  Subrings,
ideals of each side and S-pseudo ideals come out of one absorption filter,
``_absorbing``, which gathers every generator product of a block of members
from ``mul_table`` at once; field/domain subsets filter the subrings, and
S-substructures pick their least certificate off membership rows.  A
generated ideal is read off the cached ideal family rather than closed again.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bits import distinct, elements_of, grow_family, mask_of, masks_of, rows_of, within
from .config import DEFAULT_LIMITS, EngineLimits
from .errors import CapacityError
from .rings import RingHandle, _cached, additive_generators, additive_group, is_prime


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


# cells per array block (forms times span, or members times columns): a few
# MB of temporaries whatever the family size
_BLOCK = 1 << 18


def _gaussian_binomial(d: int, k: int, p: int) -> int:
    """The number of k-dimensional subspaces of F_p^d."""
    return math.prod(p ** (d - i) - 1 for i in range(k)) // math.prod(p ** (i + 1) - 1 for i in range(k))


def _subspaces(R: RingHandle, p: int, limits: EngineLimits):
    """Every subspace of (R,+) as an F_p space over the basis
    ``additive_generators``, as (masks, echelon rows as element codes), one
    block of reduced echelon forms (one rank and pivot set) at a time."""
    add, basis = R.add_table, additive_generators(R)
    d = len(basis)
    if sum(_gaussian_binomial(d, k, p) for k in range(d + 1)) > limits.family_cap:
        raise CapacityError("subspace family cap exceeded", partial_count=limits.family_cap)
    multiples = [np.full(d, R.zero)]  # row c: c times each basis element
    for _ in range(p - 1):
        multiples.append(add[multiples[-1], basis])
    multiples = np.array(multiples)
    coords = np.indices((p,) * d).reshape(d, -1)  # column j: the j-th vector in C order
    code_of = np.full(coords.shape[1], R.zero)  # element at each coordinate vector
    for i, c in enumerate(coords):
        code_of = add[code_of, multiples[c, i]]
    place = p ** np.arange(d - 1, -1, -1)  # coordinate vector -> its index in code_of
    masks, gens = [], []
    for k in range(d + 1):
        coeffs = np.array(list(itertools.product(range(p), repeat=k)), dtype=np.int64).reshape(p**k, k)
        step = max(1, _BLOCK // (len(coeffs) * d))
        for pivots in itertools.combinations(range(d), k):
            free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, d) if j not in pivots]
            fi, fj = np.array(free, dtype=np.int64).reshape(-1, 2).T
            for start in range(0, p ** len(free), step):
                fills = np.arange(start, min(start + step, p ** len(free)))
                rows = np.zeros((len(fills), k, d), dtype=np.int64)
                rows[:, np.arange(k), list(pivots)] = 1
                rows[:, fi, fj] = fills[:, None] // p ** np.arange(len(free))[::-1] % p
                span = code_of[(coeffs @ rows % p) @ place]  # (forms, p^k) members
                member = np.zeros((len(fills), R.cardinality), dtype=bool)
                np.put_along_axis(member, span, True, axis=1)
                masks += masks_of(member)
                gens.append(np.pad(code_of[rows @ place], ((0, 0), (0, d - k)), constant_values=R.zero))
    order = sorted(range(len(masks)), key=masks.__getitem__)
    return [masks[i] for i in order], np.concatenate(gens)[order]


def additive_subgroups(
    R: RingHandle, limits: EngineLimits | None = None, with_generators: bool = False
):
    """All subsets closed under + and negation containing 0; with_generators
    adds an array whose row i is an additive generating set of member i,
    padded with the zero code."""
    family, gens = _cached(R, "additive_subgroups", lambda: _additive_subgroups(R, limits or R.limits))
    return (family, gens) if with_generators else family


def _additive_subgroups(R: RingHandle, limits: EngineLimits):
    if not R.enumerable:
        raise CapacityError(f"{R.name}: not enumerable")
    group = additive_group(R)
    if is_prime(group.exponent):  # (R,+) is elementary abelian
        return _subspaces(R, group.exponent, limits)
    # (R,+) is abelian: every subgroup is a join (sumset) of cyclic subgroups
    add = R.add_table
    members = functools.cache(elements_of)
    gens_by_mask = grow_family(
        sorted(group.cyclics.items()),
        lambda a, b: mask_of(distinct(add[np.ix_(members(a), members(b))]).tolist()),
        limits.family_cap,
        "additive subgroup",
    )
    family = sorted(gens_by_mask)
    width = max(map(len, gens_by_mask.values()))
    return family, np.array([gens_by_mask[m] + [R.zero] * (width - len(gens_by_mask[m])) for m in family])


# -- subrings and ideals ------------------------------------------------------


def _absorbing(R: RingHandle, left, right, limits: EngineLimits | None) -> list[int]:
    """The additive subgroups S with a.g and g.b in S for every generator g
    of S, a in left and b in right; left None stands for S's own generators,
    which makes S closed under multiplication.  By bilinearity that is
    left.S and S.right within S.  Members are checked in row blocks: each
    block's products are one gather from ``mul_table``."""
    family, gens = additive_subgroups(R, limits, with_generators=True)
    mul, n, right = R.mul_table, R.cardinality, np.array(right, dtype=np.int64)
    width = gens.shape[1] * ((gens.shape[1] if left is None else len(left)) + len(right))
    step = max(1, _BLOCK // (n + width))
    out = []
    for start in range(0, len(family), step):
        masks, g = family[start : start + step], gens[start : start + step]
        a = g if left is None else np.array(left, dtype=np.int64)[None, :]  # (member or 1, multiplier)
        products = [mul[a[:, :, None], g[:, None, :]], mul[g[:, :, None], right[None, None, :]]]
        products = np.concatenate([x.reshape(len(g), -1) for x in products], axis=1)
        out += itertools.compress(masks, np.take_along_axis(rows_of(masks, n), products, axis=1).all(axis=1))
    return out


def _sides(side: str, multipliers: list[int]):
    """(left, right) multipliers of ``_absorbing`` for one sidedness."""
    return {"left": (multipliers, []), "right": ([], multipliers), "two_sided": (multipliers, multipliers)}[side]


def subrings(R: RingHandle, limits: EngineLimits | None = None) -> list[int]:
    """Additive subgroups closed under multiplication; 1 not required."""
    return _cached(R, "subrings", lambda: _absorbing(R, None, [], limits))


def ideals(R: RingHandle, side: str = "two_sided", limits: EngineLimits | None = None) -> list[int]:
    return _cached(R, ("ideals", side), lambda: _absorbing(R, *_sides(side, additive_generators(R)), limits))


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


def _prime_order_subrings(R: RingHandle, limits: EngineLimits | None):
    """Subrings whose nonzero members share one additive order m, with their
    members and product table; m is then prime, as ra has order s if m = rs.  No
    others are fields or domains: (ra)(sa) = 0, and coprime orders multiply to 0."""
    orders = additive_group(R).orders.tolist()
    spans = [mask_of(x for x, o in enumerate(orders) if o in (1, m)) for m in set(orders)]
    for mask in subrings(R, limits):
        if any(mask & ~span == 0 for span in spans):
            members = elements_of(mask)
            yield mask, members, R.mul_table[np.ix_(members, members)]


def field_subsets(R: RingHandle, limits: EngineLimits | None = None) -> list[FieldSubset]:
    """Subrings that are commutative, have an internal identity e (e need not
    be the ring's 1) and whose nonzero members are invertible within."""

    def compute():
        out = []
        for mask, members, sub in _prime_order_subrings(R, limits):
            if not np.array_equal(sub, sub.T):
                continue
            e = _internal_identity(R, members)
            if e is None or e == R.zero:
                continue
            if (sub == e).any(axis=1)[np.array(members) != R.zero].all():
                out.append(FieldSubset(mask, e))
        return sorted(out, key=lambda f: f.mask)

    return _cached(R, "field_subsets", compute)


def domain_subsets(R: RingHandle, limits: EngineLimits | None = None) -> list[int]:
    """Subrings with no internal zero divisors (identity not required): of the
    n^2 products of n members, only the 2n - 1 in the zero row and column are 0."""

    def compute():
        return [
            mask
            for mask, members, sub in _prime_order_subrings(R, limits)
            if np.count_nonzero(sub == R.zero) == 2 * len(members) - 1
        ]

    return _cached(R, "domain_subsets", compute)


# -- S-substructures ---------------------------------------------------------------


def _certificates(R, level: str, limits) -> list[tuple[int, int | None]]:
    if level == "I":
        return [(f.mask, f.identity) for f in field_subsets(R, limits)]
    if level == "II":
        return [(m, _internal_identity(R, elements_of(m))) for m in domain_subsets(R, limits) if m.bit_count() >= 2]
    raise ValueError("level must be 'I' or 'II'")


def _certified(R: RingHandle, masks: list[int], certs, mode: str):
    """(mask, certificate, identity) for each of masks that holds a
    certificate other than R (in strict mode, other than the mask too), with
    the least one by (size, mask); containment is read off membership rows."""
    if mode not in ("strict", "lax"):
        raise ValueError("mode must be 'strict' or 'lax'")
    n, full = R.cardinality, (1 << R.cardinality) - 1
    certs = sorted((c for c in certs if c[0] != full), key=lambda c: (c[0].bit_count(), c[0]))
    if not certs:
        return []
    cert_rows, sizes = rows_of([c for c, _ in certs], n), np.array([[c.bit_count()] for c, _ in certs])
    out = []
    step = max(1, _BLOCK // (n + len(certs)))
    for start in range(0, len(masks), step):
        block = masks[start : start + step]
        rows = rows_of(block, n)
        ok = within(cert_rows, rows)  # (certificate, member)
        if mode == "strict":
            ok &= sizes < rows.sum(axis=1)
        out += [(m, *certs[i]) for m, i, hit in zip(block, ok.argmax(axis=0).tolist(), ok.any(axis=0).tolist()) if hit]
    return out


def s_subrings(
    R: RingHandle, level: str = "I", mode: str = "strict", limits: EngineLimits | None = None
) -> list[SubstructureVerdict]:
    """Proper subrings carrying a field (level I) or domain (level II) subset."""
    certs = _certificates(R, level, limits)  # refuses a ring above the enumeration cap
    full = (1 << R.cardinality) - 1
    masks = [m for m in subrings(R, limits) if m != full]
    return [SubstructureVerdict(m, "s_subring", level, mode, c, e) for m, c, e in _certified(R, masks, certs, mode)]


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
    certs = _certificates(R, level, limits)  # refuses a ring above the enumeration cap
    full = (1 << R.cardinality) - 1
    zero_mask = 1 << R.zero
    masks = [m for m in ideals(R, side, limits) if m not in (full, zero_mask)]
    out = [SubstructureVerdict(m, "s_ideal", level, mode, c, e) for m, c, e in _certified(R, masks, certs, mode)]
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
    certs = _certificates(R, level, limits)  # refuses a ring above the enumeration cap
    full = (1 << R.cardinality) - 1
    found = next((c for c in certs if c[0] != full), None)  # a certificate other than R
    return found is not None, found


def s_pseudo_ideals(
    R: RingHandle, field_mask: int, side: str = "two_sided", limits: EngineLimits | None = None
) -> list[int]:
    """Additive subgroups S with S.B in S (right), B.S in S (left), or both,
    relative to the designated field subset B."""
    fields = {f.mask for f in field_subsets(R, limits)}
    if field_mask not in fields:
        raise ValueError("related subset is not a field subset of the ring")
    if not has_s_ring(R, "I", "lax", limits)[0]:  # the ring-level property ignores the mode
        raise ValueError(f"{R.name}: S-pseudo ideals are defined only on rings with a field subset")
    return _absorbing(R, *_sides(side, elements_of(field_mask)), limits)


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
    orders = additive_group(R).orders
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
