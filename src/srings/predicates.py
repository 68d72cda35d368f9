"""Ring-level classifications with witnesses or counterexamples.

A verdict is True/False, or None for "not applicable" when a definition's
precondition (usually "the ring carries a field subset") fails: that is a
distinct outcome, not falsity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import contains, elements_of, mask_of
from .errors import CapacityError
from .rings import RingHandle, additive_orders, is_prime, subring_as_ring
from .structures import is_s_semigroup
from .elements import classify_idempotents, classify_nilpotents, classify_zero_divisors
from .substructures import (
    domain_subsets,
    field_subsets,
    has_s_ring,
    ideals,
    s_ideals,
    s_simplicity,
    s_subrings,
    subrings,
    units_mask,
)


@dataclass(frozen=True)
class PredicateVerdict:
    predicate: str
    verdict: bool | None  # None = not applicable
    witness: object = None
    counterexample: object = None
    mode: str | None = None
    detail: str | None = None


# -- basic structure ------------------------------------------------------------


def commutativity(R: RingHandle) -> PredicateVerdict:
    mul = R.mul_table
    bad = np.argwhere(mul != mul.T)
    if len(bad):
        a, b = bad[0]
        return PredicateVerdict("commutative", False, counterexample=(int(a), int(b)))
    return PredicateVerdict("commutative", True)


def basic_census(R: RingHandle) -> list[PredicateVerdict]:
    """Field / integral domain / division ring / boolean flags by direct scan."""
    comm = commutativity(R)
    units = units_mask(R)
    n = R.cardinality
    zd, _, _ = classify_zero_divisors(R)
    nonzero_all_units = all(
        contains(units, x) for x in R.elements() if x != R.zero
    ) and R.one is not None and n > 1
    field = comm.verdict and nonzero_all_units and not zd
    domain = bool(comm.verdict) and not zd and n > 1
    division = (not comm.verdict) and nonzero_all_units and not zd
    boolean = all(R.mul(x, x) == x for x in R.elements())
    return [
        comm,
        PredicateVerdict("field", bool(field), counterexample=None if field else (zd[:1] or None)),
        PredicateVerdict("integral_domain", domain, counterexample=zd[:1] or None),
        PredicateVerdict("division_ring", bool(division)),
        PredicateVerdict("boolean", boolean),
        PredicateVerdict("has_one", R.one is not None),
    ]


# -- S-ring levels -----------------------------------------------------------------


def s_ring(R: RingHandle, level: str = "I", mode: str = "strict") -> PredicateVerdict:
    ok, cert = has_s_ring(R, level, mode)
    return PredicateVerdict(f"s_ring_{level}", ok, witness=cert, mode=mode)


def s_simple(R: RingHandle, level: str = "I", mode: str = "strict") -> PredicateVerdict:
    return PredicateVerdict(f"s_simple_{level}", s_simplicity(R, level, mode), mode=mode)


def s_commutative_II(R: RingHandle, mode: str = "strict") -> tuple[PredicateVerdict, PredicateVerdict]:
    """Standard: some domain/division certificate is commutative.  Strong:
    every S-subring II is commutative as a subring."""
    ok, _ = has_s_ring(R, "II", mode)
    if not ok:
        na = PredicateVerdict("s_commutative_II", None, detail="not an S-ring II")
        return na, PredicateVerdict("s_strongly_commutative_II", None, detail="not an S-ring II")
    witness = None
    for m in domain_subsets(R):
        if m.bit_count() < 2:
            continue
        members = elements_of(m)
        sub = R.mul_table[np.ix_(members, members)]
        if np.array_equal(sub, sub.T):
            witness = m
            break
    standard = PredicateVerdict("s_commutative_II", witness is not None, witness=witness, mode=mode)
    strong = True
    counter = None
    for v in s_subrings(R, "II", mode):
        members = elements_of(v.mask)
        sub = R.mul_table[np.ix_(members, members)]
        if not np.array_equal(sub, sub.T):
            strong = False
            counter = v.mask
            break
    return standard, PredicateVerdict(
        "s_strongly_commutative_II", strong, counterexample=counter, mode=mode
    )


# -- elementwise laws ----------------------------------------------------------------


def _power_data(R: RingHandle, x: int) -> tuple[int, int]:
    """(preperiod, period) of the power sequence x, x^2, ..."""
    seen: dict[int, int] = {}
    cur, i = x, 1
    while cur not in seen:
        seen[cur] = i
        cur = R.mul(cur, x)
        i += 1
    return seen[cur] - 1, i - seen[cur]


def _potency_exponent(R: RingHandle, x: int) -> int | None:
    """Least n > 1 with x^n = x, or None."""
    pre, period = _power_data(R, x)
    return 1 + period if pre == 0 else None


def law_holds_on(R: RingHandle, members: list[int], law: str, p: int | None = None):
    """Evaluate one elementwise law on a subset; returns (holds, data)."""
    if law == "zero_square":
        for x in members:
            if R.mul(x, x) != R.zero:
                return False, x
        return True, None
    if law == "p_ring":
        if p is None:
            # existential prime: px = 0 forces p to be the additive exponent
            p = math.lcm(*additive_orders(R)[members].tolist())
            if not is_prime(p):
                return False, None
        for x in members:
            if R.power(x, p) != x or _n_times(R, p, x) != R.zero:
                return False, x
        return True, p
    if law == "e_ring":
        # uniform n >= 1 with x^(2^n) = x and 2x = 0 on the subset
        for x in members:
            if _n_times(R, 2, x) != R.zero:
                return False, x
        for n_exp in range(1, 13):
            if all(R.power(x, 2**n_exp) == x for x in members if x != R.zero):
                return True, n_exp
        return False, None
    if law in ("j_ring", "weakly_boolean"):
        exps = {}
        for x in members:
            if x == R.zero:
                continue
            e = _potency_exponent(R, x)
            if e is None:
                return False, x
            exps[x] = e
        uniform = _uniform_exponent(R, [x for x in members if x != R.zero])
        return True, {"exponents": exps, "uniform": uniform}
    if law == "pre_j_ring":
        # uniform n in 2..bound with a^n b = a b^n for all pairs
        if not members:
            return True, 2
        bound = 2
        for x in members:
            pre, period = _power_data(R, x)
            bound = max(bound, pre + 1 + period)
        lcm_p = 1
        for x in members:
            lcm_p = math.lcm(lcm_p, _power_data(R, x)[1])
        for n in range(2, bound + lcm_p + 1):
            if all(
                R.mul(R.power(a, n), b) == R.mul(a, R.power(b, n))
                for a in members
                for b in members
                if a != R.zero and b != R.zero
            ):
                return True, n
        return False, None
    raise ValueError(f"unknown law {law!r}")


def _n_times(R: RingHandle, n: int, x: int) -> int:
    acc = R.zero
    for _ in range(n):
        acc = R.add(acc, x)
    return acc


def _uniform_exponent(R: RingHandle, members: list[int]) -> int | None:
    """Least uniform n > 1 with x^n = x for all members, if any."""
    periods = []
    for x in members:
        pre, period = _power_data(R, x)
        if pre != 0:
            return None
        periods.append(period)
    return 1 + math.lcm(*periods) if periods else 2


def elementwise_law(R: RingHandle, law: str, p: int | None = None) -> PredicateVerdict:
    members = list(R.elements())
    holds, data = law_holds_on(R, members, law, p)
    name = law if p is None else f"{law}({p})"
    if holds:
        return PredicateVerdict(name, True, witness=data)
    return PredicateVerdict(name, False, counterexample=data)


def s_localized_law(
    R: RingHandle, law: str, placement: str, p: int | None = None, mode: str = "strict"
) -> PredicateVerdict:
    """A law satisfied by a subring in the placement a definition demands:

    - "subring_of_s_ring": R is an S-ring and some subring of R obeys the law
    - "subring_of_s_subring": some subring B inside an S-subring A obeys it
    - "s_subring": some S-subring itself obeys it
    """
    name = f"s_{law}" if p is None else f"s_{law}({p})"
    # {0} satisfies every elementwise law vacuously; witnesses must be larger
    if placement == "subring_of_s_ring":
        ok, _ = has_s_ring(R, "I", mode)
        if not ok:
            return PredicateVerdict(name, None, detail="not an S-ring I", mode=mode)
        for mask in subrings(R):
            if mask.bit_count() < 2:
                continue
            holds, data = law_holds_on(R, elements_of(mask), law, p)
            if holds:
                return PredicateVerdict(name, True, witness=(mask, data), mode=mode)
        return PredicateVerdict(name, False, mode=mode)
    s_subs = s_subrings(R, "I", mode)
    if not s_subs:
        return PredicateVerdict(name, None, detail="no S-subring", mode=mode)
    if placement == "s_subring":
        for v in s_subs:
            holds, data = law_holds_on(R, elements_of(v.mask), law, p)
            if holds:
                return PredicateVerdict(name, True, witness=(v.mask, data), mode=mode)
        return PredicateVerdict(name, False, mode=mode)
    if placement == "subring_of_s_subring":
        sub_family = subrings(R)
        for v in s_subs:
            for b in sub_family:
                if b & ~v.mask or b.bit_count() < 2:
                    continue
                holds, data = law_holds_on(R, elements_of(b), law, p)
                if holds:
                    return PredicateVerdict(name, True, witness=(v.mask, b, data), mode=mode)
        return PredicateVerdict(name, False, mode=mode)
    raise ValueError(f"unknown placement {placement!r}")


# -- S-domain family -----------------------------------------------------------------


def s_domain_flags(R: RingHandle, mode: str = "strict") -> list[PredicateVerdict]:
    comm = bool(commutativity(R).verdict)
    _, s_pairs, _ = classify_zero_divisors(R)
    nil, s_nil, _ = classify_nilpotents(R)
    s_semiprime = True
    counter = None
    for v in s_ideals(R, "I", mode, include_trivial=False):
        members = elements_of(v.mask)
        if all(R.mul(a, b) == R.zero for a in members for b in members) and v.mask != 1 << R.zero:
            s_semiprime = False
            counter = v.mask
            break
    return [
        PredicateVerdict("s_integral_domain", comm and not s_pairs, counterexample=s_pairs[:1] or None),
        PredicateVerdict("s_division_ring", (not comm) and not s_pairs, counterexample=s_pairs[:1] or None),
        PredicateVerdict("s_semiprime", s_semiprime, counterexample=counter, mode=mode),
        PredicateVerdict("reduced", not nil, counterexample=nil[:1] or None),
        PredicateVerdict("s_reduced", not s_nil, counterexample=s_nil[:1] or None),
    ]


# -- chain conditions ------------------------------------------------------------------


def _totally_ordered(masks: list[int]) -> bool:
    return all(a & ~b == 0 or b & ~a == 0 for a in masks for b in masks)


def chain_ring_flags(R: RingHandle, mode: str = "strict") -> list[PredicateVerdict]:
    ideal_masks = ideals(R)
    chain = PredicateVerdict("chain_ring", _totally_ordered(ideal_masks))
    s_masks = [v.mask for v in s_ideals(R, "I", mode)]
    s_chain = PredicateVerdict("s_chain_ring", _totally_ordered(s_masks), mode=mode)
    weak = None
    s_subs = s_subrings(R, "I", mode)
    if s_subs:
        weak = False
        for v in s_subs:
            A = subring_as_ring(R, v.mask)
            masks_a = [w.mask for w in s_ideals(A, "I", mode)]
            if _totally_ordered(masks_a):
                weak = True
                break
    return [
        chain,
        s_chain,
        PredicateVerdict("s_weakly_chain_ring", weak, mode=mode, detail=None if s_subs else "no S-subring"),
    ]


# -- dispotent -----------------------------------------------------------------------


def dispotent_flags(R: RingHandle, mode: str = "strict") -> list[PredicateVerdict]:
    idem, _, _, _ = classify_idempotents(R)
    disp = PredicateVerdict("dispotent", len(idem) == 2, witness=idem if len(idem) == 2 else None)
    s_disp = None
    s_subs = s_subrings(R, "I", mode)
    if s_subs:
        s_disp = False
        wit = None
        for v in s_subs:
            A = subring_as_ring(R, v.mask)
            _, s_idem_a, _, _ = classify_idempotents(A)
            if len(s_idem_a) == 2:
                s_disp = True
                wit = v.mask
                break
        return [disp, PredicateVerdict("s_dispotent", s_disp, witness=wit, mode=mode)]
    return [disp, PredicateVerdict("s_dispotent", None, detail="no S-subring", mode=mode)]


# -- group / semigroup ring flags -------------------------------------------------------


def s_group_semigroup_ring_flags(R: RingHandle, mode: str = "strict") -> list[PredicateVerdict]:
    if R.construction == "group_ring":
        ok, cert = has_s_ring(R.meta["base"], "I", mode)
        return [
            PredicateVerdict("s_group_ring", ok, witness=cert, mode=mode),
            PredicateVerdict("s_semigroup_ring", None, detail="built over a group, not a semigroup"),
        ]
    if R.construction == "semigroup_ring":
        ok, wit = is_s_semigroup(R.meta["structure"], min_group_size=2)
        ok2, cert = has_s_ring(R.meta["base"], "I", mode)
        return [
            PredicateVerdict("s_group_ring", ok2, witness=cert, mode=mode),
            PredicateVerdict(
                "s_semigroup_ring", ok, witness=(wit.members, wit.identity) if wit else None
            ),
        ]
    return [
        PredicateVerdict("s_group_ring", None, detail="not a structure ring"),
        PredicateVerdict("s_semigroup_ring", None, detail="not a structure ring"),
    ]


# -- orchestration ------------------------------------------------------------------------


# The ring-level predicates the CLI and the claim ledger evaluate, as (ids,
# group): group(R, mode) returns the verdicts of exactly those ids.
PREDICATES = (
    (("commutative", "field", "integral_domain", "division_ring", "boolean", "has_one"),
     lambda R, mode: basic_census(R)),
    (("s_ring_I",), lambda R, mode: [s_ring(R, "I", mode)]),
    (("s_ring_II",), lambda R, mode: [s_ring(R, "II", mode)]),
    (("s_commutative_II", "s_strongly_commutative_II"), lambda R, mode: s_commutative_II(R, mode)),
    (("e_ring",), lambda R, mode: [elementwise_law(R, "e_ring")]),
    (("j_ring",), lambda R, mode: [elementwise_law(R, "j_ring")]),
    (("weakly_boolean",), lambda R, mode: [elementwise_law(R, "weakly_boolean")]),
    (("pre_j_ring",), lambda R, mode: [elementwise_law(R, "pre_j_ring")]),
    (("zero_square",), lambda R, mode: [elementwise_law(R, "zero_square")]),
    (("s_integral_domain", "s_division_ring", "s_semiprime", "reduced", "s_reduced"),
     lambda R, mode: s_domain_flags(R, mode)),
    (("chain_ring", "s_chain_ring", "s_weakly_chain_ring"), lambda R, mode: chain_ring_flags(R, mode)),
    (("dispotent", "s_dispotent"), lambda R, mode: dispotent_flags(R, mode)),
    (("s_group_ring", "s_semigroup_ring"), lambda R, mode: s_group_semigroup_ring_flags(R, mode)),
    (("s_zero_square",),
     lambda R, mode: [s_localized_law(R, "zero_square", "subring_of_s_subring", mode=mode)]),
    (("s_e_ring",), lambda R, mode: [s_localized_law(R, "e_ring", "subring_of_s_subring", mode=mode)]),
    (("s_pre_j_ring",),
     lambda R, mode: [s_localized_law(R, "pre_j_ring", "subring_of_s_subring", mode=mode)]),
    (("s_j_ring",), lambda R, mode: [s_localized_law(R, "j_ring", "s_subring", mode=mode)]),
    (("s_p_ring",), lambda R, mode: [s_localized_law(R, "p_ring", "subring_of_s_ring", mode=mode)]),
    (("s_simple_I",), lambda R, mode: [s_simple(R, "I", mode)]),
    (("s_simple_II",), lambda R, mode: [s_simple(R, "II", mode)]),
)


def run_predicates(R: RingHandle, only: list[str] | None = None, mode: str = "strict"):
    """Evaluate the battery; returns verdicts keyed by predicate id.

    With a filter, only the groups holding a requested id are computed,
    which keeps targeted checks possible on rings above the census caps.
    """
    known = {name for ids, _ in PREDICATES for name in ids}
    for name in only or ():
        if name not in known:
            raise ValueError(f"unknown predicate {name!r}")
    out: dict[str, PredicateVerdict] = {}
    for ids, group in PREDICATES:
        if only is None or not set(ids).isdisjoint(only):
            for v in group(R, mode):
                if only is None or v.predicate in only:
                    out[v.predicate] = v
    return out
