"""Special-element censuses with per-element witness records.

Every verdict carries the concrete elements certifying it, and every
witness re-verifies under direct evaluation of the defining equations
(see verify_witness).  Searches scan element codes in ascending order, so
the recorded witness is canonical.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass

import numpy as np

from .bits import contains, elements_of
from .errors import CapacityError
from .rings import RingHandle
from .substructures import _cached, field_subsets, ideal_generated, units_mask


@dataclass(frozen=True)
class WitnessRecord:
    category: str
    subject: tuple[int, ...]  # the element (or ordered pair) classified
    roles: dict  # role-tagged auxiliary elements: y, a, b, r, s ...
    clause: str  # which disjunct of the defining condition fired


def _ensure_enumerable(R: RingHandle) -> None:
    if not R.enumerable:
        raise CapacityError(f"{R.name}: census needs an enumerable ring")


def _once_per_ring(classify):
    """Run ``classify`` at most once per ring and arguments; callers share
    the result and must not mutate it."""
    signature = inspect.signature(classify)

    @functools.wraps(classify)
    def cached(R: RingHandle, *args, **kwargs):
        call = signature.bind(R, *args, **kwargs)
        call.apply_defaults()
        key = (classify.__name__, *call.args[1:])
        return _cached(R, key, lambda: classify(*call.args))

    return cached


# -- units ---------------------------------------------------------------------


def inverses(R: RingHandle) -> dict[int, int]:
    if R.one is None:
        return {}
    out = {}
    hits = R.mul_table == R.one
    both = hits & hits.T
    for x in range(R.cardinality):
        ys = np.where(both[x])[0]
        if len(ys):
            out[x] = int(ys[0])
    return out


@_once_per_ring
def classify_units(R: RingHandle):
    """Units and S-units.  An S-unit x (xy = 1, x != 1) needs a, b outside
    {x, y, 1} with ab = 1 and one of xa = y, ax = y, yb = x, by = x; elements
    with x^2 = 1 never qualify."""
    _ensure_enumerable(R)
    inv = inverses(R)
    units = sorted(inv)
    s_units = []
    witnesses: dict[int, WitnessRecord] = {}
    mul = R.mul_table
    for x in units:
        if x == R.one:
            continue
        y = inv[x]
        if y == x:  # x^2 = 1 is excluded outright
            continue
        excluded = {x, y, R.one}
        for a in units:
            if a in excluded:
                continue
            b = inv[a]
            if b in excluded:
                continue
            clause = None
            if int(mul[x, a]) == y:
                clause = "xa=y"
            elif int(mul[a, x]) == y:
                clause = "ax=y"
            elif int(mul[y, b]) == x:
                clause = "yb=x"
            elif int(mul[b, y]) == x:
                clause = "by=x"
            if clause:
                s_units.append(x)
                witnesses[x] = WitnessRecord("s_unit", (x,), {"y": y, "a": a, "b": b}, clause)
                break
    return units, s_units, witnesses


# -- zero divisors ----------------------------------------------------------------


@_once_per_ring
def classify_zero_divisors(R: RingHandle):
    """Zero-divisor elements and S-zero-divisor pairs (ordered; both
    orientations of a symmetric pair are reported)."""
    _ensure_enumerable(R)
    mul = R.mul_table
    n = R.cardinality
    zd = sorted(
        x
        for x in range(n)
        if x != R.zero
        and (
            ((mul[x] == R.zero) & (np.arange(n) != R.zero)).any()
            or ((mul[:, x] == R.zero) & (np.arange(n) != R.zero)).any()
        )
    )
    annih = {}
    for x in range(n):
        annih[x] = sorted(
            {int(v) for v in np.where(mul[x] == R.zero)[0]}
            | {int(v) for v in np.where(mul[:, x] == R.zero)[0]}
        )
    pairs = []
    witnesses: dict[tuple[int, int], WitnessRecord] = {}
    for x in zd:
        for y in np.where(mul[x] == R.zero)[0]:
            y = int(y)
            if y == R.zero or x == R.zero:
                continue
            found = None
            for a in annih[x]:
                if a in (R.zero, x, y):
                    continue
                for b in annih[y]:
                    if b in (R.zero, x, y):
                        continue
                    if int(mul[a, b]) != R.zero or int(mul[b, a]) != R.zero:
                        found = (a, b)
                        break
                if found:
                    break
            if found:
                pairs.append((x, y))
                witnesses[(x, y)] = WitnessRecord(
                    "s_zero_divisor", (x, y), {"a": found[0], "b": found[1]}, "ab!=0"
                )
    return zd, pairs, witnesses


# -- idempotents ------------------------------------------------------------------


@_once_per_ring
def classify_idempotents(R: RingHandle):
    """Idempotents (0 and 1 excluded), S-idempotents and the co-idempotent map.

    x is an S-idempotent when some a outside {x, 1, 0} has a^2 = x and one of
    xa = a, ax = a, ax = x, xa = x (four-way disjunction).  Co-idempotents of
    x are all y outside {0, 1, x} with y^2 = x and yx = x or xy = y; the map
    keeps every such y because co-idempotents are not unique.
    """
    _ensure_enumerable(R)
    mul = R.mul_table
    trivial = {R.zero} | ({R.one} if R.one is not None else set())
    idem = sorted(x for x in R.elements() if x not in trivial and int(mul[x, x]) == x)
    s_idem = []
    witnesses = {}
    co_map: dict[int, list[int]] = {}
    for x in idem:
        excluded = {x, R.zero} | ({R.one} if R.one is not None else set())
        for a in R.elements():
            if a in excluded or int(mul[a, a]) != x:
                continue
            clause = None
            if int(mul[x, a]) == a:
                clause = "xa=a"
            elif int(mul[a, x]) == a:
                clause = "ax=a"
            elif int(mul[a, x]) == x:
                clause = "ax=x"
            elif int(mul[x, a]) == x:
                clause = "xa=x"
            if clause:
                s_idem.append(x)
                witnesses[x] = WitnessRecord("s_idempotent", (x,), {"a": a}, clause)
                break
        cos = []
        for y in R.elements():
            if y in excluded or int(mul[y, y]) != x:
                continue
            if int(mul[y, x]) == x or int(mul[x, y]) == y:
                cos.append(y)
        if cos:
            co_map[x] = cos
    return idem, s_idem, witnesses, co_map


# -- nilpotents --------------------------------------------------------------------


def _nonzero_powers(R: RingHandle, x: int) -> tuple[list[int], bool]:
    """Powers x, x^2, ... until zero or a repeat; flag is nilpotency."""
    seen = []
    seen_set = set()
    cur = x
    while cur != R.zero and cur not in seen_set:
        seen.append(cur)
        seen_set.add(cur)
        cur = R.mul(cur, x)
    return seen, cur == R.zero


@_once_per_ring
def classify_nilpotents(R: RingHandle):
    """Nilpotents and S-nilpotents: x nilpotent with some non-nilpotent
    y outside {0, x} killed against a nonzero power of x."""
    _ensure_enumerable(R)
    powers = {}
    nil = []
    for x in R.elements():
        if x == R.zero:
            continue
        p, is_nil = _nonzero_powers(R, x)
        powers[x] = p
        if is_nil:
            nil.append(x)
    nil_set = set(nil)
    s_nil = []
    witnesses = {}
    for x in nil:
        found = None
        for y in R.elements():
            if y in (R.zero, x) or y in nil_set:
                continue
            for r, xr in enumerate(powers[x], start=1):
                if R.mul(xr, y) == R.zero:
                    found = WitnessRecord("s_nilpotent", (x,), {"y": y, "r": r}, "x^r.y=0")
                    break
                if R.mul(y, xr) == R.zero:
                    found = WitnessRecord("s_nilpotent", (x,), {"y": y, "s": r}, "y.x^s=0")
                    break
            if found:
                break
        if found:
            s_nil.append(x)
            witnesses[x] = found
    return nil, s_nil, witnesses


# -- semi idempotents ---------------------------------------------------------------


@dataclass(frozen=True)
class SemiIdempotentVerdict:
    element: int
    qualifies: bool
    generated_ideal: int | None  # mask of <x^2 - x>; None for the 0 convention
    certificate: int | None = None  # field subset of the ideal at S-level 1
    certificate_identity: int | None = None


@_once_per_ring
def semi_idempotents(R: RingHandle, level: str = "plain"):
    """Elements x with x not in <x^2 - x> (or that ideal the whole ring).

    level "plain" counts 0 by convention; "s_level_1" additionally requires
    the generated ideal to be an S-ideal, certified by a field subset
    strictly inside it and other than R (strict mode).
    """
    _ensure_enumerable(R)
    full = (1 << R.cardinality) - 1
    if level == "plain":
        out = [SemiIdempotentVerdict(R.zero, True, None)]
    else:
        out = []
        certs = [(f.mask, f.identity) for f in field_subsets(R)]
    for x in R.elements():
        if x == R.zero:
            continue
        g = R.sub(R.mul(x, x), x)
        ideal = ideal_generated(R, [g], "two_sided")
        plain_ok = (not contains(ideal, x)) or ideal == full
        if level == "plain":
            out.append(SemiIdempotentVerdict(x, plain_ok, ideal))
            continue
        if not plain_ok:
            out.append(SemiIdempotentVerdict(x, False, ideal))
            continue
        found = next(
            ((m, e) for m, e in certs if m & ~ideal == 0 and m not in (ideal, full)), (None, None)
        )
        out.append(SemiIdempotentVerdict(x, found[0] is not None, ideal, *found))
    return out


# -- super idempotents ---------------------------------------------------------------


@dataclass(frozen=True)
class SuperIdempotentVerdict:
    element: int
    defect: int  # x^2 - x
    trivial: bool  # defect == 0
    s_super: bool  # defect is an S-idempotent


@_once_per_ring
def super_idempotents(R: RingHandle) -> list[SuperIdempotentVerdict]:
    """Elements x != 0 whose defect x^2 - x is an idempotent."""
    _ensure_enumerable(R)
    _, s_idem, _, _ = classify_idempotents(R)
    s_set = set(s_idem)
    out = []
    for x in R.elements():
        if x == R.zero:
            continue
        t = R.sub(R.mul(x, x), x)
        if R.mul(t, t) == t:
            out.append(SuperIdempotentVerdict(x, t, t == R.zero, t in s_set))
    return out


# -- SS and SSS elements ----------------------------------------------------------------


@_once_per_ring
def ss_elements(R: RingHandle):
    """SS elements a (a^2 = a + a, a outside {0, 1+1}) and SSS pairs
    (x, y), y != x, with xy = x + y; ordered pairs, both orientations kept."""
    _ensure_enumerable(R)
    two = R.add(R.one, R.one) if R.one is not None else None
    ss = []
    for a in R.elements():
        if a == R.zero or (two is not None and a == two):
            continue
        if R.mul(a, a) == R.add(a, a):
            ss.append(a)
    sss = []
    for x in R.elements():
        for y in R.elements():
            if y == x:
                continue
            if R.mul(x, y) == R.add(x, y):
                sss.append((x, y))
    return ss, sss


# -- semiunits ----------------------------------------------------------------------------


def semiunits(R: RingHandle, level: str = "plain"):
    """x with (x+1)(y+1) = 1 for some y != 0; the Smarandache level demands
    x+1 and y+1 be S-units."""
    _ensure_enumerable(R)
    if R.one is None:
        return [], {}
    s_units: set[int] = set()
    if level == "smarandache":
        _, su, _ = classify_units(R)
        s_units = set(su)
    out = []
    witnesses = {}
    for x in R.elements():
        for y in R.elements():
            if y == R.zero:
                continue
            xp, yp = R.add(x, R.one), R.add(y, R.one)
            if R.mul(xp, yp) != R.one:
                continue
            if level == "smarandache" and not (xp in s_units and yp in s_units):
                continue
            out.append(x)
            witnesses[x] = WitnessRecord("semiunit", (x,), {"y": y}, "(x+1)(y+1)=1")
            break
    return out, witnesses


# -- clean and regular elements ------------------------------------------------------------


def clean_elements(R: RingHandle, idempotent_policy: str = "nontrivial") -> list[int]:
    """Sums of an idempotent and a unit; policy 'nontrivial' bars e in {0, 1}."""
    _ensure_enumerable(R)
    units = elements_of(units_mask(R))
    idems = [x for x in R.elements() if R.mul(x, x) == x]
    if idempotent_policy == "nontrivial":
        idems = [e for e in idems if e not in (R.zero, R.one)]
    elif idempotent_policy != "any":
        raise ValueError("idempotent_policy must be 'nontrivial' or 'any'")
    out = set()
    for e in idems:
        for u in units:
            out.add(R.add(e, u))
    return sorted(out)


def regular_elements(R: RingHandle) -> list[int]:
    """{s : sr != 0 and rs != 0 for every r != 0}."""
    _ensure_enumerable(R)
    mul = R.mul_table
    out = []
    nonzero = [r for r in R.elements() if r != R.zero]
    for s in R.elements():
        if all(int(mul[s, r]) != R.zero and int(mul[r, s]) != R.zero for r in nonzero):
            out.append(s)
    return out


# -- census table ----------------------------------------------------------------------


def _qualifying(verdicts) -> list[int]:
    return [v.element for v in verdicts if v.qualifies]


# The element censuses the classify report and the claim ledger read, in the
# report's key order: id -> census(R).  Censuses that need a 1 are empty on
# rings without one.  Entries call through the module's names, so a wrapper
# installed on one (the benchmark's span recorder) sees every call.
CENSUSES = {
    "units": lambda R: classify_units(R)[0],
    "s_units": lambda R: classify_units(R)[1],
    "s_unit_witnesses": lambda R: classify_units(R)[2],
    "zero_divisors": lambda R: classify_zero_divisors(R)[0],
    "s_zero_divisor_pairs": lambda R: classify_zero_divisors(R)[1],
    "idempotents": lambda R: classify_idempotents(R)[0],
    "s_idempotents": lambda R: classify_idempotents(R)[1],
    "s_idempotent_witnesses": lambda R: classify_idempotents(R)[2],
    "co_idempotents": lambda R: classify_idempotents(R)[3],
    "nilpotents": lambda R: classify_nilpotents(R)[0],
    "s_nilpotents": lambda R: classify_nilpotents(R)[1],
    "semi_idempotents": lambda R: _qualifying(semi_idempotents(R)),
    "s_semi_idempotents_1": lambda R: _qualifying(semi_idempotents(R, "s_level_1")),
    "super_idempotents": lambda R: [v.element for v in super_idempotents(R)],
    "nontrivial_super_idempotents": lambda R: [
        v.element for v in super_idempotents(R) if not v.trivial
    ],
    "s_super_idempotents": lambda R: [v.element for v in super_idempotents(R) if v.s_super],
    "ss_elements": lambda R: ss_elements(R)[0],
    "sss_pairs": lambda R: ss_elements(R)[1],
    "semiunits": lambda R: semiunits(R)[0],
    "s_semiunits": lambda R: semiunits(R, "smarandache")[0],
    "clean_elements": lambda R: clean_elements(R),
    "regular_elements": lambda R: regular_elements(R),
}


# -- witness round-trip --------------------------------------------------------------------


def verify_witness(R: RingHandle, rec: WitnessRecord) -> bool:
    """Re-evaluate the defining equations on the stored witnesses."""
    if rec.category == "s_unit":
        (x,) = rec.subject
        y, a, b = rec.roles["y"], rec.roles["a"], rec.roles["b"]
        if R.mul(x, y) != R.one or R.mul(y, x) != R.one:
            return False
        if x == y or {a, b} & {x, y, R.one}:
            return False
        if R.mul(a, b) != R.one:
            return False
        return (
            R.mul(x, a) == y or R.mul(a, x) == y or R.mul(y, b) == x or R.mul(b, y) == x
        )
    if rec.category == "s_zero_divisor":
        x, y = rec.subject
        a, b = rec.roles["a"], rec.roles["b"]
        if R.zero in (x, y) or {a, b} & {R.zero, x, y}:
            return False
        if R.mul(x, y) != R.zero:
            return False
        c1 = R.mul(x, a) == R.zero or R.mul(a, x) == R.zero
        c2 = R.mul(y, b) == R.zero or R.mul(b, y) == R.zero
        c3 = R.mul(a, b) != R.zero or R.mul(b, a) != R.zero
        return c1 and c2 and c3
    if rec.category == "s_idempotent":
        (x,) = rec.subject
        a = rec.roles["a"]
        if a in (x, R.zero) or (R.one is not None and a == R.one):
            return False
        if R.mul(x, x) != x or R.mul(a, a) != x:
            return False
        return x in (R.mul(x, a), R.mul(a, x)) or a in (R.mul(x, a), R.mul(a, x))
    if rec.category == "s_nilpotent":
        (x,) = rec.subject
        y = rec.roles["y"]
        powers, x_nil = _nonzero_powers(R, x)
        _, y_nil = _nonzero_powers(R, y)
        if not x_nil or y_nil or y in (R.zero, x):
            return False
        return any(R.mul(p, y) == R.zero or R.mul(y, p) == R.zero for p in powers)
    if rec.category == "semiunit":
        (x,) = rec.subject
        y = rec.roles["y"]
        if y == R.zero:
            return False
        ok = R.mul(R.add(x, R.one), R.add(y, R.one)) == R.one
        # the characterisation x + y + xy = 0 must agree
        alt = R.add(R.add(x, y), R.mul(x, y)) == R.zero
        return ok and alt
    raise ValueError(f"unknown witness category {rec.category!r}")
