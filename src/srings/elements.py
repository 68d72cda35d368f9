"""Special-element censuses with per-element witness records.

Each census evaluates its defining equations on whole arrays read off
``R.mul_table``, ``R.add_table`` and ``R.neg_vec``, in row blocks of about
``_TABLE_BLOCK`` cells where candidates span a table; power sequences come
from one cached helper, :func:`power_sequences`.  Every verdict carries the
elements certifying it, and searches keep the least witness in ascending
scan order (for an S-zero-divisor pair the least a, then the least b), so
the recorded witness is canonical.  verify_witness re-evaluates a witness
with direct scalar arithmetic: the independent check of ledger witnesses.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bits import contains, distinct, elements_of, rows_of, within
from .errors import CapacityError
from .rings import _TABLE_BLOCK, RingHandle, _cached
from .substructures import field_subsets, ideal_generated, units_mask


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


def _first_hits(rows: int, cols: int, block: Callable[[int, int], np.ndarray]):
    """For each row of a rows x cols array, the least column where it is
    nonzero and the value there (-1 and 0 in a row without one).

    ``block(r0, r1)`` gives rows r0..r1-1; it is asked for about
    ``_TABLE_BLOCK`` cells at a time, so no intermediate grows with rows.
    """
    col = np.full(rows, -1, dtype=np.int64)
    value = np.zeros(rows, dtype=np.int64)
    step = max(1, _TABLE_BLOCK // max(1, cols))
    for r0 in range(0, rows if cols else 0, step):
        hits = block(r0, min(rows, r0 + step))
        first = hits.argmax(axis=1)
        found = hits[np.arange(len(hits)), first]
        col[r0 : r0 + len(hits)] = np.where(found != 0, first, -1)
        value[r0 : r0 + len(hits)] = found
    return col, value


# -- power sequences ------------------------------------------------------------


@dataclass(frozen=True)
class PowerSequences:
    """The sequences x, x^2, x^3, ... of every element at once.

    x^k lies on the sequence's cycle from k = preperiod + 1 on; the cycle has
    ``period`` elements and holds one idempotent, ``idempotent`` (x^omega).
    """

    mul: np.ndarray
    preperiod: np.ndarray
    period: np.ndarray
    idempotent: np.ndarray

    def power(self, k: int) -> np.ndarray:
        """x^k for every element x, by square and multiply."""
        if k < 1:
            raise ValueError("power needs k >= 1")
        if k == 1:
            return np.arange(len(self.mul))
        half = self.power(k // 2)
        return self.mul[self.mul[half, half], self.power(1)] if k & 1 else self.mul[half, half]


@_once_per_ring
def power_sequences(R: RingHandle) -> PowerSequences:
    """Power sequences of every element: ceil(log2 n) squarings, then two
    vectorised walks of at most n steps over the multiplication table."""
    mul = R.mul_table
    n = R.cardinality
    idx = np.arange(n)
    # x^(2^K) with 2^K >= n is on the cycle, since preperiod + 1 <= n
    top = idx
    for _ in range(max(1, (n - 1).bit_length())):
        top = mul[top, top]
    # walk the cycle top.x, top.x^2, ... back to top: its length and idempotent
    period = np.zeros(n, dtype=np.int64)
    idempotent = np.zeros(n, dtype=np.int64)
    rows, z, k = idx, top, 0
    while rows.size:
        k += 1
        z = mul[z, rows]
        idem = mul[z, z] == z
        idempotent[rows[idem]] = z[idem]
        back = z == top[rows]
        period[rows[back]] = k
        rows, z = rows[~back], z[~back]
    # x^k is on the cycle iff x^k e = x^k for the cycle's idempotent e
    preperiod = np.zeros(n, dtype=np.int64)
    rows, z, k = idx, idx, 0
    while rows.size:
        on = mul[z, idempotent[rows]] == z
        preperiod[rows[on]] = k
        rows, z, k = rows[~on], mul[z[~on], rows[~on]], k + 1
    return PowerSequences(mul, preperiod, period, idempotent)


# -- units ---------------------------------------------------------------------


def inverses(R: RingHandle) -> dict[int, int]:
    if R.one is None:
        return {}
    hits = R.mul_table == R.one
    both = hits & hits.T
    units = np.flatnonzero(both.any(axis=1))
    return dict(zip(units.tolist(), both[units].argmax(axis=1).tolist()))


@_once_per_ring
def classify_units(R: RingHandle):
    """Units and S-units.  An S-unit x (xy = 1, x != 1) needs a, b outside
    {x, y, 1} with ab = 1 and one of xa = y, ax = y, yb = x, by = x; elements
    with x^2 = 1 never qualify."""
    _ensure_enumerable(R)
    inv = inverses(R)
    mul = R.mul_table
    U, V = (np.array(list(codes), dtype=np.int64) for codes in (inv, inv.values()))
    keep = (U != R.one) & (V != U)
    X, Y = U[keep], V[keep]

    def block(r0, r1):
        x, y = X[r0:r1, None], Y[r0:r1, None]
        clause = np.select(
            [mul[x, U] == y, mul[U, x] == y, mul[y, V] == x, mul[V, y] == x], [1, 2, 3, 4], 0
        )
        outside = (U != x) & (U != y) & (U != R.one) & (V != x) & (V != y) & (V != R.one)
        return np.where(outside, clause, 0)

    col, clause = _first_hits(len(X), len(U), block)
    witnesses = {
        x: WitnessRecord("s_unit", (x,), {"y": y, "a": a, "b": inv[a]},
                         ("xa=y", "ax=y", "yb=x", "by=x")[k - 1])
        for x, y, a, k in zip(X.tolist(), Y.tolist(), U[col].tolist(), clause.tolist())
        if k
    }
    return list(inv), list(witnesses), witnesses


# -- zero divisors ----------------------------------------------------------------


@_once_per_ring
def classify_zero_divisors(R: RingHandle):
    """Zero-divisor elements and S-zero-divisor pairs (ordered; both
    orientations of a symmetric pair are reported).

    A pair (x, y) with xy = 0 qualifies when some a and b outside {0, x, y},
    a in the annihilator of x and b in that of y, have ab != 0 or ba != 0.
    All four are zero divisors, so the search runs on zero divisors alone:
    one matrix product counts such b for every a and y, and each pair takes
    the least a, then for it the least b.
    """
    _ensure_enumerable(R)
    mul = R.mul_table
    nonzero = np.arange(R.cardinality) != R.zero
    kills = mul == R.zero
    zd = np.flatnonzero(nonzero & ((kills & nonzero).any(axis=1) | (kills & nonzero[:, None]).any(axis=0)))
    # from here on, zero divisors are named by their position in zd
    kills = kills[np.ix_(zd, zd)]
    ann = kills | kills.T  # ann[x, a]: xa = 0 or ax = 0
    live = ~(kills & kills.T)  # live[a, b]: ab != 0 or ba != 0
    # through[a, y]: how many b in the annihilator of y have ab != 0 or
    # ba != 0 (float32 counts are exact below 2^24)
    through = live.astype(np.float32) @ ann.astype(np.float32)
    xs, ys = np.nonzero(kills)

    def first_a(r0, r1):
        x, y = xs[r0:r1], ys[r0:r1]
        # drop b = x (x is in the annihilator of y) and b = y (when y^2 = 0)
        count = through[:, y].T - live[x] - (kills[y, y] & (y != x))[:, None] * live[y]
        a = ann[x] & (count > 0)
        a[np.arange(len(x)), x] = a[np.arange(len(x)), y] = False
        return a

    a_col, _ = _first_hits(len(xs), len(zd), first_a)
    found = a_col >= 0
    xs, ys, a_col = xs[found], ys[found], a_col[found]

    def first_b(r0, r1):
        x, y = xs[r0:r1], ys[r0:r1]
        b = live[a_col[r0:r1]] & ann[y]
        b[np.arange(len(x)), x] = b[np.arange(len(x)), y] = False
        return b

    b_col, _ = _first_hits(len(xs), len(zd), first_b)
    pairs = list(zip(zd[xs].tolist(), zd[ys].tolist()))
    witnesses = {
        p: WitnessRecord("s_zero_divisor", p, {"a": a, "b": b}, "ab!=0")
        for p, a, b in zip(pairs, zd[a_col].tolist(), zd[b_col].tolist())
    }
    return zd.tolist(), pairs, witnesses


# -- idempotents ------------------------------------------------------------------


def _idempotent_scan(R: RingHandle):
    """Over every a: a^2, the idempotents outside {0, 1}, the candidates (a^2
    such an idempotent x, a outside {x, 0, 1}), xa, ax, and the first of the
    four clauses each a meets (0 for none)."""
    mul = R.mul_table
    idx = np.arange(R.cardinality)
    sq = np.diagonal(mul)  # a^2
    trivial = (idx == R.zero) | (idx == R.one)
    idem = np.flatnonzero(~trivial & (sq == idx))
    cand = ~trivial & (sq != idx) & np.isin(sq, idem)
    xa, ax = mul[sq, idx], mul[idx, sq]
    return sq, idem, cand, xa, ax, np.select([xa == idx, ax == idx, ax == sq, xa == sq], [1, 2, 3, 4], 0)


@_once_per_ring
def classify_idempotents(R: RingHandle):
    """Idempotents (0 and 1 excluded), S-idempotents and the co-idempotent map.

    x is an S-idempotent when some a outside {x, 1, 0} has a^2 = x and one of
    xa = a, ax = a, ax = x, xa = x (four-way disjunction).  Co-idempotents of
    x are all y outside {0, 1, x} with y^2 = x and yx = x or xy = y; the map
    keeps every such y because co-idempotents are not unique.  Each a names
    its x as a^2, so both searches are one pass over the diagonal.
    """
    _ensure_enumerable(R)
    sq, idem, cand, xa, ax, clause = _idempotent_scan(R)
    a = np.flatnonzero(cand & (clause > 0))
    s_idem, first = np.unique(sq[a], return_index=True)
    witnesses = {
        x: WitnessRecord("s_idempotent", (x,), {"a": w}, ("xa=a", "ax=a", "ax=x", "xa=x")[k - 1])
        for x, w, k in zip(s_idem.tolist(), a[first].tolist(), clause[a[first]].tolist())
    }
    co_map: dict[int, list[int]] = {}
    for y in np.flatnonzero(cand & ((ax == sq) | (xa == np.arange(R.cardinality)))).tolist():
        co_map.setdefault(int(sq[y]), []).append(y)
    return idem.tolist(), s_idem.tolist(), witnesses, dict(sorted(co_map.items()))


def s_idempotents_within(R: RingHandle, masks: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The S-idempotents classify_idempotents finds in each subring on masks
    (with the subring's own identity e), read off R's own scan: (xs, found),
    found[i, j] set when xs[j] is one in masks[i].  A candidate a of such a
    subring is a candidate of R with a^2 != e, as R's 1 lies in it only as e."""
    sq, _, cand, _, _, clause = _idempotent_scan(R)
    a = np.flatnonzero(cand & (clause > 0))
    xs, col = np.unique(sq[a], return_inverse=True)
    mul, rows, idx = R.mul_table, rows_of(masks, R.cardinality), np.arange(R.cardinality)
    witnessed = rows[:, a].astype(np.float32) @ (col[:, None] == np.arange(len(xs))).astype(np.float32) > 0
    identity = rows[:, xs] & within(rows, (mul[xs] == idx) & (mul[:, xs].T == idx))
    return xs, witnessed & ~identity


# -- nilpotents --------------------------------------------------------------------


@_once_per_ring
def classify_nilpotents(R: RingHandle):
    """Nilpotents and S-nilpotents: x nilpotent with some non-nilpotent
    y outside {0, x} killed against a nonzero power of x.

    x is nilpotent when its idempotent power is 0.  Since x^r y = 0 gives
    x^(r+1) y = 0 (and likewise on the right), y qualifies exactly when it
    is killed against the last nonzero power x^preperiod; the witness keeps
    the least such y and, for it, the least r.
    """
    _ensure_enumerable(R)
    seq = power_sequences(R)
    mul = R.mul_table
    idx = np.arange(R.cardinality)
    nil = np.flatnonzero((seq.idempotent == R.zero) & (idx != R.zero))
    powers = [nil]  # powers[r - 1] = x^r, 0 past the preperiod
    for _ in range(1, int(seq.preperiod[nil].max(initial=1))):
        powers.append(mul[powers[-1], nil])
    powers = np.stack(powers, axis=1)
    last = powers[np.arange(len(nil)), seq.preperiod[nil] - 1]

    def killed(r0, r1):
        t = last[r0:r1, None]
        # y != 0 and y != x, as both are nilpotent
        return ((mul[t, idx] == R.zero) | (mul[idx, t] == R.zero)) & (seq.idempotent != R.zero)

    y_col, _ = _first_hits(len(nil), R.cardinality, killed)
    xs, ys, powers = nil[y_col >= 0], y_col[y_col >= 0, None], powers[y_col >= 0]
    left = mul[powers, ys] == R.zero
    r = (left | (mul[ys, powers] == R.zero)).argmax(axis=1)  # a hit by x^preperiod
    witnesses = {
        x: WitnessRecord("s_nilpotent", (x,), {"y": y, "r": e + 1}, "x^r.y=0")
        if is_left else WitnessRecord("s_nilpotent", (x,), {"y": y, "s": e + 1}, "y.x^s=0")
        for x, y, e, is_left in zip(
            xs.tolist(), ys[:, 0].tolist(), r.tolist(), left[np.arange(len(r)), r].tolist()
        )
    }
    return nil.tolist(), list(witnesses), witnesses


# -- semi idempotents ---------------------------------------------------------------


def _defects(R: RingHandle) -> np.ndarray:
    """x^2 - x for every element x."""
    return R.add_table[np.diagonal(R.mul_table), R.neg_vec]


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
    for x, g in enumerate(_defects(R).tolist()):
        if x == R.zero:
            continue
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
    t = _defects(R)
    xs = np.flatnonzero((np.arange(R.cardinality) != R.zero) & (np.diagonal(R.mul_table)[t] == t))
    return [
        SuperIdempotentVerdict(x, d, d == R.zero, d in s_set)
        for x, d in zip(xs.tolist(), t[xs].tolist())
    ]


# -- SS and SSS elements ----------------------------------------------------------------


@_once_per_ring
def ss_elements(R: RingHandle):
    """SS elements a (a^2 = a + a, a outside {0, 1+1}) and SSS pairs
    (x, y), y != x, with xy = x + y; ordered pairs, both orientations kept."""
    _ensure_enumerable(R)
    add, mul = R.add_table, R.mul_table
    idx = np.arange(R.cardinality)
    two = add[R.one, R.one] if R.one is not None else None
    ss = np.flatnonzero((idx != R.zero) & (idx != two) & (np.diagonal(mul) == np.diagonal(add)))
    same = mul == add
    np.fill_diagonal(same, False)
    return ss.tolist(), [tuple(p) for p in np.argwhere(same).tolist()]


# -- semiunits ----------------------------------------------------------------------------


def semiunits(R: RingHandle, level: str = "plain"):
    """x with (x+1)(y+1) = 1 for some y != 0; the Smarandache level demands
    x+1 and y+1 be S-units."""
    _ensure_enumerable(R)
    if R.one is None:
        return [], {}
    shifted = R.add_table[:, R.one]  # x + 1
    rows = np.isin(shifted, classify_units(R)[1]) if level == "smarandache" else np.ones_like(shifted, bool)
    cols = rows & (np.arange(R.cardinality) != R.zero)

    def solves(r0, r1):
        return (R.mul_table[shifted[r0:r1, None], shifted] == R.one) & cols & rows[r0:r1, None]

    y_col, _ = _first_hits(R.cardinality, R.cardinality, solves)
    witnesses = {
        x: WitnessRecord("semiunit", (x,), {"y": y}, "(x+1)(y+1)=1")
        for x, y in enumerate(y_col.tolist())
        if y >= 0
    }
    return list(witnesses), witnesses


# -- clean and regular elements ------------------------------------------------------------


def clean_elements(R: RingHandle, idempotent_policy: str = "nontrivial") -> list[int]:
    """Sums of an idempotent and a unit; policy 'nontrivial' bars e in {0, 1}."""
    _ensure_enumerable(R)
    units = np.array(elements_of(units_mask(R)), dtype=np.int64)
    idx = np.arange(R.cardinality)
    idems = np.diagonal(R.mul_table) == idx
    if idempotent_policy == "nontrivial":
        idems &= (idx != R.zero) & (idx != R.one)
    elif idempotent_policy != "any":
        raise ValueError("idempotent_policy must be 'nontrivial' or 'any'")
    return distinct(R.add_table[np.ix_(np.flatnonzero(idems), units)]).tolist()


def regular_elements(R: RingHandle) -> list[int]:
    """{s : sr != 0 and rs != 0 for every r != 0}."""
    _ensure_enumerable(R)
    kills = R.mul_table == R.zero
    nonzero = np.arange(R.cardinality) != R.zero
    return np.flatnonzero(~((kills & nonzero).any(axis=1) | (kills & nonzero[:, None]).any(axis=0))).tolist()


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

        def nonzero_powers(z: int) -> tuple[list[int], bool]:
            """Powers z, z^2, ... until zero or a repeat; flag is nilpotency."""
            seen, cur = [], z
            while cur != R.zero and cur not in seen:
                seen.append(cur)
                cur = R.mul(cur, z)
            return seen, cur == R.zero

        (x,) = rec.subject
        y = rec.roles["y"]
        powers, x_nil = nonzero_powers(x)
        _, y_nil = nonzero_powers(y)
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
