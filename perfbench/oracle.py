"""Brute-force reference rings and censuses, written without srings.

Rings are rebuilt from the element codec srings documents: a structured
element is a little-endian mixed-radix code over its components, with
component 0 least significant.  A product's components are its factors; a
k x k matrix's components are its entries in row-major order; a quaternion's
are its coefficients of 1, i, j, k (i^2 = j^2 = k^2 = ijk = -1); a group
ring over the cyclic group C_m has the coefficient of g^t as component t.

Every census here is a direct scan of the defining condition over full
addition and multiplication tables, so it is slow but plainly correct for
rings of a few hundred elements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Ring:
    n: int
    add: tuple  # add[a][b]
    mul: tuple  # mul[a][b]
    one: int


def _tables(n, add_fn, mul_fn) -> tuple[tuple, tuple]:
    add = tuple(tuple(add_fn(a, b) for b in range(n)) for a in range(n))
    mul = tuple(tuple(mul_fn(a, b) for b in range(n)) for a in range(n))
    return add, mul


def _decode(code: int, radices) -> list[int]:
    digits = []
    for r in radices:
        digits.append(code % r)
        code //= r
    return digits


def _encode(digits, radices) -> int:
    code, weight = 0, 1
    for d, r in zip(digits, radices):
        code += d * weight
        weight *= r
    return code


def zn(n: int) -> Ring:
    add, mul = _tables(n, lambda a, b: (a + b) % n, lambda a, b: (a * b) % n)
    return Ring(n, add, mul, 1 % n)


def product(factors: list[Ring]) -> Ring:
    radices = [f.n for f in factors]
    n = 1
    for r in radices:
        n *= r

    def op(table_of):
        def fn(a, b):
            da, db = _decode(a, radices), _decode(b, radices)
            return _encode([table_of(f)[x][y] for f, x, y in zip(factors, da, db)], radices)

        return fn

    add, mul = _tables(n, op(lambda f: f.add), op(lambda f: f.mul))
    return Ring(n, add, mul, _encode([f.one for f in factors], radices))


def matrices(base: Ring, k: int) -> Ring:
    radices = [base.n] * (k * k)
    n = base.n ** (k * k)

    def add_fn(a, b):
        da, db = _decode(a, radices), _decode(b, radices)
        return _encode([base.add[x][y] for x, y in zip(da, db)], radices)

    def mul_fn(a, b):
        da, db = _decode(a, radices), _decode(b, radices)
        out = []
        for r in range(k):
            for c in range(k):
                acc = 0
                for t in range(k):
                    acc = base.add[acc][base.mul[da[r * k + t]][db[t * k + c]]]
                out.append(acc)
        return _encode(out, radices)

    add, mul = _tables(n, add_fn, mul_fn)
    identity = [base.one if r == c else 0 for r in range(k) for c in range(k)]
    return Ring(n, add, mul, _encode(identity, radices))


def quaternions(m: int) -> Ring:
    radices = [m] * 4

    def add_fn(a, b):
        return _encode([(x + y) % m for x, y in zip(_decode(a, radices), _decode(b, radices))], radices)

    def mul_fn(a, b):
        p0, p1, p2, p3 = _decode(a, radices)
        q0, q1, q2, q3 = _decode(b, radices)
        return _encode(
            [
                (p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3) % m,
                (p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2) % m,
                (p0 * q2 + p2 * q0 + p3 * q1 - p1 * q3) % m,
                (p0 * q3 + p3 * q0 + p1 * q2 - p2 * q1) % m,
            ],
            radices,
        )

    add, mul = _tables(m**4, add_fn, mul_fn)
    return Ring(m**4, add, mul, 1)


def cyclic_group_ring(base: Ring, m: int) -> Ring:
    radices = [base.n] * m

    def add_fn(a, b):
        da, db = _decode(a, radices), _decode(b, radices)
        return _encode([base.add[x][y] for x, y in zip(da, db)], radices)

    def mul_fn(a, b):
        da, db = _decode(a, radices), _decode(b, radices)
        out = [0] * m
        for s in range(m):
            for t in range(m):
                u = (s + t) % m
                out[u] = base.add[out[u]][base.mul[da[s]][db[t]]]
        return _encode(out, radices)

    add, mul = _tables(base.n**m, add_fn, mul_fn)
    return Ring(base.n**m, add, mul, _encode([base.one] + [0] * (m - 1), radices))


def _split_product(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "x" and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def ring(spec: str) -> Ring:
    """The ring a spec names, for Zn, M<k>(..), Q(Zn), GR(.., C<m>) and products."""
    text = "".join(spec.split())
    parts = _split_product(text)
    if len(parts) > 1:
        return product([ring(p) for p in parts])
    if m := re.fullmatch(r"Z(\d+)", text):
        return zn(int(m[1]))
    if m := re.fullmatch(r"Q\(Z(\d+)\)", text):
        return quaternions(int(m[1]))
    if m := re.fullmatch(r"M(\d+)\((.+)\)", text):
        return matrices(ring(m[2]), int(m[1]))
    if m := re.fullmatch(r"GR\((.+),C(\d+)\)", text):
        return cyclic_group_ring(ring(m[1]), int(m[2]))
    raise ValueError(f"the oracle cannot build {spec!r}")


# -- censuses from the definitions ---------------------------------------------


def _is_nilpotent(R: Ring, x: int) -> bool:
    power = x
    for _ in range(R.n):
        if power == 0:
            return True
        power = R.mul[power][x]
    return power == 0


def census(R: Ring) -> dict[str, list[int]]:
    """The element lists srings reports under the same keys."""
    n, add, mul, one = R.n, R.add, R.mul, R.one
    nonzero = range(1, n)
    two = add[one][one]
    return {
        "units": [x for x in range(n) if any(mul[x][y] == one == mul[y][x] for y in range(n))],
        "zero_divisors": [
            x for x in nonzero if any(mul[x][y] == 0 or mul[y][x] == 0 for y in nonzero)
        ],
        "idempotents": [x for x in range(n) if x not in (0, one) and mul[x][x] == x],
        "nilpotents": [x for x in nonzero if _is_nilpotent(R, x)],
        "regular_elements": [
            s for s in range(n) if all(mul[s][r] != 0 and mul[r][s] != 0 for r in nonzero)
        ],
        "ss_elements": [a for a in range(n) if a not in (0, two) and mul[a][a] == add[a][a]],
    }


def characteristic(R: Ring) -> int:
    k, acc = 1, R.one
    while acc != 0:
        acc = R.add[acc][R.one]
        k += 1
    return k


def predicates(R: Ring) -> dict[str, bool]:
    """Verdicts of the basic ring-level predicates srings reports by id."""
    n, mul = R.n, R.mul
    commutative = all(mul[a][b] == mul[b][a] for a in range(n) for b in range(a))
    units = set(census(R)["units"])
    nonzero_units = n > 1 and all(x in units for x in range(1, n))
    no_zero_divisors = all(mul[a][b] != 0 for a in range(1, n) for b in range(1, n))
    return {
        "commutative": commutative,
        "has_one": True,
        "boolean": all(mul[x][x] == x for x in range(n)),
        "field": commutative and nonzero_units,
        "integral_domain": commutative and no_zero_divisors and n > 1,
        "division_ring": not commutative and nonzero_units,
        "reduced": not any(_is_nilpotent(R, x) for x in range(1, n)),
    }


# -- substructure families -----------------------------------------------------


def additive_subgroups(R: Ring) -> set[frozenset[int]]:
    """Every subgroup of (R, +), as sums of cyclic subgroups."""
    cyclic = set()
    for x in range(R.n):
        members, m = {0}, x
        while m != 0:
            members.add(m)
            m = R.add[m][x]
        cyclic.add(frozenset(members))
    found = {frozenset({0})}
    queue = list(found)
    while queue:
        H = queue.pop()
        for C in cyclic:
            if C <= H:
                continue
            joined = frozenset(R.add[h][c] for h in H for c in C)
            if joined not in found:
                found.add(joined)
                queue.append(joined)
    return found


def ideals(R: Ring) -> set[frozenset[int]]:
    """Two-sided ideals: additive subgroups absorbing multiplication on both sides."""
    return {
        H
        for H in additive_subgroups(R)
        if all(R.mul[r][h] in H and R.mul[h][r] in H for r in range(R.n) for h in H)
    }
