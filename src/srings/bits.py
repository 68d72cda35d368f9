"""Subsets of indexed elements as Python int bitmasks.

Bit i set means element code i is a member.  Masks are the universal
currency for subrings, ideals, field subsets and witnesses; their integer
value doubles as the canonical ordering and the report fingerprint.

Closure growth is written once here: ``close`` is the fixpoint that closes
one mask under an operation, and ``grow_family`` builds every join of a set
of atoms.  Additive subgroups, subsemigroups, subgroups and generating
sets all go through these two.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import CapacityError


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of an array, ascending.  np.unique's plain path
    imports numpy.ma on first use to check for a masked array; asking for
    the indices too skips that check."""
    return np.unique(codes, return_index=True)[0]


def bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def elements_of(mask: int) -> list[int]:
    return list(bits(mask))


def contains(mask: int, e: int) -> bool:
    return bool(mask >> e & 1)


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def rows_of(masks: list[int], n: int) -> np.ndarray:
    """Membership rows: a (len(masks), n) boolean array, row i set at masks[i]."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    return np.unpackbits(packed.reshape(-1, width), axis=1, count=n, bitorder="little").view(bool)


def masks_of(rows: np.ndarray) -> list[int]:
    """The mask of each boolean membership row; inverse of ``rows_of``."""
    return [int.from_bytes(r.tobytes(), "little") for r in np.packbits(rows, axis=1, bitorder="little")]


def within(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """[i, j]: membership row i of inner lies within row j of outer (no
    member of i outside j; a float32 count, exact below 2^24 columns)."""
    return inner.astype(np.float32) @ (~outer).T.astype(np.float32) == 0


def fingerprint(mask: int) -> str:
    """Hex encoding of the canonical bitset; stable across runs."""
    return format(mask, "x")


def close(mask: int, products: Callable[[list[int], list[int]], np.ndarray], closed: int = 0) -> int:
    """Smallest superset of mask closed under an operation.

    ``products(new, members)`` is an array of every product that involves
    one of the ``new`` members and any member; ``new`` is a subset of
    ``members``.  ``closed`` is a part of mask already closed under the
    operation, whose products among themselves the first round skips.  Each
    later round feeds back only what the previous round added.
    """
    members = elements_of(mask)
    frontier = elements_of(mask & ~closed)
    while frontier:
        new = []
        step = max(1, (1 << 16) // len(members))  # new members per call: a few MB of products
        for i in range(0, len(frontier), step):
            for x in np.flatnonzero(np.bincount(products(frontier[i : i + step], members))).tolist():
                if not mask >> x & 1:
                    mask |= 1 << x
                    new.append(x)
        members = elements_of(mask)
        frontier = new
    return mask


def grow_family(atoms, join: Callable[[int, int], int], cap: int, what: str) -> dict[int, list]:
    """Every join of one or more atoms, as mask -> generators.

    ``atoms`` are (mask, generator) pairs.  Each member found is joined with
    every atom not below it, and the join keeps the member's generators plus
    the atom's.  A member past ``cap`` is refused with CapacityError, whose
    partial_count is the ``cap`` members found.
    """
    gens: dict[int, list] = {}
    queue = []

    def found(mask: int, generators: list) -> None:
        if len(gens) >= cap:
            raise CapacityError(f"{what} family cap exceeded", partial_count=len(gens))
        gens[mask] = generators
        queue.append(mask)

    for mask, g in atoms:
        if mask not in gens:
            found(mask, [g])
    while queue:
        base = queue.pop()
        for mask, g in atoms:
            if mask & ~base:
                joined = join(base, mask)
                if joined not in gens:
                    found(joined, gens[base] + [g])
    return gens
