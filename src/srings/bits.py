"""Subsets of indexed elements as Python int bitmasks.

Bit i set means element code i is a member.  Masks are the universal
currency for subrings, ideals, field subsets and witnesses; their integer
value doubles as the canonical ordering and the report fingerprint.

Closure growth is written once here: ``close`` is the fixpoint that closes
one mask under an operation, and ``grow_family`` builds every join of a set
of atoms.  Additive subgroups, subsemigroups and subgroups all go through
these two.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .errors import CapacityError


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def elements_of(mask: int) -> list[int]:
    return list(bits(mask))


def size(mask: int) -> int:
    return mask.bit_count()


def contains(mask: int, e: int) -> bool:
    return bool(mask >> e & 1)


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def fingerprint(mask: int) -> str:
    """Hex encoding of the canonical bitset; stable across runs."""
    return format(mask, "x")


def close(mask: int, products: Callable[[list[int], list[int]], Iterable[int]]) -> int:
    """Smallest superset of mask closed under an operation.

    ``products(new, members)`` yields every product that involves one of
    the ``new`` members and any member; ``new`` is a subset of ``members``.
    Each round feeds back only what the previous round added.
    """
    members = elements_of(mask)
    frontier = members
    while frontier:
        new = []
        for x in set(map(int, products(frontier, members))):
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
