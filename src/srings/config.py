"""Engine-wide size limits and search budgets."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineLimits:
    """Caps that separate exhaustive work from sampling or refusal.

    Operations that would exceed a cap raise :class:`srings.errors.CapacityError`
    instead of silently sampling.  The axiom audit is exact at every size: above
    the enumeration cap it audits how the ring was built (see srings.rings).
    """

    # rings above this cardinality expose arithmetic but refuse enumeration
    enumeration_cap: int = 4096
    # Z_n and products build op tables at once up to this size, others on first use
    table_cap: int = 2048
    # hard ceiling on enumerated subset families
    family_cap: int = 10**6
    # lattice caps, each set so that a request just under it finishes in
    # seconds (2 CPUs, Intel Xeon).  On a distributive lattice every check and
    # search returns at once; elsewhere the 4-variable checks scan k^4 node
    # tuples, and where they hold (M3 x a chain) took 1.5 s and 1.2 s at 65
    # nodes, 9.4 s and 7.3 s at 100.  Both searches together take 0.35 s on
    # N5 x a chain (150 nodes) and 0.7 s on M2(Z3)'s 212 nodes, so the
    # report bounds such a request: at 116 nodes (Z7 x Z7 x Z7) its 6,384
    # diamonds take ~6 s to write, and M2(Z3) would write 87,360.
    identity4_cap: int = 100
    sublattice_cap: int = 150


DEFAULT_LIMITS = EngineLimits()
