"""Engine-wide size limits and search budgets."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineLimits:
    """Caps that separate exhaustive work from sampling or refusal.

    Operations that would exceed a cap raise :class:`srings.errors.CapacityError`
    instead of silently sampling, except the axiom audit of a ring above the
    enumeration cap, which checks random triples (every other audit is exact).
    """

    # rings above this cardinality expose arithmetic but refuse enumeration
    enumeration_cap: int = 4096
    # Z_n and products build op tables at once up to this size, others on first use
    table_cap: int = 2048
    # hard ceiling on enumerated subset families
    family_cap: int = 10**6
    # random triples the construction audit checks above the enumeration cap
    construction_samples: int = 2000
    # default sample count for ring_axiom_audit above the enumeration cap
    audit_samples: int = 10**5
    # lattice caps, each set so that a request just under it finishes in
    # seconds (2 CPUs, Intel Xeon).  Both 4-variable checks scan k^4 node
    # tuples; where they hold they took 1.9 s and 1.4 s on a 64-node chain,
    # 9.7 s and 7.1 s at 100 nodes, and 28 s and 24 s on the 128-node
    # Boolean lattice.  Both pentagon and diamond searches together take
    # 0.4 s on a 150-node chain and 1.5 s on M2(Z3)'s 212 nodes, so the
    # report bounds such a request: at 116 nodes (Z7 x Z7 x Z7) its 6,384
    # diamonds take ~6 s to write, and M2(Z3) would write 87,360.
    identity4_cap: int = 100
    sublattice_cap: int = 150


DEFAULT_LIMITS = EngineLimits()
