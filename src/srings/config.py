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
    # lattice caps: 4-variable identities and exact pentagon/diamond search;
    # a `lattice --pentagon --diamond` request took at most 2.2 s below 150
    # nodes, and 13 s at 212 (M2(Z3): 87,360 diamonds), on an Intel Xeon
    identity4_cap: int = 256
    sublattice_cap: int = 150


DEFAULT_LIMITS = EngineLimits()
