"""The benchmark's workloads: the CLI requests each sends and what each
request's output is checked against (see checks.py).

Each workload puts a different layer's hot spot on the critical path:
ledger -> ring construction and claim evaluation, census -> element
censuses and per-element ideal closure, lattice -> lattice building and
identity checks, families -> whole-family enumeration and large reports.
Requests that take minutes (lattice of GR(Z2, S3) additive subgroups,
lattice of Z2^6 subrings, classify Z512) are left out so that a run stays
within its time budget.  Requests are also sized so that a run of 30 s
holds at least two passes of each workload: classify Z128 rather than Z256 (7.6
to 11 s, over half of a census pass), the same chain-ring path where
semi_idempotents closes one ideal per element; Z4 x Z4 x Z4 x Z2 additive
subgroups (636 members) rather than Q(Z4)'s (1,983 members, 9 to 14 s, over
80 % of a families pass), the same cyclic-join path.  The lattice of Q(Z3)
additive subgroups is not run: its additive group is that of M2(Z3), so it
is the same 212-node lattice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from perfbench.checks import subgroup_count, zn_product_ideal_count


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: str  # suffix of a Checker._check_* method
    expect: dict = field(default_factory=dict, hash=False)


Z2_6 = "Z2 x Z2 x Z2 x Z2 x Z2 x Z2"
ALL_IDENTITIES = "modular,distributive,quasi_distributive,supermodular"

WORKLOADS: dict[str, list[Request]] = {
    "ledger": [Request(("claims", "run", "builtin"), "ledger")],
    "census": [
        Request(("classify", "Z105"), "census", {"oracle": True}),
        Request(("classify", "GR(Z2, S3)"), "census"),
        Request(("classify", "Q(Z3)"), "census", {"oracle": True}),
        Request(("classify", "M2(Z3)"), "census", {"oracle": True}),
        Request(("classify", "M2(Z2) x Z5"), "census", {"oracle": True}),
        Request(("classify", "Z3 x Z12 x Z7"), "census", {"oracle": True}),
        Request(("classify", "Z128"), "census", {"oracle": True}),
        Request(("predicates", "Z3 x Z12 x Z7"), "predicates"),
        Request(("predicates", "Z256"), "predicates"),
    ],
    # Subgroup lattices of abelian groups are modular, so they hold no
    # pentagon; they are distributive only for cyclic groups.  Ideal lattices
    # of products of Zn are products of divisor lattices, hence distributive.
    # The 4-variable verdicts are not pinned on non-distributive lattices.
    "lattice": [
        Request(
            ("lattice", "Z3 x Z12 x Z7", "--family", "ideals", "--check", ALL_IDENTITIES,
             "--pentagon", "--diamond"),
            "lattice",
            {"nodes": zn_product_ideal_count([3, 12, 7]), "hold": ALL_IDENTITIES.split(","),
             "pentagon": "none", "diamond": "none"},
        ),
        Request(
            ("lattice", "Z3 x Z12 x Z7", "--family", "additive-subgroups", "--check",
             "modular,distributive,supermodular", "--pentagon", "--diamond"),
            "lattice",
            {"nodes": subgroup_count([3, 12, 7]), "hold": ["modular"], "fail": ["distributive"],
             "pentagon": "none", "diamond": "some"},
        ),
        Request(
            ("lattice", "M2(Z3)", "--family", "additive-subgroups", "--check", "modular,distributive"),
            "lattice",
            {"nodes": subgroup_count([3] * 4), "hold": ["modular"], "fail": ["distributive"]},
        ),
        Request(
            ("lattice", "GR(Z2, S3)", "--family", "subrings", "--check", "modular,distributive"),
            "lattice",
        ),
        Request(
            ("lattice", Z2_6, "--family", "ideals", "--check", "modular,distributive",
             "--pentagon", "--diamond"),
            "lattice",
            {"nodes": zn_product_ideal_count([2] * 6), "hold": ["modular", "distributive"],
             "pentagon": "none", "diamond": "none"},
        ),
    ],
    "families": [
        Request(("substructures", "Z4 x Z4 x Z4 x Z2", "--kind", "additive-subgroups"), "family",
                {"count": subgroup_count([4, 4, 4, 2])}),
        Request(("substructures", "GR(Z2, S3)", "--kind", "additive-subgroups"), "family",
                {"count": subgroup_count([2] * 6)}),
        Request(("substructures", "GR(Z2, S3)", "--kind", "s-subrings"), "family"),
        Request(("substructures", Z2_6, "--kind", "s-ideals"), "family"),
        Request(("substructures", "Z3 x Z12 x Z7", "--kind", "s-subrings", "--level", "II",
                 "--mode", "lax"), "family"),
        Request(("substructures", "Z4 x Z4 x Z4", "--kind", "additive-subgroups"), "family",
                {"count": subgroup_count([4] * 3), "oracle": True}),
        Request(("substructures", "GR(Z4, C2) x Z4", "--kind", "ideals"), "family",
                {"oracle": True}),
    ],
}


def requests(workload: str, seed: int) -> list[Request]:
    """The workload's requests in an order shuffled by the seed."""
    out = list(WORKLOADS[workload])
    random.Random(f"{workload}:{seed}").shuffle(out)
    return out
