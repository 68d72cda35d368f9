"""Reference checks for every benchmark request.

No reference here comes from srings output.  The ledger workload is checked
against the status each record states in the ledger file; censuses and
predicates against the brute-force oracle; lattices against theorems about
subgroup and ideal lattices; families against closed-form member counts and
oracle enumerations.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import product as cartesian
from math import prod

from perfbench import oracle

SCHEMA = "srings-report/1"

# the keys of a classify report's census section
CENSUS_KEYS = (
    "units", "s_units", "s_unit_witnesses", "zero_divisors", "s_zero_divisor_pairs",
    "idempotents", "s_idempotents", "s_idempotent_witnesses", "co_idempotents",
    "nilpotents", "s_nilpotents", "semi_idempotents", "s_semi_idempotents_1",
    "super_idempotents", "nontrivial_super_idempotents", "s_super_idempotents",
    "ss_elements", "sss_pairs", "semiunits", "s_semiunits", "clean_elements",
    "regular_elements",
)


# -- closed forms --------------------------------------------------------------


def _factor(n: int) -> dict[int, int]:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if not 0 <= k <= n:
        return 0
    num = prod(q ** (n - i) - 1 for i in range(k))
    den = prod(q ** (i + 1) - 1 for i in range(k))
    return num // den


def _conjugate(partition: list[int]) -> list[int]:
    return [sum(1 for part in partition if part > i) for i in range(max(partition, default=0))]


def _p_group_subgroups(p: int, mu: list[int]) -> int:
    """Subgroups of the abelian p-group of type mu, summed over subgroup types
    lambda by Birkhoff's formula
    prod_i p^(l'_{i+1}(m'_i - l'_i)) [m'_i - l'_{i+1} choose l'_i - l'_{i+1}]_p
    with l', m' the conjugate partitions."""
    mu_c = _conjugate(mu)
    total = 0
    for lam_c in cartesian(*(range(m + 1) for m in mu_c)):
        if any(lam_c[i] < lam_c[i + 1] for i in range(len(lam_c) - 1)):
            continue
        lam_c = list(lam_c) + [0]
        term = 1
        for i, m in enumerate(mu_c):
            term *= p ** (lam_c[i + 1] * (m - lam_c[i]))
            term *= gaussian_binomial(m - lam_c[i + 1], lam_c[i] - lam_c[i + 1], p)
        total += term
    return total


def subgroup_count(cyclic_orders: list[int]) -> int:
    """Number of subgroups of Z_{n1} x ... x Z_{nr}: the product over primes
    of the subgroup count of each primary part."""
    by_prime: dict[int, list[int]] = {}
    for n in cyclic_orders:
        for p, e in _factor(n).items():
            by_prime.setdefault(p, []).append(e)
    return prod(_p_group_subgroups(p, sorted(es, reverse=True)) for p, es in by_prime.items())


def zn_product_ideal_count(moduli: list[int]) -> int:
    """Ideals of Z_{n1} x ... x Z_{nr}: products of ideals of the factors,
    and Z_n has one ideal per divisor of n."""
    return prod(prod(e + 1 for e in _factor(n).values()) for n in moduli)


# -- ledger ---------------------------------------------------------------------


def ledger_statuses(text: str) -> dict[str, str]:
    """id -> status as written in a ledger file (blank-line separated
    'key: value' records, '#' comment lines)."""
    out: dict[str, str] = {}
    record: dict[str, str] = {}
    for line in text.splitlines() + [""]:
        if line.strip().startswith("#"):
            continue
        if not line.strip():
            if record:
                out[record["id"]] = record["status"].upper()
                record = {}
            continue
        key, _, value = line.partition(":")
        record[key.strip()] = value.strip()
    return out


# -- the checker ------------------------------------------------------------------


@lru_cache(maxsize=None)
def _oracle_ring(spec: str) -> oracle.Ring:
    return oracle.ring(spec)


@lru_cache(maxsize=None)
def _oracle_census(spec: str) -> dict:
    return oracle.census(_oracle_ring(spec))


@lru_cache(maxsize=None)
def _oracle_predicates(spec: str) -> dict:
    return oracle.predicates(_oracle_ring(spec))


@lru_cache(maxsize=None)
def _oracle_family(spec: str, kind: str) -> frozenset:
    R = _oracle_ring(spec)
    family = oracle.additive_subgroups(R) if kind == "additive-subgroups" else oracle.ideals(R)
    return frozenset(family)


class Checker:
    """Judges one request's outcome; ``check`` returns None or a reason."""

    def __init__(self, ledger_text: str):
        self.ledger = ledger_statuses(ledger_text)

    def judge(self, reqs, passes) -> tuple[int, list[str]]:
        """Requests attempted over all passes, and why each failed one failed."""
        attempted, failures = 0, []
        for p in passes:
            for req, (rc, out, error) in zip(reqs, p["outcomes"], strict=True):
                attempted += 1
                reason = self.check(req, rc, out, error)
                if reason is not None:
                    failures.append(f"{' '.join(req.argv)}: {reason}")
        return attempted, failures

    def check(self, request, rc, out: str, error: str | None) -> str | None:
        if error is not None:
            return f"raised {error}"
        if rc != 0:
            return f"exit code {rc}"
        try:
            doc = json.loads(out)
        except ValueError:
            return "output is not JSON"
        if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
            return "output lacks the report schema"
        try:
            return getattr(self, "_check_" + request.check)(request, doc)
        except (KeyError, IndexError, TypeError, AttributeError) as e:
            return f"malformed report: {type(e).__name__}: {e}"

    def _check_ledger(self, request, doc) -> str | None:
        computed = {r["id"]: r["status"] for r in doc["results"]}
        if len(computed) != len(doc["results"]) or computed.keys() != self.ledger.keys():
            return "ledger record ids differ from the ledger file"
        wrong = sorted(i for i, s in computed.items() if s != self.ledger[i])
        return f"status differs from the ledger for {wrong[:5]}" if wrong else None

    def _check_census(self, request, doc) -> str | None:
        spec = request.argv[1]
        if set(doc["censuses"]) != set(CENSUS_KEYS):
            return "census keys differ"
        if not request.expect.get("oracle"):
            return None
        R = _oracle_ring(spec)
        if doc["ring"]["cardinality"] != R.n:
            return "wrong cardinality"
        if doc["ring"]["characteristic"] != oracle.characteristic(R):
            return "wrong characteristic"
        for key, expected in _oracle_census(spec).items():
            if doc["censuses"][key] != expected:
                return f"{key} differs from the oracle"
        return None

    def _check_predicates(self, request, doc) -> str | None:
        verdicts = {p["id"]: p["verdict"] for p in doc["predicates"]}
        for key, expected in _oracle_predicates(request.argv[1]).items():
            if verdicts[key] is not expected:
                return f"predicate {key} differs from the oracle"
        return None

    def _check_lattice(self, request, doc) -> str | None:
        lat = doc["lattices"][0]
        n = doc["ring"]["cardinality"]
        sizes = [node["size"] for node in lat["nodes"]]
        if lat["is_lattice"] is not True:
            return "family is not reported as a lattice"
        if lat["node_count"] != len(sizes) or any(n % s for s in sizes):
            return "node list is inconsistent"
        if "nodes" in request.expect and lat["node_count"] != request.expect["nodes"]:
            return f"{lat['node_count']} nodes, expected {request.expect['nodes']}"
        checked = request.argv[request.argv.index("--check") + 1].split(",")
        if set(lat["identities"]) != set(checked):
            return "identity verdicts missing"
        for name in checked:
            holds = lat["identities"][name]["holds"]
            if not isinstance(holds, bool):
                return f"{name} verdict is not a boolean"
            if name in request.expect.get("hold", ()) and not holds:
                return f"{name} should hold"
            if name in request.expect.get("fail", ()) and holds:
                return f"{name} should fail"
        for shape, key in (("pentagon", "pentagons"), ("diamond", "diamonds")):
            if f"--{shape}" not in request.argv:
                continue
            found = len(lat[key])
            if request.expect.get(shape) == "none" and found:
                return f"unexpected {shape} sublattice"
            if request.expect.get(shape) == "some" and not found:
                return f"missing {shape} sublattice"
        return None

    def _check_family(self, request, doc) -> str | None:
        fam = doc["families"][0]
        n = doc["ring"]["cardinality"]
        members = fam["members"]
        if fam["count"] != len(members):
            return "count differs from the member list"
        if len({m["fingerprint"] for m in members}) != len(members):
            return "duplicate members"
        if any(n % m["size"] for m in members):
            return "a member's size does not divide |R|"
        if "count" in request.expect and fam["count"] != request.expect["count"]:
            return f"{fam['count']} members, expected {request.expect['count']}"
        if request.expect.get("oracle"):
            got = frozenset(frozenset(m["elements"]) for m in members)
            if got != _oracle_family(request.argv[1], fam["kind"]):
                return "members differ from the oracle"
        return None
