"""Claim ledger: parse keyed records and machine-check each claim.

A ledger is UTF-8 text; '#' starts a full-line comment; records are blocks
of "key: value" lines separated by blank lines.  Keys: id, ring, kind,
params, expect, mode, must, status, locator.  params and expect hold JSON.

Each record states what the source text claims (expect) and what status the
engine is expected to reach:

  CONFIRMED       the claim checks out (in every applicable mode)
  REFUTED         the engine disproves the claim
  MODE-DEPENDENT  the claim holds in exactly one of strict/lax mode
  CAPACITY-SKIPPED  the check exceeds configured caps

Refutations are first-class outcomes, not failures: a run fails (exit 1)
only when a must-pass record's computed status differs from its recorded
status.  A record the engine cannot evaluate as written (an unknown id,
expect key or params value, a missing field, an element outside the ring)
raises LedgerFormatError with the record's first line.

Families, element censuses, predicates and lattice identities are looked up
in the tables that own them (substructures.FAMILIES, elements.CENSUSES,
predicates.PREDICATES, lattices.IDENTITIES): a family record names a family
id, an element or pair claim asks whether its subject is in a census, and a
census claim compares a whole census.  Ledger category names that differ
from census ids go through one alias table.
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass

from .bits import mask_of
from .errors import CapacityError, LedgerFormatError, NotALatticeError, SpecSyntaxError
from .lattices import (
    IDENTITIES,
    check_identity,
    chain_stats,
    forbidden_sublattices,
    lattice_from_poset,
    poset_from_family,
)
from . import elements as el
from . import predicates as pr
from . import rings as rg
from . import specparse
from . import structures as st
from . import substructures as sub


@dataclass(frozen=True)
class ClaimEntry:
    id: str
    kind: str
    params: dict
    expect: object
    ring: str | None = None
    mode: str = "-"  # strict | lax | auto | -
    must_pass: bool = True
    status: str = "CONFIRMED"  # the status the shipped ledger expects
    locator: str = ""
    line: int = 0  # first line of the record in the ledger text


@dataclass
class ClaimResult:
    entry: ClaimEntry
    computed: str
    ok: bool
    detail: str = ""


def parse_ledger(text: str) -> list[ClaimEntry]:
    entries = []
    block: dict[str, str] = {}
    block_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if line.strip().startswith("#"):
            continue
        if not line.strip():
            if block:
                entries.append(_entry_from(block, block_line))
                block = {}
            continue
        if ":" not in line:
            raise LedgerFormatError(f"expected 'key: value', got {line!r}", lineno)
        if not block:
            block_line = lineno
        key, _, value = line.partition(":")
        block[key.strip()] = value.strip()
    if block:
        entries.append(_entry_from(block, block_line))
    seen = set()
    for e in entries:
        if e.id in seen:
            raise LedgerFormatError(f"duplicate claim id {e.id!r}", e.line)
        seen.add(e.id)
    return entries


def _entry_from(block: dict[str, str], lineno: int) -> ClaimEntry:
    for key in ("id", "kind", "expect", "status"):
        if key not in block:
            raise LedgerFormatError(f"record is missing the {key!r} field", lineno)
    try:
        params = json.loads(block.get("params", "{}"))
        expect = json.loads(block["expect"])
    except json.JSONDecodeError as e:
        raise LedgerFormatError(f"bad JSON in record {block.get('id')!r}: {e}", lineno) from None
    if not isinstance(params, dict):
        raise LedgerFormatError("params must be a JSON object", lineno)
    status = block["status"].upper()
    if status not in ("CONFIRMED", "REFUTED", "MODE-DEPENDENT", "CAPACITY-SKIPPED"):
        raise LedgerFormatError(f"unknown status {status!r}", lineno)
    mode = block.get("mode", "-")
    if mode not in ("strict", "lax", "auto", "-"):
        raise LedgerFormatError(f"unknown mode {mode!r}", lineno)
    return ClaimEntry(
        id=block["id"],
        kind=block["kind"],
        params=params,
        expect=expect,
        ring=block.get("ring") or None,
        mode=mode,
        must_pass=block.get("must", "yes").lower() in ("yes", "true", "1"),
        status=status,
        locator=block.get("locator", ""),
        line=lineno,
    )


# -- evaluation -------------------------------------------------------------------


class _BadRecord(Exception):
    """The record cannot be evaluated as written; run_claims adds its line."""


class _Params(dict):
    """Record params, or a witness's roles: a missing key is the record's fault."""

    def __missing__(self, key):
        raise _BadRecord(f"params lack {key!r}")


class _RingPool:
    def __init__(self):
        self.cache: dict[str, rg.RingHandle] = {}

    def get(self, text: str) -> rg.RingHandle:
        if text not in self.cache:
            self.cache[text] = specparse.ring_from_text(text)
        return self.cache[text]


def _known(fields, keys, what: str) -> dict:
    """``fields``, checked to be a JSON object whose keys all come from ``keys``."""
    if not isinstance(fields, dict):
        raise _BadRecord(f"{what} must be a JSON object")
    unknown = sorted(fields.keys() - set(keys))
    if unknown:
        raise _BadRecord(f"unknown {what} key {unknown[0]!r}")
    return fields


def _choice(p, key: str, default: str, allowed: tuple[str, ...]) -> str:
    value = p.get(key, default)
    if value not in allowed:
        raise _BadRecord(f"unknown {key} {value!r}")
    return value


def _mode(p, mode: str) -> str:
    """The run's mode, or for mode '-' the record's own (strict by default)."""
    return mode if mode != "-" else _choice(p, "mode", "strict", ("strict", "lax"))


def _level(p) -> str:
    return _choice(p, "level", "I", ("I", "II"))


def _side(p) -> str:
    return _choice(p, "side", "two_sided", ("two_sided", "left", "right"))


def _check_expectations(actual: dict, expect) -> bool:
    """Compare computed values against the keys the claim pins down."""
    return all([actual[key] == want for key, want in _known(expect, actual, "expect").items()])


# Ledger names that differ from the census ids they read: element, pair and
# census categories, and the co_idempotent kind.
_CENSUS_ALIASES = {
    "unit": "units",
    "s_unit": "s_units",
    "zero_divisor": "zero_divisors",
    "s_zero_divisor": "s_zero_divisor_pairs",
    "idempotent": "idempotents",
    "s_idempotent": "s_idempotents",
    "co_idempotent": "co_idempotents",
    "nilpotent": "nilpotents",
    "s_nilpotent": "s_nilpotents",
    "semi_idempotent": "semi_idempotents",
    "s_semi_idempotent_1": "s_semi_idempotents_1",
    "super_idempotent": "super_idempotents",
    "nontrivial_super_idempotent": "nontrivial_super_idempotents",
    "semiunit": "semiunits",
    "s_semiunit": "s_semiunits",
    "ss": "ss_elements",
    "sss": "sss_pairs",
    "clean": "clean_elements",
    "regular": "regular_elements",
}


def _census(R, name: str, mode: str, policy: str = "nontrivial"):
    """The census a ledger category or kind names.  Censuses are computed
    in strict mode with the nontrivial clean policy, so a record may not ask
    for others."""
    if mode == "lax":
        raise _BadRecord("census claims are strict; use mode strict or -")
    if policy != "nontrivial":
        raise _BadRecord(f"unknown policy {policy!r}")
    cid = _CENSUS_ALIASES.get(name, name)
    if cid not in el.CENSUSES:
        raise _BadRecord(f"unknown category {name!r}")
    return el.CENSUSES[cid](R)


def _as_set(items) -> set:
    return {tuple(x) if isinstance(x, (list, tuple)) else x for x in items}


_SET_EXPECT = {
    "equals": lambda got, want: got == _as_set(want),
    "contains": lambda got, want: _as_set(want) <= got,
    "excludes": lambda got, want: not (_as_set(want) & got),
    "count": lambda got, want: len(got) == want,
    "nonempty": lambda got, want: bool(got) == want,
}


def _eval(entry: ClaimEntry, pool: _RingPool, mode: str) -> bool:
    p = _Params(entry.params)
    kind = entry.kind
    if kind in ("structure", "hyperring", "hyperring_theorem"):
        R = None
    elif entry.ring:
        R = pool.get(entry.ring)
    else:
        raise _BadRecord(f"a {kind!r} record needs a 'ring:' field")

    if kind == "cardinality":
        return R.cardinality == entry.expect
    if kind == "characteristic":
        return rg.characteristic(R) == entry.expect

    if kind == "element":
        return _eval_subject(R, p, entry.expect, mode, (p["element"],))
    if kind == "pair":
        x, y = p["pair"]
        return _eval_subject(R, p, entry.expect, mode, (x, y))
    if kind == "census":
        _known(p, ("category", "policy"), "params")
        got = _as_set(_census(R, p["category"], mode, p.get("policy", "nontrivial")))
        expect = _known(entry.expect, _SET_EXPECT, "expect")
        return all([_SET_EXPECT[key](got, want) for key, want in expect.items()])
    if kind == "co_idempotent":
        got = _census(R, kind, mode).get(p["element"], [])
        ok = True
        if "contains" in p:
            ok &= set(p["contains"]) <= set(got)
        if "min_count" in p:
            ok &= len(got) >= p["min_count"]
        return ok == entry.expect

    if kind == "subset":
        return _eval_subset(R, p, entry.expect, mode)
    if kind == "family":
        return _eval_family(R, p, entry.expect, mode)
    if kind == "lattice":
        return _eval_lattice(R, p, entry.expect, mode)
    if kind == "predicate":
        v = pr.run_predicates(R, only=[p["id"]], mode=_mode(p, mode))[p["id"]]
        return ("not-applicable" if v.verdict is None else bool(v.verdict)) == entry.expect
    if kind == "structure":
        return _eval_structure(p, entry.expect)
    if kind == "hyperring":
        h = rg.hyperring(p["n"], p["q"], p["op"])
        actual = {"pairs": sorted([list(x) for x in h.pairs]), "subring": h.is_subring}
        expect = dict(_known(entry.expect, actual, "expect"))
        if "pairs" in expect:
            expect["pairs"] = sorted([list(x) for x in expect["pairs"]])
        return _check_expectations(actual, expect)
    if kind == "hyperring_theorem":
        return _eval_hyperring_theorem(p["max_n"], p.get("claim", "named_and_partitions")) == entry.expect
    if kind == "quotient":
        Q = rg.quotient_ring(R, mask_of(p["ideal"]))
        field = pr.run_predicates(Q, only=["field"])["field"]
        actual = {"cardinality": Q.cardinality, "field": bool(field.verdict)}
        return _check_expectations(actual, entry.expect)
    raise _BadRecord(f"unknown claim kind {kind!r}")


def _eval_subject(R, p, expect, mode, subject: tuple[int, ...]) -> bool:
    """Element and pair claims: is the subject in the census its category
    names, with the record's witness (if any) re-verified."""
    semi = p["category"] == "s_semi_idempotent_1"
    keys = ("category", "element" if len(subject) == 1 else "pair", "witness", "policy")
    _known(p, keys + (("ideal", "certificate") if semi else ()), "params")
    for x in subject:
        if not isinstance(x, int) or not 0 <= x < R.cardinality:
            raise _BadRecord(f"element {x!r} is not in {R.name}")
    census = _census(R, p["category"], mode, p.get("policy", "nontrivial"))
    actual = (subject if len(subject) == 2 else subject[0]) in census
    if actual and "witness" in p:
        roles = dict(zip("ab", p["witness"], strict=True)) if len(subject) == 2 else p["witness"]
        rec = el.WitnessRecord(p["category"], subject, _Params(roles), "ledger")
        actual = el.verify_witness(R, rec)
    if actual and semi:
        # the generated ideal <x^2 - x> and its field certificate, as stated
        (v,) = [v for v in el.semi_idempotents(R, "s_level_1") if v.element == subject[0]]
        actual = all([
            mask_of(p[key]) == value
            for key, value in (("ideal", v.generated_ideal), ("certificate", v.certificate))
            if key in p
        ])
    return actual == expect


# Subset properties that are membership in a family of substructures.FAMILIES;
# an ideal's side picks the family.
_MEMBERSHIP = {
    "subring": "subrings",
    "ideal": {"two_sided": "ideals", "left": "left_ideals", "right": "right_ideals"},
    "field": "field_subsets",
    "s_ideal": "s_ideals",
    "s_subring": "s_subrings",
}


def _eval_subset(R, p, expect, mode) -> bool:
    members = p["subset"]
    mask = mask_of(members)
    prop = p["property"]
    if prop in _MEMBERSHIP:
        fid = _MEMBERSHIP[prop] if prop != "ideal" else _MEMBERSHIP[prop][_side(p)]
        # the conventional trivial S-ideals {0} and R are not members here
        family = sub.FAMILIES[fid](R, _level(p), _mode(p, mode), False)
        found = {getattr(m, "mask", m): m for m in family}
        actual = mask in found
        if actual and prop == "field" and p.get("identity") is not None:
            actual = found[mask].identity == p["identity"]
    elif prop == "s_pseudo_ideal":
        rel = mask_of(p["related_field"])
        actual = mask in sub.s_pseudo_ideals(R, rel, _side(p))
    elif prop in ("s_maximal_ideal", "s_minimal_ideal"):
        fam = sub.s_ideals(R, _level(p), _mode(p, mode))
        flags = {f.mask: f for f in sub.s_maximal_minimal(R, fam)}
        if prop == "s_maximal_ideal":
            actual = mask in flags and flags[mask].s_maximal
        else:
            actual = mask in flags and flags[mask].s_minimal
    elif prop in ("zero_square_law", "e_ring_law", "j_ring_law", "p_ring_law", "pre_j_law"):
        law = {
            "zero_square_law": "zero_square",
            "e_ring_law": "e_ring",
            "j_ring_law": "j_ring",
            "p_ring_law": "p_ring",
            "pre_j_law": "pre_j_ring",
        }[prop]
        actual, _ = pr.law_holds_on(R, members, law, p.get("p"))
    else:
        raise _BadRecord(f"unknown subset property {prop!r}")
    return actual == expect


def _family(R, p, mode) -> list[int]:
    """Masks of the family a family or lattice record names."""
    _known(p, ("family", "level", "mode", "include_trivial"), "params")
    fid = p["family"]
    if fid not in sub.FAMILIES:
        raise _BadRecord(f"unknown family {fid!r}")
    members = sub.FAMILIES[fid](R, _level(p), _mode(p, mode), p.get("include_trivial", True))
    return [getattr(m, "mask", m) for m in members]


_FAMILY_EXPECT = {
    "count": lambda fam, want: len(fam) == want,
    "contains_subset": lambda fam, want: mask_of(want) in fam,
    "not_contains_subset": lambda fam, want: mask_of(want) not in fam,
    "size_spectrum_within": lambda fam, want: {m.bit_count() for m in fam} <= set(want),
    "no_member_of_size": lambda fam, want: all(m.bit_count() != want for m in fam),
    "exists_member_of_size": lambda fam, want: any(m.bit_count() == want for m in fam),
}


def _eval_family(R, p, expect, mode) -> bool:
    fam = _family(R, p, mode)
    expect = _known(expect, _FAMILY_EXPECT, "expect")
    return all([_FAMILY_EXPECT[key](fam, want) for key, want in expect.items()])


def _eval_lattice(R, p, expect, mode) -> bool:
    shape_keys = ("is_lattice", "node_count", "chain_length", "is_chain")
    expect = _known(expect, (*shape_keys, *IDENTITIES, "pentagon_nodes"), "expect")
    poset = poset_from_family(_family(R, p, mode))
    try:
        lat = lattice_from_poset(poset)
    except NotALatticeError:
        lat = None
    longest, total = chain_stats(poset)
    shape = dict(zip(shape_keys, (lat is not None, len(poset.nodes), longest, total)))
    ok = all([shape[key] == want for key, want in expect.items() if key in shape])
    if lat is None:
        # identities and sublattices are claims about a lattice
        return ok and all(key in shape for key in expect)
    for name in IDENTITIES:
        if name in expect:
            ok &= check_identity(lat, name).holds == expect[name]
    if "pentagon_nodes" in expect:
        want = frozenset(mask_of(s) for s in expect["pentagon_nodes"])
        pents = forbidden_sublattices(lat, "pentagon")
        ok &= want in {frozenset(poset.nodes[i] for i in t) for t in pents}
    return bool(ok)


def _eval_structure(p, expect) -> bool:
    s = specparse.structure_from_text(p["structure"])
    check = p["check"]
    if check == "order":
        return s.size == expect
    if check == "s_semigroup":
        ok, _ = st.is_s_semigroup(s, p.get("min_group_size", 2))
        return ok == expect
    if check == "subset_group":
        mask = mask_of(p["subset"])
        ident = st.is_subgroup(s, mask)
        ok = ident is not None and ((1 << s.size) - 1) != mask
        if ok and "identity" in p:
            ok = ident == p["identity"]
        return ok == expect
    if check == "s_normal":
        mask = mask_of(p["subset"])
        fam = {w.members for w in st.s_normal_subgroups(s, min_size=p.get("min_size", 1))}
        return (mask in fam) == expect
    if check == "commutative":
        comm = bool((s.table == s.table.T).all())
        return comm == expect
    raise _BadRecord(f"unknown structure check {check!r}")


def _eval_hyperring_theorem(max_n: int, claim: str) -> bool:
    """Two readings of the hyperring theorem over 2 <= n <= max_n.

    "named_and_partitions": the diagonal sets (Z_n,1,.) = (Z_n,0,+) and the
    axis set (Z_n,0,.) are subrings, additive shifts partition Z_n x Z_n, and
    no multiplicative family ever does.

    "only_subrings": additionally, no other shifted family is a subring.
    This stronger clause fails whenever Z_n has a nontrivial idempotent q,
    because {(t, tq)} is the graph of the ring endomorphism t -> qt.
    """
    for n in range(2, max_n + 1):
        diag = frozenset((t, t) for t in range(n))
        axis = frozenset((t, 0) for t in range(n))
        if not rg.hyperring(n, 1, "multiplicative").is_subring:
            return False
        if not rg.hyperring(n, 0, "multiplicative").is_subring:
            return False
        if not rg.hyperring(n, 0, "additive").is_subring:
            return False
        if claim == "only_subrings":
            for q in range(n):
                for op in ("additive", "multiplicative"):
                    h = rg.hyperring(n, q, op)
                    should = (op == "multiplicative" and q in (0, 1)) or (op == "additive" and q == 0)
                    if h.is_subring != should:
                        return False
        if rg.hyperring(n, 1, "multiplicative").pairs != diag:
            return False
        if rg.hyperring(n, 0, "additive").pairs != diag:
            return False
        if rg.hyperring(n, 0, "multiplicative").pairs != axis:
            return False
        disjoint_add, covers_add = rg.hyperring_family_partition(n, "additive")
        if not (disjoint_add and covers_add):
            return False
        disjoint_mul, covers_mul = rg.hyperring_family_partition(n, "multiplicative")
        if disjoint_mul and covers_mul:
            return False
    return True


# -- runner -----------------------------------------------------------------------


def run_claims(entries: list[ClaimEntry], id_filter: str | None = None) -> list[ClaimResult]:
    pool = _RingPool()
    results = []
    for entry in sorted(entries, key=lambda e: e.id):
        if id_filter and not fnmatch.fnmatch(entry.id, id_filter):
            continue
        try:
            if entry.mode == "auto":
                strict_ok = _eval(entry, pool, "strict")
                lax_ok = _eval(entry, pool, "lax")
                if strict_ok and lax_ok:
                    computed = "CONFIRMED"
                elif strict_ok or lax_ok:
                    computed = "MODE-DEPENDENT"
                else:
                    computed = "REFUTED"
                detail = f"strict={strict_ok} lax={lax_ok}"
            else:
                ok = _eval(entry, pool, entry.mode)
                computed = "CONFIRMED" if ok else "REFUTED"
                detail = ""
        except CapacityError as e:
            computed = "CAPACITY-SKIPPED"
            detail = str(e)
        except (_BadRecord, SpecSyntaxError, ValueError) as e:
            raise LedgerFormatError(f"claim {entry.id!r}: {e}", entry.line) from None
        results.append(ClaimResult(entry, computed, computed == entry.status, detail))
    return results


def summary(results: list[ClaimResult]) -> dict:
    out = {
        "total": len(results),
        "confirmed": sum(1 for r in results if r.computed == "CONFIRMED"),
        "refuted": sum(1 for r in results if r.computed == "REFUTED"),
        "mode_dependent": sum(1 for r in results if r.computed == "MODE-DEPENDENT"),
        "capacity_skipped": sum(1 for r in results if r.computed == "CAPACITY-SKIPPED"),
        "mismatched": sum(1 for r in results if not r.ok),
        "must_pass_failures": sum(1 for r in results if not r.ok and r.entry.must_pass),
    }
    return out
