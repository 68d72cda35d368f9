"""JSON report schema (versioned, fixed field order) and serialisation.

Element sets are sorted ascending; subsets are reported by hex fingerprint
of their canonical bitset plus size, with the member list attached for small
subsets.  Reports are byte-identical across runs for the same inputs.
"""

from __future__ import annotations

import json

from .bits import elements_of, fingerprint
from .elements import CENSUSES, WitnessRecord
from .lattices import LatticeModel, PosetModel, chain_stats
from .rings import RingHandle, characteristic
from .predicates import PredicateVerdict

SCHEMA = "srings-report/1"
SUBSET_ELEMENT_LIMIT = 64


def subset_record(mask: int, ring: RingHandle | None = None) -> dict:
    rec = {"fingerprint": fingerprint(mask), "size": mask.bit_count()}
    if rec["size"] <= SUBSET_ELEMENT_LIMIT:
        rec["elements"] = elements_of(mask)
        if ring is not None:
            rec["labels"] = [ring.label(e) for e in rec["elements"]]
    return rec


def witness_record(rec: WitnessRecord) -> dict:
    return {
        "subject": list(rec.subject),
        "roles": {k: int(v) for k, v in rec.roles.items()},
        "clause": rec.clause,
    }


def ring_header(spec_text: str, R: RingHandle) -> dict:
    return {
        "spec": spec_text,
        "name": R.name,
        "cardinality": R.cardinality,
        "characteristic": characteristic(R),
    }


def _census_json(value):
    """Witness maps keyed by element, co-idempotent lists, element lists
    and ordered pairs, as JSON."""
    if isinstance(value, dict):
        return {
            str(k): witness_record(v) if isinstance(v, WitnessRecord) else v
            for k, v in sorted(value.items())
        }
    return [list(v) if isinstance(v, tuple) else v for v in value]


def classify_report(spec_text: str, R: RingHandle) -> dict:
    return {
        "schema": SCHEMA,
        "ring": ring_header(spec_text, R),
        "censuses": {cid: _census_json(census(R)) for cid, census in CENSUSES.items()},
    }


def family_report(kind: str, mode: str | None, level: str | None, members, ring: RingHandle) -> dict:
    out = {"kind": kind}
    if level:
        out["level"] = level
    if mode:
        out["mode"] = mode
    recs = []
    for m in members:
        if isinstance(m, int):
            recs.append(subset_record(m, ring))
        else:  # SubstructureVerdict or FieldSubset-like
            rec = subset_record(m.mask, ring)
            cert = getattr(m, "certificate", None)
            if cert is not None:
                rec["certificate"] = subset_record(cert, ring)
                if getattr(m, "certificate_identity", None) is not None:
                    rec["certificate"]["identity"] = m.certificate_identity
            ident = getattr(m, "identity", None)
            if ident is not None:
                rec["identity"] = ident
            if getattr(m, "trivial", False):
                rec["trivial"] = True
            recs.append(rec)
    out["count"] = len(recs)
    out["members"] = recs
    return out


def lattice_report(
    family_name: str,
    poset: PosetModel,
    lattice: LatticeModel | None,
    identities: dict,
    pentagons: list | None,
    ring: RingHandle,
    not_lattice_reason: str | None = None,
    diamonds: list | None = None,
) -> dict:
    """One record per poset node, shared by the node list and every
    reported pentagon and diamond."""
    longest, total = chain_stats(poset)
    nodes = [subset_record(m, ring) for m in poset.nodes]
    out = {
        "family": family_name,
        "node_count": len(poset.nodes),
        "nodes": nodes,
        "is_lattice": lattice is not None,
        "chain": {"longest": longest, "total_order": total},
    }
    if not_lattice_reason:
        out["not_a_lattice"] = not_lattice_reason
    if identities:
        out["identities"] = {
            name: {"holds": v.holds, "counterexample": list(v.counterexample) if v.counterexample else None}
            for name, v in identities.items()
        }
    for key, found in (("pentagons", pentagons), ("diamonds", diamonds)):
        if found is not None:
            out[key] = [[nodes[i] for i in tup] for tup in found]
    return out


def verdict_record(v: PredicateVerdict) -> dict:
    out = {"id": v.predicate}
    out["verdict"] = "not-applicable" if v.verdict is None else bool(v.verdict)
    if v.mode:
        out["mode"] = v.mode
    if v.witness is not None:
        out["witness"] = _describe(v.witness)
    if v.counterexample is not None:
        out["counterexample"] = _describe(v.counterexample)
    if v.detail:
        out["detail"] = v.detail
    return out


def _describe(obj):
    """Witness payloads hold masks and tuples of mixed shape; flatten to
    JSON-stable strings and small ints."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return obj if obj.bit_length() <= 16 else f"mask:{fingerprint(obj)}"
    if isinstance(obj, dict):
        return {str(k): _describe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_describe(x) for x in obj]
    return str(obj)


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"
