"""The id tables (substructures.FAMILIES, elements.CENSUSES,
predicates.PREDICATES, lattices.IDENTITIES) read the same way by the CLI
and by the claim ledger."""

import json

import pytest

from srings import claims as cl
from srings.bits import mask_of
from srings.cli import main
from srings.elements import CENSUSES
from srings.lattices import IDENTITIES
from srings.predicates import PREDICATES
from srings.report import classify_report
from srings.rings import subring_as_ring, zn
from srings.substructures import FAMILIES

RINGS = ["Z12", "M2(Z2)", "GR(Z2, C2)"]

CLASSIFY_KEYS = [
    "units", "s_units", "s_unit_witnesses", "zero_divisors", "s_zero_divisor_pairs",
    "idempotents", "s_idempotents", "s_idempotent_witnesses", "co_idempotents", "nilpotents",
    "s_nilpotents", "semi_idempotents", "s_semi_idempotents_1", "super_idempotents",
    "nontrivial_super_idempotents", "s_super_idempotents", "ss_elements", "sss_pairs",
    "semiunits", "s_semiunits", "clean_elements", "regular_elements",
]


def _cli(capsys, *argv) -> dict:
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def _statuses(records: list[dict]) -> dict[str, str]:
    text = "\n".join(
        "".join(f"{key}: {value if isinstance(value, str) else json.dumps(value)}\n"
                for key, value in rec.items())
        for rec in records
    )
    return {r.entry.id: r.computed for r in cl.run_claims(cl.parse_ledger(text))}


@pytest.mark.parametrize("ring", RINGS)
def test_family_counts_agree(capsys, ring):
    records = []
    for fid in FAMILIES:
        doc = _cli(capsys, "substructures", ring, "--kind", fid.replace("_", "-"))
        (family,) = doc["families"]
        assert family["kind"] == fid.replace("_", "-")
        records.append({"id": fid, "ring": ring, "kind": "family", "params": {"family": fid},
                        "expect": {"count": family["count"]}, "status": "CONFIRMED"})
    assert _statuses(records) == dict.fromkeys(FAMILIES, "CONFIRMED")


def test_one_sided_ideal_ids_name_their_side(capsys):
    # M2(Z2) codes [[a, b], [c, d]] as a + 2b + 4c + 8d: the matrices with a
    # zero second column form a left ideal and no right ideal, those with a
    # zero second row a right ideal and no left ideal
    column, row = [0, 1, 4, 5], [0, 1, 2, 3]
    records = []
    for fid, inside, outside in (("left_ideals", column, row), ("right_ideals", row, column)):
        doc = _cli(capsys, "substructures", "M2(Z2)", "--kind", fid.replace("_", "-"))
        members = [m["elements"] for m in doc["families"][0]["members"]]
        assert inside in members and outside not in members
        records.append({"id": fid, "ring": "M2(Z2)", "kind": "family", "params": {"family": fid},
                        "expect": {"contains_subset": inside, "not_contains_subset": outside},
                        "status": "CONFIRMED"})
    assert _statuses(records) == {"left_ideals": "CONFIRMED", "right_ideals": "CONFIRMED"}


def _as_codes(value):
    """A census from the classify report as the ledger states it: element
    codes, or pairs as two-element lists (witness maps by their keys)."""
    return [int(k) for k in value] if isinstance(value, dict) else value


@pytest.mark.parametrize("ring", RINGS)
def test_classify_censuses_confirm_in_the_ledger(capsys, ring):
    censuses = _cli(capsys, "classify", ring)["censuses"]
    assert list(censuses) == CLASSIFY_KEYS == list(CENSUSES)
    records = []
    for cid, value in censuses.items():
        codes = _as_codes(value)
        base = {"ring": ring, "status": "CONFIRMED"}
        records.append({**base, "id": f"census-{cid}", "kind": "census",
                        "params": {"category": cid}, "expect": {"equals": codes}})
        if codes:
            subject = codes[0]
            kind, key = ("pair", "pair") if isinstance(subject, list) else ("element", "element")
            records.append({**base, "id": f"{kind}-{cid}", "kind": kind,
                            "params": {"category": cid, key: subject}, "expect": True})
    statuses = _statuses(records)
    assert statuses == dict.fromkeys(statuses, "CONFIRMED")
    assert len(statuses) >= len(CENSUSES)


def test_censuses_needing_a_one_are_empty_without_one():
    R = subring_as_ring(zn(8), mask_of([0, 2, 4, 6]))  # 2Z8, codes 0..3 for 0, 2, 4, 6
    assert R.one is None
    censuses = classify_report("2Z8", R)["censuses"]
    assert list(censuses) == CLASSIFY_KEYS
    for cid in ("units", "s_units", "s_unit_witnesses", "semiunits", "s_semiunits", "clean_elements"):
        assert not censuses[cid]
    assert censuses["nilpotents"] == [1, 2, 3]


def test_classify_witnesses_verify_in_the_ledger(capsys):
    # GR(Z2, S3) has S-units and S-idempotents, each with a recorded witness
    censuses = _cli(capsys, "classify", "GR(Z2, S3)")["censuses"]
    records = []
    for category, witnesses in (("s_unit", "s_unit_witnesses"),
                                ("s_idempotent", "s_idempotent_witnesses")):
        assert censuses[witnesses]
        for x, w in censuses[witnesses].items():
            records.append({"id": f"{category}-{x}", "ring": "GR(Z2, S3)", "kind": "element",
                            "params": {"category": category, "element": int(x), "witness": w["roles"]},
                            "expect": True, "status": "CONFIRMED"})
    statuses = _statuses(records)
    assert statuses == dict.fromkeys(statuses, "CONFIRMED")


def test_predicate_battery_reports_every_table_id(capsys):
    ids = sorted(name for group, _ in PREDICATES for name in group)
    assert len(ids) == len(set(ids))
    for ring in RINGS:
        doc = _cli(capsys, "predicates", ring)
        assert sorted(v["id"] for v in doc["predicates"]) == ids


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_identity_ids_agree(capsys, name):
    doc = _cli(capsys, "lattice", "Z12", "--family", "ideals", "--check", name)
    (lattice,) = doc["lattices"]
    holds = lattice["identities"][name]["holds"]
    record = {"id": name, "ring": "Z12", "kind": "lattice", "params": {"family": "ideals"},
              "expect": {name: holds}, "status": "CONFIRMED"}
    assert _statuses([record]) == {name: "CONFIRMED"}
