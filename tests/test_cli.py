"""CLI contract: documented exit codes with a one-line message, never a
traceback (2 usage or parse error, 3 capacity)."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srings
import srings.rings
import srings.specparse
import srings.substructures
from srings.cli import main
from srings.predicates import PREDICATES
from srings.rings import RingHandle


@pytest.mark.parametrize("spec, message", [
    ("Z0", "error: Zn needs n >= 1"),
    ("M0(Z2)", "error: matrix ring needs k >= 1"),
    ("Q(Z1)", "error: quaternion ring needs modulus n >= 2"),
])
def test_rejected_sizes_exit_2(capsys, spec, message):
    assert main(["classify", spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"


@pytest.mark.parametrize("spec", ["M9(Z9)", "Z99999999999999999999999"])
def test_rings_above_int64_exit_3(capsys, spec):
    # the CLI refuses the ring as not enumerable before any axiom audit
    assert main(["classify", spec]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"capacity: {spec}: census needs an enumerable ring\n"


@pytest.mark.parametrize("argv, refusal", [
    (["classify", "M9(Z9)"], "census needs an enumerable ring"),
    (["substructures", "M9(Z9)", "--kind", "ideals"], "not enumerable"),
    (["lattice", "M9(Z9)", "--family", "ideals"], "not enumerable"),
])
def test_refusal_runs_no_axiom_audit(capsys, monkeypatch, argv, refusal):
    def audit(*args):
        raise AssertionError("axiom audit ran")

    monkeypatch.setattr(srings.rings, "_audit_presentation", audit)
    monkeypatch.setattr(srings.rings, "_audit_tables", audit)
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"capacity: M9(Z9): {refusal}\n")


def test_every_predicate_on_a_ring_above_the_cap(capsys, monkeypatch):
    # each id is refused with one capacity line or answered; the ring is
    # built (and audited from its presentation) once for all of them
    monkeypatch.setattr(srings.specparse, "ring_from_text", functools.cache(srings.specparse.ring_from_text))
    for pid in sorted(name for ids, _ in PREDICATES for name in ids):
        code = main(["predicates", "M9(Z9)", "--only", pid])
        out, err = capsys.readouterr()
        assert code in (0, 3), pid
        if code == 3:
            assert out == "" and err.startswith("capacity: M9(Z9): ") and err.count("\n") == 1, pid
        else:
            assert err == "" and [v["id"] for v in json.loads(out)["predicates"]] == [pid]


def test_subspace_family_refused_before_any_subspace_is_built(capsys, monkeypatch):
    # Z2^9 has 8,283,458 subspaces (sum of Gaussian binomials), above family_cap
    def build(*args):
        raise AssertionError("a subspace block was built")

    monkeypatch.setattr(srings.substructures, "masks_of", build)
    argv = ["substructures", " x ".join(["Z2"] * 9), "--kind", "additive-subgroups"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "capacity: subspace family cap exceeded\n")


def test_sublattice_search_cap(capsys):
    # 67 nodes: every pentagon and diamond is searched for
    argv = ["lattice", "M2(Z2)", "--family", "additive-subgroups", "--pentagon", "--diamond"]
    assert main(argv) == 0
    (report,) = json.loads(capsys.readouterr().out)["lattices"]
    assert (report["node_count"], len(report["pentagons"]), len(report["diamonds"])) == (67, 0, 735)
    # 212 nodes, above the cap
    argv[1] = "M2(Z3)"
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "capacity: 212 nodes above sublattice search cap 150\n")


def test_four_variable_identity_cap(capsys):
    # 67 nodes: all four identities are checked
    argv = ["lattice", "M2(Z2)", "--family", "additive-subgroups",
            "--check", "modular,distributive,quasi_distributive,supermodular"]
    assert main(argv) == 0
    (report,) = json.loads(capsys.readouterr().out)["lattices"]
    assert {name: v["holds"] for name, v in report["identities"].items()} == {
        "modular": True, "distributive": False, "quasi_distributive": False, "supermodular": False}
    # 212 nodes, above the cap
    argv = ["lattice", "M2(Z3)", "--family", "additive-subgroups", "--check", "supermodular"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "capacity: 212 nodes above 4-variable identity cap 100\n")


def test_syntax_error_exit_2(capsys):
    assert main(["classify", "Z"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _record(**fields) -> str:
    fields.setdefault("status", "CONFIRMED")
    return "".join(f"{key}: {value}\n" for key, value in fields.items())


@pytest.mark.parametrize("record, message", [
    # misspelt expect keys used to confirm the claim vacuously
    (_record(id="fam", ring="Z12", kind="family", params='{"family": "ideals"}',
             expect='{"cuont": 99}'), "unknown expect key 'cuont'"),
    (_record(id="cen", ring="Z12", kind="census", params='{"category": "units"}',
             expect='{"cuont": 99}'), "unknown expect key 'cuont'"),
    (_record(id="lat", ring="Z12", kind="lattice", params='{"family": "ideals"}',
             expect='{"modullar": false}'), "unknown expect key 'modullar'"),
    # unknown ids and params values
    (_record(id="fam", ring="Z12", kind="family", params='{"family": "idaels"}',
             expect='{"count": 6}'), "unknown family 'idaels'"),
    (_record(id="fam", ring="Z12", kind="family", params='{"family": "s_ideals", "level": "III"}',
             expect='{"count": 6}'), "unknown level 'III'"),
    (_record(id="sub", ring="Z12", kind="subset",
             params='{"subset": [0, 6], "property": "ideal", "side": "both"}',
             expect="true"), "unknown side 'both'"),
    (_record(id="el", ring="Z12", kind="element", params='{"category": "unti", "element": 5}',
             expect="true"), "unknown category 'unti'"),
    (_record(id="pred", ring="Z12", kind="predicate", params='{"id": "bogus"}',
             expect="true"), "unknown predicate 'bogus'"),
    # malformed records that used to raise a traceback with exit 1
    (_record(id="fam", ring="Z12", kind="family", params="{}", expect='{"count": 6}'),
     "params lack 'family'"),
    (_record(id="card", kind="cardinality", expect="12"), "a 'cardinality' record needs a 'ring:' field"),
    (_record(id="grp", kind="structure", params='{"structure": "X3", "check": "order"}',
             expect="3"), "expected a group C<n>, S<n>, D<n> or a semigroup S(<n>), Zn*<n>, got 'X3' (at position 0)"),
    (_record(id="semi", ring="Z24", kind="element",
             params='{"category": "s_semi_idempotent_1", "element": 99}', expect="false"),
     "element 99 is not in Z24"),
], ids=[
    "family-expect-typo", "census-expect-typo", "lattice-expect-typo", "unknown-family",
    "unknown-level", "unknown-side", "unknown-category", "unknown-predicate", "missing-params-key",
    "missing-ring", "unknown-structure", "element-outside-ring",
])
def test_bad_ledger_record_exit_2(capsys, tmp_path, record, message):
    ledger = tmp_path / "ledger.txt"
    ledger.write_text("# one record\n\n" + record, encoding="utf-8")
    assert main(["claims", "run", str(ledger)]) == 2
    out, err = capsys.readouterr()
    record_id = record.split("\n")[0].removeprefix("id: ")
    assert out == "" and err == f"error: line 3: claim {record_id!r}: {message}\n"


def test_evaluation_error_names_record_line(capsys, tmp_path):
    ledger = tmp_path / "ledger.txt"
    good = _record(id="a-card", ring="Z12", kind="cardinality", expect="12")
    bad = _record(id="b-pred", ring="Z12", kind="predicate", params='{"id": "bogus"}', expect="true")
    ledger.write_text(good + "\n# the second record\n" + bad, encoding="utf-8")
    assert main(["claims", "run", str(ledger)]) == 2
    assert capsys.readouterr().err == "error: line 8: claim 'b-pred': unknown predicate 'bogus'\n"


@pytest.mark.parametrize("argv, message", [
    (["claims", "run", "/nonexistent/ledger.txt"],
     "error: [Errno 2] No such file or directory: '/nonexistent/ledger.txt'"),
    (["lattice", "Z12", "--family", "ideals", "--dot", "/nonexistent/dir/x.dot"],
     "error: [Errno 2] No such file or directory: '/nonexistent/dir/x.dot'"),
    # ids are checked before the ring is built, and on families that are no lattice
    (["predicates", "Z12", "--only", "bogus"], "error: unknown predicate 'bogus'"),
    (["predicates", "M9(Z9)", "--only", "field,bogus"], "error: unknown predicate 'bogus'"),
    (["lattice", "Z99999999999999999999999", "--family", "ideals", "--check", "bogus"],
     "error: unknown identity 'bogus'"),
    (["lattice", "M2(Z2)", "--family", "field-subsets", "--check", "modular,bogus"],
     "error: unknown identity 'bogus'"),
], ids=[
    "missing-ledger", "unwritable-dot", "unknown-predicate", "unknown-predicate-before-build",
    "unknown-identity-before-build", "unknown-identity-no-lattice",
])
def test_bad_paths_and_ids_exit_2(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"


@pytest.mark.parametrize("spec, family, nodes, reason", [
    ("M2(Z2)", "field-subsets", 8, "nodes 0 and 1 have 0 maximal common lower bounds"),
    ("GR(Z2, C2)", "s-subrings", 0, "family is empty"),
])
def test_family_without_bounds_is_not_a_lattice(capsys, tmp_path, spec, family, nodes, reason):
    # the CLI reports such a family as it reports any other non-lattice ...
    assert main(["lattice", spec, "--family", family, "--check", "modular"]) == 0
    out, err = capsys.readouterr()
    (report,) = json.loads(out)["lattices"]
    assert err == "" and report["node_count"] == nodes
    assert report["is_lattice"] is False and report["not_a_lattice"] == reason
    assert "identities" not in report
    # ... and the ledger reads it the same way
    params = json.dumps({"family": family.replace("-", "_")})
    ledger = tmp_path / "ledger.txt"
    ledger.write_text(
        _record(id="yes", ring=spec, kind="lattice", params=params,
                expect=json.dumps({"is_lattice": False, "node_count": nodes}))
        + "\n" + _record(id="no", ring=spec, kind="lattice", params=params,
                         expect='{"is_lattice": true}', status="REFUTED"),
        encoding="utf-8",
    )
    assert main(["claims", "run", str(ledger)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [(r["id"], r["status"]) for r in results] == [("no", "REFUTED"), ("yes", "CONFIRMED")]


@pytest.mark.parametrize("spec", ["Z256", "M2(Z2) x Z5", "GR(Z2, S3)"])
def test_census_path_has_no_scalar_arithmetic(capsys, monkeypatch, spec):
    # censuses, families and predicates read the op tables as arrays
    def scalar(*args):
        raise AssertionError("scalar ring arithmetic")

    for op in ("add", "mul", "neg"):
        monkeypatch.setattr(RingHandle, op, scalar)
    assert main(["classify", spec]) == 0
    assert main(["predicates", spec]) == 0
    assert capsys.readouterr().err == ""


# numpy imports these two submodules only on first use, and a cold process
# pays about 12 ms and 5.7 MB for numpy.random and 10 ms for numpy.ma
_LAZY_IMPORT_PROBE = """
import contextlib, io, sys
from srings.cli import main
for argv in (
    ["claims", "run", "builtin"],
    ["classify", "Z12"],
    ["substructures", "Z4 x Z4", "--kind", "additive-subgroups"],
    ["substructures", "Z2 x Z2 x Z2", "--kind", "additive-subgroups"],
    ["lattice", "Z3 x Z12 x Z7", "--family", "additive-subgroups", "--pentagon", "--diamond"],
    ["predicates", "GR(Z2, C2)"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(name for name in ("numpy.ma", "numpy.random") if name in sys.modules))
"""


def test_commands_leave_numpy_ma_and_random_unimported():
    # cyclic-join and subspace additive subgroups, the diamond scan, the
    # ledger (an audit above the enumeration cap, quotients, hyperrings) and
    # the censuses
    src = str(Path(srings.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _LAZY_IMPORT_PROBE], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")
