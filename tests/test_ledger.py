"""The builtin claim ledger, end to end through the CLI: every record's
computed status matches the status line the ledger file records for it."""

import importlib.resources
import json
import re

from srings.cli import main


def _ledger_statuses() -> dict[str, str]:
    text = importlib.resources.files("srings").joinpath("ledger/book_claims.txt").read_text("utf-8")
    ids = re.findall(r"^id: (\S+)$", text, re.M)
    statuses = re.findall(r"^status: (\S+)$", text, re.M)
    assert len(ids) == len(statuses)
    return dict(zip(ids, statuses))


def test_builtin_ledger(capsys):
    assert main(["claims", "run", "builtin"]) == 0
    doc = json.loads(capsys.readouterr().out)
    results = doc["results"]
    assert len(results) == 125
    assert not [r["id"] for r in results if r["must_pass"] and not r["ok"]]
    expected = _ledger_statuses()
    assert len(expected) == 125
    assert {r["id"]: r["status"] for r in results} == expected
