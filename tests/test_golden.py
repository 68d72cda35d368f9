"""Golden outputs: every request in golden.json, run through cli.main
in-process, keeps its exit code and the sha256 of its stdout and stderr.
make_golden.py writes the file and says when to rerun it."""

import json
from pathlib import Path

import pytest

from make_golden import GOLDEN, run

ENTRIES = json.loads(Path(GOLDEN).read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_golden_output(entry):
    assert run(entry["argv"]) == entry, f"output of {entry['argv']} changed"
