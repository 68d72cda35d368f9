"""Write tests/golden.json: the exit code and the sha256 of stdout and of
stderr of each request below, run through srings.cli.main in-process.

The requests are the benchmark's (perfbench/workloads.py) plus a few that
reach other paths: a quaternion and a matrix-over-product census, a
non-commutative predicate battery, a ring above the enumeration cap that is
refused after its construction audit, and a usage error.  A change that
means to alter output reruns this script and says which entries moved:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"

EXTRA = [
    ["classify", "Q(Z4)"],
    ["classify", "M2(Z2 x Z2)"],
    ["predicates", "GR(Z2, S3)"],
    ["predicates", "M9(Z9)"],  # above the cap: exits 3 after the construction audit
    ["classify", "Z0"],  # usage error: exits 2
]


def run(argv: list[str]) -> dict:
    """argv's exit code and the sha256 of its stdout and stderr."""
    from srings.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, **digests(out.getvalue(), err.getvalue())}


def digests(out: str, err: str) -> dict:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in (("stdout", out), ("stderr", err))}


def requests() -> list[list[str]]:
    from perfbench.workloads import WORKLOADS

    return [list(r.argv) for reqs in WORKLOADS.values() for r in reqs] + EXTRA


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    GOLDEN.write_text(json.dumps([run(argv) for argv in requests()], indent=1) + "\n")
    print(f"wrote {GOLDEN}")
