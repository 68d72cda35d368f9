"""Command line interface.

Family, identity and predicate names are read from the tables that own
them (substructures.FAMILIES, lattices.IDENTITIES, predicates.PREDICATES);
the CLI spells family ids with hyphens (left-ideals).

Exit status: 0 success, 1 claim mismatch, 2 usage or parse error (a
bad spec, a bad ledger, an unknown id, an unreadable or unwritable file, or
a size the constructors reject such as Z0), 3 capacity (the request exceeds
configured enumeration caps).
"""

from __future__ import annotations

import argparse
import importlib.resources
import sys

from . import claims as cl
from . import report as rp
from . import specparse
from .rings import validate_ring
from .errors import CapacityError, LedgerFormatError, NotALatticeError, SpecSyntaxError
from .lattices import (
    IDENTITIES,
    check_identity,
    forbidden_sublattices,
    export_hasse,
    lattice_from_poset,
    poset_from_family,
)
from .predicates import PREDICATES, run_predicates
from .substructures import FAMILIES

def _ids(text: str, known, what: str) -> list[str]:
    """The comma-separated ids of an option, each checked against its table."""
    ids = [name for name in text.split(",") if name]
    for name in ids:
        if name not in known:
            raise ValueError(f"unknown {what} {name!r}")
    return ids


def _enumerable_ring(text: str, refusal: str):
    """The ring a spec names, refused above the enumeration cap before any table or audit."""
    R = specparse.ring_from_text(text, validate=False)
    if not R.enumerable:
        raise CapacityError(f"{R.name}: {refusal}")
    return validate_ring(R)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="srings", description=__doc__)
    families = [fid.replace("_", "-") for fid in FAMILIES]
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("classify", help="full special-element census of a ring")
    c.add_argument("spec")

    s = subs.add_parser("substructures", help="enumerate a substructure family")
    s.add_argument("spec")
    s.add_argument("--kind", choices=families, required=True)
    s.add_argument("--level", choices=["I", "II"], default="I")
    s.add_argument("--mode", choices=["strict", "lax"], default="strict")
    s.add_argument("--no-trivial", action="store_true", help="drop the conventional {0} and R")

    l = subs.add_parser("lattice", help="analyse the inclusion lattice of a family")
    l.add_argument("spec")
    l.add_argument("--family", choices=families, required=True)
    l.add_argument("--level", choices=["I", "II"], default="I")
    l.add_argument("--mode", choices=["strict", "lax"], default="strict")
    l.add_argument("--check", default="", help="comma-separated identities: " + ",".join(IDENTITIES))
    l.add_argument("--pentagon", action="store_true", help="search for N5 sublattices")
    l.add_argument("--diamond", action="store_true", help="search for M3 sublattices")
    l.add_argument("--dot", metavar="PATH", help="write the Hasse diagram as DOT")

    p = subs.add_parser("predicates", help="ring-level classification battery")
    p.add_argument("spec")
    p.add_argument("--only", default="", help="comma-separated predicate ids")
    p.add_argument("--mode", choices=["strict", "lax"], default="strict")

    cl_p = subs.add_parser("claims", help="machine-check a claim ledger")
    cl_sub = cl_p.add_subparsers(dest="claims_command", required=True)
    run = cl_sub.add_parser("run", help="run a ledger file (or the shipped one)")
    run.add_argument("ledger", nargs="?", default="builtin", help="ledger path, or 'builtin'")
    run.add_argument("--filter", default=None, help="glob over claim ids")

    return parser


def builtin_ledger_text() -> str:
    return (
        importlib.resources.files("srings").joinpath("ledger/book_claims.txt").read_text("utf-8")
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except (SpecSyntaxError, LedgerFormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"capacity: {e}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "classify":
        R = _enumerable_ring(args.spec, "census needs an enumerable ring")
        print(rp.dumps(rp.classify_report(args.spec, R)), end="")
        return 0

    if args.command == "substructures":
        R = _enumerable_ring(args.spec, "not enumerable")
        members = FAMILIES[args.kind.replace("-", "_")](R, args.level, args.mode, not args.no_trivial)
        doc = {
            "schema": rp.SCHEMA,
            "ring": rp.ring_header(args.spec, R),
            "families": [rp.family_report(args.kind, args.mode, args.level, members, R)],
        }
        print(rp.dumps(doc), end="")
        return 0

    if args.command == "lattice":
        checks = _ids(args.check, IDENTITIES, "identity")
        R = _enumerable_ring(args.spec, "not enumerable")
        members = FAMILIES[args.family.replace("-", "_")](R, args.level, args.mode, True)
        poset = poset_from_family(getattr(m, "mask", m) for m in members)
        lattice = None
        reason = None
        try:
            lattice = lattice_from_poset(poset)
        except NotALatticeError as e:
            reason = str(e)
        identities = {}
        pentagons = diamonds = None
        if lattice is not None:
            for name in checks:
                identities[name] = check_identity(lattice, name)
            if args.pentagon:
                pentagons = forbidden_sublattices(lattice, "pentagon")
            if args.diamond:
                diamonds = forbidden_sublattices(lattice, "diamond")
        doc = {
            "schema": rp.SCHEMA,
            "ring": rp.ring_header(args.spec, R),
            "lattices": [
                rp.lattice_report(args.family, poset, lattice, identities, pentagons, R, reason, diamonds)
            ],
        }
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(export_hasse(poset, R))
        print(rp.dumps(doc), end="")
        return 0

    if args.command == "predicates":
        only = _ids(args.only, {name for ids, _ in PREDICATES for name in ids}, "predicate") or None
        R = specparse.ring_from_text(args.spec)
        verdicts = run_predicates(R, only=only, mode=args.mode)
        doc = {
            "schema": rp.SCHEMA,
            "ring": rp.ring_header(args.spec, R),
            "predicates": [rp.verdict_record(v) for _, v in sorted(verdicts.items())],
        }
        print(rp.dumps(doc), end="")
        return 0

    if args.command == "claims" and args.claims_command == "run":
        if args.ledger == "builtin":
            text = builtin_ledger_text()
            source = "builtin"
        else:
            with open(args.ledger, encoding="utf-8") as fh:
                text = fh.read()
            source = args.ledger
        entries = cl.parse_ledger(text)
        results = cl.run_claims(entries, args.filter)
        doc = {
            "schema": rp.SCHEMA,
            "ledger": source,
            "results": [
                {
                    "id": r.entry.id,
                    "status": r.computed,
                    "expected_status": r.entry.status,
                    "ok": r.ok,
                    "must_pass": r.entry.must_pass,
                    "locator": r.entry.locator,
                    **({"detail": r.detail} if r.detail else {}),
                }
                for r in results
            ],
            "summary": cl.summary(results),
        }
        print(rp.dumps(doc), end="")
        return 1 if any(not r.ok and r.entry.must_pass for r in results) else 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
