"""Exception types shared across the engine."""

from __future__ import annotations


class CapacityError(Exception):
    """An enumeration or check would exceed a configured cap."""

    def __init__(self, message: str, partial_count: int | None = None):
        super().__init__(message)
        self.partial_count = partial_count


class ValidationError(Exception):
    """A constructed structure violates its defining axioms."""


class NotALatticeError(Exception):
    """A subset family has a pair without a unique meet or join, or is empty
    (pair None: the empty join, its bottom, does not exist)."""

    def __init__(self, message: str, pair: tuple[int, int] | None, kind: str):
        super().__init__(message)
        self.pair = pair
        self.kind = kind  # "meet" or "join"


class SpecSyntaxError(Exception):
    """Ring-spec text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LedgerFormatError(Exception):
    """A claim-ledger record is malformed; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
