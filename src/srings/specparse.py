"""Ring-spec text grammar: parsing, printing and construction.

    spec  := atom | spec "x" spec            (left-associative product)
    atom  := "Z" int | "M" int "(" spec ")" | "GR(" spec "," group ")"
           | "SR(" spec "," sgrp ")" | "Q(Z" int ")"
    group := "C" int | "S" int | "D" int
    sgrp  := "S(" int ")" | "Zn*" int

Whitespace is insignificant.  parse(print_spec(ast)) == ast.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_LIMITS, EngineLimits
from .errors import SpecSyntaxError
from . import rings, structures


@dataclass(frozen=True)
class ZnSpec:
    n: int


@dataclass(frozen=True)
class MatrixSpec:
    k: int
    base: "RingSpec"


@dataclass(frozen=True)
class GroupAtom:
    family: str  # "C" | "S" | "D"
    n: int


@dataclass(frozen=True)
class SgrpAtom:
    family: str  # "map" (symmetric semigroup) | "znmul"
    n: int


@dataclass(frozen=True)
class GroupRingSpec:
    base: "RingSpec"
    group: GroupAtom


@dataclass(frozen=True)
class SemigroupRingSpec:
    base: "RingSpec"
    sgrp: SgrpAtom


@dataclass(frozen=True)
class QuaternionSpec:
    n: int


@dataclass(frozen=True)
class ProductSpec:
    factors: tuple


RingSpec = ZnSpec | MatrixSpec | GroupRingSpec | SemigroupRingSpec | QuaternionSpec | ProductSpec


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def literal(self, s: str) -> bool:
        self.skip_ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def expect(self, s: str):
        if not self.literal(s):
            raise SpecSyntaxError(f"expected {s!r}", self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise SpecSyntaxError("expected an integer", start)
        return int(self.text[start : self.pos])

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse(text: str) -> RingSpec:
    if not text or not text.strip():
        raise SpecSyntaxError("empty ring spec", 0)
    sc = _Scanner(text)
    spec = _parse_spec(sc)
    if not sc.done():
        raise SpecSyntaxError(f"unexpected trailing input {sc.text[sc.pos:]!r}", sc.pos)
    return spec


def _parse_spec(sc: _Scanner) -> RingSpec:
    factors = [_parse_atom(sc)]
    while sc.literal("x"):
        factors.append(_parse_atom(sc))
    return factors[0] if len(factors) == 1 else ProductSpec(tuple(factors))


def _parse_atom(sc: _Scanner) -> RingSpec:
    if sc.literal("GR"):
        sc.expect("(")
        base = _parse_spec(sc)
        sc.expect(",")
        group = _parse_group(sc)
        sc.expect(")")
        return GroupRingSpec(base, group)
    if sc.literal("SR"):
        sc.expect("(")
        base = _parse_spec(sc)
        sc.expect(",")
        sgrp = _parse_sgrp(sc)
        sc.expect(")")
        return SemigroupRingSpec(base, sgrp)
    if sc.literal("Q"):
        sc.expect("(")
        sc.expect("Z")
        n = sc.integer()
        sc.expect(")")
        return QuaternionSpec(n)
    if sc.literal("M"):
        k = sc.integer()
        sc.expect("(")
        base = _parse_spec(sc)
        sc.expect(")")
        return MatrixSpec(k, base)
    if sc.literal("Zn*"):
        raise SpecSyntaxError("Zn* names a semigroup; use it inside SR(...)", sc.pos)
    if sc.literal("Z"):
        return ZnSpec(sc.integer())
    raise SpecSyntaxError(f"unsupported construction near {sc.text[sc.pos:sc.pos+8]!r}", sc.pos)


def _parse_group(sc: _Scanner) -> GroupAtom:
    for fam in ("C", "S", "D"):
        if sc.literal(fam):
            return GroupAtom(fam, sc.integer())
    raise SpecSyntaxError("expected a group C<n>, S<n> or D<n>", sc.pos)


def _parse_sgrp(sc: _Scanner) -> SgrpAtom:
    if sc.literal("Zn"):
        sc.expect("*")
        return SgrpAtom("znmul", sc.integer())
    if sc.literal("S"):
        sc.expect("(")
        n = sc.integer()
        sc.expect(")")
        return SgrpAtom("map", n)
    raise SpecSyntaxError("expected a semigroup S(<n>) or Zn*<n>", sc.pos)


def print_spec(spec: RingSpec) -> str:
    if isinstance(spec, ZnSpec):
        return f"Z{spec.n}"
    if isinstance(spec, MatrixSpec):
        return f"M{spec.k}({print_spec(spec.base)})"
    if isinstance(spec, GroupRingSpec):
        return f"GR({print_spec(spec.base)}, {spec.group.family}{spec.group.n})"
    if isinstance(spec, SemigroupRingSpec):
        s = f"S({spec.sgrp.n})" if spec.sgrp.family == "map" else f"Zn*{spec.sgrp.n}"
        return f"SR({print_spec(spec.base)}, {s})"
    if isinstance(spec, QuaternionSpec):
        return f"Q(Z{spec.n})"
    if isinstance(spec, ProductSpec):
        return " x ".join(print_spec(f) for f in spec.factors)
    raise TypeError(f"not a ring spec: {spec!r}")


_GROUP_FAMILY = {"C": "cyclic", "S": "symmetric", "D": "dihedral"}


def build_structure(atom: GroupAtom | SgrpAtom, limits: EngineLimits = DEFAULT_LIMITS):
    if isinstance(atom, GroupAtom):
        return structures.build_group((_GROUP_FAMILY[atom.family], atom.n), limits)
    if atom.family == "map":
        return structures.build_semigroup(("symmetric_semigroup", atom.n), limits)
    return structures.build_semigroup(("zn_multiplicative", atom.n), limits)


def structure_from_text(text: str, limits: EngineLimits = DEFAULT_LIMITS):
    """Build the group (C<n>, S<n>, D<n>) or semigroup (S(<n>), Zn*<n>) a
    group or sgrp atom of the grammar names."""
    for parse_atom in (_parse_sgrp, _parse_group):
        sc = _Scanner(text)
        try:
            atom = parse_atom(sc)
        except SpecSyntaxError:
            continue
        if sc.done():
            return build_structure(atom, limits)
    raise SpecSyntaxError(
        f"expected a group C<n>, S<n>, D<n> or a semigroup S(<n>), Zn*<n>, got {text!r}", 0
    )


def build_ring(spec: RingSpec, limits: EngineLimits = DEFAULT_LIMITS, validate: bool = True):
    """Construct the ring a spec describes."""
    if isinstance(spec, ZnSpec):
        return rings.zn(spec.n, limits, validate)
    if isinstance(spec, ProductSpec):
        return rings.product_ring(
            [build_ring(f, limits, validate) for f in spec.factors], limits, validate
        )
    if isinstance(spec, MatrixSpec):
        return rings.matrix_ring(build_ring(spec.base, limits, validate), spec.k, limits, validate)
    if isinstance(spec, GroupRingSpec):
        return rings.group_ring(
            build_ring(spec.base, limits, validate), build_structure(spec.group, limits), limits, validate
        )
    if isinstance(spec, SemigroupRingSpec):
        return rings.semigroup_ring(
            build_ring(spec.base, limits, validate), build_structure(spec.sgrp, limits), limits, validate
        )
    if isinstance(spec, QuaternionSpec):
        return rings.quaternion_ring(spec.n, limits, validate)
    raise TypeError(f"not a ring spec: {spec!r}")


def ring_from_text(text: str, limits: EngineLimits = DEFAULT_LIMITS, validate: bool = True):
    return build_ring(parse(text), limits, validate)
