"""Finite ring construction, validation and element arithmetic.

Element codes are canonical integers 0..cardinality-1.  Structured rings
use a mixed-radix little-endian codec over their components/coefficients
(component 0 least significant), so reports are stable across runs.  The
zero element always has code 0.

Each construction defines its arithmetic once, as a :class:`Kernel` of batch
``add``/``mul``/``neg`` functions over arrays of element codes.  A kernel
splits codes into mixed-radix digits, applies the component rings' own batch
operations (one flat gather from an op table, cell a * n + b, or their own
kernels when they have no tables) and joins the digits again.  The one
exception is the product of a convolution (matrix, group, semigroup and
quaternion rings) over a base built by zn: there every digit is an integer
sum over the construction's structure constants, evaluated as float32
matrix products wherever that is exact, and reduced mod n.  Everything
else is that kernel evaluated on other arrays, or read off tables built from
it.  Dense op tables take from the kernel only the rows of 0 and of each
one-digit code d.w_i; every other row x = top + rest, top = d.w_j for x's
highest nonzero digit d, is filled by linearity in row blocks, x + y =
top + (rest + y) and then xy = top.y + rest.y.  On a ring these are the
kernel's rows; where a component is no ring, the exact audit of the tables
gives the kernel grid's verdict, though maybe not its witnesses.  A scalar
``add``/``mul``/``neg`` on a ring without tables is the kernel on length-1
arrays.  Every axiom audit is exact and cached on the handle.  The audit of
an enumerable ring reads its tables, over additive generators.  A ring above
the enumeration cap is audited from how it was built: from its components'
audits and, for a convolution, from the finite table of its basis under the
``terms`` list its kernel reads.  Codes are int64 below 2^63 and Python ints
(dtype object) from there on, so no cardinality overflows.

(R,+) is read once per ring handle and cached: :func:`additive_generators`
is its greedy generating set, and :func:`additive_group` one walk x, 2x, 3x,
... over the addition table for every additive order and cyclic subgroup.
Quotients are array code too; scalar ``add``/``mul``/``neg`` serve only the
re-check of single witnesses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .bits import contains, distinct, elements_of, masks_of
from .config import DEFAULT_LIMITS, EngineLimits
from .errors import CapacityError, ValidationError
from .structures import CayleyStructure, associative_over, associativity_witness, generators

# grid cells per row block when a dense table is filled from a kernel or
# scanned by the audit, and per block of a product from structure constants;
# bounds the intermediates whatever the cardinality
_TABLE_BLOCK = 1 << 14


class Kernel(NamedTuple):
    """Batch arithmetic of a construction, elementwise over broadcastable
    arrays of element codes."""

    add: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    neg: Callable[[np.ndarray], np.ndarray]


class RingHandle:
    """A finite ring: a batch arithmetic kernel, or op tables, or both (tables
    are built from the kernel on first use).  ``radices`` are those of the
    kernel's mixed-radix codec, component 0 first; by default one digit."""

    def __init__(
        self,
        cardinality: int,
        construction: str,
        name: str,
        *,
        one: int | None,
        add_table: np.ndarray | None = None,
        mul_table: np.ndarray | None = None,
        kernel: Kernel | None = None,
        radices: list[int] | None = None,
        labeler: Callable[[int], str] | None = None,
        meta: dict | None = None,
        limits: EngineLimits = DEFAULT_LIMITS,
    ):
        self.cardinality = cardinality
        self.construction = construction
        self.name = name
        self.zero = 0
        self.one = one
        self.limits = limits
        self.meta = meta or {}
        self._add_table = add_table
        self._mul_table = mul_table
        self._neg_vec: np.ndarray | None = None
        self.kernel = kernel
        self.radices = radices or [cardinality]
        self._labeler = labeler
        self._cache: dict = {}

    # -- arithmetic ----------------------------------------------------------

    @property
    def enumerable(self) -> bool:
        return self.cardinality <= self.limits.enumeration_cap

    def _require_tables(self) -> None:
        if self._add_table is not None:
            return
        if not self.enumerable:
            raise CapacityError(
                f"{self.name}: cardinality {self.cardinality} exceeds the "
                f"enumeration cap {self.limits.enumeration_cap}"
            )
        n = self.cardinality
        add = np.empty((n, n), dtype=np.int32)
        mul = np.empty((n, n), dtype=np.int32)
        step = max(1, _TABLE_BLOCK // n)
        # the kernel's rows: 0 and every one-digit code d.w
        spans = list(zip(_weights(self.radices), self.radices))
        kernel_rows = np.array([0] + [d * w for w, r in spans for d in range(1, r)])
        cols = np.arange(n)[None, :]
        for r0 in range(0, len(kernel_rows), step):
            rows = kernel_rows[r0 : r0 + step]
            add[rows] = self.kernel.add(rows[:, None], cols)
            mul[rows] = self.kernel.mul(rows[:, None], cols)
        # every other x = top + rest, top its highest nonzero digit and rest in
        # [1, w): x + y = top + (rest + y), then xy = top.y + rest.y
        blocks = [(top, lo, min(w, lo + step))
                  for w, r in spans for top in range(w, w * r, w) for lo in range(1, w, step)]
        for top, lo, hi in blocks:
            add[top + lo : top + hi] = add[top].take(add[lo:hi])
        flat = add.ravel()
        for top, lo, hi in blocks:
            mul[top + lo : top + hi] = flat.take(mul[top].astype(np.int64) * n + mul[lo:hi])
        self._add_table, self._mul_table = add, mul

    @property
    def add_table(self) -> np.ndarray:
        self._require_tables()
        return self._add_table

    @property
    def mul_table(self) -> np.ndarray:
        self._require_tables()
        return self._mul_table

    @property
    def neg_vec(self) -> np.ndarray:
        if self._neg_vec is None:
            zero_pos = self.add_table == self.zero
            if not zero_pos.any(axis=1).all():
                raise ValidationError(f"{self.name}: some element has no additive inverse")
            self._neg_vec = np.argmax(zero_pos, axis=1).astype(np.int32)
        return self._neg_vec

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a + b elementwise over broadcastable arrays of codes in [0, n): a
        table reads cell (a, b) as the flat gather a * n + b, which is silently
        the wrong cell for a code outside that range."""
        if self._add_table is not None:
            return self._add_table.take(a * self.cardinality + b)
        return self.kernel.add(a, b)

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b elementwise over broadcastable arrays of codes in [0, n), read
        as one flat gather like vadd."""
        if self._mul_table is not None:
            return self._mul_table.take(a * self.cardinality + b)
        return self.kernel.mul(a, b)

    def vneg(self, a: np.ndarray) -> np.ndarray:
        """-a elementwise over an array of codes."""
        if self._add_table is not None:
            return self.neg_vec[a]
        return self.kernel.neg(a)

    def _scalar(self, op: Callable, *codes: int) -> int:
        dtype = _dtype(self.cardinality)
        return int(op(*(np.array([c], dtype=dtype) for c in codes))[0])

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return int(self._add_table[a, b])
        return self._scalar(self.kernel.add, a, b)

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return int(self._mul_table[a, b])
        return self._scalar(self.kernel.mul, a, b)

    def neg(self, a: int) -> int:
        if self._add_table is not None:
            return int(self.neg_vec[a])
        return self._scalar(self.kernel.neg, a)

    def elements(self) -> range:
        if not self.enumerable:
            raise CapacityError(f"{self.name}: not enumerable")
        return range(self.cardinality)

    def label(self, code: int) -> str:
        return self._labeler(code) if self._labeler else str(code)


def _cached(R: RingHandle, key, compute):
    if key not in R._cache:
        R._cache[key] = compute()
    return R._cache[key]


# -- mixed-radix codec --------------------------------------------------------


def _dtype(n: int):
    """Array dtype that holds every code below n."""
    return np.int64 if n <= 2**63 else object


def _weights(radices: list[int]) -> list[int]:
    w, acc = [], 1
    for r in radices:
        w.append(acc)
        acc *= r
    return w


def _decode(code: int, radices: list[int]) -> list[int]:
    out = []
    for r in radices:
        out.append(code % r)
        code //= r
    return out


def _encode(digits, radices: list[int]) -> int:
    code = 0
    for d, w in zip(digits, _weights(radices)):
        code += int(d) * w
    return code


def _split(codes: np.ndarray, radices: list[int]) -> list[np.ndarray]:
    """Digit arrays of an array of codes, component 0 first."""
    out = []
    for r in radices:
        rest = codes // r  # numpy's int64 floor division is far faster than its %
        out.append((codes - rest * r).astype(_dtype(r), copy=False))
        codes = rest
    return out


def _join(digits: list[np.ndarray], radices: list[int]) -> np.ndarray:
    """Inverse of _split: the codes of broadcastable digit arrays."""
    dtype = _dtype(math.prod(radices))
    codes = 0
    for d, w in zip(digits, _weights(radices)):
        codes = codes + d.astype(dtype, copy=False) * w
    return codes


# -- kernels ------------------------------------------------------------------


def _zn_kernel(n: int) -> Kernel:
    """Z_n arithmetic; Python ints once a product could overflow int64."""
    work = np.int64 if (n - 1) ** 2 < 2**63 else object
    out = _dtype(n)

    def lift(f):
        return lambda *xs: f(*(x.astype(work, copy=False) for x in xs)).astype(out, copy=False)

    return Kernel(lift(lambda a, b: (a + b) % n), lift(lambda a, b: a * b % n), lift(lambda a: -a % n))


def _componentwise(rings: list[RingHandle]) -> Kernel:
    """Kernel of the direct product of rings: each op digit by digit."""
    radices = [R.cardinality for R in rings]

    def lift(op):
        def run(*codes):
            digits = zip(rings, *(_split(c, radices) for c in codes))
            return _join([op(R, *xs) for R, *xs in digits], radices)

        return run

    return Kernel(lift(RingHandle.vadd), lift(RingHandle.vmul), lift(RingHandle.vneg))


def _convolution(base: RingHandle, size: int, terms: list[tuple[int, int, int, bool]]) -> Kernel:
    """Kernel of coefficient vectors of length size over base, where basis
    elements multiply by e_g e_h = e_k, or -e_k when negated, for each term
    (g, h, k, negated); pairs without a term multiply to 0.

    Over a base built by zn, whose arithmetic is integers mod n, a product's
    digit k is the integer sum of +-a_g b_h over k's terms, reduced mod n.
    Where (terms of k) (n-1)^2 < 2^24 for every k, no partial sum of it, in
    any order, leaves the integers float32 holds exactly, so mul evaluates
    every digit at once from the structure constants C[h, g, k] (the signed
    count of terms): BC = B @ C, then out_k = sum_g a_g BC[g, k], in blocks of
    at most _TABLE_BLOCK cells, and reduces mod n once.  A row of BC must fit
    one block, so size^2 <= _TABLE_BLOCK, which also keeps C at most 8 MiB.
    Every other base and size folds the terms through the base's own ops."""
    radices = [base.cardinality] * size
    coefficientwise = _componentwise([base] * size)

    def fold(a, b):
        da, db = _split(a, radices), _split(b, radices)
        out: list = [None] * size
        for g, h, k, negated in terms:
            t = base.vmul(da[g], db[h])
            if negated:
                t = base.vneg(t)
            out[k] = t if out[k] is None else base.vadd(out[k], t)
        zero = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=np.int64)
        return _join([zero if d is None else d for d in out], radices)

    n = base.cardinality
    per_digit = np.bincount([k for _, _, k, _ in terms], minlength=size)
    exact = int(per_digit.max()) * (n - 1) ** 2 < 2**24
    if base.construction != "zn" or not exact or size * size > _TABLE_BLOCK:
        return Kernel(coefficientwise.add, fold, coefficientwise.neg)
    constants = np.zeros((size, size, size), dtype=np.float32)
    for g, h, k, negated in terms:
        constants[h, g, k] += -1 if negated else 1
    constants = constants.reshape(size, size * size)
    outer, inner = _TABLE_BLOCK // size, _TABLE_BLOCK // size**2

    def mul(a, b):
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        a, b = (np.broadcast_to(x, shape).ravel() for x in (a, b))
        codes = np.empty(a.size, dtype=_dtype(n**size))
        for o in range(0, a.size, outer):
            A, B = (np.stack(_split(x[o : o + outer], radices), axis=1).astype(np.float32) for x in (a, b))
            out = np.empty_like(A)
            for i in range(0, len(A), inner):
                bc = (B[i : i + inner] @ constants).reshape(-1, size, size)
                out[i : i + inner] = np.matmul(A[i : i + inner, None, :], bc)[:, 0]
            digits = out.astype(np.int64)
            digits -= digits // n * n
            codes[o : o + outer] = _join(list(digits.T), radices)
        return codes.reshape(shape)

    return Kernel(coefficientwise.add, mul, coefficientwise.neg)


# -- validation ----------------------------------------------------------------


@dataclass
class AxiomViolation:
    axiom: str
    witness: tuple[int, ...]


@dataclass
class AuditReport:
    ring: str
    # "exhaustive" (from the op tables) | "presentation" (from the components
    # and basis tables, see _audit_convolution): exact verdicts over all n^3
    # triples
    method: str
    triples_checked: int
    violations: list[AxiomViolation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def _laws_hold_over(add: np.ndarray, mul: np.ndarray, gens: list[int]) -> bool:
    """The four 3-variable laws, with one or two arguments over generators of
    a commutative (R,+) with zero and inverses.  Each check is exact once those
    before it hold: the arguments that satisfy its law are closed under +."""
    n = add.shape[0]
    if not associative_over(add, gens):  # Light's test
        return False
    step = max(1, _TABLE_BLOCK // n)
    for b in gens:  # (a+b)c = ac + bc
        for r0 in range(0, n, step):
            a = slice(r0, r0 + step)
            if not np.array_equal(mul[add[a, b]], add.take(mul[a].astype(np.int64) * n + mul[b])):
                return False
    g = np.array(gens)
    a, b, c = g[:, None, None], g[None, :, None], np.arange(n)
    if not np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]]):  # a(b+c) = ab + ac
        return False
    return np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])  # (ab)c = a(bc)


def _audit_tables(R: RingHandle) -> list[AxiomViolation]:
    """Every axiom an enumerable ring breaks, each at its least witness; the
    n^3 scans run only when some check fails."""
    n = R.cardinality
    add, mul = R.add_table, R.mul_table
    out: list[AxiomViolation] = []
    idx = np.arange(n)

    if not np.array_equal(add, add.T):
        b, c = np.argwhere(add != add.T)[0]
        out.append(AxiomViolation("additive-commutativity", (int(b), int(c))))
    if not np.array_equal(add[R.zero], idx):
        out.append(AxiomViolation("zero-element", (int(np.argmax(add[R.zero] != idx)),)))
    if not (add == R.zero).any(axis=1).all():
        out.append(AxiomViolation("additive-inverse", (int(np.argmin((add == R.zero).any(axis=1))),)))
    unit_ok = R.one is None or (np.array_equal(mul[R.one], idx) and np.array_equal(mul[:, R.one], idx))
    if not out and unit_ok and _laws_hold_over(add, mul, additive_generators(R) or [R.zero]):
        return []
    for axiom, table in (("additive-associativity", add), ("multiplicative-associativity", mul)):
        w = associativity_witness(table)
        if w is not None:
            out.append(AxiomViolation(axiom, w))
    # right distributivity is left distributivity of the transposed product,
    # scanned by least c, then a, then b
    for axiom, m in (("left-distributivity", mul), ("right-distributivity", mul.T)):
        for x in range(n):
            d = m[x][add] != add[np.ix_(m[x], m[x])]
            if d.any():
                y, z = (int(v) for v in np.argwhere(d)[0])
                out.append(AxiomViolation(axiom, (x, y, z) if m is mul else (y, z, x)))
                break
    return out if unit_ok else out + [AxiomViolation("unit-element", (R.one,))]


def _lifted(R: RingHandle, C: RingHandle, weight: int) -> list[AxiomViolation]:
    """The violations of R's component C as R's: each witness code x as the
    code x.weight of R (C's digit, every other digit 0); a unit violation is
    R.one's, and dropped where R declares no 1.  Z_n, whose arithmetic is the
    integers mod n, has none to check."""
    found = [] if C.construction == "zn" else _violations(C)
    return [
        AxiomViolation(v.axiom, (R.one,) if v.axiom == "unit-element" else tuple(x * weight for x in v.witness))
        for v in found if v.axiom != "unit-element" or R.one is not None
    ]


def _basis_table(terms: list[tuple[int, int, int, bool]], size: int, signed: bool) -> np.ndarray:
    """Product table of the symbols 0, +e_g (1 + g) and, when signed, -e_g
    (1 + size + g) under terms; a pair without a term multiplies to 0."""
    if len({(g, h) for g, h, _, _ in terms}) < len(terms):
        raise ValueError("a basis pair has two terms")
    table = np.zeros((1 + size * (1 + signed),) * 2, dtype=np.int32)
    g, h, k, negated = (np.array(column, dtype=np.int64) for column in zip(*terms))
    for sg, sh in [(0, 0), (0, 1), (1, 0), (1, 1)] if signed else [(0, 0)]:
        table[1 + g + sg * size, 1 + h + sh * size] = 1 + k + (negated ^ sg ^ sh) * size * signed
    return table


def _basis_witness(R: RingHandle, table: np.ndarray, coefficients: list[int]) -> tuple[int, ...] | None:
    """The first basis triple (e_g, e_h, e_l), least g first, that breaks
    associativity in the basis table and still breaks it in R with some
    coefficients a, b, c, at (a e_g, b e_h, c e_l); None if there is none."""
    size, w = len(R.radices), R.meta["base"].cardinality
    pos = np.arange(1, size + 1)
    products = table[np.ix_(pos, pos)]
    for g in range(size):
        for h, l in np.argwhere(table[products[g]][:, pos] != table[1 + g][products]).tolist():
            x, y, z = (np.array(t, dtype=_dtype(R.cardinality)) for t in zip(*itertools.product(
                *([a * w**i for a in coefficients] for i in (g, h, l)))))
            bad = R.vmul(R.vmul(x, y), z) != R.vmul(x, R.vmul(y, z))
            if bad.any():
                i = int(np.argmax(bad))
                return int(x[i]), int(y[i]), int(z[i])
    return None


def _audit_convolution(R: RingHandle) -> list[AxiomViolation]:
    """A convolution's violations from its base and its basis table.  Over a
    base A with a 1, ((a e_g)(b e_h))(c e_l) = (abc)[(e_g e_h) e_l], so R is
    associative exactly when the basis table is (signs taken modulo the
    characteristic of A), and R.one is its unit exactly when it fixes every
    basis code 1.e_h on both sides; distributivity and the laws of (R,+) hold
    by construction.  A failing base reports its own violations, lifted at an
    idempotent basis position; the lift is a witness of R for the laws of +,
    and for every law wherever the base's 0 is its additive identity and
    absorbs every product.  Such a convolution fails even where its kernel
    happens to be a ring (M2 over Z2 with every product 1)."""
    base, terms = R.meta["base"], R.meta["terms"]
    size, w = len(R.radices), base.cardinality
    g = next((g for g, h, k, negated in terms if g == h == k and not negated), 0)
    found = _lifted(R, base, w**g)
    if found:
        return found
    # the base's declared 1 is a unit unless R, declaring none, dropped that
    # violation
    unital = base.one is not None and (base.construction == "zn" or not _violations(base))
    # signs count unless the characteristic is at most 2: 1 + 1 = 0 where the
    # base has a 1, which spares its additive walk
    signed = base.add(base.one, base.one) != base.zero if unital else characteristic(base) > 2
    table = _basis_table(terms, size, signed)
    out = []
    if not associative_over(table, generators(table)):
        # without a 1 the basis triples are retested with coefficients that
        # span the base: by trilinearity that is R's verdict
        coefficients = [base.one] if unital else additive_generators(base)
        witness = _basis_witness(R, table, coefficients)
        if witness is not None:
            out.append(AxiomViolation("multiplicative-associativity", witness))
    if R.one is not None:
        e = np.array([base.one * w**h for h in range(size)], dtype=_dtype(R.cardinality))
        one = np.full_like(e, R.one)
        if not (np.array_equal(R.vmul(one, e), e) and np.array_equal(R.vmul(e, one), e)):
            out.append(AxiomViolation("unit-element", (R.one,)))
    return out


def _audit_presentation(R: RingHandle) -> list[AxiomViolation]:
    """The violations of a ring above the enumeration cap, from how it was
    built: Z_n has none, a product has its factors', a convolution its base's
    and its basis table's.  Rings with op tables keep the table audit."""
    if R.construction == "zn":
        return []
    if R.construction == "product":
        return [v for f, w in zip(R.meta["factors"], _weights(R.radices)) for v in _lifted(R, f, w)]
    if "terms" in R.meta:
        return _audit_convolution(R)
    return _audit_tables(R)


def _violations(R: RingHandle) -> list[AxiomViolation]:
    """Every axiom R breaks, cached on its handle: the table audit of an
    enumerable ring, or else the audit of its presentation."""
    return _cached(R, "audit", lambda: _audit_tables(R) if R.enumerable else _audit_presentation(R))


def ring_axiom_audit(R: RingHandle) -> AuditReport:
    """Exact axiom report over all n^3 triples: the table audit of an
    enumerable ring (dense tables are built if missing), the audit of its
    presentation above the enumeration cap, where a ring built on a component
    that is no ring fails."""
    method = "exhaustive" if R.enumerable else "presentation"
    return AuditReport(R.name, method, R.cardinality**3, list(_violations(R)))


def validate_ring(R: RingHandle) -> RingHandle:
    """R, once ring_axiom_audit finds no violation; else ValidationError at
    the first."""
    violations = _violations(R)
    if violations:
        v = violations[0]
        raise ValidationError(f"{R.name}: {v.axiom} fails at {v.witness}")
    return R


# -- constructors ---------------------------------------------------------------


def zn(n: int, limits: EngineLimits = DEFAULT_LIMITS, validate: bool = True) -> RingHandle:
    if n < 1:
        raise ValueError("Zn needs n >= 1")
    if n <= limits.table_cap:
        r = np.arange(n)
        add = (np.add.outer(r, r) % n).astype(np.int32)
        mul = (np.multiply.outer(r, r) % n).astype(np.int32)
        R = RingHandle(n, "zn", f"Z{n}", one=(1 if n > 1 else 0), add_table=add, mul_table=mul, limits=limits, meta={"n": n})
    else:
        R = RingHandle(n, "zn", f"Z{n}", one=1, kernel=_zn_kernel(n), limits=limits, meta={"n": n})
    return validate_ring(R) if validate else R


def product_ring(factors: list[RingHandle], limits: EngineLimits = DEFAULT_LIMITS, validate: bool = True) -> RingHandle:
    if not factors:
        raise ValueError("product needs at least one factor")
    radices = [f.cardinality for f in factors]
    n = math.prod(radices)
    one = None
    if all(f.one is not None for f in factors):
        one = _encode([f.one for f in factors], radices)

    def labeler(code):
        return "(" + ",".join(f.label(x) for f, x in zip(factors, _decode(code, radices))) + ")"

    R = RingHandle(
        n, "product", " x ".join(f.name for f in factors), one=one,
        kernel=_componentwise(factors), radices=radices, labeler=labeler, meta={"factors": factors}, limits=limits,
    )
    if n <= limits.table_cap:
        R._require_tables()
    return validate_ring(R) if validate else R


def matrix_ring(base: RingHandle, k: int, limits: EngineLimits = DEFAULT_LIMITS, validate: bool = True) -> RingHandle:
    """k x k matrices over base; entries stored row-major as little-endian digits."""
    if k < 1:
        raise ValueError("matrix ring needs k >= 1")
    m = base.cardinality
    radices = [m] * (k * k)
    # entry (r, c) is digit r*k + c; (AB)[r][c] sums A[r][l] B[l][c] over l
    terms = [(r * k + l, l * k + c, r * k + c, False) for r in range(k) for c in range(k) for l in range(k)]
    one = None
    if base.one is not None:
        one = _encode([base.one if r == c else base.zero for r in range(k) for c in range(k)], radices)

    def labeler(code):
        d = [base.label(x) for x in _decode(code, radices)]
        return "[" + ";".join(",".join(d[r * k : (r + 1) * k]) for r in range(k)) + "]"

    R = RingHandle(
        m ** (k * k), "matrix", f"M{k}({base.name})", one=one,
        kernel=_convolution(base, k * k, terms), radices=radices, labeler=labeler,
        meta={"base": base, "k": k, "terms": terms}, limits=limits,
    )
    return validate_ring(R) if validate else R


def _structure_ring(
    base: RingHandle, S: CayleyStructure, construction: str,
    limits: EngineLimits, validate: bool,
) -> RingHandle:
    """Common core of group rings and semigroup rings: coefficient vectors over
    base indexed by structure elements, with convolution multiplication."""
    s = S.size
    radices = [base.cardinality] * s
    terms = [(g, h, int(S.table[g, h]), False) for g in range(s) for h in range(s)]
    one = None
    if base.one is not None and S.identity is not None:
        coeffs = [base.zero] * s
        coeffs[S.identity] = base.one
        one = _encode(coeffs, radices)

    def labeler(code):
        parts = []
        for g, c in enumerate(_decode(code, radices)):
            if c == base.zero:
                continue
            gl = S.label(g)
            if S.identity is not None and g == S.identity:
                parts.append(base.label(c))
            elif c == base.one:
                parts.append(f"[{gl}]")
            else:
                parts.append(f"{base.label(c)}[{gl}]")
        return "+".join(parts) if parts else "0"

    R = RingHandle(
        base.cardinality**s, construction, f"{base.name}{S.name}", one=one,
        kernel=_convolution(base, s, terms), radices=radices, labeler=labeler,
        meta={"base": base, "structure": S, "terms": terms}, limits=limits,
    )
    return validate_ring(R) if validate else R


def group_ring(base: RingHandle, G: CayleyStructure, limits: EngineLimits = DEFAULT_LIMITS, validate: bool = True) -> RingHandle:
    if G.kind != "group":
        raise ValueError("group_ring needs a group")
    return _structure_ring(base, G, "group_ring", limits, validate)


def semigroup_ring(base: RingHandle, S: CayleyStructure, limits: EngineLimits = DEFAULT_LIMITS, validate: bool = True) -> RingHandle:
    return _structure_ring(base, S, "semigroup_ring", limits, validate)


# basis 1, i, j, k: the product of basis elements g and h is +-(g xor h), and
# negative exactly for ii, ik, ji, jj, kj, kk
_QUATERNION_TERMS = [
    (g, h, g ^ h, (g, h) in {(1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (3, 3)}) for g in range(4) for h in range(4)
]


def quaternion_ring(n: int, limits: EngineLimits = DEFAULT_LIMITS, validate: bool = True) -> RingHandle:
    """Coefficient 4-tuples over Z_n with i2 = j2 = k2 = ijk = n-1.

    Multiplication is derived from the generator relations (ij = k,
    ji = (n-1)k, jk = i, kj = (n-1)i, ki = j, ik = (n-1)j) extended
    bilinearly.
    """
    if n < 2:
        raise ValueError("quaternion ring needs modulus n >= 2")

    def labeler(code):
        p = _decode(code, [n] * 4)
        units = ["", "i", "j", "k"]
        parts = [f"{c}{u}" if u else str(c) for c, u in zip(p, units) if c]
        return "+".join(parts) if parts else "0"

    base = zn(n, limits, validate=False)
    R = RingHandle(
        n**4, "quaternion", f"Q(Z{n})", one=1,
        kernel=_convolution(base, 4, _QUATERNION_TERMS), radices=[n] * 4,
        labeler=labeler, meta={"base": base, "terms": _QUATERNION_TERMS}, limits=limits,
    )
    return validate_ring(R) if validate else R


def table_ring(
    add_rows, mul_rows, name: str = "table", one: int | None = None,
    limits: EngineLimits = DEFAULT_LIMITS, validate: bool = True,
    labeler: Callable[[int], str] | None = None,
) -> RingHandle:
    add = np.ascontiguousarray(add_rows, dtype=np.int32)
    mul = np.ascontiguousarray(mul_rows, dtype=np.int32)
    n = add.shape[0]
    if one is None:
        idx = np.arange(n)
        for e in range(n):
            if np.array_equal(mul[e], idx) and np.array_equal(mul[:, e], idx):
                one = e
                break
    R = RingHandle(n, "table", name, one=one, add_table=add, mul_table=mul, limits=limits, labeler=labeler)
    return validate_ring(R) if validate else R


def subring_as_ring(R: RingHandle, mask: int, name: str | None = None, validate: bool = False) -> RingHandle:
    """The induced ring on a (pre-verified) subring subset; codes are positions
    in the ascending member list, zero stays at code 0."""
    members = elements_of(mask)
    if members[0] != R.zero:
        raise ValueError("subring subset must contain zero")
    arr = np.array(members)
    pos = np.full(R.cardinality, -1, dtype=np.int32)
    pos[arr] = np.arange(len(arr))
    add, mul = (pos[table[np.ix_(arr, arr)]] for table in (R.add_table, R.mul_table))
    sub = table_ring(add, mul, name=name or f"{R.name}|{mask:x}", limits=R.limits,
                     validate=validate, labeler=lambda c: R.label(int(arr[c])))
    sub.meta["parent"] = R
    sub.meta["parent_elements"] = members
    return sub


# -- quotients -----------------------------------------------------------------


def is_two_sided_ideal(R: RingHandle, mask: int) -> bool:
    """Direct definition check: additive subgroup absorbing both-sided products."""
    if not contains(mask, R.zero):
        return False
    members = elements_of(mask)
    inside = np.isin(np.arange(R.cardinality), members)
    add, mul = R.add_table, R.mul_table
    return bool(inside[add[np.ix_(members, members)]].all() and inside[R.neg_vec[members]].all()
                and inside[mul[:, members]].all() and inside[mul[members]].all())


def quotient_ring(R: RingHandle, ideal_mask: int, validate: bool = True) -> RingHandle:
    """R/I with canonical coset representatives (least element code per coset)."""
    if not R.enumerable:
        raise CapacityError(f"{R.name}: quotient needs an enumerable ring")
    if not is_two_sided_ideal(R, ideal_mask):
        raise ValueError("subset is not a two-sided ideal")
    rep = R.add_table[:, elements_of(ideal_mask)].min(axis=1)  # least element of x + I
    reps = distinct(rep)
    pos = np.zeros(R.cardinality, dtype=np.int32)
    pos[reps] = np.arange(len(reps))
    coset = pos[rep]  # the quotient code of every element
    add, mul = (coset[table[np.ix_(reps, reps)]] for table in (R.add_table, R.mul_table))
    one = int(coset[R.one]) if R.one is not None else None
    reps = reps.tolist()
    Q = RingHandle(
        len(reps), "quotient", f"{R.name}/I{ideal_mask:x}", one=one,
        add_table=add, mul_table=mul, limits=R.limits,
        meta={"parent": R, "ideal": ideal_mask, "reps": reps},
        labeler=lambda c: f"{R.label(reps[c])}+I",
    )
    return validate_ring(Q) if validate else Q


# -- characteristic --------------------------------------------------------------


class AdditiveGroup(NamedTuple):
    """What the walk x, 2x, 3x, ... reads off (R,+)."""

    orders: np.ndarray  # the additive order of every element
    exponent: int  # the lcm of the orders: the characteristic
    cyclics: dict[int, int]  # each cyclic subgroup's mask -> its least generator


def additive_group(R: RingHandle) -> AdditiveGroup:
    """Orders and cyclic subgroups of an enumerable ring's (R,+), from one
    vectorised walk of at most exponent rounds over the addition table;
    row x of ``multiples`` collects m.x, so it ends as the mask of <x>."""

    def walk():
        n, add = R.cardinality, R.add_table
        idx = acc = np.arange(n)
        multiples = np.zeros((n, n), dtype=bool)
        orders = np.zeros(n, dtype=np.int64)
        for m in range(1, n + 1):
            multiples[idx, acc] = True
            orders[(acc == R.zero) & (orders == 0)] = m
            if orders.all():
                break
            acc = add[acc, idx]
        else:
            raise ValidationError(f"{R.name}: additive structure is not a group")
        cyclics: dict[int, int] = {}
        for x, mask in enumerate(masks_of(multiples)):
            cyclics.setdefault(mask, x)
        return AdditiveGroup(orders, math.lcm(*orders.tolist()), cyclics)

    return _cached(R, "additive_group", walk)


def additive_generators(R: RingHandle) -> list[int]:
    """The greedy generating set of (R,+) over {0}: index order on a group
    table, so a basis when (R,+) is elementary abelian."""
    return _cached(R, "additive_generators", lambda: generators(R.add_table, 1 << R.zero))


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def characteristic(R: RingHandle) -> int:
    """Least m >= 1 with m.x = 0 for every x: the additive exponent."""
    if R.enumerable:
        return additive_group(R).exponent
    # above the cap: derive from the construction
    if R.construction == "zn":
        return R.meta["n"]
    if R.construction == "product":
        return math.lcm(*(characteristic(f) for f in R.meta["factors"]))
    if "base" in R.meta:  # matrix, group, semigroup and quaternion rings
        return characteristic(R.meta["base"])
    raise CapacityError(f"{R.name}: characteristic needs an enumerable ring")


# -- hyperrings -------------------------------------------------------------------


@dataclass(frozen=True)
class HyperPairSet:
    """Pairs (x op y, x op y op q) over Z_n for one operation and shift q."""

    n: int
    q: int
    op_kind: str  # "additive" | "multiplicative"
    pairs: frozenset
    is_subring: bool


def _hyper_pairs(n: int, q: int | np.ndarray, op_kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Both coordinates of the pairs (t, t op q) over every t = x op y in Z_n;
    a column of shifts q gives one row of second coordinates per shift."""
    r = np.arange(n)
    if op_kind == "additive":
        return r, (r + q) % n  # every t is t + 0
    t = distinct(np.multiply.outer(r, r) % n)
    return t, t * q % n


def hyperring(n: int, q: int, op_kind: str) -> HyperPairSet:
    if not 0 <= q < n:
        raise ValueError("shift q must satisfy 0 <= q < n")
    if op_kind not in ("additive", "multiplicative"):
        raise ValueError("op_kind must be additive or multiplicative")
    t, u = _hyper_pairs(n, q, op_kind)
    inside = np.zeros((n, n), dtype=bool)
    inside[t, u] = True
    # closed under componentwise differences and products of every two pairs
    closed = all(inside[op(t[:, None], t) % n, op(u[:, None], u) % n].all() for op in (np.subtract, np.multiply))
    return HyperPairSet(n, q, op_kind, frozenset(zip(t.tolist(), u.tolist())), closed)


def hyperring_family_partition(n: int, op_kind: str) -> tuple[bool, bool]:
    """(pairwise disjoint, union covers Z_n x Z_n) over all shifts q."""
    t, u = _hyper_pairs(n, np.arange(n)[:, None], op_kind)
    seen = distinct(t * n + u)  # one pair per (q, t), so repeats are shared pairs
    return len(seen) == u.size, len(seen) == n * n
