"""Property tests of the batch arithmetic kernels over random small ring
specs: each construction's kernel against a plain-Python per-element
reference, the structure-constant products of Z_n-based convolutions
against the term-by-term fold, dense tables (filled by linearity) against
the kernel, the exact audit of those tables against the audit of the
kernel grid over a corrupted component, the audit of a ring's
presentation (under a lowered enumeration cap) against the table audit of
its kernel grid, the exact audit against a plain triple loop, and the spec
printer against the parser.

Examples are derandomized: every run draws the same ones."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from srings.bits import mask_of
from srings.config import DEFAULT_LIMITS, EngineLimits
from srings.rings import (
    _QUATERNION_TERMS, RingHandle, _convolution, group_ring, matrix_ring, product_ring,
    ring_axiom_audit, semigroup_ring, subring_as_ring, table_ring, zn,
)
from srings.structures import CayleyStructure, cyclic_group, symmetric_group
from srings.specparse import (
    GroupAtom,
    GroupRingSpec,
    MatrixSpec,
    ProductSpec,
    QuaternionSpec,
    SemigroupRingSpec,
    SgrpAtom,
    ZnSpec,
    build_ring,
    build_structure,
    parse,
    print_spec,
)

SETTINGS = settings(
    max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)

# above the table cap, so these rings run on kernels: enumerable, int64
# codes with Python-int products, and Python-int codes
BIG_MODULI = [2049, 10**12, 2**64 + 13]

groups = st.one_of(
    st.builds(GroupAtom, st.just("C"), st.integers(1, 4)),
    st.builds(GroupAtom, st.just("S"), st.integers(2, 3)),
    st.builds(GroupAtom, st.just("D"), st.integers(3, 4)),
)
semigroups = st.one_of(
    st.builds(SgrpAtom, st.just("map"), st.integers(1, 2)),
    st.builds(SgrpAtom, st.just("znmul"), st.integers(2, 6)),
)
atoms = st.one_of(
    st.builds(ZnSpec, st.integers(1, 6)),
    st.builds(ZnSpec, st.sampled_from(BIG_MODULI)),
    st.builds(QuaternionSpec, st.sampled_from([2, 3, 4, 3000])),
)


def spec_strategy(depth: int):
    if depth == 0:
        return atoms
    inner = spec_strategy(depth - 1)
    single = st.one_of(
        atoms,
        st.builds(MatrixSpec, st.integers(1, 2), inner),
        st.builds(GroupRingSpec, inner, groups),
        st.builds(SemigroupRingSpec, inner, semigroups),
    )
    # factors are never products themselves: the grammar has no parentheses
    products = st.lists(single, min_size=2, max_size=3).map(lambda fs: ProductSpec(tuple(fs)))
    return st.one_of(single, products)


specs = spec_strategy(2)


# -- plain-Python reference arithmetic ------------------------------------------


def digits(code, radices):
    out = []
    for r in radices:
        out.append(code % r)
        code //= r
    return out


def undigits(ds, radices):
    code, w = 0, 1
    for d, r in zip(ds, radices):
        code += d * w
        w *= r
    return code


class Ref:
    """add, mul, neg on Python ints for the ring a spec names."""

    def __init__(self, spec):
        if isinstance(spec, ZnSpec):
            n = spec.n
            self.n = n
            self.add = lambda a, b: (a + b) % n
            self.mul = lambda a, b: a * b % n
            self.neg = lambda a: -a % n
        elif isinstance(spec, ProductSpec):
            parts = [Ref(f) for f in spec.factors]
            self._componentwise(parts)
            rad = [p.n for p in parts]
            self.mul = lambda a, b: undigits(
                [p.mul(x, y) for p, x, y in zip(parts, digits(a, rad), digits(b, rad))], rad)
        elif isinstance(spec, MatrixSpec):
            base, k = Ref(spec.base), spec.k
            self._componentwise([base] * (k * k))
            rad = [base.n] * (k * k)

            def mul(a, b):
                A, B = digits(a, rad), digits(b, rad)
                out = []
                for r in range(k):
                    for c in range(k):
                        acc = 0
                        for l in range(k):
                            acc = base.add(acc, base.mul(A[r * k + l], B[l * k + c]))
                        out.append(acc)
                return undigits(out, rad)

            self.mul = mul
        elif isinstance(spec, (GroupRingSpec, SemigroupRingSpec)):
            base = Ref(spec.base)
            S = build_structure(spec.group if isinstance(spec, GroupRingSpec) else spec.sgrp)
            s = S.size
            self._componentwise([base] * s)
            rad = [base.n] * s

            def mul(a, b):
                A, B = digits(a, rad), digits(b, rad)
                out = [0] * s
                for g in range(s):
                    for h in range(s):
                        k = int(S.table[g, h])
                        out[k] = base.add(out[k], base.mul(A[g], B[h]))
                return undigits(out, rad)

            self.mul = mul
        else:
            assert isinstance(spec, QuaternionSpec)
            n = spec.n
            self._componentwise([Ref(ZnSpec(n))] * 4)
            rad = [n] * 4

            def mul(a, b):
                p0, p1, p2, p3 = digits(a, rad)
                q0, q1, q2, q3 = digits(b, rad)
                return undigits([
                    (p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3) % n,
                    (p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2) % n,
                    (p0 * q2 + p2 * q0 + p3 * q1 - p1 * q3) % n,
                    (p0 * q3 + p3 * q0 + p1 * q2 - p2 * q1) % n,
                ], rad)

            self.mul = mul

    def _componentwise(self, parts):
        rad = [p.n for p in parts]
        self.n = undigits([r - 1 for r in rad], rad) + 1
        self.add = lambda a, b: undigits(
            [p.add(x, y) for p, x, y in zip(parts, digits(a, rad), digits(b, rad))], rad)
        self.neg = lambda a: undigits([p.neg(x) for p, x in zip(parts, digits(a, rad))], rad)


def codes(xs, n):
    return np.array(xs, dtype=np.int64 if n <= 2**63 else object)


# -- properties -----------------------------------------------------------------


@SETTINGS
@given(specs, st.data())
def test_batch_ops_match_reference(spec, data):
    R, ref = build_ring(spec, validate=False), Ref(spec)
    n = R.cardinality
    assert n == ref.n
    elements = st.lists(st.integers(0, n - 1), min_size=1, max_size=12)
    xs = data.draw(elements)
    ys = data.draw(st.lists(st.integers(0, n - 1), min_size=len(xs), max_size=len(xs)))
    a, b = codes(xs, n), codes(ys, n)
    kernels = [(R.vadd, R.vmul, R.vneg)]
    if R.kernel is not None:
        kernels.append(R.kernel)
    for add, mul, neg in kernels:
        assert [int(v) for v in add(a, b)] == [ref.add(x, y) for x, y in zip(xs, ys)]
        assert [int(v) for v in mul(a, b)] == [ref.mul(x, y) for x, y in zip(xs, ys)]
        assert [int(v) for v in neg(a)] == [ref.neg(x) for x in xs]
    x, y = xs[0], ys[0]
    assert (R.add(x, y), R.mul(x, y), R.neg(x)) == (ref.add(x, y), ref.mul(x, y), ref.neg(x))


def folded_mul(R):
    """R's mul rebuilt over its base wrapped as a table ring: that base was
    not built by zn, so the product folds the terms through its ops."""
    base = R.meta["base"]
    twin = table_ring(base.add_table, base.mul_table, validate=False)
    if R.construction == "quaternion":
        return _convolution(twin, 4, _QUATERNION_TERMS).mul
    if R.construction == "matrix":
        return matrix_ring(twin, R.meta["k"], validate=False).kernel.mul
    build = group_ring if R.construction == "group_ring" else semigroup_ring
    return build(twin, R.meta["structure"], validate=False).kernel.mul


def base_products(monkeypatch, mul, a, b):
    """mul(a, b) and the names of the rings whose vmul it called."""
    called = set()
    real = RingHandle.vmul

    def spy(self, x, y):
        called.add(self.name)
        return real(self, x, y)

    monkeypatch.setattr(RingHandle, "vmul", spy)
    out = mul(a, b)
    monkeypatch.undo()
    return out, called


@pytest.mark.parametrize("spec, count", [
    ("SR(Z2, S(3))", 2000), ("SR(Z3, S(2))", 200), ("SR(Z2, Zn*6)", 200), ("SR(Z4, Zn*3)", 200),
    ("GR(Z3, C4)", 200), ("GR(Z2, S3)", 200), ("GR(Z4, D4)", 200),
    ("M1(Z5)", 200), ("M2(Z4)", 200), ("M3(Z2)", 200), ("M3(Z200)", 200),
    ("Q(Z2)", 200), ("Q(Z3)", 200), ("Q(Z4)", 200), ("Q(Z5)", 200),
])
def test_structure_constant_products_match_the_fold(monkeypatch, spec, count):
    # 1-D codes, a rows x cols grid and length-1 arrays; M3(Z200) has
    # Python-int codes
    R = build_ring(parse(spec), validate=False)
    n, rnd = R.cardinality, random.Random(spec)
    a, b = (codes([rnd.randrange(n) for _ in range(count)], n) for _ in range(2))
    fold = folded_mul(R)
    assert base_products(monkeypatch, fold, a[:1], b[:1])[1]  # the reference folds
    for x, y in [(a, b), (a[:40, None], b[None, :count // 40]), (a[:1], b[:1]), (a[:1], b)]:
        out, called = base_products(monkeypatch, R.kernel.mul, x, y)
        assert not called  # no product went through the base ring
        expected = fold(x, y)
        assert out.shape == expected.shape and out.dtype == expected.dtype
        assert np.array_equal(out, expected)


@pytest.mark.parametrize("spec, structure_constants", [
    # GR(Z_n, C16) sums 16 products into each digit: 16 (n-1)^2 < 2^24 up to n = 1024
    ("GR(Z1024, C16)", True), ("GR(Z1025, C16)", False),
    # a row of B @ C holds size^2 cells, at most _TABLE_BLOCK = 128^2
    ("GR(Z2, C128)", True), ("GR(Z2, C129)", False),
    ("Q(Z2049)", False), ("Q(Z3000)", False), ("M2(Z2 x Z2)", False), ("GR(Z2 x Z3, C2)", False),
])
def test_products_take_structure_constants_only_within_their_bounds(monkeypatch, spec, structure_constants):
    R, ref = build_ring(parse(spec), validate=False), Ref(parse(spec))
    n, rnd = R.cardinality, random.Random(spec)
    xs = [n - 1, 1, R.one] + [rnd.randrange(n) for _ in range(12)]  # n - 1: every digit largest
    a, b = codes(xs, n), codes(xs[::-1], n)
    out, called = base_products(monkeypatch, R.kernel.mul, a, b)
    assert (not called) == structure_constants
    assert [int(v) for v in out] == [ref.mul(x, y) for x, y in zip(xs, xs[::-1])]


def test_presentation_audit_peak_memory_is_a_few_mb():
    # no d^4 tensor over the 128 digits of GR(Z2, C128) and no n^3 scan
    for spec in ["GR(Z2, C128)", "M9(Z9)"]:
        R = build_ring(parse(spec), validate=False)
        tracemalloc.start()
        try:
            assert ring_axiom_audit(R).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (spec, peak)


@SETTINGS
@given(specs.filter(lambda s: Ref(s).n <= 300))
def test_dense_tables_match_kernel(spec):
    R = build_ring(spec, validate=False)
    n = R.cardinality
    if R.kernel is None:  # Zn below the table cap is built from tables only
        return
    a, b = np.divmod(np.arange(n * n), n)
    assert np.array_equal(R.add_table, R.kernel.add(a, b).reshape(n, n))
    assert np.array_equal(R.mul_table, R.kernel.mul(a, b).reshape(n, n))
    assert R.add_table.dtype == np.int32


def kernel_grid_ring(R):
    """R's kernel evaluated on the whole grid, as a table ring."""
    n = R.cardinality
    a, b = np.divmod(np.arange(n * n), n)
    return table_ring(R.kernel.add(a, b).reshape(n, n), R.kernel.mul(a, b).reshape(n, n),
                      name="kernel grid", one=R.one, validate=False)


@pytest.mark.parametrize("spec", ["M2(Z8)", "Q(Z8)", "GR(Z2, C12)", "Z4 x Z4 x Z4 x Z4 x Z4 x Z4"])
def test_linearly_filled_tables_match_kernel_rows(spec):
    # 4,096 elements each: the tables are filled by linearity, not by the kernel
    R = build_ring(parse(spec), validate=False)
    n = R.cardinality
    rows = np.random.default_rng(0).choice(n, 64, replace=False)[:, None]
    cols = np.arange(n)[None, :]
    assert np.array_equal(R.add_table[rows[:, 0]], R.kernel.add(rows, cols))
    assert np.array_equal(R.mul_table[rows[:, 0]], R.kernel.mul(rows, cols))


@SETTINGS
@given(st.sampled_from([2, 3, 4]), st.sampled_from(["matrix", "group ring", "product", "product, last"]), st.data())
def test_audit_of_linear_tables_over_a_corrupted_component_matches_the_kernel_grid(m, kind, data):
    # If the linearly filled tables form a ring, each component embeds at an
    # idempotent basis position, so it is a ring and the tables equal the
    # kernel grid: both audits must give the same verdict.
    base = zn(m)
    tables = [base.add_table.copy(), base.mul_table.copy()]
    which, i, j = data.draw(st.integers(0, 1)), data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    tables[which][i, j] = data.draw(st.integers(0, m - 1).filter(lambda v: v != tables[which][i, j]))
    bad = table_ring(*tables, name="corrupted", validate=False)
    if kind == "matrix":
        R = matrix_ring(bad, 2, validate=False)
    elif kind == "group ring":
        groups = [cyclic_group(2), cyclic_group(3)] + [symmetric_group(3)] * (m == 2)  # at most 64 elements
        R = group_ring(bad, data.draw(st.sampled_from(groups)), validate=False)
    else:
        other = zn(data.draw(st.integers(2, 3)))
        R = product_ring([bad, other] if kind == "product" else [other, bad], validate=False)
    assert ring_axiom_audit(R).passed == ring_axiom_audit(kernel_grid_ring(R)).passed


# caps under which a ring of more than 8 (or 2) elements is audited from its
# presentation; 8 keeps every structure the strategies name buildable
LOW = EngineLimits(enumeration_cap=8, table_cap=8)
LOWEST = EngineLimits(enumeration_cap=2, table_cap=2)
ADDITIVE_LAWS = {"additive-commutativity", "zero-element", "additive-inverse", "additive-associativity"}


def law_breaks(R, axiom, witness):
    """Whether the axiom fails at the witness, by R's scalar add and mul."""
    add, mul, E = R.add, R.mul, range(R.cardinality)
    if axiom == "additive-commutativity":
        a, b = witness
        return add(a, b) != add(b, a)
    if axiom == "zero-element":
        return add(R.zero, witness[0]) != witness[0]
    if axiom == "additive-inverse":
        return all(add(witness[0], y) != R.zero for y in E)
    if axiom == "unit-element":
        return any(mul(R.one, x) != x or mul(x, R.one) != x for x in E)
    a, b, c = witness
    lhs, rhs = {
        "additive-associativity": lambda: (add(add(a, b), c), add(a, add(b, c))),
        "multiplicative-associativity": lambda: (mul(mul(a, b), c), mul(a, mul(b, c))),
        "left-distributivity": lambda: (mul(a, add(b, c)), add(mul(a, b), mul(a, c))),
        "right-distributivity": lambda: (mul(add(a, b), c), add(mul(a, c), mul(b, c))),
    }[axiom]()
    return lhs != rhs


def grid_verdict(R):
    """The table audit's verdict on R's kernel grid (on R's own tables for Z_n)."""
    return ring_axiom_audit(kernel_grid_ring(R) if R.kernel is not None else R).passed


@SETTINGS
@given(specs.filter(lambda s: Ref(s).n <= 256))
def test_presentation_audit_matches_table_audit(spec):
    low = build_ring(spec, LOW, validate=False)
    rep = ring_axiom_audit(low)
    assert rep.method == ("exhaustive" if low.cardinality <= 8 else "presentation")
    assert rep.passed == grid_verdict(build_ring(spec, validate=False))


def _convolution_ring(base, size, terms, one, limits):
    """A convolution over base whose kernel and audit both read terms."""
    return RingHandle(base.cardinality**size, "convolution", "corrupted", one=one,
                      kernel=_convolution(base, size, terms), radices=[base.cardinality] * size,
                      meta={"base": base, "terms": terms}, limits=limits)


def corrupted_terms(case, limits):
    if case == "magma algebra":
        return _magma_algebra(limits)
    if case.startswith("Q"):  # ij = -k in place of k
        terms = [(g, h, k, negated != ((g, h) == (1, 2))) for g, h, k, negated in _QUATERNION_TERMS]
        return _convolution_ring(zn(int(case[3])), 4, terms, 1, limits)
    R = group_ring(zn(2), symmetric_group(3), limits, validate=False)
    terms = list(R.meta["terms"])
    g, h, k, negated = terms[7]  # one product moved to the next basis element
    terms[7] = (g, h, (k + 1) % 6, negated)
    return _convolution_ring(R.meta["base"], 6, terms, R.one, limits)


@pytest.mark.parametrize("case, passes", [
    ("Q(Z3) ij sign", False),
    ("Q(Z2) ij sign", True),  # -1 = 1 mod 2
    ("GR(Z2, S3) moved product", False),
    ("magma algebra", False),
])
def test_presentation_audit_matches_table_audit_on_corrupted_terms(case, passes):
    low = corrupted_terms(case, LOWEST)
    rep = ring_axiom_audit(low)
    assert rep.method == "presentation"
    assert rep.passed == grid_verdict(corrupted_terms(case, DEFAULT_LIMITS)) == passes
    for v in rep.violations:
        assert law_breaks(low, v.axiom, v.witness), v


def even_residues(n):
    return subring_as_ring(zn(n), mask_of(range(0, n, 2)))


@pytest.mark.parametrize("base, passes", [
    # 2Z_n has no 1, and in 2Z4 and 2Z8 every product of three elements is 0:
    # there the magma algebra is associative although its basis table is not
    (lambda: even_residues(4), True),
    (lambda: even_residues(8), True),
    (lambda: even_residues(16), False),
    # a declared 1 that is no unit (2 in Z4) spans no more than 2Z4 does
    (lambda: table_ring(zn(4).add_table, zn(4).mul_table, one=2, validate=False), False),
], ids=["2Z4", "2Z8", "2Z16", "Z4 with 1 = 2"])
def test_presentation_audit_over_a_base_without_a_one(base, passes):
    base = base()
    low = _magma_algebra(LOWEST, base)
    rep = ring_axiom_audit(low)
    assert rep.method == "presentation"
    assert rep.passed == grid_verdict(_magma_algebra(DEFAULT_LIMITS, base)) == passes
    for v in rep.violations:
        assert law_breaks(low, v.axiom, v.witness), v


@SETTINGS
@given(st.sampled_from([2, 3, 4]), st.sampled_from(["matrix", "group ring", "product", "product, last"]), st.data())
def test_presentation_audit_matches_table_audit_over_a_corrupted_base(m, kind, data):
    base = zn(m)
    tables = [base.add_table.copy(), base.mul_table.copy()]
    which, i, j = data.draw(st.integers(0, 1)), data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    tables[which][i, j] = data.draw(st.integers(0, m - 1).filter(lambda v: v != tables[which][i, j]))
    bad = table_ring(*tables, name="corrupted", validate=False)
    G = data.draw(st.sampled_from([cyclic_group(2), cyclic_group(3)] + [symmetric_group(3)] * (m == 2)))
    other = zn(data.draw(st.integers(2, 3)))

    def build(limits):
        if kind == "matrix":
            return matrix_ring(bad, 2, limits, validate=False)
        if kind == "group ring":
            return group_ring(bad, G, limits, validate=False)
        return product_ring([bad, other] if kind == "product" else [other, bad], limits, validate=False)

    low = build(LOWEST)
    rep = ring_axiom_audit(low)
    assert rep.method == "presentation"
    assert rep.passed == grid_verdict(build(DEFAULT_LIMITS))
    # a base violation lifted to one digit is R's for the laws of +, in a
    # product, and wherever the base's 0 is its additive identity and absorbs
    # every product
    idx = np.arange(m)
    zero_acts = (np.array_equal(tables[0][0], idx) and np.array_equal(tables[0][:, 0], idx)
                 and not tables[1][0].any() and not tables[1][:, 0].any())
    for v in rep.violations:
        if kind.startswith("product") or zero_acts or v.axiom in ADDITIVE_LAWS:
            assert law_breaks(low, v.axiom, v.witness), v


def test_matrix_kernel_over_a_corrupted_table_matches_plain_products():
    # M3 over Z4 with 2 * 3 corrupted: 4^9 elements, so the audit reads the
    # presentation.  The reference reads the base tables as lists, with no
    # batch op.
    base = build_ring(ZnSpec(4))
    mul = base.mul_table.copy()
    mul[2, 3] = 1
    bad = table_ring(base.add_table.copy(), mul, name="corrupted", validate=False)
    R = matrix_ring(bad, 3, validate=False)
    add_t, mul_t, rad = bad.add_table.tolist(), mul.tolist(), [4] * 9

    def add(x, y):
        return undigits([add_t[a][b] for a, b in zip(digits(x, rad), digits(y, rad))], rad)

    def times(x, y):
        A, B = digits(x, rad), digits(y, rad)
        out = []
        for r, c in itertools.product(range(3), repeat=2):
            acc = 0
            for l in range(3):
                acc = add_t[acc][mul_t[A[3 * r + l]][B[3 * l + c]]]
            out.append(acc)
        return undigits(out, rad)

    a, b = np.random.default_rng(1).integers(0, R.cardinality, size=(2, 300))
    assert R.kernel.mul(a, b).tolist() == [times(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert R.kernel.add(a, b).tolist() == [add(x, y) for x, y in zip(a.tolist(), b.tolist())]

    laws = [
        ("additive-commutativity", lambda a, b, c: add(a, b) == add(b, a), 2),
        ("additive-associativity", lambda a, b, c: add(add(a, b), c) == add(a, add(b, c)), 3),
        ("multiplicative-associativity", lambda a, b, c: times(times(a, b), c) == times(a, times(b, c)), 3),
        ("left-distributivity", lambda a, b, c: times(a, add(b, c)) == add(times(a, b), times(a, c)), 3),
        ("right-distributivity", lambda a, b, c: times(add(a, b), c) == add(times(a, c), times(b, c)), 3),
    ]
    # 0 still absorbs every product of the base, so each base violation,
    # lifted to entry (0, 0), breaks its law in R
    rep = ring_axiom_audit(R)
    assert rep.method == "presentation" and not rep.passed
    for v in rep.violations:
        holds, k = next((holds, k) for axiom, holds, k in laws if axiom == v.axiom)
        assert len(v.witness) == k and not holds(*v.witness, *[0] * (3 - k)), v


def triple_loop_audit(R):
    """Every axiom R breaks, each at its least witness, by plain loops over
    all pairs and triples: the reference for the exact audit."""
    n, add, mul = R.cardinality, R.add_table.tolist(), R.mul_table.tolist()
    E = range(n)
    laws = [
        ("additive-commutativity", itertools.product(E, E), lambda a, b: add[a][b] != add[b][a]),
        ("zero-element", ((a,) for a in E), lambda a: add[0][a] != a),
        ("additive-inverse", ((a,) for a in E), lambda a: 0 not in add[a]),
        ("additive-associativity", itertools.product(E, E, E),
         lambda a, b, c: add[add[a][b]][c] != add[a][add[b][c]]),
        ("multiplicative-associativity", itertools.product(E, E, E),
         lambda a, b, c: mul[mul[a][b]][c] != mul[a][mul[b][c]]),
        ("left-distributivity", itertools.product(E, E, E),
         lambda a, b, c: mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]),
        # least c first, then a, then b
        ("right-distributivity", ((a, b, c) for c in E for a in E for b in E),
         lambda a, b, c: mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]),
        ("unit-element", [(R.one,)] if R.one is not None else [],
         lambda e: any(mul[e][x] != x or mul[x][e] != x for x in E)),
    ]
    out = []
    for axiom, witnesses, fails in laws:
        w = next((w for w in witnesses if fails(*w)), None)
        if w is not None:
            out.append((axiom, w))
    return out


def exact_audit(R):
    rep = ring_axiom_audit(R)
    assert rep.method == "exhaustive"
    return rep.passed, [(v.axiom, v.witness) for v in rep.violations]


@SETTINGS
@given(specs.filter(lambda s: 2 <= Ref(s).n <= 27), st.data())
def test_exact_audit_matches_triple_loop_on_corrupted_tables(spec, data):
    R = build_ring(spec, validate=False)
    n = R.cardinality
    tables = [R.add_table.copy(), R.mul_table.copy()]
    for _ in range(data.draw(st.integers(1, 3))):
        which = data.draw(st.integers(0, 1))
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        tables[which][i, j] = data.draw(st.integers(0, n - 1).filter(lambda v: v != tables[which][i, j]))
    one = R.one if data.draw(st.booleans()) else None  # None: table_ring looks for a 1
    bad = table_ring(*tables, name="corrupted", one=one, validate=False)
    expected = triple_loop_audit(bad)
    assert exact_audit(bad) == (not expected, expected)


def _near_ring(n, mirrored):
    """Z_n with a*b = b when a != 0, else 0: left distributive and
    associative, not right distributive.  Mirrored (a*b = a when b != 0),
    the two distributive laws swap."""
    r = np.arange(n)
    mul = np.where(r[:, None] != 0, r[None, :], 0)
    return table_ring(zn(n).add_table, mul.T if mirrored else mul, validate=False)


def _broken_addition():
    """Z5 with 1 + 1 set to 3 and zero multiplication: + stays commutative
    with zero and inverses, every law on products holds, + is not associative."""
    add = zn(5).add_table.copy()
    add[1, 1] = 3
    return table_ring(add, np.zeros((5, 5), dtype=np.int32), validate=False)


def _magma_algebra(limits=DEFAULT_LIMITS, base=None):
    """Z2 (or base) spanned by a 2-element magma with x*x = y and all other
    products x: bilinear, so both distributive laws hold, but (xx)y != x(xy)."""
    magma = CayleyStructure("semigroup", 2, np.array([[1, 0], [0, 0]]), None, "M")
    return semigroup_ring(base or zn(2), magma, limits, validate=False)


@pytest.mark.parametrize("build, axiom", [
    (_broken_addition, "additive-associativity"),
    (lambda: _near_ring(3, mirrored=False), "right-distributivity"),
    (lambda: _near_ring(3, mirrored=True), "left-distributivity"),
    (_magma_algebra, "multiplicative-associativity"),
])
def test_exact_audit_finds_each_law_broken_alone(build, axiom):
    # every 2-variable check passes, so only the check over additive
    # generators for this one law can find the fault
    R = build()
    expected = triple_loop_audit(R)
    assert [a for a, _ in expected] == [axiom]
    assert exact_audit(R) == (False, expected)


@SETTINGS
@given(specs)
def test_print_parse_round_trip(spec):
    assert parse(print_spec(spec)) == spec
