"""Span recorder that times srings layer by layer from outside the package.

``Recorder.install`` replaces each public function of the layer modules
with a timing wrapper at every srings module attribute bound to that same
function object, so calls through re-exports (``from .substructures import
ideal_generated`` in elements.py) are timed too.  One private hook is added:
``RingHandle._require_tables``, recorded only when it really builds the
dense operation tables.

Spans (name, parent, start, end) stay in memory.  ``summary`` turns them
into per-layer self times (a span's time minus its child spans) and counts.
A span's self time goes to its function's bucket; a function without a
bucket of its own passes its time to its caller's bucket when the caller is
of the same layer, and otherwise to the layer's default bucket.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = (
    "specparse", "structures", "rings", "substructures", "elements",
    "predicates", "lattices", "claims", "report", "cli",
)

# build_ring and ring_from_text construct rings, so they are timed with the
# ring constructors rather than with spec parsing
MOVED = {
    "specparse.build_ring": "rings",
    "specparse.ring_from_text": "rings",
    "specparse.build_structure": "structures",
}

CONSTRUCTORS = {
    "rings." + f for f in (
        "build_ring", "ring_from_text", "zn", "product_ring", "matrix_ring", "group_ring",
        "semigroup_ring", "quaternion_ring", "table_ring", "subring_as_ring", "quotient_ring",
    )
}

FAMILIES = {
    "additive_subgroups", "subrings", "ideals", "field_subsets", "domain_subsets",
    "s_subrings", "s_ideals", "s_pseudo_ideals",
}

BUCKETS = {
    **{name: "rings.construct_ms" for name in CONSTRUCTORS},
    "rings.tables": "rings.tables_ms",
    "substructures.ideal_generated": "substructures.ideal_generated_ms",
    "substructures.additive_subgroups": "substructures.additive_subgroups_ms",
    "substructures.subrings": "substructures.subrings_ms",
    "substructures.ideals": "substructures.ideals_ms",
    "substructures.field_subsets": "substructures.field_domain_ms",
    "substructures.domain_subsets": "substructures.field_domain_ms",
    **{
        "substructures." + f: "substructures.s_family_ms"
        for f in ("s_subrings", "s_ideals", "s_pseudo_ideals", "has_s_ring",
                  "s_maximal_minimal", "s_characteristic", "s_simplicity")
    },
    "elements.semi_idempotents": "elements.semi_idempotents_ms",
    "elements.classify_units": "elements.units_ms",
    "elements.inverses": "elements.units_ms",
    "elements.classify_zero_divisors": "elements.zero_divisors_ms",
    "elements.classify_idempotents": "elements.idempotents_ms",
    "elements.classify_nilpotents": "elements.nilpotents_ms",
    "elements.semiunits": "elements.semiunits_ms",
    "lattices.poset_from_family": "lattices.poset_ms",
    "lattices.lattice_from_poset": "lattices.build_ms",
    "lattices.check_identity.modular": "lattices.identity2_ms",
    "lattices.check_identity.distributive": "lattices.identity2_ms",
    "lattices.check_identity.quasi_distributive": "lattices.identity4_ms",
    "lattices.check_identity.supermodular": "lattices.identity4_ms",
    "lattices.forbidden_sublattices": "lattices.sublattice_ms",
    "lattices.find_forbidden_sublattice": "lattices.sublattice_ms",
    "lattices.chain_stats": "lattices.chain_stats_ms",
    "claims.parse_ledger": "claims.parse_ledger_ms",
    "report.dumps": "report.dumps_ms",
}

# where a layer's time goes when neither the function nor its caller in the
# same layer names a bucket
DEFAULT_BUCKET = {
    "specparse": "specparse.parse_ms",
    "structures": "structures.build_ms",
    "rings": "rings.other_ms",
    "substructures": "substructures.other_ms",
    "elements": "elements.other_census_ms",
    "predicates": "predicates.run_ms",
    "lattices": "lattices.other_ms",
    "claims": "claims.eval_self_ms",
    "report": "report.build_ms",
    "cli": "cli.self_ms",
}

# every per-layer metric a traced run reports, with its unit
METRICS = {
    "rings.self_ms": "ms",
    "rings.construct_ms": "ms",
    "rings.construct_calls": "count",
    "rings.tables_ms": "ms",
    "specparse.parse_ms": "ms",
    "structures.build_ms": "ms",
    "substructures.self_ms": "ms",
    "substructures.ideal_generated_ms": "ms",
    "substructures.ideal_generated_calls": "count",
    "substructures.ideal_generated_distinct_ratio": "ratio",
    "substructures.additive_subgroups_ms": "ms",
    "substructures.family_members": "count",
    "substructures.subrings_ms": "ms",
    "substructures.ideals_ms": "ms",
    "substructures.field_domain_ms": "ms",
    "substructures.s_family_ms": "ms",
    "elements.self_ms": "ms",
    "elements.semi_idempotents_ms": "ms",
    "elements.semi_idempotents_calls": "count",
    "elements.units_ms": "ms",
    "elements.zero_divisors_ms": "ms",
    "elements.idempotents_ms": "ms",
    "elements.nilpotents_ms": "ms",
    "elements.semiunits_ms": "ms",
    "elements.other_census_ms": "ms",
    "predicates.run_ms": "ms",
    "lattices.self_ms": "ms",
    "lattices.poset_ms": "ms",
    "lattices.build_ms": "ms",
    "lattices.nodes": "count",
    "lattices.identity2_ms": "ms",
    "lattices.identity4_ms": "ms",
    "lattices.sublattice_ms": "ms",
    "lattices.chain_stats_ms": "ms",
    "claims.parse_ledger_ms": "ms",
    "claims.eval_self_ms": "ms",
    "claims.records": "count",
    "report.build_ms": "ms",
    "report.dumps_ms": "ms",
    "report.bytes": "bytes",
    "cli.self_ms": "ms",
    **{f"{layer}.share_pct": "%" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Recorder:
    """Keeps the spans and counters of one traced pass in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack = [-1]
        self.counts = {"substructures.family_members": 0, "lattices.nodes": 0,
                       "claims.records": 0, "report.bytes": 0}
        self._ideal_args: set = set()
        self._rings: list = []  # keeps a request's rings alive so id() stays unique
        self._request = 0

    def end_request(self) -> None:
        self._rings.clear()
        self._request += 1

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, hook=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    def _hooks(self) -> dict:
        counts, spans = self.counts, self.spans

        def identity_name(span, args, kwargs, result):
            span[0] += "." + (args[1] if len(args) > 1 else kwargs["identity"])

        def ideal_args(span, args, kwargs, result):
            R, gens = args[0], args[1] if len(args) > 1 else kwargs["gens"]
            side = args[2] if len(args) > 2 else kwargs.get("side", "two_sided")
            self._rings.append(R)
            key = (self._request, id(R), tuple(sorted(int(g) for g in gens)), side)
            self._ideal_args.add(key)

        def members(span, args, kwargs, result):
            parent = span[1]
            if parent < 0 or not spans[parent][0].startswith("substructures."):
                counts["substructures.family_members"] += len(result)

        def count(key, size):
            def hook(span, args, kwargs, result):
                counts[key] += size(result)
            return hook

        return {
            "lattices.check_identity": identity_name,
            "substructures.ideal_generated": ideal_args,
            **{"substructures." + f: members for f in FAMILIES},
            "lattices.poset_from_family": count("lattices.nodes", lambda p: len(p.nodes)),
            "claims.run_claims": count("claims.records", len),
            "report.dumps": count("report.bytes", len),
        }

    def install(self):
        """Wrap the layer functions; returns a callable that undoes it."""
        import srings.cli  # noqa: F401  (loads every layer module)
        from srings.rings import RingHandle

        modules = [m for n, m in list(sys.modules.items())
                   if n == "srings" or n.startswith("srings.")]
        hooks = self._hooks()
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"srings.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                qual = f"{layer}.{attr}"
                name = f"{MOVED.get(qual, layer)}.{attr}"
                wrappers[id(obj)] = self._wrap(obj, name, hooks.get(name))
        patched = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:  # the originals stay referenced, so ids stay unique
                    setattr(mod, attr, wrappers[id(obj)])
                    patched.append((mod, attr, obj))

        build_tables = RingHandle._require_tables
        timed_build = self._wrap(build_tables, "rings.tables")

        def require_tables(ring):
            if ring._add_table is None:
                timed_build(ring)

        RingHandle._require_tables = require_tables

        def restore():
            RingHandle._require_tables = build_tables
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

        return restore

    # -- summary ----------------------------------------------------------------

    @staticmethod
    def span_cost_s() -> float:
        """Cost of one span in seconds: a call through the timing wrapper minus
        a bare call of the same function, the median of seven rounds of 20,000
        calls.  It is measured in the traced process, so host speed changes
        between processes do not enter it.  Hooks are not included."""
        calls = 20_000

        def noop():
            return None

        costs = []
        for _ in range(7):
            timed = Recorder()._wrap(noop, "calibration")
            t0 = perf_counter()
            for _ in range(calls):
                timed()
            t1 = perf_counter()
            for _ in range(calls):
                noop()
            t2 = perf_counter()
            costs.append(((t1 - t0) - (t2 - t1)) / calls)
        return sorted(costs)[3]

    def summary(self, wall_s: float, span_cost_s: float) -> dict[str, float]:
        """Every metric of METRICS for the recorded pass (times in ms).
        trace.overhead_s is the number of spans times ``span_cost_s``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {key: 0.0 for key in METRICS}
        layer_ms = {layer: 0.0 for layer in LAYERS}
        bucket = [""] * len(spans)
        calls = {"rings.construct_calls": 0, "substructures.ideal_generated_calls": 0,
                 "elements.semi_idempotents_calls": 0}
        for i, (name, parent, t0, t1) in enumerate(spans):
            layer = name.split(".", 1)[0]
            if name in BUCKETS:
                bucket[i] = BUCKETS[name]
            elif parent >= 0 and spans[parent][0].split(".", 1)[0] == layer:
                bucket[i] = bucket[parent]
            else:
                bucket[i] = DEFAULT_BUCKET[layer]
            self_ms = (t1 - t0 - child[i]) * 1000.0
            out[bucket[i]] = out.get(bucket[i], 0.0) + self_ms
            layer_ms[layer] += self_ms
            if name in CONSTRUCTORS:
                calls["rings.construct_calls"] += 1
            elif name == "substructures.ideal_generated":
                calls["substructures.ideal_generated_calls"] += 1
            elif name == "elements.semi_idempotents":
                calls["elements.semi_idempotents_calls"] += 1
        out.update(calls)
        out.update(self.counts)
        ideal_calls = calls["substructures.ideal_generated_calls"]
        out["substructures.ideal_generated_distinct_ratio"] = (
            len(self._ideal_args) / ideal_calls if ideal_calls else 0.0
        )
        for layer, ms in layer_ms.items():
            if f"{layer}.self_ms" in METRICS:
                out[f"{layer}.self_ms"] = ms
            out[f"{layer}.share_pct"] = 100.0 * ms / (wall_s * 1000.0)
        out["trace.wall_s"] = wall_s
        out["trace.spans"] = len(spans)
        out["trace.overhead_s"] = len(spans) * span_cost_s
        return {key: out[key] for key in METRICS}
