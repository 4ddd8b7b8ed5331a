"""Layer entry points of srgfusion wrapped by the traced run, and the
per-layer metrics computed from the spans.

Modules and what is wrapped:

    exact       MultiPoly arithmetic, normalized, divide_exact, substitute;
                SieveSet.certify (the nonvanishing sieve)
    fusion      bm_check (split by table entry kind) and scan_all
    scheme / products / partitions
                eigen_from_params, char_table, tensor_square_table,
                all_default_partitions, parse (set-up only)
    classifier  classify_partition, potential_equality_graph, family_match,
                _Decomposer.decompose, guaranteed_partition_strings,
                verify_record, classify_all
    oracle      tensor_fuse, verify_scheme
    cli         the classify command, as classify --format json time minus
                classify_all time
"""

from __future__ import annotations

from time import perf_counter

from srgfusion import classifier, exact, fusion, oracle, partitions, products, scheme

from tracer import Tracer, patch_function, patch_method

# counts derived from the census records; they must repeat exactly
PINNED_RECORD_COUNTS = {
    "classifier.path.independent_set": 3654,
    "classifier.path.grouping": 471,
    "classifier.path.guaranteed": 15,
    "classifier.leaves.bounds": 2321,
    "classifier.leaves.unit": 851,
    "classifier.leaves.sporadic": 10,
    "classifier.leaves.family": 8,
    "classifier.bounds.definite": 2270,
    "classifier.bounds.no_region_root": 30,
    "classifier.bounds.image_definite": 13,
    "classifier.bounds.constant": 8,
}
# traced call counts of a census; bm_check is 3 x 4138 symbolic checks
# (guaranteed scan plus two imprimitive scans), so it also proves that the
# wrappers reach every module binding bm_check
PINNED_TRACE_COUNTS = {
    "classifier.partition@classify": 4140,
    "fusion.bm_check": 12414,
    "classifier.decompose": 2330,
    "classifier.family_match@classify": 34020,
}

# arithmetic operations, folded into counts and self times
_EXACT_METHODS = (
    ("exact.mul", exact.MultiPoly, ("__mul__", "__rmul__")),
    ("exact.addsub", exact.MultiPoly,
     ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")),
    ("exact.normalized", exact.MultiPoly, ("normalized",)),
    ("exact.divide_exact", exact.MultiPoly, ("divide_exact",)),
    ("exact.substitute", exact.MultiPoly, ("substitute",)),
)

_SETUP_TABLES = ("setup.eigen_from_params", "setup.char_table",
                 "setup.tensor_square_table")
_SETUP_PARTITIONS = ("setup.all_default_partitions", "setup.parse")


class _Observed:
    """Derived counts gathered by the observe callbacks."""

    def __init__(self):
        self.certified = 0
        self.certify_inputs: set = set()
        self.bm_kind_s = {"rational": 0.0, "quadratic": 0.0, "symbolic": 0.0}
        self.bm_positive = 0
        self.products = 0
        self.madds = 0
        self.bytes = 0


_KINDS: dict[int, tuple] = {}


def _table_kind(table) -> str:
    """rational, quadratic or symbolic, by the table's entries."""
    known = _KINDS.get(id(table))
    if known is None or known[0] is not table:
        entries = [x for row in table.rows for x in row]
        if any(isinstance(x, exact.MultiPoly) for x in entries):
            kind = "symbolic"
        elif any(isinstance(x, exact.QuadraticValue) for x in entries):
            kind = "quadratic"
        else:
            kind = "rational"
        # the entry keeps the table alive, so its id is not reused
        known = _KINDS[id(table)] = (table, kind)
    return known[1]


def _products_computed(result, d: int) -> int:
    """Matrix products verify_scheme computed: all d(d+1)/2 on success, up
    to and including the witnessing pair (i, j), i <= j, on failure."""
    if isinstance(result, oracle.IntersectionTensor):
        return d * (d + 1) // 2
    i, j = result.i, result.j
    return sum(d - k for k in range(i)) + (j - i) + 1


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; call before set-up."""
    seen = tracer.observed = _Observed()

    for name, cls, attrs in _EXACT_METHODS:
        for attr in attrs:
            patch_method(tracer, name, cls, attr)

    def on_certify(args, result, duration):
        seen.certify_inputs.add(args[1])
        seen.certified += result is not None

    patch_method(tracer, "exact.certify", exact.SieveSet, "certify",
                 observe=on_certify)

    def on_bm_check(args, result, duration):
        seen.bm_kind_s[_table_kind(args[0])] += duration
        seen.bm_positive += result.is_fusion

    patch_function(tracer, "fusion.bm_check", fusion.bm_check, observe=on_bm_check)
    patch_function(tracer, "fusion.scan_all", fusion.scan_all)

    for name, fn in (("setup.eigen_from_params", scheme.eigen_from_params),
                     ("setup.char_table", scheme.char_table),
                     ("setup.tensor_square_table", products.tensor_square_table),
                     ("setup.all_default_partitions",
                      partitions.all_default_partitions),
                     ("setup.parse", partitions.parse)):
        patch_function(tracer, name, fn)

    patch_function(tracer, "classifier.partition", classifier.classify_partition)
    patch_function(tracer, "classifier.equality_graph",
                   classifier.potential_equality_graph)
    patch_function(tracer, "classifier.family_match", classifier.family_match)
    patch_method(tracer, "classifier.decompose", classifier._Decomposer,
                 "decompose", keep=True)
    patch_function(tracer, "classifier.guaranteed_strings",
                   classifier.guaranteed_partition_strings, keep=False)
    patch_function(tracer, "classifier.verify_record", classifier.verify_record)
    patch_function(tracer, "classifier.classify_all", classifier.classify_all)

    def on_tensor_fuse(args, result, duration):
        sm, p = args
        side = sm.order * sm.order
        # identity plus one dense int64 matrix per block
        seen.bytes += (p.num_blocks + 1) * side * side * 8

    def on_verify_scheme(args, result, duration):
        d, side = len(args[0].matrices), args[0].order
        count = _products_computed(result, d)
        seen.products += count
        seen.madds += count * side ** 3

    patch_function(tracer, "oracle.tensor_fuse", oracle.tensor_fuse,
                   observe=on_tensor_fuse)
    patch_function(tracer, "oracle.verify_scheme", oracle.verify_scheme,
                   observe=on_verify_scheme)
    tracer.wrapper_cost_s = _wrapper_cost()


def _wrapper_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds, measured on a no-op."""
    def noop():
        return None

    probe = Tracer()
    wrapped = probe.wrap("probe", noop, keep=False)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    bare = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(calls):
        wrapped()
    return max((perf_counter() - t0 - bare) / calls, 0.0)


def _quantile_ms(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1000


def pinned_counts(tracer: Tracer) -> dict[str, int]:
    """The traced call counts PINNED_TRACE_COUNTS names."""
    return {
        "classifier.partition@classify":
            tracer.phase_calls["classify"]["classifier.partition"],
        "fusion.bm_check": tracer.calls["fusion.bm_check"],
        "classifier.decompose": tracer.calls["classifier.decompose"],
        "classifier.family_match@classify":
            tracer.phase_calls["classify"]["classifier.family_match"],
    }


def metrics(tracer: Tracer, run) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); zero where the
    workload does not reach the layer."""
    seen: _Observed = tracer.observed
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s
    out: dict[str, tuple[float, str]] = {}

    def calls_and_self(name: str):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")

    for name in ("exact.mul", "exact.addsub", "exact.normalized",
                 "exact.divide_exact", "exact.substitute", "exact.certify"):
        calls_and_self(name)
    n_certify = calls["exact.certify"]
    out["exact.certify.distinct_ratio"] = (
        len(seen.certify_inputs) / n_certify if n_certify else 0.0, "ratio")
    out["exact.certify.certified_ratio"] = (
        seen.certified / n_certify if n_certify else 0.0, "ratio")

    calls_and_self("fusion.bm_check")
    for kind, seconds in seen.bm_kind_s.items():
        out[f"fusion.bm_check.{kind}_s"] = (seconds, "s")
    n_bm = calls["fusion.bm_check"]
    out["fusion.positive_ratio"] = (seen.bm_positive / n_bm if n_bm else 0.0,
                                    "ratio")

    setup = tracer.phase_total_s["setup"]
    out["setup.tables_s"] = (sum(setup[n] for n in _SETUP_TABLES), "s")
    out["setup.partitions_s"] = (sum(setup[n] for n in _SETUP_PARTITIONS), "s")

    for name in ("equality_graph", "family_match", "decompose"):
        calls_and_self(f"classifier.{name}")
    out["classifier.guaranteed_strings_s"] = (
        total_s["classifier.guaranteed_strings"], "s")

    def latencies(span: str, phase: str) -> list[float]:
        return [end - start for name, start, end, _, in_phase in tracer.spans
                if name == span and in_phase == phase]

    # per-partition latency over the classify command only
    partition = latencies("classifier.partition", "classify")
    out["classifier.partition.calls"] = (len(partition), "count")
    out["classifier.partition.p50_ms"] = (_quantile_ms(partition, 0.50), "ms")
    out["classifier.partition.p99_ms"] = (_quantile_ms(partition, 0.99), "ms")
    out["classifier.partition.max_ms"] = (max(partition, default=0.0) * 1000, "ms")
    top = sorted(partition, reverse=True)[:max(1, len(partition) // 100)]
    out["classifier.partition.top1pct_share"] = (
        sum(top) / sum(partition) if partition else 0.0, "ratio")
    first = tracer.phase_total_s["first"]
    first_total = first["classifier.partition"]
    out["classifier.first_verdict.own_share"] = (
        (first_total - first["fusion.scan_all"]) / first_total
        if first_total else 0.0, "ratio")

    out["classifier.verify_record.self_s"] = (self_s["classifier.verify_record"],
                                              "s")
    out["classifier.verify_record.p99_ms"] = (
        _quantile_ms(latencies("classifier.verify_record", "verify"), 0.99), "ms")
    counts = run.report.get("record_counts", {})
    for name in PINNED_RECORD_COUNTS:
        out[name] = (counts.get(name, 0), "count")

    calls_and_self("oracle.tensor_fuse")
    out["oracle.tensor_fuse.bytes_computed"] = (seen.bytes, "bytes")
    calls_and_self("oracle.verify_scheme")
    out["oracle.products"] = (seen.products, "count")
    out["oracle.madds_computed"] = (seen.madds, "count")
    out["oracle.criterion_s"] = (
        tracer.phase_total_s["oracle"]["fusion.bm_check"], "s")

    classify = tracer.phase_total_s["classify"]
    out["cli.render_s"] = (
        (classify["cli.classify"] - classify["classifier.classify_all"])
        if classify["cli.classify"] else 0.0, "s")

    wrapped_calls = sum(calls.values())
    out["trace.wrapped_calls"] = (wrapped_calls, "count")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.wrapper_cost_s"] = (wrapped_calls * tracer.wrapper_cost_s, "s")
    return out
