"""One measured workload run in a fresh interpreter.

    python3 perfbench/workload.py --spawned-at T --seconds S --trace 0|1
        [--setup-only] [--trace-file PATH] < inputs.json

Reads the generated inputs (see inputs.py) on stdin, builds the program's
objects from them, runs the workload and prints one JSON line with its
timings, counts and check results.  ``run.py`` starts it and assembles the
benchmark result; ``--spawned-at`` is the parent's ``perf_counter`` reading
just before the spawn, so set-up time includes interpreter start-up.

Every run is closed-loop, single process, single thread.  Times are taken
through the host-speed gauge (gauge.py).  With --trace 1 the layer entry
points are wrapped (layers.py, tracer.py) before set-up.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import srgfusion  # noqa: E402
from srgfusion import (  # noqa: E402
    classifier,
    cli,
    exact,
    fusion,
    oracle,
    partitions,
    products,
    scheme,
)

from gauge import MATMUL_REFERENCE_S, Gauge, matmul_reference  # noqa: E402
from inputs import VERIFY_STRIDE, load_expected  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

CENSUS_SUMMARY = {"total": 4140, "guaranteed": 13, "trivial": 2,
                  "family": 115, "infeasible": 4010, "unresolved": 0}
# the cache the cold-run guard inspects, bound before any tracing wrapper
CLASSIFY_ALL = classifier.classify_all


class Run:
    """Timings, counts and failures of one workload run."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.report: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; a failed check counts it as failed."""
        self.attempted += 1
        self.failed += not ok
        self.check(ok, what)


def passes(seconds: float, run_pass) -> int:
    """Repeat whole passes while the next one is expected to fit; returns
    the number of passes."""
    count = 0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        run_pass()
        count += 1
        last = perf_counter() - t0
        if perf_counter() - start + last > seconds:
            return count


# ---------------------------------------------------------------------------
# census: the paper's classification of all 4140 partitions
# ---------------------------------------------------------------------------

def expected_records(expected) -> dict[str, tuple[str, frozenset]]:
    """Expected (verdict, families) of every partition, from expected.py."""
    from srgfusion.products import SWITCH, act

    families: dict[str, set] = {}

    def add(fid, texts):
        for text in texts:
            families.setdefault(text, set()).add(fid)

    add("CONF", expected.CONF_11)
    add("IMP1", expected.IMP1_45)
    add("IMP2", {str(act(SWITCH, partitions.parse(t))) for t in expected.IMP1_45})
    for fid, text in expected.FAMILY_SINGLETONS.items():
        add(fid, [text])
    add("SP9", expected.SP9_6)
    add("SP5", expected.SP5_2)
    out = {}
    for p in partitions.all_default_partitions():
        text = str(p)
        fams = frozenset(families.get(text, ()))
        if p.is_discrete() or p.is_single_block() or text in expected.GUARANTEED_13:
            verdict = "GUARANTEED"
        else:
            verdict = "FAMILY" if fams else "INFEASIBLE"
        out[text] = (verdict, fams)
    return out


def record_counts(records) -> dict[str, int]:
    """Resolution paths, leaf outcomes and bound-conflict kinds."""
    counts = Counter({name: 0 for name in layers.PINNED_RECORD_COUNTS})
    leaf_names = {"contradiction-bounds": "bounds", "contradiction-unit": "unit",
                  "sporadic": "sporadic", "family": "family"}
    for rec in records:
        cert = rec.row_count_certificate
        if rec.verdict == "GUARANTEED":
            counts["classifier.path.guaranteed"] += 1
        elif rec.groupings:
            counts["classifier.path.grouping"] += 1
        elif cert is not None and cert.representatives and not cert.deficit:
            counts["classifier.path.independent_set"] += 1
        else:
            counts["classifier.path.other"] += 1
        for ga in rec.groupings:
            for leaf in ga.leaves:
                counts["classifier.leaves." + leaf_names.get(leaf.outcome,
                                                             leaf.outcome)] += 1
                if leaf.bound_conflict is not None:
                    kind = leaf.bound_conflict.kind.replace("-", "_")
                    counts["classifier.bounds." + kind] += 1
    return dict(counts)


def setup_census(inputs, expected):
    partitions.all_default_partitions()
    return {"first": partitions.parse(inputs["first_partition"]),
            "verify_offset": inputs["verify_offset"],
            "expected": expected_records(expected)}


def census_caches_empty() -> bool:
    """No classifier cache holds anything: the census starts cold."""
    for name, value in vars(classifier).items():
        own = getattr(value, "__module__", None) == classifier.__name__
        if own and hasattr(value, "cache_info") and value.cache_info().currsize:
            return False
        if name.endswith("_CACHE") and isinstance(value, dict) and value:
            return False
    sieve = getattr(exact, "_DEFAULT_SIEVE", None)
    return sieve is None or not getattr(sieve, "_cache", None)


def run_census(state, seconds, run: Run, tracer):
    # the census cannot be split: one run classifies all 4140 partitions
    # once, whatever --seconds says
    expected = state["expected"]
    first = state["first"]
    gauge = Gauge()
    set_phase(tracer, "first")
    first_record = gauge.call("first", (fusion, "bm_check"),
                              classifier.classify_partition, first)
    gauge.flush(5)
    first_text = str(first)
    run.op((first_record.verdict, frozenset(first_record.families))
           == expected[first_text], f"first verdict {first_text}")

    set_phase(tracer, "classify")
    out = io.StringIO()
    with tracer.span("cli.classify") if tracer else nullcontext():
        code = gauge.call("primary", (classifier, "classify_partition"),
                          cli.main, ["classify", "--format", "json"], out)
    gauge.flush()
    result = CLASSIFY_ALL()

    set_phase(tracer, "verify")
    sample = result.records[state["verify_offset"]::VERIFY_STRIDE]
    verified = {rec.partition: gauge.time("secondary", classifier.verify_record, rec)
                for rec in sample}
    gauge.flush()
    set_phase(tracer, "checks")

    doc = json.loads(out.getvalue())
    summary = result.summary()
    run.check(code == 0, f"classify exit code {code}")
    run.check({k: summary[k] for k in CENSUS_SUMMARY} == CENSUS_SUMMARY,
              f"summary {summary}")
    run.check(doc["summary"] == summary, "CLI JSON summary != library summary")
    run.check(len(doc["records"]) == len(result.records) == 4140,
              "record count")
    for rec in result.records:
        text = str(rec.partition)
        ok = verified.get(rec.partition, True)
        run.op(ok and (rec.verdict, frozenset(rec.families)) == expected[text],
               f"record {text}")
    counts = record_counts(result.records)
    for name, value in layers.PINNED_RECORD_COUNTS.items():
        run.check(counts[name] == value, f"{name} = {counts[name]} != {value}")
    run.check(counts.get("classifier.path.other", 0) == 0, "unknown record path")

    report_gauge(run, gauge, 4140, len(sample))
    run.report.update(first_partition=first_text,
                      classify_s=gauge.normalized["primary"],
                      verify_s=gauge.normalized["secondary"])
    run.report["record_counts"] = counts


# ---------------------------------------------------------------------------
# scan: the Bannai-Muzychuk criterion over many exact character tables
# ---------------------------------------------------------------------------

def table_for(params):
    return products.tensor_square_table(scheme.char_table(
        scheme.eigen_from_params(scheme.SrgParams(*params))))


def setup_scan(inputs, expected):
    partitions.all_default_partitions()
    sample = [(entry["stratum"], tuple(entry["params"]), table_for(entry["params"]))
              for entry in inputs["sample"]]
    fixed = [(entry["name"], table_for(entry["params"]),
              getattr(expected, entry["expected"])) for entry in inputs["named"]]
    fixed.append(("symbolic", products.tensor_square_table(
        classifier.symbolic_base_table()), expected.GUARANTEED_13))
    allowed = (expected.GUARANTEED_13 | expected.CONF_11 | expected.SP9_6
               | expected.SP5_2 | frozenset(expected.FAMILY_SINGLETONS.values()))
    return {"sample": sample, "fixed": fixed, "allowed": allowed,
            "guaranteed": expected.GUARANTEED_13}


def scan_strings(table) -> frozenset[str]:
    return frozenset(str(v.partition) for v in fusion.scan_all(table))


def run_scan(state, seconds, run: Run, tracer):
    set_phase(tracer, "scan")
    guaranteed, allowed = state["guaranteed"], state["allowed"]
    # the cold first scan takes well under a second: sample the host's
    # speed densely while it runs, then at the usual interval
    gauge = Gauge(interval_s=0.05)
    name, table, frozen = state["fixed"][0]
    got = gauge.call("first", (fusion, "bm_check"), scan_strings, table)
    gauge.flush(5)
    gauge.interval_s = 0.3
    run.op(got == frozen, f"named table {name}")

    def one_pass():
        for stratum, params, table in state["sample"]:
            got = gauge.call("primary", (fusion, "bm_check"), scan_strings, table)
            # every table has the guaranteed fusions; primitive tables have
            # no fusion outside the catalogued families
            ok = guaranteed <= got and (stratum == "imprimitive" or got <= allowed)
            run.op(ok, f"sampled table {params}")
        for name, table, frozen in state["fixed"]:
            got = gauge.call("secondary", (fusion, "bm_check"), scan_strings,
                             table)
            run.op(got == frozen, f"named table {name}")

    count = passes(seconds, one_pass)
    gauge.flush()
    n_sample, n_fixed = count * len(state["sample"]), count * len(state["fixed"])
    report_gauge(run, gauge, n_sample, n_fixed)
    run.report.update(passes=count, scan_tables_per_s=(n_sample + n_fixed) / (
        gauge.normalized["primary"] + gauge.normalized["secondary"]))


# ---------------------------------------------------------------------------
# oracle: adjacency-matrix confirmation and refutation on concrete graphs
# ---------------------------------------------------------------------------

def setup_oracle(inputs, expected):
    partitions.all_default_partitions()
    graphs = []
    for entry in inputs["graphs"]:
        g = oracle.build_graph(entry["graph"])
        sm = oracle.scheme_matrices(g)
        table = products.tensor_square_table(scheme.char_table(
            scheme.eigen_from_params(oracle.srg_params(g))))
        graphs.append({
            "name": entry["graph"],
            "matrices": sm,
            "table": table,
            "positives": [partitions.parse(t) for t in entry["positives"]],
            "negatives": [partitions.parse(t) for t in entry["negatives"]],
        })
    return {"graphs": graphs, "first": partitions.parse(inputs["first_partition"])}


def matrix_check(graph, p, positive: bool, kind: str, gauge: Gauge,
                 run: Run) -> None:
    """Criterion and matrix oracle on one partition; only the oracle is
    charged to ``kind``."""
    criterion = fusion.bm_check(graph["table"], p).is_fusion
    result = gauge.time(kind, lambda: oracle.verify_scheme(
        oracle.tensor_fuse(graph["matrices"], p)))
    fused = isinstance(result, oracle.IntersectionTensor)
    ok = criterion == fused == positive
    if ok and fused:
        valencies = [Fraction(v) for v in fusion.fused_table(
            graph["table"], p).valency_row()]
        ok = [Fraction(v) for v in result.valencies] == valencies
    run.op(ok, f"{graph['name']} {p} positive={positive} criterion={criterion} "
               f"oracle={fused}")


def run_oracle(state, seconds, run: Run, tracer):
    set_phase(tracer, "oracle")
    graphs = state["graphs"]
    gauge = Gauge(interval_s=0.5, reference=matmul_reference,
                  reference_s=MATMUL_REFERENCE_S)
    matrix_check(graphs[0], state["first"], True, "first", gauge, run)
    gauge.flush(5)

    def one_pass():
        for graph in graphs:
            for p in graph["positives"]:
                matrix_check(graph, p, True, "primary", gauge, run)
            for p in graph["negatives"]:
                matrix_check(graph, p, False, "secondary", gauge, run)

    count = passes(seconds, one_pass)
    gauge.flush()
    report_gauge(run, gauge,
                 count * sum(len(g["positives"]) for g in graphs),
                 count * sum(len(g["negatives"]) for g in graphs))
    run.report.update(passes=count,
                      confirm_s=gauge.normalized["primary"] / count,
                      refute_s=gauge.normalized["secondary"] / count)


def report_gauge(run: Run, gauge: Gauge, n_primary: int, n_secondary: int):
    """End-to-end values from the gauge's normalized times; raw times and
    the reference samples go to the report."""
    norm, raw = gauge.normalized, gauge.raw
    run.values.update(first_verdict_s=norm["first"],
                      primary_ops_per_s=n_primary / norm["primary"],
                      secondary_ops_per_s=n_secondary / norm["secondary"])
    run.report.update(raw_first_verdict_s=raw["first"],
                      raw_primary_ops_per_s=n_primary / raw["primary"],
                      raw_secondary_ops_per_s=n_secondary / raw["secondary"],
                      reference_median_s=statistics.median(gauge.samples),
                      reference_samples=len(gauge.samples))
    run.report["pass_s"] = sum(norm.values())


WORKLOADS = {
    "census": (setup_census, run_census),
    "scan": (setup_scan, run_scan),
    "oracle": (setup_oracle, run_oracle),
}


def set_phase(tracer, phase: str) -> None:
    if tracer is not None:
        tracer.phase = phase


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    inputs = json.load(sys.stdin)
    if not Path(srgfusion.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"srgfusion imported from {srgfusion.__file__}, "
                         f"not from {ROOT / 'src'}")
    setup, work = WORKLOADS[inputs["workload"]]
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    expected = load_expected(ROOT)
    state = setup(inputs, expected)
    raw_setup_s = perf_counter() - args.spawned_at
    setup_s = Gauge().scale(raw_setup_s)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    run = Run()
    run.check(CLASSIFY_ALL.cache_info().currsize == 0,
              "classify_all cache is not empty before timing")
    if inputs["workload"] == "census":
        run.check(census_caches_empty(), "classifier caches are not empty")
    t0 = perf_counter()
    work(state, args.seconds, run, tracer)
    wall = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"setup_s": setup_s, "raw_setup_s": raw_setup_s, "wall_s": wall,
           "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        set_phase(tracer, "report")
        out["layers"] = layers.metrics(tracer, run)
        if inputs["workload"] == "census":
            counts = layers.pinned_counts(tracer)
            for name, value in layers.PINNED_TRACE_COUNTS.items():
                run.check(counts[name] == value,
                          f"traced {name} = {counts[name]} != {value}")
            run.report["pinned_trace_counts"] = counts
        if args.trace_file:
            with open(args.trace_file, "w") as fh:
                json.dump(tracer.dump(), fh)
    out.update(values=run.values, report=run.report, attempted=run.attempted,
               failed=run.failed, problems=run.problems[:20])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
