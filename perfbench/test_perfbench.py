"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The record-count test classifies all 4140 partitions (about a minute).
"""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workload  # noqa: E402  (puts the checkout's src/ on sys.path)
from layers import PINNED_TRACE_COUNTS  # noqa: E402
from inputs import digest, generate, load_expected  # noqa: E402
from srgfusion import classifier, fusion  # noqa: E402
from tracer import Tracer, patch_function  # noqa: E402


def test_record_counts_are_pinned():
    counts = workload.record_counts(classifier.classify_all().records)
    assert counts == {
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


def test_pinned_trace_counts():
    assert PINNED_TRACE_COUNTS == {
        "classifier.partition@classify": 4140,
        "fusion.bm_check": 12414,
        "classifier.decompose": 2330,
        "classifier.family_match@classify": 34020,
    }


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    clock = iter(range(100))
    import tracer as tracer_module

    real = tracer_module.perf_counter
    tracer_module.perf_counter = lambda: float(next(clock))
    try:
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: inner())
        outer()
    finally:
        tracer_module.perf_counter = real
    # outer spans clock readings 0..3, inner 1..2
    assert tracer.total_s["outer"] == 3 and tracer.total_s["inner"] == 1
    assert tracer.self_s["outer"] == 2 and tracer.self_s["inner"] == 1
    (outer_span, inner_span) = tracer.spans
    assert inner_span[3] == 0 and outer_span[3] == -1


def test_patch_reaches_every_binding():
    import srgfusion
    from srgfusion import cli, oracle

    original = fusion.bm_check
    tracer = Tracer()
    try:
        replaced = patch_function(tracer, "fusion.bm_check", original)
        bindings = (fusion, classifier, oracle, cli, srgfusion)
        assert replaced == len(bindings)
        assert all(module.bm_check is not original for module in bindings)
        table = classifier.symbolic_tensor_table()
        classifier.bm_check(table, classifier.all_default_partitions()[1])
        assert tracer.calls["fusion.bm_check"] == 1
    finally:
        for module in (fusion, classifier, oracle, cli, srgfusion):
            module.bm_check = original


def test_inputs_depend_only_on_the_seed():
    expected = load_expected(HERE.parent)
    for name in ("census", "scan", "oracle"):
        a, b = generate(name, 7, expected), generate(name, 7, expected)
        assert digest(a) == digest(b)
        assert digest(a) != digest(generate(name, 8, expected))


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
