"""The traced benchmark wraps package functions and methods by name, so a
rename there must fail the suite, not only a traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_tracer_installs():
    """``layers.install`` looks up every entry point it wraps, among them
    ``SieveSet.certify``, ``_Decomposer.decompose``, ``family_match`` and
    ``guaranteed_partition_strings``; a missing one raises."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import layers, tracer; layers.install(tracer.Tracer())"],
        capture_output=True, text=True, check=False, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def test_cleared_classifier_memos_pass_the_cold_run_guard():
    """A census run starts only when ``workload.census_caches_empty`` finds
    every classifier memo empty.  A grouping-path classification fills
    memos the guard sees, and clearing the memos ``cache_stats`` lists,
    with the sieve's, passes the guard again."""
    script = "\n".join([
        "import workload",
        "from srgfusion import classifier, exact",
        "from srgfusion.partitions import parse",
        "assert workload.census_caches_empty()",
        "classifier.classify_partition(parse('234579|68'))",
        "assert not workload.census_caches_empty()",
        "for memo in classifier._memos().values():",
        "    memo.cache_clear()",
        "exact.default_sieve_set()._cache.clear()",
        "assert workload.census_caches_empty()",
    ])
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=False, cwd=ROOT, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
