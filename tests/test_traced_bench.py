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
