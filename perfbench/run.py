"""srgfusion benchmark: census, scan and oracle workloads.

    python3 perfbench/run.py --workload census|scan|oracle --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from src/
without installing.  The seed alone generates the inputs (inputs.py); each
measurement runs in a fresh interpreter (workload.py) with one BLAS
thread, after several set-up-only interpreters that time set-up.

Times are normalized by a host-speed gauge (gauge.py) and read as seconds
on a quiet host; raw times are in the record line.  The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of the
traced run (--trace 1).  The line before it records the run: inputs
digest, environment, and the metrics under the names the workloads use
(classify_s, verify_s, scan_tables_per_s, confirm_s, refute_s,
error_rate).  Run records, traces and the untraced reference used for the
tracing overhead are written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# set-up-only interpreters per run, besides the measured one
SETUP_PROBES = 3
# a run must end within 180 s
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "first_verdict_s": "s",
    "primary_ops_per_s": "1/s",
    "secondary_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(inputs_json: str, args, started: float, extra=()) -> dict:
    """Run workload.py in a fresh interpreter; its last stdout line."""
    remaining = DEADLINE_S - (perf_counter() - started)
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    spawned_at = perf_counter()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)], input=inputs_json,
        capture_output=True, text=True, env=child_env(), timeout=remaining,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_revision() -> dict:
    """Git revision when the checkout is a repository, and a digest of the
    package sources either way."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        revision = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        revision = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "srgfusion").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_revision": revision, "source_sha256": digest.hexdigest()}


def named_metrics(workload: str, child: dict) -> dict:
    """The workload's metrics under their descriptive names."""
    values, report = child["values"], child["report"]
    named = {"error_rate": child["failed"] / child["attempted"],
             "peak_rss_mb": child["peak_rss_mb"]}
    if workload == "census":
        named.update(first_verdict_s=values["first_verdict_s"],
                     first_partition=report["first_partition"],
                     classify_s=report["classify_s"], verify_s=report["verify_s"])
    elif workload == "scan":
        named.update(scan_tables_per_s=report["scan_tables_per_s"])
    else:
        named.update(confirm_s=report["confirm_s"], refute_s=report["refute_s"])
    return named


def tracing_overhead(workload: str, child: dict) -> dict:
    """Traced minus untraced time of one pass of the workload, both
    normalized by the host-speed gauge.

    The untraced time is the one the latest untraced run of this workload
    left in the checkout; without one, the overhead is estimated as wrapped
    calls times the measured cost of one wrapper.
    """
    traced = child["report"]["pass_s"]
    estimate = child["layers"]["trace.wrapper_cost_s"][0]
    reference = OUT / f"untraced-{workload}.json"
    if reference.is_file():
        untraced = json.loads(reference.read_text())["pass_s"]
        measured = 1
    else:
        untraced, measured = traced - estimate, 0
    return {
        "trace.pass_s": (traced, "s"),
        "trace.untraced_pass_s": (untraced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.overhead_measured": (measured, "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("census", "scan", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    missing = [p for p in ("src/srgfusion/__init__.py", "tests/expected.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a srgfusion checkout, missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from inputs import digest, generate, load_expected

    load_start = os.getloadavg()
    inputs = generate(args.workload, args.seed, load_expected(ROOT))
    inputs_json = json.dumps(inputs, sort_keys=True)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"

    probes = [spawn(inputs_json, args, started, ["--setup-only"])
              for _ in range(SETUP_PROBES)]
    extra = ["--trace-file", str(OUT / f"trace-{tag}.json")] if args.trace else []
    child = spawn(inputs_json, args, started, extra)
    probes.append(child)
    setups = [probe["setup_s"] for probe in probes]
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)

    environment = {
        **source_revision(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "wall_s": perf_counter() - started,
        "children_user_cpu_s": usage.ru_utime,
        "children_system_cpu_s": usage.ru_stime,
        "measured_wall_s": child["wall_s"],
        "blas_threads": 1,
    }
    values = dict(child["values"], setup_s=statistics.median(setups),
                  peak_rss_mb=child["peak_rss_mb"])
    if args.trace:
        layers = dict(child["layers"], **tracing_overhead(args.workload, child))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        (OUT / f"untraced-{args.workload}.json").write_text(json.dumps(
            {"seed": args.seed, "pass_s": child["report"]["pass_s"]}))
    correct = not child["problems"] and child["failed"] == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": digest(inputs),
        "setup_samples_s": setups,
        "raw_setup_samples_s": [probe["raw_setup_s"] for probe in probes],
        "named": named_metrics(args.workload, child),
        "report": child["report"],
        "problems": child["problems"],
        "environment": environment,
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
