"""Seeded input generation for the benchmark workloads.

Everything a workload run receives is generated here from the seed alone,
as plain JSON data (parameter tuples and partition strings); the workload
process rebuilds the program's objects from it during set-up.  The digest
of that JSON proves that two runs with one seed measured the same inputs.
The expected values the inputs and checks use come from the test suite.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import warnings
from pathlib import Path

# Graphs of the oracle workload, largest first so that the cold first
# verdict is always taken on an n = 16 graph.  Each maps to the name of its
# frozen nontrivial scan in tests/expected.py.
ORACLE_GRAPHS = (
    ("rook4", "ROOK4_SCAN"),
    ("clebsch", "CLEBSCH_SCAN"),
    ("petersen", "PETERSEN_SCAN"),
    ("rook3", "ROOK3_SCAN"),
    ("cliques3x3", "IMP22_SCAN"),
    ("paley5", "PENTAGON_SCAN"),
)

# Named parameter sets of the scan workload with their frozen scans; the
# first also gives the cold first verdict.
SCAN_NAMED = (
    ("petersen", (10, 3, 0, 1), "PETERSEN_SCAN"),
    ("paley13", (13, 6, 2, 3), "PALEY13_SCAN"),
    ("pentagon", (5, 2, 0, 1), "PENTAGON_SCAN"),
    ("rook3", (9, 4, 1, 2), "ROOK3_SCAN"),
    ("rook4", (16, 6, 2, 2), "ROOK4_SCAN"),
    ("clebsch", (16, 5, 0, 2), "CLEBSCH_SCAN"),
    ("imp22", (9, 2, 1, 0), "IMP22_SCAN"),
)

# Sampled tables per scan pass, per stratum.  Quadratic (conference) tables
# scan about five times slower than rational ones, so fixed stratum counts
# keep the cost of a pass independent of the seed.
SCAN_STRATA = (("primitive", 2), ("conference", 1), ("imprimitive", 1))
MAX_ORDER = 64

# Refuted partitions per oracle graph, as (block count, how many); roughly
# proportional to the 4140 partitions' block counts, which peak at four.
NEGATIVE_QUOTAS = ((2, 1), (3, 2), (4, 4), (5, 2), (6, 1))

# The census verifies every VERIFY_STRIDE-th record from a seeded offset: a
# full census with every record verified runs about 100 s on a slow host,
# too long for 22 runs per workload within the benchmark's time budget.
VERIFY_STRIDE = 4


def scan_pool() -> dict[str, list[tuple[int, int, int, int]]]:
    """Feasible SRG parameter sets with n <= 64, by stratum.

    Candidates pass the integral edge-count identity first; the program's
    own SrgParams -> eigen_from_params -> feasibility chain then decides.
    Conference sets with rational eigenvalues count as primitive.
    """
    from srgfusion.exact import QuadraticValue
    from srgfusion.scheme import (
        InfeasibleParams,
        NonIntegralMultiplicity,
        SrgParams,
        eigen_from_params,
        feasibility,
    )

    pool: dict[str, list] = {name: [] for name, _ in SCAN_STRATA}
    for n in range(3, MAX_ORDER + 1):
        for k in range(1, n - 1):
            l = n - k - 1
            for mu in range(k):
                if (k * (k - mu - 1)) % l:
                    continue
                nu = k * (k - mu - 1) // l
                if nu > k:
                    continue
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        eigen = eigen_from_params(SrgParams(n, k, mu, nu))
                except (InfeasibleParams, NonIntegralMultiplicity):
                    continue
                report = feasibility(eigen)
                if report.primitive:
                    quadratic = isinstance(eigen.r, QuadraticValue)
                    pool["conference" if quadratic else "primitive"].append(
                        (n, k, mu, nu))
                elif report.imprimitive_kind != "none":
                    pool["imprimitive"].append((n, k, mu, nu))
    return pool


def _census(rng: random.Random, expected) -> dict:
    from srgfusion.partitions import all_default_partitions

    candidates = [
        str(p) for p in all_default_partitions()
        if not (p.is_discrete() or p.is_single_block())
        and str(p) not in expected.GUARANTEED_13
    ]
    return {"first_partition": rng.choice(candidates),
            "verify_offset": rng.randrange(VERIFY_STRIDE)}


def _scan(rng: random.Random, expected) -> dict:
    pool = scan_pool()
    sample = [
        {"stratum": stratum, "params": list(params)}
        for stratum, count in SCAN_STRATA
        for params in rng.sample(pool[stratum], count)
    ]
    rng.shuffle(sample)
    return {
        "sample": sample,
        "pool_sizes": {name: len(pool[name]) for name, _ in SCAN_STRATA},
        "named": [
            {"name": name, "params": list(params), "expected": key}
            for name, params, key in SCAN_NAMED
        ],
    }


def _negatives(rng: random.Random, positives: frozenset[str]) -> list[str]:
    """Seeded non-fusions, a fixed number per block count.

    A refutation's cost is set mostly by the number of classes, so fixed
    quotas per block count give every seed the same mix of costs.
    """
    from srgfusion.partitions import all_default_partitions

    by_blocks: dict[int, list[str]] = {}
    for p in all_default_partitions():
        if str(p) not in positives:
            by_blocks.setdefault(p.num_blocks, []).append(str(p))
    return [text for blocks, count in NEGATIVE_QUOTAS
            for text in rng.sample(by_blocks[blocks], count)]


def _oracle(rng: random.Random, expected) -> dict:
    graphs = []
    for name, key in ORACLE_GRAPHS:
        positives = sorted(getattr(expected, key))
        graphs.append({
            "graph": name,
            "expected": key,
            "positives": positives,
            "negatives": _negatives(rng, frozenset(positives)),
        })
    # cold first verdict: one seeded rank-4 guaranteed partition on the
    # first (n = 16) graph; every rank-4 confirmation computes the same
    # number of matrix products
    rank4 = sorted(t for t in expected.GUARANTEED_13 if t.count("|") == 2)
    return {"graphs": graphs, "first_partition": rng.choice(rank4)}


GENERATORS = {"census": _census, "scan": _scan, "oracle": _oracle}


def generate(workload: str, seed: int, expected) -> dict:
    """The inputs of one workload run, a function of (workload, seed) only."""
    rng = random.Random(f"{workload}:{seed}")
    return {"workload": workload, "seed": seed,
            **GENERATORS[workload](rng, expected)}


def load_expected(root: Path):
    """The frozen expected values of the test suite, tests/expected.py of
    the checkout at ``root``, as a module."""
    path = root / "tests" / "expected.py"
    spec = importlib.util.spec_from_file_location("srgfusion_expected", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
