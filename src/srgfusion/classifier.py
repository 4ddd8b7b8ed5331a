"""Symbolic classification of all 4140 tensor-square fusion partitions.

For each partition of {2,...,9} this module decides, with exact symbolic
arithmetic over the parameters (k, l, r, s), whether the fusion it names

  * holds for every rank-3 table algebra (GUARANTEED),
  * holds exactly on catalogued parameter families (FAMILY), or
  * cannot hold for any primitive table and is not an imprimitive-family
    fusion (INFEASIBLE, with a machine-checkable certificate).

Method.  Column-sum the fully symbolic 9x9 table along the partition and
group identical rows into classes; there are always at least m of them for
a partition into m-1 blocks.  Two rows can never merge on the primitive
region when their difference on some block is a polynomial that the
nonvanishing sieve certifies (a scaled product of strictly-signed factors);
the valency row can never merge with any other row because its entries
dominate termwise.  That decision is made once, as bits: per block, the row
pairs it blocks, memoized by the block's mask, and per partition the OR of
its blocks' bits.  Each partition builds one "potential equality" graph
of its row classes and those bits, which decides which classes may merge;
the block differences of a mergeable pair are its equations.  m+1
pairwise-blocked classes (a row-count certificate, the verdict of most
partitions) are read off the graph; only the other partitions enumerate
the merge patterns that could give the required number of distinct rows.
Each merge pattern's system goes to ``decompose``.  Imports run one way,
catalogue <- decompose <- classifier -> checker -> catalogue, so
``checker.verify_record`` replays a record on code that imports no prover.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import catalogue, decompose
from .catalogue import (
    ORTHOGONALITY, ClassificationRecord, EqualityGraph, GroupingAnalysis,
    ProofLeaf, RowCountCertificate, _ROWS, _imprimitive_families, _verdict,
    family_catalog, family_match, guaranteed_partition_strings,
    potential_equality_graph, symbolic_tensor_table,
)
# perfbench reads these as classifier names
from .catalogue import symbolic_base_table  # noqa: F401
from .checker import verify_record  # noqa: F401
from .decompose import _Decomposer
from .exact import MultiPoly
from .fusion import bm_check
from .partitions import SetPartition, all_default_partitions, coarsenings
from .products import wreath_partition


def _enumerate_groupings(
    graph: EqualityGraph, m: int
) -> list[tuple[tuple[int, ...], ...]]:
    """Merge patterns: partitions of the row classes into exactly m parts.

    Class 0, the valency row, stays alone as the first part (all of its
    pairs are blocked); every other part is a clique of mergeable classes.
    """
    results: list[tuple[tuple[int, ...], ...]] = []
    _place_classes(graph, m - 1, 1, [], results)
    return results


def _place_classes(graph: EqualityGraph, target: int, ci: int,
                   groups: list[tuple[int, tuple[int, ...]]], results: list) -> None:
    """Place classes ci.. into ``groups``, appending to ``results`` every
    completion into exactly ``target`` groups.  A group is (bitmask of its
    classes' first rows, class indices); class ci joins a group when its
    first row is blocked with none of the group's."""
    count = len(graph.classes)
    if len(groups) > target or len(groups) + count - ci < target:
        return
    if ci == count:  # the bounds above leave exactly target groups
        results.append(((0,),) + tuple(members for _, members in groups))
        return
    row = graph.classes[ci][0]
    blocked = graph.blocked >> row * _ROWS
    for gi, group in enumerate(groups):
        rows, members = group
        if not blocked & rows:
            groups[gi] = (rows | 1 << row, members + (ci,))
            _place_classes(graph, target, ci + 1, groups, results)
            groups[gi] = group
    groups.append((1 << row, (ci,)))
    _place_classes(graph, target, ci + 1, groups, results)
    groups.pop()


def _pairwise_blocked_rows(blocked: int, size: int, candidates: int,
                           chosen: tuple[int, ...] = ()) -> tuple[int, ...] | None:
    """The first ``size`` pairwise-blocked rows in increasing lexicographic
    order, the order ``itertools.combinations`` visits: ``chosen``
    extended from ``candidates``, a bitmask of rows above it that are
    blocked with every chosen one."""
    if len(chosen) == size:
        return chosen
    while candidates.bit_count() >= size - len(chosen):
        low = candidates & -candidates
        candidates ^= low
        row = low.bit_length() - 1
        found = _pairwise_blocked_rows(
            blocked, size, candidates & blocked >> row * _ROWS, chosen + (row,))
        if found is not None:
            return found
    return None


def _grouping_system(
    graph: EqualityGraph, grouping: tuple[tuple[int, ...], ...]
) -> tuple[MultiPoly, ...]:
    """Equations forcing each group of classes equal."""
    # ORTHOGONALITY and every pair equation are already normalized and nonzero
    eqs: list[MultiPoly] = [ORTHOGONALITY]
    for group in grouping:
        for a, b in itertools.combinations(group, 2):
            eqs.extend(graph.equations(a, b))
    return tuple(dict.fromkeys(eqs))


@lru_cache(maxsize=None)
def _decompose_cached(eqs: tuple[MultiPoly, ...]) -> tuple[ProofLeaf, ...]:
    return tuple(_Decomposer().decompose(eqs))


def _analyze_grouping(
    graph: EqualityGraph, grouping: tuple[tuple[int, ...], ...]
) -> GroupingAnalysis:
    eqs = _grouping_system(graph, grouping)
    merged = tuple(tuple(sorted(row for ci in group for row in graph.classes[ci]))
                   for group in grouping)
    matches = tuple(fam.id for fam in family_catalog()
                    if family_match(graph.masks, merged, fam))
    return GroupingAnalysis(merged, eqs, matches, _decompose_cached(eqs))


def classify_partition(p: SetPartition) -> ClassificationRecord:
    """Full classification record for one partition.

    The discrete and single-block partitions are the two trivial fusions and
    are flagged as such.  Every other non-guaranteed partition gets a proof,
    a row-count certificate or its groupings' analyses, and ``_verdict``
    concludes from it.
    """
    if p.is_discrete() or p.is_single_block():
        kind = "discrete (the scheme itself)" if p.is_discrete() else "rank-2"
        return ClassificationRecord(
            p, "GUARANTEED", True, (), (), None,
            (f"trivial fusion: {kind}",),
        )
    text = str(p)
    if text in guaranteed_partition_strings():
        return ClassificationRecord(p, "GUARANTEED", False, (), (), None, ())

    # The summed table is P*B with P invertible and B a 0/1 block matrix of
    # rank m, so it has at least m row classes.  m+1 pairwise-blocked
    # classes, the dominant case, are read off the graph's blocked row-pair
    # bits before any merge pattern is enumerated.
    graph = potential_equality_graph(p)
    m = p.num_blocks + 1
    firsts = sum(1 << cls[0] for cls in graph.classes)
    reps = _pairwise_blocked_rows(graph.blocked, m + 1, firsts)
    cert = None if reps is None else RowCountCertificate(reps, m)
    analyses: tuple[GroupingAnalysis, ...] = ()
    if cert is None:
        analyses = tuple(_analyze_grouping(graph, g)
                         for g in _enumerate_groupings(graph, m))
    verdict, families = _verdict(text, analyses)
    return ClassificationRecord(p, verdict, False, families, analyses, cert, ())


@dataclass(frozen=True)
class ClassificationResult:
    records: tuple[ClassificationRecord, ...]

    def summary(self) -> dict:
        counts = {"total": len(self.records), "guaranteed": 0, "trivial": 0,
                  "family": 0, "infeasible": 0, "unresolved": 0}
        fam_counts: dict[str, int] = {f.id: 0 for f in family_catalog()}
        for rec in self.records:
            if rec.trivial:
                counts["trivial"] += 1
            elif rec.verdict == "GUARANTEED":
                counts["guaranteed"] += 1
            elif rec.verdict == "FAMILY":
                counts["family"] += 1
            elif rec.verdict == "INFEASIBLE":
                counts["infeasible"] += 1
            else:
                counts["unresolved"] += 1
            for fid in rec.families:
                fam_counts[fid] += 1
        counts["families"] = fam_counts
        return counts

    def family_partitions(self, fid: str) -> list[str]:
        return [str(r.partition) for r in self.records if fid in r.families]

    def record(self, text: str) -> ClassificationRecord:
        for rec in self.records:
            if str(rec.partition) == text:
                return rec
        raise KeyError(text)


@lru_cache(maxsize=1)
def classify_all() -> ClassificationResult:
    """Classify every partition of {2,...,9}; deterministic order."""
    records = tuple(classify_partition(p) for p in all_default_partitions())
    return ClassificationResult(records)


def _memos() -> dict:
    """Every ``lru_cache`` of ``catalogue``, ``decompose`` and this module."""
    return {name: value for space in (vars(catalogue), vars(decompose), globals())
            for name, value in space.items()
            if getattr(value, "__module__", None) == space["__name__"]
            and hasattr(value, "cache_info")}


def cache_stats() -> dict[str, tuple[int, int, int]]:
    """(hits, misses, currsize) of every memo of ``_memos``, by name."""
    stats = {}
    for name, value in _memos().items():
        info = value.cache_info()
        stats[name] = (info.hits, info.misses, info.currsize)
    return stats


@dataclass(frozen=True)
class WreathClassification:
    """Fusions of one wreath-product orientation, by parameter condition."""

    orientation: int
    base: SetPartition
    guaranteed: tuple[str, ...]  # nontrivial, all parameters
    clique_case: tuple[str, ...]  # only for k = r, s = -1
    multipartite_case: tuple[str, ...]  # only for r = 0, l = -1-s
    never: tuple[str, ...]
    trivial: tuple[str, ...]  # the base itself and the single block


def classify_wreath(orientation: int) -> WreathClassification:
    """Classify the 15 coarsenings of a wreath partition symbolically."""
    base = wreath_partition(orientation)
    generic = symbolic_tensor_table()
    guaranteed, clique, multi, never, trivial = [], [], [], [], []
    for q in coarsenings(base):
        text = str(q)
        if q == base or q.is_single_block():
            trivial.append(text)
            continue
        if bm_check(generic, q).is_fusion:
            guaranteed.append(text)
            continue
        imp = _imprimitive_families(text)
        if "IMP1" in imp:
            clique.append(text)
        if "IMP2" in imp:
            multi.append(text)
        if not imp:
            never.append(text)
    return WreathClassification(
        orientation, base, tuple(guaranteed), tuple(clique), tuple(multi),
        tuple(never), tuple(trivial),
    )
