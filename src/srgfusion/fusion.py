"""Fusion detection on exact character tables.

A partition of the non-identity basis elements names a candidate fusion.
The Bannai-Muzychuk criterion decides it: sum the character-table columns
over each block (the identity column stays alone) and count distinct rows
of the result; the partition gives a fusion exactly when that count equals
the number of classes, blocks plus one.

Block sums are looked up, not re-added: ``block_masks`` checks a partition
against the table and hands back its per-block keys (``SetPartition.masks``,
computed once per partition) into the table's lazily built
``CharTable.subset_sums``, which the classifier's block differences read too.
Rows are compared through ``CharTable.row_classes``: per mask the table
records once, as bits, which pairs of rows have equal sums, so a check ANDs
a few ints and counts the classes of the result instead of hashing exact
values; the classifier's row-count check reads the same classes.

The check is purely value-based, so the same routine serves numeric tables
(Fraction / quadratic-irrational entries), fully symbolic tables whose
entries are polynomials, and fused tables being re-fused.
"""

from __future__ import annotations

from dataclasses import dataclass
from .partitions import DEFAULT_GROUND, SetPartition, all_default_partitions
from .scheme import CharTable


class IndexMismatch(ValueError):
    """Partition ground set does not match the table's non-identity columns."""


class NotAFusion(ValueError):
    """A fused table was requested for a partition that fails the criterion."""


@dataclass(frozen=True)
class FusionVerdict:
    partition: SetPartition
    is_fusion: bool
    distinct_row_count: int
    fused_rank: int | None

    def __post_init__(self):
        expected = self.partition.num_blocks + 1
        if self.is_fusion and self.distinct_row_count != expected:
            raise ValueError("verdict inconsistent with distinct row count")


def block_masks(table: CharTable, p: SetPartition) -> tuple[int, ...]:
    """Keys of p's blocks in ``table.subset_sums``: index x is bit x - 2.

    Raises IndexMismatch unless p partitions the non-identity columns
    2..ncols: with no index below 2, the disjoint masks sum to all ncols - 1
    bits exactly when the ground is that set.
    """
    ncols = len(table.col_labels)
    if (p.blocks and p.blocks[0][0] < 2) or sum(p.masks) != (1 << (ncols - 1)) - 1:
        raise IndexMismatch(
            f"partition ground {sorted(p.ground)} vs columns 2..{ncols}"
        )
    return p.masks


def summed_rows(table: CharTable, p: SetPartition) -> list[tuple]:
    """Rows of the table with columns summed per class (identity first)."""
    masks = block_masks(table, p)
    return [
        (row[0],) + tuple(sums[m] for m in masks)
        for row, sums in zip(table.rows, table.subset_sums)
    ]


def bm_check(table: CharTable, p: SetPartition) -> FusionVerdict:
    """Apply the Bannai-Muzychuk criterion to one partition."""
    distinct = len(table.row_classes(block_masks(table, p)))
    is_fusion = distinct == p.num_blocks + 1
    return FusionVerdict(p, is_fusion, distinct, p.rank if is_fusion else None)


def fused_table(table: CharTable, p: SetPartition) -> CharTable:
    """Character table of the fusion named by p.

    Distinct summed rows with merged multiplicities; the valency row comes
    first, remaining rows sorted by first differing entry, descending.
    Raises NotAFusion when the criterion fails.
    """
    rows = summed_rows(table, p)  # checks p against the table
    merged: dict[tuple, object] = {}
    for row, mult in zip(rows, table.mults):
        merged[row] = merged.get(row, 0) + mult
    if len(merged) != p.num_blocks + 1:
        raise NotAFusion(f"{p} yields {len(merged)} distinct rows")
    valency = rows[0]
    rest = sorted((row for row in merged if row != valency), reverse=True)
    ordered = [valency] + rest
    labels = table.col_labels[1:]  # bit c of a mask is labels[c]
    col_labels = ["identity"] + [
        "+".join(label for c, label in enumerate(labels) if m >> c & 1)
        for m in p.masks
    ]
    return CharTable(
        row_labels=tuple(f"row_{i}" for i in range(len(ordered))),
        col_labels=tuple(col_labels),
        rows=tuple(ordered),
        mults=tuple(merged[row] for row in ordered),
    )


def scan_all(table: CharTable) -> list[FusionVerdict]:
    """All positive verdicts over the partitions of {2,...,9}, canonical order.

    The two trivial positives are suppressed: the discrete partition (the
    scheme itself) and the single-block partition (the rank-2 fusion every
    table algebra has).  Both pass the criterion for every table, so
    reported counts follow the convention that only nontrivial fusions are
    listed.
    """
    out = []
    for p in all_default_partitions():
        if 1 < p.num_blocks < len(DEFAULT_GROUND):
            verdict = bm_check(table, p)
            if verdict.is_fusion:
                out.append(verdict)
    return out
