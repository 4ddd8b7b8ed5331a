"""Fusion detection on exact character tables.

A partition of the non-identity basis elements names a candidate fusion.
The Bannai-Muzychuk criterion decides it: sum the character-table columns
over each block (the identity column stays alone) and count distinct rows
of the result; the partition gives a fusion exactly when that count equals
the number of classes, blocks plus one.

Block sums are looked up, not re-added: ``block_masks`` checks a partition
against the table, one int compare of its masks' sum with
``CharTable.full_mask``, and hands back its per-block keys
(``SetPartition.masks``, set by the enumeration) into the table's lazily
built column-sum views.  Rows are compared through
``CharTable.row_classes``: per mask the table records once, as bits, which
pairs of rows have equal sums, so a check ANDs a few ints and counts the
classes of the result.  The bits compare exact
integer images of the sums, ``CharTable.subset_images``: every entry is a
rational combination of basis keys, scaled to integers by the lcm L of the
denominators, and key number t maps to B**t with B = 2C + 1, C the largest
per-row sum of absolute scaled coefficients.  Two sums differ by a
combination with coefficients in [-2C, 2C], which is zero exactly when its
image is, so a scan adds and compares ints only.  The exact
``CharTable.subset_sums`` are built only for readers that need the values:
``summed_rows`` and ``fused_table``, and the classifier's block
differences.  ``fused_table`` merges rows along the row classes, and the
classifier's row-count check reads them too.

A check returns a ``FusionVerdict``, a named tuple of the partition and
its distinct-row count, so a call costs a mask lookup, a few ANDs and one
tuple; ``scan_all`` compares the count with the rank itself.

The check is purely value-based, so the same routine serves numeric tables
(Fraction / quadratic-irrational entries), fully symbolic tables whose
entries are polynomials, and fused tables being re-fused.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .partitions import DEFAULT_GROUND, SetPartition, all_default_partitions
from .scheme import CharTable


class IndexMismatch(ValueError):
    """Partition ground set does not match the table's non-identity columns."""


class NotAFusion(ValueError):
    """A fused table was requested for a partition that fails the criterion."""


class FusionVerdict(NamedTuple):
    """One Bannai-Muzychuk check: the partition and the number of distinct
    rows of its summed table.

    A named tuple: ``bm_check`` builds one per call, and a tuple is built
    faster than a frozen dataclass instance.
    """

    partition: SetPartition
    distinct_row_count: int

    @property
    def is_fusion(self) -> bool:
        """The criterion: one distinct summed row per class."""
        return self.distinct_row_count == self.partition.rank

    @property
    def fused_rank(self) -> int | None:
        return self.partition.rank if self.is_fusion else None


def block_masks(table: CharTable, p: SetPartition) -> tuple[int, ...]:
    """Keys of p's blocks in ``table.subset_sums``: index x is bit x - 2.

    Raises IndexMismatch unless p partitions the non-identity columns
    2..ncols: with no index below 2 (tested first, since such a partition
    has no masks), the disjoint masks sum to ``table.full_mask`` exactly
    when the ground is that set.
    """
    if (p.blocks and p.blocks[0][0] < 2) or sum(p.masks) != table.full_mask:
        raise IndexMismatch(
            f"partition ground {sorted(p.ground)} vs columns "
            f"2..{len(table.col_labels)}"
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
    """Apply the Bannai-Muzychuk criterion to one partition.

    The verdict carries the number of row classes on p's masks; p gives a
    fusion when that is its rank.  Raises IndexMismatch as ``block_masks``.
    """
    return FusionVerdict(p, len(table.row_classes(block_masks(table, p))))


def fused_table(table: CharTable, p: SetPartition) -> CharTable:
    """Character table of the fusion named by p.

    One row per row class of the summed table, the class's summed row with
    its members' multiplicities added; the valency row comes first,
    remaining rows sorted by first differing entry, descending.  Rows whose
    entries do not compare (polynomials of a symbolic table) keep the
    row-class order, by first member.  Raises NotAFusion when the criterion
    fails.
    """
    summed = summed_rows(table, p)  # checks p against the table
    classes = table.row_classes(p.masks)
    if len(classes) != p.rank:
        raise NotAFusion(f"{p} yields {len(classes)} distinct rows")
    # class 0 holds row 0, the valency row
    ordered = [(summed[c[0]], sum(table.mults[i] for i in c)) for c in classes]
    try:
        ordered[1:] = sorted(ordered[1:], key=lambda rm: rm[0], reverse=True)
    except TypeError:  # rows that do not compare keep the row-class order
        pass
    labels = table.col_labels[1:]  # bit c of a mask is labels[c]
    col_labels = ["identity"] + [
        "+".join(label for c, label in enumerate(labels) if m >> c & 1)
        for m in p.masks
    ]
    return CharTable(
        row_labels=tuple(f"row_{i}" for i in range(len(ordered))),
        col_labels=tuple(col_labels),
        rows=tuple(row for row, _ in ordered),
        mults=tuple(mult for _, mult in ordered),
    )


def scan_all(table: CharTable) -> list[FusionVerdict]:
    """All positive verdicts over the partitions of {2,...,9}, canonical order.

    The two trivial positives are suppressed: the discrete partition (the
    scheme itself) and the single-block partition (the rank-2 fusion every
    table algebra has).  Both pass the criterion for every table, so
    reported counts follow the convention that only nontrivial fusions are
    listed.

    One ``bm_check`` per nontrivial partition, called through this
    module's binding so that a patched ``fusion.bm_check`` (call counts,
    tracing) sees every check; a verdict is kept when its distinct-row
    count equals the partition's rank, the blocks plus the identity class.
    """
    out = []
    for p in _nontrivial_default_partitions():
        verdict = bm_check(table, p)
        if verdict.distinct_row_count == len(p.blocks) + 1:
            out.append(verdict)
    return out


@lru_cache(maxsize=None)
def _nontrivial_default_partitions() -> tuple[SetPartition, ...]:
    """The 4138 partitions of {2,...,9} other than the two trivial ones."""
    return tuple(p for p in all_default_partitions()
                 if 1 < p.num_blocks < len(DEFAULT_GROUND))
