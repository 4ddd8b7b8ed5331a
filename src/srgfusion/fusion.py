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
built column-sum views.  Rows are compared through ``CharTable.pair_bits``:
per mask the table records once, as bits, which pairs of rows have equal
sums, so a check ANDs a few ints and looks up the number of classes of the
result.  The bits compare exact integer images of the sums,
``CharTable.subset_images``: every entry is a rational combination of
basis keys, scaled to integers by the lcm L of the denominators, and key
number t maps to B**t with B = 2C + 1, C the largest per-row sum of
absolute scaled coefficients.  Two sums differ by a combination with
coefficients in [-2C, 2C], which is zero exactly when its image is, so a
scan adds and compares ints only.  Readers that need the
exact sums read them per block from ``CharTable.mask_sums``, which adds a
mask's sums the first time it is asked for: ``summed_rows`` and
``fused_table``, and the classifier's block differences.  ``fused_table``
merges rows along the row classes, and the classifier's row-count check
reads them too.

A check returns a ``FusionVerdict``, a named tuple of the partition and
its distinct-row count.  ``bm_check`` does it in one pass with no call on
a warm table: the ground test, the AND of the identity column's pair bits
with each mask's, one lookup of the AND in ``CharTable.class_counts`` and
one tuple.  ``scan_all`` compares the count with the rank itself.

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


def _ground_mismatch(table: CharTable, p: SetPartition) -> IndexMismatch:
    return IndexMismatch(f"partition ground {sorted(p.ground)} vs columns "
                         f"2..{len(table.col_labels)}")


def block_masks(table: CharTable, p: SetPartition) -> tuple[int, ...]:
    """Keys of p's blocks in the table's column-sum views, such as
    ``table.mask_sums``: index x is bit x - 2.

    Raises IndexMismatch unless p partitions the non-identity columns
    2..ncols: with no index below 2 (``p.masks`` raises ValueError for
    one), the disjoint masks sum to ``table.full_mask`` exactly when the
    ground is that set.
    """
    try:
        masks = p.masks
    except ValueError:
        raise _ground_mismatch(table, p) from None
    if sum(masks) != table.full_mask:
        raise _ground_mismatch(table, p)
    return masks


def summed_rows(table: CharTable, p: SetPartition) -> list[tuple]:
    """Rows of the table with columns summed per class (identity first)."""
    columns = map(table.mask_sums, block_masks(table, p))
    return list(zip((row[0] for row in table.rows), *columns))


def bm_check(table: CharTable, p: SetPartition) -> FusionVerdict:
    """Apply the Bannai-Muzychuk criterion to one partition.

    The verdict carries the number of row classes on p's masks; p gives a
    fusion when that is its rank.  One pass, with no call on a warm table:
    the ground test of ``block_masks`` (the same IndexMismatch), the AND
    of ``pair_bits[0]`` with each mask's pair bits (a mask not yet filled
    goes through ``CharTable.fill_pair_bits``, as in ``row_classes``), and
    the AND's class count from ``CharTable.class_counts``.  A count not
    there yet is ``len(table.row_classes(masks))``, so every verdict agrees
    with ``row_classes``.  The verdict is built by ``tuple.__new__``,
    skipping the named tuple's Python-level ``__new__``.
    """
    try:
        masks = p.masks
    except ValueError:
        raise _ground_mismatch(table, p) from None
    if sum(masks) != table.full_mask:
        raise _ground_mismatch(table, p)
    bits = table.pair_bits
    key = bits[0]
    for m in masks:
        b = bits[m]
        if b < 0:
            b = table.fill_pair_bits(m)
        key &= b
    try:
        count = table.class_counts[key]
    except KeyError:
        count = table.class_counts[key] = len(table.row_classes(masks))
    return tuple.__new__(FusionVerdict, (p, count))


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
