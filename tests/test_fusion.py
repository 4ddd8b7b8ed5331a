"""The fusion criterion: single checks, fused tables, full scans."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expected as X
from srgfusion.classifier import family_base_table, symbolic_tensor_table
from srgfusion import fusion
from srgfusion.fusion import (
    IndexMismatch,
    NotAFusion,
    block_masks,
    bm_check,
    fused_table,
    scan_all,
    summed_rows,
)
from srgfusion.partitions import (
    SetPartition,
    all_default_partitions,
    coarsenings,
    enumerate_partitions,
    parse,
    refines,
)
from srgfusion.products import (
    SWITCH, act, tensor_square_table, wreath_partition, wreath_table,
)
from srgfusion.scheme import (
    CharTable,
    SrgParams,
    char_table,
    eigen_from_params,
    eigen_from_values,
    imprimitive_eigen,
)


def tensor_for(*params, values=False):
    e = eigen_from_values(*params) if values else eigen_from_params(SrgParams(*params))
    return tensor_square_table(char_table(e))


@pytest.fixture(scope="module")
def petersen():
    return tensor_for(10, 3, 0, 1)


def test_bm_check_examples(petersen):
    v = bm_check(petersen, parse("23|47|5689"))
    assert v.is_fusion and v.fused_rank == 4
    rows = set(map(tuple, fused_table(petersen, parse("23|47|5689")).rows))
    assert rows == {(1, 9, 9, 81), (1, 9, -1, -9), (1, -1, 9, -9), (1, -1, -1, 1)}

    rook3 = tensor_for(9, 4, 1, 2)
    assert bm_check(rook3, parse("249|37|5|68")).is_fusion

    v = bm_check(petersen, parse("249|37|5|68"))
    assert not v.is_fusion and v.distinct_row_count == 6


def test_bm_check_index_mismatch(petersen):
    with pytest.raises(IndexMismatch):
        bm_check(petersen, SetPartition.from_blocks([(2, 3), (4, 5, 6, 7, 8)]))


def mismatch_partitions(ground):
    """The discrete, single-block and an odd/even partition of a ground."""
    ground = sorted(ground)
    return [SetPartition.from_blocks([x] for x in ground),
            SetPartition.from_blocks([ground]),
            SetPartition.from_blocks([ground[0::2], ground[1::2]])]


def assert_index_mismatch(table, p):
    for fn in (block_masks, summed_rows, bm_check, fused_table):
        with pytest.raises(IndexMismatch):
            fn(table, p)


@pytest.mark.parametrize("ground", [range(2, 9), range(1, 9), range(3, 11),
                                    range(1, 10)],
                         ids=["2-8", "1-8", "3-10", "1-9"])
def test_index_mismatch_on_nine_columns(petersen, ground):
    for p in mismatch_partitions(ground):
        assert_index_mismatch(petersen, p)
        if min(ground) >= 2:
            p.masks  # computed masks do not let a wrong ground through
            assert_index_mismatch(petersen, p)


def test_index_mismatch_on_wreath_columns():
    table = wreath_table(char_table(eigen_from_params(SrgParams(10, 3, 0, 1))))
    for p in mismatch_partitions(range(2, 10)) + [parse("23|47|5689")]:
        assert_index_mismatch(table, p)
    assert bm_check(table, parse("23|45", frozenset(range(2, 6)))).is_fusion


def test_partition_masks_cached_and_invisible_to_equality():
    p = parse("23|47|5689")
    assert p.masks == (0b11, 0b100100, 0b11011000)
    assert p.masks is p.masks
    fresh = parse("5689|47|32")
    assert p == fresh and hash(p) == hash(fresh)
    assert {p: "x"}[fresh] == "x" and {fresh: "x"}[p] == "x"
    assert len({p, fresh}) == 1
    assert all(sum(q.masks) == 0xFF for q in all_default_partitions())
    with pytest.raises(ValueError):
        SetPartition.from_blocks([(1, 2), (3,)]).masks


def test_fused_table_examples(petersen):
    ft = fused_table(petersen, parse("2347|5689"))
    assert ft.rows == ((1, 18, 81), (1, 8, -9), (1, -2, 1))
    assert ft.mults == (1, 18, 81)
    assert sum(ft.mults) == 100

    wr = fused_table(petersen, parse("2|3|456|789"))
    assert set(wr.rows) == {(1, 3, 6, 30, 60), (1, 3, 6, 10, -20),
                            (1, 3, 6, -20, 10), (1, 1, -2, 0, 0), (1, -2, 1, 0, 0)}

    rank2 = fused_table(petersen, parse("23456789"))
    assert rank2.rows == ((1, 99), (1, -1))
    assert rank2.mults == (1, 99)

    with pytest.raises(NotAFusion):
        fused_table(petersen, parse("249|37|5|68"))


def summed_rows_by_block_loop(table, p):
    """Reference: add each block's columns afresh, in increasing position."""
    out = []
    for row in table.rows:
        sums = [row[0]]
        for block in p.blocks:
            total = row[block[0] - 1]
            for x in block[1:]:
                total = total + row[x - 1]
            sums.append(total)
        out.append(tuple(sums))
    return out


def assert_summed_rows_match_reference(table, p):
    got, want = summed_rows(table, p), summed_rows_by_block_loop(table, p)
    assert got == want, str(p)
    # same types too: fused tables and CLI JSON serialize these values
    assert [list(map(type, row)) for row in got] == [
        list(map(type, row)) for row in want
    ], str(p)


@pytest.mark.parametrize("params", [(10, 3, 0, 1), (5, 2, 0, 1)],
                         ids=["petersen", "pentagon"])
def test_summed_rows_match_block_loop_numeric(params):
    table = tensor_for(*params)
    for p in all_default_partitions():
        assert_summed_rows_match_reference(table, p)


SYMBOLIC_TABLES = {
    "generic": symbolic_tensor_table,
    "imprimitive1": lambda: tensor_square_table(family_base_table("IMP1")),
    "imprimitive2": lambda: tensor_square_table(family_base_table("IMP2")),
}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(SYMBOLIC_TABLES)),
       p=st.sampled_from(all_default_partitions()))
def test_summed_rows_match_block_loop_symbolic(name, p):
    assert_summed_rows_match_reference(SYMBOLIC_TABLES[name](), p)


def test_summed_rows_match_block_loop_wreath():
    table = wreath_table(char_table(eigen_from_params(SrgParams(10, 3, 0, 1))))
    assert len(table.col_labels) == 5
    for p in enumerate_partitions(range(2, 6)):
        assert_summed_rows_match_reference(table, p)


def assert_bm_check_matches_reference(table, p):
    v = bm_check(table, p)
    distinct = len(set(summed_rows_by_block_loop(table, p)))
    is_fusion = distinct == p.rank
    assert (v.distinct_row_count, v.is_fusion, v.fused_rank) == (
        distinct, is_fusion, p.rank if is_fusion else None), str(p)


REFERENCE_TABLES = {
    "petersen": lambda: tensor_for(10, 3, 0, 1),
    "pentagon": lambda: tensor_for(5, 2, 0, 1),
    "paley13": lambda: tensor_for(13, 6, 2, 3),
    "imp22": lambda: tensor_for(9, 2, 1, 0),
    **SYMBOLIC_TABLES,
}


@pytest.mark.parametrize("name", sorted(REFERENCE_TABLES))
def test_bm_check_matches_block_loop_tensor(name):
    table = REFERENCE_TABLES[name]()
    for p in all_default_partitions():
        assert_bm_check_matches_reference(table, p)


def test_bm_check_matches_block_loop_wreath_and_refused(petersen):
    base = char_table(eigen_from_params(SrgParams(10, 3, 0, 1)))
    refused = fused_table(petersen, parse("2|3|456|789"))
    for table in (wreath_table(base, 1), wreath_table(base, 2), refused):
        assert len(table.col_labels) == 5
        for p in enumerate_partitions(range(2, 6)):
            assert_bm_check_matches_reference(table, p)


def test_bm_check_compares_identity_column_and_exact_values():
    # rows that agree off the identity column must still count apart, and
    # equal values of different types (1, Fraction(1)) must count together
    table = CharTable(
        row_labels=("a", "b", "c", "d"),
        col_labels=("A0", "A1", "A2"),
        rows=((1, 2, 3), (2, 2, 3), (Fraction(1), Fraction(2), 3),
              (1, Fraction(5, 2), Fraction(5, 2))),
        mults=(1, 1, 1, 1),
    )
    for p in enumerate_partitions(range(2, 4)):
        assert_bm_check_matches_reference(table, p)
    assert [bm_check(table, p).distinct_row_count
            for p in enumerate_partitions(range(2, 4))] == [2, 3]


def row_classes_reference(table, p):
    """Reference: rows grouped by their exact block-loop summed rows, classes
    in order of first appearance."""
    classes: dict = {}
    for i, row in enumerate(summed_rows_by_block_loop(table, p)):
        classes.setdefault(row, []).append(i)
    return tuple(tuple(cls) for cls in classes.values())


ROW_CLASS_TABLES = {
    **{name: (build, None) for name, build in REFERENCE_TABLES.items()},
    "wreath": (lambda: wreath_table(char_table(
        eigen_from_params(SrgParams(10, 3, 0, 1)))), range(2, 6)),
    "refused": (lambda: fused_table(tensor_for(10, 3, 0, 1), parse("2|3|456|789")),
                range(2, 6)),
}


@pytest.mark.parametrize("name", sorted(ROW_CLASS_TABLES))
def test_row_classes_match_reference(name):
    build, ground = ROW_CLASS_TABLES[name]
    table = build()
    ps = all_default_partitions() if ground is None else enumerate_partitions(ground)
    want = [row_classes_reference(table, p) for p in ps]
    # a fresh copy per order: the pair bits fill in the order masks are met
    for order in (1, -1):
        fresh = dataclasses.replace(table)
        assert "pair_bits" not in vars(fresh)
        for p, classes in list(zip(ps, want))[::order]:
            assert fresh.row_classes(block_masks(fresh, p)) == classes, str(p)


def test_fresh_table_fills_only_the_masks_it_uses():
    table = tensor_for(10, 3, 0, 1)
    p = parse("249|37|5|68")
    assert bm_check(table, p).is_fusion is False
    assert len(table.pair_bits) == 1 << 8
    filled = {m for m, bits in enumerate(table.pair_bits) if bits >= 0}
    assert filled == {0, *p.masks}


def test_scan_all_checks_each_nontrivial_partition_once(petersen, monkeypatch):
    # one bm_check per nontrivial partition: traced call counts rely on it
    seen = []

    def counting(table, p):
        seen.append(p)
        return bm_check(table, p)

    monkeypatch.setattr(fusion, "bm_check", counting)
    assert {str(v.partition) for v in scan_all(petersen)} == X.GUARANTEED_13
    assert len(seen) == len(set(seen)) == 4138
    assert not any(p.is_discrete() or p.is_single_block() for p in seen)


def test_trivial_partitions_always_positive(petersen):
    assert bm_check(petersen, parse("23456789")).is_fusion
    assert bm_check(petersen, parse("2|3|4|5|6|7|8|9")).is_fusion


def scan_strings(table):
    return {str(v.partition) for v in scan_all(table)}


def test_scan_petersen_exactly_guaranteed(petersen):
    assert scan_strings(petersen) == X.GUARANTEED_13


def test_scan_imprimitive_instance():
    got = scan_strings(tensor_for(9, 2, 1, 0))
    assert got == X.IMP22_SCAN
    assert len(got) == 60
    # the non-degenerate instances scan to exactly the 58 family fusions
    for r, m in ((2, 3), (3, 2)):
        got = scan_strings(tensor_square_table(char_table(imprimitive_eigen(r, m))))
        assert got == X.IMP_FAMILY_SCAN


@pytest.mark.parametrize("kind", [1, 2])
def test_scan_imprimitive_symbolic_tables(kind):
    """Each imprimitive family's symbolic table scans to the 13 guaranteed
    fusions plus its 45 family fusions; IMP2's are IMP1's under SWITCH."""
    family = (X.IMP1_45 if kind == 1
              else {str(act(SWITCH, parse(t))) for t in X.IMP1_45})
    got = scan_strings(tensor_square_table(family_base_table(f"IMP{kind}")))
    assert got == X.GUARANTEED_13 | family


def test_scan_paley13():
    got = scan_strings(tensor_for(13, 6, 2, 3))
    assert got == X.PALEY13_SCAN
    assert len(got) == 24
    assert "27|34|59|6|8" in got
    assert {"234678|59", "234579|68", "2359|4678", "2368|4579"} <= got


def test_scan_named_instances():
    assert scan_strings(tensor_for(5, 2, 0, 1)) == X.PENTAGON_SCAN
    assert scan_strings(tensor_for(9, 4, 1, 2)) == X.ROOK3_SCAN
    assert scan_strings(tensor_for(6, 9, 2, -2, values=True)) == X.ROOK4_SCAN
    assert scan_strings(tensor_for(16, 10, 6, 6)) == X.CLEBSCHC_SCAN
    assert scan_strings(tensor_for(16, 5, 0, 2)) == X.CLEBSCH_SCAN


def test_scan_deterministic_order(petersen):
    verdicts = scan_all(petersen)
    texts = [str(v.partition) for v in verdicts]
    assert texts == sorted(texts)


def test_fused_multiplicities_sum_to_n_squared(petersen):
    for v in scan_all(petersen):
        ft = fused_table(petersen, v.partition)
        assert sum(ft.mults) == 100
        assert all(m > 0 for m in ft.mults)
        assert all(x > 0 for x in ft.valency_row())


def test_fusion_of_fusion_on_lattice_edges(petersen):
    """A coarsening of a fusion, itself a fusion, fuses the fused table."""
    positives = [v.partition for v in scan_all(petersen)]
    for p in positives:
        ft = fused_table(petersen, p)
        for q in positives:
            if p == q or not refines(p, q):
                continue
            induced = SetPartition.from_blocks([
                [bi + 2 for bi, block in enumerate(p.blocks)
                 if set(block) <= set(qblock)]
                for qblock in q.blocks
            ])
            assert bm_check(ft, induced).is_fusion


def test_wreath_coarsening_scan_matches_instances():
    # fusions of the wreath are read off the tensor table on coarsenings
    base = wreath_partition(1)
    t = tensor_for(10, 3, 0, 1)
    got = {str(q) for q in coarsenings(base)
           if not q.is_single_block() and q != base
           and bm_check(t, q).is_fusion}
    assert got == set(X.WREATH1_GUARANTEED)
    t = tensor_for(9, 2, 1, 0)
    got = {str(q) for q in coarsenings(base)
           if not q.is_single_block() and q != base
           and bm_check(t, q).is_fusion}
    assert got == set(X.WREATH1_GUARANTEED) | set(X.WREATH1_CLIQUE)
