"""The fusion criterion: single checks, fused tables, full scans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expected as X
from srgfusion.classifier import imprimitive_base_table, symbolic_tensor_table
from srgfusion.fusion import (
    IndexMismatch,
    NotAFusion,
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
from srgfusion.products import tensor_square_table, wreath_partition, wreath_table
from srgfusion.scheme import (
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
    "imprimitive1": lambda: tensor_square_table(imprimitive_base_table(1)),
    "imprimitive2": lambda: tensor_square_table(imprimitive_base_table(2)),
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
