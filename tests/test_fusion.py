"""The fusion criterion: single checks, fused tables, full scans."""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import expected as X
from srgfusion.catalogue import (
    family_base_table, family_catalog, symbolic_tensor_table,
)
from srgfusion import fusion
from srgfusion.exact import K, L, M, ONE, MultiPoly, R, S, quad
from srgfusion.fusion import (
    FusionVerdict,
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


def test_fused_table_of_the_symbolic_square_along_flip_is_hamming():
    """H(2, A), the fusion of the symbolic tensor square along the flip
    orbits 24|37|5|68|9: its polynomial rows do not compare, so they keep
    the row-class order chi_00, chi_01, chi_02, chi_11, chi_12, chi_22."""
    p = parse("24|37|5|68|9")
    h = fused_table(symbolic_tensor_table(), p)
    assert len(h.rows) == 6
    assert h.valency_row() == (ONE, 2 * K, 2 * L, K * K, 2 * K * L, L * L)
    # the symbolic table carries multiplicity 1 per row: a class's count
    assert h.mults == (1, 2, 2, 1, 2, 1)
    r2 = -1 - R
    assert h.rows[3] == (ONE, 2 * R, 2 * r2, R * R, 2 * R * r2, r2 * r2)
    # at the Petersen graph's point the rows are the numeric fused table's
    point = {"k": 3, "l": 6, "r": 1, "s": -2}
    numeric = fused_table(tensor_for(10, 3, 0, 1), p)
    assert {tuple(x.evaluate(point) for x in row) for row in h.rows} == set(
        numeric.rows)


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


@pytest.mark.parametrize("name", ["generic", "paley13", "petersen"])
def test_verdicts_count_row_classes_and_agree_with_fused_table(name):
    """On a rational, a quadratic and the symbolic table, every verdict
    counts the row classes of its masks, and a partition is a fusion, with
    its rank, exactly when ``fused_table`` builds its table."""
    table = REFERENCE_TABLES[name]()
    for p in all_default_partitions():
        v = bm_check(table, p)
        assert v == FusionVerdict(p, len(table.row_classes(p.masks))), str(p)
        try:
            fused = fused_table(table, p)
        except NotAFusion:
            assert not v.is_fusion and v.fused_rank is None, str(p)
        else:
            assert v.is_fusion and v.fused_rank == len(fused.rows) == p.rank, str(p)


@pytest.mark.parametrize("name", ["generic", "paley13", "petersen"])
def test_verdicts_do_not_depend_on_fill_order(name):
    """``bm_check``'s count memo and ``row_classes``' classes memo agree
    whichever of them a fresh table fills first: checks first, or row
    classes (and a few fused tables) first."""
    table = REFERENCE_TABLES[name]()
    ps = all_default_partitions()

    checked = dataclasses.replace(table)
    assert "pair_bits" not in vars(checked)
    verdicts = [bm_check(checked, p) for p in ps]
    classes = [checked.row_classes(p.masks) for p in ps]

    read = dataclasses.replace(table)
    assert "pair_bits" not in vars(read)
    assert [read.row_classes(p.masks) for p in ps] == classes
    fusions = [p for p, c in zip(ps, classes) if len(c) == p.rank]
    for p in fusions[::max(1, len(fusions) // 4)]:
        assert len(fused_table(read, p).rows) == p.rank, str(p)
    verdicts_after = [bm_check(read, p) for p in ps]

    for p, first, after, c in zip(ps, verdicts, verdicts_after, classes):
        assert first == after == FusionVerdict(p, len(c)), str(p)


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


def lower_bit_prefixes(masks):
    """Each mask and the masks left by dropping its lowest bits one at a
    time: what ``CharTable.mask_sums`` fills for them."""
    out = set()
    for m in masks:
        while m:
            out.add(m)
            m &= m - 1
    return out


def test_fused_table_fills_only_its_masks_sums():
    table = tensor_for(10, 3, 0, 1)
    p = parse("23|47|5689")
    assert fused_table(table, p).order == table.order
    assert len(table._mask_sums) == 1 << 8
    filled = {m for m, sums in enumerate(table._mask_sums) if sums is not None}
    assert filled == lower_bit_prefixes(p.masks) == {
        0b11, 0b10, 0b100100, 0b100000, 0b11011000, 0b11010000, 0b11000000,
        0b10000000}


# entries that often coincide in subset sums: small ints mixed with the same
# values as Fractions, quadratic values in one field, and polynomials with
# negative and Fraction coefficients over a few monomials
_RATIONAL_ENTRY = st.builds(lambda a, as_fraction: Fraction(a, 2) if as_fraction
                            else a // 2, st.integers(-4, 4), st.booleans())
_ENTRY_KINDS = {
    "rational": _RATIONAL_ENTRY,
    "quadratic": st.builds(lambda a, b: quad(Fraction(a, 2), Fraction(b, 2), 5),
                           st.integers(-2, 2), st.integers(-2, 2)),
    "polynomial": st.builds(
        lambda cs: sum((c * mono for c, mono in zip(cs, (ONE, R, R * S, M))),
                       MultiPoly()),
        st.lists(st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-3, 2)]),
                 min_size=4, max_size=4)),
}


@settings(max_examples=45, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_ENTRY_KINDS)),
       nrows=st.integers(2, 5))
def test_pair_bits_from_images_match_exact_subset_sums(data, kind, nrows):
    """On 9-column tables of each entry kind, ``mask_sums`` is each row
    summed directly over the mask's columns, and rows pair on a mask
    exactly when those sums are equal."""
    entries = _ENTRY_KINDS[kind]
    rows = tuple(tuple(data.draw(st.lists(entries, min_size=9, max_size=9)))
                 for _ in range(nrows))
    table = CharTable(tuple(map(str, range(nrows))), tuple(map(str, range(9))),
                      rows, (1,) * nrows)
    for mask in range(1, 1 << 8):
        table.row_classes((mask,))
    for mask in range(1, 1 << 8):
        columns = [c for c in range(1, 9) if mask >> (c - 1) & 1]
        sums = [sum(row[c] for c in columns) for row in rows]
        assert table.mask_sums(mask) == tuple(sums), (mask, rows)
        want = sum(1 << (i * nrows + j)
                   for i, j in itertools.combinations(range(nrows), 2)
                   if sums[i] == sums[j])
        assert table.pair_bits[mask] == want, (mask, rows)
    assert all(type(x) is int for images in table.subset_images for x in images)


def test_scans_of_imprimitive_and_rational_tables_need_no_subset_sums():
    """A scan compares integer images and adds no exact sums, and finds the
    partitions whose rows, summed here per block, have rank distinct rows."""
    for table in (tensor_square_table(family_base_table("IMP1")),
                  tensor_for(13, 6, 2, 3)):
        got = scan_strings(table)
        assert "subset_images" in vars(table)
        assert "_mask_sums" not in vars(table)
        block_sums = {}
        for p in all_default_partitions():
            for block in p.blocks:
                if block not in block_sums:
                    block_sums[block] = tuple(sum(row[x - 1] for x in block)
                                              for row in table.rows)
        want = {str(p) for p in all_default_partitions()
                if 1 < p.num_blocks < 8 and p.rank == len(set(zip(
                    (row[0] for row in table.rows),
                    *(block_sums[block] for block in p.blocks))))}
        assert got == want


def test_default_partitions_carry_masks_from_the_enumeration():
    for p in all_default_partitions():
        assert "masks" in vars(p)
        assert p.masks == tuple(sum(1 << (x - 2) for x in block)
                                for block in p.blocks)
    with pytest.raises(ValueError):
        SetPartition(((0, 1), (2,))).masks
    assert "masks" not in vars(enumerate_partitions(range(1, 4))[0])


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


def _family_partitions() -> dict[str, set[str]]:
    """Census partitions of each family, from the frozen lists."""
    out = {"CONF": set(X.CONF_11), "IMP1": set(X.IMP1_45),
           "IMP2": {str(act(SWITCH, parse(t))) for t in X.IMP1_45},
           "SP9": set(X.SP9_6), "SP5": set(X.SP5_2)}
    for fid, text in X.FAMILY_SINGLETONS.items():
        out.setdefault(fid, set()).add(text)
    return out


def _census_prediction(point: dict) -> set[str]:
    """The guaranteed partitions plus those of every family whose defining
    polynomials vanish at the point."""
    through = {fam.id for fam in family_catalog()
               if all(d.evaluate(point) == 0 for d in fam.defining)}
    return set(X.GUARANTEED_13).union(*(texts for fid, texts in
                                        _family_partitions().items()
                                        if fid in through))


def _primitive(k, l, r, s) -> bool:
    return k > r > 0 and s < -1 and l > -1 - s


def _scan_at(k, l, r, s) -> set[str]:
    return scan_strings(tensor_square_table(char_table(eigen_from_values(k, l, r, s))))


_POSITIVE = st.builds(Fraction, st.integers(1, 40), st.integers(1, 8))


@settings(max_examples=25, deadline=None)
@given(r=_POSITIVE, t=_POSITIVE, u=_POSITIVE)
def test_scan_at_a_generic_rational_point_is_the_guaranteed_set(r, t, u):
    """At a primitive rational point on no catalogued family, a table
    algebra with r > 0, s = -1 - t and k = max(r, -rs) + u, the scan finds
    exactly the 13 guaranteed fusions."""
    s = -1 - t
    k = max(r, -r * s) + u
    l = -k * (1 + r) * (1 + s) / (k + r * s)  # row orthogonality
    point = {"k": k, "l": l, "r": r, "s": s}
    assert _primitive(k, l, r, s)
    assume(_census_prediction(point) == X.GUARANTEED_13)
    assert _scan_at(k, l, r, s) == X.GUARANTEED_13


_PRIMITIVE_PARAMETRIC = [fam for fam in family_catalog()
                         if not fam.point and fam.id not in ("IMP1", "IMP2")]


@settings(max_examples=25, deadline=None)
@given(fam=st.sampled_from(_PRIMITIVE_PARAMETRIC),
       x=st.builds(Fraction, st.integers(1, 48), st.integers(1, 8)))
def test_scan_at_a_rational_family_point_is_the_census_prediction(fam, x):
    """At a primitive rational point of a parametric family, the scan finds
    the guaranteed fusions and the census partitions of every family
    through the point.  The family's free symbol is r, drawn in (0, 6), or
    s, drawn in (-7, -1)."""
    images = fam.substitution_map()
    (free,) = set().union(*(images[v].symbols() for v in "klrs"))
    value = x if free == "r" else -1 - x
    assume(value < 6 if free == "r" else value > -7)
    point = {v: images[v].evaluate({free: value}) for v in "klrs"}
    assume(_primitive(*(point[v] for v in "klrs")))
    predicted = _census_prediction(point)
    assert predicted > X.GUARANTEED_13
    assert _scan_at(*(point[v] for v in "klrs")) == predicted


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
