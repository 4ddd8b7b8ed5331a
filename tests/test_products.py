"""Tensor-square and wreath tables; flip and switch actions."""

from fractions import Fraction

import pytest

from expected import GUARANTEED_13, GUARANTEED_FLIP_FIXED, GUARANTEED_FLIP_PAIRS
from srgfusion.catalogue import guaranteed_partition_strings
from srgfusion.exact import K, L, ONE, R, S, MultiPoly
from srgfusion.fusion import bm_check, fused_table
from srgfusion.partitions import all_default_partitions, parse
from srgfusion.products import (
    FLIP,
    SWITCH,
    IntersectionTensor,
    KroneckerSquare,
    act,
    single_index,
    tensor_square_table,
    wreath_partition,
    wreath_table,
)
from srgfusion.scheme import (
    SrgParams, char_table, eigen_from_params, eigen_from_values, regular_matrices,
)


@pytest.fixture(scope="module")
def petersen_table():
    return char_table(eigen_from_params(SrgParams(10, 3, 0, 1)))


def test_single_index_layout():
    assert [single_index(i, j) for j in range(3) for i in range(3)] == list(range(1, 10))


def test_tensor_entries_petersen(petersen_table):
    tt = tensor_square_table(petersen_table)
    row = dict(zip(tt.row_labels, tt.rows))
    col = {label: idx for idx, label in enumerate(tt.col_labels)}
    # chi_11(A_11) = r^2, chi_00(A_22) = l^2
    assert row["chi_11"][col["A_11"]] == 1
    assert row["chi_00"][col["A_22"]] == 36
    # the rule, not the printed table: chi_12(A_11) = r*s, chi_02(A_11) = k*s
    assert row["chi_12"][col["A_11"]] == -2
    assert row["chi_02"][col["A_11"]] == -6
    # identity column all ones; multiplicity of chi_12 is f*g
    a00 = col["A_00"]
    assert all(r[a00] == 1 for r in tt.rows)
    assert dict(zip(tt.row_labels, tt.mults))["chi_12"] == 20
    assert tt.order == 100


def test_wreath_table_petersen(petersen_table):
    w = wreath_table(petersen_table, 1)
    assert w.rows[1] == (1, 3, 6, 10, -20)
    assert w.mults == (1, 5, 4, 50, 40)
    r = Fraction(1)
    assert w.rows[3] == (1, r, -1 - r, 0, 0)
    with pytest.raises(ValueError):
        wreath_table(tensor_square_table(petersen_table))  # not 3x3
    with pytest.raises(ValueError):
        wreath_table(petersen_table, 3)


def test_wreath_table_equals_fused_tensor(petersen_table):
    tt = tensor_square_table(petersen_table)
    for orientation in (1, 2):
        w = wreath_table(petersen_table, orientation)
        f = fused_table(tt, wreath_partition(orientation))
        # align columns by class label (the fused table orders columns by
        # partition block; the display form fixes its own order)
        order = [("identity",) + f.col_labels[1:]].pop()
        w_cols = {label if label != "A_00" else "identity": idx
                  for idx, label in enumerate(w.col_labels)}
        perm = [w_cols[label] for label in order]
        w_rows = {tuple(row[i] for i in perm) for row in w.rows}
        assert w_rows == set(f.rows)
        assert sorted(w.mults) == sorted(f.mults)


def test_flip_switch_actions():
    assert str(act(FLIP, parse("2|3|456|789"))) == "258|369|4|7"
    assert str(act(SWITCH, parse("249|35678"))) == "24689|357"
    assert act(SWITCH, parse("23|456789")) == parse("23|456789")


def test_involutions_and_commutation():
    # the cycles the module docstring lists: (2 4)(3 7)(6 8), (2 3)(4 7)(5 9)(6 8)
    assert FLIP.mapping == ((2, 4), (3, 7), (4, 2), (6, 8), (7, 3), (8, 6))
    assert SWITCH.mapping == ((2, 3), (3, 2), (4, 7), (5, 9), (6, 8), (7, 4),
                              (8, 6), (9, 5))
    flip, switch = FLIP.as_dict(), SWITCH.as_dict()
    assert all(flip[flip[x]] == x and switch[switch[x]] == x for x in flip)
    assert all(flip[switch[x]] == switch[flip[x]] for x in flip)


def test_guaranteed_closed_under_switch_and_flip_pairing():
    for text in GUARANTEED_13:
        assert str(act(SWITCH, parse(text))) == text
    for a, b in GUARANTEED_FLIP_PAIRS:
        assert str(act(FLIP, parse(a))) == b
        assert str(act(FLIP, parse(b))) == a
    for text in GUARANTEED_FLIP_FIXED:
        assert str(act(FLIP, parse(text))) == text


def test_flip_invariance_of_verdicts_on_petersen(petersen_table):
    tt = tensor_square_table(petersen_table)
    for p in all_default_partitions():
        assert bm_check(tt, p).is_fusion == bm_check(tt, act(FLIP, p)).is_fusion


def test_switch_covariance_petersen_complement(petersen_table):
    tt = tensor_square_table(petersen_table)
    # complement of the Petersen graph: roles of the two classes exchange
    comp = char_table(eigen_from_values(6, 3, 1, -2, integral=True))
    tc = tensor_square_table(comp)
    for p in all_default_partitions():
        assert bm_check(tt, p).is_fusion == bm_check(tc, act(SWITCH, p)).is_fusion


def test_guaranteed_positive_across_battery():
    tables = [
        char_table(eigen_from_params(SrgParams(*prm)))
        for prm in [(10, 3, 0, 1), (9, 4, 1, 2), (13, 6, 2, 3), (5, 2, 0, 1),
                    (9, 2, 1, 0), (9, 6, 3, 6), (16, 10, 6, 6)]
    ]
    for t in tables:
        tt = tensor_square_table(t)
        for text in GUARANTEED_13:
            assert bm_check(tt, parse(text)).is_fusion, (t.rows, text)


def kronecker_fusions(p) -> set[str]:
    """The partitions whose square the Kronecker block sums of p fuse."""
    square = KroneckerSquare(p, range(1, 10))
    return {str(q) for q in all_default_partitions()
            if isinstance(square.fuse(q), IntersectionTensor)}


@pytest.mark.parametrize("params", [
    (10, 3, 0, 1), (13, 6, 2, 3), (5, 2, 0, 1), (9, 4, 1, 2), (16, 6, 2, 2),
    (16, 5, 0, 2), (9, 2, 1, 0),
], ids=["petersen", "paley13", "pentagon", "rook3", "rook4", "clebsch", "imp22"])
def test_kronecker_square_of_rational_p_matches_the_criterion(params):
    """Rational p from parameters alone, with no graph, fuse exactly the
    partitions the character-table criterion fuses; paley13 and pentagon
    have irrational eigenvalues but rational p."""
    e = eigen_from_params(SrgParams(*params))
    one, zero = Fraction(1), Fraction(0)
    identity = tuple(tuple(one if i == j else zero for i in range(3))
                     for j in range(3))
    # b1[i][j] = p_1j^i and b2[i][j] = p_2j^i
    p = (identity, *(tuple(zip(*b)) for b in regular_matrices(e)))
    assert all(type(x) is Fraction for plane in p for row in plane for x in row)
    table = tensor_square_table(char_table(e))
    assert kronecker_fusions(p) == {
        str(q) for q in all_default_partitions() if bm_check(table, q).is_fusion}


def test_kronecker_square_of_symbolic_p_fuses_the_guaranteed_partitions():
    """With p in k, l, r, s, lambda = k + r + s + rs and mu = k + rs, the
    block sums that are identically constant, by plain ==, are exactly
    those of the guaranteed partitions and the two trivial ones."""
    lam, mu, zero = K + R + S + R * S, K + R * S, MultiPoly.const(0)
    p11, p12 = (K, lam, mu), (zero, K - lam - ONE, K - mu)
    p22 = (L, L - K + lam + ONE, L - K + mu - ONE)
    unit = tuple(tuple(ONE if e == j else zero for e in range(3))
                 for j in range(3))
    p = (unit, (unit[1], p11, p12), (unit[2], p12, p22))
    assert kronecker_fusions(p) == guaranteed_partition_strings() | {
        "23456789", "2|3|4|5|6|7|8|9"}
