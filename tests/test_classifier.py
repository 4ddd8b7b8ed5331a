"""Symbolic classification: equality graphs, certificates, the full run."""

import dataclasses
import gc
import hashlib
import itertools
import os
import pickle
import random
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import expected as X
from srgfusion import catalogue, classifier, decompose
from srgfusion.catalogue import (
    SubstitutionRecord,
    family_base_table,
    family_by_id,
    family_catalog,
    family_match,
    guaranteed_partition_strings,
    potential_equality_graph,
    symbolic_tensor_table,
    ORTHOGONALITY,
    _apply_substitutions,
    _leaf_point,
)
from srgfusion.checker import verify_record
from srgfusion.classifier import (
    classify_partition,
    classify_wreath,
    _enumerate_groupings,
    _grouping_system,
)
from srgfusion.decompose import _Decomposer
from srgfusion.exact import (
    K, M, ONE, R, S, MultiPoly, NonzeroCertificate, QuadraticValue,
    default_sieve_set, quad, scalar_sign,
)
from srgfusion.fusion import bm_check, scan_all, summed_rows
from srgfusion.partitions import (
    all_default_partitions, coarsenings, enumerate_partitions, parse,
)
from srgfusion.products import FLIP, SWITCH, act, tensor_square_table
from srgfusion.scheme import char_table, eigen_from_values


# -- symbolic table ----------------------------------------------------------

def test_symbolic_table_entries():
    t = symbolic_tensor_table()
    row = dict(zip(t.row_labels, t.rows))
    col = {label: i for i, label in enumerate(t.col_labels)}
    from srgfusion.exact import S, R, ONE
    assert row["chi_22"][col["A_22"]] == (ONE + S) * (ONE + S)
    assert row["chi_12"][col["A_11"]] == R * S  # the entry rule, not the typo
    assert row["chi_00"][col["A_00"]] == ONE


def test_symbolic_table_specializes_to_numeric():
    t = symbolic_tensor_table()
    pt = {"k": Fraction(3), "l": Fraction(6), "r": Fraction(1), "s": Fraction(-2)}
    numeric = tensor_square_table(char_table(eigen_from_values(3, 6, 1, -2)))
    for sym_row, num_row in zip(t.rows, numeric.rows):
        for sym_v, num_v in zip(sym_row, num_row):
            assert sym_v.evaluate(pt) == num_v


def test_guaranteed_strings_are_the_13():
    assert guaranteed_partition_strings() == X.GUARANTEED_13


# -- potential-equality graph --------------------------------------------------

def can_merge(graph, ci: int, cj: int) -> bool:
    """Whether classes ci and cj may merge: their first rows' pair is not
    set in ``graph.blocked``."""
    pair = graph.classes[ci][0] * catalogue._ROWS + graph.classes[cj][0]
    return not graph.blocked >> pair & 1


def test_equality_graph_wreath_merges_identically():
    g = potential_equality_graph(parse("2|3|456|789"))
    classes = {frozenset(c) for c in g.classes}
    assert frozenset({3, 4, 5}) in classes  # chi_10, chi_11, chi_12 merge
    assert frozenset({6, 7, 8}) in classes


def test_equality_graph_blocks_valency_row():
    g = potential_equality_graph(parse("2678|34|59"))
    assert g.classes[0] == (0,)
    assert not any(can_merge(g, 0, cj) for cj in range(1, len(g.classes)))
    # merging the valency row with another forces k = r or k = s
    sieve = default_sieve_set()
    assert sieve.certify(K - R) is not None
    assert sieve.certify(K - S) is not None


def test_equality_graph_classes_group_equal_summed_rows():
    # reference: rows grouped by their exact summed values, in row order
    table = symbolic_tensor_table()
    for p in all_default_partitions():
        classes: dict[tuple, list[int]] = {}
        for a, row in enumerate(summed_rows(table, p)):
            classes.setdefault(row, []).append(a)
        assert potential_equality_graph(p).classes == tuple(
            map(tuple, classes.values())), str(p)


def test_blocked_row_bits_match_the_equality_graph():
    """On every partition, two classes can merge exactly when neither is
    the valency row and no block difference of their first rows is
    sieve-certified, checked here on block sums of the table's rows."""
    rows = symbolic_tensor_table().rows
    sieve = default_sieve_set()
    certified = {}

    def block_sum(a, mask):
        return sum(rows[a][c] for c in range(1, 9) if mask >> (c - 1) & 1)

    def block_certified(a, b, mask):
        key = (a, b, mask)
        if key not in certified:
            diff = (block_sum(a, mask) - block_sum(b, mask)).normalized()
            certified[key] = (not diff.is_zero()
                              and sieve.certify(diff) is not None)
        return certified[key]

    for p in all_default_partitions():
        g = potential_equality_graph(p)
        for ci, cj in itertools.combinations(range(len(g.classes)), 2):
            a, b = g.classes[ci][0], g.classes[cj][0]
            blocked = a == 0 or any(block_certified(a, b, m) for m in p.masks)
            assert can_merge(g, ci, cj) == (not blocked), (str(p), ci, cj)


def test_equality_graph_discrete_all_blocked():
    g = potential_equality_graph(parse("2|3|4|5|6|7|8|9"))
    assert len(g.classes) == 9
    assert not any(can_merge(g, ci, cj)
                   for ci, cj in itertools.combinations(range(9), 2))


# -- family matching -----------------------------------------------------------

def test_family_match_examples(classification):
    rec = classification.record("249|35678")
    assert rec.verdict == "FAMILY" and rec.families == ("CLB1",)

    rec = classification.record("249|37|5|68")
    assert set(rec.families) == {"NEWS1", "CR4"}

    rec = classification.record("2468|3579")
    assert set(rec.families) == {"CLB2A", "PLS2A"}


def _growth_strings(n, prefix=(0,)):
    """Every restricted growth string of length n >= 1, in lexicographic
    order: entry i names the block of item i, blocks numbered by first
    item."""
    if len(prefix) == n:
        yield prefix
        return
    for value in range(max(prefix) + 2):
        yield from _growth_strings(n, prefix + (value,))


def test_enumerated_groupings_are_every_admissible_merge_pattern(classification):
    """On all 471 grouping-path partitions the merge patterns are, in
    order, the set partitions of classes 1..c-1 into m-1 blocks of
    pairwise-mergeable classes after the valency class (0,), listed by
    restricted growth string: brute force over every set partition, with
    mergeability read off the blocked bits of the classes' first rows."""
    strings, reference = {}, {}
    checked = 0
    for rec in classification.records:
        if not rec.groupings:
            continue
        graph = potential_equality_graph(rec.partition)
        n, m = len(graph.classes) - 1, rec.partition.num_blocks + 1
        firsts = [cls[0] for cls in graph.classes]
        mergeable = frozenset(
            (i, j) for i, j in itertools.combinations(range(1, n + 1), 2)
            if not graph.blocked >> (firsts[i] * 9 + firsts[j]) & 1)
        key = (n, m, mergeable)
        if key not in reference:
            if n not in strings:
                strings[n] = list(_growth_strings(n))
            want = []
            for labels in strings[n]:
                if max(labels) != m - 2:
                    continue
                blocks = [tuple(ci + 1 for ci, v in enumerate(labels) if v == b)
                          for b in range(m - 1)]
                if all(pair in mergeable for block in blocks
                       for pair in itertools.combinations(block, 2)):
                    want.append(((0,),) + tuple(blocks))
            reference[key] = want
        got = _enumerate_groupings(graph, m)
        assert got == reference[key], str(rec.partition)
        assert len(got) == len(rec.groupings), str(rec.partition)
        checked += 1
    assert checked == 471


def test_row_count_certificate_is_the_first_pairwise_blocked_combination():
    """On every non-guaranteed partition the certificate search returns
    what a scan of ``itertools.combinations`` over the classes' first rows
    returns: the first m+1 of them pairwise blocked, or nothing."""
    guaranteed = guaranteed_partition_strings()
    checked = 0
    for p in all_default_partitions():
        if p.is_discrete() or p.is_single_block() or str(p) in guaranteed:
            continue
        graph = potential_equality_graph(p)
        m = p.num_blocks + 1
        firsts = [cls[0] for cls in graph.classes]
        want = next((combo for combo in itertools.combinations(firsts, m + 1)
                     if all(graph.blocked >> (a * 9 + b) & 1
                            for a, b in itertools.combinations(combo, 2))),
                    None)
        got = classifier._pairwise_blocked_rows(
            graph.blocked, m + 1, sum(1 << row for row in firsts))
        assert got == want, str(p)
        checked += 1
    assert checked == 4125


def test_family_match_decides_as_exact_substitution(classification):
    """On every (grouping, family) pair of the census, the row classes of
    the family's own table decide as exact substitution (or evaluation at
    the family's point) does: every equation of the grouping vanishes on
    the family, and every two merged groups keep a block difference that
    does not."""
    vanishes: dict = {}

    def zero(poly, fam):
        key = (fam.id, poly)
        if key not in vanishes:
            vanishes[key] = (poly.evaluate(dict(fam.point)) == 0 if fam.point
                             else poly.substitute(fam.substitution_map()).is_zero())
        return vanishes[key]

    pairs, matched = 0, Counter()
    for rec in classification.records:
        if not rec.groupings:
            continue
        graph = potential_equality_graph(rec.partition)
        groupings = _enumerate_groupings(graph, rec.partition.num_blocks + 1)
        for grouping, ga in zip(groupings, rec.groupings, strict=True):
            eqs = _grouping_system(graph, grouping)
            merged = tuple(tuple(sorted(row for ci in group for row in graph.classes[ci]))
                           for group in grouping)
            for fam in family_catalog():
                want = all(zero(e, fam) for e in eqs) and all(
                    not all(zero(d, fam) for d in graph.equations(g[0], h[0]))
                    for g, h in itertools.combinations(grouping, 2))
                assert family_match(graph.masks, merged, fam) == want, (
                    str(rec.partition), fam.id)
                assert (fam.id in ga.matched_families) == want
                matched[fam.id] += want
                pairs += 1
    assert pairs == 34020
    # IMP1 / IMP2 attach by their scans; each other family matches somewhere
    assert +matched == {"CONF": 11, "NEWS1": 1, "NEWS2": 1, "CR4": 21,
                        "CLB1": 1, "CLB1S": 1, "CLB2A": 1, "CLB2B": 1,
                        "PLS2A": 1, "PLS2B": 1, "SP9": 21, "SP5": 13}


def test_factor_basis_refuses_a_member_the_residue_test_cannot_use(monkeypatch):
    # K - 1009 vanishes at the residue point, so its residue divides nothing
    bad = dataclasses.replace(family_by_id("NEWS1"), id="BAD", defining=(K - 1009,))
    monkeypatch.setattr(decompose, "family_catalog",
                        lambda: family_catalog() + (bad,))
    with pytest.raises(ValueError, match="residue"):
        decompose._factor_basis.__wrapped__()


def test_family_match_negative():
    # the CLB2A system requires s = -r; the conference family has s = -1-r
    g = potential_equality_graph(parse("2468|3579"))
    groupings = _enumerate_groupings(g, 3)
    assert groupings
    for grouping in groupings:
        merged = tuple(tuple(sorted(row for ci in group for row in g.classes[ci]))
                       for group in grouping)
        assert not family_match(g.masks, merged, family_by_id("CONF"))


def test_catalog_satisfies_orthogonality():
    for fam in family_catalog():
        if fam.point:
            assert ORTHOGONALITY.evaluate(dict(fam.point)) == 0
        else:
            assert ORTHOGONALITY.substitute(fam.substitution_map()).is_zero()


def test_family_base_table_is_the_imprimitive_hand_table():
    """The catalogue's IMP1 / IMP2 tables, entry for entry, are the
    union-of-cliques table in (r, m) and its switch partner."""
    zero, minus_one = MultiPoly(), MultiPoly.const(-1)
    assert family_base_table("IMP1").rows == (
        (ONE, R, M * (1 + R)),
        (ONE, R, -1 - R),
        (ONE, minus_one, zero),
    )
    assert family_base_table("IMP2").rows == (
        (ONE, M * (1 + R), R),
        (ONE, zero, minus_one),
        (ONE, -1 - R, R),
    )


def test_catalog_source_lists_are_the_census_lists(classification):
    """Only the point families list ``source_partitions``, and each list
    names exactly the partitions the census attributes to that family."""
    listed = [fam for fam in family_catalog() if fam.source_partitions]
    assert {fam.id for fam in listed} == {"SP9", "SP5", "CR4"}
    assert all(fam.point for fam in listed)
    for fam in listed:
        assert (sorted(classification.family_partitions(fam.id))
                == sorted(fam.source_partitions)), fam.id


def test_sp9_and_sp5_source_lists_are_data_of_their_point_tables(classification):
    """SP9's and SP5's hand-kept lists are the non-guaranteed fusions of
    their own point tables whose census record carries no parametric
    family.  CR4 shares SP9's point and so its fusions, but its one
    partition also carries NEWS1: this rule does not give its list."""
    guaranteed = guaranteed_partition_strings()
    for fid in ("SP9", "SP5", "CR4"):
        table = tensor_square_table(family_base_table(fid))
        fusing = {str(v.partition) for v in scan_all(table)} - guaranteed
        derived = sorted(text for text in fusing if all(
            family_by_id(f).point for f in classification.record(text).families))
        assert (derived == sorted(family_by_id(fid).source_partitions)) == (
            fid != "CR4"), fid


def test_catalog_sample_instances_are_feasible_tables():
    from srgfusion.scheme import feasibility
    for fam in family_catalog():
        for inst in fam.sample_instances:
            k, l, r, s = inst
            e = eigen_from_values(k, l, r, s)
            rep = feasibility(e)
            assert not rep.violations, (fam.id, inst)


def test_enumeration_and_classification_leave_no_reference_cycles():
    """Partition enumeration and a grouping-path classification are freed
    by reference counting: no srgfusion function or closure cell is left
    for the cyclic collector."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        enumerate_partitions()
        coarsenings(parse("24|37|5|68|9"))
        classify_partition(parse("234579|68"))
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not [o for o in garbage if isinstance(o, types.CellType)]
    assert not [o.__qualname__ for o in garbage
                if isinstance(o, types.FunctionType)
                and o.__module__.startswith("srgfusion")]


# -- classification records ----------------------------------------------------

def _all_contradictions(rec):
    return rec.groupings and all(leaf.outcome.startswith("contradiction")
                                 for ga in rec.groupings for leaf in ga.leaves)


def test_worked_negative_examples(classification):
    rec = classification.record("23489|567")
    assert rec.verdict == "INFEASIBLE"
    assert _all_contradictions(rec)
    assert verify_record(rec)

    rec = classification.record("2678|34|59")
    assert rec.verdict == "INFEASIBLE"
    assert verify_record(rec)
    if rec.row_count_certificate is not None:
        assert len(rec.row_count_certificate.representatives) >= 5
    else:
        assert _all_contradictions(rec)


def test_row_count_certificates_dominate(classification):
    """Most infeasible partitions die on pairwise-distinct row counts."""
    with_cert = sum(
        1 for rec in classification.records
        if rec.verdict == "INFEASIBLE" and rec.row_count_certificate is not None
    )
    assert with_cert > 3000
    # and every certificate is an oversized pairwise-blocked set
    for rec in classification.records:
        cert = rec.row_count_certificate
        if cert is not None:
            assert not cert.deficit, str(rec.partition)
            assert len(cert.representatives) == rec.partition.rank + 1, str(rec.partition)


def test_row_classes_never_fewer_than_summed_columns(classification):
    """The summed table is P*B with P invertible and B a 0/1 block matrix
    of rank m, so it has at least m row classes; exactly m only where the
    partition is a fusion for every table algebra."""
    table = symbolic_tensor_table()
    exact = set()
    for rec in classification.records:
        p = rec.partition
        c, m = len(table.row_classes(p.masks)), p.num_blocks + 1
        assert c >= m, str(p)
        if c == m:
            exact.add(str(p))
    guaranteed = {str(rec.partition) for rec in classification.records
                  if rec.verdict == "GUARANTEED"}
    assert len(guaranteed) == 15
    assert exact == guaranteed


def test_classification_counts(classification):
    s = classification.summary()
    assert s["total"] == 4140
    assert s["guaranteed"] == 13
    assert s["trivial"] == 2
    assert s["unresolved"] == 0
    fams = s["families"]
    assert fams["IMP1"] == 45 and fams["IMP2"] == 45
    assert fams["CONF"] == 11
    for fid in ("NEWS1", "NEWS2", "CR4", "CLB1", "CLB1S", "CLB2A", "CLB2B",
                "PLS2A", "PLS2B"):
        assert fams[fid] == 1, fid
    assert fams["SP9"] == 6 and fams["SP5"] == 2


def test_classification_lists(classification):
    assert set(classification.family_partitions("CONF")) == X.CONF_11
    assert set(classification.family_partitions("IMP1")) == X.IMP1_45
    assert set(classification.family_partitions("IMP2")) == {
        str(act(SWITCH, parse(t))) for t in X.IMP1_45
    }
    for fid, text in X.FAMILY_SINGLETONS.items():
        assert classification.family_partitions(fid) == [text]
    assert set(classification.family_partitions("SP9")) == X.SP9_6
    assert set(classification.family_partitions("SP5")) == X.SP5_2


def test_guaranteed_records(classification):
    for rec in classification.records:
        if rec.trivial:
            assert rec.verdict == "GUARANTEED"
    got = {str(r.partition) for r in classification.records
           if r.verdict == "GUARANTEED" and not r.trivial}
    assert got == X.GUARANTEED_13


def test_family_soundness_numeric_instances(classification):
    """Every family record's fusion really holds at sample instances."""
    for fam in family_catalog():
        partitions = classification.family_partitions(fam.id)
        for inst in fam.sample_instances:
            k, l, r, s = inst
            table = tensor_square_table(char_table(eigen_from_values(k, l, r, s)))
            for text in partitions:
                # IMP attachments are about the other imprimitive case; skip
                # mixed attributions that do not involve this family alone
                rec = classification.record(text)
                if fam.id not in rec.families:
                    continue
                assert bm_check(table, parse(text)).is_fusion, (fam.id, inst, text)


def test_completeness_against_instance_scans(classification):
    """Scan positives of an instance = guaranteed + families containing it."""
    cases = [
        ((3, 6, 1, -2), X.PETERSEN_SCAN),
        ((4, 4, 1, -2), X.ROOK3_SCAN),
        ((6, 9, 2, -2), X.ROOK4_SCAN),
        ((10, 5, 2, -2), X.CLEBSCHC_SCAN),
        ((5, 10, 1, -3), X.CLEBSCH_SCAN),
        ((12, 12, 2, -3), X.GUARANTEED_13 | X.CONF_11),  # conference r=2
    ]
    for (k, l, r, s), expected_set in cases:
        table = tensor_square_table(char_table(eigen_from_values(k, l, r, s)))
        got = {str(v.partition) for v in scan_all(table)}
        assert got == expected_set, (k, l, r, s)


def _on_family(fam, point):
    if fam.point:
        return dict(fam.point) == point
    return all(d.evaluate(point) == 0 for d in fam.defining)


def _imprimitive_boundary(point):
    """Instances where the clique count m is 1 or equals r (either role).

    These boundary tables carry extra instance-specific fusions outside the
    generic family lists (matrix-verified for m = r), so the family-level
    census only bounds their scans from below.
    """
    k, l, r, s = point["k"], point["l"], point["r"], point["s"]
    if k == r:  # union of m+1 cliques; l = m(1+r)
        m = l / (1 + r)
        return m == 1 or m == r
    if r == 0:  # complete multipartite; k = -m*s, partner eigenvalue -1-s
        m = -k / s
        return m == 1 or m == -1 - s
    return False


def test_scans_derivable_from_classification(classification):
    """For every catalogued sample instance, the numeric scan equals the
    guaranteed set plus the partition lists of exactly those families whose
    variety contains the instance.  This ties the symbolic claims to plain
    column-sum scans with no frozen lists involved.

    Degenerate imprimitive boundary instances (m = 1, m = r) carry extra
    instance-specific fusions; for them the derived set is only a lower
    bound.
    """
    guaranteed = set(X.GUARANTEED_13)
    for fam in family_catalog():
        for inst in fam.sample_instances:
            k, l, r, s = inst
            point = {"k": k, "l": l, "r": r, "s": s}
            expected = set(guaranteed)
            for other in family_catalog():
                if _on_family(other, point):
                    expected |= set(classification.family_partitions(other.id))
            table = tensor_square_table(char_table(eigen_from_values(k, l, r, s)))
            got = {str(v.partition) for v in scan_all(table)}
            if _imprimitive_boundary(point):
                assert got >= expected, (fam.id, inst)
            else:
                assert got == expected, (fam.id, inst)


def test_certificates_verify(classification):
    for rec in classification.records:
        assert verify_record(rec), str(rec.partition)


def _first_bound_leaf(classification, kind):
    """(record, grouping index, leaf index, leaf) of the first leaf whose
    bound conflict has this kind."""
    return next(
        (rec, gi, li, leaf)
        for rec in classification.records
        for gi, ga in enumerate(rec.groupings)
        for li, leaf in enumerate(ga.leaves)
        if leaf.bound_conflict is not None and leaf.bound_conflict.kind == kind
    )


def _with_leaf(rec, gi, li, leaf):
    """rec with leaf li of grouping gi replaced."""
    ga = rec.groupings[gi]
    leaves = list(ga.leaves)
    leaves[li] = leaf
    groupings = list(rec.groupings)
    groupings[gi] = dataclasses.replace(ga, leaves=tuple(leaves))
    return dataclasses.replace(rec, groupings=tuple(groupings))


def _with_conflict(rec, gi, li, conflict):
    """rec with the bound conflict of leaf li of grouping gi replaced."""
    leaf = rec.groupings[gi].leaves[li]
    return _with_leaf(rec, gi, li, dataclasses.replace(leaf, bound_conflict=conflict))


@pytest.mark.parametrize("kind", ["constant", "image-definite"])
def test_verify_record_rejects_a_renamed_bound_quantity(classification, kind):
    """A bounds leaf verifies only when re-deriving it gives the stored
    conflict; another quantity with some conflict of its own is not enough."""
    rec, gi, li, leaf = _first_bound_leaf(classification, kind)
    name, *rest = leaf.bound_conflict.data
    renamed = dataclasses.replace(leaf.bound_conflict,
                                  data=("k" if name != "k" else "l", *rest))
    assert verify_record(rec)
    assert not verify_record(_with_conflict(rec, gi, li, renamed))


@pytest.mark.parametrize("kind", ["constant", "image-definite"])
def test_verify_record_checks_denominators_before_the_conflict(classification, kind):
    """Replaying a sign conflict reads the region sign of each
    denominator's certificate, so the certificates are checked first: a
    missing one, one that remultiplies to another polynomial, or a zero
    denominator makes the record fail to verify, and nothing raises."""
    rec, gi, li, leaf, si = next(
        (rec, gi, li, leaf, si)
        for rec in classification.records
        for gi, ga in enumerate(rec.groupings)
        for li, leaf in enumerate(ga.leaves)
        if leaf.bound_conflict is not None and leaf.bound_conflict.kind == kind
        for si, sub in enumerate(leaf.substitutions) if not sub.den.is_constant()
    )
    sub = leaf.substitutions[si]
    wrong = default_sieve_set().certify(K * sub.den.normalized())
    assert verify_record(rec)
    for forged in (dataclasses.replace(sub, den_certificate=None),
                   dataclasses.replace(sub, den_certificate=wrong),
                   dataclasses.replace(sub, den=MultiPoly(), den_certificate=None)):
        subs = leaf.substitutions[:si] + (forged,) + leaf.substitutions[si + 1:]
        forged_leaf = dataclasses.replace(leaf, substitutions=subs)
        assert verify_record(_with_leaf(rec, gi, li, forged_leaf)) is False, forged


def test_verify_record_rejects_a_certificate_naming_no_member(classification):
    """A certificate with a factor outside the sieve remultiplies to nothing:
    on a unit leaf or on a non-constant denominator it makes the record
    fail to verify, and nothing raises."""
    rec = classification.record("234579|68")
    bogus = NonzeroCertificate(1, (("bogus", 1),))
    assert bogus.reconstruct() is None
    assert verify_record(rec)
    gi, li, leaf = next((gi, li, leaf) for gi, ga in enumerate(rec.groupings)
                        for li, leaf in enumerate(ga.leaves)
                        if leaf.outcome == "contradiction-unit")
    forged = dataclasses.replace(leaf, unit_certificate=bogus)
    assert verify_record(_with_leaf(rec, gi, li, forged)) is False
    gi, li, leaf, si = next((gi, li, leaf, si) for gi, ga in enumerate(rec.groupings)
                            for li, leaf in enumerate(ga.leaves)
                            for si, sub in enumerate(leaf.substitutions)
                            if not sub.den.is_constant())
    subs = list(leaf.substitutions)
    subs[si] = dataclasses.replace(subs[si], den_certificate=bogus)
    forged = dataclasses.replace(leaf, substitutions=tuple(subs))
    assert verify_record(_with_leaf(rec, gi, li, forged)) is False


@pytest.mark.parametrize("kind, data", [
    ("definite", (K + 1,)),
    ("no-region-root", (K * K + 1,)),
])
def test_verify_record_rejects_a_bound_equation_not_from_the_leaf(
    classification, kind, data
):
    """A definite or region-rootless polynomial proves nothing unless the
    leaf forces it to vanish: k + 1 and k^2 + 1 have the property but are
    no image of the grouping's equations."""
    rec, gi, li, leaf = _first_bound_leaf(classification, kind)
    forged = dataclasses.replace(leaf.bound_conflict, data=data)
    assert verify_record(rec)
    assert not verify_record(_with_conflict(rec, gi, li, forged))


def test_no_feasible_root_leaf_resolves_a_shuffled_system(classification,
                                                          monkeypatch):
    """Shuffled after ORTHOGONALITY (seeded per grouping), the equations of
    ``29|3457|6|8`` reach a leaf whose residual is s^2 + s - 1.  Both
    golden-ratio roots are exact and neither pins a feasible point, so the
    leaf is a ``no-feasible-root`` contradiction: the census verdict stands
    and the record verifies.  A forged root list does not verify."""
    grouping_system = classifier._grouping_system

    def shuffled(graph, grouping):
        first, *rest = grouping_system(graph, grouping)
        random.Random(f"4:{grouping}").shuffle(rest)
        return (first, *rest)

    monkeypatch.setattr(classifier, "_grouping_system", shuffled)
    rec = classify_partition(parse("29|3457|6|8"))
    census = classification.record("29|3457|6|8")
    assert (rec.verdict, rec.families) == (census.verdict, census.families)
    assert rec.verdict == "INFEASIBLE" and rec.groupings != census.groupings
    assert verify_record(rec)
    gi, li, leaf = next(
        (gi, li, leaf) for gi, ga in enumerate(rec.groupings)
        for li, leaf in enumerate(ga.leaves)
        if leaf.bound_conflict is not None
        and leaf.bound_conflict.kind == "no-feasible-root")
    assert leaf.residual == (S * S + S - 1,)
    var, roots = leaf.bound_conflict.data
    golden = {quad(Fraction(-1, 2), Fraction(b, 2), 5) for b in (1, -1)}
    assert var == "s" and set(roots) == golden
    for forged in (roots[:1], (Fraction(-2),) + roots[1:], ()):
        conflict = dataclasses.replace(leaf.bound_conflict, data=("s", forged))
        assert not verify_record(_with_conflict(rec, gi, li, conflict)), forged


def test_census_holds_under_shuffled_equations(classification, monkeypatch):
    """Shuffled after ORTHOGONALITY (seeded per seed and grouping), the
    equations of every grouping-path partition reach the census verdict
    and families under seeds 1-5.  The one exception, seed 2's
    ``245|38|67|9``, stays UNRESOLVED; the unresolved count may only fall."""
    grouping_system = classifier._grouping_system
    grouping_path = [rec for rec in classification.records if rec.groupings]
    assert len(grouping_path) == 471
    unresolved = []
    try:
        for seed in range(1, 6):
            def shuffled(graph, grouping, seed=seed):
                first, *rest = grouping_system(graph, grouping)
                random.Random(f"{seed}:{grouping}").shuffle(rest)
                return (first, *rest)

            monkeypatch.setattr(classifier, "_grouping_system", shuffled)
            for census in grouping_path:
                rec = classify_partition(census.partition)
                if rec.verdict == "UNRESOLVED":
                    unresolved.append((seed, str(rec.partition)))
                    continue
                assert (rec.verdict, rec.families) == (
                    census.verdict, census.families), (seed, str(rec.partition))
    finally:
        monkeypatch.undo()
        _clear_memos()
    assert set(unresolved) <= {(2, "245|38|67|9")}


def test_verify_record_rejects_a_representative_of_an_unblocked_class(
    classification
):
    """Swap one representative of an independent-set certificate for a row
    of a class it cannot be told apart from: the forged set is no longer
    pairwise blocked."""
    for rec in classification.records:
        cert = rec.row_count_certificate
        if cert is None or not cert.representatives:
            continue
        graph = potential_equality_graph(rec.partition)
        chosen = [ci for ci, cls in enumerate(graph.classes)
                  if cls[0] in cert.representatives]
        for ci, cj in itertools.product(range(len(graph.classes)), chosen):
            if ci in chosen or not can_merge(graph, ci, cj):
                continue
            # keep cj, the partner ci cannot be told apart from, and drop
            # another representative for the last row of class ci
            drop = next(ck for ck in chosen if ck != cj)
            reps = sorted([graph.classes[ck][0] for ck in chosen if ck != drop]
                          + [graph.classes[ci][-1]])
            forged = dataclasses.replace(
                rec, row_count_certificate=dataclasses.replace(
                    cert, representatives=tuple(reps)))
            assert verify_record(rec)
            assert not verify_record(forged), (str(rec.partition), reps)
            return
    pytest.fail("no certificate has a representative with an unblocked class")


def test_verify_record_rejects_a_record_without_proof(classification):
    """A verdict other than GUARANTEED needs a row-count certificate or at
    least one grouping; stripping the proof must not verify."""
    forgeries = [
        ("2345678|9", dict(row_count_certificate=None)),
        ("234579|6|8", dict(groupings=())),
        ("234579|68", dict(groupings=())),
    ]
    for text, change in forgeries:
        rec = classification.record(text)
        assert rec.verdict != "GUARANTEED" and verify_record(rec), text
        assert not verify_record(dataclasses.replace(rec, **change)), text


# Relabellings of grouping records (CLB1, CONF) and row-count records
# (INFEASIBLE, IMP2) that keep the proof.
_VERDICT_FORGERIES = [
    ("249|35678", dict(families=("CONF",))),
    ("249|35678", dict(verdict="INFEASIBLE", families=())),
    ("234579|68", dict(verdict="INFEASIBLE", families=())),
    ("2345678|9", dict(verdict="FAMILY", families=("CONF",))),
    ("2345678|9", dict(verdict="UNRESOLVED")),
    ("2345689|7", dict(verdict="INFEASIBLE", families=())),
]


@pytest.mark.parametrize("text, change", _VERDICT_FORGERIES)
def test_verify_record_replays_the_verdict(classification, text, change):
    """A record's verdict and families are what its proof concludes:
    grouping records (CLB1, CONF) and row-count records (INFEASIBLE, IMP2)
    cannot be relabelled with the proof kept."""
    rec = classification.record(text)
    assert verify_record(rec)
    with pytest.raises(ValueError):
        dataclasses.replace(rec, **change)


@pytest.mark.xfail(strict=True,
                   reason="known gap: verify_record never ties a unit leaf's "
                          "polynomial to the grouping's equations")
def test_verify_record_ties_a_unit_leaf_to_its_equations(classification):
    """A unit contradiction must follow from its grouping's equations: the
    one grouping of 234579|6|8 with its leaves replaced by one leaf
    certifying k - r, which no equation of the grouping forces to vanish,
    must not verify."""
    rec = classification.record("234579|6|8")
    assert rec.verdict == "INFEASIBLE" and len(rec.groupings) == 1
    assert verify_record(rec)
    leaf = catalogue.ProofLeaf(
        (), (), "contradiction-unit", unit_poly=K - R,
        unit_certificate=default_sieve_set().certify(K - R))
    forged = dataclasses.replace(
        rec, groupings=(dataclasses.replace(rec.groupings[0], leaves=(leaf,)),))
    assert forged.verdict == "INFEASIBLE"
    assert not verify_record(forged)


def test_verify_record_rejects_groupings_beside_a_certificate(classification):
    """A row-count record's verdict rests on its certificate alone: the
    groupings of a FAMILY record put beside it, which would make it
    conclude FAMILY, do not verify."""
    rec = classification.record("2345678|9")
    family = classification.record("249|35678")
    assert rec.verdict == "INFEASIBLE" and family.verdict == "FAMILY"
    forged = dataclasses.replace(rec, groupings=family.groupings)
    assert forged.verdict == "FAMILY" and not verify_record(forged)


def test_census_records_conclude_from_their_proof(classification):
    """Every census record is the record its proof alone builds."""
    for rec in classification.records:
        assert rec == catalogue.ClassificationRecord(
            rec.partition, rec.groupings, rec.row_count_certificate)


def test_verify_record_checks_guaranteed_records(classification):
    """A GUARANTEED record, one without proof, must be a fusion of the
    symbolic table; its triviality and families cannot be set."""
    infeasible = classification.record("2345678|9")
    assert infeasible.verdict == "INFEASIBLE"
    guaranteed = classification.record("2347|5689")
    assert guaranteed.verdict == "GUARANTEED" and verify_record(guaranteed)
    forged = dataclasses.replace(infeasible, row_count_certificate=None)
    assert forged.verdict == "GUARANTEED" and not verify_record(forged)
    for change in (dict(trivial=True), dict(families=("CONF",))):
        with pytest.raises(ValueError):
            dataclasses.replace(guaranteed, **change)


def test_verify_record_rejects_a_certificate_for_fewer_blocks(classification):
    """A row-count certificate must hold more blocked rows than the
    partition's rank; one fewer does not verify."""
    rec = classification.record("2345678|9")
    cert = rec.row_count_certificate
    smaller = dataclasses.replace(cert, representatives=cert.representatives[:-1])
    assert verify_record(rec)
    assert not verify_record(dataclasses.replace(rec, row_count_certificate=smaller))


def test_census_leaf_outcomes_and_bound_kinds(classification):
    """The census reaches exactly these proof paths and no others."""
    outcomes = Counter()
    kinds = Counter()
    for rec in classification.records:
        for ga in rec.groupings:
            for leaf in ga.leaves:
                outcomes[leaf.outcome] += 1
                if leaf.bound_conflict is not None:
                    kinds[leaf.bound_conflict.kind] += 1
    assert set(outcomes) == {
        "contradiction-unit", "contradiction-bounds", "sporadic", "family"}
    assert kinds == {
        "definite": 2270, "no-region-root": 30, "image-definite": 13, "constant": 8}


@pytest.mark.xfail(strict=True,
                   reason="known bug: _pivot_candidates certifies the normalized "
                          "denominator but SubstitutionRecord.den keeps the raw "
                          "one, and _apply_substitutions multiplies only "
                          "by the certificate's region sign, so denominators "
                          "with a negative leading coefficient (-k, -r, ...) "
                          "are tracked with the wrong sign")
def test_substitution_sign_follows_the_denominator(classification):
    """Clearing var = -num/den from var leaves -num, whose sign is the sign
    of var times the sign of den; the tracked sign must be the sign of den
    on the primitive region, checked at its point (4, 4, 1, -2)."""
    point = {"k": Fraction(4), "l": Fraction(4), "r": Fraction(1), "s": Fraction(-2)}
    for mem in default_sieve_set().members:
        assert scalar_sign(mem.poly.evaluate(point)) == mem.sign, mem.name
    subs = dict.fromkeys(
        sub for rec in classification.records for ga in rec.groupings
        for leaf in ga.leaves for sub in leaf.substitutions
        if not sub.den.is_constant())
    assert subs
    for sub in subs:
        _, tracked = _apply_substitutions(MultiPoly.var(sub.var), (sub,))
        assert tracked == scalar_sign(sub.den.evaluate(point)), (sub.var, sub.den)


def _scalars(x):
    """Every scalar inside a record, down to polynomial coefficients and the
    parts of quadratic values."""
    if isinstance(x, MultiPoly):
        for exps, c in x.terms:
            yield from exps
            yield c
    elif isinstance(x, QuadraticValue):
        yield from (x.a, x.b, x.d)
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _scalars(getattr(x, f.name))
    elif isinstance(x, (tuple, list, set, frozenset)):
        for v in x:
            yield from _scalars(v)
    elif isinstance(x, dict):
        for k, v in x.items():
            yield from _scalars(k)
            yield from _scalars(v)
    else:
        yield x


def test_no_float_reaches_a_leaf(classification):
    """Equations, substitutions, leaf points, unit polynomials, sieve
    certificate constants and bound-conflict data hold no float."""
    types = Counter(type(v) for rec in classification.records for v in _scalars(rec))
    assert not [t for t in types if issubclass(t, float)], types
    # the walk reaches exact rationals, integers and quadratic-value parts
    assert types[Fraction] and types[int]
    points = [v for rec in classification.records for ga in rec.groupings
              for leaf in ga.leaves for pt in leaf.points for _, v in pt]
    assert any(isinstance(v, QuadraticValue) for v in points)


def test_leaf_point_free_symbol_is_none_but_bugs_propagate():
    rec = SubstitutionRecord("k", -R, ONE, None)  # k = r
    assert _leaf_point([rec]) is None  # r stays free
    seed = {"r": Fraction(2), "l": Fraction(6), "s": Fraction(-1)}
    assert _leaf_point([rec], seed)["k"] == 2
    with pytest.raises(TypeError):
        _leaf_point([rec], dict(seed, r="2"))


# sha256 of repr(classify_all().records); the same under every hash seed
RECORDS_REPR_SHA256 = "50c7ebd39d0f2d50ec52c7e54252194846bec7ac41ff2a1ff50753b3b1e97413"


def test_census_records_are_pinned(classification):
    """Every verdict, proof leaf and certificate, byte for byte."""
    digest = hashlib.sha256(repr(classification.records).encode()).hexdigest()
    assert digest == RECORDS_REPR_SHA256


# The records of the first 400 partitions, 71 of them on the grouping path,
# as a fresh interpreter classifies them.
_SLICE_DIGEST = """
import hashlib
import io
from srgfusion.classifier import classify_partition
from srgfusion.partitions import all_default_partitions
records = [classify_partition(p) for p in all_default_partitions()[:400]]
print(sum(bool(rec.groupings) for rec in records),
      hashlib.sha256(repr(records).encode()).hexdigest())
"""


def test_records_do_not_depend_on_the_hash_seed():
    """String and frozenset hashing changes with PYTHONHASHSEED; the proofs
    must not, so three seeds give the same bytes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    procs = [subprocess.Popen([sys.executable, "-c", _SLICE_DIGEST],
                              stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=src,
                                       PYTHONHASHSEED=seed))
             for seed in ("0", "1", "77")]
    outputs = {proc.communicate()[0] for proc in procs}
    assert all(proc.returncode == 0 for proc in procs)
    assert len(outputs) == 1, outputs
    grouping, _ = outputs.pop().split()
    assert int(grouping) == 71


# A cold first verdict on the row-count path: which exact block sums of the
# symbolic table it adds.
_COLD_MASK_SUMS = """
from srgfusion.classifier import classify_partition, symbolic_tensor_table
from srgfusion.partitions import parse
p = parse("2|3|4567|89")
rec = classify_partition(p)
assert rec.row_count_certificate is not None and not rec.groupings
sums = symbolic_tensor_table()._mask_sums
print(*p.masks, "/", *(m for m, row in enumerate(sums) if row is not None))
"""


def test_cold_row_count_verdict_adds_only_its_blocks_sums():
    """A fresh interpreter's first verdict fills the symbolic table's
    ``mask_sums`` on the partition's masks and on the masks left by dropping
    their lowest bits, nothing else."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _COLD_MASK_SUMS],
                          capture_output=True, text=True, check=False,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    masks, filled = (list(map(int, half.split()))
                     for half in proc.stdout.split("/"))
    want = set()
    for m in masks:
        while m:
            want.add(m)
            m &= m - 1
    assert sorted(want) == filled == [1, 2, 32, 48, 56, 60, 128, 192]


# Every lru_cache of every package module, and the ones holding anything,
# after the imports a CLI run makes.
_COLD_MEMOS = """
import sys
import srgfusion, srgfusion.cli
memos = {f"{name}.{attr}": value
         for name, module in list(sys.modules.items())
         if name.split(".")[0] == "srgfusion"
         for attr, value in vars(module).items()
         if getattr(value, "__module__", None) == name
         and hasattr(value, "cache_info")}
print(len(memos), *(key for key, memo in memos.items() if memo.cache_info().currsize))
"""


def test_import_leaves_every_memo_empty():
    """Importing the package and its CLI fills no ``lru_cache`` in any
    module, so a census after import starts cold wherever a memo lives."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _COLD_MEMOS],
                          capture_output=True, text=True, check=False,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["19"]


# Verify records in an interpreter that loads the checker and no prover.
_CHECK_ALONE = """
import pickle, sys
from srgfusion import checker
records = pickle.load(sys.stdin.buffer)
accepted = sum(map(checker.verify_record, records))
print(accepted, *sorted({"srgfusion.decompose", "srgfusion.classifier"}
                        & set(sys.modules)))
"""


def test_checker_runs_without_the_prover(classification):
    """``import srgfusion.checker`` loads neither ``decompose`` nor
    ``classifier``, and that checker alone accepts all 4140 census records,
    handed over pickled."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _CHECK_ALONE],
                          input=pickle.dumps(classification.records),
                          capture_output=True, check=False,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["4140"]


# Print what the checker alone sees of each pickled record.
_CONCLUDE_ALONE = """
import pickle, sys
from srgfusion import checker
for rec in pickle.load(sys.stdin.buffer):
    print(rec.verdict, ",".join(rec.families) or "-", checker.verify_record(rec))
"""


def test_unpickled_records_conclude_from_their_proof(classification):
    """A verdict forged onto a record's fields does not survive a pickle:
    the prover-free interpreter rebuilds each forged record from its proof,
    reads the original verdict and families, and verifies it."""
    originals, forged = [], []
    for text, change in _VERDICT_FORGERIES:
        rec = classification.record(text)
        forgery = catalogue.ClassificationRecord(
            rec.partition, rec.groupings, rec.row_count_certificate)
        for name, value in change.items():
            object.__setattr__(forgery, name, value)
        assert forgery != rec and pickle.loads(pickle.dumps(forgery)) == rec, text
        originals.append(rec)
        forged.append(forgery)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _CONCLUDE_ALONE],
                          input=pickle.dumps(forged),
                          capture_output=True, check=False,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines() == [
        f"{rec.verdict} {','.join(rec.families) or '-'} True" for rec in originals]


def test_census_records_survive_a_pickle_round_trip(classification):
    """Records pickle as their proof: each unpickled record equals its
    original, hashes the same and verifies."""
    records = pickle.loads(pickle.dumps(classification.records))
    assert records == classification.records
    assert list(map(hash, records)) == list(map(hash, classification.records))
    assert all(map(verify_record, records))


def test_decompose_normalizes_the_system_once(classification):
    """The decomposer takes raw systems: each of 200 census systems, scaled
    by -2, listed twice and with a zero appended, decomposes into the same
    leaves as the system itself."""
    systems = list(dict.fromkeys(
        _grouping_system(graph, grouping)
        for rec in classification.records if rec.groupings
        for graph in [potential_equality_graph(rec.partition)]
        for grouping in _enumerate_groupings(graph, rec.partition.num_blocks + 1)))
    for eqs in random.Random(20).sample(systems, 200):
        raw = [-2 * e for e in eqs] * 2 + [MultiPoly()]
        assert _Decomposer().decompose(raw) == _Decomposer().decompose(list(eqs)), eqs


def _clear_memos():
    """Empty every classifier memo but classify_all's, which keeps the
    session's result."""
    for name, memo in classifier._memos().items():
        if name != "classify_all":
            memo.cache_clear()


def test_verify_record_does_not_depend_on_memo_state(classification):
    _clear_memos()
    assert all(verify_record(rec) for rec in classification.records)


def test_cache_stats_of_a_cold_census(monkeypatch):
    _clear_memos()
    enumerated = []
    enumerate_groupings = classifier._enumerate_groupings
    monkeypatch.setattr(classifier, "_enumerate_groupings",
                        lambda g, m: enumerated.append(g)
                        or enumerate_groupings(g, m))
    matches = []
    family_match = classifier.family_match
    monkeypatch.setattr(classifier, "family_match",
                        lambda *args: matches.append(args) or family_match(*args))
    records = classifier.classify_all.__wrapped__().records
    stats = classifier.cache_stats()
    assert len(records) == 4140
    # only the partitions with no row-count certificate enumerate merge
    # patterns
    assert len(enumerated) == 471
    assert stats["_decompose_cached"] == (100, 2330, 2330)
    for name in ("_screen", "_pivot_candidates", "_substitute_one",
                 "_block_difference", "_blocked_pair_bits", "_pair_equations",
                 "_family_tensor_table", "_univariate_gcd_reduce"):
        hits, misses, size = stats[name]
        assert hits > misses == size > 0, (name, stats[name])
    # one table per catalogue family, SP9 and CR4 each building their own
    assert stats["_family_tensor_table"][1] == 14
    # perfbench's traced census pins the same count by wrapping the name
    assert len(matches) == 34020


def test_classify_all_idempotent(classification):
    from srgfusion.classifier import classify_all
    again = classify_all()
    assert again is classification  # cached, deterministic by construction
    texts = [str(r.partition) for r in classification.records]
    assert texts == sorted(texts)


def test_theorem_1_hamming_fusions_carry_every_family_but_sp5(classification):
    """Theorem (1): the SRG families where A (x) A has a special-case fusion
    are those where H(2, A) has one.

    H(2, A) is the fusion of A (x) A along the flip partition 24|37|5|68|9,
    so its fusions are the census records of that partition's coarsenings.
    SP5 is the one catalogued family missing there, and that is no
    exception: its graph is the pentagon, the n = 5 member of the conference
    family CONF, and CONF is among the 18 FAMILY records.
    """
    by_text = {str(r.partition): r for r in classification.records}
    records = [by_text[str(p)] for p in coarsenings(parse("24|37|5|68|9"))]
    assert len(records) == 52
    family = [r for r in records if r.verdict == "FAMILY"]
    assert len(family) == 18
    ids = {fid for r in family for fid in r.families}
    assert ids == {spec.id for spec in family_catalog()} - {"SP5"}
    assert "CONF" in ids


# SWITCH exchanges A_1 and A_2 in both factors, so it maps each family to its
# partner here and every other family to itself; FLIP maps every family to
# itself
SWITCH_FAMILY_PAIRS = (("IMP1", "IMP2"), ("CLB1", "CLB1S"), ("CLB2A", "CLB2B"),
                       ("PLS2A", "PLS2B"), ("NEWS1", "NEWS2"))


def test_census_is_symmetric_under_flip_and_switch(classification):
    """Verdicts are constant under FLIP and SWITCH, and families follow
    them, with one exception: CR4 attaches to 249|37|5|68 but not to its
    SWITCH image 24|357|68|9, though CR4's point (4, 4, 1, -2) lies on
    NEWS1 and NEWS2 both."""
    by_text = {str(r.partition): r for r in classification.records}
    partner = dict(SWITCH_FAMILY_PAIRS)
    partner.update({b: a for a, b in SWITCH_FAMILY_PAIRS})
    assert set(partner) <= {fam.id for fam in family_catalog()}
    unmapped = []
    for text, rec in by_text.items():
        for perm, image in ((FLIP, {}), (SWITCH, partner)):
            other = by_text[str(act(perm, rec.partition))]
            assert other.verdict == rec.verdict, (perm.name, text)
            if (sorted(image.get(fid, fid) for fid in rec.families)
                    != sorted(other.families)):
                unmapped.append((perm.name, text, str(other.partition)))
    assert unmapped == [("switch", "249|37|5|68", "24|357|68|9"),
                        ("switch", "24|357|68|9", "249|37|5|68")]
    assert by_text["249|37|5|68"].families == ("NEWS1", "CR4")
    assert by_text["24|357|68|9"].families == ("NEWS2",)


def _join(a: frozenset, b: frozenset) -> frozenset:
    """The join of two partitions given as sets of block masks: each block
    of b merges the blocks of a it meets."""
    blocks = list(a)
    for m in b:
        rest = [x for x in blocks if not x & m]
        blocks = rest + [m | sum(x for x in blocks if x & m)]
    return frozenset(blocks)


def test_join_facts_from_the_records(classification):
    """If p and q are fusions at a point, so is their join.  Guaranteed
    partitions fuse everywhere, so p is INFEASIBLE when some p v g != p is
    INFEASIBLE for a guaranteed g, and on a parametric family's generic
    point the family's partitions and the guaranteed ones are join-closed."""
    by_masks = {frozenset(r.partition.masks): r for r in classification.records}
    fusing = {m for m, r in by_masks.items() if r.verdict == "GUARANTEED"}
    assert len(fusing) == 15  # the 13 and the two trivial partitions
    forced = [m for m, r in by_masks.items() if r.verdict != "GUARANTEED"
              and any(j != m and by_masks[j].verdict == "INFEASIBLE"
                      for j in (_join(m, g) for g in fusing))]
    assert len(forced) == 2908
    assert all(by_masks[m].verdict == "INFEASIBLE" for m in forced)
    for fam in family_catalog():
        if fam.point:
            continue
        closed = fusing | {m for m, r in by_masks.items() if fam.id in r.families}
        assert all(_join(a, b) in closed for a in closed for b in closed), fam.id


def test_join_keeps_each_family_on_a_family_of_the_join(classification):
    """Where p is FAMILY and q = p v g != p is not guaranteed for a
    guaranteed g, q fuses wherever p does: each family of p, under its
    substitution or at its point, satisfies the defining polynomials of some
    family of q.  Only three SP9 partitions join onto a record without their
    own family, CONF's 234678|59, and (4, 4, 1, -2) lies on CONF."""
    def on(fam, variety):
        if fam.point:
            return all(d.evaluate(dict(fam.point)) == 0 for d in variety.defining)
        sub = fam.substitution_map()
        return all(d.substitute(sub).is_zero() for d in variety.defining)

    by_masks = {frozenset(r.partition.masks): r for r in classification.records}
    fusing = [m for m, r in by_masks.items() if r.verdict == "GUARANTEED"]
    pairs, elsewhere = 0, set()
    for m, rec in by_masks.items():
        if rec.verdict != "FAMILY":
            continue
        for g in fusing:
            q = _join(m, g)
            joined = by_masks[q]
            if q == m or joined.verdict == "GUARANTEED":
                continue
            pairs += 1
            for fid in rec.families:
                assert any(on(family_by_id(fid), family_by_id(h))
                           for h in joined.families), (str(rec.partition), fid)
                if fid not in joined.families:
                    elsewhere.add((str(rec.partition), fid, str(joined.partition)))
    assert pairs == 367
    assert elsewhere == {(text, "SP9", "234678|59")
                         for text in ("267|348|59", "267|34|59|8", "27|348|59|6")}


# -- wreath classification ------------------------------------------------------

def test_wreath_theorem_orientation1():
    w = classify_wreath(1)
    assert set(w.guaranteed) == X.WREATH1_GUARANTEED
    assert set(w.clique_case) == X.WREATH1_CLIQUE
    assert set(w.multipartite_case) == X.WREATH1_MULTIPARTITE
    assert set(w.never) == X.WREATH1_NEVER
    assert len(w.trivial) == 2


def test_wreath_theorem_orientation2():
    w = classify_wreath(2)
    assert set(w.guaranteed) == X.WREATH2_GUARANTEED
    assert set(w.clique_case) == X.WREATH2_CLIQUE
    assert set(w.multipartite_case) == X.WREATH2_MULTIPARTITE
    assert set(w.never) == X.WREATH2_NEVER
