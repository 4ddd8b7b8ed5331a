"""Symbolic classification: equality graphs, certificates, the full run."""

import dataclasses
import hashlib
from collections import Counter
from fractions import Fraction

import pytest

import expected as X
from srgfusion import classifier
from srgfusion.classifier import (
    SubstitutionRecord,
    classify_wreath,
    family_by_id,
    family_catalog,
    family_match,
    guaranteed_partition_strings,
    potential_equality_graph,
    symbolic_tensor_table,
    verify_record,
    ORTHOGONALITY,
    _grouping_system,
    _leaf_point,
)
from srgfusion.exact import K, ONE, R, MultiPoly, QuadraticValue
from srgfusion.fusion import bm_check, scan_all, summed_rows
from srgfusion.partitions import all_default_partitions, coarsenings, parse
from srgfusion.products import tensor_square_table
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

def test_equality_graph_wreath_merges_identically():
    g = potential_equality_graph(parse("2|3|456|789"))
    classes = {frozenset(c) for c in g.classes}
    assert frozenset({3, 4, 5}) in classes  # chi_10, chi_11, chi_12 merge
    assert frozenset({6, 7, 8}) in classes


def test_equality_graph_blocks_valency_row():
    g = potential_equality_graph(parse("2678|34|59"))
    valency_class = next(i for i, c in enumerate(g.classes) if 0 in c)
    for (a, b), status in g.pairs:
        if valency_class in (a, b):
            assert status.blocked and status.reason == "valency"


def test_equality_graph_classes_group_equal_summed_rows():
    # reference: rows grouped by their exact summed values, in row order
    table = symbolic_tensor_table()
    for p in all_default_partitions():
        classes: dict[tuple, list[int]] = {}
        for a, row in enumerate(summed_rows(table, p)):
            classes.setdefault(row, []).append(a)
        assert potential_equality_graph(p).classes == tuple(
            map(tuple, classes.values())), str(p)


def test_equality_graph_discrete_all_blocked():
    g = potential_equality_graph(parse("2|3|4|5|6|7|8|9"))
    assert len(g.classes) == 9
    assert all(status.blocked for _, status in g.pairs)


# -- family matching -----------------------------------------------------------

def test_family_match_examples(classification):
    rec = classification.record("249|35678")
    assert rec.verdict == "FAMILY" and rec.families == ("CLB1",)

    rec = classification.record("249|37|5|68")
    assert set(rec.families) == {"NEWS1", "CR4"}

    rec = classification.record("2468|3579")
    assert set(rec.families) == {"CLB2A", "PLS2A"}


def test_family_match_negative():
    # the CLB2A system requires s = -r; the conference family has s = -1-r
    g = potential_equality_graph(parse("2468|3579"))
    from srgfusion.classifier import _enumerate_groupings
    for grouping in _enumerate_groupings(g, 3):
        eqs, dist = _grouping_system(g, grouping)
        ok, _ = family_match(eqs, dist, family_by_id("CONF"))
        assert not ok


def test_catalog_satisfies_orthogonality():
    for fam in family_catalog():
        if fam.point_instances:
            for pt in fam.points():
                assert ORTHOGONALITY.evaluate(pt) == 0
        else:
            assert ORTHOGONALITY.substitute(fam.substitution_map()).is_zero()


def test_catalog_sample_instances_are_feasible_tables():
    from srgfusion.scheme import feasibility
    for fam in family_catalog():
        for inst in fam.sample_instances:
            k, l, r, s = inst
            e = eigen_from_values(k, l, r, s)
            rep = feasibility(e)
            assert not rep.violations, (fam.id, inst)


# -- classification records ----------------------------------------------------

def test_worked_negative_examples(classification):
    rec = classification.record("23489|567")
    assert rec.verdict == "INFEASIBLE"
    assert rec.groupings and all(ga.infeasible for ga in rec.groupings)
    assert verify_record(rec)

    rec = classification.record("2678|34|59")
    assert rec.verdict == "INFEASIBLE"
    assert verify_record(rec)
    if rec.row_count_certificate is not None:
        assert len(rec.row_count_certificate.representatives) >= 5
    else:
        assert rec.groupings and all(ga.infeasible for ga in rec.groupings)


def test_row_count_certificates_dominate(classification):
    """Most infeasible partitions die on pairwise-distinct row counts."""
    with_cert = sum(
        1 for rec in classification.records
        if rec.verdict == "INFEASIBLE" and rec.row_count_certificate is not None
    )
    assert with_cert > 3000
    # and those certificates really are oversized pairwise-blocked sets
    sample = [rec for rec in classification.records
              if rec.verdict == "INFEASIBLE"
              and rec.row_count_certificate is not None
              and not rec.row_count_certificate.deficit
              and rec.row_count_certificate.representatives][:50]
    for rec in sample:
        cert = rec.row_count_certificate
        assert len(cert.representatives) == cert.required + 1


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
    from srgfusion.products import SWITCH, act

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
    if fam.point_instances:
        return any(dict(pt) == point for pt in fam.point_instances)
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


def _with_conflict(rec, gi, li, conflict):
    """rec with the bound conflict of leaf li of grouping gi replaced."""
    ga = rec.groupings[gi]
    leaves = list(ga.leaves)
    leaves[li] = dataclasses.replace(leaves[li], bound_conflict=conflict)
    groupings = list(rec.groupings)
    groupings[gi] = dataclasses.replace(ga, leaves=tuple(leaves))
    return dataclasses.replace(rec, groupings=tuple(groupings))


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


@pytest.mark.parametrize("kind, data", [
    ("definite", (K + 1,)),
    ("no-region-root", (K * K + 1, "k")),
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
RECORDS_REPR_SHA256 = "1118cf8607f98ec250585575657b1c3ad10e745b5debe32d9aa8a1a9d75c8711"


def test_census_records_are_pinned(classification):
    """Every verdict, proof leaf and certificate, byte for byte."""
    digest = hashlib.sha256(repr(classification.records).encode()).hexdigest()
    assert digest == RECORDS_REPR_SHA256


def _clear_memos():
    """Empty every classifier memo but classify_all's, which keeps the
    session's result."""
    for name in classifier.cache_stats():
        if name != "classify_all":
            getattr(classifier, name).cache_clear()


def test_verify_record_does_not_depend_on_memo_state(classification):
    _clear_memos()
    assert all(verify_record(rec) for rec in classification.records)


def test_cache_stats_of_a_cold_census():
    _clear_memos()
    records = classifier.classify_all.__wrapped__().records
    stats = classifier.cache_stats()
    assert len(records) == 4140
    assert stats["_decompose_cached"] == (100, 2330, 2330)
    for name in ("_screen", "_pivot_candidate", "_substitute_one",
                 "_pair_block_status"):
        hits, misses, size = stats[name]
        assert hits > misses == size > 0, (name, stats[name])


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
