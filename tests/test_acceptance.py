"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Every expected value is frozen in ``expected.py`` and was
independently verified (lattice figures with corrected typos; adjacency-
matrix products for every positive verdict on a realizable graph).

Criterion 2 carries one strict expected failure: its literal reading pins
the scan of the r = 2, m = 2 instance to exactly 58 partitions, but that
instance sits on the degenerate subfamily m = r, which provably has 60
(the two extras are matrix-verified fusions of the three-triangles scheme).
The criterion's family-level content, the 13 + 45 lists themselves, passes
exactly; see the build notes.
"""

import time

import pytest

import expected as X
from srgfusion.classifier import classify_all, classify_wreath, verify_record
from srgfusion.fusion import bm_check, fused_table, scan_all
from srgfusion.oracle import (
    IntersectionTensor,
    build_graph,
    cross_check,
    scheme_matrices,
    srg_params,
    tensor_fuse,
    verify_scheme,
)
from srgfusion.partitions import all_default_partitions, bell_number, parse
from srgfusion.products import FLIP, SWITCH, act, tensor_square_table
from srgfusion.scheme import (
    SrgParams,
    char_table,
    eigen_from_params,
    eigen_from_values,
    imprimitive_eigen,
)


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def scan_strings(table):
    return {str(v.partition) for v in scan_all(table)}


def test_criterion_1_guaranteed_13():
    """Petersen scan returns exactly the 13 guaranteed partitions, < 5 s."""
    t0 = time.time()
    table = tensor_square_table(char_table(eigen_from_params(SrgParams(10, 3, 0, 1))))
    got = scan_strings(table)
    elapsed = time.time() - t0
    ok = got == X.GUARANTEED_13 and elapsed < 5.0
    report("1 guaranteed-13", ok, f"{len(got)} partitions in {elapsed:.2f}s")
    assert got == X.GUARANTEED_13
    assert elapsed < 5.0


def test_criterion_2_imprimitive_58_family_content():
    """The 13 + 45 imprimitive lists, exact, from the symbolic family scan."""
    from srgfusion.catalogue import family_base_table

    got = scan_strings(tensor_square_table(family_base_table("IMP1")))
    ok = got == X.IMP_FAMILY_SCAN and len(got) == 58
    # the non-degenerate numeric instances agree exactly
    for r, m in ((2, 3), (3, 2)):
        inst = scan_strings(tensor_square_table(char_table(imprimitive_eigen(r, m))))
        ok = ok and inst == X.IMP_FAMILY_SCAN
    report("2 imprimitive-58 (family lists)", ok,
           "58 = 13 guaranteed + 45, every figure partition present")
    assert got == X.IMP_FAMILY_SCAN
    # the literal instance from the criterion is the m = r degenerate case:
    # its scan provably holds the two extra matrix-verified fusions
    inst22 = scan_strings(tensor_square_table(char_table(imprimitive_eigen(2, 2))))
    assert inst22 == X.IMP22_SCAN and len(inst22) == 60
    extras = sorted(inst22 - X.IMP_FAMILY_SCAN)
    sm = scheme_matrices(build_graph("cliques3x3"))
    for text in extras:
        assert isinstance(verify_scheme(tensor_fuse(sm, parse(text))),
                          IntersectionTensor)
    report("2 imprimitive-58 (r=2, m=2 instance)", False,
           f"documented spec defect: instance scan is 60; extras {extras} "
           "are matrix-verified m=r-subfamily fusions")


@pytest.mark.xfail(strict=True,
                   reason="spec defect: the r=2, m=2 instance lies on the "
                          "degenerate m=r subfamily and provably has 60 "
                          "fusions, not 58 (extras matrix-verified)")
def test_criterion_2_imprimitive_58_literal_instance_count():
    got = scan_strings(tensor_square_table(char_table(imprimitive_eigen(2, 2))))
    assert got == X.IMP_FAMILY_SCAN  # literal reading: exactly 58 at (2, 2)


def test_criterion_3_conference_24():
    """Paley(13) scan: exactly 24 = 13 + 11, with the named fusions."""
    table = tensor_square_table(char_table(eigen_from_params(SrgParams(13, 6, 2, 3))))
    got = scan_strings(table)
    ok = (got == X.PALEY13_SCAN and len(got) == 24
          and "27|34|59|6|8" in got
          and {"234678|59", "234579|68", "2359|4678", "2368|4579"} <= got)
    report("3 conference-24", ok, f"{len(got)} partitions over sqrt(13)")
    assert got == X.PALEY13_SCAN
    assert "27|34|59|6|8" in got
    assert {"234678|59", "234579|68", "2359|4678", "2368|4579"} <= got


def test_criterion_4_wreath_theorem():
    """Both orientations: 3 guaranteed nontrivial, 3 + 3 imprimitive specials."""
    w1, w2 = classify_wreath(1), classify_wreath(2)
    checks = [
        set(w1.guaranteed) == X.WREATH1_GUARANTEED,
        set(w1.clique_case) == X.WREATH1_CLIQUE,
        set(w1.multipartite_case) == X.WREATH1_MULTIPARTITE,
        set(w1.never) == X.WREATH1_NEVER,
        set(w2.guaranteed) == X.WREATH2_GUARANTEED,
        set(w2.clique_case) == X.WREATH2_CLIQUE,
        set(w2.multipartite_case) == X.WREATH2_MULTIPARTITE,
        set(w2.never) == X.WREATH2_NEVER,
    ]
    report("4 wreath theorem", all(checks),
           "3 guaranteed and 3+3 special-case coarsenings per orientation")
    assert all(checks)


def test_criterion_5_family_instances_oracle():
    """Folded-5-cube complement and rook(3) against matrices, <= 10 min."""
    t0 = time.time()
    g16 = build_graph("complement:clebsch")
    table16 = tensor_square_table(char_table(eigen_from_params(srg_params(g16))))
    got16 = scan_strings(table16)
    ok = {"249|35678", "2468|3579"} <= got16
    sm16 = scheme_matrices(g16)
    for text in ("249|35678", "2468|3579"):
        res = verify_scheme(tensor_fuse(sm16, parse(text)))
        ok = ok and isinstance(res, IntersectionTensor)

    g9 = build_graph("rook3")
    table9 = tensor_square_table(char_table(eigen_from_params(srg_params(g9))))
    got9 = scan_strings(table9)
    sm9 = scheme_matrices(g9)
    oracle9 = set()
    for p in all_default_partitions():
        if p.is_discrete() or p.is_single_block():
            continue
        if isinstance(verify_scheme(tensor_fuse(sm9, p)), IntersectionTensor):
            oracle9.add(str(p))
    elapsed = time.time() - t0
    ok = ok and got9 == oracle9 == X.ROOK3_SCAN and elapsed < 600
    report("5 family instances vs oracle", ok,
           f"rook(3) exhaustive 4140-partition ground truth in {elapsed:.0f}s")
    assert {"249|35678", "2468|3579"} <= got16
    assert got9 == oracle9 == X.ROOK3_SCAN
    assert elapsed < 600


def test_criterion_6_criterion_oracle_equivalence():
    """paley(5): bm verdict == matrix verdict on all 4140, <= 5 min."""
    t0 = time.time()
    rep = cross_check(build_graph("paley5"))
    elapsed = time.time() - t0
    ok = rep.clean and rep.checked == 4140 and elapsed < 300
    report("6 criterion-oracle equivalence", ok,
           f"{rep.checked} partitions, {len(rep.disagreements)} disagreements, "
           f"{elapsed:.0f}s")
    assert rep.clean and rep.checked == 4140
    assert elapsed < 300


def test_criterion_7_full_classification():
    """4140 records, zero unresolved, exact family census, certificates."""
    result = classify_all()
    s = result.summary()
    fams = s["families"]
    expected_counts = {"IMP1": 45, "IMP2": 45, "CONF": 11, "NEWS1": 1,
                       "NEWS2": 1, "CR4": 1, "CLB1": 1, "CLB1S": 1,
                       "CLB2A": 1, "CLB2B": 1}
    checks = [
        s["unresolved"] == 0,
        s["guaranteed"] == 13,
        all(fams[fid] == n for fid, n in expected_counts.items()),
        set(result.family_partitions("CONF")) == X.CONF_11,
        set(result.family_partitions("IMP1")) == X.IMP1_45,
        result.family_partitions("NEWS1") == ["249|37|5|68"],
        result.family_partitions("CR4") == ["249|37|5|68"],
        result.family_partitions("NEWS2") == ["24|357|68|9"],
        result.family_partitions("CLB1") == ["249|35678"],
        result.family_partitions("CLB1S") == ["24689|357"],
        result.family_partitions("CLB2A") == ["2468|3579"],
        result.family_partitions("CLB2B") == ["2459|3678"],
        result.record("23489|567").verdict == "INFEASIBLE",
        result.record("2678|34|59").verdict == "INFEASIBLE",
    ]
    cert_ok = all(verify_record(rec) for rec in result.records)
    extras = {fid: fams[fid] for fid in ("PLS2A", "PLS2B", "SP9", "SP5")}
    report("7 full classification", all(checks) and cert_ok,
           f"0 unresolved; census as specified; certificates verified; "
           f"catalogue additions {extras} (matrix-verified, see notes)")
    assert all(checks)
    assert cert_ok


def test_criterion_8_property_suites():
    """Flip invariance, switch covariance, multiplicity sums, Bell counts."""
    table = tensor_square_table(char_table(eigen_from_params(SrgParams(10, 3, 0, 1))))
    flip_ok = all(
        bm_check(table, p).is_fusion == bm_check(table, act(FLIP, p)).is_fusion
        for p in all_default_partitions()
    )
    comp = tensor_square_table(char_table(eigen_from_values(6, 3, 1, -2,
                                                            integral=True)))
    switch_ok = all(
        bm_check(table, p).is_fusion == bm_check(comp, act(SWITCH, p)).is_fusion
        for p in all_default_partitions()
    )
    mult_ok = all(
        sum(fused_table(table, v.partition).mults) == 100
        for v in scan_all(table)
    )
    bells = [bell_number(n) for n in range(9)]
    bell_ok = bells == X.BELL
    ok = flip_ok and switch_ok and mult_ok and bell_ok
    report("8 property suites", ok,
           "flip invariance, switch covariance, multiplicity sums, Bell counts")
    assert flip_ok and switch_ok and mult_ok and bell_ok
