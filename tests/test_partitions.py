"""Set-partition enumeration, parsing, refinement, coarsenings."""

import random

import pytest

from expected import BELL
from srgfusion.partitions import (
    BadGrammar,
    DuplicateIndex,
    GroundMismatch,
    GroundTooLarge,
    MissingIndex,
    SetPartition,
    all_default_partitions,
    bell_number,
    coarsenings,
    enumerate_partitions,
    hasse_edges,
    parse,
    refines,
)
from srgfusion.products import FLIP, SWITCH, act


def test_bell_numbers():
    assert [bell_number(n) for n in range(9)] == BELL


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15),
                                     (5, 52), (6, 203), (7, 877), (8, 4140)])
def test_enumeration_counts(n, count):
    parts = enumerate_partitions(range(2, 2 + n))
    assert len(parts) == count
    assert len(set(parts)) == count


def test_enumeration_canonical_order():
    parts = all_default_partitions()
    assert len(parts) == 4140
    texts = [str(p) for p in parts]
    assert texts == sorted(texts)


def test_ground_too_large():
    with pytest.raises(GroundTooLarge):
        enumerate_partitions(range(13))


def test_parse_canonicalizes():
    assert str(parse("5|24|37|68|9")) == "24|37|5|68|9"
    p = parse("23|47|5689")
    assert p.blocks == ((2, 3), (4, 7), (5, 6, 8, 9))
    assert str(parse(str(p))) == str(p)


def test_string_form_needs_single_digit_indices():
    p = SetPartition(((2, 10),))
    with pytest.raises(ValueError):
        str(p)
    assert p.masks == (0b100000001,)


def test_parse_errors():
    with pytest.raises(DuplicateIndex):
        parse("23|47|56899")
    with pytest.raises(MissingIndex):
        parse("23|47|568")
    with pytest.raises(BadGrammar):
        parse("23||456789")
    with pytest.raises(BadGrammar):
        parse("2a|3456789")


def test_refines():
    assert refines(parse("23|4|56|7|89"), parse("23|456|789"))
    assert not refines(parse("23|47|5689"), parse("2|3|456789"))
    p = parse("249|37|5|68")
    assert refines(p, p)
    with pytest.raises(GroundMismatch):
        refines(p, SetPartition.from_blocks([(1, 2)]))


def test_refines_partial_order():
    parts = random.Random(7).sample(all_default_partitions(), 40)
    for p in parts:
        for q in parts:
            if refines(p, q) and refines(q, p):
                assert p == q
    top = SetPartition.from_blocks([range(2, 10)])
    bottom = SetPartition.from_blocks([(x,) for x in range(2, 10)])
    for p in parts:
        assert refines(bottom, p) and refines(p, top)


def test_coarsenings():
    base = parse("2|3|456|789")
    coarse = coarsenings(base)
    assert len(coarse) == 15
    texts = {str(c) for c in coarse}
    assert "23|456789" in texts and "2|3456789" in texts
    single = SetPartition.from_blocks([range(2, 10)])
    assert coarsenings(single) == [single]
    discrete = SetPartition.from_blocks([(x,) for x in range(2, 10)])
    assert len(coarsenings(discrete)) == 4140


def test_permutations_preserve_refinement():
    rng = random.Random(3)
    parts = rng.sample(all_default_partitions(), 30)
    for perm in (FLIP, SWITCH):
        for p in parts:
            for q in parts:
                assert refines(p, q) == refines(act(perm, p), act(perm, q))


def test_hasse_edges_are_transitive_reduction():
    parts = [parse(t) for t in
             ("2|3|4|5|6|7|8|9", "23|4|56|7|89", "23|456|789", "23456789")]
    edges = hasse_edges(parts)
    as_set = {(str(a), str(b)) for a, b in edges}
    assert ("2|3|4|5|6|7|8|9", "23|4|56|7|89") in as_set
    assert ("23|4|56|7|89", "23|456|789") in as_set
    assert ("23|456|789", "23456789") in as_set
    # transitive edges are absent
    assert ("2|3|4|5|6|7|8|9", "23456789") not in as_set
    assert ("2|3|4|5|6|7|8|9", "23|456|789") not in as_set
