"""Adjacency-matrix ground truth: constructions, products, cross-checks."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import expected as X
from srgfusion import oracle
from srgfusion.fusion import scan_all
from srgfusion.oracle import (
    BadSpec,
    FailureWitness,
    Graph01,
    IntersectionTensor,
    NotStronglyRegular,
    SchemeMatrices,
    build_graph,
    cross_check,
    fused_valencies_match,
    product01,
    scheme_matrices,
    srg_params,
    tensor_fuse,
    verify_scheme,
)
from srgfusion.partitions import all_default_partitions, parse
from srgfusion.products import single_index, tensor_square_table
from srgfusion.scheme import char_table, eigen_from_params


@pytest.mark.parametrize("spec,params", [
    ("paley5", (5, 2, 0, 1)),
    ("petersen", (10, 3, 0, 1)),
    ("rook3", (9, 4, 1, 2)),
    ("clebsch", (16, 5, 0, 2)),
    ("complement:clebsch", (16, 10, 6, 6)),
    ("cliques3x3", (9, 2, 1, 0)),
    ("multipartite3x3", (9, 6, 3, 6)),
    ("rook4", (16, 6, 2, 2)),
    ("latin6", (36, 15, 6, 6)),
])
def test_build_graph_parameters(spec, params):
    g = build_graph(spec)
    p = srg_params(g)
    assert (p.n, p.k, p.mu, p.nu) == params


def test_complement_clebsch_eigen():
    e = eigen_from_params(srg_params(build_graph("complement:clebsch")))
    assert (e.k, e.l, e.r, e.s) == (10, 5, 2, -2)


def test_bad_specs():
    with pytest.raises(BadSpec):
        build_graph("paley6")  # 6 not prime
    with pytest.raises(BadSpec):
        build_graph("paley7")  # 7 = 3 mod 4
    with pytest.raises(BadSpec):
        build_graph("cliques1x3")
    with pytest.raises(BadSpec):
        build_graph("nonsense")


def test_cycle_not_strongly_regular():
    n = 6
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    with pytest.raises(NotStronglyRegular):
        scheme_matrices(Graph01("C6", a))


def test_scheme_matrices_valencies():
    assert scheme_matrices(build_graph("petersen")).valencies() == (1, 3, 6)
    sm = scheme_matrices(build_graph("cliques3x3"))
    assert sm.valencies() == (1, 2, 6)
    assert srg_params(build_graph("cliques3x3")).nu == 0


def test_tensor_fuse_supports_partition_all_ones():
    sm = scheme_matrices(build_graph("paley5"))
    for text in ("2|3|456|789", "2|3|4|5|6|7|8|9", "23456789"):
        fused = tensor_fuse(sm, parse(text))
        total = sum(m for m in fused.matrices)
        assert (total == np.ones((25, 25), dtype=np.int64)).all()
    # the wreath classes are the expected Kronecker sums
    fused = tensor_fuse(sm, parse("2|3|456|789"))
    a0, a1, a2 = sm.matrices
    expected = sum(np.kron(x, a1) for x in (a0, a1, a2))
    assert (fused.matrices[3] == expected).all()


def _relabel(value, mirror=True):
    """Set the first class-1 cell, and by default its mirror, to ``value``."""
    def mutate(lab):
        u, v = np.argwhere(lab == 1)[0]
        lab[u, v] = value
        if mirror:
            lab[v, u] = value
        return lab
    return mutate


@pytest.mark.parametrize("mutate,message", [
    (_relabel(3), r"0\.\.2"),
    (_relabel(-1), r"0\.\.2"),
    (lambda lab: lab.astype(np.float64), r"0\.\.2"),
    (lambda lab: lab[:4], "square"),
    (lambda lab: lab + np.eye(len(lab), dtype=lab.dtype), "diagonal"),
    (_relabel(0), "diagonal"),
    (_relabel(2, mirror=False), "symmetric"),
], ids=["rank", "negative", "float", "non-square", "diagonal",
        "zero-off-diagonal", "asymmetric"])
def test_scheme_matrices_validates_labels(mutate, message):
    labels = scheme_matrices(build_graph("paley5")).labels
    SchemeMatrices(labels, 3)
    with pytest.raises(BadSpec, match=message):
        SchemeMatrices(mutate(labels.copy()), 3)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 150), st.integers(1, 150), st.integers(1, 150),
       st.integers(0, 2**32 - 1), st.sampled_from([0.05, 0.5, 0.95]))
@example(150, 150, 150, 0, 0.5)
@example(7, 64, 9, 1, 0.5)  # widths of exactly one and two words
@example(3, 128, 1, 2, 0.95)
@example(130, 65, 130, 3, 0.5)
def test_product01_matches_integer_matmul(rows, inner, cols, seed, density):
    rng = np.random.default_rng(seed)
    a = (rng.random((rows, inner)) < density).astype(np.int64)
    b = (rng.random((inner, cols)) < density).astype(np.int64)
    expected = a @ b
    got = product01(a, b)
    assert got.dtype == np.int64
    assert (got == expected).all()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK_CELLS", 200)  # several row chunks
        assert (product01(a, b) == expected).all()


def all_pairs_verify(sm):
    """Reference oracle: every product M_i M_j, i <= j, by int64 matmul,
    checked for constancy on every class in (i, j, k) order."""
    mats = sm.matrices
    d = len(mats)
    supports = [m > 0 for m in mats]
    cells = [np.argwhere(s) for s in supports]
    p = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            prod = mats[i] @ mats[j]
            for k in range(d):
                vals = prod[supports[k]]
                if not vals.size:
                    continue
                if (vals != vals[0]).any():
                    bad = int(np.argmax(vals != vals[0]))
                    return FailureWitness(
                        i, j, k,
                        tuple(int(x) for x in cells[k][0]),
                        tuple(int(x) for x in cells[k][bad]),
                        int(vals[0]), int(vals[bad]),
                    )
                p[i][j][k] = p[j][i][k] = int(vals[0])
    return IntersectionTensor(
        tuple(tuple(tuple(row) for row in plane) for plane in p),
        sm.valencies(),
    )


def kron_fuse(sm, p):
    """Reference fusion: the class matrices of each block are summed from
    Kronecker products of the base class matrices."""
    mats = sm.matrices
    side = sm.order ** 2
    fused = [np.eye(side, dtype=np.int64)]
    for block in p.blocks:
        total = np.zeros((side, side), dtype=np.int64)
        for i in range(3):
            for j in range(3):
                if single_index(i, j) in block:
                    total += np.kron(mats[i], mats[j])
        fused.append(total)
    return fused


def reference_cases(spec, sample):
    """The graph's scheme and its partitions, or a seeded sample of them."""
    if spec == "complete3":
        g = Graph01(spec, np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))
    else:
        g = build_graph(spec)
    parts = all_default_partitions()
    if sample is not None:
        parts = random.Random(7).sample(parts, sample)
    return scheme_matrices(g), parts


@pytest.mark.parametrize("spec,sample", [
    ("paley5", None), ("petersen", 240), ("complete3", None),
], ids=["paley5", "petersen", "complete3"])
def test_tensor_fuse_matches_kron_reference(spec, sample):
    sm, parts = reference_cases(spec, sample)
    for p in parts:
        got = tensor_fuse(sm, p).matrices
        want = kron_fuse(sm, p)
        assert len(got) == len(want), (spec, str(p))
        assert all((a == b).all() for a, b in zip(got, want)), (spec, str(p))


@pytest.mark.parametrize("spec,sample,kinds", [
    ("paley5", None, {IntersectionTensor, FailureWitness}),
    ("petersen", 240, {IntersectionTensor, FailureWitness}),
    # no non-edges, so some fused classes are empty; every partition fuses
    ("complete3", None, {IntersectionTensor}),
], ids=["paley5", "petersen", "complete3"])
def test_verify_scheme_matches_all_pairs_reference(spec, sample, kinds):
    sm, parts = reference_cases(spec, sample)
    seen = set()
    for p in parts:
        fused = tensor_fuse(sm, p)
        got = verify_scheme(fused)
        assert got == all_pairs_verify(fused), (spec, str(p))
        seen.add(type(got))
    assert seen == kinds


def test_verify_scheme_examples():
    sm = scheme_matrices(build_graph("petersen"))
    res = verify_scheme(tensor_fuse(sm, parse("2347|5689")))
    assert isinstance(res, IntersectionTensor)
    assert res.valencies == (1, 18, 81)

    res = verify_scheme(tensor_fuse(sm, parse("249|37|5|68")))
    assert isinstance(res, FailureWitness)

    smc = scheme_matrices(build_graph("complement:clebsch"))
    res = verify_scheme(tensor_fuse(smc, parse("2468|3579")))
    assert isinstance(res, IntersectionTensor)


def test_unfused_tensor_square_intersection_numbers():
    sm = scheme_matrices(build_graph("paley5"))
    fused = tensor_fuse(sm, parse("2|3|4|5|6|7|8|9"))
    res = verify_scheme(fused)
    assert isinstance(res, IntersectionTensor)
    d = len(res.valencies)
    for i in range(d):
        # p^0_{ii} is the valency of class i
        assert res.p[i][i][0] == res.valencies[i]
        for k in range(d):
            # summing p^k_{ij} over j counts all class-i neighbours
            assert sum(res.p[i][j][k] for j in range(d)) == res.valencies[i]
    for i in range(d):
        for j in range(d):
            assert all(res.p[i][j][k] >= 0 for k in range(d))
            weighted = sum(res.p[i][j][k] * res.valencies[k] for k in range(d))
            assert weighted == res.valencies[i] * res.valencies[j]


def test_fused_valencies_match_table():
    g = build_graph("petersen")
    for text in ("2347|5689", "2|3|456|789", "23|47|5689"):
        assert fused_valencies_match(g, parse(text))


def test_cross_check_rook3_sampled():
    g = build_graph("rook3")
    table = tensor_square_table(char_table(eigen_from_params(srg_params(g))))
    positives = [v.partition for v in scan_all(table)]
    rng = random.Random(11)
    negatives = rng.sample(
        [p for p in all_default_partitions()
         if str(p) not in X.ROOK3_SCAN and not p.is_discrete()
         and not p.is_single_block()],
        100,
    )
    report = cross_check(g, positives + negatives)
    assert report.clean
    assert report.positives == len(positives)


def test_cross_check_union_cliques_58_plus_degenerate():
    """The 58 family fusions all hold on three triangles; the two m = r
    degenerate extras hold as well (matrix-verified)."""
    g = build_graph("cliques3x3")
    parts = [parse(t) for t in sorted(X.IMP22_SCAN)]
    report = cross_check(g, parts)
    assert report.clean
    assert report.positives == 60


@pytest.mark.parametrize("spec,texts", [
    # a realizing graph for each special family, with its claimed fusions
    ("paley13", sorted(X.CONF_11)),                     # conference
    ("complement:rook4", ["249|37|5|68"]),              # NEWS1 at s = -3
    ("rook4", ["24|357|68|9", "2468|3579"]),            # NEWS2 and PLS2A
    ("rook3", ["249|37|5|68", "24|357|68|9", "249|35678", "24689|357"]
              + sorted(X.SP9_6)),                        # CR4 point and SP9
    ("complement:clebsch", ["249|35678", "2468|3579"]),  # CLB1 and CLB2A
    ("clebsch", ["24689|357", "2459|3678"]),             # CLB1S and CLB2B
    ("multipartite3x3", ["2456789|3", "2789|3|456"]),    # IMP2 wreath specials
    ("paley5", sorted(X.SP5_2)),                         # pentagon sporadics
])
def test_family_source_partitions_on_graphs(spec, texts):
    sm = scheme_matrices(build_graph(spec))
    for text in texts:
        res = verify_scheme(tensor_fuse(sm, parse(text)))
        assert isinstance(res, IntersectionTensor), (spec, text)
