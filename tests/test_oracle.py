"""Adjacency-matrix ground truth: constructions, products, cross-checks."""

import hashlib
import io
import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import expected as X
from srgfusion import cli, oracle
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
from srgfusion.scheme import SrgParams, char_table, eigen_from_params


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


# graph name and sha256 of the int64 adjacency bytes of each spec: a builder
# may not rename its graph or reorder its vertices
ADJACENCY_SHA256 = {
    "paley5": ("paley(5)", "6bc8959e164fe4ee78c665f15ad73c0d6c8d31fb413491862c8f12e88155ed0c"),
    "paley13": ("paley(13)", "7c393e4b16bcbf3c0077ecfb4f3cd3c105266572164dbe40c02f6ae323659a39"),
    "paley37": ("paley(37)", "b9cda727331eca3efefa2df4dd3ce939283736d5a85113e16438b50b01938749"),
    "petersen": ("petersen", "75c81532592d0ef2485a93a1c5f38e2f2492204b84f2070bc6be8eff5b43e2ee"),
    "rook2": ("rook(2)", "3c16da3b5af8e8c08d5c398b968da2082513cb5280f11eb7c2b201dc1884ed75"),
    "rook3": ("rook(3)", "3ca19960efb8b2b182a329de846f68dd3d29713958f2dacd4a829e5e27d377ba"),
    "rook4": ("rook(4)", "a1b2e59ac3c52d114e73d57409ce0fd10faeec37f48912af344f6dcd505037b0"),
    "rook6": ("rook(6)", "f36445ca8ad034a6b42772074922be27db3b0277fc2a43e7bd7f7f10229fd708"),
    "clebsch": ("clebsch", "f6fb05b29fe1bc1cbd3c60eb4776bf34c193144aef1ba72644540c8ac66f3c22"),
    "complement:clebsch": (
        "complement(clebsch)",
        "b34d8c0a0bc817363bff46fc137d68f6c8285acc34477c95643141d7b1e661a2"),
    "cliques3x3": (
        "union_cliques(3,3)",
        "fef4041e40b1601a957f76019fb6d34076c07b5f919a9a50e2bb74fe5542d69e"),
    "cliques2x5": (
        "union_cliques(2,5)",
        "8507a076126a520f368ef2a24ff44ef19710377940e468a22370208bc60f7ad3"),
    "multipartite3x3": (
        "complete_multipartite(3,3)",
        "a1f0503d0978d4b1dcc242aaed78f87231f7c9f4cc4905b3aed4d82452c7d969"),
    "latin4": (
        "latin_square_graph(4)",
        "3f8feb663185bd92319b0bde6173be72780b64783f75237b21b0b485c87eb4ac"),
    "latin5": (
        "latin_square_graph(5)",
        "7a8efbd169ad9d19f4f422a10b7e851f4fcecd66dd6f6b6e33bd60f2ee051654"),
    "latin6": (
        "latin_square_graph(6)",
        "7b4196326daca7fc33291c7b19647bbd54ed8ef949152d38c17acfa7b47c50bb"),
    "complement:latin5": (
        "complement(latin_square_graph(5))",
        "27ef901fd83ad9dbfd776b59623fc9fcd14b7fa7eca9ae0995d5e2d861ae052c"),
}


@pytest.mark.parametrize("spec", sorted(ADJACENCY_SHA256))
def test_build_graph_adjacency_pinned(spec):
    g = build_graph(spec)
    assert g.adjacency.dtype == np.int64
    digest = hashlib.sha256(g.adjacency.tobytes()).hexdigest()
    assert (g.name, digest) == ADJACENCY_SHA256[spec]


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
    for spec in ("rook", "rook3a", "cliques3x", "latin4x4", "complement:rook1"):
        with pytest.raises(BadSpec):
            build_graph(spec)


def _flip_edge(a):
    a[0, 1] = 1 - a[0, 1]  # (1, 0) keeps its old value
    return a


@pytest.mark.parametrize("mutate,message", [
    (lambda a: a[:4], "square"),
    (lambda a: 2 * a, "0/1"),
    (_flip_edge, "symmetric"),
    (lambda a: a + np.eye(len(a), dtype=a.dtype), "diagonal"),
], ids=["non-square", "non-01", "asymmetric", "diagonal"])
def test_graph01_validates_adjacency(mutate, message):
    a = build_graph("petersen").adjacency
    Graph01("petersen", a)
    with pytest.raises(BadSpec, match=message):
        Graph01("bad", mutate(a.copy()))


def _graph(name, n, edges):
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    return Graph01(name, a)


def cycle(n):
    return _graph(f"C{n}", n, [(i, (i + 1) % n) for i in range(n)])


def test_cycle_not_strongly_regular():
    with pytest.raises(NotStronglyRegular):
        scheme_matrices(cycle(6))


def srg_params_by_square(g):
    """Reference: SrgParams from the degrees and A @ A, or the first failure
    as (pair kind, cell, cell, count, count), with the degree of a vertex
    counted as its common neighbours with itself."""
    a = g.adjacency
    n = g.n
    deg = a.sum(axis=1)
    if (deg != deg[0]).any():
        u = int(np.argmax(deg != deg[0]))
        return "diagonal", (0, 0), (u, u), int(deg[0]), int(deg[u])
    k = int(deg[0])
    a2 = a @ a
    adj_mask = a > 0
    non_mask = (a == 0) & ~np.eye(n, dtype=bool)
    for mask, label in ((adj_mask, "adjacent"), (non_mask, "non-adjacent")):
        vals = a2[mask]
        if vals.size and (vals != vals[0]).any():
            cells = np.argwhere(mask)
            first = tuple(int(x) for x in cells[0])
            bad = tuple(int(x) for x in cells[int(np.argmax(vals != vals[0]))])
            return label, first, bad, int(a2[first]), int(a2[bad])
    mu = int(a2[adj_mask][0]) if adj_mask.any() else 0
    nu = int(a2[non_mask][0]) if non_mask.any() else 0
    return SrgParams(n, k, mu, nu)


def random_graphs(count, seed):
    """Seeded graphs with n <= 12: Erdos-Renyi graphs (mostly irregular),
    circulants (regular, mostly not strongly regular) and relabelled
    strongly regular graphs."""
    rng = random.Random(seed)
    srgs = [build_graph(s) for s in ("paley5", "petersen", "rook3", "cliques3x3",
                                     "cliques2x5", "multipartite3x3",
                                     "complement:petersen", "cliques3x4")]
    for t in range(count):
        n = rng.randint(1, 12)
        if t % 3 == 0:
            p = rng.random()
            yield _graph(f"gnp{t}", n, [e for e in itertools.combinations(range(n), 2)
                                        if rng.random() < p])
        elif t % 3 == 1:
            steps = {d for d in range(1, n) if rng.random() < 0.4}
            yield _graph(f"circ{t}", n, [(i, (i + d) % n) for i in range(n)
                                         for d in steps])
        else:
            g = rng.choice(srgs)
            perm = np.array(rng.sample(range(g.n), g.n))
            yield Graph01(f"perm{t}", g.adjacency[np.ix_(perm, perm)])


def agreement_cases():
    specials = [cycle(5), cycle(6), _graph("P4", 4, [(0, 1), (1, 2), (2, 3)]),
                _graph("K3", 3, itertools.combinations(range(3), 2)),
                _graph("K5", 5, itertools.combinations(range(5), 2)),
                _graph("E4", 4, [])]
    return ([build_graph(s) for s in ADJACENCY_SHA256] + specials
            + list(random_graphs(300, seed=2023)))


def params_or_error(f, g):
    try:
        return f(g)
    except ValueError as exc:
        return type(exc)


def test_srg_params_matches_square_reference():
    outcomes = set()
    for g in agreement_cases():
        want = params_or_error(srg_params_by_square, g)
        if isinstance(want, tuple):
            kind, a, b, va, vb = want
            with pytest.raises(NotStronglyRegular) as info:
                srg_params(g)
            assert str(info.value) == (f"{g.name}: {kind} pairs {a} and {b} "
                                       f"have {va} vs {vb} common neighbours")
            outcomes.add(kind)
        else:
            assert params_or_error(srg_params, g) == want, g.name
            outcomes.add(getattr(want, "__name__", "srg"))
    assert outcomes == {"srg", "InfeasibleParams", "diagonal", "adjacent",
                        "non-adjacent"}


def test_not_strongly_regular_names_pairs_and_counts():
    with pytest.raises(NotStronglyRegular, match=(
            r"^C6: non-adjacent pairs \(0, 2\) and \(0, 3\) have 1 vs 0 "
            r"common neighbours$")):
        srg_params(cycle(6))
    with pytest.raises(NotStronglyRegular, match=(
            r"^P4: diagonal pairs \(0, 0\) and \(1, 1\) have 1 vs 2 ")):
        srg_params(_graph("P4", 4, [(0, 1), (1, 2), (2, 3)]))


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


def test_tensor_fuse_labels_pass_the_checks():
    """tensor_fuse skips the label checks; its labels pass them anyway."""
    sm = scheme_matrices(build_graph("petersen"))
    for p in all_default_partitions():
        f = tensor_fuse(sm, p)
        checked = SchemeMatrices(f.labels, f.rank, f.name)
        assert checked.order == 100 and checked.rank == p.rank


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


@pytest.mark.parametrize("inner", [64, 192, 193, 255, 256, 257])
def test_product01_narrow_accumulator_never_wraps(inner):
    """All-ones factors make every entry the inner width, the most an
    entry can count; the accumulator is uint8 up to 192 (three words) and
    uint16 from 193."""
    a = np.ones((100, inner), dtype=np.int64)
    b = np.ones((inner, 7), dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        for chunk in (oracle._CHUNK_CELLS, 200):  # one and several row chunks
            mp.setattr(oracle, "_CHUNK_CELLS", chunk)
            got = product01(a, b)
            assert got.dtype == np.int64
            assert (got == inner).all()
    narrow = oracle._popcount_product(oracle._pack_rows(a), oracle._pack_rows(b.T))
    assert narrow.dtype == (np.uint8 if inner <= 192 else np.uint16)


def all_pairs_verify(sm):
    """Reference oracle: every product M_i M_j, i <= j, by int64 matmul,
    checked for constancy on every class in (i, j, k) order.  M_0 is the
    identity (SchemeMatrices checks it), so M_0 M_j is M_j itself."""
    mats = sm.matrices
    d = len(mats)
    supports = [m > 0 for m in mats]
    cells = [np.argwhere(s) for s in supports]
    p = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            prod = mats[j] if i == 0 else mats[i] @ mats[j]
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


def verdict_kinds_matching_reference(sm, parts):
    """Assert verify_scheme equals all_pairs_verify on each fused partition;
    return the result types seen."""
    seen = set()
    for p in parts:
        fused = tensor_fuse(sm, p)
        got = verify_scheme(fused)
        assert got == all_pairs_verify(fused), (sm.name, str(p))
        seen.add(type(got))
    return seen


@pytest.mark.parametrize("spec,sample,kinds", [
    ("paley5", None, {IntersectionTensor, FailureWitness}),
    ("petersen", 240, {IntersectionTensor, FailureWitness}),
    # no non-edges, so some fused classes are empty; every partition fuses
    ("complete3", None, {IntersectionTensor}),
], ids=["paley5", "petersen", "complete3"])
def test_verify_scheme_matches_all_pairs_reference(spec, sample, kinds):
    assert verdict_kinds_matching_reference(*reference_cases(spec, sample)) == kinds


def test_verify_scheme_matches_all_pairs_reference_rook4():
    """n^2 = 256, so the products are uint16: every fusion of the rook4
    scan and a seeded sample of 20 non-fusions."""
    sm = scheme_matrices(build_graph("rook4"))
    negatives = random.Random(7).sample(
        [p for p in all_default_partitions()
         if str(p) not in X.ROOK4_SCAN and not p.is_discrete()
         and not p.is_single_block()],
        20,
    )
    positives = [parse(t) for t in sorted(X.ROOK4_SCAN)]
    assert verdict_kinds_matching_reference(sm, positives + negatives) == {
        IntersectionTensor, FailureWitness}


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


def test_strong_regularity_checked_once(monkeypatch):
    """One verify_scheme call on the rank-3 basis per entry point, then one
    per fused partition."""
    ranks = []

    def counted(sm):
        ranks.append(sm.rank)
        return verify_scheme(sm)

    monkeypatch.setattr(oracle, "verify_scheme", counted)
    monkeypatch.setattr(cli, "verify_scheme", counted)
    g = build_graph("petersen")
    ps = [parse(t) for t in ("2347|5689", "249|37|5|68", "2|3|456|789")]
    assert cross_check(g, ps).clean
    assert ranks == [3, 3, 5, 5]
    ranks.clear()
    assert fused_valencies_match(g, ps[0])
    assert ranks == [3, 3]
    ranks.clear()
    assert cli.main(["verify", "--graph", "petersen", "--partition", "2347|5689",
                     "--format", "json"], out=io.StringIO()) == 0
    assert ranks == [3, 3]


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
