import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcover import structure
from matchcover.errors import DomainError, VerificationError
from matchcover.generators import build_high_kappa_epsilon, named_graph
from matchcover.matching import _augment, enumerate_pms
from matchcover.multigraph import MultiGraph
from matchcover.structure import (
    canonical_partition,
    even_2cuts,
    is_barrier,
    is_bicritical,
    vertex_connectivity,
)

from _oracles import (
    brute_canonical_partition,
    brute_even_2cuts,
    brute_vertex_connectivity,
    even_vertex_connectivity,
    pairwise_canonical_partition,
    pairwise_is_bicritical,
)
from conftest import (
    _CORPUS,
    bipartite_mc_inputs,
    corpus_params,
    random_mc_graph,
    random_nonbipartite_mc_graph,
    random_splice,
    sparse_mc_graphs,
)


def test_is_barrier_basics():
    g = named_graph("C6")
    assert is_barrier(g, {1})  # single vertices are barriers in mc graphs
    assert is_barrier(g, {1, 3, 5})
    assert not is_barrier(g, {1, 2})


def test_canonical_partition_cycle():
    g = named_graph("C6")
    parts = canonical_partition(g)
    assert sorted(sorted(p) for p in parts) == [[1, 3, 5], [2, 4, 6]]


def test_canonical_partition_bipartite_is_color_classes():
    g = named_graph("K3,3")
    parts = canonical_partition(g)
    assert sorted(sorted(p) for p in parts) == [[1, 2, 3], [4, 5, 6]]


def test_canonical_partition_brick_is_trivial():
    for name in ("K4", "C6bar", "petersen"):
        parts = canonical_partition(named_graph(name))
        assert all(len(p) == 1 for p in parts), name


def test_canonical_partition_covers_vertices():
    for name in ("C8", "fig2b", "fig2c", "prism4", "W5"):
        g = named_graph(name)
        parts = canonical_partition(g)
        flat = sorted(v for p in parts for v in p)
        assert flat == sorted(g.vertices), name
        for p in parts:
            assert is_barrier(g, p), name


@pytest.mark.parametrize("g", corpus_params())
def test_canonical_partition_parts_are_maximal_barriers(g):
    parts = canonical_partition(g)
    for p in parts:
        assert is_barrier(g, p)
        for v in g.vertices:
            if v not in p:
                assert not is_barrier(g, set(p) | {v})


def test_barriers_via_pm_counting():
    # B a barrier iff every pm matches B into distinct components of G-B;
    # spot check against the definition odd(G-B) = |B|
    g = named_graph("fig2b")
    for pm in enumerate_pms(g):
        assert len(pm) == g.n // 2


@pytest.mark.parametrize("n", (18, 20))
def test_canonical_partition_agrees_with_networkx_past_bitmask_limit(n):
    # u and v share a maximal barrier iff g - u - v has no perfect matching
    nx = pytest.importorskip("networkx")
    for g in sparse_mc_graphs(n):
        assert g.n == n > 16
        h = nx.Graph(g.endpoints(e) for e in g.edge_ids)
        together = {v: {v} for v in g.vertices}
        for u, v in combinations(g.vertices, 2):
            rest = h.subgraph(set(h) - {u, v})
            if 2 * len(nx.max_weight_matching(rest, maxcardinality=True)) < n - 2:
                together[u].add(v)
                together[v].add(u)
        parts = sorted({frozenset(c) for c in together.values()}, key=min)
        assert tuple(parts) == canonical_partition(g)


def _blossom_graphs() -> list[tuple[str, MultiGraph]]:
    # Graphs whose searches shrink many odd cycles: bricks (and the cube,
    # prism4), nonbipartite splices with nontrivial barriers, and
    # brick-brick splices.
    names = ("K4", "K6", "petersen", "prism3", "prism4", "prism5", "W5", "W7",
             "C6bar", "fig2b", "fig2c")
    graphs = [(name, named_graph(name)) for name in names]
    for n in (12, 16, 20):
        graphs += [(f"sparse{n}-{i}", g) for i, g in enumerate(sparse_mc_graphs(n))
                   if not g.is_bipartite]
    rng = random.Random(13)
    bricks = ("K4", "prism3", "C6bar", "W5", "petersen")
    splices = []
    while len(splices) < 8:
        g = random_splice(rng, named_graph(rng.choice(bricks)), named_graph(rng.choice(bricks)))
        if g is not None:
            splices.append((f"brick-brick{len(splices)}", g))
    return graphs + splices


_BLOSSOM_GRAPHS = _blossom_graphs()


@pytest.mark.parametrize("name", [name for name, _ in _BLOSSOM_GRAPHS])
def test_canonical_partition_agrees_with_the_pair_queries_on_blossoms(name):
    g = dict(_BLOSSOM_GRAPHS)[name]
    parts = canonical_partition(g)
    assert parts == pairwise_canonical_partition(g)
    assert parts == brute_canonical_partition(g)


@pytest.mark.parametrize("k", range(1, 8))
def test_canonical_partition_of_complete_bipartite_graphs(k):
    g = named_graph(f"K{k},{k}")
    parts = canonical_partition(g)
    assert parts == pairwise_canonical_partition(g) == brute_canonical_partition(g)
    assert len(parts) == 2 and all(len(p) == k for p in parts)


def test_canonical_partition_agrees_with_the_pair_queries_on_the_33_final():
    g = build_high_kappa_epsilon(3, 3).final
    assert canonical_partition(g) == pairwise_canonical_partition(g)


@pytest.mark.parametrize("g", corpus_params())
def test_canonical_partition_agrees_with_the_pair_queries_on_the_corpus(g):
    assert canonical_partition(g) == pairwise_canonical_partition(g)


def test_canonical_partition_refuses_a_search_that_augments(monkeypatch):
    # g - u has odd order, so the search from u's mate cannot augment.
    # fig2c is not bipartite, so its partition runs the searches.
    monkeypatch.setattr(structure, "_augment", lambda *args: None)
    with pytest.raises(VerificationError) as info:
        canonical_partition(named_graph("fig2c"))
    assert info.value.check == "canonical-partition"


def test_canonical_partition_refuses_an_overlapping_part(monkeypatch):
    # Every search answers with the first one's labels: the second part of
    # fig2c would repeat the barrier {1}.
    first = []

    def stale(adj, match, root, dead):
        first.append(_augment(adj, match, root, dead))
        return first[0]

    monkeypatch.setattr(structure, "_augment", stale)
    with pytest.raises(VerificationError, match=r"\[1\] is no new barrier") as info:
        canonical_partition(named_graph("fig2c"))
    assert info.value.check == "canonical-partition"
    assert len(first) == 2


def test_canonical_partition_refuses_a_part_that_is_no_barrier(monkeypatch):
    # A search that labels only its root would make V - w u's part.
    monkeypatch.setattr(
        structure, "_augment",
        lambda adj, match, root, dead: [v == root for v in range(len(adj))],
    )
    with pytest.raises(VerificationError) as info:
        canonical_partition(named_graph("petersen"))
    assert info.value.check == "canonical-partition"


def test_is_bicritical():
    assert is_bicritical(named_graph("K4"))
    assert is_bicritical(named_graph("C6bar"))
    assert is_bicritical(named_graph("petersen"))
    assert not is_bicritical(named_graph("C6"))
    assert not is_bicritical(named_graph("K3,3"))  # bipartite, never bicritical
    assert not is_bicritical(named_graph("fig2c"))


def _bicritical_inputs() -> list[MultiGraph]:
    # Every order up to 3, graphs that are not matching covered (one
    # disconnected, one with an inadmissible edge, one with no perfect
    # matching), the corpus, and seeded graphs, half nonbipartite.
    graphs = [
        MultiGraph(0),
        MultiGraph(1),
        MultiGraph(2),
        MultiGraph(2, [(1, 2)]),
        MultiGraph(2, [(1, 2), (1, 2)]),
        MultiGraph(3, [(1, 2), (2, 3)]),
        MultiGraph(3, [(1, 2), (2, 3), (1, 3)]),
        MultiGraph(4, [(1, 2), (3, 4)]),
        MultiGraph(8, [(u, v) for k in (0, 4) for u, v in combinations(range(k + 1, k + 5), 2)]),
        named_graph("C6").add_edge(1, 3)[0],
        MultiGraph(4, [(1, 2), (1, 3), (1, 4)]),
    ]
    graphs += [g for _, g in _CORPUS]
    rng = random.Random(14)
    for i in range(40):
        make = random_mc_graph if i % 2 else random_nonbipartite_mc_graph
        graphs.append(make(rng, rng.choice((6, 8, 10)), rng.randrange(12)))
    return graphs


def test_is_bicritical_agrees_with_the_pair_scan():
    bicritical = 0
    for g in _bicritical_inputs():
        assert is_bicritical(g) == pairwise_is_bicritical(g), g
        bicritical += is_bicritical(g)
    assert bicritical >= 20


def test_even_2cuts_cycle():
    g = named_graph("C4")
    cuts = even_2cuts(g)
    assert [sorted(c.edges) for c in cuts] == [[1, 3], [2, 4]]


def test_even_2cuts_absent_in_3_connected():
    assert even_2cuts(named_graph("petersen")) == []
    assert even_2cuts(named_graph("K4")) == []


def test_even_2cuts_shores_even():
    for name in ("C6", "C8", "C10"):
        g = named_graph(name)
        for cut in even_2cuts(g):
            assert len(cut.shore) % 2 == 0
            assert len(cut.other_shore) % 2 == 0
            assert len(cut.edges) == 2


@pytest.mark.parametrize(
    "name, cls",
    [("C6", {1, 4}), ("C6", {1, 2}), ("K4", {1, 6})],
    ids=["odd-shores", "adjacent", "connected"],
)
def test_even_2cuts_refuse_a_pair_that_contradicts_the_theorem(monkeypatch, name, cls):
    # Two edges of one even-cut group cut g into two even shores.  A
    # false group whose pair cuts C6 into odd shores, whose edges share
    # an end, or which leaves K4 connected, is an error, not a skipped
    # pair.
    monkeypatch.setattr(structure, "_even_cut_groups", lambda g: [frozenset(cls)])
    with pytest.raises(VerificationError, match="even-2-cuts"):
        even_2cuts(named_graph(name))


def _assert_even_2cuts_match_brute_force(g):
    found = even_2cuts(g)
    # same order and the very same shore, not just an equal cut
    assert [(sorted(c.edges), c.shore) for c in found] == [
        (sorted(c.edges), c.shore) for c in brute_even_2cuts(g)
    ]
    return found


@pytest.mark.parametrize("g", corpus_params())
def test_even_2cuts_agree_with_brute_force_on_corpus(g):
    _assert_even_2cuts_match_brute_force(g)


@pytest.mark.parametrize("n", [18, 20])
def test_even_2cuts_agree_with_brute_force_on_sparse_graphs(n):
    for g in sparse_mc_graphs(n):
        _assert_even_2cuts_match_brute_force(g)


def test_even_2cuts_agree_with_brute_force_on_random_graphs():
    rng = random.Random(2025)
    with_cuts = doubled_with_cuts = 0
    for i in range(40):
        make = random_nonbipartite_mc_graph if i % 2 else random_mc_graph
        g = make(rng, rng.choice((6, 8, 10, 12, 14)), rng.randrange(4))
        if i % 4 >= 2:
            # a parallel copy of an edge turns any even 2-cut through it
            # into a 3-cut; the copy is admissible, so g stays covered
            u, v = g.endpoints(rng.choice(g.edge_ids))
            g = g.add_edge(u, v)[0]
        if _assert_even_2cuts_match_brute_force(g):
            with_cuts += 1
            doubled_with_cuts += i % 4 >= 2
    assert with_cuts >= 10 and doubled_with_cuts >= 3


def test_even_2cuts_agree_with_brute_force_on_bipartite_and_nonbipartite_graphs():
    # The pairs of each even-cut group, against every edge pair deleted.
    rng = random.Random(2930)
    nonbipartite = [
        random_nonbipartite_mc_graph(rng, rng.choice((6, 8, 10, 12)), rng.randrange(6))
        for _ in range(110)
    ]
    with_cuts = 0
    for g in bipartite_mc_inputs() + nonbipartite:
        with_cuts += bool(_assert_even_2cuts_match_brute_force(g))
    assert with_cuts >= 100


def test_even_2cuts_need_a_matching_covered_graph():
    path = MultiGraph(4, [(1, 2), (2, 3), (3, 4)])  # edge 2 is in no perfect matching
    with pytest.raises(DomainError):
        even_2cuts(path)


def test_vertex_connectivity_values():
    assert vertex_connectivity(named_graph("C6")) == 2
    assert vertex_connectivity(named_graph("K4")) == 3
    assert vertex_connectivity(named_graph("K3,3")) == 3
    assert vertex_connectivity(named_graph("petersen")) == 3
    assert vertex_connectivity(named_graph("K6")) == 5
    assert vertex_connectivity(named_graph("K4,4")) == 4
    assert vertex_connectivity(MultiGraph(4, [(1, 2), (2, 3), (3, 4)])) == 1
    assert vertex_connectivity(MultiGraph(4, [(1, 2), (3, 4)])) == 0


def test_vertex_connectivity_parallel_edges_do_not_help():
    g = MultiGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    doubled, _ = g.add_edge(1, 2)
    assert vertex_connectivity(doubled) == 2


def _random_simple_graph(rng: random.Random, n: int, p: float, doubled: float = 0.0):
    edges = []
    for u, v in combinations(range(1, n + 1), 2):
        if rng.random() < p:
            edges.append((u, v))
            if rng.random() < doubled:
                edges.append((u, v))
    return MultiGraph(n, edges)


def test_vertex_connectivity_small_cases():
    cases = [
        MultiGraph(1),
        MultiGraph(2, [(1, 2)]),
        MultiGraph(2, [(1, 2), (1, 2)]),
        MultiGraph(2),
        MultiGraph(5, [(1, 2), (2, 3), (4, 5)]),
        MultiGraph(5, [(1, 2), (1, 2), (2, 3), (3, 1), (4, 5), (4, 5)]),
        MultiGraph(2, [(2, 1), (1, 2), (1, 2)]),
        MultiGraph(9, list(combinations(range(1, 5), 2)) + list(combinations(range(5, 9), 2))),
    ] + [MultiGraph(n, combinations(range(1, n + 1), 2)) for n in range(3, 9)]
    expected = [0, 1, 1, 0, 0, 0, 1, 0, 2, 3, 4, 5, 6, 7]
    assert [vertex_connectivity(g) for g in cases] == expected
    assert [brute_vertex_connectivity(g) for g in cases] == expected
    assert [even_vertex_connectivity(g) for g in cases] == expected


def test_vertex_connectivity_agrees_with_brute_force():
    rng = random.Random(20261017)
    for _ in range(200):
        g = _random_simple_graph(rng, rng.randint(1, 9), rng.uniform(0.3, 1.0), 0.2)
        assert vertex_connectivity(g) == brute_vertex_connectivity(g), g.edge_ids


def test_vertex_connectivity_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    graphs = [build_high_kappa_epsilon(p, q).final for p, q in ((3, 4), (4, 4))] + [
        _random_simple_graph(rng, n, p)
        for n, p in ((16, 0.3), (24, 0.25), (32, 0.2), (48, 0.15), (64, 0.12))
    ]
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.endpoints(e) for e in g.edge_ids)
        assert vertex_connectivity(g) == nx.node_connectivity(h), g.n


def test_vertex_connectivity_runs_at_most_kappa_plus_one_times_n_flows(monkeypatch):
    g = build_high_kappa_epsilon(4, 4).final  # a new graph, so nothing is memoized yet
    flows = []
    capped_flow = structure._capped_flow

    def counted(*args):
        flows.append(args[3:5])
        return capped_flow(*args)

    monkeypatch.setattr(structure, "_capped_flow", counted)
    kappa = vertex_connectivity(g)
    assert kappa == 5
    assert len(flows) <= (kappa + 1) * g.n
    assert len(flows) == len(set(flows))


_FINALS = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4))


def _disjoint_union(g: MultiGraph, h: MultiGraph) -> MultiGraph:
    shift = g.n
    return MultiGraph(
        g.n + h.n,
        [g.endpoints(e) for e in g.edge_ids]
        + [(u + shift, v + shift) for u, v in (h.endpoints(e) for e in h.edge_ids)],
    )


def test_vertex_connectivity_agrees_with_even_scheme():
    # Even's scheme is exact at every size, so it reaches the orders that
    # the subset enumeration of brute_vertex_connectivity cannot.
    rng = random.Random(20261019)
    graphs = [build_high_kappa_epsilon(p, q).final for p, q in _FINALS]
    graphs += [named_graph(f"K{k},{k}") for k in range(1, 8)]
    for _ in range(60):
        n = rng.randint(10, 64)
        g = _random_simple_graph(rng, n, rng.uniform(2.5 / n, 0.35), rng.choice((0.0, 0.2)))
        if rng.random() < 0.2:
            g = _disjoint_union(g, _random_simple_graph(rng, rng.randint(1, 8), 0.6))
        graphs.append(g)
    kappas = [vertex_connectivity(g) for g in graphs]
    assert kappas == [even_vertex_connectivity(g) for g in graphs]
    assert kappas[:7] == [3, 3, 3, 4, 4, 5, 5]
    assert kappas[7:14] == list(range(1, 8))
    random_graphs = graphs[14:]
    assert sum(g.m > g.underlying_simple().m for g in random_graphs) >= 10
    assert sum(not g.is_connected for g in random_graphs) >= 10
    assert len(set(kappas[14:])) >= 4


def test_vertex_connectivity_when_the_least_degree_vertex_is_in_every_minimum_separator():
    # Two K6 joined only through v = 13, which meets two vertices of each:
    # v is the one vertex of least degree (4), and {v} is the only
    # minimum separator, so only the flow between two of v's neighbours,
    # one in each K6, sees kappa = 1 < delta.
    edges = list(combinations(range(1, 7), 2)) + list(combinations(range(7, 13), 2))
    g = MultiGraph(13, edges + [(13, 1), (13, 2), (13, 7), (13, 8)])
    assert min(g.degree(v) for v in g.vertices) == g.degree(13) == 4
    assert vertex_connectivity(g) == 1
    assert brute_vertex_connectivity(g) == even_vertex_connectivity(g) == 1


def test_vertex_connectivity_runs_at_most_the_least_degree_bound_of_flows(monkeypatch):
    g = build_high_kappa_epsilon(4, 4).final  # a new graph, so nothing is memoized yet
    flows = []
    capped_flow = structure._capped_flow

    def counted(*args):
        flows.append(args[3:5])
        return capped_flow(*args)

    monkeypatch.setattr(structure, "_capped_flow", counted)
    assert vertex_connectivity(g) == 5
    simple = g.underlying_simple()
    delta = min(simple.degree(v) for v in simple.vertices)
    bound = (g.n - delta - 1) + delta * (delta - 1) // 2
    assert bound == 68
    assert len(flows) <= bound
    assert len(flows) == len(set(flows))


def _blob_graph(
    rng: random.Random, a: int, b: int, k: int, doubled: float, low: bool, dense: float = 0.8
):
    # Two dense blobs of a and b vertices, joined only through k
    # separator vertices, then relabelled and the edges shuffled.  With
    # `low` the first separator vertex meets just two vertices of each
    # blob and no other separator vertex, so with complete blobs of six
    # or more its degree, 4, is the least.
    blobs = (range(a), range(a, a + b))
    sep = range(a + b, a + b + k)
    pairs = [p for blob in blobs for p in combinations(blob, 2) if rng.random() < dense]
    for s in sep:
        for blob in blobs:
            reach = 2 if low and s == sep[0] else rng.randint(2, len(blob))
            pairs += [(s, w) for w in rng.sample(blob, reach)]
    pairs += [p for p in combinations(sep[low:], 2) if rng.random() < 0.3]
    pairs += [p for p in pairs if rng.random() < doubled]
    n = a + b + k
    label = rng.sample(range(1, n + 1), n)
    edges = [(label[u], label[w]) for u, w in pairs]
    rng.shuffle(edges)
    return MultiGraph(n, edges)


def _phase1_drops(monkeypatch, g: MultiGraph) -> tuple[int, int]:
    # kappa(g), and how many flows into the sink node 2n came back below
    # the best the scan held when it started them.
    drops = []
    capped_flow = structure._capped_flow

    def counted(head, cap, arcs, source, sink, limit):
        flow = capped_flow(head, cap, arcs, source, sink, limit)
        drops.append(sink == 2 * g.n and flow < limit)
        return flow

    monkeypatch.setattr(structure, "_capped_flow", counted)
    kappa = vertex_connectivity(g)
    monkeypatch.undo()
    return kappa, sum(drops)


def test_vertex_connectivity_agrees_with_brute_force_when_best_falls_mid_scan(monkeypatch):
    # Mostly least degree above the separator size, so kappa < delta, and
    # a flow into the settled vertices comes back below the best so far.
    rng = random.Random(20261021)
    below_delta = falls = 0
    for trial in range(60):
        k = rng.randint(1, 4)
        a = rng.randint(4, 9 - k)
        g = _blob_graph(rng, a, 14 - k - a, k, rng.choice((0.0, 0.2)), trial % 4 == 0)
        kappa, drops = _phase1_drops(monkeypatch, g)
        assert kappa == brute_vertex_connectivity(g) == even_vertex_connectivity(g), trial
        delta = min(len(row) for row in g._adjacency()[1])
        below_delta += kappa < delta
        falls += drops > 0
    assert below_delta >= 30 and falls >= 20


def test_vertex_connectivity_agrees_with_even_scheme_on_joined_blobs():
    rng = random.Random(20261022)
    kappas = []
    for trial in range(40):
        k = rng.randint(1, 4)
        g = _blob_graph(rng, rng.randint(5, 18), rng.randint(5, 18), k,
                        rng.choice((0.0, 0.2)), trial % 4 == 0)
        kappas.append(vertex_connectivity(g))
        assert kappas[-1] == even_vertex_connectivity(g), trial
    assert set(kappas) >= {1, 2, 3, 4}


def test_vertex_connectivity_when_a_separator_holds_the_least_degree_vertex():
    # Two K6 joined through k <= 2 separator vertices, the first meeting
    # two vertices of each: blob vertices have degree 5 or more, so every
    # vertex of least degree 4 lies in the separator, and kappa = k.
    rng = random.Random(20261023)
    for trial in range(20):
        k = 1 + trial % 2
        g = _blob_graph(rng, 6, 6, k, rng.choice((0.0, 0.2)), True, dense=1.0)
        assert min(len(row) for row in g._adjacency()[1]) == 4
        assert vertex_connectivity(g) == brute_vertex_connectivity(g) == k, trial
        assert even_vertex_connectivity(g) == k


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_barrier_parity(seed):
    # odd components of G - B are counted exactly by the definition
    rng = random.Random(seed)
    from conftest import random_mc_graph, random_nonbipartite_mc_graph

    g = random_mc_graph(rng, rng.choice((6, 8, 10)), rng.randrange(5))
    h = random_nonbipartite_mc_graph(rng, rng.choice((6, 8, 10)), rng.randrange(5))
    assert h.bipartition() is None
    for k in (g, h):
        for p in canonical_partition(k):
            comps = k.components(removed=set(p))
            odd = sum(1 for c in comps if len(c) % 2)
            assert odd == len(p)
