import collections
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchcover.cuts
from matchcover.cuts import (
    _leaf_removability,
    _removability,
    is_removable_edge,
    removable_classes,
    removable_edges,
    tight_cut_decomposition,
)
from matchcover.dependence import (
    EquivalencePartition,
    class_of,
    depends_on,
    epsilon,
    equivalence_partition,
    is_equivalence_class,
    mutually_dependent,
)
from matchcover.errors import DomainError, VerificationError
from matchcover.generators import build_high_kappa_epsilon, labeled_edge, named_graph
from matchcover.matching import _augment, _engine, _pm_minus, is_admissible, is_matching_covered
from matchcover.multigraph import MultiGraph
from matchcover.structure import canonical_partition, even_2cuts

from _oracles import (
    all_pms,
    brute_removable_classes,
    brute_removable_edges,
    deletion_depends,
    incidence_partition,
    pairwise_class_of,
    pairwise_equivalence_partition,
    pm_removable,
    pool_removable,
    search_depends,
    sweep_removable,
    table_removable_classes,
)
from conftest import (
    _CORPUS,
    corpus_params,
    gen,
    gen_graph,
    random_mc_graph,
    random_nonbipartite_mc_graph,
    random_splice,
    sparse_mc_graphs,
)


def test_depends_on_cycle():
    g = named_graph("C6")
    # edges 1,3,5 share one pm, 2,4,6 the other
    assert depends_on(g, 1, 3)
    assert depends_on(g, 3, 1)
    assert not depends_on(g, 1, 2)
    assert depends_on(g, 1, 1)


def test_mutual_dependence_symmetric():
    g = named_graph("C6bar")
    f2, f1 = labeled_edge(g, "f2"), labeled_edge(g, "f1")
    assert mutually_dependent(g, f2, f1)
    assert mutually_dependent(g, f1, f2)


def test_c6bar_partition_frozen():
    g = named_graph("C6bar")
    eq = equivalence_partition(g)
    assert sorted(sorted(c) for c in eq) == [[1, 4], [2, 5], [3, 6], [7], [8], [9]]
    assert eq.epsilon == 2


def test_cycle_partition_is_the_two_matchings():
    g = named_graph("C8")
    eq = equivalence_partition(g)
    assert sorted(sorted(c) for c in eq) == [[1, 3, 5, 7], [2, 4, 6, 8]]
    assert epsilon(g) == 4


def test_epsilon_known_values():
    assert epsilon(named_graph("K4")) == 2
    assert epsilon(named_graph("K3,3")) == 1
    assert epsilon(named_graph("petersen")) == 1
    assert epsilon(named_graph("C4")) == 2
    assert epsilon(named_graph("K4,4")) == 1


def test_class_of_matches_partition():
    for name in ("C6", "C6bar", "fig2b", "fig2c", "K4"):
        g = named_graph(name)
        eq = equivalence_partition(g)
        for e in g.edge_ids:
            expected = next(c for c in eq if e in c)
            assert class_of(g, e) == expected, name


def test_is_equivalence_class():
    g = named_graph("C6bar")
    assert is_equivalence_class(g, {1, 4})
    assert not is_equivalence_class(g, {1})
    assert not is_equivalence_class(g, {1, 4, 7})
    assert is_equivalence_class(g, {7})


@pytest.mark.parametrize("extra", [{999}, {998, 999}])
@pytest.mark.parametrize("known", [set(), {1, 4}, {7}, {1, 2}])
def test_is_equivalence_class_names_every_unknown_id(known, extra):
    # An unknown id is refused whether or not it is the least id given.
    g = named_graph("C6bar")
    with pytest.raises(DomainError, match=f"unknown edge id {', '.join(map(str, sorted(extra)))}$"):
        is_equivalence_class(g, known | extra)


def test_parallel_edges_are_mutually_dependent_nowhere():
    # two parallel edges never lie in a common pm, and each replaces the
    # other, so neither depends on the other
    g, e = named_graph("C4").add_edge(1, 2)
    assert not depends_on(g, 1, e)
    assert not depends_on(g, e, 1)


@pytest.mark.parametrize("g", corpus_params())
def test_partition_agrees_with_enumeration(g):
    assert tuple(sorted(equivalence_partition(g), key=min)) == incidence_partition(g)


@pytest.mark.parametrize("g", corpus_params())
def test_partition_covers_edges_once(g):
    eq = equivalence_partition(g)
    flat = sorted(e for c in eq for e in c)
    assert flat == sorted(g.edge_ids)


@pytest.mark.parametrize("n", (18, 20))
def test_partition_agrees_with_enumeration_past_bitmask_limit(n):
    # larger than the n <= 16 corpus, and nonbipartite graphs among them
    for g in sparse_mc_graphs(n):
        assert g.n == n > 16
        assert tuple(sorted(equivalence_partition(g), key=min)) == incidence_partition(g)


def test_removable_edges_k2_rejected():
    with pytest.raises(DomainError):
        removable_edges(MultiGraph(2, [(1, 2)]))


def test_removable_edges_cycle_none():
    assert removable_edges(named_graph("C6")) == ()


def test_removable_edges_known():
    g = named_graph("K4,4")
    # every edge of a brace of order >= 6 is removable
    assert removable_edges(g) == g.edge_ids
    # fig2b has exactly one
    assert len(removable_edges(named_graph("fig2b"))) == 1


def test_removable_edge_definition():
    g = named_graph("K4,4")
    for e in g.edge_ids[:4]:
        assert is_removable_edge(g, e)
        assert is_matching_covered(g.delete_edge(e))


def test_removable_classes_doubleton():
    g = named_graph("C6bar")
    classes = removable_classes(g)
    # the three doubletons are removable, the three singletons are not
    assert sorted(sorted(c) for c in classes) == [[1, 4], [2, 5], [3, 6]]
    for c in classes:
        assert is_matching_covered(g.delete_edges(c))


@pytest.mark.parametrize("g", corpus_params())
def test_removable_classes_are_classes_and_small(g):
    if g.n <= 2:
        return
    eq = set(equivalence_partition(g).classes)
    for c in removable_classes(g):
        assert c in eq
        assert len(c) <= 2
        assert is_matching_covered(g.delete_edges(c))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_random_partition_agrees_with_enumeration(seed):
    rng = random.Random(seed)
    g = random_mc_graph(rng, rng.choice((4, 6, 8)), rng.randrange(6))
    h = random_nonbipartite_mc_graph(rng, rng.choice((4, 6, 8)), rng.randrange(6))
    assert h.bipartition() is None
    for k in (g, h):
        assert tuple(sorted(equivalence_partition(k), key=min)) == incidence_partition(k)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_dependence_transitive_through_classes(seed):
    rng = random.Random(seed)
    g = random_mc_graph(rng, 6, rng.randrange(5))
    h = random_nonbipartite_mc_graph(rng, 6, rng.randrange(5))
    assert h.bipartition() is None
    for k in (g, h):
        for c in equivalence_partition(k):
            members = sorted(c)
            for i, e in enumerate(members):
                for f in members[i + 1 :]:
                    assert mutually_dependent(k, e, f)


def _assert_removability_agrees(g: MultiGraph) -> None:
    # Against the deletion oracles, the earlier pool body on every edge
    # and class, and the perfect matchings themselves on small graphs.
    edges = removable_edges(g)
    classes = removable_classes(g)
    assert edges == brute_removable_edges(g)
    assert classes == brute_removable_classes(g)
    assert [is_removable_edge(g, e) for e in g.edge_ids] == [e in edges for e in g.edge_ids]
    assert [pool_removable(g, frozenset((e,))) for e in g.edge_ids] == [
        e in edges for e in g.edge_ids
    ]
    assert [pool_removable(g, c) for c in equivalence_partition(g)] == [
        c in classes for c in equivalence_partition(g)
    ]
    if g.n <= 8:
        for e in g.edge_ids:
            assert pm_removable(g, frozenset((e,))) == (e in edges)
        for c in equivalence_partition(g):
            assert pm_removable(g, c) == (c in classes)


@pytest.mark.parametrize("g", corpus_params())
def test_removability_agrees_with_per_edge_tests(g):
    _assert_removability_agrees(g)


@pytest.mark.parametrize("n", (18, 20, 22))
def test_removability_agrees_with_per_edge_tests_on_sparse_graphs(n):
    for g in sparse_mc_graphs(n):
        _assert_removability_agrees(g)


def test_removability_agrees_on_seeded_random_graphs():
    # Half non-bipartite (removable classes of two edges occur only
    # there), and a third with one edge doubled.
    rng = random.Random(7_2019)
    larger_removable = 0
    for i in range(120):
        make = random_mc_graph if i % 2 else random_nonbipartite_mc_graph
        g = make(rng, rng.choice((6, 8, 10)), rng.randrange(2, 10))
        if i % 3 == 0:
            g = g.add_edge(*g.endpoints(rng.choice(g.edge_ids)))[0]
        _assert_removability_agrees(g)
        larger_removable += any(len(c) >= 2 for c in removable_classes(g))
    assert larger_removable >= 40


def test_removability_agrees_on_the_3_3_final():
    _assert_removability_agrees(build_high_kappa_epsilon(3, 3).final)


def test_removability_agrees_on_seeded_bipartite_graphs():
    # Sparse and dense (minimum degree 3) bipartite graphs, n = 6..24,
    # about a third with one edge doubled: decided by the matching digraph.
    rng = random.Random(21_2019)
    doubled = 0
    for i in range(160):
        n = 6 + 2 * (i % 10)
        dense = i % 2 == 1 and n >= 8
        g = gen_graph(gen.bipartite_mc(rng, n, n if dense else n // 4, 3 if dense else 2))
        if i % 3 == 0:
            g = g.add_edge(*g.endpoints(rng.choice(g.edge_ids)))[0]
            doubled += 1
        assert g.is_bipartite
        _assert_removability_agrees(g)
    assert doubled >= 50


@pytest.mark.parametrize("piece", sorted(gen.PIECES))
def test_removability_agrees_on_seeded_nonbipartite_graphs(piece):
    # Each brick of the benchmark's generator spliced into a bipartite
    # base, every third graph with one edge doubled: decided by the
    # growing table and the g - R engines.
    rng = random.Random(len(piece))
    larger = 0
    for i in range(36):
        g = gen_graph(gen.nonbipartite_mc(rng, rng.choice((8, 10, 12)), rng.randrange(1, 6), [piece]))
        if i % 3 == 0:
            g = g.add_edge(*g.endpoints(rng.choice(g.edge_ids)))[0]
        assert not g.is_bipartite
        _assert_removability_agrees(g)
        larger += any(len(c) > 1 for c in equivalence_partition(g))
    assert larger


@pytest.mark.parametrize("name", ["C6bar", "K4", "prism3", "K3,3", "prism4", "C8"])
def test_removability_with_each_edge_doubled(name):
    # An edge with a parallel twin is a class of its own, and deleting
    # it leaves its pair in place: both twins are removable.  Doubling
    # an edge of a larger class of C6bar splits that class.
    g = named_graph(name)
    for e in g.edge_ids:
        h, twin = g.add_edge(*g.endpoints(e))
        _assert_removability_agrees(h)
        assert is_removable_edge(h, e) and is_removable_edge(h, twin)
        assert {frozenset((e,)), frozenset((twin,))} <= set(removable_classes(h))


def _assert_removability_agrees_with_brute_force(g: MultiGraph) -> None:
    classes = removable_classes(g)
    edges = removable_edges(g)
    assert classes == brute_removable_classes(g)
    assert edges == brute_removable_edges(g)
    assert [is_removable_edge(g, e) for e in g.edge_ids] == [e in edges for e in g.edge_ids]


def _leaf_kinds(g: MultiGraph) -> set[str]:
    # What the decomposition of g holds that removability reads leaf by leaf.
    leaves = tight_cut_decomposition(g).leaves
    kinds = {"c4" for h, tag in leaves if tag == "brace" and h.n == 4}
    if len(leaves) > 1:
        kinds.add("several")
        if any(tag == "brick" for _, tag in leaves):
            kinds.add("brick beside")
    if any(tag == "brick" and h.n == 4 and h.m > 6 for h, tag in leaves):
        kinds.add("K4 with parallel edges")
    return kinds


def test_removability_agrees_on_seeded_graphs_with_several_leaves():
    # Random matching covered graphs up to 14 vertices, half of them
    # nonbipartite and every third with one edge doubled, decided leaf by
    # leaf: brick leaves by the table, C4 leaves by their four sides.
    rng = random.Random(26_2019)
    seen = collections.Counter()
    for i in range(300):
        make = random_mc_graph if i % 2 else random_nonbipartite_mc_graph
        g = make(rng, rng.choice((6, 8, 10, 12, 14)), rng.randrange(0, 8))
        if i % 3 == 0:
            g = g.add_edge(*g.endpoints(rng.choice(g.edge_ids)))[0]
        _assert_removability_agrees_with_brute_force(g)
        seen.update(_leaf_kinds(g))
    assert seen["several"] >= 200 and seen["c4"] >= 200 and seen["brick beside"] >= 80
    assert seen["K4 with parallel edges"] >= 20


def test_removability_agrees_on_seeded_splices_of_small_leaves():
    # A brick or a brace spliced into a random graph, every third result
    # with one edge doubled, which can leave a K4 leaf with parallel edges.
    rng = random.Random(2_6)
    pieces = ("K4", "prism3", "C6bar", "W5", "C4", "K3,3", "petersen")
    seen = collections.Counter()
    done = 0
    while done < 100:
        base = random_mc_graph(rng, rng.choice((6, 8, 10)), rng.randrange(0, 6))
        g = random_splice(rng, base, named_graph(pieces[done % len(pieces)]))
        if g is None:
            continue
        if done % 3 == 0:
            g = g.add_edge(*g.endpoints(rng.choice(g.edge_ids)))[0]
        _assert_removability_agrees_with_brute_force(g)
        seen.update(_leaf_kinds(g))
        done += 1
    assert seen["brick beside"] >= 60 and seen["K4 with parallel edges"] >= 3


def test_c4_leaf_test_agrees_with_the_definition():
    # Every C4 with side multiplicities in {1, 2, 3}, minus every nonempty
    # set of its edges: matching covered exactly when each side keeps one.
    for mult in itertools.product((1, 2, 3), repeat=4):
        sides = [(1, 2), (2, 3), (3, 4), (4, 1)]
        h = MultiGraph(4, [side for side, k in zip(sides, mult) for _ in range(k)])
        removable = _leaf_removability(h, "brace")
        for size in range(1, h.m + 1):
            for r in itertools.combinations(h.edge_ids, size):
                assert removable(frozenset(r)) == is_matching_covered(h.delete_edges(r)), (mult, r)


def _analyze_large_graphs(seed: int) -> list[MultiGraph]:
    # The seeded graphs of perfbench/workloads.py's analyze-large, drawn
    # as its recipes draw them, in order, from the workload's seeded rng.
    rng = random.Random(f"analyze-large/{seed}")
    recipes = [lambda r: gen.bipartite_mc(r, 16, 4), lambda r: gen.nonbipartite_mc(r, 14, 4, ["K4"])]
    for n in (20, 20, 22, 22, 24, 24):
        recipes.append(lambda r, n=n: gen.bipartite_mc(r, n, n // 4))
        recipes.append(lambda r, n=n: gen.nonbipartite_mc(r, n - 2, n // 4, ["K4"]))
    recipes.append(lambda r: gen.bipartite_mc(r, 28, 56, min_degree=3))  # bip28-dense
    recipes.append(lambda r: gen.nonbipartite_mc(r, 28, 56, ["W5"], min_degree=3))  # nb32-dense
    return [gen_graph(gen.relabel(rng, make(rng))) for make in recipes]


def test_removability_agrees_with_the_whole_graph_pass_past_brute_force():
    # The (3,3) final, K_{k,k} with and without a doubled edge, and the
    # analyze-large graphs at seed 7, several past EXHAUSTIVE_LIMIT: the
    # same classes as one pass over g's own partition, with no refusal.
    graphs = [build_high_kappa_epsilon(3, 3).final]
    for k in range(2, 8):
        g = named_graph(f"K{k},{k}")
        graphs += [g, g.add_edge(*g.endpoints(1))[0]]
    graphs += _analyze_large_graphs(7)
    assert max(g.n for g in graphs) > matchcover.cuts.EXHAUSTIVE_LIMIT
    for g in graphs:
        classes = removable_classes(g)
        assert classes == table_removable_classes(g)
        assert removable_edges(g) == tuple(min(c) for c in classes if len(c) == 1)


def test_removability_refuses_a_larger_class_on_a_big_brace(monkeypatch):
    # Every class of a brace on six or more vertices is a single edge, so
    # a larger one is an engine fault: refuse it.
    g = named_graph("K3,3")
    merged = EquivalencePartition((frozenset((1, 5)),) + tuple(
        frozenset((e,)) for e in g.edge_ids if e not in (1, 5)
    ))
    monkeypatch.setattr(matchcover.cuts, "equivalence_partition", lambda h: merged)
    with pytest.raises(VerificationError) as info:
        removable_classes(g)
    assert info.value.check == "removability"


def test_removability_needs_a_matching_covered_graph():
    # like the partitions and the even 2-cuts read off them
    g = MultiGraph(4, [(1, 2), (2, 3), (3, 4)])  # edge 2 is in no perfect matching
    queries = (
        removable_edges,
        removable_classes,
        lambda h: is_removable_edge(h, 1),
        even_2cuts,
        equivalence_partition,
        canonical_partition,
    )
    for query in queries:
        with pytest.raises(DomainError, match="matching covered"):
            query(g)


def _assert_signature_queries_agree(g: MultiGraph) -> None:
    # The signature-filtered queries against the pairwise ones they
    # replace, and the partition against full enumeration.
    classes = equivalence_partition(g).classes
    assert classes == pairwise_equivalence_partition(g).classes == incidence_partition(g)
    for e in g.edge_ids:
        assert class_of(g, e) == pairwise_class_of(g, e)
    removable = _removability(g)
    for r in {frozenset((e,)) for e in g.edge_ids} | set(classes):
        assert removable(r) == sweep_removable(g, r) == pool_removable(g, r)


@pytest.mark.parametrize("g", corpus_params())
def test_signature_queries_agree_with_pairwise_tests(g):
    _assert_signature_queries_agree(g)


@pytest.mark.parametrize("n", (18, 20))
def test_signature_queries_agree_with_pairwise_tests_on_sparse_graphs(n):
    for g in sparse_mc_graphs(n):
        _assert_signature_queries_agree(g)


def test_signature_queries_agree_on_seeded_random_graphs():
    # Bipartite and non-bipartite in turn, every other pair with one
    # edge doubled (parallel edges share a signature).
    rng = random.Random(12_1999)
    for i in range(40):
        make = random_mc_graph if i % 2 else random_nonbipartite_mc_graph
        g = make(rng, rng.choice((6, 8, 10, 12)), rng.randrange(2, 12))
        if i // 2 % 2:
            g = g.add_edge(*g.endpoints(rng.choice(g.edge_ids)))[0]
        _assert_signature_queries_agree(g)


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(MultiGraph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]), id="path"),
        pytest.param(named_graph("C6").add_edge(1, 3)[0], id="C6+inadmissible"),
        pytest.param(MultiGraph(4, [(1, 2), (1, 3), (1, 4)]), id="star"),
        pytest.param(MultiGraph(3, [(1, 2), (2, 3), (1, 3)]), id="triangle"),
    ],
)
def test_class_of_agrees_with_pairwise_tests_off_matching_covered_graphs(g):
    # The inadmissible edges have signature 0 and form one class.
    assert not is_matching_covered(g)
    inadmissible = frozenset(e for e in g.edge_ids if not is_admissible(g, e))
    assert inadmissible
    for e in g.edge_ids:
        assert class_of(g, e) == pairwise_class_of(g, e)
        if e in inadmissible:
            assert class_of(g, e) == inadmissible


def _dependence_graphs() -> list[MultiGraph]:
    # Matching covered graphs with and without parallel edges, graphs
    # with inadmissible edges, one with no perfect matching, one of odd
    # order, and seeded random graphs with one edge doubled.
    c6_chord = named_graph("C6").add_edge(1, 3)[0]
    k4_triple = named_graph("K4").add_edge(1, 2)[0].add_edge(1, 2)[0]
    graphs = [dict(_CORPUS)[name] for name in ("C6bar", "K4+parallel", "C6bar+parallel", "prism3")]
    graphs += [
        c6_chord,
        k4_triple,
        MultiGraph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
        MultiGraph(4, [(1, 2), (1, 3), (1, 4)]),
        MultiGraph(3, [(1, 2), (2, 3), (1, 3)]),
        MultiGraph(4, [(1, 2), (3, 4)]),
        MultiGraph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (3, 4)]),
    ]
    rng = random.Random(14_2019)
    for i in range(8):
        make = random_mc_graph if i % 2 else random_nonbipartite_mc_graph
        g = make(rng, rng.choice((6, 8, 10)), rng.randrange(2, 8))
        graphs.append(g.add_edge(*g.endpoints(rng.choice(g.edge_ids)))[0])
    return graphs


def test_depends_on_agrees_with_the_definition_on_every_ordered_pair():
    # Every ordered pair, against "every perfect matching through e uses
    # f" by enumeration, against the deletion test on g - f, and against
    # the Gallai-Edmonds search test that the one-query test replaces.
    kinds = dict.fromkeys(
        ("e = f", "adjacent", "parallel", "f has a twin", "inadmissible e", "not mc"), 0
    )
    for g in _dependence_graphs():
        pms = all_pms(g)
        mc = is_matching_covered(g)
        for e in g.edge_ids:
            admissible = any(e in pm for pm in pms)
            for f in g.edge_ids:
                expected = all(f in pm for pm in pms if e in pm)
                assert depends_on(g, e, f) == expected == deletion_depends(g, e, f), (g, e, f)
                assert search_depends(g, e, f) == expected, (g, e, f)
                assert mutually_dependent(g, e, f) == (expected and depends_on(g, f, e))
                ends, f_ends = g.endpoints(e), g.endpoints(f)
                kinds["e = f"] += e == f
                kinds["adjacent"] += len(set(ends) & set(f_ends)) == 1
                kinds["parallel"] += e != f and ends == f_ends
                kinds["f has a twin"] += ends != f_ends and len(g.edges_between(*f_ends)) > 1
                kinds["inadmissible e"] += not admissible
                kinds["not mc"] += not mc
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("name", ["C6", "C6bar", "K4+parallel", "prism3"])
def test_depends_is_one_matching_query(name):
    # e depends on f exactly when g - ends(e) - f has no perfect
    # matching: each ordered pair e != f asks one _pm_minus query of g
    # and e = f none, and every alternating search runs inside a query.
    g = dict(_CORPUS)[name]
    queries, stray = [], []

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is _pm_minus.__code__:
            args = frame.f_locals
            queries.append((args["g"], args["gone"], tuple(args["without"])))
        elif frame.f_code is _augment.__code__ and frame.f_back.f_code is not _pm_minus.__code__:
            stray.append(frame.f_back.f_code.co_name)

    for e in g.edge_ids:
        for f in g.edge_ids:
            queries.clear()
            sys.setprofile(profile)
            try:
                depends_on(g, e, f)
            finally:
                sys.setprofile(None)
            expected = [] if e == f else [(g, frozenset(g.endpoints(e)), (f,))]
            assert queries == expected, (e, f)
    assert stray == []
