import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchcover.matching
from matchcover.errors import CapabilityError, DomainError, VerificationError
from matchcover.generators import named_graph
from matchcover.matching import (
    _mc_witness,
    _pm_minus,
    enumerate_pms,
    has_pm_containing,
    is_admissible,
    is_matchable,
    is_matching_covered,
    matchable_minus,
    maximum_matching,
)
from matchcover.multigraph import MultiGraph

from _oracles import all_pms, brute_matchable_minus, brute_max_matching, pool_mc_witness
from conftest import (
    corpus_params,
    gen,
    gen_graph,
    random_graph,
    random_mc_graph,
    random_nonbipartite_mc_graph,
    sparse_mc_graphs,
)


def test_matchable_basics():
    assert is_matchable(named_graph("C6"))
    assert is_matchable(named_graph("petersen"))
    assert not is_matchable(MultiGraph(3, [(1, 2), (2, 3)]))
    # even order but no perfect matching: a star
    star = MultiGraph(4, [(1, 2), (1, 3), (1, 4)])
    assert not is_matchable(star)


def test_maximum_matching_known_values():
    assert len(maximum_matching(named_graph("petersen"))) == 5
    assert len(maximum_matching(MultiGraph(4, [(1, 2), (1, 3), (1, 4)]))) == 1
    assert len(maximum_matching(named_graph("K6"))) == 3


def test_maximum_matching_is_a_matching():
    g = named_graph("K4,4")
    matching = maximum_matching(g)
    seen = set()
    for e in matching:
        u, v = g.endpoints(e)
        assert u not in seen and v not in seen
        seen.update((u, v))


def test_has_pm_containing():
    g = named_graph("C6")
    assert has_pm_containing(g, (1,))
    assert has_pm_containing(g, (1, 3, 5))
    assert not has_pm_containing(g, (1, 2))  # adjacent edges
    assert not has_pm_containing(g, (1, 4))  # different matchings


def test_has_pm_containing_counts_a_repeated_id_once():
    g = named_graph("C4")
    assert has_pm_containing(g, [1])
    assert has_pm_containing(g, [1, 1])
    assert has_pm_containing(g, (1, 3, 1, 3))
    assert not has_pm_containing(g, [1, 1, 2])


def test_has_pm_containing_unknown_edge():
    g = named_graph("C6")
    assert not has_pm_containing(g, (99,))


def test_matchable_minus():
    g = named_graph("C6")
    assert matchable_minus(g, (1, 2))
    assert not matchable_minus(g, (1, 3))


def test_matchable_minus_unknown_vertex():
    with pytest.raises(DomainError, match=r"unknown vertices: \[99\]"):
        matchable_minus(named_graph("C6"), (1, 99))


@pytest.mark.parametrize(
    "removed", [(99,), (1, 2, 99), (99, 100)], ids=["99", "1-2-99", "99-100"]
)
def test_matchable_minus_refuses_unknown_vertices_before_the_parity_check(
    monkeypatch, removed
):
    # An odd count of remaining vertices must not hide an unknown id, and
    # the ids are checked before any matching engine is built.
    def no_engine(g):
        raise AssertionError("engine built for unknown ids")

    monkeypatch.setattr(matchcover.matching, "_engine", no_engine)
    unknown = sorted(v for v in removed if v > 6)
    with pytest.raises(DomainError, match=rf"unknown vertices: {re.escape(str(unknown))}"):
        matchable_minus(named_graph("C6"), removed)


def test_admissible_and_matching_covered():
    g = named_graph("petersen")
    assert all(is_admissible(g, e) for e in g.edge_ids)
    assert is_matching_covered(g)
    # a graph with an inadmissible edge: two triangles sharing a path
    h = MultiGraph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 3)])
    assert is_matchable(h)
    assert not is_admissible(h, 7)
    assert not is_matching_covered(h)


def test_not_matching_covered_when_disconnected():
    g = MultiGraph(4, [(1, 2), (3, 4)])
    assert is_matchable(g)
    assert not is_matching_covered(g)


def test_enumerate_pms_counts():
    assert len(enumerate_pms(named_graph("C6"))) == 2
    assert len(enumerate_pms(named_graph("petersen"))) == 6
    assert len(enumerate_pms(named_graph("K4"))) == 3
    assert len(enumerate_pms(named_graph("K3,3"))) == 6


def test_enumerate_pms_budget(monkeypatch):
    monkeypatch.setenv("MATCHCOVER_BUDGET", "10")
    refusal = (
        r"perfect matching enumeration: limited to 10 matchings, found more "
        r"\(default matching\.DEFAULT_PM_BUDGET; set MATCHCOVER_BUDGET to "
        r"raise it, or use the polynomial predicates\)$"
    )
    with pytest.raises(CapabilityError, match=refusal):
        enumerate_pms(named_graph("K4,4"))


def test_budget_env_override(monkeypatch):
    from matchcover.matching import pm_budget

    assert pm_budget() == 100_000
    monkeypatch.setenv("MATCHCOVER_BUDGET", "7")
    assert pm_budget() == 7


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_bad_budget_env_is_rejected(monkeypatch, raw):
    from matchcover.errors import DomainError
    from matchcover.matching import pm_budget

    monkeypatch.setenv("MATCHCOVER_BUDGET", raw)
    with pytest.raises(DomainError, match="MATCHCOVER_BUDGET"):
        pm_budget()


@pytest.mark.parametrize("g", corpus_params())
def test_corpus_matching_covered(g):
    assert is_matching_covered(g)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 11), st.integers(0, 8))
def test_maximum_matching_matches_brute_force(seed, n, extra):
    rng = random.Random(seed)
    g = random_graph(rng, n, extra)
    assert len(maximum_matching(g)) == brute_max_matching(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 10), st.integers(0, 6))
def test_enumeration_agrees_with_oracle(seed, n, extra):
    rng = random.Random(seed)
    g = random_graph(rng, n, extra)
    assert sorted(enumerate_pms(g)) == sorted(all_pms(g))


def test_both_engines_agree_across_the_size_boundary():
    # even cycles just below, at and above 16 vertices
    for n in (14, 16, 18):
        g = named_graph(f"C{n}")
        assert is_matchable(g)
        assert is_matching_covered(g)
        assert not matchable_minus(g, (1, 3))


def _removed_sets(rng: random.Random, g: MultiGraph, count: int) -> list[frozenset[int]]:
    """`count` random removed sets of 0..4 vertices (odd sizes too), in
    random order, with the first few asked again at the end."""
    sets = [
        frozenset(rng.sample(g.vertices, rng.randrange(min(4, g.n) + 1)))
        for _ in range(count)
    ]
    return sets + sets[:3]


def _differential_graphs(rng: random.Random, n: int) -> list[MultiGraph]:
    """A connected graph that may have no perfect matching (odd n, or
    parallel edges from the random extra edges), and for even n >= 4 a
    bipartite and a non-bipartite matching covered graph."""
    graphs = [random_graph(rng, n, rng.randrange(2 * n))]
    if n % 2 == 0 and n >= 4:
        graphs.append(random_mc_graph(rng, n, rng.randrange(n)))
        graphs.append(random_nonbipartite_mc_graph(rng, n, rng.randrange(n)))
    return graphs


def _check_queries(g: MultiGraph, removed_sets, oracle) -> None:
    # the cached matching must come out of every query untouched
    before = maximum_matching(g)
    for removed in removed_sets:
        assert matchable_minus(g, removed) == oracle(removed), sorted(removed)
    assert maximum_matching(g) == before


def test_matchable_minus_agrees_with_brute_force_under_many_queries():
    rng = random.Random(2024)
    seen: Counter = Counter()
    for _ in range(300):
        for g in _differential_graphs(rng, rng.randrange(2, 13)):
            removed_sets = _removed_sets(rng, g, 25)
            _check_queries(g, removed_sets, lambda removed: brute_matchable_minus(g, removed))
            seen["no perfect matching"] += not brute_matchable_minus(g, ())
            seen["parallel edges"] += len({g.endpoints(e) for e in g.edge_ids}) < g.m
            seen["non-bipartite"] += g.bipartition() is None
            seen["odd removed set, even rest"] += any(
                len(s) % 2 == 1 and g.n % 2 == 1 for s in removed_sets
            )
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


@pytest.mark.parametrize("n", range(16, 41))
def test_matchable_minus_agrees_with_networkx_under_many_queries(n):
    nx = pytest.importorskip("networkx")
    rng = random.Random(n)
    graphs = [random_graph(rng, n, rng.randrange(n, 2 * n))]
    if n % 2 == 0:
        graphs += sparse_mc_graphs(n, count=1)  # one bipartite, one not

    def nx_matchable_minus(g: MultiGraph, removed: frozenset[int]) -> bool:
        h = nx.Graph(g.endpoints(e) for e in g.edge_ids)
        h.remove_nodes_from(removed)
        return 2 * len(nx.max_weight_matching(h, maxcardinality=True)) == g.n - len(removed)

    for g in graphs:
        h = nx.Graph(g.endpoints(e) for e in g.edge_ids)
        assert len(maximum_matching(g)) == len(nx.max_weight_matching(h, maxcardinality=True))
        _check_queries(g, _removed_sets(rng, g, 8), lambda removed: nx_matchable_minus(g, removed))


def _is_pm_minus(g: MultiGraph, match, gone, without) -> bool:
    """Is the mate list a perfect matching of g - gone - without?"""
    verts = g.vertices
    return all(
        (w == -1) if v in gone else (
            w != -1 and match[w] == i and verts[w] not in gone
            and any(f not in without for f in g.edges_between(v, verts[w]))
        )
        for i, (v, w) in enumerate(zip(verts, match))
    )


def test_pm_minus_without_edges_agrees_with_the_graph_minus_those_edges():
    # g minus vertices S and edges F, asked of g's own engine, against a
    # new graph g - F asked about S; every mate list returned is a
    # perfect matching of g - S - F, and g's cached matching is untouched.
    rng = random.Random(22_2019)
    seen: Counter = Counter()
    for _ in range(120):
        for g in _differential_graphs(rng, rng.randrange(2, 13)):
            g = g.add_edge(*g.endpoints(rng.choice(g.edge_ids)))[0]  # one parallel pair
            cached = maximum_matching(g)
            for _ in range(30):
                gone = frozenset(rng.sample(g.vertices, rng.randrange(min(3, g.n) + 1)))
                without = set(rng.sample(g.edge_ids, rng.randrange(min(3, g.m) + 1)))
                if rng.random() < 0.5:  # empty a pair of the cached matching
                    without.update(g.edges_between(*g.endpoints(rng.choice(sorted(cached)))))
                match = _pm_minus(g, gone, frozenset(without))
                assert (match is not None) == matchable_minus(g.delete_edges(without), gone)
                assert match is None or _is_pm_minus(g, match, gone, without)
                pairs = {g.endpoints(f) for f in without}
                seen["a matched pair emptied"] += any(
                    set(g.edges_between(*g.endpoints(e))) <= without
                    for e in cached if g.endpoints(e)[0] not in gone
                    and g.endpoints(e)[1] not in gone
                )
                seen["a twin survives"] += any(
                    not set(g.edges_between(*pair)) <= without for pair in pairs
                )
                seen["matchable"] += match is not None
                seen["not matchable, even rest"] += match is None and (g.n - len(gone)) % 2 == 0
            seen["no perfect matching"] += not matchable_minus(g)
            seen["odd order"] += g.n % 2
            assert maximum_matching(g) == cached
    assert len(seen) == 6 and min(seen.values()) >= 20, seen


def _bipartite_verdict_inputs() -> list[MultiGraph]:
    # 240 seeded connected bipartite graphs with a perfect matching: odd
    # ones matching covered by construction (a Hamiltonian cycle plus
    # chords), even ones a planted perfect matching plus random edges
    # across the sides (mostly not matching covered); every fourth with
    # one edge doubled.
    rng = random.Random(24)
    graphs = []
    while len(graphs) < 240:
        k = rng.randrange(3, 10)
        if len(graphs) % 2:
            g = gen_graph(gen.bipartite_mc(rng, 2 * k, rng.randrange(k + 1)))
        else:
            mates = list(range(k + 1, 2 * k + 1))
            rng.shuffle(mates)
            edges = list(enumerate(mates, 1))
            for _ in range(rng.randrange(k - 1, 3 * k)):
                edges.append((rng.randrange(1, k + 1), rng.randrange(k + 1, 2 * k + 1)))
            g = MultiGraph(2 * k, edges)
            if not g.is_connected:
                continue
        if len(graphs) % 4 == 0:
            g = g.add_edge(*g.endpoints(rng.choice(g.edge_ids)))[0]
        graphs.append(g)
    return graphs


def test_mc_witness_matches_the_pool_on_bipartite_graphs():
    # The digraph verdict, and the edge the pool names when it says no,
    # against the pool alone, each on its own copy of the graph.
    seeded = _bipartite_verdict_inputs()
    graphs = list(seeded)
    for k in range(1, 7):
        g = named_graph(f"K{k},{k}")
        graphs += [g, g.add_edge(*g.endpoints(1))[0]]
    for g in graphs:
        assert g.is_bipartite
        twin = MultiGraph.with_ids(g.vertices, dict(g.edge_items()))
        assert _mc_witness(g) == pool_mc_witness(twin), g
    covered = sum(_mc_witness(g) is None for g in seeded)
    assert covered >= 100 and len(seeded) - covered >= len(seeded) // 3


@pytest.mark.parametrize("g", corpus_params())
def test_mc_witness_matches_the_pool_on_the_corpus(g):
    twin = MultiGraph.with_ids(g.vertices, dict(g.edge_items()))
    assert _mc_witness(g) == pool_mc_witness(twin)


def test_mc_witness_refuses_a_digraph_that_contradicts_the_pool(monkeypatch):
    # K3,3 is matching covered, so its matching digraph is strongly
    # connected; a pass that says otherwise meets a pool in which every
    # edge is admissible, which the theorem rules out.
    monkeypatch.setattr(matchcover.matching, "_strongly_connected", lambda *args, **kw: False)
    with pytest.raises(VerificationError) as info:
        is_matching_covered(named_graph("K3,3"))
    assert info.value.check == "matching-covered"
