"""The per-graph memo: shared results, fresh mutable answers, lazy leaf
forms, and no repeated invariant work inside one analysis."""

import contextlib
import io
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import matchcover
import matchcover.cuts
import matchcover.dependence
from matchcover.cli import build_analysis, main
from matchcover.cuts import (
    _bipartite_tight_cut,
    _brace_obstruction,
    _first_cut_decomposition,
    _removability,
    _two_separation_candidates,
    barrier_cuts,
    classify,
    find_nontrivial_tight_cut,
    is_removable_edge,
    removable_classes,
    removable_edges,
    tight_cut_candidates,
    tight_cut_decomposition,
    verify_bounds,
)
from matchcover.dependence import (
    class_of,
    depends_on,
    epsilon,
    equivalence_partition,
    mutually_dependent,
)
from matchcover.errors import CapabilityError, DomainError, VerificationError
from matchcover.generators import build_high_kappa_epsilon, named_graph
from matchcover.matching import (
    _augment,
    _engine,
    _pm_minus,
    _signatures,
    has_pm_containing,
    is_matching_covered,
    maximum_matching,
)
from matchcover.multigraph import MultiGraph, canonical_form
from matchcover.structure import _even_2cuts, canonical_partition, even_2cuts

from conftest import _CORPUS, big_brace_graph, gen, gen_graph, random_mc_graph, sparse_mc_graphs


def test_equivalence_partition_is_shared():
    g = named_graph("prism4")
    assert equivalence_partition(g) is equivalence_partition(g)


def test_even_2cuts_returns_a_fresh_list():
    g = named_graph("C8")
    first = even_2cuts(g)
    expected = list(first)
    assert expected
    first.clear()
    assert even_2cuts(g) == expected


def test_errors_are_not_cached():
    g = MultiGraph(4, [(1, 2), (2, 3), (3, 4)])  # edge 2 is in no perfect matching
    for _ in range(2):
        with pytest.raises(DomainError):
            equivalence_partition(g)


def test_leaf_forms_are_computed_only_on_demand(monkeypatch):
    def refuse(_):
        raise CapabilityError("canonical form called")

    monkeypatch.setattr(matchcover.cuts, "canonical_form", refuse)
    g = named_graph("fig2c")
    assert verify_bounds(g)["b"] == 1
    assert classify(g) == "neither"
    result = tight_cut_decomposition(g)
    assert result.b == 1
    with pytest.raises(CapabilityError, match="canonical form called"):
        result.leaf_forms


def test_build_analysis_computes_each_invariant_once():
    g = named_graph("fig2c")
    bodies = {
        fn.__wrapped__.__code__: fn.__name__
        for fn in (equivalence_partition, _even_2cuts, _first_cut_decomposition)
    }
    engine_body = _engine.__wrapped__.__code__
    runs: Counter = Counter()
    engine_runs: Counter = Counter()
    engine_graphs = []  # kept alive so that no two graphs share an id

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code in bodies and frame.f_locals.get("g") is g:
            runs[bodies[frame.f_code]] += 1
        elif frame.f_code is engine_body:
            engine_graphs.append(frame.f_locals["g"])
            engine_runs[id(frame.f_locals["g"])] += 1

    sys.setprofile(profile)
    try:
        _, code = build_analysis(g, "fig2c", "", decompose=True)
    finally:
        sys.setprofile(None)
    assert code == 0
    assert runs == {name: 1 for name in bodies.values()}
    # the matching engine's cold search runs once per graph it is asked about
    assert engine_runs[id(g)] == 1
    assert len(engine_runs) > 1 and set(engine_runs.values()) == {1}


@pytest.mark.parametrize("name", ["fig2c", "(3,3) final"])
def test_each_graph_builds_one_adjacency_and_the_engine_reads_it(name):
    g = build_high_kappa_epsilon(3, 3).final if name == "(3,3) final" else named_graph(name)
    adjacency_body = MultiGraph._adjacency.__wrapped__.__code__
    built: list[MultiGraph] = []  # kept alive so that no two graphs share an id
    engines: list[MultiGraph] = []

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is adjacency_body:
            built.append(frame.f_locals["self"])
        elif frame.f_code is _engine.__wrapped__.__code__:
            engines.append(frame.f_locals["g"])

    sys.setprofile(profile)
    try:
        _, code = build_analysis(g, name, "", decompose=True)
    finally:
        sys.setprofile(None)
    assert code == 0
    assert g in built and engines
    # the body runs once per graph, and each engine's graph built its own
    assert len({id(h) for h in built}) == len(built)
    for h in engines:
        assert any(h is b for b in built)


def _graph_builds(fn):
    # The graph of every matching engine built, and the number of graphs
    # constructed, while fn() runs.
    engines, graphs = [], []

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is _engine.__wrapped__.__code__:
            engines.append(frame.f_locals["g"])
        elif frame.f_code is MultiGraph._init_parts.__code__:
            graphs.append(frame.f_locals["self"])

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return engines, len(graphs)


@pytest.mark.parametrize("name", ["prism4", "C6bar", "K4+parallel", "fig2c", "splice5"])
def test_dependence_queries_build_no_engine_but_gs(name):
    # The partition, every class_of and every ordered depends_on and
    # mutually_dependent pair run on g's own engine: no graph g - f is
    # built, and no engine for anything but g.
    g = dict(_CORPUS)[name]
    fresh = MultiGraph.with_ids(g.vertices, dict(g.edge_items()))

    def run():
        classes = equivalence_partition(fresh)
        for e in fresh.edge_ids:
            assert class_of(fresh, e) == classes.class_of(e)
            for f in fresh.edge_ids:
                assert mutually_dependent(fresh, e, f) == (f in classes.class_of(e))
                depends_on(fresh, e, f)

    engines, graphs = _graph_builds(run)
    assert engines == [fresh] and graphs == 0


@pytest.mark.parametrize("name", ["prism4", "C6bar", "K4,4", "fig2b", "C6bar+parallel"])
def test_removability_builds_at_most_one_engine_per_class(name):
    # Each class R is asked of g's own engine, built beforehand with its
    # pool, as a matching of g minus R: at most one engine per class, and
    # in fact none.
    g = dict(_CORPUS)[name]
    fresh = MultiGraph.with_ids(g.vertices, dict(g.edge_items()))
    classes = equivalence_partition(fresh).classes

    def run():
        removable_edges(fresh)
        removable_classes(fresh)

    engines, graphs = _graph_builds(run)
    asked = Counter(frozenset(h.edge_ids) for h in engines)
    assert all(h.vertices == fresh.vertices for h in engines)
    assert set(asked) <= {frozenset(fresh.edge_ids) - c for c in classes}
    assert set(asked.values()) <= {1}
    assert engines == [] and graphs == 0


def _fresh(g):
    # A copy of g with an empty memo.
    return MultiGraph.with_ids(g.vertices, dict(g.edge_items()))


def _removability_calls(fresh, run):
    # With fresh's tight cut decomposition built first: every components
    # pass during run(), as (the index of the leaf it ran on, its edge
    # ids), each checked to be on a leaf or on fresh itself (index -1),
    # and the calls into what removability must not reach:
    # has_pm_containing, graph construction, a new engine.
    leaves = [h for h, _ in tight_cut_decomposition(fresh).leaves]
    watched = {
        has_pm_containing.__code__,
        MultiGraph._init_parts.__code__,
        _engine.__wrapped__.__code__,
    }
    graphs, passes, calls = [], [], []

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is MultiGraph.components.__code__:
            graphs.append(frame.f_locals["self"])
            passes.append(frozenset(frame.f_locals["without"]))
        elif frame.f_code in watched:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    where = [next((i for i, leaf in enumerate(leaves) if h is leaf), -1) for h in graphs]
    assert all(i != -1 or h is fresh for i, h in zip(where, graphs))
    return list(zip(where, passes)), calls


def _larger_leaf_classes(fresh):
    # (leaf index, R & E(L)) for every class R of fresh that meets a
    # brick leaf L in two or more edges.
    classes = equivalence_partition(fresh).classes
    return [
        (i, c & frozenset(h.edge_ids))
        for i, (h, tag) in enumerate(tight_cut_decomposition(fresh).leaves)
        if tag == "brick"
        for c in classes
        if len(c & frozenset(h.edge_ids)) > 1
    ]


@pytest.mark.parametrize(
    "name",
    ["K4,4", "prism4", "C8", "C4+parallel", "splice6",
     "C6bar", "fig2b", "C6bar+parallel", "prism5", "petersen"],
)
def test_removability_builds_no_graph_and_asks_no_query(name):
    # Every removability question is asked of a decomposition leaf's own
    # engine, as a perfect matching of the leaf minus vertices and the
    # edges of R: no graph L - R and no second engine.  The only
    # connectivity pass is a components pass on a brick leaf minus a
    # class of two or more edges.
    fresh = _fresh(dict(_CORPUS)[name])
    larger = set(_larger_leaf_classes(fresh))

    def run():
        removable_edges(fresh)
        removable_classes(fresh)
        for e in fresh.edge_ids:
            is_removable_edge(fresh, e)

    passes, calls = _removability_calls(fresh, run)
    assert set(passes) <= larger
    assert calls == []


@pytest.mark.parametrize("name", ["C6bar", "fig2b", "C6bar+parallel", "prism5", "petersen"])
def test_nonbipartite_removability_checks_each_larger_class_once(name):
    # A matching covered graph of order >= 4 is 2-connected, so L - e is
    # connected: only a class of two or more edges of a brick leaf L gets
    # a connectivity check, exactly one components pass on L's adjacency
    # minus the class.
    fresh = _fresh(dict(_CORPUS)[name])
    passes, calls = _removability_calls(fresh, lambda: removable_edges(fresh))
    assert Counter(passes) == Counter(_larger_leaf_classes(fresh))
    assert calls == []


@pytest.mark.parametrize("make", [lambda: named_graph("K4,4"), big_brace_graph], ids=["K4,4", "big_brace"])
def test_brace_removability_asks_no_query(make):
    # A brace leaf of order >= 6 needs no test and a C4 leaf is read off
    # its four sides, so a bipartite graph, once its partition and
    # decomposition are built, asks no matching query for removability.
    g = make()
    equivalence_partition(g)
    tight_cut_decomposition(g)
    assert _calls(_pm_minus.__code__, removable_classes, g) == []


@pytest.mark.parametrize("index", range(3))
def test_removability_tests_only_brick_leaves(index):
    # Brick spliced into a bipartite graph: the table test runs on each
    # brick leaf, and never on g or on a brace leaf.
    g = sparse_mc_graphs(18)[3 + index]
    leaves = tight_cut_decomposition(g).leaves
    assert len(leaves) > 1
    tested = [call["g"] for call in _calls(_removability.__code__, removable_classes, g)]
    bricks = [h for h, tag in leaves if tag == "brick"]
    assert len(tested) == len(bricks) and all(any(h is b for b in bricks) for h in tested)


def test_removability_names_stay_in_the_dependence_layer():
    # The benchmark's tracer reads removability under ``dependence``;
    # the names there are the functions themselves, so every call counts.
    for name in ("is_removable_edge", "removable_classes", "removable_edges"):
        assert getattr(matchcover.dependence, name) is getattr(matchcover.cuts, name)


@pytest.mark.parametrize(
    "name", [name for name, g in _CORPUS if is_matching_covered(_fresh(g)) and epsilon(_fresh(g)) > 1]
)
def test_even_2cuts_build_no_graph(name):
    # Each candidate pair {e, f} of a class is asked as one components
    # pass on g's adjacency minus e and f: no graph g - e - f is built.
    fresh = _fresh(dict(_CORPUS)[name])
    equivalence_partition(fresh)
    graphs = _calls(MultiGraph._init_parts.__code__, even_2cuts, fresh)
    assert graphs == []


def test_signature_pool_is_built_once_and_shared():
    # The matching-covered verdict, the partition, every class_of and
    # removability all read one pool, built for g and for no g - e.
    g = named_graph("prism4")

    def run():
        assert is_matching_covered(g)
        classes = equivalence_partition(g)
        for e in g.edge_ids:
            assert class_of(g, e) == classes.class_of(e)
        removable_edges(g)
        removable_classes(g)

    pools = _calls(_signatures.__wrapped__.__code__, run)
    assert [call["g"] for call in pools] == [g]


@pytest.mark.parametrize("name", [name for name, _ in _CORPUS])
def test_matching_covered_asks_at_most_one_query_per_edge(name):
    # One perfect matching through each edge that no earlier pool
    # matching holds; the cached matching already holds n/2 edges.
    g = dict(_CORPUS)[name]
    fresh = MultiGraph.with_ids(g.vertices, dict(g.edge_items()))
    queries = _calls(_pm_minus.__code__, is_matching_covered, fresh)
    assert all(call["g"] is fresh for call in queries)
    assert len(queries) <= fresh.m - fresh.n // 2
    if name in ("C6", "K4"):
        assert len(queries) < fresh.m


def test_removable_classes_reuse_the_removable_edges_pass():
    # One pass over the partition answers both; C6bar has removable
    # classes of two edges and non-removable singletons.
    g = named_graph("C6bar")
    removable_edges(g)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is _pm_minus.__code__:
            calls.append(frame.f_locals["g"])

    sys.setprofile(profile)
    try:
        classes = removable_classes(g)
    finally:
        sys.setprofile(None)
    assert len(classes) == 3
    assert calls == []


def test_unreachable_cut_phase_raises(monkeypatch):
    # Pretend the brick test fails on a brick: the certified search must
    # refuse loudly rather than fall back to an exhaustive scan.
    monkeypatch.setattr(matchcover.cuts, "_brick_certificate", lambda g: False)
    with pytest.raises(VerificationError) as info:
        find_nontrivial_tight_cut(named_graph("petersen"))
    assert info.value.check == "tight-cut-phases"


@pytest.mark.parametrize("name", ["petersen", "C6bar"])
def test_brick_test_reads_bicriticality_off_the_canonical_partition(name):
    # Bicritical means every part of the memoized canonical partition is
    # a singleton, so certifying a brick asks no pair query of its own
    # (a pair scan would make n(n-1)/2 of them, 45 on the Petersen graph).
    g = named_graph(name)
    assert len(canonical_partition(g)) == g.n
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is _pm_minus.__code__:
            calls.append(frame.f_locals["gone"])

    sys.setprofile(profile)
    try:
        cut = find_nontrivial_tight_cut(g)
    finally:
        sys.setprofile(None)
    assert cut is None and classify(g) == "brick"
    assert calls == []


@pytest.mark.parametrize("name", [name for name, _ in _CORPUS] + ["(3,3) final"])
def test_canonical_partition_runs_one_search_per_part(name):
    # One failed search from the mate of each part's first vertex replaces
    # the pair queries (45 on the Petersen graph), and a bipartite graph
    # runs none: its parts are its colour classes.  The engine and the
    # verdict are computed first, so every search counted is the
    # partition's.
    g = build_high_kappa_epsilon(3, 3).final if name == "(3,3) final" else dict(_CORPUS)[name]
    fresh = MultiGraph.with_ids(g.vertices, dict(g.edge_items()))
    assert is_matching_covered(fresh)
    watched = {_augment.__code__: "_augment", _pm_minus.__code__: "_pm_minus"}
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        parts = canonical_partition(fresh)
    finally:
        sys.setprofile(None)
    assert calls["_pm_minus"] == 0
    if fresh.is_bipartite:
        assert calls["_augment"] == 0
    else:
        assert 1 <= calls["_augment"] <= len(parts)


def _calls(code, fn, *args):
    # The arguments of every call into `code` while fn(*args) runs.
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(dict(frame.f_locals))

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("name", ["K4,4", "C8"])
def test_brace_test_asks_no_matchability_query(name):
    # One re-augmentation and one alternating search per (a1, a2, b1)
    # replace the query per 4-tuple (36 of them on K4,4).
    g = named_graph(name)
    parts = g.bipartition()
    assert (_brace_obstruction(g, parts) is None) == (name == "K4,4")
    assert _calls(_pm_minus.__code__, _brace_obstruction, g, parts) == []


@pytest.mark.parametrize("name", ["K4,4", "K5,5"])
def test_brace_verdict_runs_no_search(name):
    # A brace answers from the matching digraph's reach passes alone;
    # the ordered scan, one search per deleted triple, never starts.
    g = named_graph(name)
    parts = g.bipartition()
    _engine(g)
    assert _calls(_augment.__code__, _bipartite_tight_cut, g, parts) == []
    assert _bipartite_tight_cut(g, parts) is None


@pytest.mark.parametrize("name", ["petersen", "prism3"])
def test_two_separation_pass_skips_components_on_3_connected_graphs(name):
    # With no articulation point in any g - u, no pair needs a
    # components pass (the pair scan makes n(n-1)/2 of them).  The scan
    # is lazy, so the spy drains it.
    g = named_graph(name)
    code = MultiGraph.components.__code__
    assert _calls(code, lambda: list(_two_separation_candidates(g))) == []


def test_two_separation_pass_refuses_a_graph_with_a_cut_vertex():
    # Two triangles joined by the edge 3-4: 3 is a cut vertex, which a
    # matching covered graph of order >= 4 cannot have.
    g = MultiGraph(6, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
    with pytest.raises(VerificationError) as info:
        list(_two_separation_candidates(g))
    assert info.value.check == "two-separations"


def _two_separated_bipartite_graphs() -> list[MultiGraph]:
    # Bipartite graphs drawn as analyze-large draws its seeded ones, a
    # Hamiltonian cycle plus n/4 chords at n = 16..24: sparse enough that
    # each splits first along a 2-separation.
    rng = random.Random(7)
    return [
        gen_graph(gen.relabel(rng, gen.bipartite_mc(rng, n, n // 4)))
        for n in (16, 20, 20, 22, 22, 24, 24)
    ]


@pytest.mark.parametrize("index", range(7))
def test_first_cut_search_stops_at_its_first_two_separation_cut(index):
    # The 2-separation phase is read one vertex at a time, so the search
    # that takes the first tight cut runs fewer depth-first passes than
    # the one per vertex that reading the whole phase runs.
    g = _two_separated_bipartite_graphs()[index]
    code = matchcover.cuts._articulation_points.__code__
    passes = _calls(code, find_nontrivial_tight_cut, g)
    assert not barrier_cuts(g)
    assert find_nontrivial_tight_cut(g) in list(_two_separation_candidates(g))
    assert len(passes) < g.n
    assert len(_calls(code, tight_cut_candidates, g)) == g.n


@pytest.mark.parametrize("index", range(7))
def test_bipartite_decomposition_builds_no_signature_pool(index):
    # Every matching-covered verdict on a bipartite graph comes from its
    # matching digraph and its canonical partition from its colour
    # classes, so neither the root nor any contraction gets a pool.
    g = _two_separated_bipartite_graphs()[index]
    pools = _calls(_signatures.__wrapped__.__code__, tight_cut_decomposition, g)
    assert tight_cut_decomposition(g).splits
    assert pools == []


@pytest.mark.parametrize(
    "name", [name for name, g in _CORPUS if g.is_bipartite and is_matching_covered(g)]
)
def test_bipartite_verdict_asks_no_matching_query(name):
    # Two reach passes over D(g, M) decide it, on the engine's matching.
    g = dict(_CORPUS)[name]
    fresh = MultiGraph.with_ids(g.vertices, dict(g.edge_items()))
    assert _calls(_pm_minus.__code__, is_matching_covered, fresh) == []
    assert is_matching_covered(fresh)


def test_brace_test_refuses_a_failed_augmentation(monkeypatch):
    # In a bipartite matching covered graph every g - a - b is matchable,
    # so the re-augmentation after deleting a1, a2, b1 cannot fail.  The
    # patched search fails everywhere and labels every vertex outer, so
    # no b2 fails before a triple needs its re-augmentation.
    monkeypatch.setattr(matchcover.cuts, "_augment", lambda adj, *args: [True] * len(adj))
    g = named_graph("K4,4")
    with pytest.raises(VerificationError) as info:
        _brace_obstruction(g, g.bipartition())
    assert info.value.check == "brace-test"


def test_brace_test_refuses_a_hall_search_that_augments(monkeypatch):
    # The Hall search runs from the mate of a failing b2 with w exposed;
    # reaching w would mean w reaches b2, so an augmentation there is an
    # engine fault and must not yield a Hall set.
    hall_searches = []

    def hall_augments(adj, match, root, dead):
        labels = _augment(adj, match, root, dead)
        if len(dead) == 4:  # a1, a2, b1 and b2
            hall_searches.append(root)
            return None
        return labels

    monkeypatch.setattr(matchcover.cuts, "_augment", hall_augments)
    g = named_graph("C8")
    with pytest.raises(VerificationError, match="on an augmenting path") as info:
        _brace_obstruction(g, g.bipartition())
    assert info.value.check == "brace-test"
    assert len(hall_searches) == 1


def _certificate_graphs() -> list[MultiGraph]:
    # splice5, the one corpus graph whose first cut comes from the brace
    # certificate, and seeded bipartite graphs that are not braces.
    graphs = [g for name, g in _CORPUS if name == "splice5"]
    rng = random.Random(11)
    while len(graphs) < 7:
        n = rng.choice((8, 10, 12))
        g = random_mc_graph(rng, n, rng.randrange(n, 3 * n))
        if _brace_obstruction(g, g.bipartition()) is not None:
            graphs.append(g)
    return graphs


@pytest.mark.parametrize("index", range(7))
def test_brace_certificate_stays_on_one_matching(index):
    # The Hall set comes from the brace test's own search on g's matching:
    # no g minus the 4-tuple, no fresh maximum matching, no engine for
    # any graph but g.
    g = _certificate_graphs()[index]
    if index == 0:
        assert not barrier_cuts(g) and not list(_two_separation_candidates(g))
    engines, calls = [], []
    watched = {MultiGraph.delete_vertices.__code__, maximum_matching.__code__}

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is _engine.__wrapped__.__code__:
            engines.append(frame.f_locals["g"])
        elif frame.f_code in watched:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        cut = _bipartite_tight_cut(g, g.bipartition())
    finally:
        sys.setprofile(None)
    assert cut is not None
    if index == 0:
        assert cut == find_nontrivial_tight_cut(g)
    assert calls == []
    assert all(h is g for h in engines)


def test_first_barrier_cut_skips_the_two_separation_phase(monkeypatch):
    # The phases are read lazily: once the barrier phase gives a tight
    # cut, the O(n^2) 2-separation scan never runs.
    offered = []
    original = matchcover.cuts._two_separation_candidates

    def spy(g):
        offered.append(g)
        return original(g)

    monkeypatch.setattr(matchcover.cuts, "_two_separation_candidates", spy)
    g = named_graph("fig2c")
    assert not g.is_bipartite
    cut = find_nontrivial_tight_cut(g)
    assert cut is not None and cut in barrier_cuts(g)
    assert offered == []
    # Reading the whole stream does run it.
    assert tight_cut_candidates(g)[0] == cut
    assert offered == [g]


def test_tight_cut_candidates_returns_a_fresh_list_of_shared_cuts():
    g = named_graph("C8")
    first = tight_cut_candidates(g)
    second = tight_cut_candidates(g)
    assert first is not second and len(first) > 1
    assert all(a is b for a, b in zip(first, second, strict=True))
    expected = list(first)
    first.clear()
    assert tight_cut_candidates(g) == expected


def test_uniqueness_suite_reads_each_stream_and_leaf_form_once(monkeypatch):
    # Over one corpus pass, every strategy but the lazy first-cut search
    # reads the cut stream of a graph through one memoized list, and each
    # leaf's canonical form is computed once, however many strategies
    # reach that leaf graph.
    full_reads: Counter = Counter()
    graphs = []  # kept alive so that no two graphs share an id
    lazy = find_nontrivial_tight_cut.__wrapped__.__code__
    stream = matchcover.cuts._tight_cuts

    def spy(g):
        graphs.append(g)
        if sys._getframe(1).f_code is not lazy:
            full_reads[id(g)] += 1
        return stream(g)

    leaves, forms = [], []

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is matchcover.cuts._leaf_form.__wrapped__.__code__:
            leaves.append(frame.f_locals["h"])
        elif frame.f_code is canonical_form.__code__:
            forms.append(frame.f_locals["g"])

    monkeypatch.setattr(matchcover.cuts, "_tight_cuts", spy)
    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "corpus"
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["corpus", "--check", "uniqueness", "--dir", str(corpus)])
    finally:
        sys.setprofile(None)
    assert code == 0
    assert full_reads and set(full_reads.values()) == {1}
    assert leaves and len({id(h) for h in leaves}) == len(leaves)
    assert len(forms) == len(leaves)


@pytest.mark.parametrize("first_cut_first", [True, False])
def test_candidate_list_starts_with_the_memoized_first_cut(first_cut_first):
    g = named_graph("C8")
    if first_cut_first:
        first = find_nontrivial_tight_cut(g)
        assert tight_cut_candidates(g)[0] is first
    else:
        head = tight_cut_candidates(g)[0]
        assert find_nontrivial_tight_cut(g) is head


def test_uniqueness_suite_shares_the_first_cut_with_the_full_list(monkeypatch):
    # A chooser that picks the head of the full list gets the "first"
    # strategy's cut object, so the contractions and leaf forms below it
    # are built once (142 contractions and 123 canonical forms when the
    # list held a cut of its own).
    calls: Counter = Counter()
    contract = MultiGraph.contract
    form = matchcover.cuts.canonical_form

    def counted_contract(self, *args):
        calls["contract"] += 1
        return contract(self, *args)

    def counted_form(g):
        calls["canonical_form"] += 1
        return form(g)

    monkeypatch.setattr(MultiGraph, "contract", counted_contract)
    monkeypatch.setattr(matchcover.cuts, "canonical_form", counted_form)
    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "corpus"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["corpus", "--check", "uniqueness", "--dir", str(corpus)])
    assert code == 0
    assert 0 < calls["contract"] <= 128
    assert 0 < calls["canonical_form"] <= 110


def test_vertex_connectivity_is_exported():
    assert "vertex_connectivity" in matchcover.__all__
    assert matchcover.vertex_connectivity(named_graph("K4")) == 3


def test_readme_call_surfaces_are_exported():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("Key call surfaces", 1)[1].split("\n\n")[1]
    names = re.findall(r"`([^`]+)`", table)
    assert len(names) == 44
    assert sorted(set(names) - set(matchcover.__all__)) == []
