import hashlib
import inspect
import sys
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchcover.multigraph
from matchcover.errors import CapabilityError, DomainError, ParseError
from matchcover.generators import named_graph
from matchcover.cuts import _is_c4_up_to_multiplicity, tight_cut_decomposition
from matchcover.multigraph import (
    CanonicalForm,
    MultiGraph,
    _find,
    _fold_fixing,
    _twins,
    canonical_form,
    format_graph,
    parse_graph,
)

from _oracles import (
    brute_canonical_form,
    brute_isomorphic,
    incidence_bipartition,
    incidence_components,
    simple_is_c4,
)
from conftest import big_brace_graph, corpus_params, random_graph
import random


def test_basic_construction():
    g = MultiGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert g.n == 4
    assert g.m == 4
    assert g.edge_ids == (1, 2, 3, 4)
    assert g.endpoints(1) == (1, 2)


def test_parallel_edges_get_distinct_ids():
    g = MultiGraph(2, [(1, 2), (1, 2), (1, 2)])
    assert g.m == 3
    assert len(set(g.edge_ids)) == 3


def test_loops_rejected():
    with pytest.raises(DomainError):
        MultiGraph(2, [(1, 1)])


def test_unknown_endpoint_rejected():
    with pytest.raises(DomainError):
        MultiGraph(2, [(1, 3)])


def test_delete_edge_preserves_other_ids():
    g = MultiGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    h = g.delete_edge(2)
    assert h.edge_ids == (1, 3, 4)
    assert h.endpoints(4) == (1, 4)


def test_delete_vertices_drops_incident_edges():
    g = MultiGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    h = g.delete_vertices({1})
    assert set(h.vertices) == {2, 3, 4}
    assert h.edge_ids == (2, 3)


def test_add_edge_uses_fresh_id_after_delete():
    g = MultiGraph(3, [(1, 2), (2, 3)])
    h = g.delete_edge(2)
    h2, e = h.add_edge(2, 3)
    assert e == 3  # id 2 is never reused
    assert h2.endpoints(3) == (2, 3)


def test_boundary_and_cut():
    g = named_graph("C6")
    cut = g.cut({1, 2, 3})
    assert cut.shore == frozenset({1, 2, 3})
    assert cut.other_shore == frozenset({4, 5, 6})
    assert len(cut.edges) == 2
    assert cut.is_odd
    assert not cut.is_trivial
    assert g.cut({1}).is_trivial


def test_contract_preserves_cut_edge_ids():
    g = named_graph("C6bar")
    cut = g.cut({1, 2, 3})
    h, x = g.contract({4, 5, 6})
    # cut edges keep their ids across the contraction
    assert set(cut.edges) <= set(h.edge_ids)
    # exactly one new vertex replaces the shore
    assert h.n == 4
    assert set(h.vertices) == {1, 2, 3, x}


def test_contract_new_vertex_id_is_fresh():
    g = named_graph("C6")
    _, x = g.contract({4, 5, 6})
    assert x > 6


def test_underlying_simple_keeps_lowest_id():
    g = MultiGraph(2, [(1, 2), (1, 2)])
    s = g.underlying_simple()
    assert s.edge_ids == (1,)


def test_components():
    g = MultiGraph(5, [(1, 2), (3, 4), (4, 5)])
    comps = g.components()
    assert [sorted(c) for c in comps] == [[1, 2], [3, 4, 5]]


def test_components_with_removed():
    g = named_graph("C6")
    comps = g.components(removed={1, 4})
    assert [sorted(c) for c in comps] == [[2, 3], [5, 6]]


def test_bipartition():
    g = named_graph("K3,3")
    a, b = g.bipartition()
    assert {frozenset(a), frozenset(b)} == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}
    assert named_graph("K4").bipartition() is None


def _traversal_graphs() -> list[MultiGraph]:
    # The corpus, the small cases, and seeded multigraphs on scattered
    # vertex ids: parallel edges, isolated vertices, several components.
    graphs = [p.values[0] for p in corpus_params()]
    graphs += [
        MultiGraph(0),
        MultiGraph(1),
        MultiGraph(2, [(1, 2), (1, 2)]),
        MultiGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 2), (3, 4)]),
        MultiGraph(4, [(1, 2), (2, 3), (3, 1)]),
        MultiGraph(4, [(1, 2), (1, 2), (3, 4), (3, 4)]),
        MultiGraph(4, [(1, 2), (2, 3), (3, 4)]),
        MultiGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]),
    ]
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randrange(0, 12)
        ids = rng.sample(range(1, 100), n)
        pairs = [tuple(rng.sample(ids, 2)) for _ in range(rng.randrange(2 * n + 1))] if n > 1 else []
        graphs.append(MultiGraph(ids, pairs + pairs[: rng.randrange(3)]))
    return graphs


def test_traversals_match_the_incidence_walks():
    rng = random.Random(16)
    for g in _traversal_graphs():
        assert g.components() == incidence_components(g)
        assert g.bipartition() == incidence_bipartition(g)
        assert _is_c4_up_to_multiplicity(g) == simple_is_c4(g)
        for _ in range(4):
            # repeats and ids that are not vertices
            removed = [rng.choice(g.vertices + (0, 999)) for _ in range(rng.randrange(5))]
            assert g.components(removed) == incidence_components(g, removed)
            assert g.components(iter(removed)) == incidence_components(g, removed)


def test_components_without_edges_match_the_walk_of_the_graph_minus_them():
    rng = random.Random(17)
    parallel = 0
    for g in _traversal_graphs():
        ids = g.edge_ids
        for _ in range(4):
            without = rng.sample(ids, rng.randrange(min(len(ids), 4) + 1))
            removed = [rng.choice(g.vertices + (0, 999)) for _ in range(rng.randrange(3))]
            expected = incidence_components(g.delete_edges(without), removed)
            assert g.components(removed, without=without) == expected
            assert g.components(removed, without=frozenset(without)) == expected
        for e in ids:
            twins = g.edges_between(*g.endpoints(e))
            if len(twins) > 1:
                # one of two parallel edges goes; the pair must survive
                parallel += 1
                assert g.components(without=(e,)) == g.components()
                assert g.components(without=twins) == incidence_components(g.delete_edges(twins))
        with pytest.raises(DomainError, match="unknown edge id 1000"):
            g.components(without=(1000,))
    assert parallel > 10


def test_adjacency_minus_no_edges_is_the_shared_adjacency():
    # No copy of the rows for the passes that delete nothing: components,
    # the matching-covered verdict and the brace test.
    g = named_graph("K3,3")
    assert g._adjacency_minus(()) is g._adjacency()[1]
    assert g._adjacency_minus(frozenset()) is g._adjacency()[1]
    assert g._adjacency_minus((1,)) is not g._adjacency()[1]


def test_c4_test_reads_decomposition_leaves_like_the_simple_graph_check():
    seen = set()
    for g in _traversal_graphs()[:30]:
        for leaf, _ in tight_cut_decomposition(g).leaves:
            seen.add(simple_is_c4(leaf))
            assert _is_c4_up_to_multiplicity(leaf) == simple_is_c4(leaf)
    assert seen == {True, False}


def test_format_parse_round_trip_bit_exact():
    g = named_graph("petersen")
    text = format_graph(g)
    assert format_graph(parse_graph(text)) == text


def test_c_lines_are_comments():
    g = parse_graph("c a comment\np 3 2\nc another\ne 2 1\n# hash comment\ne 2 3\n")
    assert (g.n, g.m) == (3, 2)
    assert g.endpoints(1) == (1, 2)
    text = format_graph(g)
    assert text == "p 3 2\ne 1 2\ne 2 3\n"
    assert format_graph(parse_graph(text)) == text


@pytest.mark.parametrize("g", corpus_params())
def test_round_trip_canonical_form(g):
    h = parse_graph(format_graph(g))
    assert h.n == g.n and h.m == g.m
    assert canonical_form(h) == canonical_form(g)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError):
        parse_graph("not a header\n")
    try:
        parse_graph("p 3 1\ne 1 9\n")
    except ParseError as exc:
        assert exc.line_number == 2
    else:
        pytest.fail("expected a parse error")


def test_parse_rejects_wrong_edge_count():
    with pytest.raises(ParseError):
        parse_graph("p 2 2\ne 1 2\n")


def test_canonical_form_distinguishes():
    assert canonical_form(named_graph("C6")) != canonical_form(named_graph("K3,3"))
    assert canonical_form(named_graph("C6bar")) == canonical_form(named_graph("prism3"))


def test_canonical_form_multiplicity_sensitive():
    g = MultiGraph(2, [(1, 2)])
    h = MultiGraph(2, [(1, 2), (1, 2)])
    assert canonical_form(g) != canonical_form(h)


def _p4(first: int, last: int) -> MultiGraph:
    # The path 1-2-3-4 with `first` copies of its first edge and `last`
    # of its last.
    return MultiGraph(4, [(1, 2)] * first + [(2, 3)] + [(3, 4)] * last)


@pytest.mark.parametrize("k", [254, 255, 256, 257, 300])
def test_canonical_form_tells_multiplicities_past_one_byte_apart(k):
    graphs = [MultiGraph(2, [(1, 2)] * j) for j in (k, k + 1, 256)]
    graphs += [_p4(k, 1), _p4(1, k), _p4(256, 1), _p4(k, 300), _p4(300, k), _p4(k, k)]
    forms = [canonical_form(g) for g in graphs]
    for g, form in zip(graphs, forms):
        assert form == brute_canonical_form(g)
    for i, j in combinations(range(len(graphs)), 2):
        assert (forms[i] == forms[j]) == brute_isomorphic(graphs[i], graphs[j]), (i, j)
    # Below 255 a multiplicity is still its one byte, so no digest moves.
    assert canonical_form(MultiGraph(2, [(1, 2)] * 254)).encoding == bytes([254])


@pytest.mark.parametrize("n", [25, 26])
def test_canonical_form_of_paths_past_24_vertices(n):
    path = MultiGraph(n, [(i, i + 1) for i in range(1, n)])
    form = canonical_form(path)
    assert form == brute_canonical_form(path)
    assert form == canonical_form(_relabeled(random.Random(n), path))


def test_canonical_form_of_a_brace_past_24_vertices():
    leaves = tight_cut_decomposition(big_brace_graph()).leaves
    leaf = next(leaf for leaf, tag in leaves if tag == "brace" and leaf.n > 24)
    for h in (leaf, leaf.underlying_simple()):
        form = canonical_form(h)
        assert form == brute_canonical_form(h)
        assert form == canonical_form(_relabeled(random.Random(h.m), h))


def _forms_within(g: MultiGraph, frames: int) -> bool:
    # Does canonical_form(g) finish with only `frames` interpreter frames
    # to spare above the caller's?
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(len(inspect.stack(0)) + frames)
        canonical_form(g)
        return True
    except RecursionError:
        return False
    finally:
        sys.setrecursionlimit(limit)


def test_canonical_form_search_depth_meets_no_stack_limit():
    # K8,8's search goes 14 individualizations deep, K2's one.  The search
    # keeps its own stack, so the deep one needs no more interpreter
    # frames than the shallow one: only the work budget can refuse it.
    frames = next(f for f in range(200) if _forms_within(MultiGraph(2, [(1, 2)]), f))
    k = MultiGraph(16, [(i, j) for i in range(1, 9) for j in range(9, 17)])
    assert _forms_within(k, frames + 3)


def test_canonical_form_digest_writes_n_like_a_multiplicity():
    # Below 255, n is its one byte, so no digest moves; from 255 on it is
    # q bytes 0xff and then r, the way _encode writes a multiplicity.
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:16]

    form = canonical_form(named_graph("K3,3"))
    assert form.digest == sha(bytes([6]) + form.encoding)
    assert canonical_form(MultiGraph(0)) == CanonicalForm(0, b"")
    assert CanonicalForm(254, b"\x01").digest == sha(bytes([254, 1]))
    assert CanonicalForm(255, b"").digest == sha(b"\xff\x00")
    assert CanonicalForm(300, b"").digest == sha(b"\xff" + bytes([45]))
    assert CanonicalForm(300, b"").digest != CanonicalForm(45, b"").digest


def _relabeled(rng: random.Random, g: MultiGraph) -> MultiGraph:
    image = list(g.vertices)
    rng.shuffle(image)
    to = dict(zip(g.vertices, image))
    return MultiGraph(g.vertices, [tuple(to[x] for x in g.endpoints(e)) for e in g.edge_ids])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 9), st.integers(0, 6))
def test_canonical_form_invariant_under_relabeling(seed, n, extra):
    rng = random.Random(seed)
    g = random_graph(rng, n, extra)
    assert canonical_form(g) == canonical_form(_relabeled(rng, g))


def _mult(g: MultiGraph) -> list[list[int]]:
    # The multiplicity matrix over vertex positions, as canonical_form reads it.
    index = {v: i for i, v in enumerate(g.vertices)}
    mult = [[0] * g.n for _ in range(g.n)]
    for _, (u, v) in g.edge_items():
        mult[index[u]][index[v]] += 1
        mult[index[v]][index[u]] += 1
    return mult


def _crown(k: int) -> MultiGraph:
    # K_{k,k} minus a perfect matching: vertex-transitive, and for k >= 3
    # no two vertices are twins.
    ends = [(i, k + j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]
    return MultiGraph(2 * k, ends)


def test_canonical_form_work_budget_is_inclusive(monkeypatch):
    # The crown graph K12,12 minus a perfect matching has 2 * 12 * 11!
    # automorphisms and no twins, so its search fits a budget this small
    # only because stored automorphisms prune it.  Its work is 24^2 per
    # refinement round plus 24 per stored automorphism folded; it gets a
    # form under exactly that budget and is refused one unit below.
    refine, fold = matchcover.multigraph._refine, matchcover.multigraph._fold_fixing
    units = []

    def refine_spy(adj, mult, colors, charge):
        def counted(k):
            units.append(k)
            charge(k)

        return refine(adj, mult, colors, counted)

    def fold_spy(orbit, autos, prefix):
        units.append(len(orbit) * len(autos))
        fold(orbit, autos, prefix)

    k = _crown(12)
    assert _twins(_mult(k)) == list(range(24))
    monkeypatch.setattr(matchcover.multigraph, "_refine", refine_spy)
    monkeypatch.setattr(matchcover.multigraph, "_fold_fixing", fold_spy)
    form = canonical_form(k)
    work = sum(units)
    assert work == 592_872
    monkeypatch.setattr(matchcover.multigraph, "_CANON_WORK_BUDGET", work)
    assert canonical_form(k) == form
    monkeypatch.setattr(matchcover.multigraph, "_CANON_WORK_BUDGET", work - 1)
    with pytest.raises(CapabilityError, match="_CANON_WORK_BUDGET"):
        canonical_form(k)


def test_orbit_fold_leaves_out_automorphisms_that_move_the_prefix():
    # prefix (2,): swapping 0 and 1 fixes it, swapping 2 and 3 does not
    orbit = list(range(4))
    _fold_fixing(orbit, [[0, 1, 3, 2], [1, 0, 2, 3]], (2,))
    roots = [_find(orbit, v) for v in range(4)]
    assert roots[0] == roots[1]
    assert len(set(roots)) == 3


def test_canonical_form_folds_automorphisms_through_the_prefix_filter(monkeypatch):
    # Every node's orbits come from _fold_fixing with the node's prefix,
    # and on K3,3 some stored automorphisms move a node's prefix (so the
    # filter tested above decides what gets pruned).
    calls = []

    def spy(orbit, autos, prefix):
        calls.append((list(autos), prefix))
        _fold_fixing(orbit, autos, prefix)

    monkeypatch.setattr(matchcover.multigraph, "_fold_fixing", spy)
    g = named_graph("K3,3")
    assert canonical_form(g) == brute_canonical_form(g)
    edges = sorted(sorted(g.endpoints(e)) for e in g.edge_ids)
    index = {v: i for i, v in enumerate(g.vertices)}
    moved = 0
    for autos, prefix in calls:
        for auto in autos:
            image = sorted(sorted(g.vertices[auto[index[x]]] for x in ends) for ends in edges)
            assert image == edges
            moved += any(auto[p] != p for p in prefix)
    assert moved > 0


def test_canonical_form_budget_refusal_names_phase_limit_and_setting(monkeypatch):
    # The Petersen graph has no twins and spends 5,450 units: 10^2 per
    # refinement round and 10 per stored automorphism folded
    monkeypatch.setattr(matchcover.multigraph, "_CANON_WORK_BUDGET", 5_450)
    canonical_form(named_graph("petersen"))
    monkeypatch.setattr(matchcover.multigraph, "_CANON_WORK_BUDGET", 5_000)
    with pytest.raises(CapabilityError) as info:
        canonical_form(named_graph("petersen"))
    message = str(info.value)
    assert message.startswith("canonical form:")
    assert "5,000-unit work limit" in message
    assert "n^2 per refinement round, n per automorphism folded" in message
    assert "multigraph._CANON_WORK_BUDGET" in message


def _oracle_inputs(g: MultiGraph) -> list[MultiGraph]:
    simple = g.underlying_simple()
    return [g] if simple.m == g.m else [g, simple]


@pytest.mark.parametrize("g", corpus_params())
def test_canonical_form_matches_unpruned_search_on_corpus(g):
    for h in _oracle_inputs(g):
        assert canonical_form(h) == brute_canonical_form(h)


def _random_regular(rng: random.Random, n: int, d: int) -> MultiGraph:
    """A random d-regular loopless multigraph on n vertices (n * d
    even), by pairing stubs until no pair is a loop."""
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if all(u != v for u, v in pairs):
            return MultiGraph(n, pairs)


def _symmetric_multigraph(rng: random.Random) -> MultiGraph:
    """A seeded multigraph, n <= 10, on which refinement alone splits
    few cells: a circulant with one or two jumps, two copies of a small
    random graph, a complete bipartite graph (these have many
    automorphisms), or a random regular multigraph (usually few); each
    may carry parallel edges."""
    kind = rng.randrange(4)
    if kind == 0:
        n = rng.randrange(4, 11)
        edges = []
        for jump in rng.sample(range(1, n // 2 + 1), rng.randrange(1, 3)):
            copies = rng.randrange(1, 3)
            edges += [(i, (i + jump) % n) for i in range(n) for _ in range(copies)]
        return MultiGraph(range(n), [(u, v) for u, v in edges if u != v])
    if kind == 1:
        half = random_graph(rng, rng.randrange(2, 6), rng.randrange(3))
        shift = half.n
        edges = [half.endpoints(e) for e in half.edge_ids]
        return MultiGraph(2 * shift, edges + [(u + shift, v + shift) for u, v in edges])
    if kind == 2:
        a, b = rng.randrange(1, 5), rng.randrange(1, 5)
        edges = [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)]
        return MultiGraph(a + b, edges + rng.sample(edges, rng.randrange(len(edges) + 1)))
    n, d = rng.choice(((6, 3), (8, 3), (10, 3), (6, 4), (7, 4), (8, 4)))
    return _random_regular(rng, n, d)


def test_canonical_form_matches_unpruned_search_on_random_multigraphs():
    rng = random.Random(6006)
    parallel = 0
    for i in range(160):
        if i % 2:
            g = _symmetric_multigraph(rng)
        else:
            n = rng.randrange(2, 11)
            g = random_graph(rng, n, rng.randrange(2 * n))
        parallel += g.underlying_simple().m < g.m
        assert canonical_form(g) == brute_canonical_form(g), format_graph(g)
    assert parallel >= 40


def _complete_multipartite(*parts: int) -> MultiGraph:
    ends = [i for i, size in enumerate(parts) for _ in range(size)]
    return MultiGraph(len(ends), [
        (u + 1, v + 1) for u, v in combinations(range(len(ends)), 2) if ends[u] != ends[v]
    ])


def _with_clones(rng: random.Random, g: MultiGraph, clones: int) -> MultiGraph:
    # g plus `clones` new vertices, each a copy of a random vertex x
    # (its edges with their multiplicities): a false twin of x, or, half
    # the time, a true twin joined to x by one or two edges.
    n, edges = g.n, [g.endpoints(e) for e in g.edge_ids]
    for _ in range(clones):
        x = rng.choice(range(1, n + 1))
        n += 1
        edges += [(n, b if a == x else a) for a, b in edges if x in (a, b)]
        edges += [(x, n)] * rng.choice((0, 0, 1, 2))
    return MultiGraph(n, edges)


def _twin_heavy_graphs() -> list[MultiGraph]:
    rng = random.Random(2727)
    # K_{a,b} and stars up to K1,7 (K5,5 is in the corpus), and K_n: the
    # unpruned search visits every one of the up to 7! * e nodes.
    graphs = [_complete_multipartite(a, b) for a in range(1, 5) for b in range(a, 9 - a)]
    graphs += [_complete_multipartite(*([1] * n)) for n in range(2, 8)]
    for parts in ((1, 2, 3), (2, 2, 2), (2, 2, 3), (1, 1, 3, 3), (2, 2, 2, 2), (3, 3, 3)):
        graphs.append(_complete_multipartite(*parts))
    for _ in range(40):
        g = random_graph(rng, rng.randrange(2, 7), rng.randrange(4))
        g = _with_clones(rng, g, rng.randrange(1, 11 - g.n))
        graphs.append(g)
    # Near-twin chains: 1..k all see the hubs k+1 and k+2 (which are
    # twins), and consecutive ones are joined, once or, on one rung,
    # twice, so no two of 1..k are twins.
    for k, doubled in ((4, None), (5, None), (5, 2), (6, 3)):
        edges = [(i, k + h) for i in range(1, k + 1) for h in (1, 2)]
        edges += [(i, i + 1) for i in range(1, k)] + ([(doubled, doubled + 1)] if doubled else [])
        graphs.append(MultiGraph(k + 2, edges))
    # Doubled edges on the twin-heavy graphs above.
    for g in rng.sample(graphs, 20):
        ends = [g.endpoints(e) for e in g.edge_ids]
        graphs.append(MultiGraph(g.n, ends + rng.sample(ends, rng.randrange(1, len(ends) + 1))))
    # C4 with every mix of side multiplicities in {1, 2, 3}.
    sides = ((1, 2), (2, 3), (3, 4), (4, 1))
    for mix in product((1, 2, 3), repeat=4):
        graphs.append(MultiGraph(4, [side for side, k in zip(sides, mix) for _ in range(k)]))
    return graphs


def test_twins_are_vertices_with_equal_rows_off_the_pair():
    # Every multigraph on up to 4 vertices with multiplicities up to 2,
    # and the twin-heavy inputs: twins[u] == twins[v] exactly when
    # mult[u][w] == mult[v][w] for every w outside {u, v}.  The relation
    # is transitive, so twins[v] names a class.
    graphs = []
    for n in range(5):
        pairs = list(combinations(range(1, n + 1), 2))
        for mix in product((0, 1, 2), repeat=len(pairs)):
            graphs.append(MultiGraph(n, [p for p, k in zip(pairs, mix) for _ in range(k)]))
    graphs += _twin_heavy_graphs()
    classes = 0
    for g in graphs:
        mult = _mult(g)
        twins = _twins(mult)
        for u, v in combinations(range(g.n), 2):
            alike = all(mult[u][w] == mult[v][w] for w in range(g.n) if w not in (u, v))
            assert (twins[u] == twins[v]) == alike, format_graph(g)
        assert all(twins[twins[v]] == twins[v] <= v for v in range(g.n))
        classes += any(twins[v] != v for v in range(g.n))
    assert classes > len(graphs) // 2


def test_canonical_form_matches_unpruned_search_on_twin_heavy_graphs():
    graphs = _twin_heavy_graphs()
    assert len(graphs) > 150 and max(g.n for g in graphs) == 10
    for g in graphs:
        assert canonical_form(g) == brute_canonical_form(g), format_graph(g)


@pytest.mark.parametrize("a, b", [(16, 16), (1, 40)])
def test_canonical_form_of_twin_heavy_graphs_fits_a_small_budget(monkeypatch, a, b):
    # Twin transpositions prune K16,16 and the star K1,40 to one path
    # below each root child.  Pruned by stored automorphisms alone,
    # K12,12 spent 3,381,240 units and K1,40 was refused after minutes.
    g = _complete_multipartite(a, b)
    monkeypatch.setattr(matchcover.multigraph, "_CANON_WORK_BUDGET", 100_000)
    assert canonical_form(g) == canonical_form(_relabeled(random.Random(a + b), g))


def test_canonical_form_invariant_under_relabeling_of_regular_graphs():
    # Past the oracle's reach: regular multigraphs, where refinement
    # splits nothing at the root, alone (n <= 16) and as two disjoint
    # copies (n <= 24).
    rng = random.Random(8008)
    for i in range(60):
        n = rng.choice((8, 10, 12) if i % 3 else (14, 16))
        g = _random_regular(rng, n, rng.choice((3, 4)))
        if i % 3:
            ends = [g.endpoints(e) for e in g.edge_ids]
            g = MultiGraph(2 * n, ends + [(u + n, v + n) for u, v in ends])
        assert canonical_form(g) == canonical_form(_relabeled(rng, g)), format_graph(g)


def _switched(rng: random.Random, g: MultiGraph) -> MultiGraph:
    """g relabeled at random, then, two times in three, with up to three
    switches, each replacing two disjoint edges ab, cd by ad, cb: the
    degrees stay the same, the isomorphism class may not."""
    h = _relabeled(rng, g)
    edges = [h.endpoints(e) for e in h.edge_ids]
    if len(edges) >= 2 and rng.random() < 2 / 3:
        for _ in range(rng.randrange(1, 4)):
            i, j = rng.sample(range(len(edges)), 2)
            (a, b), (c, d) = edges[i], edges[j]
            if len({a, b, c, d}) == 4:
                edges[i], edges[j] = (a, d), (c, b)
    return MultiGraph(g.vertices, edges)


def test_canonical_forms_are_equal_exactly_for_isomorphic_graphs():
    rng = random.Random(7007)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randrange(2, 8)
        g = random_graph(rng, n, rng.randrange(2 * n))
        h = _switched(rng, g)
        isomorphic = brute_isomorphic(g, h)
        assert (canonical_form(g) == canonical_form(h)) == isomorphic, (
            format_graph(g), format_graph(h))
        outcomes[isomorphic] += 1
    assert min(outcomes.values()) >= 50, outcomes
