import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcover.errors import CapabilityError, DomainError, ParseError
from matchcover.generators import named_graph
from matchcover.multigraph import (
    MultiGraph,
    canonical_form,
    format_graph,
    parse_graph,
)

from conftest import corpus_params, random_graph
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


def test_canonical_form_size_limit():
    big = MultiGraph(26, [(i, i + 1) for i in range(1, 26)])
    with pytest.raises(CapabilityError):
        canonical_form(big)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 9), st.integers(0, 6))
def test_canonical_form_invariant_under_relabeling(seed, n, extra):
    rng = random.Random(seed)
    g = random_graph(rng, n, extra)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    relabel = {v: perm[i] for i, v in enumerate(sorted(g.vertices))}
    h = MultiGraph(n, [tuple(map(relabel.get, g.endpoints(e))) for e in g.edge_ids])
    assert canonical_form(g) == canonical_form(h)
