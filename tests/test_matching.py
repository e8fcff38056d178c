import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcover.errors import CapabilityError
from matchcover.generators import named_graph
from matchcover.matching import (
    BITMASK_LIMIT,
    enumerate_pms,
    has_pm_containing,
    is_admissible,
    is_matchable,
    is_matching_covered,
    matchable_minus,
    maximum_matching,
)
from matchcover.multigraph import MultiGraph

from _oracles import all_pms, brute_max_matching
from conftest import corpus_params, random_graph


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


def test_has_pm_containing_unknown_edge():
    g = named_graph("C6")
    assert not has_pm_containing(g, (99,))


def test_matchable_minus():
    g = named_graph("C6")
    assert matchable_minus(g, (1, 2))
    assert not matchable_minus(g, (1, 3))


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


def test_enumerate_pms_budget():
    with pytest.raises(CapabilityError):
        enumerate_pms(named_graph("K4,4"), budget=10)


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
    # same graph family straddling the bitmask/blossom switch
    for n in (BITMASK_LIMIT - 2, BITMASK_LIMIT, BITMASK_LIMIT + 2):
        g = named_graph(f"C{n}")
        assert is_matchable(g)
        assert is_matching_covered(g)
        assert not matchable_minus(g, (1, 3))
