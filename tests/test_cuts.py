import random
from collections import Counter
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchcover.cli
import matchcover.cuts
from matchcover.cuts import (
    EXHAUSTIVE_LIMIT,
    _bipartite_tight_cut,
    _brace_obstruction,
    _brick_certificate,
    _is_brace,
    _decompose,
    _two_separation_candidates,
    barrier_cuts,
    classify,
    contractions,
    exhaustive_nontrivial_tight_cut,
    find_nontrivial_tight_cut,
    is_separating_cut,
    is_solid_brick,
    is_tight_cut,
    make_chooser,
    nontrivial_separating_cut,
    separating_cut_decomposition,
    tight_cut_candidates,
    tight_cut_decomposition,
    verify_bounds,
)
from matchcover.errors import CapabilityError, DomainError, VerificationError
from matchcover.generators import MARKED_CUT_SHORES, named_graph
from matchcover.matching import is_matching_covered
from matchcover.multigraph import MultiGraph, canonical_form, format_graph
from matchcover.structure import vertex_connectivity

from _oracles import (
    all_pms,
    brute_brace_obstruction,
    brute_hall_set,
    brute_hall_violator,
    brute_two_separation_candidates,
    direct_is_tight,
    odd_cuts_with_small_shore,
    pairwise_is_bicritical,
    stream_chooser,
    triple_is_tight,
)
from conftest import (
    _CORPUS,
    corpus_params,
    gen,
    gen_graph,
    random_mc_graph,
    random_nonbipartite_mc_graph,
    sparse_mc_graphs,
)


def test_marked_cut_verdicts():
    # the three depicted cuts: two separating-but-not-tight, one tight
    for name, tight in (("c6bar", False), ("fig2b", False), ("fig2c", True)):
        g = named_graph(name)
        cut = g.cut(MARKED_CUT_SHORES[name])
        assert is_separating_cut(g, cut), name
        assert is_tight_cut(g, cut) == tight, name


def test_tight_cut_rejects_even_cut():
    g = named_graph("C6")
    assert not is_tight_cut(g, g.cut({1, 2}))


def test_trivial_cuts_are_tight():
    g = named_graph("petersen")
    assert is_tight_cut(g, g.cut({1}))


def test_barrier_cut_is_tight():
    g = named_graph("C6")
    # maximal barrier {1,3,5}: each component of G-B with its neighbors
    cut = g.cut({2})
    assert is_tight_cut(g, cut)
    # the 2-separation shore {1,2,3} of C6 gives a tight cut
    assert is_tight_cut(g, g.cut({1, 2, 3}))


def test_contractions_shapes():
    g = named_graph("fig2c")
    cut = g.cut(MARKED_CUT_SHORES["fig2c"])
    g1, g2 = contractions(g, cut)
    assert g1.n == len(cut.shore) + 1
    assert g2.n == len(cut.other_shore) + 1
    assert set(cut.edges) <= set(g1.edge_ids)
    assert set(cut.edges) <= set(g2.edge_ids)


def test_find_nontrivial_tight_cut_bricks_and_braces():
    for name in ("K4", "C6bar", "petersen", "K3,3", "K4,4", "C4"):
        assert find_nontrivial_tight_cut(named_graph(name)) is None, name


def test_find_nontrivial_tight_cut_positive():
    for name in ("C6", "C8", "C10", "fig2c"):
        g = named_graph(name)
        cut = find_nontrivial_tight_cut(g)
        assert cut is not None, name
        assert is_tight_cut(g, cut), name
        assert not cut.is_trivial, name


def test_find_agrees_with_exhaustive():
    for name in ("C6", "C8", "K4", "C6bar", "K3,3", "fig2b", "fig2c", "W5", "prism3", "prism4"):
        g = named_graph(name)
        fast = find_nontrivial_tight_cut(g)
        slow = exhaustive_nontrivial_tight_cut(g)
        assert (fast is None) == (slow is None), name


def test_exhaustive_limit():
    # Both sides of the default limit.  The first odd shore of C24 is
    # tight, so the scan at the limit ends at once.
    assert EXHAUSTIVE_LIMIT == 24
    g = named_graph("C24")
    slow = exhaustive_nontrivial_tight_cut(g)
    assert slow is not None and slow.shore == {1, 2, 3}
    fast = find_nontrivial_tight_cut(g)
    assert fast is not None and is_tight_cut(g, slow) and is_tight_cut(g, fast)
    refusal = (
        r"exhaustive tight-cut search: .*limited to 24 vertices, got 26 "
        r"\(cuts\.EXHAUSTIVE_LIMIT\)$"
    )
    with pytest.raises(CapabilityError, match=refusal):
        exhaustive_nontrivial_tight_cut(named_graph("C26"))


@pytest.mark.parametrize("n", [EXHAUSTIVE_LIMIT, EXHAUSTIVE_LIMIT + 2])
def test_fast_tight_cut_agrees_with_exhaustive_around_the_limit(n, monkeypatch):
    # Sparse graphs at the limit and past it (where the scan needs the
    # limit raised to n), bipartite ones found by the 2-separation pass
    # and spliced nonbipartite ones; the scan ends at its first tight shore.
    for g in sparse_mc_graphs(n):
        if n > EXHAUSTIVE_LIMIT:
            with pytest.raises(CapabilityError):
                exhaustive_nontrivial_tight_cut(g)
        with monkeypatch.context() as m:
            m.setattr(matchcover.cuts, "EXHAUSTIVE_LIMIT", n)
            slow = exhaustive_nontrivial_tight_cut(g)
        fast = find_nontrivial_tight_cut(g)
        assert fast is not None and slow is not None
        assert is_tight_cut(g, fast) and not fast.is_trivial


def test_separating_cut_refusal_names_phase_limit_and_setting(monkeypatch):
    # The Petersen graph is a brick, so only the odd-shore scan is left.
    monkeypatch.setattr(matchcover.cuts, "EXHAUSTIVE_LIMIT", 8)
    refusal = (
        r"separating cut search: .*limited to 8 vertices, got 10 "
        r"\(cuts\.EXHAUSTIVE_LIMIT\)$"
    )
    with pytest.raises(CapabilityError, match=refusal):
        nontrivial_separating_cut(named_graph("petersen"))


def test_separating_cut_examples():
    g = named_graph("C6bar")
    assert is_separating_cut(g, g.cut({1, 2, 3}))
    assert not is_separating_cut(g, g.cut({1, 2}))


def test_tight_implies_separating():
    for name in ("C6", "C8", "fig2c"):
        g = named_graph(name)
        cut = find_nontrivial_tight_cut(g)
        assert is_separating_cut(g, cut), name


def test_nontrivial_separating_cut_solid_vs_not():
    # C6bar has a separating cut but no tight cut
    g = named_graph("C6bar")
    assert find_nontrivial_tight_cut(g) is None
    cut = nontrivial_separating_cut(g)
    assert cut is not None
    assert is_separating_cut(g, cut)
    # the Petersen graph splits along its two pentagons
    pet = named_graph("petersen")
    cut = nontrivial_separating_cut(pet)
    assert cut is not None and is_separating_cut(pet, cut)
    # odd wheels are solid: no separating cut at all
    assert nontrivial_separating_cut(named_graph("W5")) is None


def test_is_solid_brick():
    # odd wheels are solid bricks; bricks with a separating cut are not
    assert is_solid_brick(named_graph("K4"))
    assert is_solid_brick(named_graph("W5"))
    assert is_solid_brick(named_graph("W7"))
    assert not is_solid_brick(named_graph("petersen"))
    assert not is_solid_brick(named_graph("C6bar"))
    assert not is_solid_brick(named_graph("fig2b"))
    assert not is_solid_brick(named_graph("C6"))  # not a brick at all


def test_classify():
    assert classify(named_graph("K4")) == "brick"
    assert classify(named_graph("C6bar")) == "brick"
    assert classify(named_graph("petersen")) == "brick"
    assert classify(named_graph("K3,3")) == "brace"
    assert classify(named_graph("C4")) == "brace"
    assert classify(named_graph("K4,4")) == "brace"
    assert classify(named_graph("C6")) == "neither"
    assert classify(named_graph("fig2c")) == "neither"
    assert classify(named_graph("W5")) == "brick"  # odd wheel
    assert classify(named_graph("prism4")) == "brace"  # the cube


def test_decomposition_cycles():
    for k in (2, 3, 4, 5, 6):
        g = named_graph(f"C{2 * k}")
        r = tight_cut_decomposition(g)
        assert r.b == 0
        assert r.c4 == k - 1
        assert len(r.leaves) == max(1, k - 1)
        assert all(tag == "brace" for _, tag in r.leaves)


def test_decomposition_bricks_are_leaves():
    for name in ("K4", "C6bar", "petersen"):
        r = tight_cut_decomposition(named_graph(name))
        assert r.b == 1 and r.c4 == 0
        assert len(r.leaves) == 1


def test_decomposition_odd_wheels_are_single_bricks():
    for name in ("W5", "W7"):
        r = tight_cut_decomposition(named_graph(name))
        assert r.b == 1 and r.c4 == 0
        assert len(r.leaves) == 1


@pytest.mark.parametrize("g", corpus_params())
def test_decomposition_leaves_have_no_tight_cuts(g):
    r = tight_cut_decomposition(g)
    for leaf, tag in r.leaves:
        assert is_matching_covered(leaf)
        assert find_nontrivial_tight_cut(leaf) is None
        assert tag == ("brace" if leaf.is_bipartite else "brick")


@pytest.mark.parametrize("g", corpus_params())
def test_decomposition_strategy_invariance(g):
    strategies = ("first", "reverse", "random:1", "random:2", "random:3")
    forms = [
        tuple(tight_cut_decomposition(g, make_chooser(s)).leaf_forms)
        for s in strategies
    ]
    assert all(f == forms[0] for f in forms)


def test_leaf_form_is_the_form_of_the_underlying_simple_graph():
    # A C4 leaf returns the form taken at import; every leaf must still
    # get the form its underlying simple graph has.  The inputs are the
    # corpus and seeded bipartite graphs with some edges doubled, whose
    # contractions give C4 leaves with parallel sides.
    rng = random.Random(2728)
    graphs = [p.values[0] for p in corpus_params()]
    for _ in range(100):
        g = random_mc_graph(rng, rng.choice((6, 8, 10, 12)), rng.randrange(2, 10))
        ends = [g.endpoints(e) for e in g.edge_ids]
        graphs.append(MultiGraph(g.n, ends + rng.sample(ends, rng.randrange(3))))
    kinds = Counter()
    for g in graphs:
        for leaf, _ in tight_cut_decomposition(g).leaves:
            c4 = matchcover.cuts._is_c4_up_to_multiplicity(leaf)
            kinds[c4, c4 and leaf.m > 4] += 1
            assert matchcover.cuts._leaf_form(leaf) == canonical_form(leaf.underlying_simple())
    assert kinds[True, True] >= 50 and kinds[True, False] and kinds[False, False], kinds


def _suite_strategies(g: MultiGraph, seed: int, monkeypatch) -> list[str]:
    # The strategies the corpus uniqueness suite asks for at `seed`.
    asked = []

    def spy(strategy):
        asked.append(strategy)
        return make_chooser(strategy)

    with monkeypatch.context() as patch:
        patch.setattr(matchcover.cli, "make_chooser", spy)
        assert matchcover.cli._suite_uniqueness(g, seed)[0] == "PASS"
    return asked


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("g", corpus_params())
def test_strategies_split_as_a_fresh_stream_does(g, seed, monkeypatch):
    # The memoized candidate list keeps the stream's order, so every
    # strategy, random draws included, makes the splits and leaves of a
    # chooser that reads the whole stream anew on each graph.
    strategies = _suite_strategies(g, seed, monkeypatch)
    assert len(strategies) == 5
    for strategy in strategies:
        ours = tight_cut_decomposition(g, make_chooser(strategy))
        ref = _decompose(g, stream_chooser(strategy), "tight")
        assert ours.splits == ref.splits, strategy
        assert [(format_graph(h), tag) for h, tag in ours.leaves] == [
            (format_graph(h), tag) for h, tag in ref.leaves
        ], strategy


def test_make_chooser_rejects_unknown():
    with pytest.raises(DomainError):
        make_chooser("sideways")
    with pytest.raises(DomainError):
        make_chooser("random:x")
    for strategy in ("randomly", "random:", "random_7", "Random:1"):
        with pytest.raises(DomainError):
            make_chooser(strategy)
    g = named_graph("C6")
    for strategy in ("random", "random:7", "random:-3"):
        assert make_chooser(strategy)(g) in tight_cut_candidates(g)


def test_bipartite_iff_b_zero():
    for name in ("C6", "C8", "K3,3", "K4,4", "C4"):
        assert tight_cut_decomposition(named_graph(name)).b == 0, name
    for name in ("K4", "C6bar", "petersen", "W5", "fig2b", "fig2c", "K6"):
        assert tight_cut_decomposition(named_graph(name)).b > 0, name


@pytest.mark.parametrize("g", corpus_params())
def test_bounds_hold_on_corpus(g):
    vb = verify_bounds(g)
    for key in ("bipartiteBoundHolds", "nonbipartiteBoundHolds", "evenTwoCutFreeBoundHolds"):
        assert vb[key] in (None, True), key


def test_separating_decomposition_c6bar():
    g = named_graph("C6bar")
    r = separating_cut_decomposition(g)
    # C6bar splits along a separating cut into two K4-like pieces
    assert len(r.leaves) == 2
    for leaf, _ in r.leaves:
        assert is_matching_covered(leaf)
        assert nontrivial_separating_cut(leaf) is None


def test_separating_decomposition_solid_is_leaf():
    r = separating_cut_decomposition(named_graph("W5"))
    assert len(r.leaves) == 1


def test_separating_decomposition_petersen_splits_into_wheels():
    # the two-pentagon cut splits the Petersen graph into two 5-wheels
    r = separating_cut_decomposition(named_graph("petersen"))
    assert len(r.leaves) == 2
    w5 = canonical_form(named_graph("W5"))
    assert all(canonical_form(leaf) == w5 for leaf, _ in r.leaves)


def test_tight_cut_direct_oracle_on_named():
    for name in ("C6", "K4", "C6bar", "fig2b", "fig2c", "K3,3"):
        g = named_graph(name)
        for shore, edges in odd_cuts_with_small_shore(g, 3):
            assert is_tight_cut(g, g.cut(shore)) == direct_is_tight(g, edges), (
                name,
                sorted(shore),
            )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_tight_cut_direct_oracle_random(seed):
    rng = random.Random(seed)
    g = random_mc_graph(rng, rng.choice((6, 8)), rng.randrange(5))
    for shore, edges in odd_cuts_with_small_shore(g, 3):
        cut = g.cut(shore)
        assert is_tight_cut(g, cut) == direct_is_tight(g, edges) == triple_is_tight(g, cut)


@pytest.mark.parametrize("g", corpus_params())
def test_pair_tight_cut_test_agrees_with_triple_oracle_on_corpus(g):
    # A perfect matching meets an odd cut oddly, so two disjoint cut
    # edges below the largest, in one perfect matching, decide what
    # three used to.
    for shore, _ in odd_cuts_with_small_shore(g, 5):
        cut = g.cut(shore)
        assert is_tight_cut(g, cut) == triple_is_tight(g, cut), sorted(shore)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_fast_tight_cut_agrees_with_exhaustive_random(seed):
    rng = random.Random(seed)
    g = random_mc_graph(rng, rng.choice((6, 8, 10)), rng.randrange(7))
    fast = find_nontrivial_tight_cut(g)
    slow = exhaustive_nontrivial_tight_cut(g)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert is_tight_cut(g, fast)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_bipartite_separating_cuts_are_tight_random(seed):
    # separating cuts of bipartite graphs are tight; checked empirically
    # here because nontrivial_separating_cut leans on it
    rng = random.Random(seed)
    n = rng.choice((6, 8))
    half = n // 2
    g = MultiGraph(n)
    for i in range(1, half + 1):
        g = g.add_edge(i, half + i)[0]
    for _ in range(rng.randrange(2, 6)):
        u = rng.randrange(1, half + 1)
        v = rng.randrange(half + 1, n + 1)
        g = g.add_edge(u, v)[0]
    if not is_matching_covered(g):
        return
    pms = all_pms(g)
    for shore, edges in odd_cuts_with_small_shore(g, 5):
        if not edges or g.cut(shore).is_trivial:
            continue
        if is_separating_cut(g, g.cut(shore)):
            assert all(len(pm & edges) == 1 for pm in pms)


def _certificate_inputs() -> list[MultiGraph]:
    # The matching covered corpus graphs and 120 seeded nonbipartite
    # ones, every third with one edge doubled.
    graphs = [g for _, g in _CORPUS if is_matching_covered(g)]
    rng = random.Random(8)
    for i in range(120):
        n = rng.choice((6, 8, 10))
        g = random_nonbipartite_mc_graph(rng, n, rng.randrange(n))
        if i % 3 == 0:
            g = g.add_edge(*g.endpoints(rng.choice(g.edge_ids)))[0]
        graphs.append(g)
    return graphs


def test_brick_certificate_matches_the_pair_scan():
    # The brick certificate agrees with 3-connectivity and the pair scan
    # on both kinds of input.
    bricks = not_bicritical = 0
    for g in _certificate_inputs():
        bicritical = pairwise_is_bicritical(g)
        expected = vertex_connectivity(g) >= 3 and bicritical
        assert _brick_certificate(g) == expected, g
        bricks += expected
        not_bicritical += not bicritical
    assert bricks >= 20 and not_bicritical >= 20


def test_first_tight_cut_heads_the_candidate_stream():
    for g in _certificate_inputs():
        cands = tight_cut_candidates(g)
        assert find_nontrivial_tight_cut(g) == (cands[0] if cands else None)


def _scan_inputs() -> list[MultiGraph]:
    # The matching covered corpus, the sparse graphs of order 18 and 20,
    # and 180 seeded graphs, alternately bipartite (dense enough to hold
    # braces) and not, every third with one edge doubled.
    graphs = [g for _, g in _CORPUS if is_matching_covered(g)]
    graphs += sparse_mc_graphs(18) + sparse_mc_graphs(20)
    rng = random.Random(9)
    for i in range(180):
        n = rng.choice((6, 8, 10, 12))
        if i % 2:
            g = random_mc_graph(rng, n, rng.randrange(n, 4 * n))
        else:
            g = random_nonbipartite_mc_graph(rng, n, rng.randrange(2 * n))
        if i % 3 == 0:
            g = g.add_edge(*g.endpoints(rng.choice(g.edge_ids)))[0]
        graphs.append(g)
    return graphs


def test_two_separation_pass_matches_the_pair_scan():
    separated = 0
    for g in _scan_inputs():
        shores = [cut.shore for cut in _two_separation_candidates(g)]
        assert shores == [cut.shore for cut in brute_two_separation_candidates(g)], g
        separated += bool(shores)
    assert separated >= 20


def test_first_cut_is_the_first_tight_cut_of_the_plain_scans():
    # The search stops at its first tight candidate, and that is the first
    # tight cut among the barrier cuts followed by the pair scan's
    # 2-separation cuts, whenever those hold one.
    checked = 0
    for g in _scan_inputs():
        plain = chain(barrier_cuts(g), brute_two_separation_candidates(g))
        expected = next((cut for cut in plain if triple_is_tight(g, cut)), None)
        if expected is not None:
            assert find_nontrivial_tight_cut(g) == expected, g
            checked += 1
    assert checked >= 50


def test_brace_test_matches_the_quadruple_scan():
    # The 4-tuple and the Hall set S against the plain scan and the Hall
    # search on a fresh maximum matching of g minus the 4-tuple, S also
    # against its Gallai-Edmonds definition where brute force is cheap,
    # and the certificate's cut against the one the oracle S gives.
    obstructed = braces = defined = 0
    for g in _scan_inputs():
        parts = g.bipartition()
        if parts is None:
            continue
        found = _brace_obstruction(g, parts)
        quad = brute_brace_obstruction(g, parts)
        if quad is None:
            assert found is None, g
            braces += g.n >= 6
            continue
        h, a_side = g.delete_vertices(quad), parts[0] - set(quad[:2])
        s = brute_hall_violator(h, a_side)
        assert found == (quad, s), g
        shore = set(s)
        for a in s:
            shore.update(g.neighbors(a))
        assert _bipartite_tight_cut(g, parts) == g.cut(shore), g
        obstructed += 1
        if g.n <= 12:
            assert s == brute_hall_set(h, a_side), g
            defined += 1
    assert obstructed >= 20 and braces >= 20 and defined >= 20


def _brace_verdict_inputs() -> list[MultiGraph]:
    # 520 seeded bipartite matching covered graphs, n = 8..20, sparse and
    # dense (minimum degree 3), every fifth with one edge doubled; and
    # K_{k,k} for k = 3..8, alone and with one edge doubled.
    rng = random.Random(21)
    graphs = []
    for i in range(520):
        n = 8 + 2 * (i % 7)
        dense = i % 2 == 1
        chords = n if dense else rng.randrange(n // 4, n + 1)
        g = gen_graph(gen.bipartite_mc(rng, n, chords, 3 if dense else 2))
        if i % 5 == 0:
            g = g.add_edge(*g.endpoints(rng.choice(g.edge_ids)))[0]
        graphs.append(g)
    for k in range(3, 9):
        g = named_graph(f"K{k},{k}")
        graphs += [g, g.add_edge(*g.endpoints(1))[0]]
    return graphs


def test_brace_verdict_matches_the_ordered_and_quadruple_scans():
    braces = obstructed = 0
    for g in _brace_verdict_inputs():
        parts = g.bipartition()
        verdict = _is_brace(g, parts)
        assert verdict == (_brace_obstruction(g, parts) is None), g
        assert verdict == (brute_brace_obstruction(g, parts) is None), g
        braces += verdict
        obstructed += not verdict
    assert braces >= 150 and obstructed >= 150


def test_brace_test_raises_when_the_ordered_scan_finds_no_obstruction(monkeypatch):
    # C8 is no brace, so the digraph rejects it; a scan that then finds
    # no failing 4-tuple contradicts 2-extendability.
    g = named_graph("C8")
    monkeypatch.setattr(matchcover.cuts, "_brace_obstruction", lambda g, parts: None)
    with pytest.raises(VerificationError) as err:
        _bipartite_tight_cut(g, g.bipartition())
    assert err.value.check == "brace-test"


def test_a_barrier_cut_that_is_not_tight_raises(monkeypatch):
    # The cut around an odd component of g - B is tight for every barrier
    # B of a matching covered graph, so the barrier phase refuses to skip one.
    g = named_graph("fig2c")
    monkeypatch.setattr(matchcover.cuts, "is_tight_cut", lambda g, cut: False)
    with pytest.raises(VerificationError) as err:
        find_nontrivial_tight_cut(g)
    assert err.value.check == "barrier-cuts"


def _odd_shore_graphs() -> list[MultiGraph]:
    # Seeded bipartite and nonbipartite matching covered graphs, n <= 10.
    rng = random.Random(20261021)
    graphs = [named_graph(name) for name in ("K4", "C6bar", "fig2b", "fig2c", "petersen")]
    for n in (6, 8, 10):
        graphs += [random_mc_graph(rng, n, rng.randrange(2, 9)) for _ in range(3)]
        graphs += [random_nonbipartite_mc_graph(rng, n, rng.randrange(2, 9)) for _ in range(3)]
    return graphs


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_tight_cut_verdicts_do_not_depend_on_the_order_of_the_questions(order):
    # Tightness queries share one list of perfect matchings per graph,
    # so each order is asked of a fresh copy, on every odd shore that
    # holds the least vertex: the verdicts must match full enumeration
    # and, up to order 8, the triple oracle.
    rng = random.Random(order)
    graphs = _odd_shore_graphs()
    assert sum(g.is_bipartite for g in graphs) >= 9 and sum(not g.is_bipartite for g in graphs) >= 9
    tight = 0
    for g in graphs:
        pms = all_pms(g)
        least, rest = g.vertices[0], g.vertices[1:]
        shores = [frozenset((least, *more)) for size in range(0, g.n - 1, 2)
                  for more in combinations(rest, size)]
        if order == "descending":
            shores.reverse()
        elif order == "shuffled":
            rng.shuffle(shores)
        fresh = MultiGraph.with_ids(g.vertices, dict(g.edge_items()))
        for shore in shores:
            cut = fresh.cut(shore)
            verdict = is_tight_cut(fresh, cut)
            assert verdict == all(len(pm & cut.edges) == 1 for pm in pms), sorted(shore)
            if g.n <= 8:
                assert verdict == triple_is_tight(g, g.cut(shore)), sorted(shore)
            tight += verdict and not cut.is_trivial
    assert tight >= 40
