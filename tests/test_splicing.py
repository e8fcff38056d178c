import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchcover.cuts
import matchcover.splicing
from matchcover.cli import main
from matchcover.cuts import (
    contractions,
    find_nontrivial_tight_cut,
    is_separating_cut,
    is_tight_cut,
)
from matchcover.dependence import (
    depends_on,
    equivalence_partition,
    is_equivalence_class,
    mutually_dependent,
)
from matchcover.errors import CapabilityError, DomainError, VerificationError
from matchcover.generators import named_graph
from matchcover.matching import is_admissible, is_matching_covered
from matchcover.multigraph import MultiGraph, _memoized, canonical_form, format_graph
from matchcover.splicing import (
    SpliceSpec,
    check_merge,
    cross_support,
    restrict_class,
    splice,
    splice_variants,
)

from _oracles import deletion_check_merge
from conftest import random_splice


def test_splice_k4_k4_is_c6bar():
    res = splice(SpliceSpec(named_graph("K4"), 1, named_graph("K4"), 1))
    assert canonical_form(res.graph) == canonical_form(named_graph("C6bar"))
    assert res.graph.n == 6
    assert res.graph.m == 9


def test_splice_keeps_first_graph_ids():
    g1 = named_graph("K4")
    res = splice(SpliceSpec(g1, 1, named_graph("K4"), 1))
    assert set(g1.edge_ids) <= set(res.graph.edge_ids)
    # vertices of g1 other than the spliced one survive verbatim
    assert set(g1.vertices) - {1} <= set(res.graph.vertices)


def test_splice_maps_cover_second_graph():
    g2 = named_graph("K4")
    res = splice(SpliceSpec(named_graph("K4"), 1, g2, 1))
    assert set(res.edge_map) == set(g2.edge_ids)
    assert set(res.vertex_map) == set(g2.vertices) - {1}
    # mapped vertices are fresh, no collision with g1
    assert not (set(res.vertex_map.values()) & set(named_graph("K4").vertices))


def test_splice_cut_provenance():
    # The cut edges are the joined edges: each keeps its first-graph id e
    # and edge_map sends pi(e) to it, so pi is recoverable.
    pi = {1: 2, 2: 3, 3: 1}
    res = splice(SpliceSpec(named_graph("K4"), 1, named_graph("K4"), 1, pi))
    assert res.cut.edges == {1, 2, 3}
    assert {f: e for f, e in res.edge_map.items() if e in res.cut.edges} == {
        right: left for left, right in pi.items()
    }


def test_splice_cut_is_separating_and_contractions_recover_inputs():
    g1, g2 = named_graph("W5"), named_graph("prism3")
    res = splice(SpliceSpec(g1, 2, g2, 1))  # rim vertex and prism corner, both degree 3
    assert is_separating_cut(res.graph, res.cut)
    c1, c2 = contractions(res.graph, res.cut)
    assert canonical_form(c1) == canonical_form(g1)
    assert canonical_form(c2) == canonical_form(g2)


def test_splice_degree_mismatch_rejected():
    with pytest.raises(DomainError):
        splice(SpliceSpec(named_graph("K4"), 1, named_graph("C6"), 1))


def test_splice_unknown_vertex_rejected():
    with pytest.raises(DomainError):
        splice(SpliceSpec(named_graph("K4"), 9, named_graph("K4"), 1))


def test_splice_bad_pi_rejected():
    g = named_graph("K4")
    star1 = sorted(g.boundary({1}))
    with pytest.raises(DomainError):
        splice(SpliceSpec(g, 1, g, 1, {star1[0]: 999}))
    with pytest.raises(DomainError):
        # not a bijection
        splice(SpliceSpec(g, 1, g, 1, dict.fromkeys(star1, star1[0])))


def test_splice_of_simple_graphs_is_simple():
    rng = random.Random(7)
    names = ["K4", "C6bar", "K3,3", "W5", "prism3", "petersen"]
    for _ in range(30):
        g = random_splice(rng, named_graph(rng.choice(names)), named_graph(rng.choice(names)))
        if g is None:
            continue
        assert g.underlying_simple().m == g.m


def test_splice_of_mc_graphs_is_mc():
    rng = random.Random(11)
    names = ["K4", "C6bar", "K3,3", "W5", "prism3", "prism4", "C6", "petersen", "K4,4"]
    checked = 0
    while checked < 40:
        g = random_splice(rng, named_graph(rng.choice(names)), named_graph(rng.choice(names)))
        if g is None:
            continue
        checked += 1
        assert is_matching_covered(g)


def test_splice_variants_dedup_and_membership():
    variants = splice_variants(named_graph("K4"), 1, named_graph("K4"), 1)
    assert len(variants) == 1  # every bijection gives the same graph
    w5 = named_graph("W5")
    variants = splice_variants(w5, 1, named_graph("W5"), 1)
    assert len(variants) >= 2
    assert canonical_form(named_graph("petersen")) in variants
    for form, res in variants.items():
        assert canonical_form(res.graph) == form
        assert is_matching_covered(res.graph)


def test_splice_variants_degree_limit():
    big = named_graph("K10")
    refusal = (
        r"splice variants: limited to stars of 8 edges, got 9 "
        r"\(splicing\.VARIANT_DEGREE_LIMIT\)"
    )
    with pytest.raises(CapabilityError, match=refusal):
        splice_variants(big, 1, named_graph("K10"), 1)


# -- cross support and merging -------------------------------------------------


def _bip_splice(seed=3):
    # tight splicing: bipartite times bipartite keeps the result bipartite,
    # and separating cuts of bipartite graphs are tight
    g1, g2 = named_graph("K3,3"), named_graph("K3,3")
    res = splice(SpliceSpec(g1, 1, g2, 1))
    return res.graph, res.cut


def test_bipartite_splice_cut_is_tight():
    g, cut = _bip_splice()
    assert g.is_bipartite
    assert is_tight_cut(g, cut)


def test_cross_support_domain_errors():
    g, cut = _bip_splice()
    some_cut_edge = next(iter(cut.edges))
    with pytest.raises(DomainError):
        cross_support(g, cut, 1, {some_cut_edge})
    g1, _ = contractions(g, cut)
    side1_edge = next(e for e in g1.edge_ids if e not in cut.edges)
    with pytest.raises(DomainError):
        cross_support(g, cut, 2, {side1_edge})  # wrong side
    with pytest.raises(DomainError):
        cross_support(named_graph("C6bar"), named_graph("C6bar").cut({1, 2}), 1, set())


def test_cross_support_empty_f_gives_whole_cut():
    g, cut = _bip_splice()
    for side in (1, 2):
        cs = cross_support(g, cut, side, set())
        assert cs.support == cut.edges


def test_cross_support_subset_of_cut():
    g, cut = _bip_splice()
    g1, g2 = contractions(g, cut)
    for side, h in ((1, g1), (2, g2)):
        for e in h.edge_ids:
            if e in cut.edges:
                continue
            cs = cross_support(g, cut, side, {e})
            assert cs.support <= cut.edges
            assert cs.support  # admissible edge in an mc contraction


def test_check_merge_needs_tight_cut():
    g = named_graph("C6bar")
    with pytest.raises(DomainError):
        check_merge(g, g.cut({1, 2, 3}), {1}, {4})


def test_check_merge_agrees_with_direct_on_bip_splice():
    g, cut = _bip_splice()
    g1, g2 = contractions(g, cut)
    classes_g = set(equivalence_partition(g).classes)
    side1 = [c for c in equivalence_partition(g1).classes if not c & cut.edges]
    side2 = [c for c in equivalence_partition(g2).classes if not c & cut.edges]
    assert side1 and side2
    for f1 in side1:
        for f2 in side2:
            predicted = check_merge(g, cut, f1, f2)
            assert predicted == ((f1 | f2) in classes_g)


def test_check_merge_refuses_a_union_of_contraction_classes():
    # {5, 21} is the union of the G1 classes {5} and {21}: the merge rule
    # says nothing about it, and {5, 21, 28} is no class of g.
    from matchcover.generators import build_high_kappa_epsilon

    t = build_high_kappa_epsilon(2, 2)
    g = t.final
    cut = g.cut(t.cuts[0].shore)
    g1, _ = contractions(g, cut)
    assert {frozenset({5}), frozenset({21})} <= set(equivalence_partition(g1).classes)
    assert not is_equivalence_class(g, {5, 21, 28})
    with pytest.raises(DomainError, match="classes of their contractions"):
        check_merge(g, cut, {5, 21}, {28})
    assert check_merge(g, cut, {21}, {28})
    assert is_equivalence_class(g, {21, 28})


def test_check_merge_matches_deletion_oracle_on_corpus(corpus):
    # Every side-class pair across each corpus graph's first tight cut.
    pairs = 0
    for name, g in corpus:
        cut = find_nontrivial_tight_cut(g)
        if cut is None:
            continue
        g1, g2 = contractions(g, cut)
        side1 = [c for c in equivalence_partition(g1).classes if not c & cut.edges]
        side2 = [c for c in equivalence_partition(g2).classes if not c & cut.edges]
        for f1 in side1:
            for f2 in side2:
                expected = deletion_check_merge(g, cut, f1, f2)
                assert check_merge(g, cut, f1, f2) == expected, (name, sorted(f1), sorted(f2))
                pairs += 1
    assert pairs


def test_check_merge_positive_case():
    # the construction's first stage merges {f0, f1} across its barrier cut
    from matchcover.generators import build_high_kappa_epsilon

    t = build_high_kappa_epsilon(2, 2)
    g = t.final
    cut = g.cut(t.cuts[0].shore)
    f0, f1 = t.f_edges
    assert check_merge(g, cut, {f0}, {f1})
    assert is_equivalence_class(g, {f0, f1})


def _spy_contractions(monkeypatch) -> list:
    built = []

    def spy(g, c):
        built.append(g)
        return contractions(g, c)

    monkeypatch.setattr(matchcover.cuts, "contractions", spy)
    monkeypatch.setattr(matchcover.splicing, "contractions", spy)
    return built


def test_check_merge_builds_the_contractions_once(monkeypatch):
    # One pair of contractions serves both supports and the merged
    # branch; a tight cut needs no separating re-check.
    from matchcover.generators import build_high_kappa_epsilon

    built = _spy_contractions(monkeypatch)
    t = build_high_kappa_epsilon(2, 2)
    g = t.final
    cut = g.cut(t.cuts[0].shore)
    f0, f1 = t.f_edges
    assert check_merge(g, cut, {f0}, {f1})
    assert built == [g]
    g, cut = _bip_splice()
    some_cut_edge = next(iter(cut.edges))
    with pytest.raises(DomainError):
        check_merge(g, cut, {some_cut_edge}, set())


def _spy_contract(monkeypatch) -> list:
    built = []
    contract = MultiGraph.contract

    def spy(g, shore):
        built.append(g)
        return contract(g, shore)

    monkeypatch.setattr(MultiGraph, "contract", spy)
    return built


def test_cross_support_builds_the_contractions_once(monkeypatch):
    # One pair, memoized on the cut, serves the separating check and
    # both sides' supports: two contraction builds in all.
    g, cut = _bip_splice()
    built = _spy_contract(monkeypatch)
    for side in (1, 2):
        assert cross_support(g, cut, side, set()).support == cut.edges
    assert built == [g, g]
    with pytest.raises(DomainError, match="side must be 1"):
        cross_support(g, cut, 3, set())


def test_merging_suite_builds_one_pair_and_one_tightness_proof(monkeypatch, tmp_path, capsys):
    # Every check_merge pair reads the memoized first cut of the suite,
    # so its contractions are built once and its tightness proved once.
    from matchcover.generators import build_high_kappa_epsilon

    (tmp_path / "final.g").write_text(format_graph(build_high_kappa_epsilon(2, 2).final))
    built = _spy_contract(monkeypatch)
    body = matchcover.cuts._is_tight.__wrapped__
    proved = []

    def counted(cut):
        proved.append(cut)
        return body(cut)

    monkeypatch.setattr(matchcover.cuts, "_is_tight", _memoized(counted))
    assert main(["corpus", "--check", "merging", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    pairs = int(out.split("PASS")[1].split()[0])
    assert pairs > 1
    assert len(built) == 2 and len(proved) == 1


def test_restrict_class_builds_no_contraction(monkeypatch):
    # A side's edges are read off the shore: an end on the kept side.
    g, cut = _bip_splice()
    g1, g2 = contractions(g, cut)
    built = _spy_contractions(monkeypatch)
    for cls in equivalence_partition(g):
        for side, h in ((1, g1), (2, g2)):
            edges = frozenset(e for e in cls if h.has_edge_id(e))
            assert restrict_class(g, cut, cls, side).edges == edges
            with pytest.raises(DomainError, match="class of the graph"):
                restrict_class(g, cut, cls | {10_000}, side)
    assert built == []
    with pytest.raises(DomainError, match="side must be 1"):
        restrict_class(g, cut, set(), 0)


def test_restrict_class_refuses_what_its_theorem_does_not_cover():
    from matchcover.generators import build_high_kappa_epsilon

    t = build_high_kappa_epsilon(2, 2)
    g = t.final
    cut = g.cut(t.cuts[0].shore)
    # {5, 21} is a class of neither g nor G1
    assert not is_equivalence_class(g, {5, 21})
    with pytest.raises(DomainError, match="class of the graph"):
        restrict_class(g, cut, {5, 21}, 1)
    # a cut that is not separating has no contraction partition to relate to
    p = named_graph("petersen")
    assert not is_separating_cut(p, p.cut({1, 2, 3}))
    with pytest.raises(DomainError, match="separating cut"):
        restrict_class(p, p.cut({1, 2, 3}), {1}, 1)


def test_restrict_class_tight_vs_separating():
    g, cut = _bip_splice()
    g1, g2 = contractions(g, cut)
    parts1 = set(equivalence_partition(g1).classes)
    parts2 = set(equivalence_partition(g2).classes)
    for cls in equivalence_partition(g):
        assert len(cls & cut.edges) <= 1
        for side, parts in ((1, parts1), (2, parts2)):
            r = restrict_class(g, cut, cls, side)
            if not r.edges:
                assert r.relation == "empty"
            else:
                assert r.relation == "equals_class"
                assert r.edges in parts


def test_restrict_class_separating_only_is_subset():
    g = named_graph("C6bar")
    cut = g.cut({1, 2, 3})
    g1, _ = contractions(g, cut)
    parts1 = set(equivalence_partition(g1).classes)
    for cls in equivalence_partition(g):
        r = restrict_class(g, cut, cls, 1)
        if r.edges:
            assert r.relation == "subset_of_class"
            assert any(r.edges <= p for p in parts1)


def test_dependence_across_tight_cut_edgewise():
    # f1 on side 1, f2 on side 2: f1 depends on f2 in the whole graph
    # exactly when every support edge of f1 depends on f2 in side 2
    g, cut = _bip_splice()
    g1, g2 = contractions(g, cut)
    side1 = [e for e in g1.edge_ids if e not in cut.edges]
    side2 = [e for e in g2.edge_ids if e not in cut.edges]
    for f1 in side1:
        support = cross_support(g, cut, 1, {f1}).support
        for f2 in side2:
            whole = depends_on(g, f1, f2)
            via_support = all(depends_on(g2, e, f2) for e in support)
            assert whole == via_support, (f1, f2)


def test_mutual_dependence_across_tight_cut_edgewise():
    # f1 and f2 are mutually dependent exactly when their supports agree
    # and each support edge is inadmissible in the side minus its edge
    g, cut = _bip_splice()
    g1, g2 = contractions(g, cut)
    side1 = [e for e in g1.edge_ids if e not in cut.edges]
    side2 = [e for e in g2.edge_ids if e not in cut.edges]
    for f1 in side1:
        s1 = cross_support(g, cut, 1, {f1}).support
        h1 = g1.delete_edge(f1)
        for f2 in side2:
            s2 = cross_support(g, cut, 2, {f2}).support
            h2 = g2.delete_edge(f2)
            predicted = (
                s1 == s2
                and all(not is_admissible(h1, e) for e in s1)
                and all(not is_admissible(h2, e) for e in s2)
            )
            assert predicted == mutually_dependent(g, f1, f2), (f1, f2)
