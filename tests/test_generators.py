import dataclasses
import sys

import pytest

import matchcover.cuts
import matchcover.generators
from matchcover.cuts import classify, is_separating_cut, is_tight_cut, removable_edges
from matchcover.dependence import equivalence_partition, is_equivalence_class
from matchcover.errors import DomainError, VerificationError
from matchcover.generators import (
    MARKED_CUT_SHORES,
    build_high_kappa_epsilon,
    labeled_edge,
    named_graph,
    verify_trace,
)
from matchcover.matching import is_matching_covered
from matchcover.multigraph import MultiGraph, canonical_form
from matchcover.structure import is_barrier, vertex_connectivity

from _oracles import deletion_all_inadmissible


def test_named_graph_families():
    assert named_graph("K4").m == 6
    assert named_graph("k3,3").m == 9  # case-insensitive
    assert named_graph("C10").n == 10
    assert named_graph("prism4").n == 8
    assert named_graph("W5").n == 6
    assert named_graph("petersen").n == 10


def test_named_graph_rejections():
    for bad in ("C5", "C2", "K1", "K0,3", "prism2", "W2", "Q3", ""):
        with pytest.raises(DomainError):
            named_graph(bad)


def test_figure_graphs_shapes():
    c6bar = named_graph("c6bar")
    assert (c6bar.n, c6bar.m) == (6, 9)
    fig2b = named_graph("fig2b")
    assert (fig2b.n, fig2b.m) == (8, 12)
    assert all(len(fig2b.boundary({v})) == 3 for v in fig2b.vertices)
    fig2c = named_graph("fig2c")
    assert (fig2c.n, fig2c.m) == (8, 12)
    for g in (c6bar, fig2b, fig2c):
        assert is_matching_covered(g)


def test_figure_labels():
    c6bar = named_graph("c6bar")
    for label in ("e1", "e2", "f1", "f2", "g1", "g2"):
        labeled_edge(c6bar, label)
    with pytest.raises(DomainError):
        labeled_edge(c6bar, "zz")


def test_marked_cuts_match_the_figures():
    for name, expect_tight in (("c6bar", False), ("fig2b", False), ("fig2c", True)):
        g = named_graph(name)
        cut = g.cut(MARKED_CUT_SHORES[name])
        assert not cut.is_trivial
        assert is_separating_cut(g, cut)
        assert is_tight_cut(g, cut) is expect_tight


def test_fig2b_is_a_brick_with_one_removable_edge():
    g = named_graph("fig2b")
    assert classify(g) == "brick"
    assert len(removable_edges(g)) == 1


def test_construction_rejects_small_parameters():
    for p, q in ((1, 2), (2, 1), (0, 5), (2, 0)):
        with pytest.raises(DomainError):
            build_high_kappa_epsilon(p, q)


def test_construction_rejects_unfit_base():
    # base must be a brace with enough connectivity for the target p
    with pytest.raises(DomainError):
        build_high_kappa_epsilon(2, 2, named_graph("C6"), 1)  # not a brace
    with pytest.raises(DomainError):
        build_high_kappa_epsilon(3, 2, named_graph("K3,3"), 1)  # needs 4-connected
    with pytest.raises(DomainError):
        build_high_kappa_epsilon(2, 2, named_graph("K4"), 1)  # not bipartite
    with pytest.raises(DomainError):
        build_high_kappa_epsilon(2, 2, named_graph("K3,3"), 99)  # no such vertex


def test_construction_sizing():
    for p, q in ((2, 2), (2, 3), (3, 3)):
        t = build_high_kappa_epsilon(p, q)
        h = p + 1
        assert t.base.n == 2 * h
        assert t.final.n == (2 * q - 1) * 2 * h - 2 * (q - 1)
        assert len(t.blocks) == q - 1
        assert len(t.graphs) == q - 1
        assert len(t.f_edges) == q
        assert len(t.cuts) == q - 1


def test_construction_trace_identities():
    t = build_high_kappa_epsilon(2, 3)
    g = t.final
    # designated edges really exist and stay distinct
    assert len(set(t.f_edges)) == t.q
    for f in t.f_edges:
        assert g.has_edge_id(f)
    # every stage cut is a tight barrier cut of its stage graph
    for i, cut in enumerate(t.cuts):
        stage = t.graphs[i]
        assert is_barrier(stage, t.b0)
        assert is_tight_cut(stage, stage.cut(cut.shore))


def test_constructed_epsilon_class():
    t = build_high_kappa_epsilon(2, 2)
    assert is_equivalence_class(t.final, frozenset(t.f_edges))
    eq = equivalence_partition(t.final)
    assert frozenset(t.f_edges) in set(eq.classes)
    assert eq.epsilon >= 2


def test_constructed_connectivity():
    t = build_high_kappa_epsilon(2, 2)
    assert vertex_connectivity(t.final) >= 2
    t = build_high_kappa_epsilon(3, 2)
    assert vertex_connectivity(t.final) >= 3


def test_verify_trace_passes():
    report = verify_trace(build_high_kappa_epsilon(2, 2))
    assert all(row["ok"] for row in report.values())
    names = set(report)
    assert "sizing" in names and "connectivity" in names and "epsilon" in names


def test_verify_trace_custom_base():
    t = build_high_kappa_epsilon(2, 2, named_graph("K4,4"), 2)
    report = verify_trace(t)
    assert all(row["ok"] for row in report.values())


def _misrouted(p, q, monkeypatch):
    # The negative control: each splice bijection swaps the images of its
    # least rung (the edge pi sends to a C' spoke) and its least other
    # star edge, so one rung misses its designated receiver.  The result
    # still splices, but verify_trace must fail the merged-class checks.
    splice = matchcover.generators.splice

    def swapped(spec):
        rungs = [e for e, f in spec.pi.items() if spec.g2.edge_labels.get(f, "").startswith("C'")]
        c, rest = min(rungs), min(e for e in spec.pi if e not in rungs)
        pi = dict(spec.pi)
        pi[c], pi[rest] = pi[rest], pi[c]
        return splice(dataclasses.replace(spec, pi=pi))

    with monkeypatch.context() as m:
        m.setattr(matchcover.generators, "splice", swapped)
        return build_high_kappa_epsilon(p, q)


@pytest.mark.parametrize("p,q,anchor", [(2, 2, 4), (2, 3, 6), (3, 3, 5)])
def test_anchor_without_a_base_marks_that_vertex_of_the_default_brace(p, q, anchor):
    t = build_high_kappa_epsilon(p, q, anchor=anchor)
    assert t.anchor == anchor and t.base.n == 2 * (p + 1)
    assert all(row["ok"] for row in verify_trace(t).values())


def test_anchor_outside_the_default_brace_is_refused():
    with pytest.raises(DomainError, match="anchor 99 is not a vertex of the base graph"):
        build_high_kappa_epsilon(2, 2, anchor=99)


def test_brick_check_reads_the_scan_refusal_for_its_size_limit(monkeypatch):
    # The exhaustive size limit is the cuts module's alone; the brick
    # check of verify_trace skips the scan when the scan refuses.
    brick = matchcover.generators._brick_both_routes
    assert brick(named_graph("petersen")) == (True, "fast path and exhaustive scan agree")
    monkeypatch.setattr(matchcover.cuts, "EXHAUSTIVE_LIMIT", 8)
    skipped = "fast path passed; exhaustive scan skipped at 10 vertices"
    assert brick(named_graph("petersen")) == (True, skipped)


def test_misroute_fails_verification(monkeypatch):
    t = _misrouted(2, 2, monkeypatch)
    with pytest.raises(VerificationError) as exc_info:
        verify_trace(t)
    report = exc_info.value.report
    failed = {name for name, row in report.items() if not row["ok"]}
    assert any("merged-class" in name for name in failed)


_TRACES = [(2, 2, False), (2, 3, False), (3, 3, False), (3, 4, False),
           (2, 2, True), (2, 3, True), (3, 3, True)]


@pytest.mark.parametrize("p,q,misroute", _TRACES)
def test_inadmissibility_checks_match_the_deletion_oracle(p, q, misroute, monkeypatch):
    # Each check asks g's own engine whether g - ends(e) - F has a
    # perfect matching; the earlier body asked the graph g - F.  The
    # verdicts agree on every check of well-built and misrouted traces
    # alike, with the check's targets and with every other edge of g as
    # targets; where F is one edge or one class, some edge stays admissible.
    t = _misrouted(p, q, monkeypatch) if misroute else build_high_kappa_epsilon(p, q)
    seen = []

    def both(g, removed, targets):
        verdict = inadmissible(g, removed, targets)
        assert verdict == deletion_all_inadmissible(g, removed, targets)
        seen.append(verdict[0])
        rest = [e for e in g.edge_ids if e not in removed]
        assert inadmissible(g, removed, rest) == deletion_all_inadmissible(g, removed, rest)
        if len(removed) == 1 or is_equivalence_class(g, removed):
            assert not inadmissible(g, removed, rest)[0]
        return verdict

    inadmissible = matchcover.generators._all_inadmissible
    monkeypatch.setattr(matchcover.generators, "_all_inadmissible", both)
    try:
        verify_trace(t)
    except VerificationError:
        assert misroute
    assert len(seen) == 2 * q - 1


def test_verify_trace_builds_no_graph_minus_edges():
    t = build_high_kappa_epsilon(3, 3)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is MultiGraph.delete_edges.__code__:
            calls.append(frame.f_locals["self"])

    sys.setprofile(profile)
    try:
        verify_trace(t)
    finally:
        sys.setprofile(None)
    assert calls == []


def test_misrouted_graph_is_still_matching_covered(monkeypatch):
    # the negative control corrupts the merge, not matching coveredness
    t = _misrouted(2, 2, monkeypatch)
    assert is_matching_covered(t.final)


def test_construction_is_deterministic():
    a = build_high_kappa_epsilon(2, 3)
    b = build_high_kappa_epsilon(2, 3)
    from matchcover.multigraph import format_graph

    assert format_graph(a.final) == format_graph(b.final)
    assert a.f_edges == b.f_edges
