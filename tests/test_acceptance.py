"""Acceptance gate: one test per criterion, one pass/fail line each.

Every criterion is checked exactly, tolerance zero, against independent
oracles where the criterion names one. Runtime limits are asserted too.
"""

import random
import time

from matchcover.cuts import (
    classify,
    contractions,
    is_separating_cut,
    is_tight_cut,
    make_chooser,
    tight_cut_decomposition,
    verify_bounds,
)
from matchcover.dependence import (
    epsilon,
    equivalence_partition,
    removable_classes,
    removable_edges,
)
from matchcover.generators import (
    MARKED_CUT_SHORES,
    build_high_kappa_epsilon,
    named_graph,
    verify_trace,
)
from matchcover.matching import (
    is_matchable,
    is_matching_covered,
    maximum_matching,
)
from matchcover.multigraph import canonical_form
from matchcover.splicing import SpliceSpec, check_merge, cross_support, splice
from matchcover.structure import (
    canonical_partition,
    even_2cuts,
    is_barrier,
    vertex_connectivity,
)
from matchcover.dependence import depends_on, mutually_dependent
from matchcover.matching import is_admissible

from _oracles import (
    all_pms,
    brute_max_matching,
    deletion_check_merge,
    odd_cuts_with_small_shore,
)
from conftest import random_graph, random_mc_graph, random_nonbipartite_mc_graph


def report(line: str) -> None:
    print(line)


def test_criterion_1_cycle_family():
    t0 = time.monotonic()
    for n in range(2, 7):
        g = named_graph(f"C{2 * n}")
        assert epsilon(g) == n, f"epsilon(C{2*n})"
        r = tight_cut_decomposition(g)
        assert r.b == 0, f"b(C{2*n})"
        assert r.c4 == n - 1, f"c4(C{2*n})"
        assert epsilon(g) == 1 + r.c4, f"bipartite bound tight on C{2*n}"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    report(f"PASS criterion 1: cycle family C4..C12 exact (eps=n, b=0, c4=n-1, bound tight) in {elapsed:.2f}s")


def test_criterion_2_figure_suite():
    t0 = time.monotonic()
    c6bar = named_graph("C6bar")
    spliced = splice(SpliceSpec(named_graph("K4"), 1, named_graph("K4"), 1))
    assert canonical_form(spliced.graph) == canonical_form(c6bar)

    eq = sorted(sorted(c) for c in equivalence_partition(c6bar))
    assert eq == [[1, 4], [2, 5], [3, 6], [7], [8], [9]]
    sizes = sorted(len(c) for c in eq)
    assert sizes == [1, 1, 1, 2, 2, 2]

    for name in ("c6bar", "fig2b"):
        g = named_graph(name)
        cut = g.cut(MARKED_CUT_SHORES[name])
        assert is_separating_cut(g, cut), name
        assert not is_tight_cut(g, cut), name
    fig2c = named_graph("fig2c")
    cut = fig2c.cut(MARKED_CUT_SHORES["fig2c"])
    assert is_separating_cut(fig2c, cut)
    assert is_tight_cut(fig2c, cut)

    assert len(removable_edges(named_graph("fig2b"))) == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
    report(f"PASS criterion 2: figure suite (C6bar=K4*K4, classes, cut verdicts, 1 removable) in {elapsed:.2f}s")


def test_criterion_3_decomposition_uniqueness(corpus):
    t0 = time.monotonic()
    assert len(corpus) >= 25
    strategies = ("first", "reverse", "random:1", "random:2", "random:3")
    for name, g in corpus:
        forms = [
            tuple(tight_cut_decomposition(g, make_chooser(s)).leaf_forms)
            for s in strategies
        ]
        assert all(f == forms[0] for f in forms), name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.2f}s"
    report(f"PASS criterion 3: {len(corpus)} graphs x {len(strategies)} strategies, identical leaf multisets in {elapsed:.2f}s")


def test_criterion_4_bounds(corpus):
    t0 = time.monotonic()
    violations = []
    for name, g in corpus:
        vb = verify_bounds(g)
        if g.is_bipartite:
            if not vb["bipartiteBoundHolds"]:
                violations.append((name, "bipartite"))
        else:
            if not vb["nonbipartiteBoundHolds"]:
                violations.append((name, "nonbipartite"))
            if vb["evenTwoCutFree"] and not vb["evenTwoCutFreeBoundHolds"]:
                violations.append((name, "even-2-cut-free"))
    assert not violations, violations
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.2f}s"
    report(f"PASS criterion 4: eps <= 1+c4 / 2b+c4 / 2b, zero violations on {len(corpus)} graphs in {elapsed:.2f}s")


def test_criterion_5_construction():
    t0 = time.monotonic()
    for p, q in ((2, 2), (2, 3), (3, 3)):
        t = build_high_kappa_epsilon(p, q)
        result = verify_trace(t)
        failed = [k for k, v in result.items() if not v["ok"]]
        assert not failed, (p, q, failed)
        assert vertex_connectivity(t.final) >= p
        f_class = frozenset(t.f_edges)
        assert f_class in set(equivalence_partition(t.final).classes)
        assert epsilon(t.final) >= q
    # the (3,3) instance carries the published parameters: H = K4,4
    t33 = build_high_kappa_epsilon(3, 3)
    assert canonical_form(t33.base) == canonical_form(named_graph("K4,4"))
    assert t33.final.n == (2 * 3 - 1) * 8 - 2 * (3 - 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"criterion 5 took {elapsed:.2f}s"
    report(f"PASS criterion 5: construction (2,2),(2,3),(3,3) fully verified, kappa>=p, eps>=q in {elapsed:.2f}s")


def test_criterion_6_oracle_equivalence():
    t0 = time.monotonic()
    graphs = []
    for seed in range(500):
        rng = random.Random(seed)
        n = rng.choice((4, 6, 8, 10, 12))
        graphs.append(random_mc_graph(rng, n, rng.randrange(n)))
    # random_mc_graph only returns bipartite graphs; these are not
    for seed in range(250):
        rng = random.Random(20_000 + seed)
        n = rng.choice((4, 6, 8, 10, 12))
        graphs.append(random_nonbipartite_mc_graph(rng, n, rng.randrange(n)))
    nonbipartite = sum(g.bipartition() is None for g in graphs)
    assert nonbipartite >= 250

    for g in graphs:
        assert len(maximum_matching(g)) == brute_max_matching(g)
    # harder instances for the matcher alone: arbitrary graphs
    for seed in range(500):
        rng = random.Random(10_000 + seed)
        g = random_graph(rng, rng.randrange(2, 13), rng.randrange(10))
        assert len(maximum_matching(g)) == brute_max_matching(g)

    for g in graphs:
        pms = all_pms(g)
        groups = {}
        for e in g.edge_ids:
            key = frozenset(i for i, pm in enumerate(pms) if e in pm)
            groups.setdefault(key, set()).add(e)
        derived = tuple(sorted((frozenset(s) for s in groups.values()), key=min))
        assert tuple(sorted(equivalence_partition(g), key=min)) == derived

    checked_cuts = 0
    for g in graphs:
        pms = all_pms(g)
        for shore, edges in odd_cuts_with_small_shore(g, 5):
            direct = all(len(pm & edges) == 1 for pm in pms)
            assert is_tight_cut(g, g.cut(shore)) == direct, sorted(shore)
            checked_cuts += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"criterion 6 took {elapsed:.2f}s"
    report(
        f"PASS criterion 6: {len(graphs)} mc ({nonbipartite} nonbipartite) + 500 arbitrary graphs, "
        f"{checked_cuts} cuts, zero oracle disagreements in {elapsed:.2f}s"
    )


def _tight_spliced_instances(count: int):
    """Tight splicings: bipartite x bipartite splices (their splicing cut
    is tight), plus the construction's barrier-cut stages."""
    bip = ["C4", "C6", "C8", "K3,3", "K4,4", "prism4"]
    rng = random.Random(424242)
    out = []
    while len(out) < count - 4:
        res = None
        g1 = named_graph(rng.choice(bip))
        g2 = named_graph(rng.choice(bip))
        v1 = rng.choice(g1.vertices)
        deg = len(g1.boundary({v1}))
        cands = [v for v in g2.vertices if len(g2.boundary({v})) == deg]
        if not cands:
            continue
        v2 = rng.choice(cands)
        star1 = sorted(g1.boundary({v1}))
        star2 = sorted(g2.boundary({v2}))
        rng.shuffle(star2)
        res = splice(SpliceSpec(g1, v1, g2, v2, dict(zip(star1, star2))))
        if res.graph.n > 16:
            continue
        out.append((res.graph, res.graph.cut(res.cut.shore)))
    for p, q in ((2, 2), (2, 3)):
        t = build_high_kappa_epsilon(p, q)
        for i, cut in enumerate(t.cuts):
            out.append((t.graphs[i], t.graphs[i].cut(cut.shore)))
    return out


def test_criterion_7_merging_theory():
    t0 = time.monotonic()
    instances = _tight_spliced_instances(52)
    assert len(instances) >= 50
    pair_total = merge_total = edgewise_total = 0
    for g, cut in instances:
        assert is_tight_cut(g, cut)
        g1, g2 = contractions(g, cut)
        classes_g = set(equivalence_partition(g).classes)
        side1 = [c for c in equivalence_partition(g1).classes if not c & cut.edges]
        side2 = [c for c in equivalence_partition(g2).classes if not c & cut.edges]
        for f1 in side1:
            for f2 in side2:
                predicted = check_merge(g, cut, f1, f2)
                assert predicted == ((f1 | f2) in classes_g), (sorted(f1), sorted(f2))
                assert predicted == deletion_check_merge(g, cut, f1, f2)
                pair_total += 1
                merge_total += predicted

        # dependence equivalences, edge for edge, on a sample of sides
        e1s = [e for e in g1.edge_ids if e not in cut.edges][:6]
        e2s = [e for e in g2.edge_ids if e not in cut.edges][:6]
        for f1 in e1s:
            s1 = cross_support(g, cut, 1, {f1}).support
            h1 = g1.delete_edge(f1)
            for f2 in e2s:
                via_support = all(depends_on(g2, e, f2) for e in s1)
                assert depends_on(g, f1, f2) == via_support, (f1, f2)
                s2 = cross_support(g, cut, 2, {f2}).support
                h2 = g2.delete_edge(f2)
                both = (
                    s1 == s2
                    and all(not is_admissible(h1, e) for e in s1)
                    and all(not is_admissible(h2, e) for e in s2)
                )
                assert both == mutually_dependent(g, f1, f2), (f1, f2)
                edgewise_total += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"criterion 7 took {elapsed:.2f}s"
    report(
        f"PASS criterion 7: {len(instances)} tight splicings, {pair_total} merge pairs "
        f"({merge_total} merged), {edgewise_total} edge-wise dependence checks, zero disagreements in {elapsed:.2f}s"
    )


def _brick_doubleton_witness(g, cls):
    """Mutually dependent pair in a brick: removing both leaves a
    connected matchable bipartite graph whose color classes separate the
    four endpoints pairwise."""
    e, f = sorted(cls)
    h = g.delete_edges((e, f))
    assert h.is_connected, "witness graph disconnected"
    assert is_matchable(h), "witness graph unmatchable"
    parts = h.bipartition()
    assert parts is not None, "witness graph not bipartite"
    a, b = parts
    eu, ev = g.endpoints(e)
    fu, fv = g.endpoints(f)
    assert ({eu, ev} <= a and {fu, fv} <= b) or ({eu, ev} <= b and {fu, fv} <= a)


def test_criterion_8_structural_properties(corpus):
    t0 = time.monotonic()
    for name, g in corpus:
        # canonical partition: maximal barriers, stable under recomputation
        parts = canonical_partition(g)
        flat = sorted(v for p in parts for v in p)
        assert flat == sorted(g.vertices), name
        for p in parts:
            assert is_barrier(g, p), name
            for v in g.vertices:
                if v not in p:
                    assert not is_barrier(g, set(p) | {v}), name
        assert canonical_partition(g) == parts, name

        # removable classes are classes of size <= 2 whose removal keeps mc
        eq = set(equivalence_partition(g).classes)
        for cls in removable_classes(g):
            assert cls in eq, name
            assert len(cls) <= 2, name
            assert is_matching_covered(g.delete_edges(cls)), name

        # brick classes have size <= 2; doubletons carry the bipartite witness
        kind = classify(g)
        if kind == "brick":
            for cls in eq:
                assert len(cls) <= 2, name
                if len(cls) == 2:
                    _brick_doubleton_witness(g, cls)

        # bricks and braces of order >= 6 are 3-connected
        if kind in ("brick", "brace") and g.n >= 6:
            assert vertex_connectivity(g) >= 3, name

        # bipartite iff no brick in the decomposition
        r = tight_cut_decomposition(g)
        assert (r.b == 0) == g.is_bipartite, name

        # even 2-cut exists iff some application of the decomposition
        # yields a C4 brace (up to parallel edges) with an even 2-cut
        cuts2 = even_2cuts(g)
        if cuts2:
            # forward: contract both shores down to the cut's endpoints;
            # the result must be that C4 brace, still carrying the cut
            cut = cuts2[0]
            e, f = sorted(cut.edges)
            u, v = g.endpoints(e)
            x_shore = cut.shore if u in cut.shore else cut.other_shore
            y_shore = cut.other_shore if u in cut.shore else cut.shore
            j, _ = g.contract(x_shore - {u})
            j, _ = j.contract(y_shore - {v})
            simple = j.underlying_simple()
            assert simple.n == 4 and simple.m == 4, name
            assert frozenset({e, f}) in {c2.edges for c2 in even_2cuts(j)}, name
        else:
            # consequence: free of even 2-cuts forces c4 = 0
            assert r.c4 == 0, name
        # reverse: a surviving C4 leaf with an even 2-cut forces one in g
        leaf_c4_with_even = any(
            tag == "brace"
            and leaf.underlying_simple().n == 4
            and leaf.underlying_simple().m == 4
            and even_2cuts(leaf)
            for leaf, tag in r.leaves
        )
        if leaf_c4_with_even:
            assert cuts2, name
    elapsed = time.monotonic() - t0
    report(f"PASS criterion 8: structural properties hold on all {len(corpus)} corpus graphs in {elapsed:.2f}s")
