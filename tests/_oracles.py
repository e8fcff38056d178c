"""Independent brute-force oracles for cross-checking the engines.

Everything here is deliberately naive: straight recursion and full
enumeration, no shared state with the library beyond the MultiGraph
accessors. Keep it that way.  The exceptions keep the library's
earlier bodies.  ``deletion_depends`` keeps the earlier dependence
test, which built the graph ``g - f`` and its own matching engine;
``search_depends`` the one after it, on g's engine: a completion of
``g - ends(e)`` and, when that holds f, one failed alternating search
from an end of f that reads a Gallai-Edmonds set; and ``_partition``
the earlier union-find.  ``pairwise_equivalence_partition``,
``pairwise_class_of`` and ``sweep_removable`` keep the dependence
queries from before the witness signatures: a ``deletion_depends``
test for every pair of edges, or against every other edge.
``pairwise_canonical_partition`` keeps the canonical partition from
before the Gallai-Edmonds searches: one ``matchable_minus`` query per
vertex pair; ``brute_canonical_partition`` decides the same pairs by
``brute_matchable_minus``, and ``pairwise_is_bicritical`` asks the
same query of every pair.  ``brute_removable_edges`` /
``brute_removable_classes`` keep the earlier removability, which asked
the matching engine whether each ``g - e`` and each ``g - R`` is
matching covered; ``pm_removable`` decides the same question from the
perfect matchings alone, and ``pool_removable`` keeps the removability
from before the matching digraph and the growing table: the candidates
that g's signature pool leaves open, each asked of one ``g - R``
engine, with a connectivity pass for a larger class.
``table_removable_classes`` keeps the removability from before the
decomposition: one pass over g's own classes, a bipartite class decided
by the matching digraph D(g - R, M'), any other by the growing table.
``brute_two_separation_candidates`` / ``brute_brace_obstruction`` keep the earlier tight-cut scans: one
``components`` pass per vertex pair, and one ``matchable_minus`` query
per 4-tuple.  ``brute_hall_violator`` keeps the earlier Hall-set search
of the brace certificate, on a fresh ``maximum_matching`` of ``g`` minus
the failing 4-tuple; ``brute_hall_set`` decides the same set from its
Gallai-Edmonds definition.  ``triple_is_tight`` keeps the earlier
tight-cut test, one ``has_pm_containing`` query per triple of disjoint
cut edges.  ``deletion_check_merge`` keeps the earlier merge test
across a tight cut, which asked the graphs ``G_i - F_i`` whether each
support edge is admissible, and ``deletion_all_inadmissible`` the
earlier inadmissibility check of ``verify_trace``, which asked the
graph ``g - F`` the same of each target edge.  ``stream_chooser``
picks a cut as ``make_chooser`` does, but from a fresh run of the whole
cut stream on every call.  ``incidence_components`` /
``incidence_bipartition`` keep the earlier traversals, which walked the
incidence lists through ``other_end`` (the bipartition after a
components pass), and ``simple_is_c4`` the earlier C4 test of a
decomposition leaf, on its ``underlying_simple`` graph.
``pool_mc_witness`` keeps the matching-covered verdict from before the
matching digraph: every edge's witness signature, read off the pool,
on bipartite graphs too.
``even_vertex_connectivity`` keeps the earlier connectivity, Even's
scheme of up to (kappa+1)*n capped flows on the library's own network;
``brute_vertex_connectivity`` decides the same by subset enumeration.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations, permutations
from operator import itemgetter

from typing import Callable, Optional, Sequence, TypeVar

from matchcover.cuts import _as_cut, _removability, _tight_cuts, contractions, is_tight_cut
from matchcover.dependence import (
    EquivalencePartition,
    _check_ids,
    _class_among,
    equivalence_partition,
)
from matchcover.errors import CapabilityError, DomainError, VerificationError
from matchcover.matching import (
    _augment,
    _pm_minus,
    _require_mc,
    _signatures,
    has_pm_containing,
    is_admissible,
    is_matching_covered,
    matchable_minus,
    maximum_matching,
)
from matchcover.multigraph import CanonicalForm, Cut, MultiGraph, _find
from matchcover.splicing import _support
from matchcover.structure import _capped_flow, _split_network

_T = TypeVar("_T")


def brute_max_matching(g: MultiGraph) -> int:
    """Maximum matching size by branch on the lowest uncovered vertex."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        adj[u].append((e, v))
        adj[v].append((e, u))

    order = list(g.vertices)

    def best(i: int, used: set[int]) -> int:
        while i < len(order) and order[i] in used:
            i += 1
        if i >= len(order):
            return 0
        u = order[i]
        # branch 1: u stays uncovered
        result = best(i + 1, used)
        # branch 2: match u along each incident edge
        used.add(u)
        for _, w in adj[u]:
            if w in used or w == u:
                continue
            used.add(w)
            result = max(result, 1 + best(i + 1, used))
            used.remove(w)
        used.remove(u)
        return result

    return best(0, set())


def all_pms(g: MultiGraph) -> list[frozenset[int]]:
    """All perfect matchings as edge-id sets, by recursion on the lowest
    uncovered vertex."""
    if g.n % 2:
        return []
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        if u == v:
            continue
        adj[u].append((e, v))
        adj[v].append((e, u))
    order = list(g.vertices)
    out: list[frozenset[int]] = []

    def extend(i: int, used: set[int], picked: list[int]) -> None:
        while i < len(order) and order[i] in used:
            i += 1
        if i >= len(order):
            out.append(frozenset(picked))
            return
        u = order[i]
        used.add(u)
        for e, w in adj[u]:
            if w in used:
                continue
            used.add(w)
            picked.append(e)
            extend(i + 1, used, picked)
            picked.pop()
            used.remove(w)
        used.remove(u)

    extend(0, set(), [])
    return out


def incidence_partition(g: MultiGraph) -> tuple[frozenset[int], ...]:
    """Mutual-dependence classes straight from the definition: group edges
    by the exact set of perfect matchings containing them."""
    pms = all_pms(g)
    groups: dict[frozenset[int], set[int]] = {}
    for e in g.edge_ids:
        key = frozenset(i for i, pm in enumerate(pms) if e in pm)
        groups.setdefault(key, set()).add(e)
    return tuple(sorted((frozenset(s) for s in groups.values()), key=min))


def deletion_depends(g: MultiGraph, e: int, f: int) -> bool:
    """e lies in no perfect matching of g - f, asked of a new graph."""
    return not has_pm_containing(g.delete_edges((f,)), (e,))


def search_depends(g: MultiGraph, e: int, f: int) -> bool:
    """The earlier dependence test on g's engine.  A perfect matching of
    h = g - ends(e) that misses f's pair, or may swap f for a twin,
    refutes it.  Else it holds f = cd; without cd, d is the one exposed
    vertex of h - c, the search from d fails and labels D(h - c) outer,
    and an outer neighbour x != d of c gives a perfect matching of h
    through cx, which avoids f."""
    if e == f:
        return True
    a, b = g.endpoints(e)
    match = _pm_minus(g, frozenset((a, b)))
    if match is None:
        return True  # e is in no perfect matching
    index, adj = g._adjacency()
    u, v = g.endpoints(f)
    c, d = index[u], index[v]
    if match[c] != d or len(g.edges_between(u, v)) > 1:
        return False
    match[c] = match[d] = -1
    outer = _augment(adj, match, d, (index[a], index[b], c))
    if outer is None:
        raise VerificationError("dependence", f"g - ends({e}) - {u} augmented")
    return not any(outer[x] for x in adj[c] if x != d)


def _mutual(g: MultiGraph, e: int, f: int) -> bool:
    return deletion_depends(g, e, f) and deletion_depends(g, f, e)


def _partition(
    items: Sequence[_T], related: Callable[[_T, _T], bool]
) -> tuple[frozenset[_T], ...]:
    """The classes of the equivalence relation generated by ``related``,
    sorted by their least item.  Union-find over the item pairs in order;
    a pair already joined is not tested."""
    parent = {x: x for x in items}
    for i, x in enumerate(items):
        for y in items[i + 1:]:
            if _find(parent, x) != _find(parent, y) and related(x, y):
                parent[_find(parent, y)] = _find(parent, x)
    classes: dict[_T, set[_T]] = {}
    for x in items:
        classes.setdefault(_find(parent, x), set()).add(x)
    return tuple(sorted((frozenset(c) for c in classes.values()), key=min))


def pairwise_equivalence_partition(g: MultiGraph) -> EquivalencePartition:
    """The partition of E(g) into mutual-dependence classes, by O(m^2)
    pairwise tests joined by union-find."""
    _require_mc(g, "equivalence partition")
    return EquivalencePartition(_partition(g.edge_ids, lambda e, f: _mutual(g, e, f)))


def scan_equivalence_partition(g: MultiGraph) -> EquivalencePartition:
    """The partition built over the whole edge list: the least unplaced
    edge opens a class among all unplaced edges, so every class rescans
    what is left (the library groups by witness signature first)."""
    _require_mc(g, "equivalence partition")
    classes = []
    left = list(g.edge_ids)
    while left:
        cls = _class_among(g, left[0], left)
        classes.append(cls)
        left = [f for f in left if f not in cls]
    return EquivalencePartition(tuple(classes))


def pairwise_class_of(g: MultiGraph, e: int) -> frozenset[int]:
    """The mutual-dependence class containing e, by m pair tests."""
    _check_ids(g, e)
    return frozenset(f for f in g.edge_ids if _mutual(g, f, e))


def sweep_removable(g: MultiGraph, r: frozenset[int]) -> bool:
    """Is g - r matching covered, for r one edge or one class?  No edge
    outside r may depend on ``min(r)``; every one of them is tested."""
    e = min(r)
    return g.delete_edges(r).is_connected and not any(
        deletion_depends(g, f, e) for f in g.edge_ids if f not in r
    )


def _reject_k2(g: MultiGraph) -> None:
    if g.n == 2:
        raise DomainError("edge removability is undefined on a graph of order 2")


def brute_removable_edges(g: MultiGraph) -> tuple[int, ...]:
    _reject_k2(g)
    return tuple(e for e in g.edge_ids if is_matching_covered(g.delete_edge(e)))


def brute_removable_classes(g: MultiGraph) -> tuple[frozenset[int], ...]:
    """The classes R of the partition for which g - R is matching covered."""
    _reject_k2(g)
    return tuple(
        c
        for c in equivalence_partition(g).classes
        if is_matching_covered(g.delete_edges(c))
    )


def pm_removable(g: MultiGraph, removed: frozenset[int]) -> bool:
    """Is g - removed matching covered?  From the definition: it is
    connected and every other edge lies in a perfect matching of g that
    avoids every removed edge."""
    if len(g.delete_edges(removed).components()) != 1:
        return False
    covered = set().union(*(pm for pm in all_pms(g) if not pm & removed))
    return all(f in covered for f in g.edge_ids if f not in removed)


def pool_removable(g: MultiGraph, r: frozenset[int]) -> bool:
    """Is g - r matching covered, for r one edge or one class?  The
    edges that no pool matching holds without ``min(r)`` are asked of
    the engine of g - r."""
    e = min(r)
    sig = _signatures(g)
    ask = [f for f in g.edge_ids if f not in r and not sig[f] & ~sig[e]]
    if len(r) == 1 and not ask:
        return True
    rest = g.delete_edges(r)
    return (len(r) == 1 or rest.is_connected) and all(
        has_pm_containing(rest, (f,)) for f in ask
    )


def _digraph_removable(g: MultiGraph, r: frozenset[int]) -> bool:
    # Bipartite g: g - r is matching covered iff D(g - r, M') is strongly
    # connected, for M' a perfect matching of g - r: one forward and one
    # backward reach pass from node 0 over g's adjacency minus r.
    match = _pm_minus(g, frozenset(), r)
    if match is None:
        raise VerificationError("removability", f"no perfect matching avoids edge {min(r)}")
    adj = g._adjacency_minus(r)
    for backward in (False, True):
        seen = {0}
        queue = [0]
        for a in queue:
            heads = adj[match[a]] if backward else (match[b] for b in adj[a])
            for t in heads:
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        if len(queue) < g.n // 2:
            return False
    return True


def table_removable_classes(g: MultiGraph) -> tuple[frozenset[int], ...]:
    """The removable classes from one pass over g's whole partition, with
    no decomposition: on a bipartite g each class R is decided by the
    matching digraph D(g - R, M'), on any other by the growing table of
    witness signatures (``cuts._removability``) asked of g itself."""
    _reject_k2(g)
    removable = (lambda r: _digraph_removable(g, r)) if g.is_bipartite else _removability(g)
    return tuple(c for c in equivalence_partition(g).classes if removable(c))


def pool_mc_witness(g: MultiGraph) -> tuple[str, int | None] | None:
    """None when g is matching covered, else the first condition that
    fails, each edge read off its witness signature in g's pool."""
    if g.n < 2:
        return "order below 2", None
    if g.n % 2:
        return "odd order", None
    if not g.is_connected:
        return "disconnected", None
    sig = _signatures(g)
    if not any(sig.values()):  # the engine's maximum matching is not perfect
        return "no perfect matching", None
    return next((("inadmissible edge", e) for e in g.edge_ids if not sig[e]), None)


def direct_is_tight(g: MultiGraph, cut_edges: frozenset[int]) -> bool:
    """|M ∩ C| = 1 for every perfect matching, by full enumeration."""
    return all(len(pm & cut_edges) == 1 for pm in all_pms(g))


def triple_is_tight(g: MultiGraph, cut: Cut) -> bool:
    """The earlier tight-cut test: an odd cut fails exactly when some
    three pairwise vertex-disjoint cut edges extend to a perfect
    matching."""
    if not cut.is_odd:
        return False
    if cut.is_trivial:
        return True
    ends = {e: g.endpoints(e) for e in sorted(cut.edges)}
    return not any(
        len({*ends[e1], *ends[e2], *ends[e3]}) == 6 and has_pm_containing(g, (e1, e2, e3))
        for e1, e2, e3 in combinations(ends, 3)
    )


def deletion_check_merge(g: MultiGraph, c: Cut | frozenset[int], F1, F2) -> bool:
    """The earlier merge test: the supports of F1 and F2 on the tight cut
    coincide with cardinality >= 2, and every support edge is
    inadmissible in the graphs G_i - F_i, each built with its own
    matching engine."""
    cut = _as_cut(g, c)
    if not is_tight_cut(g, cut):
        raise DomainError("merge analysis needs a tight cut")
    f1, f2 = frozenset(F1), frozenset(F2)
    g1, g2 = contractions(g, cut)
    s1, s2 = _support(g1, cut, 1, f1), _support(g2, cut, 2, f2)
    merged = s1 == s2 and len(s1) >= 2
    if merged:
        h1 = g1.delete_edges(f1)
        h2 = g2.delete_edges(f2)
        merged = all(not is_admissible(h1, e) for e in sorted(s1)) and all(
            not is_admissible(h2, e) for e in sorted(s2)
        )
    return merged


def deletion_all_inadmissible(g: MultiGraph, removed, targets) -> tuple[bool, str]:
    """The earlier ``verify_trace`` check: every target edge is
    inadmissible in the graph ``g - removed``, built with its own
    matching engine."""
    h = g.delete_edges(removed)
    bad = sorted(e for e in targets if is_admissible(h, e))
    if bad:
        return False, f"admissible after deletion: {bad}"
    return True, f"{len(set(targets))} edges all inadmissible"


def stream_chooser(strategy: str) -> Callable[[MultiGraph], Optional[Cut]]:
    """The cut ``make_chooser(strategy)`` picks ("first", "reverse" or
    "random:<seed>"), read off ``list(_tight_cuts(h))`` anew on every
    call: no memoized candidate list, so no shared ``Cut`` objects."""
    if strategy == "first":
        pick = itemgetter(0)
    elif strategy == "reverse":
        pick = itemgetter(-1)
    else:
        kind, _, seed = strategy.partition(":")
        assert kind == "random", strategy
        pick = random.Random(int(seed) if seed else 0).choice

    def choose(h: MultiGraph) -> Optional[Cut]:
        cands = list(_tight_cuts(h))
        return pick(cands) if cands else None

    return choose


def direct_epsilon(g: MultiGraph) -> int:
    return max(len(c) for c in incidence_partition(g))


def odd_cuts_with_small_shore(g: MultiGraph, max_shore: int):
    """Every cut whose smaller side has odd size <= max_shore."""
    vertices = sorted(g.vertices)
    for k in range(1, max_shore + 1, 2):
        for shore in combinations(vertices, k):
            yield frozenset(shore), frozenset(
                e
                for e in g.edge_ids
                if len(set(g.endpoints(e)) & set(shore)) == 1
            )


def brute_vertex_connectivity(g: MultiGraph) -> int:
    """Size of the smallest vertex set S for which g - S is disconnected
    or has at most one vertex, by enumerating subsets by size."""
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        adj[u].add(v)
        adj[v].add(u)

    def separates(removed: frozenset[int]) -> bool:
        rest = [v for v in g.vertices if v not in removed]
        if len(rest) <= 1:
            return True
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            for w in adj[stack.pop()] - removed - seen:
                seen.add(w)
                stack.append(w)
        return len(seen) < len(rest)

    for k in range(g.n + 1):
        if any(separates(frozenset(s)) for s in combinations(g.vertices, k)):
            return k
    return g.n


def even_vertex_connectivity(g: MultiGraph) -> int:
    """kappa(g) by Even's scheme, the library's earlier body: with
    ``best`` the least local connectivity found so far (n - 1 to
    start), run capped flows from v_1, v_2, ... in turn, each to the
    later vertices not adjacent to it, while fewer than ``best`` sources
    are done; at most (kappa+1)*n flows."""
    n = g.n
    if n <= 1 or not g.is_connected:
        return 0
    nbrs = g._adjacency()[1]
    if all(len(row) == n - 1 for row in nbrs):
        return n - 1
    head, cap, arcs = _split_network(nbrs)
    best = n - 1
    i = 0
    while i < best:
        adjacent = set(nbrs[i])
        for j in range(i + 1, n):
            if j not in adjacent:
                best = min(best, _capped_flow(head, cap, arcs, 2 * i + 1, 2 * j, best))
        i += 1
    return best


def brute_matchable_minus(g: MultiGraph, removed) -> bool:
    """Does g minus the vertices `removed` have a perfect matching? By
    recursion on the lowest uncovered vertex."""
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        adj[u].add(v)
        adj[v].add(u)

    def perfect(left: frozenset[int]) -> bool:
        if not left:
            return True
        u = min(left)
        return any(perfect(left - {u, w}) for w in adj[u] & left)

    return perfect(frozenset(g.vertices) - frozenset(removed))


def pairwise_canonical_partition(g: MultiGraph) -> tuple[frozenset[int], ...]:
    """The maximal barriers from the pair relation "u = v or g - u - v is
    not matchable", one ``matchable_minus`` query per vertex pair."""
    _require_mc(g, "canonical partition")
    return _partition(g.vertices, lambda u, v: not matchable_minus(g, (u, v)))


def pairwise_is_bicritical(g: MultiGraph) -> bool:
    """Is g - u - v matchable for every vertex pair?  One
    ``matchable_minus`` query per pair."""
    return all(matchable_minus(g, pair) for pair in combinations(g.vertices, 2))


def brute_canonical_partition(g: MultiGraph) -> tuple[frozenset[int], ...]:
    """The same pair relation decided by ``brute_matchable_minus``, with
    each vertex's part collected directly (no union-find), sorted by
    smallest vertex."""
    together = {v: {v} for v in g.vertices}
    for u, v in combinations(g.vertices, 2):
        if not brute_matchable_minus(g, (u, v)):
            together[u].add(v)
            together[v].add(u)
    return tuple(sorted({frozenset(s) for s in together.values()}, key=min))


def brute_even_2cuts(g: MultiGraph) -> list:
    """Every 2-edge cut {e, f} with nonadjacent edges and two even
    shores, by deleting every edge pair; as the Cut of the shore holding
    the lower minimum vertex, ordered by the pair's edge ids."""
    out = []
    ids = g.edge_ids
    for i, e in enumerate(ids):
        eu, ev = g.endpoints(e)
        for f in ids[i + 1:]:
            fu, fv = g.endpoints(f)
            if len({eu, ev, fu, fv}) < 4:
                continue
            comps = g.delete_edges((e, f)).components()
            if len(comps) != 2:
                continue
            first, second = comps
            if len(first) % 2 or len(second) % 2:
                continue
            # Both edges must genuinely cross, else {e, f} is not a cut.
            if (eu in first) == (ev in first) or (fu in first) == (fv in first):
                continue
            shore = first if min(first) < min(second) else second
            out.append(g.cut(shore))
    return out


def incidence_components(g: MultiGraph, removed=()) -> list[frozenset[int]]:
    """Components of g minus ``removed`` (ids that are not vertices are
    ignored), sorted by min vertex, by a walk of the incidence lists."""
    gone = set(removed)
    seen: set[int] = set()
    out: list[frozenset[int]] = []
    for start in g.vertices:
        if start in gone or start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for e in g.incident(v):
                w = g.other_end(e, v)
                if w not in gone and w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        out.append(frozenset(comp))
    return out


def incidence_bipartition(g: MultiGraph):
    """(A, B) with each component's smallest vertex in A, or None when
    an odd cycle exists: a colouring walk per component."""
    color: dict[int, int] = {}
    for comp in incidence_components(g):
        start = min(comp)
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for e in g.incident(v):
                w = g.other_end(e, v)
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    a = frozenset(v for v, c in color.items() if c == 0)
    return a, frozenset(g.vertices) - a


def simple_is_c4(g: MultiGraph) -> bool:
    """Is the underlying simple graph of g a 4-cycle?"""
    simple = g.underlying_simple()
    return (
        simple.n == 4
        and simple.m == 4
        and all(simple.degree(v) == 2 for v in simple.vertices)
        and len(incidence_components(simple)) == 1
    )


def brute_two_separation_candidates(g: MultiGraph) -> list[Cut]:
    """The odd nontrivial shores K, K+u, K+v, K+uv of every component K
    of g - u - v, over every vertex pair with g - u - v disconnected."""
    out: list[Cut] = []
    seen: set[frozenset[int]] = set()
    n = g.n
    for u, v in combinations(g.vertices, 2):
        comps = g.components((u, v))
        if len(comps) < 2:
            continue
        for comp in comps:
            for extra in ((), (u,), (v,), (u, v)):
                shore = comp | frozenset(extra)
                size = len(shore)
                if size % 2 == 0 or size < 3 or n - size < 3:
                    continue
                if shore in seen:
                    continue
                seen.add(shore)
                out.append(g.cut(shore))
    return out


def brute_brace_obstruction(
    g: MultiGraph, parts: tuple[frozenset[int], frozenset[int]]
) -> tuple[int, int, int, int] | None:
    """The first (a1, a2, b1, b2), a1 < a2 on one side and b1 < b2 on
    the other, whose deletion leaves g without a perfect matching."""
    a_side, b_side = parts
    for a1, a2 in combinations(sorted(a_side), 2):
        for b1, b2 in combinations(sorted(b_side), 2):
            if not matchable_minus(g, (a1, a2, b1, b2)):
                return a1, a2, b1, b2
    return None



def brute_hall_violator(h: MultiGraph, a_side: frozenset[int]) -> frozenset[int]:
    """The A-vertices that an even alternating path reaches from the
    first unmatched A-vertex of a maximum matching of the balanced,
    unmatchable bipartite graph h; |N_h(S)| = |S| - 1 when h has
    deficiency 1."""
    mate: dict[int, int] = {}
    for e in maximum_matching(h):
        u, v = h.endpoints(e)
        mate[u] = v
        mate[v] = u
    free = [a for a in sorted(a_side) if a not in mate]
    s = {free[0]}
    reached_b: set[int] = set()
    frontier = [free[0]]
    while frontier:
        nxt: list[int] = []
        for a in frontier:
            for b in h.neighbors(a):
                if b in reached_b:
                    continue
                reached_b.add(b)
                m = mate.get(b)
                if m is not None and m not in s:
                    s.add(m)
                    nxt.append(m)
        frontier = nxt
    return frozenset(s)


def brute_hall_set(h: MultiGraph, a_side: frozenset[int]) -> frozenset[int]:
    """The A side of the Gallai-Edmonds set D(h): the vertices a with
    nu(h - a) = nu(h), missed by some maximum matching."""
    nu = brute_max_matching(h)
    return frozenset(
        a for a in a_side if brute_max_matching(h.delete_vertices((a,))) == nu
    )


def _refine(adj: list[int], mult: list[list[int]], colors: list[int]) -> list[int]:
    # Iterated color refinement: a vertex's new color is (old color,
    # multiset of (neighbor color, multiplicity)), renumbered by sorted
    # signature.
    n = len(adj)
    while True:
        sigs = []
        for v in range(n):
            nbr = sorted(
                (colors[w], mult[v][w]) for w in range(n) if adj[v] >> w & 1
            )
            sigs.append((colors[v], tuple(nbr)))
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[sig] for sig in sigs]
        if new == colors:
            return colors
        colors = new


def _encode(mult: list[list[int]], perm: list[int]) -> bytes:
    # Upper-triangle multiplicities of the relabeled graph, row-major.
    n = len(mult)
    out = bytearray()
    for i in range(n):
        row = mult[perm[i]]
        for j in range(i + 1, n):
            k = row[perm[j]]
            out += b"\xff" * (k // 255) + bytes([k % 255])
    return bytes(out)


def brute_canonical_form(g: MultiGraph) -> CanonicalForm:
    """The canonical form by visiting every leaf of the
    individualization-refinement tree (no automorphism pruning): the
    minimum encoding over all discrete colorings reached.  Refinement,
    cell choice and encoding are private copies of the library's, so the
    encodings must agree byte for byte."""
    index = {v: i for i, v in enumerate(g.vertices)}
    n = g.n
    adj = [0] * n
    mult = [[0] * n for _ in range(n)]
    for _, (u, v) in g.edge_items():
        iu, iv = index[u], index[v]
        adj[iu] |= 1 << iv
        adj[iv] |= 1 << iu
        mult[iu][iv] += 1
        mult[iv][iu] += 1

    best: list[bytes] = []
    budget = [500_000]

    def descend(colors: list[int]) -> None:
        budget[0] -= 1
        if budget[0] < 0:
            raise CapabilityError("canonical form search budget exceeded")
        colors = _refine(adj, mult, colors)
        by_color: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            by_color.setdefault(c, []).append(v)
        target = None
        for c in sorted(by_color):
            if len(by_color[c]) > 1:
                cell = by_color[c]
                if target is None or len(cell) < len(target):
                    target = cell
        if target is None:
            perm = sorted(range(n), key=colors.__getitem__)
            enc = _encode(mult, perm)
            if not best or enc < best[0]:
                best[:] = [enc]
            return
        fresh = max(colors) + 1
        for v in target:
            child = list(colors)
            child[v] = fresh
            descend(child)

    if n == 0:
        return CanonicalForm(0, b"")
    descend([0] * n)
    return CanonicalForm(n, best[0])


def brute_isomorphic(g: MultiGraph, h: MultiGraph) -> bool:
    """Is some bijection of the vertices an isomorphism, parallel edges
    counted?  By trying every permutation."""

    def multiplicities(x: MultiGraph) -> dict[tuple[int, int], int]:
        count: dict[tuple[int, int], int] = {}
        for e in x.edge_ids:
            pair = x.endpoints(e)
            count[pair] = count.get(pair, 0) + 1
        return count

    if g.n != h.n or g.m != h.m:
        return False
    target = multiplicities(h)
    source = multiplicities(g)
    for image in permutations(h.vertices):
        to = dict(zip(g.vertices, image))
        if all(
            target.get(tuple(sorted((to[u], to[v]))), 0) == k
            for (u, v), k in source.items()
        ):
            return True
    return False
