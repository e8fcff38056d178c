"""Maximum matching, matchability, and the matching-covered predicates.

One engine sits behind every predicate: an augmenting-path search with
blossom shrinking (Edmonds 1965), ``_augment``, the package's only
alternating search.  It runs on the graph's one index adjacency
(``MultiGraph._adjacency``: the vertex index map and the simple
adjacency lists over indices); the first query against a graph builds
one maximum matching on it, by one search from each vertex still
exposed in index order, and keeps that in the graph's memo.  Each query
"does g minus the vertices S and the edges F have a perfect matching?"
(``_pm_minus``, behind ``matchable_minus``, ``has_pm_containing``, the
dependence test, removability and ``verify_trace``'s inadmissibility
checks) copies that cached matching, unmatches the mates of S and every
pair that F empties, and re-augments from each exposed vertex left on
the adjacency minus those pairs (``MultiGraph._adjacency_minus``), so
at most |S| + 2|F| searches when the cached matching is perfect; it
returns the perfect matching it completes.  No graph g - F is built.  A
search that fails returns its outer labels, off which the canonical
partition and the brace test read Gallai-Edmonds sets.

Those matchings make a per-graph pool (``_signatures``): the cached
matching, then one perfect matching through each edge that no earlier
pool matching holds.  Each edge's witness signature records which pool
matchings hold it.  An edge is admissible exactly when its signature is
nonzero, which is how ``is_matching_covered`` reads a nonbipartite
graph.  Past naming the inadmissible edge of a bipartite graph that
is not matching covered, the pool serves nonbipartite graphs only: the
dependence module refutes dependence between edges whose signatures
differ, and removability tests a decomposition's brick leaves from it.
A bipartite graph's classes are its even 2-cuts, found with no pool
and no query.

On a bipartite graph a perfect matching M also gives the matching
digraph D(G, M), one node per vertex of a side and an arc a -> M(b) for
each edge ab.  ``_strongly_connected`` decides whether D, less one
optional node, is strongly connected, by one forward and one backward
reach pass: that reads a bipartite graph's matching-coveredness, on the
engine's matching, and, node by node, the brace property, with no
alternating search and no pool.

Parallel edges collapse in that adjacency (a matching never needs two
parallel edges) and answers are lifted back to edge ids.  The
signatures and the matching-covered verdict (``_mc_witness``: None, or
the first condition that fails) are memoized per graph the same way.
"""

from __future__ import annotations

import os
from typing import Collection, Iterable, Iterator, Sequence

from .errors import CapabilityError, DomainError, VerificationError
from .multigraph import MultiGraph, _memoized

DEFAULT_PM_BUDGET = 100_000
BUDGET_ENV_VAR = "MATCHCOVER_BUDGET"


def pm_budget() -> int:
    """Enumeration budget; the environment variable overrides the default
    and must be a positive integer."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_PM_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = None
    if budget is None or budget < 1:
        raise DomainError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return budget


# -- the engine -------------------------------------------------------------


def _lca(base: list[int], match: list[int], p: list[int], a: int, b: int) -> int:
    """Base of the blossom that an edge between outer ``a`` and ``b`` closes."""
    seen = [False] * len(base)
    while True:
        a = base[a]
        seen[a] = True
        if match[a] == -1:
            break
        a = p[match[a]]
    while True:
        b = base[b]
        if seen[b]:
            return b
        b = p[match[b]]


def _mark_path(base: list[int], match: list[int], p: list[int],
               v: int, b: int, child: int, blossom: list[bool]) -> None:
    """Mark the bases from ``v`` up to the blossom base ``b``."""
    while base[v] != b:
        blossom[base[v]] = True
        blossom[base[match[v]]] = True
        p[v] = child
        child = match[v]
        v = p[match[v]]


def _augment(
    adj: tuple[tuple[int, ...], ...], match: list[int], root: int, dead: Collection[int]
) -> list[bool] | None:
    """One alternating-tree search from the exposed vertex ``root``.

    Classic O(V^2)-per-search BFS that shrinks odd cycles (blossoms) via
    the ``base`` array and never enters a vertex of ``dead`` (these must
    be exposed).  On reaching an exposed vertex it augments ``match``
    (the mate array, -1 for exposed vertices) in place and returns None.
    Otherwise it returns its outer labels (``match`` unchanged): the
    vertices an even alternating path reaches from ``root``.  When no
    other vertex outside ``dead`` is exposed, they are the Gallai-Edmonds
    set D of the graph minus ``dead`` (Lovasz-Plummer 3.2).
    """
    for to in adj[root]:
        if match[to] == -1 and to not in dead:
            # An augmenting path of one edge: the search would find it
            # first.  This step is also the engine's greedy match.
            match[root] = to
            match[to] = root
            return None
    n = len(adj)
    p = [-1] * n
    for v in dead:
        p[v] = v  # looks already labelled, so the search never enters it
    base = list(range(n))
    used = [False] * n
    used[root] = True
    queue = [root]
    for v in queue:  # breadth first: the loop reaches what is appended
        mate = match[v]
        for to in adj[v]:
            if base[v] == base[to] or to == mate:
                continue
            to_mate = match[to]
            if to == root or (to_mate != -1 and p[to_mate] != -1):
                # Odd cycle: shrink the blossom rooted at the LCA.
                curbase = _lca(base, match, p, v, to)
                blossom = [False] * n
                _mark_path(base, match, p, v, curbase, to, blossom)
                _mark_path(base, match, p, to, curbase, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif p[to] == -1:
                p[to] = v
                if to_mate == -1:
                    # Augment along the tree path ending at `to`.
                    while to != -1:
                        prev = p[to]
                        after = match[prev]
                        match[prev] = to
                        match[to] = prev
                        to = after
                    return None
                used[to_mate] = True
                queue.append(to_mate)
    return used


@_memoized
def _engine(g: MultiGraph) -> tuple[int, ...]:
    """One maximum matching of g over the indices of ``g._adjacency()``,
    as a mate tuple (-1 for exposed vertices) that queries copy and
    never mutate: one ``_augment`` from each exposed vertex in turn."""
    adj = g._adjacency()[1]
    match = [-1] * g.n
    for v in range(g.n):
        if match[v] == -1:
            _augment(adj, match, v, ())
    return tuple(match)


def maximum_matching(g: MultiGraph) -> frozenset[int]:
    """A maximum-cardinality matching, as a set of edge ids.

    The lowest edge id between each matched vertex pair represents the
    pair, so parallel edges never change the answer.
    """
    verts = g.vertices
    return frozenset(
        min(g.edges_between(verts[i], verts[j]))
        for i, j in enumerate(_engine(g))
        if j > i
    )


# -- matchability oracle ----------------------------------------------------


def _pm_minus(
    g: MultiGraph, gone: frozenset[int], without: Collection[int] = ()
) -> list[int] | None:
    """A perfect matching of ``g`` minus the vertices ``gone`` and the
    edge ids ``without``, as a mate list over the engine's vertex
    indices (-1 at the indices of ``gone``), or None when there is none.
    A vertex pair survives while one of its parallel edges does."""
    if not gone <= g._vset:
        raise DomainError(f"unknown vertices: {sorted(gone - g._vset)}")
    if (g.n - len(gone)) % 2 == 1:
        return None
    index = g._adjacency()[0]
    adj = g._adjacency_minus(without)
    cached = _engine(g)
    dead = {index[v] for v in gone}
    match = list(cached)
    # The exposed vertices of g - S - F: the mates of S and the ends of
    # each pair that F empties, once unmatched, and any vertex that the
    # cached matching leaves exposed.
    roots = []
    for v in dead:
        w = match[v]
        if w != -1:
            match[v] = match[w] = -1
            roots.append(w)
    for f in without:
        i, j = (index[x] for x in g.endpoints(f))
        if match[i] == j and j not in adj[i]:
            match[i] = match[j] = -1
            roots += (i, j)
    if -1 in cached:
        roots += [v for v, w in enumerate(cached) if w == -1]
    for root in roots:
        if match[root] == -1 and root not in dead and _augment(adj, match, root, dead) is not None:
            # By Edmonds, a vertex that no augmenting path reaches stays
            # exposed in some maximum matching, so g - S - F has no
            # perfect one.
            return None
    return match


def matchable_minus(g: MultiGraph, removed: Iterable[int] = ()) -> bool:
    """Does ``g`` minus the given vertices have a perfect matching?"""
    return _pm_minus(g, frozenset(removed)) is not None


def is_matchable(g: MultiGraph) -> bool:
    return matchable_minus(g)


def has_pm_containing(g: MultiGraph, forced: Iterable[int]) -> bool:
    """Does some perfect matching contain every edge of ``forced``?

    False (not an error) when two distinct forced edges are adjacent or
    when an id is not an edge of ``g``; a repeated id counts once.
    """
    covered: set[int] = set()
    for e in set(forced):
        if not g.has_edge_id(e):
            return False
        u, v = g.endpoints(e)
        if u in covered or v in covered:
            return False
        covered.add(u)
        covered.add(v)
    return _pm_minus(g, frozenset(covered)) is not None


def is_admissible(g: MultiGraph, e: int) -> bool:
    """Does ``e`` lie in some perfect matching?"""
    if not g.has_edge_id(e):
        raise DomainError(f"unknown edge id {e}")
    return has_pm_containing(g, (e,))


def _strongly_connected(g: MultiGraph, match: Sequence[int], root: int, skip: int = -1) -> bool:
    """Is D(g, match) minus the node ``skip`` strongly connected?

    ``g`` is bipartite and ``match`` a perfect matching of g, as a mate
    sequence over the engine's indices.  D has one node per vertex on
    ``root``'s side, with an arc a -> match[b] for each edge ab of g
    (``g._adjacency``); ``skip`` is a node on that side other than
    ``root``, or -1.  One forward and one backward reach pass from
    ``root`` decide it.

    With M = match, g is matching covered iff D is strongly connected,
    and then, at order >= 6, a brace iff every D - x is (Lakhal-Litzler
    1998; Robertson-Seymour-Thomas 1999).
    """
    adj = g._adjacency()[1]
    need = len(match) // 2 - (skip != -1)
    for backward in (False, True):
        seen = [False] * len(match)
        seen[root] = True
        if skip != -1:
            seen[skip] = True
        queue = [root]
        for a in queue:  # breadth first: the loop reaches what is appended
            if backward:  # the arcs into a leave the neighbours of its mate
                for t in adj[match[a]]:
                    if not seen[t]:
                        seen[t] = True
                        queue.append(t)
            else:
                for b in adj[a]:
                    t = match[b]
                    if not seen[t]:
                        seen[t] = True
                        queue.append(t)
        if len(queue) < need:
            return False
    return True


@_memoized
def _signatures(g: MultiGraph) -> dict[int, int]:
    """Each edge id's witness signature: bit k is set when matching k of
    a pool of perfect matchings of ``g`` holds the edge's vertex pair.

    The pool starts from the engine's cached matching (when it is not
    perfect, no edge is admissible) and gains one perfect matching
    through each edge that no earlier pool matching holds; an edge in
    no perfect matching keeps signature 0.  A matching that holds e but
    not f proves that e does not depend on f, so only edges with equal
    signatures can be mutually dependent.  Parallel edges share a pair,
    hence a signature: any of them completes the same matchings.
    """
    index = g._adjacency()[0]
    cached = _engine(g)
    if -1 in cached:
        return dict.fromkeys(g.edge_ids, 0)
    pairs = {e: (index[u], index[v]) for e, (u, v) in g.edge_items()}
    bits: dict[tuple[int, int], int] = {}

    def pool() -> Iterator[Sequence[int]]:
        # Lazy: each edge is looked up after every earlier matching is in bits.
        yield cached
        for e, (i, j) in pairs.items():
            if (i, j) not in bits:
                match = _pm_minus(g, frozenset(g.endpoints(e)))
                if match is not None:
                    match[i], match[j] = j, i
                    yield match

    for k, match in enumerate(pool()):
        for a, b in enumerate(match):
            if a < b:
                bits[a, b] = bits.get((a, b), 0) | 1 << k
    return {e: bits.get(pair, 0) for e, pair in pairs.items()}


@_memoized
def _mc_witness(g: MultiGraph) -> tuple[str, int | None] | None:
    """None when g is matching covered, else the first condition that
    fails as (reason, edge): order below 2, odd order, disconnected, no
    perfect matching, or the least edge whose witness signature is 0.

    A connected bipartite g with a perfect matching M is matching
    covered exactly when D(g, M) is strongly connected, so its verdict
    takes two reach passes and no pool; only a graph that the digraph
    rejects, or a nonbipartite one, builds the pool to name its edge."""
    if g.n < 2:
        return "order below 2", None
    if g.n % 2:
        return "odd order", None
    if not g.is_connected:
        return "disconnected", None
    cached = _engine(g)
    if -1 in cached:
        return "no perfect matching", None
    bipartite = g.is_bipartite
    if bipartite and _strongly_connected(g, cached, 0):
        return None
    sig = _signatures(g)
    witness = next((("inadmissible edge", e) for e in g.edge_ids if not sig[e]), None)
    if bipartite and witness is None:
        raise VerificationError(
            "matching-covered", "D(g, M) is not strongly connected, yet every edge is admissible"
        )
    return witness


def is_matching_covered(g: MultiGraph) -> bool:
    """Connected, order >= 2, and every edge admissible: on a bipartite
    graph, D(g, M) strongly connected; on any other, every witness
    signature nonzero."""
    return _mc_witness(g) is None


def _require_mc(g: MultiGraph, what: str) -> None:
    """The matching-covered precondition: ``DomainError`` naming ``what``."""
    if not is_matching_covered(g):
        raise DomainError(f"{what} needs a matching covered graph")


# -- perfect matching enumeration -------------------------------------------


def enumerate_pms(g: MultiGraph) -> list[frozenset[int]]:
    """All perfect matchings, as edge-id sets.

    Branch and bound on the lowest-id uncovered vertex; branches whose
    remainder is unmatchable are pruned, so the tree size is proportional
    to the output.  More than ``pm_budget()`` matchings (read at call
    time) raises ``CapabilityError``.
    """
    limit = pm_budget()
    results: list[frozenset[int]] = []
    covered: set[int] = set()
    chosen: list[int] = []

    def recurse() -> None:
        if len(covered) == g.n:
            results.append(frozenset(chosen))
            if len(results) > limit:
                raise CapabilityError(
                    f"perfect matching enumeration: limited to {limit} matchings, "
                    f"found more (default matching.DEFAULT_PM_BUDGET; set "
                    f"{BUDGET_ENV_VAR} to raise it, or use the polynomial predicates)"
                )
            return
        if not matchable_minus(g, covered):
            return
        v = min(u for u in g.vertices if u not in covered)
        for e in g.incident(v):
            w = g.other_end(e, v)
            if w in covered:
                continue
            covered.add(v)
            covered.add(w)
            chosen.append(e)
            recurse()
            chosen.pop()
            covered.discard(v)
            covered.discard(w)

    recurse()
    return results

