"""Barriers, the canonical partition, bicriticality, even 2-cuts, and
vertex connectivity.  The partition, the even 2-cuts and the
connectivity are memoized per graph."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .errors import DomainError, VerificationError
from .matching import is_matching_covered, matchable_minus
from .multigraph import Cut, MultiGraph, _memoized


def is_barrier(g: MultiGraph, vertex_set: Iterable[int]) -> bool:
    """Is the set a barrier, i.e. does g minus it have exactly |set| odd components?"""
    b = frozenset(vertex_set)
    unknown = b - frozenset(g.vertices)
    if unknown:
        raise DomainError(f"unknown vertices: {sorted(unknown)}")
    return g.odd_components_count(b) == len(b)


@_memoized
def canonical_partition(g: MultiGraph) -> tuple[frozenset[int], ...]:
    """The partition of V(g) into maximal barriers.

    Built from the pair relation "u ~ v iff u = v or g - u - v is not
    matchable" (two vertices share a maximal barrier exactly when no
    perfect matching separates them).  Every part is re-verified to be a
    barrier, so an engine bug surfaces as a hard error rather than a
    wrong partition.  Parts are sorted by their smallest vertex.
    """
    if not is_matching_covered(g):
        raise DomainError("canonical partition needs a matching covered graph")
    parent = {v: v for v in g.vertices}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in combinations(g.vertices, 2):
        if find(u) != find(v) and not matchable_minus(g, (u, v)):
            parent[find(v)] = find(u)
    classes: dict[int, set[int]] = {}
    for v in g.vertices:
        classes.setdefault(find(v), set()).add(v)
    parts = tuple(sorted((frozenset(c) for c in classes.values()), key=min))
    for part in parts:
        if not is_barrier(g, part):
            raise VerificationError(
                "canonical-partition",
                f"computed part {sorted(part)} is not a barrier",
            )
    return parts


def is_bicritical(g: MultiGraph) -> bool:
    """Is g - u - v matchable for every vertex pair?"""
    return all(
        matchable_minus(g, pair) for pair in combinations(g.vertices, 2)
    )


def even_2cuts(g: MultiGraph) -> list[Cut]:
    """All 2-edge cuts {e, f} with nonadjacent edges and two even shores.

    Each is returned as the Cut of the shore holding the lower minimum
    vertex id.  Results are ordered by the pair's edge ids.  The list is
    the caller's own; the cuts are computed once per graph.
    """
    return list(_even_2cuts(g))


@_memoized
def _even_2cuts(g: MultiGraph) -> tuple[Cut, ...]:
    out: list[Cut] = []
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
    return tuple(out)


# -- vertex connectivity -----------------------------------------------------


def _local_vertex_connectivity(
    index: dict[int, int], adj: dict[int, tuple[int, ...]], s: int, t: int, n: int
) -> int:
    # Max flow from s_out to t_in on the vertex-split network: node v
    # becomes v_in (2i) -> v_out (2i+1) with capacity 1; each edge uv
    # becomes u_out -> v_in and v_out -> u_in with effectively unbounded
    # capacity, so min cuts consist of internal vertex arcs only.
    big = n + 1
    cap: dict[tuple[int, int], int] = {}
    graph: dict[int, list[int]] = {}

    def arc(a: int, b: int, c: int) -> None:
        if (a, b) not in cap:
            cap[(a, b)] = 0
            cap[(b, a)] = cap.get((b, a), 0)
            graph.setdefault(a, []).append(b)
            graph.setdefault(b, []).append(a)
        cap[(a, b)] += c

    for v, i in index.items():
        arc(2 * i, 2 * i + 1, 1)
    for v, nbrs in adj.items():
        for w in nbrs:
            arc(2 * index[v] + 1, 2 * index[w], big)
    source, sink = 2 * index[s] + 1, 2 * index[t]
    flow = 0
    while True:
        # BFS for an augmenting path in the residual network.
        prev: dict[int, int] = {source: source}
        queue = [source]
        while queue and sink not in prev:
            nxt: list[int] = []
            for a in queue:
                for b in graph.get(a, ()):
                    if b not in prev and cap.get((a, b), 0) > 0:
                        prev[b] = a
                        nxt.append(b)
            queue = nxt
        if sink not in prev:
            return flow
        b = sink
        while b != source:
            a = prev[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        flow += 1


@_memoized
def vertex_connectivity(g: MultiGraph) -> int:
    """kappa(g): parallel edges collapse; disconnected graphs give 0, K2 gives 1."""
    n = g.n
    if n <= 1 or not g.is_connected:
        return 0
    adj = {v: g.neighbors(v) for v in g.vertices}
    if all(len(adj[v]) == n - 1 for v in g.vertices):
        return n - 1
    index = {v: i for i, v in enumerate(g.vertices)}
    best = n - 1
    verts = g.vertices
    for i, s in enumerate(verts):
        for t in verts[i + 1:]:
            if t in adj[s]:
                continue
            best = min(best, _local_vertex_connectivity(index, adj, s, t, n))
            if best == 0:
                return 0
    return best
