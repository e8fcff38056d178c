"""Barriers, the canonical partition, bicriticality, even 2-cuts, and
vertex connectivity.  The partition, the even 2-cuts and the
connectivity are memoized per graph.  The canonical partition of a
bipartite graph is its two colour classes, with no search; any other
graph's takes one failed alternating search per part on the matching
engine's cached perfect matching.  The even 2-cuts are the pairs of
``dependence._even_cut_groups``, from one spanning-tree pass with no
matching query, each checked by one ``components`` pass over g's
adjacency minus the pair (no graph is built).  Both need a matching
covered graph.  Connectivity follows Esfahanian and Hakimi, with
unit-capacity flows on one vertex-split array network.  Take v of least
degree delta.  Each vertex j not adjacent to v, taken breadth first
from v, gets one flow into a sink joined to every vertex already
settled (N(v) and the earlier j), or none when j has enough settled
neighbours; then each nonadjacent pair of v's neighbours gets one.
That is at most (n - delta - 1) + delta*(delta - 1)/2 flows, each
capped at the least value found so far."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .dependence import _even_cut_groups
from .errors import DomainError, VerificationError
from .matching import _augment, _engine, _require_mc, is_matching_covered
from .multigraph import Cut, MultiGraph, _memoized


def is_barrier(g: MultiGraph, vertex_set: Iterable[int]) -> bool:
    """Is the set a barrier, i.e. does g minus it have exactly |set| odd components?"""
    b = frozenset(vertex_set)
    unknown = b - g._vset
    if unknown:
        raise DomainError(f"unknown vertices: {sorted(unknown)}")
    return g.odd_components_count(b) == len(b)


@_memoized
def canonical_partition(g: MultiGraph) -> tuple[frozenset[int], ...]:
    """The partition of V(g) into maximal barriers, sorted by their
    smallest vertex.

    In a bipartite matching covered graph the maximal barriers are the
    two colour classes (Lovasz-Plummer, Matching Theory), so that is the
    answer, with no search.  Otherwise u and v share one exactly when g - u - v is not matchable, that is
    when v is outside the Gallai-Edmonds set D(g - u).  For each u not
    yet in a part, the cached perfect matching minus u's edge leaves
    u's mate w the one exposed vertex of g - u, so one search from w
    fails and labels D(g - u) outer; u's part is the rest.  Each part is
    re-verified to be a barrier disjoint from the earlier ones, so an
    engine bug surfaces as a hard error rather than a wrong partition.
    """
    _require_mc(g, "canonical partition")
    colours = g.bipartition()
    if colours is not None:
        return tuple(sorted(colours, key=min))
    adj = g._adjacency()[1]
    cached = _engine(g)
    verts = g.vertices
    parts: list[frozenset[int]] = []
    done: set[int] = set()
    for u, w in enumerate(cached):
        if verts[u] in done:
            continue
        match = list(cached)
        match[u] = match[w] = -1
        outer = _augment(adj, match, w, (u,))
        if outer is None:
            raise VerificationError("canonical-partition", f"g - {verts[u]} augmented")
        part = frozenset(verts[v] for v, even in enumerate(outer) if not even)
        if part & done or not is_barrier(g, part):
            raise VerificationError("canonical-partition", f"{sorted(part)} is no new barrier")
        done |= part
        parts.append(part)
    return tuple(parts)


def is_bicritical(g: MultiGraph) -> bool:
    """Is g - u - v matchable for every vertex pair?  Past order 2 that
    needs g matching covered with every canonical part a singleton."""
    return g.n <= 2 or (is_matching_covered(g) and len(canonical_partition(g)) == g.n)


def even_2cuts(g: MultiGraph) -> list[Cut]:
    """All 2-edge cuts {e, f} with nonadjacent edges and two even shores,
    in a matching covered graph (``DomainError`` otherwise).

    Each is returned as the Cut of the shore holding the lower minimum
    vertex id.  Results are ordered by the pair's edge ids.  The list is
    the caller's own; the cuts are computed once per graph.
    """
    return list(_even_2cuts(g))


@_memoized
def _even_2cuts(g: MultiGraph) -> tuple[Cut, ...]:
    # Two edges of one even-cut group are an even 2-cut: both shores of
    # the cut are even, as g is.  Each pair is checked by one components
    # pass over g's adjacency minus the pair, which also gives the shore:
    # g - e - f must fall into exactly two even components with e and f
    # between them, and the edges must be nonadjacent, as the two edges
    # of an even cut of a matching covered graph are mutually dependent
    # and share a perfect matching.  The first component is the shore
    # with the lower minimum vertex.
    _require_mc(g, "even 2-cuts")
    pairs = sorted(
        pair for group in _even_cut_groups(g) for pair in combinations(sorted(group), 2)
    )
    out: list[Cut] = []
    for e, f in pairs:
        comps = g.components(without=(e, f))
        shore = comps[0]
        (a, b), (c, d) = g.endpoints(e), g.endpoints(f)
        if (
            len(comps) != 2 or len(shore) % 2 or len({a, b, c, d}) < 4
            or (a in shore) == (b in shore) or (c in shore) == (d in shore)
        ):
            raise VerificationError("even-2-cuts", f"edges {e} and {f} are no even 2-cut")
        out.append(g.cut(shore))
    return tuple(out)


# -- vertex connectivity -----------------------------------------------------


def _split_network(
    nbrs: Sequence[Sequence[int]],
) -> tuple[list[int], list[int], list[list[int]]]:
    """The vertex-split flow network of the graph on vertices 0 .. n-1
    whose neighbour lists are ``nbrs``, as flat arc arrays.

    Vertex i becomes v_in (node 2i) -> v_out (node 2i+1) with capacity 1;
    each adjacent pair {u, v} becomes u_out -> v_in and v_out -> u_in
    with capacity n, so minimum cuts use vertex arcs only.  One more
    node, the sink T = 2n, gets an arc i_out -> T of capacity 0 from
    each vertex i, arc 2n + 2i; a flow into T opens the arcs of the
    vertices it may end at, and a flow that opens none sees the plain
    split network.  Arc k runs to ``head[k]`` with capacity ``cap[k]``;
    its residual partner is arc ``k ^ 1``; ``arcs[x]`` lists the arcs
    leaving node x.
    """
    n = len(nbrs)
    head: list[int] = []
    cap: list[int] = []
    arcs: list[list[int]] = [[] for _ in range(2 * n + 1)]

    def arc(a: int, b: int, c: int) -> None:
        arcs[a].append(len(head))
        head.append(b)
        cap.append(c)
        arcs[b].append(len(head))
        head.append(a)
        cap.append(0)

    for i in range(n):
        arc(2 * i, 2 * i + 1, 1)
    for i in range(n):
        arc(2 * i + 1, 2 * n, 0)
    for i, row in enumerate(nbrs):
        for j in row:
            arc(2 * i + 1, 2 * j, n)
    return head, cap, arcs


def _capped_flow(
    head: list[int],
    cap0: list[int],
    arcs: list[list[int]],
    source: int,
    sink: int,
    limit: int,
) -> int:
    """min(limit, max flow from source to sink), one BFS augmenting path
    at a time on a copy of the capacities."""
    cap = cap0[:]
    flow = 0
    while flow < limit:
        via = [-1] * len(arcs)
        via[source] = -2
        queue = [source]
        for a in queue:
            for k in arcs[a]:
                b = head[k]
                if via[b] == -1 and cap[k]:
                    via[b] = k
                    queue.append(b)
            if via[sink] != -1:
                break
        else:
            return flow
        b = sink
        while b != source:
            k = via[b]
            cap[k] -= 1
            cap[k ^ 1] += 1
            b = head[k ^ 1]
        flow += 1
    return flow


@_memoized
def vertex_connectivity(g: MultiGraph) -> int:
    """kappa(g): parallel edges collapse; disconnected graphs give 0, K2 gives 1.

    Esfahanian and Hakimi's scheme: take a vertex v of least degree
    delta, start from ``best = delta`` (N(v) separates v from any vertex
    not adjacent to it), and find min(best, kappa(v, j)) for each vertex
    j not adjacent to v, then run one flow between each nonadjacent pair
    of v's neighbours; each flow stops at ``best`` augmenting paths, as a
    larger one cannot lower the minimum.  Let S be a minimum separator.
    If v lies outside some such S, a vertex beyond S is not adjacent to
    v, and that pair's value is kappa.  If v lies in every one, S - v
    separates nothing, so v has neighbours in two components of g - S;
    they are not adjacent, and their flow is kappa.

    The first phase runs its flows into the settled vertices, not into v
    (the sink contraction of Hao and Orlin, as carried over to vertex
    connectivity by Henzinger, Rao and Gabow).  The non-neighbours j are
    visited breadth first from v; the settled set W holds N(v) and every
    j visited so far, and every w in W has kappa(v, w) >= best (w is
    adjacent to v, or its value was at least the best of its time).  The
    flow from j_out to the sink T, through the T-arcs of W, is a fan of
    paths from j to W, disjoint but at j, capped at best; each search
    stops at the nearest settled vertex.  It equals min(best, kappa(v, j)):

    - If a v-j separator X had |X| < min(best, fan), some path of the fan
      would miss X and end at w in W outside X.  X holds fewer than
      kappa(v, w) vertices, so a v-w path misses X too, and joining the
      two gives a v-j walk that misses X.  So kappa(v, j) >= min(best, fan).
    - If the fan f is below best, a minimum cut of it is a vertex set X of
      size f that meets every j-W path.  X never needs v: a j-W path
      through v reaches a neighbour of v, which is in W, before it.  Every
      v-j path leaves v into N(v), within W, so X separates v from j, and
      kappa(v, j) <= f.

    A j with at least ``best`` settled neighbours has a fan of ``best``
    one-edge paths, so it is settled with no flow.  On the (4,4)
    construction final that leaves 47 flows, where one flow per pair
    ran all (n - delta - 1) + delta*(delta - 1)/2 = 68.
    """
    n = g.n
    if n <= 1 or not g.is_connected:
        return 0
    nbrs = g._adjacency()[1]
    v = min(range(n), key=lambda i: len(nbrs[i]))
    best = len(nbrs[v])
    head, cap, arcs = _split_network(nbrs)
    order = [v]
    seen = [False] * n
    seen[v] = True
    for x in order:  # breadth first: the loop reaches what is appended
        for j in nbrs[x]:
            if not seen[j]:
                seen[j] = True
                order.append(j)
    # order[1:] starts with N(v), which is settled before any flow runs.
    adjacent = set(nbrs[v])
    settled = [False] * n
    fan = cap[:]
    for j in order[1:]:
        if j not in adjacent and sum(settled[w] for w in nbrs[j]) < best:
            best = min(best, _capped_flow(head, fan, arcs, 2 * j + 1, 2 * n, best))
        settled[j] = True
        fan[2 * n + 2 * j] = 1
    for a, b in combinations(nbrs[v], 2):
        if b not in nbrs[a]:
            best = min(best, _capped_flow(head, cap, arcs, 2 * a + 1, 2 * b, best))
    return best
