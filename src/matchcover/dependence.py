"""The dependence relation on edges, its equivalence classes, and
removable edges/classes.

An edge e depends on f when every perfect matching through e also uses
f.  ``_depends`` is the one place that test is made, on g's own
matching engine: one failed alternating search reads a Gallai-Edmonds
set (Lovasz-Plummer 3.2).  Mutual dependence partitions the edge set;
epsilon is the largest class size.

Most pairs are refuted without that test.  ``matching._signatures``
keeps, per graph, a pool of perfect matchings and each edge's witness
signature (which pool matchings hold it).  A matching that holds e but
not f proves that e does not depend on f, so only edges with equal
signatures can share a class, and only their pairs get a ``_depends``
test: every split is a proof and every join a ``_depends`` answer.

Removability is read off the memoized partition in one pass (Carvalho,
Lucchesi and Murty 1999): a class R is removable exactly when no edge
outside R depends on an edge of R and ``g - R`` is connected, and an
edge is removable exactly when it is a removable singleton class.  So
removability, like the partition, needs a matching covered graph.  On a
bipartite graph the matching digraph of ``g - R`` decides R by two
reach passes; on any other, the pass carries one growing table of
perfect matchings, and only an edge that no table matching settles is
asked of the graph ``g - R`` (``_removability``).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Sequence

from .errors import DomainError, VerificationError
from .matching import (
    _adjacency_minus,
    _augment,
    _engine,
    _pm_minus,
    _require_mc,
    _signatures,
    _strongly_connected,
)
from .multigraph import MultiGraph, _memoized


def _depends(g: MultiGraph, e: int, f: int) -> bool:
    """Does every perfect matching through e use f?  A perfect matching
    of h = g - ends(e) that misses f's pair, or may swap f for a twin,
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


def _check_ids(g: MultiGraph, *edges: int) -> None:
    """``DomainError`` naming every id that is not an edge of g."""
    unknown = sorted({edge for edge in edges if not g.has_edge_id(edge)})
    if unknown:
        raise DomainError(f"unknown edge id {', '.join(map(str, unknown))}")


def depends_on(g: MultiGraph, e: int, f: int) -> bool:
    """Does every perfect matching containing e contain f?  Reflexive."""
    _check_ids(g, e, f)
    return _depends(g, e, f)


def mutually_dependent(g: MultiGraph, e: int, f: int) -> bool:
    _check_ids(g, e, f)
    return _depends(g, e, f) and _depends(g, f, e)


def _class_among(g: MultiGraph, e: int, edges: Iterable[int]) -> frozenset[int]:
    """The edges of ``edges`` mutually dependent with e: only those that
    share e's witness signature get the two ``_depends`` tests."""
    sig = _signatures(g)
    return frozenset(
        f for f in edges if sig[f] == sig[e] and _depends(g, f, e) and _depends(g, e, f)
    )


@dataclasses.dataclass(frozen=True)
class EquivalencePartition:
    """Classes of mutual dependence; sorted by minimum edge id."""

    classes: tuple[frozenset[int], ...]

    @property
    def epsilon(self) -> int:
        return max((len(c) for c in self.classes), default=0)

    def class_of(self, e: int) -> frozenset[int]:
        for c in self.classes:
            if e in c:
                return c
        raise DomainError(f"unknown edge id {e}")

    def __iter__(self):
        return iter(self.classes)

    def __len__(self) -> int:
        return len(self.classes)


@_memoized
def equivalence_partition(g: MultiGraph) -> EquivalencePartition:
    """The partition of E(g) into mutual-dependence classes, computed
    once per graph.

    The least edge e not yet placed opens a class, which takes every
    unplaced edge that shares e's witness signature and is mutually
    dependent with e.
    """
    _require_mc(g, "equivalence partition")
    classes = []
    left = list(g.edge_ids)
    while left:
        cls = _class_among(g, left[0], left)
        classes.append(cls)
        left = [f for f in left if f not in cls]
    return EquivalencePartition(tuple(classes))


def class_of(g: MultiGraph, e: int) -> frozenset[int]:
    """The mutual-dependence class containing e, without building the
    whole partition: pair tests only against the edges that share e's
    witness signature."""
    _check_ids(g, e)
    return _class_among(g, e, g.edge_ids)


def is_equivalence_class(g: MultiGraph, edges: Iterable[int]) -> bool:
    """Is the given edge set exactly one class of the partition?  Every
    id must be an edge of g."""
    f_set = frozenset(edges)
    _check_ids(g, *f_set)
    if not f_set:
        return False
    return class_of(g, min(f_set)) == f_set


def epsilon(g: MultiGraph) -> int:
    return equivalence_partition(g).epsilon


def _require_removability(g: MultiGraph) -> None:
    if g.n == 2:
        raise DomainError("edge removability is undefined on a graph of order 2")
    _require_mc(g, "removability")


def _removability(g: MultiGraph) -> Callable[[frozenset[int]], bool]:
    """The test "is g - r matching covered?" for r one edge or one class.

    The edges of a class are mutually dependent, so a perfect matching
    that avoids ``e = min(r)`` avoids all of r.  On a bipartite g one
    such matching M' decides r: g - r is matching covered iff
    D(g - r, M') is strongly connected.  On any other g, an edge f
    outside r lies in a perfect matching of g - r exactly when it does
    not depend on e, and g - r must be connected.  A table of witness
    signatures, copied from g's pool, settles every f that some table
    matching holds without e; each open f is asked of g - r's engine,
    and the matching that answers joins the table, so it can settle the
    candidates of later calls too.  g - r is built only for an open
    candidate, and only a larger class needs a connectivity pass: a
    matching covered graph of order >= 4 is 2-connected.  The table
    lives as long as the returned test, not in g's memo.
    """
    if g.is_bipartite:
        return lambda r: _bipartite_removable(g, r)
    sig = dict(_signatures(g))
    index = g._adjacency()[0]
    pairs = {f: (index[u], index[v]) for f, (u, v) in g.edge_items()}
    bit = 1 << max(sig.values()).bit_length()  # the next unused bit

    def removable(r: frozenset[int]) -> bool:
        nonlocal bit
        e = min(r)
        if len(r) > 1 and not _connected_minus(g, r):
            return False
        rest = None
        for f in g.edge_ids:
            if f in r or sig[f] & ~sig[e]:
                continue
            if rest is None:
                rest = g.delete_edges(r)
            match = _pm_minus(rest, frozenset(rest.endpoints(f)))
            if match is None:
                return False
            i, j = pairs[f]
            match[i], match[j] = j, i
            for h, (x, y) in pairs.items():
                if match[x] == y:
                    sig[h] |= bit
            bit <<= 1
        return True

    return removable


def _bipartite_removable(g: MultiGraph, r: frozenset[int]) -> bool:
    # M' is the engine's matching when it misses e's pair, else one
    # completed through another edge at an end of e.
    index, adj = g._adjacency()
    u, v = g.endpoints(min(r))
    i, j = index[u], index[v]
    match: Sequence[int] = _engine(g)
    if match[i] == j:
        w = next(w for w in adj[i] if w != j)
        completed = _pm_minus(g, frozenset((u, g.vertices[w])))
        if completed is None:
            raise VerificationError("removability", f"edge {u}-{g.vertices[w]} is inadmissible")
        completed[i], completed[w] = w, i
        match = completed
    return _strongly_connected(g, match, 0, r)


def _connected_minus(g: MultiGraph, r: frozenset[int]) -> bool:
    """Is g - r connected?  One breadth-first pass over its adjacency."""
    adj = _adjacency_minus(g, r)
    seen = [False] * g.n
    seen[0] = True
    queue = [0]
    for x in queue:  # breadth first: the loop reaches what is appended
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                queue.append(y)
    return len(queue) == g.n


@_memoized
def _removable_classes(g: MultiGraph) -> tuple[frozenset[int], ...]:
    removable = _removability(g)
    return tuple(c for c in equivalence_partition(g).classes if removable(c))


def is_removable_edge(g: MultiGraph, e: int) -> bool:
    """Is g - e still matching covered?"""
    _require_removability(g)
    _check_ids(g, e)
    return _removability(g)(frozenset((e,)))


def removable_edges(g: MultiGraph) -> tuple[int, ...]:
    """The removable edges, in id order: the members of the removable
    singleton classes (an edge of a larger class is never removable)."""
    _require_removability(g)
    return tuple(min(c) for c in _removable_classes(g) if len(c) == 1)


def removable_classes(g: MultiGraph) -> tuple[frozenset[int], ...]:
    """The classes R of the partition for which g - R is matching covered."""
    _require_removability(g)
    return _removable_classes(g)
