"""The dependence relation on edges, its equivalence classes, and
removable edges/classes.

An edge e depends on f when every perfect matching through e also uses
f, that is, when g - ends(e) - f has no perfect matching.  ``_depends``
is the one place that test is made: one ``matching._pm_minus`` query on
g's own engine, which completes g's cached matching with the ends of e
and the edge f taken out.  Mutual dependence partitions the edge set;
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
removability, like the partition, needs a matching covered graph, and
it too asks only g's engine and adjacency (``g.components(without=R)``
for connectivity): no graph ``g - R`` is built.  On a
bipartite graph the matching digraph of ``g - R`` decides R by two
reach passes; on any other, the pass carries one growing table of
perfect matchings, and only an edge f that no table matching settles is
asked, as ``_pm_minus(g, ends(f), R)`` (``_removability``).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable

from .errors import DomainError, VerificationError
from .matching import _pm_minus, _require_mc, _signatures, _strongly_connected
from .multigraph import MultiGraph, _memoized


def _depends(g: MultiGraph, e: int, f: int) -> bool:
    """Does every perfect matching through e use f?  Exactly when
    g - ends(e) - f has no perfect matching (a parallel twin of f may
    stand in for it)."""
    return e == f or _pm_minus(g, frozenset(g.endpoints(e)), (f,)) is None


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

    Every query is asked of g's own engine, as a perfect matching of g
    minus vertices and the edges of r (``_pm_minus``); no graph g - r is
    built.  On a bipartite g one perfect matching M' of g - r decides r:
    g - r is matching covered iff D(g - r, M') is strongly connected.
    On any other g, g - r must be connected and every edge f outside r
    must lie in a perfect matching of g - r.  The edges of a class are
    mutually dependent, so a perfect matching that avoids ``e = min(r)``
    avoids all of r.  A table of witness signatures, copied from g's
    pool, settles every f that some table matching holds without e;
    each open f is asked as ``_pm_minus(g, ends(f), r)``, and the
    matching that answers joins the table, so it can settle the
    candidates of later calls too.  Only a larger class needs a
    connectivity pass, ``g.components(without=r)``: a matching covered
    graph of order >= 4 is 2-connected.  The table lives as long as the
    returned test, not in g's memo.
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
        if len(r) > 1 and len(g.components(without=r)) != 1:
            return False
        for f in g.edge_ids:
            if f in r or sig[f] & ~sig[e]:
                continue
            match = _pm_minus(g, frozenset(g.endpoints(f)), r)
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
    match = _pm_minus(g, frozenset(), r)
    if match is None:
        raise VerificationError("removability", f"no perfect matching avoids edge {min(r)}")
    return _strongly_connected(g, match, 0, r)


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
