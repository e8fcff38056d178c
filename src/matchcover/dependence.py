"""The dependence relation on edges and its equivalence classes.

An edge e depends on f when every perfect matching through e also uses
f, that is, when g - ends(e) - f has no perfect matching.  ``_depends``
is the one place that test is made: one ``matching._pm_minus`` query on
g's own engine, which completes g's cached matching with the ends of e
and the edge f taken out.  Mutual dependence partitions the edge set;
epsilon is the largest class size.

The classes start from the even 2-cuts.  ``_even_cut_groups`` groups
the edges, in one spanning-tree pass, so that two edges share a group
exactly when they form the cut of a vertex set of even size.  A perfect
matching meets such a cut evenly, so each group lies inside one class,
in any graph.  In a bipartite matching covered graph the groups are the
classes:

    Distinct e and f are mutually dependent iff {e, f} is the cut of a
    set S with |S| even.  Take a perfect matching M that avoids e and f
    (one through an edge adjacent to e avoids e, hence f) and the
    matching digraph D(G, M).  Every directed cycle through e uses f:
    one that avoids f would swap M for a perfect matching through e and
    not f.  So R, the set of nodes that the head of e reaches in D - f,
    misses the tail of e, and as D is strongly connected, f is the only
    arc leaving R.  A second arc ab entering R, a outside R, would close
    a cycle through f that avoids e: a shortest path from the head of f
    to a stays outside R (it could leave R again only by f, back to its
    start), and a path from b inside R ends with f, the only way out.
    So the arcs crossing R are e and f, and R with its mates is an even
    S whose cut is {e, f}.

A bipartite graph's partition therefore builds no pool and asks no
query.  Any other graph's asks only of each group's least edge, and
most pairs of those are refuted without a test: ``matching._signatures``
keeps, per graph, a pool of perfect matchings and each edge's witness
signature (which pool matchings hold it).  A matching that holds e but
not f proves that e does not depend on f, so only edges with equal
signatures can share a class, and only their pairs get a ``_depends``
test: every split is a proof and every join a ``_depends`` answer.
Removability, which reads these classes through the tight cut
decomposition, lives in ``cuts``.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from .errors import DomainError
from .matching import _pm_minus, _require_mc, _signatures, is_matching_covered
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


@_memoized
def _even_cut_groups(g: MultiGraph) -> tuple[frozenset[int], ...]:
    """The edges grouped so that distinct e and f share a group exactly
    when {e, f} is the cut of a vertex set of even size; sorted by least
    edge.

    One breadth-first spanning forest gives each edge off it its own
    bit, and each tree edge, into v from its parent, the XOR of the bits
    of the edges off the forest that leave subtree(v): those whose
    fundamental cycle runs through it.  An edge set is a cut exactly
    when it meets every fundamental cycle evenly, that is, when its
    labels XOR to 0, so {e, f} is a cut exactly when e and f have equal
    labels; the label is exact, not a hash.  Such a cut splits off
    subtree(v) from an edge off the forest, or, for two tree edges, the
    difference of their nested or disjoint subtrees, so its shore is
    even exactly when the two subtree sizes have equal parity, an edge
    off the forest counting as even.  The key (label, parity) names the
    group.
    """
    up: dict[int, tuple[int | None, int]] = {}  # v -> (tree edge into v, v's parent)
    order: list[int] = []
    for root in g.vertices:
        if root in up:
            continue
        up[root] = (None, root)
        queue = [root]
        for v in queue:  # breadth first: the loop reaches what is appended
            for e in g._inc[v]:
                a, b = g._endpoints[e]
                w = b if a == v else a
                if w not in up:
                    up[w] = (e, v)
                    queue.append(w)
        order += queue
    tree = {e for e, _ in up.values()}
    label = dict.fromkeys(order, 0)  # the bits at v, then over subtree(v)
    size = dict.fromkeys(order, 1)
    key: dict[int, tuple[int, int]] = {}
    bit = 1
    for e, (a, b) in g.edge_items():
        if e not in tree:
            key[e] = (bit, 0)
            label[a] ^= bit
            label[b] ^= bit
            bit <<= 1
    for v in reversed(order):
        e, parent = up[v]
        if e is not None:
            key[e] = (label[v], size[v] % 2)
            label[parent] ^= label[v]
            size[parent] += size[v]
    groups: dict[tuple[int, int], list[int]] = {}
    for e in g.edge_ids:
        groups.setdefault(key[e], []).append(e)
    return tuple(frozenset(group) for group in groups.values())


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

    A bipartite g's classes are its even-cut groups.  Any other g's
    classes are unions of groups, so only each group's least edge is
    asked, and a class of those lies inside one set of them with equal
    witness signatures.  In each such set, the least edge e not yet
    placed opens a class, which takes every unplaced edge of the set
    mutually dependent with e, with their groups; a lone edge left
    needs no test.  The classes are then sorted by least edge.
    """
    _require_mc(g, "equivalence partition")
    groups = _even_cut_groups(g)
    if g.is_bipartite:
        return EquivalencePartition(groups)
    sig = _signatures(g)
    group_of = {min(group): group for group in groups}
    by_sig: dict[int, list[int]] = {}
    for e in group_of:
        by_sig.setdefault(sig[e], []).append(e)
    classes = []
    for left in by_sig.values():
        while len(left) > 1:
            heads = _class_among(g, left[0], left)
            classes.append(frozenset().union(*map(group_of.get, heads)))
            left = [f for f in left if f not in heads]
        classes += map(group_of.get, left)  # a lone edge left is a class
    return EquivalencePartition(tuple(sorted(classes, key=min)))


def class_of(g: MultiGraph, e: int) -> frozenset[int]:
    """The mutual-dependence class containing e.  On a bipartite
    matching covered g that is e's even-cut group, with no query;
    otherwise pair tests only against the edges that share e's witness
    signature, without building the whole partition."""
    _check_ids(g, e)
    if g.is_bipartite and is_matching_covered(g):
        return equivalence_partition(g).class_of(e)
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
