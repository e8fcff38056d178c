"""The dependence relation on edges and its equivalence classes.

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
Removability, which reads these classes through the tight cut
decomposition, lives in ``cuts``.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from .errors import DomainError
from .matching import _pm_minus, _require_mc, _signatures
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
