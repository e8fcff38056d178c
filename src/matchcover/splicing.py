"""Splicing two graphs at a vertex pair, and the class-merging analysis
across a tight cut.

Side conventions everywhere: for a cut with shore X, side 1 is the
contraction keeping X (the complement shrinks) and side 2 keeps the
complement.  splice() returns a graph in which g1 keeps every vertex
and edge id; g2 is remapped into fresh ranges and each joined edge
keeps its g1-side id, so iterated splices leave earlier ids stable.
Pi is kept once, in ``SpliceResult.edge_map``: it sends each pi(e) to
the joined edge e, and the joined edges are the splicing cut's edges.
The merge analysis reads the cut's memoized contractions, asks their own
engines, and refuses with ``DomainError`` what its theorems do not cover.
"""

from __future__ import annotations

import dataclasses
from itertools import permutations
from typing import Mapping, NamedTuple, Optional

from .cuts import _as_cut, contractions, is_separating_cut, is_tight_cut
from .dependence import _depends, equivalence_partition
from .errors import CapabilityError, DomainError
from .matching import has_pm_containing
from .multigraph import CanonicalForm, Cut, MultiGraph, canonical_form

VARIANT_DEGREE_LIMIT = 8


@dataclasses.dataclass(frozen=True)
class SpliceSpec:
    """Inputs of one splice: graphs, splice vertices, and the boundary
    bijection pi mapping edge ids of g1's star at v1 to g2's star at v2.
    pi=None pairs the stars in sorted id order."""

    g1: MultiGraph
    v1: int
    g2: MultiGraph
    v2: int
    pi: Optional[Mapping[int, int]] = None


class SpliceResult(NamedTuple):
    """A splice, its splicing cut (a plain ``Cut``) and g2's id maps."""

    graph: MultiGraph
    cut: Cut
    vertex_map: dict[int, int]  # g2 vertex id -> result id (v2 excluded)
    edge_map: dict[int, int]  # g2 edge id -> result id (star edges -> joined id)


def splice(spec: SpliceSpec) -> SpliceResult:
    """(g1 (.) g2)_{v1,v2,pi}: remove v1 and v2, then join the loose end
    of each e in the star of v1 to the loose end of pi(e).

    The result has |V(g1)| + |V(g2)| - 2 vertices; the returned cut is
    the boundary of V(g1) - v1 and has deg(v1) edges.
    """
    g1, v1, g2, v2 = spec.g1, spec.v1, spec.g2, spec.v2
    if not g1.has_vertex(v1):
        raise DomainError(f"vertex {v1} is not in the first graph")
    if not g2.has_vertex(v2):
        raise DomainError(f"vertex {v2} is not in the second graph")
    star1 = sorted(g1.incident(v1))
    star2 = sorted(g2.incident(v2))
    if len(star1) != len(star2):
        raise DomainError(
            f"degree mismatch: deg({v1}) = {len(star1)} vs deg({v2}) = {len(star2)}"
        )
    if spec.pi is None:
        pi = dict(zip(star1, star2))
    else:
        pi = dict(spec.pi)
        if sorted(pi) != star1 or sorted(pi.values()) != star2:
            raise DomainError(
                "pi must be a bijection between the stars of the splice vertices"
            )

    vertex_map: dict[int, int] = {}
    fresh_v = g1._next_vertex
    for w in g2.vertices:
        if w == v2:
            continue
        vertex_map[w] = fresh_v
        fresh_v += 1
    star2_set = set(star2)
    edge_map: dict[int, int] = {}
    fresh_e = g1._next_edge
    for e in g2.edge_ids:
        if e in star2_set:
            continue
        edge_map[e] = fresh_e
        fresh_e += 1

    endpoints: dict[int, tuple[int, int]] = {}
    edge_labels: dict[int, str] = {}
    for e in g1.edge_ids:
        u, w = g1.endpoints(e)
        if v1 in (u, w):
            continue
        endpoints[e] = (u, w)
        if e in g1.edge_labels:
            edge_labels[e] = g1.edge_labels[e]
    for e, new_id in edge_map.items():
        u, w = g2.endpoints(e)
        endpoints[new_id] = (vertex_map[u], vertex_map[w])
        if e in g2.edge_labels:
            edge_labels[new_id] = g2.edge_labels[e]
    for e in star1:
        u = g1.other_end(e, v1)
        w = g2.other_end(pi[e], v2)
        endpoints[e] = (u, vertex_map[w])
        if e in g1.edge_labels:
            edge_labels[e] = g1.edge_labels[e]
        edge_map[pi[e]] = e

    vertices = [w for w in g1.vertices if w != v1]
    vertices.extend(vertex_map.values())
    graph = MultiGraph.with_ids(
        vertices,
        endpoints,
        next_vertex_id=fresh_v,
        next_edge_id=fresh_e,
        edge_labels=edge_labels,
    )
    shore = frozenset(w for w in g1.vertices if w != v1)
    return SpliceResult(graph, graph.cut(shore), vertex_map, edge_map)


def splice_variants(
    g1: MultiGraph, v1: int, g2: MultiGraph, v2: int
) -> dict[CanonicalForm, SpliceResult]:
    """All splice outcomes over the boundary bijections, keyed by
    canonical form (first witness kept).  Gated at degree 8: beyond
    that the factorial sweep is refused."""
    if not (g1.has_vertex(v1) and g2.has_vertex(v2)):
        raise DomainError("splice vertices must exist in their graphs")
    star1, star2 = sorted(g1.incident(v1)), sorted(g2.incident(v2))
    if len(star1) != len(star2):
        raise DomainError(
            f"degree mismatch: deg({v1}) = {len(star1)} vs deg({v2}) = {len(star2)}"
        )
    if len(star1) > VARIANT_DEGREE_LIMIT:
        raise CapabilityError(
            f"splice variants: limited to stars of {VARIANT_DEGREE_LIMIT} edges, "
            f"got {len(star1)} (splicing.VARIANT_DEGREE_LIMIT)"
        )
    out: dict[CanonicalForm, SpliceResult] = {}
    for perm in permutations(star2):
        result = splice(SpliceSpec(g1, v1, g2, v2, dict(zip(star1, perm))))
        form = canonical_form(result.graph)
        if form not in out:
            out[form] = result
    return out


# -- class restriction and merging across a cut ------------------------------


@dataclasses.dataclass(frozen=True)
class CrossSupport:
    """For an edge set F inside one contraction side: the cut edges e
    whose forced set F + {e} still extends to a perfect matching of
    that contraction."""

    side: int
    edges: frozenset[int]
    support: frozenset[int]


def _kept(cut: Cut, side: int) -> frozenset[int]:
    if side not in (1, 2):
        raise DomainError("side must be 1 (shore kept) or 2 (complement kept)")
    return cut.shore if side == 1 else cut.other_shore


def _support(h: MultiGraph, cut: Cut, side: int, f_edges: frozenset[int]) -> frozenset[int]:
    # The cut edges e with F + {e} in a perfect matching of the side's
    # contraction h; a tight cut is separating, so check_merge needs no more.
    if f_edges & cut.edges:
        raise DomainError("F must be disjoint from the cut")
    for e in f_edges:
        if not h.has_edge_id(e):
            raise DomainError(f"edge {e} is not on side {side} of the cut")
    forced = tuple(sorted(f_edges))
    return frozenset(e for e in cut.edges if has_pm_containing(h, forced + (e,)))


def cross_support(
    g: MultiGraph, c: Cut | frozenset[int], side: int, F
) -> CrossSupport:
    """Support of F across a separating cut, computed on the side's
    contraction with one forced-matchability call per cut edge."""
    cut = _as_cut(g, c)
    f_edges = frozenset(F)
    _kept(cut, side)  # rejects a side other than 1 or 2
    if not is_separating_cut(g, cut):
        raise DomainError("cross support is defined over separating cuts")
    h = contractions(g, cut)[side - 1]
    return CrossSupport(side, f_edges, _support(h, cut, side, f_edges))


def check_merge(g: MultiGraph, c: Cut | frozenset[int], F1, F2) -> bool:
    """Across a tight cut, do the classes F1 of G1 (side 1) and F2 of G2
    (side 2) merge into one class of g?  Any other input is refused.

    True iff their supports on the cut coincide with cardinality >= 2
    and every support edge e is inadmissible in each G_i - F_i: as a
    perfect matching holds all of a class or none of it, that is
    ``_depends(G_i, e, min(F_i))`` on G_i's own engine.  The class of
    F1 | F2 in g itself is never computed.
    """
    cut = _as_cut(g, c)
    if not is_tight_cut(g, cut):
        raise DomainError("merge analysis needs a tight cut")
    sides = list(zip((1, 2), contractions(g, cut), (frozenset(F1), frozenset(F2))))
    s1, s2 = (_support(h, cut, i, f) for i, h, f in sides)
    if any(f not in equivalence_partition(h).classes for _, h, f in sides):
        raise DomainError("F1 and F2 must be classes of their contractions")
    return s1 == s2 and len(s1) >= 2 and all(
        _depends(h, e, min(f)) for _, h, f in sides for e in sorted(s1)
    )


class ClassRestriction(NamedTuple):
    edges: frozenset[int]
    relation: str  # "equals_class" | "subset_of_class" | "empty"


def restrict_class(
    g: MultiGraph, c: Cut | frozenset[int], F, side: int
) -> ClassRestriction:
    """A class F of g intersected with one contraction's edge set: across
    a tight cut a nonempty restriction is a class of the contraction, and
    across a separating cut it lies in one.  Other input is refused."""
    cut = _as_cut(g, c)
    kept = _kept(cut, side)
    f_edges = frozenset(F)
    if f_edges not in equivalence_partition(g).classes:
        raise DomainError("F must be a class of the graph")
    tight = is_tight_cut(g, cut)
    if not tight and not is_separating_cut(g, cut):
        raise DomainError("class restriction needs a separating cut")
    edges = frozenset(e for e in f_edges if kept & {*g.endpoints(e)})
    if not edges:
        return ClassRestriction(edges, "empty")
    return ClassRestriction(edges, "equals_class" if tight else "subset_of_class")
