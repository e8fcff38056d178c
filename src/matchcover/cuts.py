"""Tight and separating cuts, cut discovery, the two decompositions,
brick/brace classification, and the epsilon upper-bound checks.

Cut discovery is one lazy stream of verified cuts: cheap complete
phases first (barrier cuts, cuts from 2-vertex separations), then, only
when both are empty, an exact leaf certificate.  The 2-vertex
separations come from the articulation points of each g - u, one
depth-first search per vertex (Hopcroft-Tarjan), run only as the stream
is read, so the first-cut search stops at its first tight 2-separation
cut.  A bipartite graph yields no barrier cut: its maximal barriers are
its colour classes, and deleting one leaves single vertices.  It is
a brace when its matching digraph D(g, M) minus any one node stays
strongly connected (n/2 pairs of reach passes, no search).  Any other
bipartite graph is certified by the ordered brace scan, so the first
cut does not depend on the digraph: the first failing 4-tuple deletion
yields a Hall-type set S with |N(S)| = |S| + 1 whose closed
neighborhood is a verified tight shore.  The 4-tuples are settled by one
re-augmentation and one failed search of the matching engine per
deleted triple, not one matchability query each, and S is the outer
labels of one more failed search on that same matching.  Both passes
list what the plain pair and 4-tuple scans list, in the same order.
Nonbipartite graphs are certified by the brick test: 3-connected and
bicritical, where bicriticality is read off the memoized canonical
partition (all parts singletons).  A raw exhaustive odd-shore scan
stays available as the cross-check authority; the certified search
never falls back to it.  Tightness is refuted first by the perfect
matchings already in hand, a memoized list per graph that every query
which finds a matching extends, so most shores of the scan ask no
query.  The first tight cut (read lazily), the whole candidate list,
each decomposition leaf's canonical form and the default
decomposition are memoized per graph, and a cut's contractions and
tightness per ``Cut``, so cut-choice strategies that pick the same
candidate share the whole subtree below it.  A leaf's form is that of
its underlying simple graph, so a C4 leaf (up to multiplicity) runs no
search: it gets the form of C4, taken once at import.

Removability is read off the memoized decomposition.  A class R of g
meets each leaf L in nothing or in a class of L, and g - R is matching
covered iff L - (R & E(L)) is for every leaf L that R meets.  Only
bricks and order-4 leaves need a test: every edge of a brace on six or
more vertices is removable (Carvalho, Lucchesi and Murty 1999).  A
brick leaf asks the growing-table test ``_removability`` of its own
engine and pool; a C4 leaf (up to multiplicity) keeps R exactly when
each of its four sides keeps an edge.  No graph L - R is built.
"""

from __future__ import annotations

import dataclasses
import random
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterator, Optional

from .dependence import _check_ids, epsilon, equivalence_partition
from .errors import CapabilityError, DomainError, VerificationError
from .matching import (
    _augment,
    _engine,
    _pm_minus,
    _require_mc,
    _signatures,
    _strongly_connected,
    is_matching_covered,
)
from .multigraph import CanonicalForm, Cut, MultiGraph, _memoized, canonical_form
from .structure import canonical_partition, even_2cuts, is_bicritical, vertex_connectivity

EXHAUSTIVE_LIMIT = 24


def _as_cut(g: MultiGraph, c: Cut | frozenset[int] | set[int]) -> Cut:
    if isinstance(c, Cut):
        return c if c.graph is g else g.cut(c.shore)
    return g.cut(c)


def contractions(g: MultiGraph, c: Cut | frozenset[int]) -> tuple[MultiGraph, MultiGraph]:
    """The two C-contractions (G1 keeps the shore, G2 keeps the complement),
    built once per ``Cut``.  Cut-edge ids survive into both; each
    contraction vertex gets a fresh id."""
    return _contractions(_as_cut(g, c))


@_memoized
def _contractions(cut: Cut) -> tuple[MultiGraph, MultiGraph]:
    return cut.graph.contract(cut.other_shore)[0], cut.graph.contract(cut.shore)[0]


def is_tight_cut(g: MultiGraph, c: Cut | frozenset[int]) -> bool:
    """Does every perfect matching meet the cut in exactly one edge?

    Only odd cuts can be tight.  A perfect matching meets an odd cut
    oddly, so one holding two cut edges holds three, two of them below
    the largest: pairs of the others decide it, O(|C|^2) queries once per
    ``Cut``.  Each graph keeps a list of the perfect matchings found so
    far (``_known_pms``), and any one with two pairs across the shore
    refutes the cut with no query; a query that finds a matching adds it.
    """
    return _is_tight(_as_cut(g, c))


@_memoized
def _known_pms(g: MultiGraph) -> list[list[int]]:
    # Perfect matchings of g as mate lists over the engine's indices,
    # starting with the engine's own when it is perfect.  Tightness
    # queries append to it; it only ever holds perfect matchings of g,
    # so no verdict depends on the order of the queries.
    cached = _engine(g)
    return [] if -1 in cached else [list(cached)]


@_memoized
def _is_tight(cut: Cut) -> bool:
    if not cut.is_odd:
        return False
    g = cut.graph
    index = g._adjacency()[0]
    shore = {index[v] for v in cut.shore}
    known = _known_pms(g)
    for match in known:
        crossed = 0
        for i in shore:
            if match[i] not in shore:
                crossed += 1
                if crossed == 2:
                    return False
    edges = sorted(cut.edges)
    ends = {e: g.endpoints(e) for e in edges}
    for e1, e2 in combinations(edges[:-1], 2):
        gone = frozenset((*ends[e1], *ends[e2]))
        if len(gone) < 4:
            continue
        match = _pm_minus(g, gone)
        if match is not None:
            for u, w in (ends[e1], ends[e2]):
                i, j = index[u], index[w]
                match[i], match[j] = j, i
            known.append(match)
            return False
    return True


def is_separating_cut(g: MultiGraph, c: Cut | frozenset[int]) -> bool:
    """Are both C-contractions matching covered?"""
    g1, g2 = contractions(g, c)
    return is_matching_covered(g1) and is_matching_covered(g2)


def barrier_cuts(g: MultiGraph) -> list[Cut]:
    """Nontrivial cuts around components of g - B, for each nontrivial
    maximal barrier B of the canonical partition (a cut seen from two
    barriers is listed twice; the cut search skips repeats)."""
    out: list[Cut] = []
    for part in canonical_partition(g):
        if len(part) < 2:
            continue
        for comp in g.components(part):
            cut = g.cut(comp)
            if not cut.is_trivial:
                out.append(cut)
    return out


def _articulation_points(
    adj: tuple[tuple[int, ...], ...], skip: int
) -> tuple[int, list[bool]]:
    # Hopcroft-Tarjan (1973) on the index adjacency minus vertex `skip`:
    # one iterative depth-first search with low points.  Returns how
    # many vertices it reached and which of them are articulation points.
    n = len(adj)
    order = [0] * n  # discovery number from 1; 0 = not reached yet
    low = [0] * n
    cut = [False] * n
    order[skip] = -1  # never entered and never a back-edge target
    root = 1 if skip == 0 else 0
    order[root] = low[root] = reached = 1
    root_children = 0
    stack = [(root, iter(adj[root]))]
    while stack:
        v, rest = stack[-1]
        for w in rest:
            if order[w] == 0:
                reached += 1
                order[w] = low[w] = reached
                stack.append((w, iter(adj[w])))
                break
            if 0 < order[w] < low[v]:
                low[v] = order[w]
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if parent == root:
                    root_children += 1
                elif low[v] >= order[parent]:
                    cut[parent] = True
    cut[root] = root_children > 1
    return reached, cut


def _two_separation_candidates(g: MultiGraph) -> Iterator[Cut]:
    # For every 2-vertex cut {u, v} and component K of g - u - v, the
    # shores K, K+u, K+v, K+uv are the only ways a tight cut can hug the
    # separation; each odd nontrivial one is offered for verification.
    # {u, v} is a 2-vertex cut exactly when v is an articulation point of
    # g - u, so one depth-first search per u finds the pairs, and
    # `components` runs only on them, in the order of the pair scan.
    # Lazy: the search for u runs only once the candidates of every
    # earlier vertex have been read, so a reader that stops at the first
    # tight cut scans no further, and a disconnected g - u raises
    # VerificationError only when u is reached.
    seen: set[frozenset[int]] = set()
    n = g.n
    verts = g.vertices
    adj = g._adjacency()[1]
    for i, u in enumerate(verts):
        reached, cut_vertex = _articulation_points(adj, i)
        if reached != n - 1:
            # A matching covered graph of order >= 4 is 2-connected.
            raise VerificationError(
                "two-separations", f"g - {u} is disconnected, so g is not 2-connected"
            )
        for j in range(i + 1, n):
            if not cut_vertex[j]:
                continue
            v = verts[j]
            for comp in g.components((u, v)):
                for extra in ((), (u,), (v,), (u, v)):
                    shore = comp | frozenset(extra)
                    size = len(shore)
                    if size % 2 == 0 or size < 3 or n - size < 3:
                        continue
                    if shore in seen:
                        continue
                    seen.add(shore)
                    yield g.cut(shore)


def _brace_obstruction(
    g: MultiGraph, parts: tuple[frozenset[int], frozenset[int]]
) -> Optional[tuple[tuple[int, int, int, int], frozenset[int]]]:
    # A bipartite matching covered graph of order >= 6 is a brace iff deleting
    # any two vertices per side leaves a matchable graph; the first failing
    # 4-tuple (a1 < a2, b1 < b2, in that order) is returned with its Hall set
    # S.  For each (a1, a2, b1), the cached perfect matching minus the three
    # deleted vertices, re-augmented from the mate of b1, leaves one exposed
    # B-vertex w in g - a1 - a2 - b1.  Deleting b2 as well is then matchable
    # exactly when an even alternating path runs from w to b2 (Dulmage-
    # Mendelsohn), so one failed search from w marks every b2.  At a failing b2
    # the matching minus b2's edge is maximum in h = g - a1 - a2 - b1 - b2, and
    # the A-vertices that a failed search from b2's mate labels outer are the A
    # side of the Gallai-Edmonds set D(h): |N_h(S)| = |S| - 1.
    index, adj = g._adjacency()
    cached = _engine(g)
    verts = g.vertices
    a_side = sorted(index[a] for a in parts[0])
    b_side = sorted(index[b] for b in parts[1])
    for a1, a2 in combinations(a_side, 2):
        for k, b1 in enumerate(b_side[:-1]):
            dead = (a1, a2, b1)
            match = list(cached)
            for v in dead:
                match[v] = match[cached[v]] = -1
            z = cached[b1]
            if z != a1 and z != a2 and _augment(adj, match, z, dead) is not None:
                # g - a2 - b1 has a perfect matching, since g is bipartite
                # and matching covered, so some matching of h covers z.
                raise VerificationError(
                    "brace-test",
                    f"no augmenting path from {verts[z]} in g - "
                    f"{verts[a1]} - {verts[a2]} - {verts[b1]}",
                )
            w = next(b for b in (cached[a1], cached[a2]) if b != b1 and match[b] == -1)
            reached = _augment(adj, match, w, dead)
            for b2 in b_side[k + 1:]:
                if reached is None or not reached[b2]:
                    m = match[b2]
                    match[b2] = match[m] = -1
                    hall = _augment(adj, match, m, dead + (b2,))
                    # Only w is exposed outside `dead` in either search, so
                    # an augmentation is an engine fault: refuse, not guess.
                    if reached is None or hall is None:
                        raise VerificationError("brace-test", f"{verts[w]} is on an augmenting path")
                    s = frozenset(verts[a] for a in a_side if hall[a])
                    return (verts[a1], verts[a2], verts[b1], verts[b2]), s
    return None


def _is_brace(g: MultiGraph, parts: tuple[frozenset[int], frozenset[int]]) -> bool:
    # A bipartite matching covered graph of order >= 6 is a brace iff it
    # is 2-extendable, that is iff D(g, M) - x is strongly connected for
    # every node x, with M the engine's matching: n/2 pairs of reach
    # passes, each from another A-vertex than x.
    index = g._adjacency()[0]
    cached = _engine(g)
    a_side = sorted(index[a] for a in parts[0])
    return len(a_side) >= 3 and all(
        _strongly_connected(g, cached, a_side[x == a_side[0]], skip=x) for x in a_side
    )


def _bipartite_tight_cut(
    g: MultiGraph, parts: tuple[frozenset[int], frozenset[int]]
) -> Optional[Cut]:
    # Only a graph that is not a brace pays for the ordered scan, which
    # finds the first obstruction.
    if _is_brace(g, parts):
        return None
    obstruction = _brace_obstruction(g, parts)
    if obstruction is None:
        # 2-extendability: the digraph and the ordered scan must agree.
        raise VerificationError("brace-test", "D(g, M) finds no brace, yet no 4-tuple fails")
    _, s = obstruction
    nbhd: set[int] = set()
    for a in s:
        nbhd.update(g.neighbors(a))
    # For a matching covered graph |N(S)| = |S| + 1 here, so every
    # perfect matching sends exactly one edge out of S + N(S).
    cut = g.cut(s | nbhd)
    if len(nbhd) != len(s) + 1 or cut.is_trivial or not is_tight_cut(g, cut):
        raise VerificationError(
            "bipartite-tight-cut",
            f"certificate from S={sorted(s)} failed verification",
        )
    return cut


def _brick_certificate(g: MultiGraph) -> bool:
    # Edmonds-Lovasz-Pulleyblank (1982): a brick is 3-connected and
    # bicritical.
    return vertex_connectivity(g) >= 3 and is_bicritical(g)


def _odd_nontrivial_shores(g: MultiGraph, refusal: str) -> Iterator[frozenset[int]]:
    # Each cut appears once: enumerate only shores holding the minimum vertex.
    if g.n > EXHAUSTIVE_LIMIT:
        raise CapabilityError(
            f"{refusal} limited to {EXHAUSTIVE_LIMIT} vertices, got {g.n} "
            f"(cuts.EXHAUSTIVE_LIMIT)"
        )
    verts = g.vertices
    v0, rest = verts[0], verts[1:]
    for size in range(3, g.n - 2, 2):
        for combo in combinations(rest, size - 1):
            yield frozenset((v0,) + combo)


def exhaustive_nontrivial_tight_cut(g: MultiGraph) -> Optional[Cut]:
    """First nontrivial tight cut by raw odd-shore enumeration; the
    cross-check authority for the certified search.  Past
    ``EXHAUSTIVE_LIMIT`` vertices (read at call time) it raises
    ``CapabilityError``."""
    refusal = "exhaustive tight-cut search: tightness undecided,"
    for shore in _odd_nontrivial_shores(g, refusal):
        cut = g.cut(shore)
        if is_tight_cut(g, cut):
            return cut
    return None


def _tight_cuts(g: MultiGraph) -> Iterator[Cut]:
    # The one cut search.  Each phase runs only when the stream is read
    # past the cuts of the one before, so a caller that takes the first
    # barrier cut never pays for the 2-separation scan.
    _require_mc(g, "tight cut search")
    if g.n < 6:
        return
    seen: set[Cut] = set()
    found = False
    for phase in (barrier_cuts, _two_separation_candidates):
        for cut in phase(g):
            if cut not in seen:
                seen.add(cut)
                if is_tight_cut(g, cut):
                    found = True
                    yield cut
                elif phase is barrier_cuts:
                    # Around each odd component of g - B, for a barrier B of
                    # a matching covered graph, the cut is tight.
                    raise VerificationError(
                        "barrier-cuts", f"the cut around {sorted(cut.shore)} is not tight"
                    )
    if found:
        return
    parts = g.bipartition()
    if parts is not None:
        cut = _bipartite_tight_cut(g, parts)
        if cut is not None:
            yield cut
    elif not _brick_certificate(g):
        # A nonbipartite matching covered graph with no barrier cut and
        # no 2-separation cut is a brick, so reaching this line means an
        # engine inconsistency.
        raise VerificationError(
            "tight-cut-phases",
            "no barrier or 2-separation cut, yet not 3-connected and bicritical",
        )


@_memoized
def find_nontrivial_tight_cut(g: MultiGraph) -> Optional[Cut]:
    """A verified nontrivial tight cut, or None when provably none
    exists; computed once per graph."""
    return next(_tight_cuts(g), None)


@_memoized
def _candidates(g: MultiGraph) -> tuple[Cut, ...]:
    # The stream's first cut equals the memoized first-cut answer; that
    # object heads the tuple, so its contractions and leaf forms are shared.
    cuts = tuple(_tight_cuts(g))
    return (find_nontrivial_tight_cut(g), *cuts[1:]) if cuts else ()


def tight_cut_candidates(g: MultiGraph) -> list[Cut]:
    """All verified cuts the polynomial phases can see (used by the
    cut-choice strategies); falls back to the certified tail when the
    phases are empty.  The stream is read once per graph, so every
    strategy gets the same ``Cut`` objects; the list is the caller's own."""
    return list(_candidates(g))


def make_chooser(strategy: str = "first") -> Callable[[MultiGraph], Optional[Cut]]:
    """Cut-choice strategies: "first", "reverse", "random" (seed 0) or
    "random:<seed>"."""
    if strategy == "first":
        return find_nontrivial_tight_cut
    kind, colon, seed_text = strategy.partition(":")
    if strategy == "reverse":
        pick = itemgetter(-1)
    elif kind == "random":
        try:
            seed = int(seed_text) if colon else 0
        except ValueError:
            raise DomainError(f"strategy seed must be an integer: {strategy!r}") from None
        pick = random.Random(seed).choice
    else:
        raise DomainError(f"unknown cut-choice strategy {strategy!r}")

    def choose(g: MultiGraph) -> Optional[Cut]:
        cands = tight_cut_candidates(g)
        return pick(cands) if cands else None
    return choose


# -- decompositions ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SplitRecord:
    shore: tuple[int, ...]
    other_shore: tuple[int, ...]
    edges: tuple[int, ...]
    kind: str  # "tight" | "separating"


@dataclasses.dataclass(frozen=True)
class DecompositionResult:
    """Leaves tagged brick/brace, the splits that produced them, and the
    brick / C4-brace counts."""

    leaves: tuple[tuple[MultiGraph, str], ...]
    splits: tuple[SplitRecord, ...]
    b: int
    c4: int

    @cached_property
    def leaf_forms(self) -> tuple[CanonicalForm, ...]:
        """Sorted canonical forms of the leaves, computed on first use and
        once per leaf graph (``_leaf_form``)."""
        forms = (_leaf_form(h) for h, _ in self.leaves)
        return tuple(sorted(forms, key=lambda cf: (cf.n, cf.encoding)))


@_memoized
def _leaf_form(h: MultiGraph) -> CanonicalForm:
    # Uniqueness of the decomposition holds mod parallel edges, so a
    # leaf's form is taken of its underlying simple graph.  That graph
    # of a C4 leaf is C4, whose form is taken once, at import.
    if _is_c4_up_to_multiplicity(h):
        return _C4_FORM
    return canonical_form(h.underlying_simple())


def _is_c4_up_to_multiplicity(g: MultiGraph) -> bool:
    # Up to multiplicity: the adjacency rows count distinct neighbours.
    return g.n == 4 and all(len(row) == 2 for row in g._adjacency()[1]) and g.is_connected


_C4_FORM = canonical_form(MultiGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))


def _decompose(
    g: MultiGraph, choose: Callable[[MultiGraph], Optional[Cut]], kind: str
) -> DecompositionResult:
    leaves: list[tuple[MultiGraph, str]] = []
    splits: list[SplitRecord] = []

    def run(h: MultiGraph) -> None:
        cut = choose(h)
        if cut is None:
            leaves.append((h, "brace" if h.is_bipartite else "brick"))
            return
        splits.append(
            SplitRecord(
                tuple(sorted(cut.shore)),
                tuple(sorted(cut.other_shore)),
                tuple(sorted(cut.edges)),
                kind,
            )
        )
        g1, g2 = contractions(h, cut)
        run(g1)
        run(g2)

    run(g)
    b = sum(1 for _, tag in leaves if tag == "brick")
    c4 = sum(
        1 for h, tag in leaves if tag == "brace" and _is_c4_up_to_multiplicity(h)
    )
    return DecompositionResult(tuple(leaves), tuple(splits), b, c4)


def tight_cut_decomposition(
    g: MultiGraph,
    chooser: Callable[[MultiGraph], Optional[Cut]] | None = None,
) -> DecompositionResult:
    """Split recursively along nontrivial tight cuts until every leaf is
    a brick or brace.  The leaf multiset is independent of the chooser;
    the splits themselves are not.  With the default chooser the result
    is computed once per graph."""
    _require_mc(g, "tight cut decomposition")
    if chooser is None:
        return _first_cut_decomposition(g)
    return _decompose(g, chooser, "tight")


@_memoized
def _first_cut_decomposition(g: MultiGraph) -> DecompositionResult:
    return _decompose(g, find_nontrivial_tight_cut, "tight")


def nontrivial_separating_cut(g: MultiGraph) -> Optional[Cut]:
    """Some nontrivial separating cut, or None when none exists.

    Tight cuts are separating, so the cheap search runs first.  A
    bipartite graph without a nontrivial tight cut has no nontrivial
    separating cut either (both contractions of a separating cut stay
    bipartite, which forces every cut edge to leave the same color
    class, so every perfect matching crosses exactly once).  For bricks
    the odd shores are scanned exhaustively, which past
    ``EXHAUSTIVE_LIMIT`` vertices raises ``CapabilityError``.
    """
    cut = find_nontrivial_tight_cut(g)
    if cut is not None:
        return cut
    if g.is_bipartite:
        return None
    for shore in _odd_nontrivial_shores(g, "separating cut search: odd-shore scan"):
        cand = g.cut(shore)
        if is_separating_cut(g, cand):
            return cand
    return None


def separating_cut_decomposition(g: MultiGraph) -> DecompositionResult:
    """Split recursively along nontrivial separating cuts; leaves are
    braces and solid bricks.  The leaf list is legitimately not unique,
    so the applied cut sequence is part of the result."""
    _require_mc(g, "separating cut decomposition")
    return _decompose(g, nontrivial_separating_cut, "separating")


# -- removability ------------------------------------------------------------


def _require_removability(g: MultiGraph) -> None:
    if g.n == 2:
        raise DomainError("edge removability is undefined on a graph of order 2")
    _require_mc(g, "removability")


def _removability(g: MultiGraph) -> Callable[[frozenset[int]], bool]:
    """The test "is g - r matching covered?" for r one edge or one class
    of g, asked of the brick leaves of a decomposition.

    Every query is asked of g's own engine, as a perfect matching of g
    minus vertices and the edges of r (``_pm_minus``); no graph g - r is
    built.  g - r must be connected and every edge f outside r must lie
    in a perfect matching of g - r.  The edges of a class are mutually
    dependent, so a perfect matching that avoids ``e = min(r)`` avoids
    all of r.  A table of witness signatures, copied from g's pool,
    settles every f that some table matching holds without e; each open
    f is asked as ``_pm_minus(g, ends(f), r)``, and the matching that
    answers joins the table, so it can settle the candidates of later
    calls too.  Only a larger class needs a connectivity pass,
    ``g.components(without=r)``: a matching covered graph of order >= 4
    is 2-connected.  The table lives as long as the returned test, not
    in g's memo.
    """
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


def _leaf_removability(h: MultiGraph, tag: str) -> Callable[[frozenset[int]], bool]:
    # The test "is h - r matching covered?" for r a class of the leaf h.
    if tag == "brick":
        return _removability(h)
    if h.n == 4:
        # C4 up to multiplicity: h - r is matching covered exactly when
        # each of the four sides keeps an edge; with a side gone, the
        # path left has a middle edge in no perfect matching.
        return lambda r: all(len(row) == 2 for row in h._adjacency_minus(r))

    def brace(r: frozenset[int]) -> bool:
        # Every edge of a brace of order >= 6 is removable, so each of
        # its classes is a single edge (Carvalho-Lucchesi-Murty 1999).
        if len(r) > 1:
            raise VerificationError(
                "removability", f"edges {sorted(r)} form a class of a brace on {h.n} vertices"
            )
        return True

    return brace


@_memoized
def _removable_classes(g: MultiGraph) -> tuple[frozenset[int], ...]:
    # A class R of g meets each leaf L of the tight cut decomposition in
    # nothing or in a class of L (restriction across a tight cut, as in
    # ``splicing.restrict_class``), and g - R is matching covered iff
    # L - (R & E(L)) is for every leaf L that R meets: a perfect matching
    # of g is one of each contraction, the two agreeing on the cut edge.
    # Leaves keep g's edge ids, so R & E(L) is a plain intersection.
    leaves = tight_cut_decomposition(g).leaves
    tests = [_leaf_removability(h, tag) for h, tag in leaves]
    owner: dict[int, list[int]] = {}
    for i, (h, _) in enumerate(leaves):
        for e in h.edge_ids:
            owner.setdefault(e, []).append(i)

    def removable(c: frozenset[int]) -> bool:
        parts: dict[int, set[int]] = {}
        for e in sorted(c):
            for i in owner[e]:
                parts.setdefault(i, set()).add(e)
        return all(tests[i](frozenset(r)) for i, r in parts.items())

    return tuple(c for c in equivalence_partition(g).classes if removable(c))


def is_removable_edge(g: MultiGraph, e: int) -> bool:
    """Is g - e still matching covered?  Exactly when {e} is a removable
    class (an edge of a larger class is never removable)."""
    _require_removability(g)
    _check_ids(g, e)
    return frozenset((e,)) in _removable_classes(g)


def removable_edges(g: MultiGraph) -> tuple[int, ...]:
    """The removable edges, in id order: the members of the removable
    singleton classes (an edge of a larger class is never removable)."""
    _require_removability(g)
    return tuple(min(c) for c in _removable_classes(g) if len(c) == 1)


def removable_classes(g: MultiGraph) -> tuple[frozenset[int], ...]:
    """The classes R of the partition for which g - R is matching covered."""
    _require_removability(g)
    return _removable_classes(g)


# -- classification ----------------------------------------------------------


def classify(g: MultiGraph) -> str:
    """"brick" (nonbipartite, no nontrivial tight cut), "brace"
    (bipartite, same), or "neither"."""
    cut = find_nontrivial_tight_cut(g)
    if cut is not None:
        return "neither"
    return "brace" if g.is_bipartite else "brick"


def is_solid_brick(g: MultiGraph) -> bool:
    """A brick devoid of nontrivial separating cuts (exhaustive check)."""
    if classify(g) != "brick":
        return False
    return nontrivial_separating_cut(g) is None


# -- bounds ------------------------------------------------------------------


def verify_bounds(g: MultiGraph) -> dict:
    """epsilon against the decomposition counts: the bipartite bound
    epsilon <= 1 + c4, the general bound epsilon <= 2b + c4, and the
    even-2-cut-free strengthening epsilon <= 2b."""
    _require_mc(g, "bound verification")
    eps = epsilon(g)
    decomposition = tight_cut_decomposition(g)
    bip = g.is_bipartite
    free_of_even_2cuts = not even_2cuts(g)
    b, c4 = decomposition.b, decomposition.c4
    return {
        "epsilon": eps,
        "b": b,
        "c4": c4,
        "bipartite": bip,
        "evenTwoCutFree": free_of_even_2cuts,
        "bipartiteBoundHolds": (eps <= 1 + c4) if bip else None,
        "bipartiteBoundTight": (eps == 1 + c4) if bip else None,
        "nonbipartiteBoundHolds": (eps <= 2 * b + c4) if not bip else None,
        "evenTwoCutFreeBoundHolds": (
            (eps <= 2 * b) if (not bip and free_of_even_2cuts) else None
        ),
    }
