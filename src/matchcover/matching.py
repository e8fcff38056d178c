"""Maximum matching, matchability, and the matching-covered predicates.

Two engines sit behind every predicate:

* a memoized subset DP for graphs on at most 16 vertices (its table
  lives in the graph's per-graph memo, shared by all vertex-deletion
  queries against that graph);
* an augmenting-path maximum-matching search with blossom shrinking for
  anything larger.

Parallel edges are collapsed for the engines (a matching never needs two
parallel edges) and answers are lifted back to edge ids.  The simple
adjacency lists and the matching-covered verdict are memoized per graph
the same way.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Iterable

from .errors import CapabilityError, DomainError
from .multigraph import MultiGraph, _memoized

BITMASK_LIMIT = 16
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


@_memoized
def _simple_adjacency(g: MultiGraph) -> dict[int, tuple[int, ...]]:
    return {v: g.neighbors(v) for v in g.vertices}


# -- blossom engine ---------------------------------------------------------


def _blossom_match(n: int, adj: list[list[int]]) -> list[int]:
    """Maximum matching on a simple graph over vertices 0..n-1.

    Classic O(V^3) search: BFS an alternating tree from each exposed
    vertex, shrinking odd cycles (blossoms) via the `base` array.
    Returns the mate array (-1 for exposed vertices).
    """
    match = [-1] * n
    p = [-1] * n
    base = list(range(n))

    # Greedy seed matching: cheap, cuts the number of BFS phases.
    for v in range(n):
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v] = w
                    match[w] = v
                    break

    def lca(a: int, b: int, used_base: list[bool]) -> int:
        while True:
            a = base[a]
            used_base[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if used_base[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        used = [False] * n
        for i in range(n):
            p[i] = -1
            base[i] = i
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # Odd cycle: shrink the blossom rooted at the LCA.
                    used_base = [False] * n
                    curbase = lca(v, to, used_base)
                    blossom = [False] * n
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        # Augment along the tree path ending at `to`.
                        while to != -1:
                            prev = p[to]
                            after = match[prev]
                            match[prev] = to
                            match[to] = prev
                            to = after
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_path(v)
    return match


def maximum_matching(g: MultiGraph) -> frozenset[int]:
    """A maximum-cardinality matching, as a set of edge ids.

    The lowest edge id between each matched vertex pair represents the
    pair, so parallel edges never change the answer.
    """
    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    adj_map = _simple_adjacency(g)
    adj = [[index[w] for w in adj_map[v]] for v in verts]
    match = _blossom_match(g.n, adj)
    out = set()
    for i, j in enumerate(match):
        if j > i:
            out.add(min(g.edges_between(verts[i], verts[j])))
    return frozenset(out)


# -- matchability oracle ----------------------------------------------------


@_memoized
def _dp_state(g: MultiGraph) -> tuple[dict[int, int], list[int], dict[int, bool]]:
    index = {v: i for i, v in enumerate(g.vertices)}
    masks = [0] * g.n
    for v, nbrs in _simple_adjacency(g).items():
        for w in nbrs:
            masks[index[v]] |= 1 << index[w]
    return index, masks, {0: True}


def _matchable_mask(mask: int, masks: list[int], memo: dict[int, bool]) -> bool:
    cached = memo.get(mask)
    if cached is not None:
        return cached
    low = (mask & -mask).bit_length() - 1
    rest = mask & ~(1 << low)
    ok = False
    cand = masks[low] & rest
    while cand:
        j = cand & -cand
        if _matchable_mask(rest & ~j, masks, memo):
            ok = True
            break
        cand &= cand - 1
    memo[mask] = ok
    return ok


def matchable_minus(g: MultiGraph, removed: Iterable[int] = ()) -> bool:
    """Does ``g`` minus the given vertices have a perfect matching?"""
    gone = frozenset(removed)
    active_count = g.n - len(gone)
    if active_count % 2 == 1:
        return False
    if active_count == 0:
        return True
    if g.n <= BITMASK_LIMIT:
        index, masks, memo = _dp_state(g)
        mask = (1 << g.n) - 1
        for v in gone:
            mask &= ~(1 << index[v])
        return _matchable_mask(mask, masks, memo)
    verts = [v for v in g.vertices if v not in gone]
    index = {v: i for i, v in enumerate(verts)}
    adj_map = _simple_adjacency(g)
    adj = [[index[w] for w in adj_map[v] if w not in gone] for v in verts]
    match = _blossom_match(len(verts), adj)
    return -1 not in match


def is_matchable(g: MultiGraph) -> bool:
    return matchable_minus(g)


def has_pm_containing(g: MultiGraph, forced: Iterable[int]) -> bool:
    """Does some perfect matching contain every edge of ``forced``?

    False (not an error) when the forced edges are adjacent or when an
    id is not an edge of ``g``.
    """
    covered: set[int] = set()
    for e in forced:
        if not g.has_edge_id(e):
            return False
        u, v = g.endpoints(e)
        if u in covered or v in covered:
            return False
        covered.add(u)
        covered.add(v)
    return matchable_minus(g, covered)


def is_admissible(g: MultiGraph, e: int) -> bool:
    """Does ``e`` lie in some perfect matching?"""
    if not g.has_edge_id(e):
        raise DomainError(f"unknown edge id {e}")
    return has_pm_containing(g, (e,))


@_memoized
def is_matching_covered(g: MultiGraph) -> bool:
    """Connected, order >= 2, and every edge admissible."""
    return (
        g.n >= 2
        and g.n % 2 == 0
        and g.is_connected
        and all(has_pm_containing(g, (e,)) for e in g.edge_ids)
    )


# -- perfect matching enumeration -------------------------------------------


def enumerate_pms(g: MultiGraph, budget: int | None = None) -> list[frozenset[int]]:
    """All perfect matchings, as edge-id sets.

    Branch and bound on the lowest-id uncovered vertex; branches whose
    remainder is unmatchable are pruned, so the tree size is proportional
    to the output.  More than ``budget`` matchings aborts loudly.
    """
    limit = pm_budget() if budget is None else budget
    if g.n % 2 == 1:
        return []
    results: list[frozenset[int]] = []
    covered: set[int] = set()
    chosen: list[int] = []

    def recurse() -> None:
        if len(covered) == g.n:
            results.append(frozenset(chosen))
            if len(results) > limit:
                raise CapabilityError(
                    f"more than {limit} perfect matchings; raise the budget "
                    f"({BUDGET_ENV_VAR}) or use the polynomial predicates"
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

