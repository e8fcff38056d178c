"""Independent brute-force oracles for cross-checking the engines.

Everything here is deliberately naive: straight recursion and full
enumeration, no shared state with the library beyond the MultiGraph
accessors. Keep it that way.
"""

from __future__ import annotations

from itertools import combinations

from matchcover.multigraph import MultiGraph


def brute_max_matching(g: MultiGraph) -> int:
    """Maximum matching size by branch on the lowest uncovered vertex."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        adj[u].append((e, v))
        adj[v].append((e, u))

    order = list(g.vertices)

    def best(i: int, used: set[int]) -> int:
        while i < len(order) and order[i] in used:
            i += 1
        if i >= len(order):
            return 0
        u = order[i]
        # branch 1: u stays uncovered
        result = best(i + 1, used)
        # branch 2: match u along each incident edge
        used.add(u)
        for _, w in adj[u]:
            if w in used or w == u:
                continue
            used.add(w)
            result = max(result, 1 + best(i + 1, used))
            used.remove(w)
        used.remove(u)
        return result

    return best(0, set())


def all_pms(g: MultiGraph) -> list[frozenset[int]]:
    """All perfect matchings as edge-id sets, by recursion on the lowest
    uncovered vertex."""
    if g.n % 2:
        return []
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        if u == v:
            continue
        adj[u].append((e, v))
        adj[v].append((e, u))
    order = list(g.vertices)
    out: list[frozenset[int]] = []

    def extend(i: int, used: set[int], picked: list[int]) -> None:
        while i < len(order) and order[i] in used:
            i += 1
        if i >= len(order):
            out.append(frozenset(picked))
            return
        u = order[i]
        used.add(u)
        for e, w in adj[u]:
            if w in used:
                continue
            used.add(w)
            picked.append(e)
            extend(i + 1, used, picked)
            picked.pop()
            used.remove(w)
        used.remove(u)

    extend(0, set(), [])
    return out


def incidence_partition(g: MultiGraph) -> tuple[frozenset[int], ...]:
    """Mutual-dependence classes straight from the definition: group edges
    by the exact set of perfect matchings containing them."""
    pms = all_pms(g)
    groups: dict[frozenset[int], set[int]] = {}
    for e in g.edge_ids:
        key = frozenset(i for i, pm in enumerate(pms) if e in pm)
        groups.setdefault(key, set()).add(e)
    return tuple(sorted((frozenset(s) for s in groups.values()), key=min))


def direct_is_tight(g: MultiGraph, cut_edges: frozenset[int]) -> bool:
    """|M ∩ C| = 1 for every perfect matching, by full enumeration."""
    return all(len(pm & cut_edges) == 1 for pm in all_pms(g))


def direct_epsilon(g: MultiGraph) -> int:
    return max(len(c) for c in incidence_partition(g))


def odd_cuts_with_small_shore(g: MultiGraph, max_shore: int):
    """Every cut whose smaller side has odd size <= max_shore."""
    vertices = sorted(g.vertices)
    for k in range(1, max_shore + 1, 2):
        for shore in combinations(vertices, k):
            yield frozenset(shore), frozenset(
                e
                for e in g.edge_ids
                if len(set(g.endpoints(e)) & set(shore)) == 1
            )


def brute_vertex_connectivity(g: MultiGraph) -> int:
    """Size of the smallest vertex set S for which g - S is disconnected
    or has at most one vertex, by enumerating subsets by size."""
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        adj[u].add(v)
        adj[v].add(u)

    def separates(removed: frozenset[int]) -> bool:
        rest = [v for v in g.vertices if v not in removed]
        if len(rest) <= 1:
            return True
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            for w in adj[stack.pop()] - removed - seen:
                seen.add(w)
                stack.append(w)
        return len(seen) < len(rest)

    for k in range(g.n + 1):
        if any(separates(frozenset(s)) for s in combinations(g.vertices, k)):
            return k
    return g.n


def brute_matchable_minus(g: MultiGraph, removed) -> bool:
    """Does g minus the vertices `removed` have a perfect matching? By
    recursion on the lowest uncovered vertex."""
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        adj[u].add(v)
        adj[v].add(u)

    def perfect(left: frozenset[int]) -> bool:
        if not left:
            return True
        u = min(left)
        return any(perfect(left - {u, w}) for w in adj[u] & left)

    return perfect(frozenset(g.vertices) - frozenset(removed))


def brute_even_2cuts(g: MultiGraph) -> list:
    """Every 2-edge cut {e, f} with nonadjacent edges and two even
    shores, by deleting every edge pair; as the Cut of the shore holding
    the lower minimum vertex, ordered by the pair's edge ids."""
    out = []
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
    return out
