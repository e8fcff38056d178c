"""Brute-force answers for small graphs, by full enumeration.

Independent of matchcover: it reads the graph text itself and shares no
code with the engines it checks. Used only at n <= ORACLE_LIMIT.
"""

from __future__ import annotations

from itertools import combinations

ORACLE_LIMIT = 12


def parse(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) from the p/e text form; edge i + 1 is edges[i]."""
    n = 0
    edges: list[tuple[int, int]] = []
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "p":
            n = int(fields[1])
        elif fields and fields[0] == "e":
            edges.append((int(fields[1]), int(fields[2])))
    return n, edges


def _matchings(n: int, edges: list[tuple[int, int]], removed: frozenset[int]):
    """Yield every perfect matching of G - removed as a tuple of edge ids."""
    inc: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, n + 1)}
    for e, (u, v) in enumerate(edges, start=1):
        inc[u].append((e, v))
        inc[v].append((e, u))
    covered = set(removed)
    picked: list[int] = []

    def extend():
        free = [v for v in range(1, n + 1) if v not in covered]
        if not free:
            yield tuple(picked)
            return
        u = free[0]
        covered.add(u)
        for e, w in inc[u]:
            if w not in covered:
                covered.add(w)
                picked.append(e)
                yield from extend()
                picked.pop()
                covered.discard(w)
        covered.discard(u)

    yield from extend()


def _groups(items, same) -> list[list[int]]:
    """Classes of the relation ``same`` closed transitively, sorted by min."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in combinations(items, 2):
        if same(a, b):
            parent[find(b)] = find(a)
    out: dict[int, list[int]] = {}
    for x in items:
        out.setdefault(find(x), []).append(x)
    return sorted((sorted(c) for c in out.values()), key=min)


def answers(text: str) -> dict:
    """Equivalence classes, epsilon and canonical partition, in the
    shape of the ``analyze --json`` report."""
    n, edges = parse(text)
    pms = [frozenset(pm) for pm in _matchings(n, edges, frozenset())]
    ids = list(range(1, len(edges) + 1))
    incidence = {e: frozenset(i for i, pm in enumerate(pms) if e in pm) for e in ids}
    classes = _groups(ids, lambda e, f: incidence[e] == incidence[f])

    def unmatchable(u: int, v: int) -> bool:
        return next(_matchings(n, edges, frozenset((u, v))), None) is None

    return {
        "equivalenceClasses": classes,
        "epsilon": max(len(c) for c in classes),
        "canonicalPartition": _groups(list(range(1, n + 1)), unmatchable),
    }


def is_bipartite(n: int, edges: list[tuple[int, int]]) -> bool:
    colour: dict[int, int] = {}
    nbrs: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    for root in range(1, n + 1):
        if root in colour:
            continue
        colour[root] = 0
        todo = [root]
        while todo:
            u = todo.pop()
            for w in nbrs[u]:
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    todo.append(w)
                elif colour[w] == colour[u]:
                    return False
    return True


def is_barrier(n: int, edges: list[tuple[int, int]], part) -> bool:
    """Does G - part have exactly |part| odd components?"""
    gone = set(part)
    nbrs: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen: set[int] = set()
    odd = 0
    for root in range(1, n + 1):
        if root in gone or root in seen:
            continue
        seen.add(root)
        size, todo = 0, [root]
        while todo:
            u = todo.pop()
            size += 1
            for w in nbrs[u]:
                if w not in gone and w not in seen:
                    seen.add(w)
                    todo.append(w)
        odd += size % 2
    return odd == len(gone)
