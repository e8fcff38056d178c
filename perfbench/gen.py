"""Seeded input graphs for the benchmark.

Everything here is plain Python on edge lists: no matchcover import, so
generating the inputs never runs the engines the benchmark measures.
A graph is ``(n, edges)`` with vertices 1..n and edge ids 1..m in list
order, which is exactly how ``parse_graph`` numbers the text form.
"""

from __future__ import annotations

import random

Graph = tuple[int, list[tuple[int, int]]]

PIECES: dict[str, Graph] = {
    "K4": (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    "prism3": (6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]),
    # hub 1, rim 2..6
    "W5": (6, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
               (2, 3), (3, 4), (4, 5), (5, 6), (2, 6)]),
    "petersen": (10, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
                      (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
                      (6, 8), (8, 10), (7, 10), (7, 9), (6, 9)]),
}


def to_text(g: Graph) -> str:
    """The ``p``/``e`` text form, smaller endpoint first."""
    n, edges = g
    lines = [f"p {n} {len(edges)}"]
    lines += [f"e {min(u, v)} {max(u, v)}" for u, v in edges]
    return "\n".join(lines) + "\n"


def bipartite_mc(rng: random.Random, n: int, chords: int, min_degree: int = 2) -> Graph:
    """A Hamiltonian cycle on n (even) vertices plus ``chords`` distinct
    chords between opposite colours, drawn again until every vertex has
    at least ``min_degree`` edges.

    Matching covered by construction: a chord at odd cycle distance
    leaves two paths of even order, each with a perfect matching, and
    every cycle edge lies in one of the cycle's two perfect matchings.
    """
    while True:
        order = list(range(1, n + 1))
        rng.shuffle(order)
        edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
        seen = {frozenset(e) for e in edges}
        wanted = len(edges) + chords
        while len(edges) < wanted:
            i = rng.randrange(n)
            j = (i + 2 * rng.randrange(1, n // 2) + 1) % n  # odd distance
            pair = frozenset((order[i], order[j]))
            if pair not in seen:
                seen.add(pair)
                edges.append((order[i], order[j]))
        if min(_degree((n, edges), v) for v in range(1, n + 1)) >= min_degree:
            return n, edges


def _degree(g: Graph, v: int) -> int:
    return sum(v in e for e in g[1])


def splice(rng: random.Random, g1: Graph, v1: int, g2: Graph, v2: int) -> Graph:
    """Remove v1 and v2 and join their stars by a random bijection.
    g1 keeps its vertex numbers below v1; the rest are renumbered."""
    n1, e1 = g1
    n2, e2 = g2
    left = [v for v in range(1, n1 + 1) if v != v1]
    right = [v for v in range(1, n2 + 1) if v != v2]
    new1 = {v: i for i, v in enumerate(left, start=1)}
    new2 = {v: i for i, v in enumerate(right, start=len(left) + 1)}
    edges = [(new1[u], new1[w]) for u, w in e1 if v1 not in (u, w)]
    edges += [(new2[u], new2[w]) for u, w in e2 if v2 not in (u, w)]
    ends1 = [w if u == v1 else u for u, w in e1 if v1 in (u, w)]
    ends2 = [w if u == v2 else u for u, w in e2 if v2 in (u, w)]
    rng.shuffle(ends2)
    edges += [(new1[a], new2[b]) for a, b in zip(ends1, ends2)]
    return len(left) + len(right), edges


def nonbipartite_mc(rng: random.Random, n_base: int, chords: int, pieces: list[str],
                    min_degree: int = 2) -> Graph:
    """A bipartite matching covered graph with each named piece spliced
    in at a random vertex of equal degree.  Splicing matching covered
    graphs keeps the result matching covered; every piece minus one
    vertex still has an odd cycle, so the result is not bipartite.  A
    base with no vertex of a fitting degree is drawn again."""
    while True:
        g = bipartite_mc(rng, n_base, chords, min_degree)
        for name in pieces:
            piece = PIECES[name]
            degrees = {v: _degree(piece, v) for v in range(1, piece[0] + 1)}
            fits = [v for v in range(1, g[0] + 1) if _degree(g, v) in degrees.values()]
            if not fits:
                break
            v1 = rng.choice(fits)
            v2 = rng.choice([v for v, d in degrees.items() if d == _degree(g, v1)])
            g = splice(rng, g, v1, piece, v2)
        else:
            return relabel(rng, g)


def relabel(rng: random.Random, g: Graph) -> Graph:
    """The same graph with shuffled vertex numbers and edge order."""
    n, edges = g
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = [(perm[u - 1], perm[v - 1]) for u, v in edges]
    rng.shuffle(out)
    return n, out
