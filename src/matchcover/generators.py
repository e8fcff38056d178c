"""Named example graphs and the high-connectivity / high-epsilon
construction.

The construction takes a simple (p+1)-connected brace H with a marked
vertex a on its A side and builds, through q-1 tight splices, a simple
matching covered graph whose vertex connectivity is at least p and
which carries an equivalence class {f0, ..., f_{q-1}} of size q.

Shape of the base graph G0: q disjoint copies (H_j[A_j, B_j], a_j),
plus p "rung" edges C_j from a_j into B_{j+1} for each j < q, plus the
closing edge f0 from a_q into B_1.  Each splice block J_i is another
copy of H with p rungs C'_i from u_i into U_i - u_i and one edge f_i
inside V_i; splicing G_{i-1} at a_i with J_i at u_i (rungs onto rungs)
gives G_i.  Because the splice keeps all ids of its first argument,
every designated edge id stays valid in all later stages.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Callable, Mapping, Optional

from .cuts import classify, exhaustive_nontrivial_tight_cut, is_tight_cut
from .dependence import is_equivalence_class
from .errors import CapabilityError, DomainError, MatchcoverError, VerificationError
from .matching import _pm_minus, is_matching_covered, maximum_matching
from .multigraph import Cut, MultiGraph
from .splicing import SpliceSpec, splice
from .structure import is_barrier, vertex_connectivity

# Shore of the splicing cut each figure graph is drawn with.
MARKED_CUT_SHORES = {
    "c6bar": frozenset({1, 2, 3}),
    "fig2b": frozenset({1, 2, 3}),
    "fig2c": frozenset({6, 7, 8}),
}


def labeled_edge(g: MultiGraph, label: str) -> int:
    """Edge id carrying the given label."""
    for e in sorted(g.edge_labels):
        if g.edge_labels[e] == label:
            return e
    raise DomainError(f"no edge labeled {label!r}")


def _cycle(n: int) -> MultiGraph:
    return MultiGraph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def _complete(n: int) -> MultiGraph:
    return MultiGraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def _complete_bipartite(a: int, b: int) -> MultiGraph:
    return MultiGraph(
        a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)]
    )


def _prism(n: int) -> MultiGraph:
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    edges += [(n + i, n + i % n + 1) for i in range(1, n + 1)]
    edges += [(i, n + i) for i in range(1, n + 1)]
    return MultiGraph(2 * n, edges)


def _wheel(n: int) -> MultiGraph:
    edges = [(1, i) for i in range(2, n + 2)]
    edges += [(i, i + 1) for i in range(2, n + 1)]
    edges.append((n + 1, 2))
    return MultiGraph(n + 1, edges)


def _petersen() -> MultiGraph:
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    edges += [(i, i + 5) for i in range(1, 6)]
    edges += [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return MultiGraph(10, edges)


def _c6bar() -> MultiGraph:
    # Two triangles {1,2,3} and {4,5,6} joined by a perfect matching;
    # the labels pair each top edge with its mutually dependent twin.
    edges = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]
    labels = {1: "f2", 2: "e2", 3: "g2", 4: "f1", 5: "e1", 6: "g1"}
    return MultiGraph(6, edges, edge_labels=labels)


def _fig2b() -> MultiGraph:
    # C6bar spliced with K4; cubic, 8 vertices; exactly one removable edge.
    edges = [
        (1, 2), (1, 3), (2, 3),
        (1, 4), (3, 5), (2, 8),
        (4, 5), (4, 7), (5, 6),
        (6, 7), (6, 8), (7, 8),
    ]
    labels = {1: "f2", 3: "e2", 11: "f1", 12: "e1"}
    return MultiGraph(8, edges, edge_labels=labels)


def _fig2c() -> MultiGraph:
    # K4 spliced with K3,3 along the tight cut around the triangle {6,7,8}.
    edges = [
        (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
        (4, 6), (3, 7), (5, 8),
        (6, 7), (6, 8), (7, 8),
    ]
    labels = {7: "e2", 8: "g2", 9: "f2", 10: "f1", 11: "g1", 12: "e1"}
    return MultiGraph(8, edges, edge_labels=labels)


def named_graph(name: str) -> MultiGraph:
    """Build a graph from its name.

    Accepted (case-insensitive): K<n>, K<m>,<n>, C<2n> (even cycles,
    order >= 4), C6bar, prism<n> (n-gonal prism, n >= 3), W<n> (wheel
    with hub vertex 1, n >= 3), petersen, fig2b, fig2c.
    """
    key = name.strip().lower()
    if key == "petersen":
        return _petersen()
    if key == "c6bar":
        return _c6bar()
    if key == "fig2b":
        return _fig2b()
    if key == "fig2c":
        return _fig2c()
    m = re.fullmatch(r"k(\d+),(\d+)", key)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        if a < 1 or b < 1:
            raise DomainError("complete bipartite sides must be positive")
        return _complete_bipartite(a, b)
    m = re.fullmatch(r"k(\d+)", key)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise DomainError("complete graph order must be at least 2")
        return _complete(n)
    m = re.fullmatch(r"c(\d+)", key)
    if m:
        n = int(m.group(1))
        if n < 4 or n % 2:
            raise DomainError("cycle order must be even and at least 4")
        return _cycle(n)
    m = re.fullmatch(r"prism(\d+)", key)
    if m:
        n = int(m.group(1))
        if n < 3:
            raise DomainError("prism needs at least a triangle")
        return _prism(n)
    m = re.fullmatch(r"w(\d+)", key)
    if m:
        n = int(m.group(1))
        if n < 3:
            raise DomainError("wheel rim needs at least 3 vertices")
        return _wheel(n)
    raise DomainError(f"unknown graph name {name!r}")


# -- the construction ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ConstructionTrace:
    """Everything the construction produced, id-stable across stages.

    g0 is the base graph; blocks[i] is J_{i+1} in its own local id
    space; graphs[i] is the spliced G_{i+1}.  f_edges, c_sets and c_star
    hold ids valid in every graph from their creation stage onward.
    """

    p: int
    q: int
    base: MultiGraph
    anchor: int
    g0: MultiGraph
    blocks: tuple[MultiGraph, ...]
    graphs: tuple[MultiGraph, ...]
    f_edges: tuple[int, ...]  # f0 .. f_{q-1}
    c_sets: tuple[frozenset[int], ...]  # C_1 .. C_{q-1}
    cprime_local: tuple[frozenset[int], ...]  # C'_i in block-local ids
    c_star: frozenset[int]
    cuts: tuple[Cut, ...]  # splicing cut of each stage, on that stage's graph
    a_vertices: tuple[int, ...]  # a_1 .. a_q
    u_vertices: tuple[int, ...]  # u_i, block-local
    copy_a: tuple[frozenset[int], ...]  # A_1 .. A_q
    copy_b: tuple[frozenset[int], ...]  # B_1 .. B_q
    block_u_mapped: tuple[frozenset[int], ...]  # U_i - u_i, ids in G_i
    block_v_mapped: tuple[frozenset[int], ...]  # V_i, ids in G_i
    f_local: tuple[int, ...]  # f_i in block-local ids
    b0: frozenset[int]

    @property
    def final(self) -> MultiGraph:
        return self.graphs[-1]


def _is_simple(g: MultiGraph) -> bool:
    """No parallel edges: each edge is its own pair in the index adjacency."""
    return sum(map(len, g._adjacency()[1])) == 2 * g.m


def _validate_base(h: MultiGraph, anchor: int, p: int) -> None:
    if not h.has_vertex(anchor):
        raise DomainError(f"anchor {anchor} is not a vertex of the base graph")
    if not _is_simple(h):
        raise DomainError("base graph must be simple")
    if not h.is_bipartite:
        raise DomainError("base graph must be bipartite")
    if classify(h) != "brace":
        raise DomainError("base graph must be a brace")
    kappa = vertex_connectivity(h)
    if kappa < p + 1:
        raise DomainError(
            f"base graph must be {p + 1}-connected (vertex connectivity {kappa})"
        )


def build_high_kappa_epsilon(
    p: int,
    q: int,
    base: Optional[MultiGraph] = None,
    anchor: Optional[int] = None,
) -> ConstructionTrace:
    """Run the construction for parameters p, q >= 2.

    base defaults to K_{p+1,p+1} and anchor to the base's least vertex;
    an anchor that is not a vertex of the base raises ``DomainError``.
    All vertex choices are lowest-id, so traces are reproducible.  A p
    or q that is not an integer (a bool included) raises ``DomainError``.
    """
    for name, value in (("p", p), ("q", q)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainError(f"construction parameter {name} must be an integer, got {value!r}")
    if p < 2 or q < 2:
        raise DomainError("construction needs p >= 2 and q >= 2")
    h = _complete_bipartite(p + 1, p + 1) if base is None else base
    a = min(h.vertices) if anchor is None else anchor
    _validate_base(h, a, p)

    parts = h.bipartition()
    a_side = parts[0] if a in parts[0] else parts[1]
    b_side = h._vset - a_side
    hv = h.vertices
    index = h._adjacency()[0]
    n_h = h.n

    def cp(j: int, v: int) -> int:  # vertex of copy j (1-based)
        return (j - 1) * n_h + index[v] + 1

    # G0: q copies of (H, a), rungs C_j: a_j -> B_{j+1}, closing edge f0.
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}

    def add(u: int, v: int, label: Optional[str] = None) -> int:
        edges.append((u, v))
        e = len(edges)
        if label:
            labels[e] = label
        return e

    for j in range(1, q + 1):
        for _, (u, v) in h.edge_items():
            add(cp(j, u), cp(j, v))
    copy_a = tuple(frozenset(cp(j, v) for v in a_side) for j in range(1, q + 1))
    copy_b = tuple(frozenset(cp(j, v) for v in b_side) for j in range(1, q + 1))
    a_vertices = tuple(cp(j, a) for j in range(1, q + 1))
    c_sets = []
    for j in range(1, q):
        targets = sorted(copy_b[j])[:p]
        c_sets.append(
            frozenset(add(a_vertices[j - 1], t, f"C{j}.{k}") for k, t in enumerate(targets, 1))
        )
    f0 = add(a_vertices[q - 1], min(copy_b[0]), "f0")
    g0 = MultiGraph(q * n_h, edges, edge_labels=labels)
    c_star = frozenset().union(*c_sets)

    # Blocks J_i: a copy of H, rungs C'_i: u_i -> U_i - u_i, and f_i in V_i.
    blocks = []
    cprime_local = []
    f_local = []
    u_local = index[a] + 1
    u_set_local = frozenset(index[v] + 1 for v in a_side)
    v_set_local = frozenset(index[v] + 1 for v in b_side)
    for i in range(1, q):
        b_edges: list[tuple[int, int]] = []
        b_labels: dict[int, str] = {}
        for _, (u, v) in h.edge_items():
            b_edges.append((index[u] + 1, index[v] + 1))
        spokes = sorted(u_set_local - {u_local})[:p]
        cpl = []
        for k, t in enumerate(spokes, 1):
            b_edges.append((u_local, t))
            b_labels[len(b_edges)] = f"C'{i}.{k}"
            cpl.append(len(b_edges))
        v1, v2 = sorted(v_set_local)[:2]
        b_edges.append((v1, v2))
        b_labels[len(b_edges)] = f"f{i}"
        blocks.append(MultiGraph(n_h, b_edges, edge_labels=b_labels))
        cprime_local.append(frozenset(cpl))
        f_local.append(len(b_edges))

    # Iterated splices: G_i = (G_{i-1} (.) J_i) at (a_i, u_i), rungs to rungs.
    graphs = []
    cuts = []
    f_edges = [f0]
    block_u_mapped = []
    block_v_mapped = []
    current = g0
    for i in range(1, q):
        block = blocks[i - 1]
        a_i = a_vertices[i - 1]
        star_g = sorted(current.incident(a_i))
        star_j = sorted(block.incident(u_local))
        c_here = sorted(c_sets[i - 1])
        cprime_here = sorted(cprime_local[i - 1])
        rest_g = [e for e in star_g if e not in set(c_here)]
        rest_j = [e for e in star_j if e not in set(cprime_here)]
        pi = dict(zip(c_here, cprime_here))
        pi.update(zip(rest_g, rest_j))
        result = splice(SpliceSpec(current, a_i, block, u_local, pi))
        graphs.append(result.graph)
        cuts.append(result.cut)
        f_edges.append(result.edge_map[f_local[i - 1]])
        block_u_mapped.append(
            frozenset(result.vertex_map[w] for w in u_set_local if w != u_local)
        )
        block_v_mapped.append(frozenset(result.vertex_map[w] for w in v_set_local))
        current = result.graph

    return ConstructionTrace(
        p=p,
        q=q,
        base=h,
        anchor=a,
        g0=g0,
        blocks=tuple(blocks),
        graphs=tuple(graphs),
        f_edges=tuple(f_edges),
        c_sets=tuple(c_sets),
        cprime_local=tuple(cprime_local),
        c_star=c_star,
        cuts=tuple(cuts),
        a_vertices=a_vertices,
        u_vertices=tuple(u_local for _ in range(1, q)),
        copy_a=copy_a,
        copy_b=copy_b,
        block_u_mapped=tuple(block_u_mapped),
        block_v_mapped=tuple(block_v_mapped),
        f_local=tuple(f_local),
        b0=frozenset().union(*copy_b),
    )


# -- trace verification -------------------------------------------------------


def _all_inadmissible(g: MultiGraph, removed, targets) -> tuple[bool, str]:
    # e is inadmissible in g - F iff g - ends(e) - F has no perfect matching.
    bad = sorted(
        e for e in targets if _pm_minus(g, frozenset(g.endpoints(e)), removed) is not None
    )
    if bad:
        return False, f"admissible after deletion: {bad}"
    return True, f"{len(set(targets))} edges all inadmissible"


def _brick_both_routes(j: MultiGraph) -> tuple[bool, str]:
    if not is_matching_covered(j):
        return False, "not matching covered"
    if j.is_bipartite:
        return False, "bipartite"
    fast = classify(j) == "brick"
    try:
        exhaustive = exhaustive_nontrivial_tight_cut(j) is None
    except CapabilityError:
        return fast, f"fast path {'passed' if fast else 'failed'}; exhaustive scan skipped at {j.n} vertices"
    if fast != exhaustive:
        return False, f"routes disagree: fast={fast}, exhaustive={exhaustive}"
    return fast, "fast path and exhaustive scan agree"


def _matching_between(g: MultiGraph, part1: frozenset[int], part2: frozenset[int]) -> int:
    crossing = {
        e: (u, v)
        for e, (u, v) in g.edge_items()
        if (u in part1 and v in part2) or (u in part2 and v in part1)
    }
    sub = MultiGraph.with_ids(sorted(part1 | part2), crossing)
    return len(maximum_matching(sub))


def verify_trace(t: ConstructionTrace) -> dict:
    """Re-derive every claim the construction relies on, from scratch,
    on the trace's graphs.  Returns {check name: {ok, detail}}; raises a
    verification error naming the first failed check (report attached).
    """
    report: dict[str, dict] = {}

    def check(name: str, fn: Callable[[], tuple[bool, str]]) -> None:
        try:
            ok, detail = fn()
        except MatchcoverError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        report[name] = {"ok": bool(ok), "detail": detail}

    f0 = t.f_edges[0]
    check(
        "base.bipartite-matching-covered",
        lambda: (
            t.g0.is_bipartite and is_matching_covered(t.g0),
            f"bipartite={t.g0.is_bipartite}",
        ),
    )
    check("base.rungs-inadmissible", lambda: _all_inadmissible(t.g0, (f0,), t.c_star))
    check(
        "base.f0-class",
        lambda: (is_equivalence_class(t.g0, {f0}), f"f0 = edge {f0}"),
    )

    for i in range(1, t.q):
        block = t.blocks[i - 1]
        fl = t.f_local[i - 1]
        cpl = t.cprime_local[i - 1]
        check(f"block{i}.brick", lambda b=block: _brick_both_routes(b))
        check(
            f"block{i}.rungs-inadmissible",
            lambda b=block, f=fl, c=cpl: _all_inadmissible(b, (f,), c),
        )
        check(
            f"block{i}.f-class",
            lambda b=block, f=fl: (is_equivalence_class(b, {f}), f"f = edge {f}"),
        )

    for i in range(1, t.q):
        g_i = t.graphs[i - 1]
        cut = t.cuts[i - 1]
        f_set = frozenset(t.f_edges[: i + 1])
        check(
            f"stage{i}.simple",
            lambda g=g_i: (
                (True, f"{g.m} edges, no parallels") if _is_simple(g)
                else (False, "parallel edges present")
            ),
        )
        check(
            f"stage{i}.matching-covered",
            lambda g=g_i: (is_matching_covered(g), f"n={g.n}, m={g.m}"),
        )

        def barrier_cut(g=g_i, c=cut):
            if not is_barrier(g, t.b0):
                return False, "B0 is not a barrier"
            block_shore = c.other_shore
            if block_shore not in g.components(t.b0):
                return False, "block shore is not a component of G - B0"
            if not is_tight_cut(g, c):
                return False, "splicing cut is not tight"
            return True, f"barrier of size {len(t.b0)}, cut of {len(c.edges)} edges"

        check(f"stage{i}.barrier-cut", barrier_cut)
        check(
            f"stage{i}.merged-class",
            lambda g=g_i, f=f_set: (
                is_equivalence_class(g, f),
                f"F = {sorted(f)}",
            ),
        )
        check(
            f"stage{i}.rungs-inadmissible",
            lambda g=g_i, f=f_set: _all_inadmissible(g, f, t.c_star),
        )

    final = t.final
    expected_n = (2 * t.q - 1) * t.base.n - 2 * (t.q - 1)
    check(
        "sizing",
        lambda: (final.n == expected_n, f"|V| = {final.n}, expected {expected_n}"),
    )

    def connectivity():
        kappa = vertex_connectivity(final)
        return kappa >= t.p, f"kappa = {kappa}, need >= {t.p}"

    check("connectivity", connectivity)

    f_all = frozenset(t.f_edges)
    check(
        "epsilon",
        lambda: (
            len(f_all) == t.q and is_equivalence_class(final, f_all),
            f"class {sorted(f_all)} of size {len(f_all)} gives epsilon >= {t.q}",
        ),
    )

    def consecutive():
        parts = []
        for j in range(1, t.q):
            parts.append((t.copy_a[j - 1] - {t.a_vertices[j - 1]}) | t.copy_b[j - 1])
            parts.append(t.block_u_mapped[j - 1] | t.block_v_mapped[j - 1])
        parts.append(t.copy_a[t.q - 1] | t.copy_b[t.q - 1])
        sizes = [
            _matching_between(final, parts[k], parts[k + 1])
            for k in range(len(parts) - 1)
        ]
        return min(sizes) >= t.p, f"consecutive matching sizes {sizes}, need >= {t.p}"

    check("consecutive-matchings", consecutive)

    failed = [name for name, r in report.items() if not r["ok"]]
    if failed:
        raise VerificationError(
            failed[0], f"{len(failed)} of {len(report)} checks failed", report=report
        )
    return report
