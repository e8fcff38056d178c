"""Loopless multigraphs with stable integer edge ids.

Vertices and edges are integers.  Parallel edges are allowed and kept
apart by their ids; deletion and contraction never renumber surviving
edges.  All values are immutable: every operation returns a new graph.

The text format (used by the CLI) is::

    c or # comment lines (skipped)
    p <numVertices> <numEdges>
    e <u> <v>          (1-indexed; repeated lines create parallel edges)

``format_graph`` output parses and formats back to the same bytes.

Results derived from a graph or one of its cuts alone are memoized on
that object (``_memoized``); immutability means they never go stale.
One of them, ``_adjacency``, is the graph's index adjacency: the vertex
index map and the sorted simple neighbour lists over indices.
Components, the bipartition, the matching engine, connectivity, the cut
scans and canonical forms all traverse it; nothing else builds one.
Questions about the graph minus some edges (components, the matching
queries, the matching digraph) read ``_adjacency_minus``, that adjacency
without the vertex pairs the edges empty, so none builds a graph.
"""

from __future__ import annotations

import dataclasses
import hashlib
from functools import cached_property, wraps
from typing import Callable, Collection, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

from .errors import CapabilityError, DomainError, ParseError

_CANON_WORK_BUDGET = 1_500_000_000

_T = TypeVar("_T")
_O = TypeVar("_O", "MultiGraph", "Cut")


def _memoized(fn: Callable[[_O], _T]) -> Callable[[_O], _T]:
    """Cache ``fn(x)`` in ``x._memo``, keyed by ``fn``; the one cache of
    graphs and their cuts, holding only values computed from ``x``
    itself.  A call that raises caches nothing, so it raises again."""

    @wraps(fn)
    def wrapper(x: _O) -> _T:
        try:
            return x._memo[fn]
        except KeyError:
            value = x._memo[fn] = fn(x)
            return value

    return wrapper


def _find(parent: dict[_T, _T] | list[int], v: _T) -> _T:
    """The root of ``v`` in the union-find ``parent`` (a list over
    indices or a dict over items), halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


class MultiGraph:
    """Immutable loopless multigraph.

    Construct with an iterable of vertex ids (or an int ``n`` meaning
    vertices ``1..n``) and an iterable of endpoint pairs; edge ids are
    assigned ``1..m`` in iteration order.  ``with_ids`` gives full
    control over ids and is what the structural operations use so that
    surviving edges keep their identity.
    """

    def __init__(
        self,
        vertices: Iterable[int] | int,
        edges: Iterable[tuple[int, int]] = (),
        *,
        edge_labels: Mapping[int, str] | None = None,
    ):
        if isinstance(vertices, int):
            vertices = range(1, vertices + 1)
        endpoints = dict(enumerate(edges, start=1))
        self._init_parts(list(vertices), endpoints, edge_labels)

    @classmethod
    def with_ids(
        cls,
        vertices: Iterable[int],
        endpoints: Mapping[int, tuple[int, int]],
        *,
        next_vertex_id: int | None = None,
        next_edge_id: int | None = None,
        edge_labels: Mapping[int, str] | None = None,
    ) -> "MultiGraph":
        g = cls.__new__(cls)
        g._init_parts(
            list(vertices), dict(endpoints), edge_labels,
            next_vertex_id=next_vertex_id, next_edge_id=next_edge_id,
        )
        return g

    def _init_parts(
        self,
        vertex_list: list[int],
        endpoints: dict[int, tuple[int, int]],
        edge_labels: Mapping[int, str] | None,
        *,
        next_vertex_id: int | None = None,
        next_edge_id: int | None = None,
    ) -> None:
        vset = set(vertex_list)
        if len(vset) != len(vertex_list):
            raise DomainError("duplicate vertex ids")
        norm: dict[int, tuple[int, int]] = {}
        inc: dict[int, list[int]] = {v: [] for v in vertex_list}
        for e in sorted(endpoints):
            u, v = endpoints[e]
            if u == v:
                raise DomainError(f"loop at vertex {u} (edge {e}) not allowed")
            if u not in vset or v not in vset:
                raise DomainError(f"edge {e} endpoint not a vertex: {(u, v)}")
            if v < u:
                u, v = v, u
            norm[e] = (u, v)
            inc[u].append(e)
            inc[v].append(e)
        self._vertices: tuple[int, ...] = tuple(sorted(vertex_list))
        self._vset: frozenset[int] = frozenset(vertex_list)
        self._endpoints: dict[int, tuple[int, int]] = norm
        self._inc: dict[int, tuple[int, ...]] = {v: tuple(ids) for v, ids in inc.items()}
        self._next_vertex: int = max(
            [next_vertex_id or 1] + [v + 1 for v in vertex_list]
        )
        self._next_edge: int = max([next_edge_id or 1] + [e + 1 for e in norm])
        self.edge_labels: dict[int, str] = {
            e: s for e, s in (edge_labels or {}).items() if e in norm
        }
        self._memo: dict[object, object] = {}

    # -- basic accessors ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._endpoints)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(self._endpoints)

    def has_vertex(self, v: int) -> bool:
        return v in self._vset

    def has_edge_id(self, e: int) -> bool:
        return e in self._endpoints

    def endpoints(self, e: int) -> tuple[int, int]:
        try:
            return self._endpoints[e]
        except KeyError:
            raise DomainError(f"unknown edge id {e}") from None

    def other_end(self, e: int, v: int) -> int:
        u, w = self.endpoints(e)
        if v == u:
            return w
        if v == w:
            return u
        raise DomainError(f"vertex {v} is not an end of edge {e}")

    def incident(self, v: int) -> tuple[int, ...]:
        try:
            return self._inc[v]
        except KeyError:
            raise DomainError(f"unknown vertex id {v}") from None

    def degree(self, v: int) -> int:
        return len(self.incident(v))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted({self.other_end(e, v) for e in self.incident(v)}))

    def edges_between(self, u: int, v: int) -> tuple[int, ...]:
        if u == v:
            return ()
        pair = (u, v) if u < v else (v, u)
        return tuple(e for e in self.incident(pair[0]) if self._endpoints[e] == pair)

    def edge_items(self) -> Iterator[tuple[int, tuple[int, int]]]:
        yield from self._endpoints.items()

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m})"

    # -- derived graphs --------------------------------------------------

    def _derived(
        self, vertices: Iterable[int], endpoints: Mapping[int, tuple[int, int]]
    ) -> "MultiGraph":
        # Ids stay stable: new ones start past every id this graph issued,
        # and surviving edges keep their labels.
        return MultiGraph.with_ids(
            vertices, endpoints,
            next_vertex_id=self._next_vertex, next_edge_id=self._next_edge,
            edge_labels=self.edge_labels,
        )

    def add_edge(self, u: int, v: int) -> tuple["MultiGraph", int]:
        if u == v:
            raise DomainError(f"loop at vertex {u} not allowed")
        if u not in self._vset or v not in self._vset:
            raise DomainError(f"unknown endpoint in ({u}, {v})")
        e = self._next_edge
        endpoints = dict(self._endpoints)
        endpoints[e] = (u, v)
        return self._derived(self._vertices, endpoints), e

    def delete_edges(self, ids: Iterable[int]) -> "MultiGraph":
        drop = set(ids)
        for e in drop:
            if e not in self._endpoints:
                raise DomainError(f"unknown edge id {e}")
        endpoints = {e: uv for e, uv in self._endpoints.items() if e not in drop}
        return self._derived(self._vertices, endpoints)

    def delete_edge(self, e: int) -> "MultiGraph":
        return self.delete_edges((e,))

    def delete_vertices(self, vs: Iterable[int]) -> "MultiGraph":
        drop = set(vs)
        for v in drop:
            if v not in self._vset:
                raise DomainError(f"unknown vertex id {v}")
        keep = [v for v in self._vertices if v not in drop]
        endpoints = {
            e: (u, w) for e, (u, w) in self._endpoints.items()
            if u not in drop and w not in drop
        }
        return self._derived(keep, endpoints)

    def boundary(self, shore: Iterable[int]) -> frozenset[int]:
        """Edge ids with exactly one end in ``shore``."""
        s = frozenset(shore)
        unknown = s - self._vset
        if unknown:
            raise DomainError(f"unknown vertices in shore: {sorted(unknown)}")
        return frozenset(
            e for e, (u, v) in self._endpoints.items() if (u in s) != (v in s)
        )

    def cut(self, shore: Iterable[int]) -> "Cut":
        return Cut(self, frozenset(shore))

    def contract(self, shore: Iterable[int]) -> tuple["MultiGraph", int]:
        """Shrink ``shore`` to a single fresh vertex, keeping cut-edge ids.

        Edges inside the shore vanish; edges of the boundary survive with
        their original ids, one end rewired to the contraction vertex.
        """
        s = frozenset(shore)
        unknown = s - self._vset
        if unknown:
            raise DomainError(f"unknown vertices in shore: {sorted(unknown)}")
        if not s or s == self._vset:
            raise DomainError("contraction shore must be nonempty and proper")
        x = self._next_vertex
        keep = [v for v in self._vertices if v not in s]
        endpoints = {}
        for e, (u, v) in self._endpoints.items():
            iu, iv = u in s, v in s
            if iu and iv:
                continue
            if iu:
                endpoints[e] = (x, v)
            elif iv:
                endpoints[e] = (u, x)
            else:
                endpoints[e] = (u, v)
        return self._derived(keep + [x], endpoints), x

    def underlying_simple(self) -> "MultiGraph":
        """One edge per adjacent vertex pair; the lowest id is retained."""
        chosen: dict[tuple[int, int], int] = {}
        for e, pair in self._endpoints.items():
            chosen.setdefault(pair, e)
        endpoints = {e: pair for pair, e in chosen.items()}
        return self._derived(self._vertices, endpoints)

    # -- connectivity and parity -----------------------------------------

    @_memoized
    def _adjacency(self) -> tuple[dict[int, int], tuple[tuple[int, ...], ...]]:
        """The vertex index map (position in ``vertices``) and the simple
        adjacency lists over indices, each sorted; parallel edges
        collapse.  Every traversal, the matching engine and canonical
        forms read these; nothing else builds them."""
        index = {v: i for i, v in enumerate(self._vertices)}
        nbrs: list[set[int]] = [set() for _ in self._vertices]
        for u, v in self._endpoints.values():
            nbrs[index[u]].add(index[v])
            nbrs[index[v]].add(index[u])
        return index, tuple(tuple(sorted(row)) for row in nbrs)

    def _adjacency_minus(self, ids: Collection[int]) -> tuple[tuple[int, ...], ...]:
        """The index adjacency lists without the vertex pairs all of whose
        parallel edges are in ``ids``; an id that is not an edge raises
        ``DomainError``.  With no ids it is the shared ``_adjacency()``
        tuple itself, not a copy."""
        index, adj = self._adjacency()
        if not ids:
            return adj
        rows = list(adj)
        for u, v in {self.endpoints(f) for f in ids}:
            if all(f in ids for f in self.edges_between(u, v)):
                i, j = index[u], index[v]
                rows[i] = tuple(w for w in rows[i] if w != j)
                rows[j] = tuple(w for w in rows[j] if w != i)
        return tuple(rows)

    def components(
        self, removed: Iterable[int] = (), without: Collection[int] = ()
    ) -> list[frozenset[int]]:
        """Connected components of the graph minus the vertices ``removed``
        and the edge ids ``without``, sorted by min vertex; vertex ids that
        are not vertices are ignored.  No graph is built for ``without``:
        the pass reads the adjacency minus the pairs it empties."""
        gone = set(removed)
        adj = self._adjacency_minus(without)
        seen = [v in gone for v in self._vertices]
        out: list[frozenset[int]] = []
        for start in range(len(adj)):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            for v in comp:  # breadth first: the loop reaches what is appended
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
            out.append(frozenset(self._vertices[i] for i in comp))
        return out

    @property
    def is_connected(self) -> bool:
        return self.n > 0 and len(self.components()) == 1

    def odd_components_count(self, removed: Iterable[int] = ()) -> int:
        return sum(1 for comp in self.components(removed) if len(comp) % 2 == 1)

    @_memoized
    def bipartition(self) -> Optional[tuple[frozenset[int], frozenset[int]]]:
        """2-coloring as (A, B), or None if an odd cycle exists.

        Per component, the side holding the smallest vertex goes to A,
        which makes the answer deterministic.
        """
        adj = self._adjacency()[1]
        color = [-1] * len(adj)
        for start in range(len(adj)):
            if color[start] != -1:
                continue
            color[start] = 0
            queue = [start]
            for v in queue:
                other = 1 - color[v]
                for w in adj[v]:
                    if color[w] == -1:
                        color[w] = other
                        queue.append(w)
                    elif color[w] != other:
                        return None
        a = frozenset(v for v, c in zip(self._vertices, color) if c == 0)
        return a, self._vset - a

    @property
    def is_bipartite(self) -> bool:
        return self.bipartition() is not None


class Cut:
    """A cut of a specific graph: one shore, the derived edge set, and a
    ``_memo`` (as on graphs) holding the cut's contractions and tightness."""

    def __init__(self, graph: MultiGraph, shore: Iterable[int]):
        s = frozenset(shore)
        unknown = s - graph._vset
        if unknown:
            raise DomainError(f"unknown vertices in shore: {sorted(unknown)}")
        if not s or s == graph._vset:
            raise DomainError("cut shore must be nonempty and proper")
        self.graph = graph
        self.shore: frozenset[int] = s
        self._memo: dict[object, object] = {}

    @cached_property
    def edges(self) -> frozenset[int]:
        return self.graph.boundary(self.shore)

    @property
    def other_shore(self) -> frozenset[int]:
        return self.graph._vset - self.shore

    @property
    def is_trivial(self) -> bool:
        return len(self.shore) == 1 or len(self.other_shore) == 1

    @property
    def is_odd(self) -> bool:
        return len(self.shore) % 2 == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cut):
            return NotImplemented
        return self.edges == other.edges and {self.shore, self.other_shore} == {
            other.shore,
            other.other_shore,
        }

    def __hash__(self) -> int:
        return hash((self.edges, frozenset((self.shore, self.other_shore))))

    def __repr__(self) -> str:
        return f"Cut(shore={sorted(self.shore)}, edges={sorted(self.edges)})"


# -- canonical forms ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CanonicalForm:
    """Label-invariant fingerprint of a multigraph.

    Equal forms mean isomorphic graphs, parallel edges included; strip
    with ``underlying_simple`` first to compare mod multiplicity.
    """

    n: int
    encoding: bytes

    @property
    def digest(self) -> str:
        n = b"\xff" * (self.n // 255) + bytes([self.n % 255])  # as _encode writes k
        return hashlib.sha256(n + self.encoding).hexdigest()[:16]

    def __repr__(self) -> str:
        return f"CanonicalForm(n={self.n}, {self.digest})"


def _refine(
    adj: Sequence[Sequence[int]], mult: list[list[int]], colors: list[int],
    charge: Callable[[int], None],
) -> list[int]:
    # Iterated color refinement: a vertex's new color is (old color,
    # multiset of (neighbor color, multiplicity)), renumbered by sorted
    # signature.  A round scans only the adjacency lists but charges
    # n^2, the budget's unit.
    n = len(adj)
    while True:
        charge(n * n)
        sigs = []
        for v, row in enumerate(adj):
            nbr = sorted((colors[w], mult[v][w]) for w in row)
            sigs.append((colors[v], tuple(nbr)))
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[sig] for sig in sigs]
        if new == colors:
            return colors
        colors = new


def _encode(mult: list[list[int]], perm: list[int]) -> bytes:
    # Upper-triangle multiplicities of the relabeled graph, row-major.
    # A multiplicity k = 255q + r (r < 255) is q bytes 255 and then r,
    # so every entry ends at its first byte below 255 and the encoding
    # is injective; below 255 it is the one byte k.
    n = len(mult)
    out = bytearray()
    for i in range(n):
        row = mult[perm[i]]
        for j in range(i + 1, n):
            k = row[perm[j]]
            if k >= 255:
                out += b"\xff" * (k // 255)
                k %= 255
            out.append(k)
    return bytes(out)


def _fold_fixing(
    orbit: list[int], autos: list[list[int]], prefix: tuple[int, ...]
) -> None:
    """Join in ``orbit`` the cycles of each automorphism in ``autos``
    that fixes every vertex of ``prefix``.  The others are left out: one
    that moves the prefix carries a child's subtree onto a subtree of
    another node, not of a sibling, so it proves no sibling redundant."""
    for auto in autos:
        if all(auto[p] == p for p in prefix):
            for i, j in enumerate(auto):
                orbit[_find(orbit, i)] = _find(orbit, j)


def _twins(mult: list[list[int]]) -> list[int]:
    """``twins[v]``: the least vertex twin with v, or v itself.  Twins u
    and v have ``mult[u][w] == mult[v][w]`` for every w outside {u, v};
    the relation is an equivalence, and swapping two twins is an
    automorphism.  Rows are hashed with the diagonal set to each value
    k of the row, so u and v meet exactly when they are twins with
    ``mult[u][v] == k`` (k = 0 compares the plain rows)."""
    first: dict[tuple[int, ...], int] = {}
    twins = list(range(len(mult)))
    for v, row in enumerate(mult):
        for k in set(row):
            key = tuple(row[:v] + [k] + row[v + 1:])
            u = first.setdefault(key, v)
            if u != v:
                twins[v] = twins[u]
    return twins


def canonical_form(g: MultiGraph) -> CanonicalForm:
    """Exact canonical fingerprint of ``g``, parallel edges included.

    Individualization-refinement branching on the first smallest
    non-singleton color cell; the minimum encoding over the discrete
    colorings (leaves) of the search tree is canonical.  Exactness
    matters more than speed here: decomposition-uniqueness checks
    compare multisets of these forms, so false merges or splits would
    mask real bugs.

    The search is pruned by automorphisms (McKay 1981).  Two leaves with
    the same encoding differ by an automorphism of ``g``; one is stored
    whenever a leaf encodes like the first leaf or the best one so far.
    At each node a child is skipped if it lies in the orbit of an
    explored child under the group generated by the stored automorphisms
    that fix the node's individualized vertices.  Refinement and cell
    choice commute with relabeling, so such an automorphism carries the
    explored child's subtree onto the skipped one, leaf encodings
    included: the minimum, and so every digest, is the one the full
    search finds.

    Twins (``_twins``: equal multiplicities to every other vertex) give
    automorphisms without a leaf: swapping two twins fixes every other
    vertex.  A target cell holds no individualized vertex, so the twin
    pairs inside it fix the prefix and join the node's orbits before
    its first child, under the same proof.  K5,5 takes 17 search nodes
    (97 with stored automorphisms alone, 49,611 unpruned) and K7,7 25
    (263 without twins).

    The search keeps its own stack, and its one guard is the work budget
    ``_CANON_WORK_BUDGET``: n^2 per refinement round and n per stored
    automorphism folded, past which it raises ``CapabilityError``.
    """
    index, adj = g._adjacency()
    n = g.n
    mult = [[0] * n for _ in range(n)]
    for _, (u, v) in g.edge_items():
        iu, iv = index[u], index[v]
        mult[iu][iv] += 1
        mult[iv][iu] += 1
    twins = _twins(mult)

    # leaves[0] is the first leaf, leaves[1] the best; each is
    # (encoding, perm) with perm[i] the vertex at position i.
    leaves: list[tuple[bytes, list[int]]] = []
    autos: list[list[int]] = []
    left = [_CANON_WORK_BUDGET]

    def charge(units: int) -> None:
        left[0] -= units
        if left[0] < 0:
            raise CapabilityError(
                f"canonical form: search passed the {_CANON_WORK_BUDGET:,}-unit work "
                f"limit (n^2 per refinement round, n per automorphism folded; "
                f"multigraph._CANON_WORK_BUDGET) on n={n}, m={g.m}"
            )

    def descend(colors: list[int], prefix: tuple[int, ...]) -> Iterator[tuple]:
        # One node: refine, then yield each child not pruned, in order.
        colors = _refine(adj, mult, colors, charge)
        by_color: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            by_color.setdefault(c, []).append(v)
        cells = [cell for _, cell in sorted(by_color.items()) if len(cell) > 1]
        target = min(cells, key=len, default=None)
        if target is None:
            perm = sorted(range(n), key=colors.__getitem__)
            enc = _encode(mult, perm)
            if not leaves:
                leaves[:] = [(enc, perm), (enc, perm)]
                return
            for seen, at in leaves:
                if enc == seen:
                    # the automorphism taking at[i] to perm[i], as a list
                    autos.append([p for _, p in sorted(zip(at, perm))])
                    break
            if enc < leaves[1][0]:
                leaves[1] = (enc, perm)
            return
        # Orbits of the stored automorphisms that fix the prefix, grown
        # as the children's subtrees store more, joined with the twin
        # transpositions inside the target cell (it holds no vertex of
        # the prefix, so they fix it).  A join writes one entry, within
        # the n^2 the node's refinement has charged.
        orbit = list(range(n))
        anchor: dict[int, int] = {}
        for v in target:
            orbit[v] = anchor.setdefault(twins[v], v)
        folded = 0
        explored: list[int] = []
        fresh = max(colors) + 1
        for v in target:
            charge(n * (len(autos) - folded))
            _fold_fixing(orbit, autos[folded:], prefix)
            folded = len(autos)
            if any(_find(orbit, v) == _find(orbit, u) for u in explored):
                continue
            explored.append(v)
            yield colors[:v] + [fresh] + colors[v + 1:], prefix + (v,)

    stack = [descend([0] * n, ())]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(descend(*child))
    return CanonicalForm(n, leaves[1][0])


# -- text format -----------------------------------------------------------


def parse_graph(text: str) -> MultiGraph:
    """Parse the ``p``/``e`` text format; vertices get ids 1..n, edges 1..m."""
    n = m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        fields = line.split()
        if not fields or line.startswith("#") or fields[0] == "c":
            continue
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate p line", lineno)
            if len(fields) != 3:
                raise ParseError("p line needs 2 numbers", lineno)
            try:
                n, m = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("p line needs 2 numbers", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("negative count in p line", lineno)
        elif fields[0] == "e":
            if n is None:
                raise ParseError("e line before p line", lineno)
            if len(fields) != 3:
                raise ParseError("e line needs 2 endpoints", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("e line needs 2 endpoints", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint out of range 1..{n}", lineno)
            if u == v:
                raise ParseError("loops not allowed", lineno)
            edges.append((u, v))
        else:
            raise ParseError(f"unknown line type {fields[0]!r}", lineno)
    if n is None:
        raise ParseError("missing p line")
    if len(edges) != m:
        raise ParseError(f"p line promised {m} edges, found {len(edges)}")
    return MultiGraph(n, edges)


def format_graph(g: MultiGraph) -> str:
    """Serialize to the text format.

    Vertices are written 1..n in sorted-id order (the identity when ids
    already are 1..n), edges in id order, smaller endpoint first; so a
    parsed graph formats back to its exact input bytes.
    """
    number = {v: i for i, v in enumerate(g.vertices, start=1)}
    lines = [f"p {g.n} {g.m}"]
    for _, (u, v) in g.edge_items():
        a, b = number[u], number[v]
        if b < a:
            a, b = b, a
        lines.append(f"e {a} {b}")
    return "\n".join(lines) + "\n"
