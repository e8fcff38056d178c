"""Shared fixtures: the test corpus and random graph generators."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from matchcover.generators import named_graph
from matchcover.matching import is_matching_covered
from matchcover.multigraph import MultiGraph
from matchcover.splicing import SpliceSpec, splice

NAMED = [
    "C4",
    "C6",
    "C8",
    "C10",
    "C12",
    "K4",
    "K6",
    "K3,3",
    "K4,4",
    "K5,5",
    "C6bar",
    "fig2b",
    "fig2c",
    "petersen",
    "prism3",
    "prism4",
    "prism5",
    "W5",
    "W7",
]


def _doubled(name: str, edge: int) -> MultiGraph:
    g = named_graph(name)
    u, v = g.endpoints(edge)
    return g.add_edge(u, v)[0]


def random_graph(rng: random.Random, n: int, extra: int) -> MultiGraph:
    """Connected graph on n vertices: a random spanning tree plus `extra`
    random edges. Not necessarily matchable."""
    g = MultiGraph(n)
    vertices = list(range(1, n + 1))
    rng.shuffle(vertices)
    for i in range(1, n):
        g = g.add_edge(vertices[i], rng.choice(vertices[:i]))[0]
    for _ in range(extra):
        u, v = rng.sample(range(1, n + 1), 2)
        g = g.add_edge(u, v)[0]
    return g


def random_mc_graph(rng: random.Random, n: int, extra: int) -> MultiGraph:
    """Random matching covered graph: an even cycle plus random chords,
    edges kept only while the graph stays matching covered."""
    assert n % 2 == 0 and n >= 4
    cycle = list(range(1, n + 1))
    rng.shuffle(cycle)
    g = MultiGraph(n)
    for i in range(n):
        g = g.add_edge(cycle[i], cycle[(i + 1) % n])[0]
    for _ in range(extra):
        u, v = rng.sample(range(1, n + 1), 2)
        candidate = g.add_edge(u, v)[0]
        if is_matching_covered(candidate):
            g = candidate
    return g


def random_nonbipartite_mc_graph(rng: random.Random, n: int, extra: int) -> MultiGraph:
    """Random non-bipartite matching covered graph: random_mc_graph, then
    random chords offered two at a time, each pair kept only while the
    graph stays matching covered, until it is no longer bipartite.

    random_mc_graph alone only returns bipartite graphs: a chord inside
    one colour class lies in no perfect matching.  A pair of chords, one
    inside each class, can lie in one together."""
    g = random_mc_graph(rng, n, extra)
    while g.bipartition() is not None:
        candidate = g
        for _ in range(2):
            u, v = rng.sample(range(1, n + 1), 2)
            candidate = candidate.add_edge(u, v)[0]
        if is_matching_covered(candidate):
            g = candidate
    return g


def bipartite_mc_inputs() -> list[MultiGraph]:
    """Bipartite matching covered graphs for the even-cut tests: 210
    seeded random_mc_graph graphs, every third with one edge doubled;
    K2 with 2 and with 3 parallel edges; K_{k,k} for k <= 5, with and
    without a doubled edge; and the even cycles C4 .. C16."""
    rng = random.Random(2929)
    graphs = []
    for i in range(210):
        g = random_mc_graph(rng, rng.choice((4, 6, 8, 10, 12)), rng.randrange(10))
        if i % 3 == 0:
            g = g.add_edge(*g.endpoints(rng.choice(g.edge_ids)))[0]
        graphs.append(g)
    graphs += [MultiGraph(2, [(1, 2)] * copies) for copies in (2, 3)]
    for k in range(1, 6):
        complete = MultiGraph(2 * k, [(i, k + j) for i in range(1, k + 1) for j in range(1, k + 1)])
        graphs += [complete, complete.add_edge(1, k + 1)[0]]
    graphs += [MultiGraph(n, [(i, i % n + 1) for i in range(1, n + 1)]) for n in range(4, 17, 2)]
    return graphs


def random_splice(rng: random.Random, g1: MultiGraph, g2: MultiGraph) -> MultiGraph:
    v1 = rng.choice(g1.vertices)
    degree = len(g1.boundary({v1}))
    candidates = [v for v in g2.vertices if len(g2.boundary({v})) == degree]
    if not candidates:
        return None
    v2 = rng.choice(candidates)
    star1 = sorted(g1.boundary({v1}))
    star2 = sorted(g2.boundary({v2}))
    rng.shuffle(star2)
    return splice(SpliceSpec(g1, v1, g2, v2, dict(zip(star1, star2)))).graph


def sparse_mc_graphs(n: int, count: int = 3) -> list[MultiGraph]:
    """Seeded sparse matching covered graphs on n vertices: `count` from
    random_mc_graph (these come out bipartite) and `count` splices of one
    with a small brick (non-bipartite, with nontrivial barriers)."""
    rng = random.Random(100 * n)
    graphs = [random_mc_graph(rng, n, rng.randrange(4, 12)) for _ in range(count)]
    while len(graphs) < 2 * count:
        brick = named_graph(rng.choice(("K4", "prism3", "C6bar", "W5")))
        g = random_mc_graph(rng, n + 2 - brick.n, rng.randrange(4, 12))
        spliced = random_splice(rng, g, brick)
        if spliced is not None:
            graphs.append(spliced)
    return graphs


def _load_gen():
    # The benchmark's seeded generators (plain edge lists, no matchcover
    # import), so the tests can reach the kinds of input it runs.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load_gen()


def gen_graph(g: tuple[int, list[tuple[int, int]]]) -> MultiGraph:
    """A ``gen`` graph (n, edge list) as a MultiGraph, numbered as
    ``parse_graph`` numbers its text form."""
    n, edges = g
    return MultiGraph(n, edges)


def big_brace_graph() -> MultiGraph:
    """Seeded matching covered graph on 30 vertices whose tight cut
    decomposition has a brace leaf on 28 vertices."""
    return random_mc_graph(random.Random(20), 30, 40)


def build_corpus() -> list[tuple[str, MultiGraph]]:
    graphs: list[tuple[str, MultiGraph]] = [(name, named_graph(name)) for name in NAMED]
    graphs.append(("C4+parallel", _doubled("C4", 1)))
    graphs.append(("K4+parallel", _doubled("K4", 1)))
    graphs.append(("C6bar+parallel", _doubled("C6bar", 7)))
    rng = random.Random(20240601)
    seeds = ["K4", "C6bar", "C6", "prism3", "K3,3", "W5"]
    made = 0
    while made < 8:
        a = named_graph(rng.choice(seeds))
        b = named_graph(rng.choice(seeds))
        g = random_splice(rng, a, b)
        if g is None or g.n > 16:
            continue
        made += 1
        graphs.append((f"splice{made}", g))
    return graphs


_CORPUS = build_corpus()


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, MultiGraph]]:
    return _CORPUS


def corpus_params():
    return [pytest.param(g, id=name) for name, g in _CORPUS]
