"""The benchmark's workloads: seeded inputs, operations and answer checks.

Each workload is a list of operations run one at a time, in an order
set by the seed, by a single caller (a closed loop with one client).  Inputs are written to
the work directory as graph text; every operation parses its input
again, so no engine cache carries over from one operation or pass to
the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import oracle

INPUTS = Path(__file__).resolve().parent / "inputs"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
# An odd number of pairs ((2,4) joins the six the construction is usually
# run with), so the median operation is one pair's time, not the mean of
# two pairs of very different cost.
CONSTRUCT_PAIRS = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4))


class Wrong(Exception):
    """An answer that fails a check."""


class Refused(Exception):
    """The program refused the instance (CapabilityError, exit 3)."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]  # the timed call
    check: Callable[[object], None]  # raises Wrong or Refused
    inputs: str  # sha256 of everything the operation reads


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str, str]:
    from matchcover.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _expect(ok: bool, why: str) -> None:
    if not ok:
        raise Wrong(why)


def _check_partition(parts, universe: int, what: str) -> None:
    flat = sorted(x for part in parts for x in part)
    _expect(flat == list(range(1, universe + 1)), f"{what} is not a partition")


class Checker:
    """Answer checks shared by the operations of one run; brute-force
    answers are computed once per input."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self._oracle: dict[str, dict] = {}

    def oracle(self, text: str) -> dict | None:
        n, _ = oracle.parse(text)
        if n > oracle.ORACLE_LIMIT:
            return None
        key = sha256(text)
        if key not in self._oracle:
            self._oracle[key] = oracle.answers(text)
        return self._oracle[key]

    def report(self, name: str, text: str, outcome, *, decompose: bool, min_epsilon: int) -> None:
        code, out, err = outcome
        if code == 3:
            raise Refused(err.strip())
        _expect(code == 0, f"exit {code}: {err.strip()}")
        report = json.loads(out)
        n, edges = oracle.parse(text)
        bipartite = oracle.is_bipartite(n, edges)
        _expect(report["flags"]["matchingCovered"], "input is matching covered")
        _expect(report["flags"]["bipartite"] == bipartite, "bipartite flag")
        _check_partition(report["equivalenceClasses"], len(edges), "equivalence classes")
        _check_partition(report["canonicalPartition"], n, "canonical partition")
        bounds = report["bounds"]
        for key in ("bipartiteBoundHolds", "nonbipartiteBoundHolds", "evenTwoCutFreeBoundHolds"):
            _expect(bounds[key] is not False, f"{key} is false")
        _expect((report["b"] == 0) == bipartite, "b == 0 iff bipartite")
        _expect(report["epsilon"] >= min_epsilon, f"epsilon below {min_epsilon}")
        if decompose:
            d = report["decomposition"]
            _expect((d["b"], d["c4"]) == (report["b"], report["c4"]), "decomposition counts")
        truth = self.oracle(text)
        if truth is not None:
            for key, value in truth.items():
                _expect(report[key] == value, f"{key} differs from the brute-force oracle")
        recorded = self.golden.get(f"{name}|{sha256(text)}")
        if recorded is not None:
            _expect(sha256(out) == recorded, "--json report differs from the recorded one")

    def suite(self, suite: str, text: str, outcome) -> None:
        code, out, err = outcome
        _expect(bool(out), f"exit {code}, no report: {err.strip()}")
        row = out.splitlines()[0].split(None, 2)
        status, detail = row[1], row[2] if len(row) > 2 else ""
        if status == "SKIP" and detail.startswith("capability:"):
            raise Refused(detail)
        _expect(code == 0 and status in ("PASS", "SKIP"), f"{status} {detail} {err.strip()}")
        _expect(status == "PASS" or detail == "no nontrivial tight cut", f"SKIP {detail}")
        if suite == "bounds":
            fields = dict(item.split("=") for item in detail.split())
            n, edges = oracle.parse(text)
            _expect((fields["b"] == "0") == oracle.is_bipartite(n, edges), "b == 0 iff bipartite")
            truth = self.oracle(text)
            if truth is not None:
                _expect(int(fields["epsilon"]) == truth["epsilon"], "epsilon differs from the oracle")

    def partitions(self, text: str, outcome) -> None:
        classes, parts = ([sorted(c) for c in xs] for xs in outcome)
        n, edges = oracle.parse(text)
        _check_partition(classes, len(edges), "equivalence classes")
        _check_partition(parts, n, "canonical partition")
        for part in parts:
            _expect(oracle.is_barrier(n, edges, part), f"part {part} is not a barrier")
        truth = self.oracle(text)
        if truth is not None:
            _expect(classes == truth["equivalenceClasses"], "classes differ from the oracle")
            _expect(parts == truth["canonicalPartition"], "canonical partition differs from the oracle")


def _analyze_op(checker: Checker, label: str, path: Path, text: str, decompose: bool,
                min_epsilon: int = 1) -> Op:
    argv = ["analyze", str(path), "--json"] + (["--decompose"] if decompose else [])
    name = " ".join(["analyze", "--json"] + (["--decompose"] if decompose else []) + [label])
    return Op(
        name,
        lambda: _cli(argv),
        lambda outcome: checker.report(name, text, outcome, decompose=decompose,
                                       min_epsilon=min_epsilon),
        sha256(text),
    )


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


# The uniqueness suite on K5,5 canonicalizes it five times (8 s); with
# it a pass took 16 s, too long for more than one pass a run.  K5,5's
# canonical forms still dominate a pass through analyze and bounds.
LEFT_OUT = {("uniqueness", "K5,5")}


def corpus_small(rng: random.Random, seed: int, work: Path, checker: Checker) -> list[Op]:
    """The 30-graph test corpus (n <= 16): analyze each graph, then run
    the bounds, uniqueness and merging corpus suites over it.  The seed
    drives the uniqueness suite's random cut choosers."""
    graphs = []
    for src in sorted((INPUTS / "corpus").glob("*.g")):
        text = src.read_text()
        graphs.append((src.stem, _write(work / src.stem / src.name, text), text))
    ops = [_analyze_op(checker, stem, path, text, True) for stem, path, text in graphs]
    for suite in ("bounds", "uniqueness", "merging"):
        for stem, path, text in graphs:
            if (suite, stem) in LEFT_OUT:
                continue
            argv = ["corpus", "--dir", str(path.parent), "--check", suite, "--seed", str(seed)]
            ops.append(Op(
                f"corpus --check {suite} {stem}",
                lambda argv=argv: _cli(argv),
                lambda outcome, suite=suite, text=text: checker.suite(suite, text, outcome),
                sha256(text),
            ))
    return ops


def _large_recipes():
    """(label, generator, modes) for analyze-large's seeded graphs.

    Twelve graphs at n = 20..24 form the middle of the latency spread,
    so op_p50_ms is a median over many similar graphs rather than one
    graph's cost; no leaf of a graph this small can pass the 24-vertex
    canonical-form limit.  The two dense graphs (W5 spliced into the
    nonbipartite one) have minimum degree 3; on every seed tried that
    left a decomposition leaf of more than 24 vertices, which the seed
    version refuses while canonicalizing decomposition leaves.
    """
    plain, decompose = (False,), (True,)
    recipes = [
        ("bip16", lambda r: gen.bipartite_mc(r, 16, 4), plain),
        ("nb16", lambda r: gen.nonbipartite_mc(r, 14, 4, ["K4"]), plain),
    ]
    for i, n in enumerate((20, 20, 22, 22, 24, 24)):
        modes = plain if i % 2 else decompose
        recipes.append((f"bip{n}-{i}", lambda r, n=n: gen.bipartite_mc(r, n, n // 4), modes))
        recipes.append((f"nb{n}-{i}", lambda r, n=n: gen.nonbipartite_mc(r, n - 2, n // 4, ["K4"]), modes))
    recipes += [
        ("bip28-dense", lambda r: gen.bipartite_mc(r, 28, 56, min_degree=3), plain),
        ("nb32-dense", lambda r: gen.nonbipartite_mc(r, 28, 56, ["W5"], min_degree=3), plain),
    ]
    return recipes


def analyze_large(rng: random.Random, seed: int, work: Path, checker: Checker) -> list[Op]:
    """The (3,3) construction final (n = 36) plus seeded random matching
    covered graphs at n = 16..32, bipartite and nonbipartite.  The (3,4)
    final (5 s to analyze) is left out so that a run holds several
    passes; construct-verify builds and verifies it."""
    text = (INPUTS / "final-3-3.g").read_text()
    path = _write(work / "final-3-3.g", text)
    ops = [_analyze_op(checker, "final-3-3", path, text, d, min_epsilon=3) for d in (False, True)]
    for label, make, modes in _large_recipes():
        text = gen.to_text(gen.relabel(rng, make(rng)))
        path = _write(work / f"{label}.g", text)
        ops += [_analyze_op(checker, label, path, text, d) for d in modes]
    return ops


def _construct(p: int, q: int):
    from matchcover import build_high_kappa_epsilon, verify_trace

    trace = build_high_kappa_epsilon(p, q)
    return trace, verify_trace(trace)


def _check_construct(q: int, outcome) -> None:
    trace, report = outcome
    _expect(all(row["ok"] for row in report.values()), "verify_trace reports a failed check")
    _expect(report["epsilon"]["ok"] and len(set(trace.f_edges)) >= q, f"epsilon below {q}")


def construct_verify(rng: random.Random, seed: int, work: Path, checker: Checker) -> list[Op]:
    """build_high_kappa_epsilon + verify_trace with the default base
    K_{p+1,p+1}.  The inputs are the (p, q) pairs alone; the seed only
    sets their order.  (Renumbering the base by the seed moved one
    pair's cost by a quarter, which would swamp run-to-run comparison.)"""
    return [
        Op(
            f"construct --verify p={p} q={q}",
            lambda p=p, q=q: _construct(p, q),
            lambda outcome, q=q: _check_construct(q, outcome),
            sha256(f"p={p} q={q}"),
        )
        for p, q in CONSTRUCT_PAIRS
    ]


def _partitions(text: str):
    from matchcover import canonical_partition, equivalence_partition, parse_graph

    g = parse_graph(text)
    return equivalence_partition(g).classes, canonical_partition(g)


def partition_batch(rng: random.Random, seed: int, work: Path, checker: Checker) -> list[Op]:
    """equivalence_partition + canonical_partition on 240 matching
    covered graphs, n = 10..24 (both sides of the subset-DP limit of
    16), half bipartite, half spliced nonbipartite."""
    ops = []
    for n in range(10, 26, 2):
        for i in range(15):
            piece = rng.choice([p for p in gen.PIECES if gen.PIECES[p][0] <= n - 4])
            base = n + 2 - gen.PIECES[piece][0]
            bip = gen.bipartite_mc(rng, n, n // 2)
            nonbip = gen.nonbipartite_mc(rng, base, base // 2, [piece])
            for label, g in ((f"bip{n}-{i}", bip), (f"nb{n}-{i}", nonbip)):
                text = gen.to_text(gen.relabel(rng, g))
                _write(work / f"{label}.g", text)
                ops.append(Op(
                    f"partitions {label}",
                    lambda text=text: _partitions(text),
                    lambda outcome, text=text: checker.partitions(text, outcome),
                    sha256(text),
                ))
    return ops


WORKLOADS = {
    "corpus-small": corpus_small,
    "analyze-large": analyze_large,
    "construct-verify": construct_verify,
    "partition-batch": partition_batch,
}


def build(workload: str, seed: int, work: Path) -> tuple[list[Op], str]:
    """The operations of one workload and a digest of every input they
    read, for showing that two runs used the same graphs."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    checker = Checker(golden)
    rng = random.Random(f"{workload}/{seed}")
    ops = WORKLOADS[workload](rng, seed, work, checker)
    # A burst of load on the host then slows a random mix of operations
    # rather than one size class or one suite.
    rng.shuffle(ops)
    digest = hashlib.sha256("".join(f"{op.name}\n{op.inputs}\n" for op in ops).encode()).hexdigest()
    return ops, digest
