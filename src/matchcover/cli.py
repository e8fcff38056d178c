"""Command line front end.

Subcommands: analyze (full report on one graph), splice (join two
graphs at a vertex pair), construct (run the high-connectivity /
high-epsilon construction), corpus (drive a property suite over a
directory of graph files).

Exit codes: 0 success, 1 parse/domain errors or an unusable --out
path, 2 analysis found the input wanting (not matching covered, or a
verification failed), 3 the exact engines refused the instance size.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Optional

from .cuts import (
    _leaf_form,
    classify,
    contractions,
    find_nontrivial_tight_cut,
    is_solid_brick,
    make_chooser,
    removable_classes,
    removable_edges,
    tight_cut_decomposition,
    verify_bounds,
)
from .dependence import equivalence_partition
from .errors import (
    CapabilityError,
    DomainError,
    ParseError,
    VerificationError,
)
from .generators import build_high_kappa_epsilon, named_graph, verify_trace
from .matching import (
    _mc_witness,
    enumerate_pms,
    is_matchable,
    is_matching_covered,
)
from .multigraph import MultiGraph, format_graph, parse_graph
from .splicing import SpliceSpec, check_merge, splice, splice_variants
from .structure import canonical_partition, even_2cuts

SCHEMA_VERSION = 1
# analyze asks is_solid_brick only of bricks up to this order; above it,
# solidBrick is null, with no refusal.
SOLID_CHECK_LIMIT = 14


class _Parser(argparse.ArgumentParser):
    # Wrong arguments are input errors: exit 1, not argparse's 2.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _read(path: Path) -> str:
    """A graph file's text; a file that cannot be read as UTF-8 text (a
    directory, no permission, other bytes) is a ``ParseError``."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {str(path)!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{str(path)!r} is not UTF-8 text (byte {exc.start})") from None


def _load(source: str) -> tuple[MultiGraph, str, str]:
    """A graph from a file path, or from a generator name as fallback.
    Returns (graph, display name, content sha256)."""
    path = Path(source)
    if path.exists():
        text = _read(path)
        return parse_graph(text), source, hashlib.sha256(text.encode()).hexdigest()
    try:
        g = named_graph(source)
    except DomainError:
        raise ParseError(f"no such file, and not a known graph name: {source!r}")
    return g, source, hashlib.sha256(format_graph(g).encode()).hexdigest()


def _parse_vertex(text: str) -> int:
    token = text.strip().lower()
    if token == "hub":
        return 1
    if token.startswith("v") and token[1:].isdigit():
        return int(token[1:])
    try:
        return int(token)
    except ValueError:
        raise DomainError(f"cannot read a vertex from {text!r}") from None


def _parse_pi(text: str) -> dict[int, int]:
    pi: dict[int, int] = {}
    for chunk in text.split(","):
        left, sep, right = chunk.partition(":")
        if not sep:
            raise DomainError(f"pi entries look like <edge>:<edge>, got {chunk!r}")
        try:
            pi[int(left)] = int(right)
        except ValueError:
            raise DomainError(f"pi entries need integer edge ids, got {chunk!r}") from None
    return pi


def _file_numbering(g: MultiGraph) -> dict[int, int]:
    return {v: i for i, v in enumerate(g.vertices, start=1)}


# -- analyze -----------------------------------------------------------------


def _oracle_checks(g: MultiGraph, eq) -> dict:
    pms = enumerate_pms(g)
    groups: dict[frozenset[int], set[int]] = {}
    for e in g.edge_ids:
        incidence = frozenset(i for i, pm in enumerate(pms) if e in pm)
        groups.setdefault(incidence, set()).add(e)
    derived = tuple(sorted((frozenset(s) for s in groups.values()), key=min))
    return {
        "perfectMatchings": len(pms),
        "partitionAgrees": derived == eq.classes,
    }


def build_analysis(
    g: MultiGraph,
    source: str,
    digest: str,
    *,
    decompose: bool = False,
    oracle: bool = False,
) -> tuple[dict, int]:
    report: dict = {
        "schema": SCHEMA_VERSION,
        "input": {"source": source, "sha256": digest, "n": g.n, "m": g.m},
        "flags": {
            "matchable": is_matchable(g),
            "matchingCovered": is_matching_covered(g),
            "bipartite": g.is_bipartite,
        },
    }
    if not report["flags"]["matchingCovered"]:
        reason, edge = _mc_witness(g)
        report["witness"] = {"reason": reason, "edge": edge}
        return report, 2

    report["canonicalPartition"] = [sorted(p) for p in canonical_partition(g)]
    eq = equivalence_partition(g)
    report["equivalenceClasses"] = [sorted(c) for c in eq]
    report["epsilon"] = eq.epsilon
    if g.n > 2:
        report["removableEdges"] = list(removable_edges(g))
        report["removableClasses"] = [sorted(c) for c in removable_classes(g)]
    else:
        report["removableEdges"] = []
        report["removableClasses"] = []
    report["even2Cuts"] = [sorted(c.edges) for c in even_2cuts(g)]
    kind = classify(g)
    report["classification"] = kind
    if kind == "brick" and g.n <= SOLID_CHECK_LIMIT:
        report["solidBrick"] = is_solid_brick(g)
    else:
        report["solidBrick"] = None
    bounds = verify_bounds(g)
    report["b"] = bounds["b"]
    report["c4"] = bounds["c4"]
    report["bounds"] = bounds

    exit_code = 0
    if decompose:
        result = tight_cut_decomposition(g)
        report["decomposition"] = {
            "leaves": [
                {
                    "tag": tag,
                    "n": leaf.n,
                    "m": leaf.m,
                    "canonical": _leaf_form(leaf).digest,
                }
                for leaf, tag in result.leaves
            ],
            "splits": [
                {"kind": s.kind, "shore": list(s.shore), "edges": list(s.edges)}
                for s in result.splits
            ],
            "b": result.b,
            "c4": result.c4,
        }
    if oracle:
        checks = _oracle_checks(g, eq)
        report["oracleChecks"] = checks
        if not checks["partitionAgrees"]:
            exit_code = 2
    return report, exit_code


def _render_text(report: dict) -> str:
    inp = report["input"]
    flags = report["flags"]
    lines = [
        f"graph: {inp['source']} (n={inp['n']}, m={inp['m']})",
        "matchable: {matchable}  matching covered: {matchingCovered}  bipartite: {bipartite}".format(
            **flags
        ),
    ]
    if "witness" in report:
        w = report["witness"]
        tail = f" (edge {w['edge']})" if w["edge"] is not None else ""
        lines.append(f"reason: {w['reason']}{tail}")
        return "\n".join(lines) + "\n"
    lines.append(
        "canonical partition: "
        + "  ".join("{" + ",".join(map(str, p)) + "}" for p in report["canonicalPartition"])
    )
    lines.append(
        "equivalence classes: "
        + "  ".join("{" + ",".join(map(str, c)) + "}" for c in report["equivalenceClasses"])
    )
    lines.append(f"epsilon: {report['epsilon']}")
    lines.append(f"removable edges: {report['removableEdges']}")
    lines.append(f"removable classes: {report['removableClasses']}")
    lines.append(f"even 2-cuts: {report['even2Cuts']}")
    solid = report["solidBrick"]
    lines.append(
        f"classification: {report['classification']}"
        + (f"  solid: {solid}" if solid is not None else "")
    )
    lines.append(f"b: {report['b']}  c4: {report['c4']}")
    bounds = report["bounds"]
    for key in (
        "bipartiteBoundHolds",
        "bipartiteBoundTight",
        "nonbipartiteBoundHolds",
        "evenTwoCutFreeBoundHolds",
    ):
        if bounds[key] is not None:
            lines.append(f"{key}: {bounds[key]}")
    if "decomposition" in report:
        d = report["decomposition"]
        lines.append(
            "decomposition leaves: "
            + "  ".join(f"{leaf['tag']}(n={leaf['n']},{leaf['canonical']})" for leaf in d["leaves"])
        )
    if "oracleChecks" in report:
        oc = report["oracleChecks"]
        lines.append(
            f"oracle: {oc['perfectMatchings']} perfect matchings, "
            f"partition agrees: {oc['partitionAgrees']}"
        )
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    g, source, digest = _load(args.path)
    report, code = build_analysis(
        g, source, digest, decompose=args.decompose, oracle=args.oracle_check
    )
    if args.json:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write(_render_text(report))
    return code


# -- splice ------------------------------------------------------------------


def _write_graph(path: Path, g: MultiGraph) -> None:
    path.write_text(format_graph(g))


def cmd_splice(args) -> int:
    g1, name1, _ = _load(args.path1)
    g2, name2, _ = _load(args.path2)
    v1 = _parse_vertex(args.v1)
    v2 = _parse_vertex(args.v2)
    stem1 = Path(name1).stem
    stem2 = Path(name2).stem
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.all_variants:
        variants = splice_variants(g1, v1, g2, v2)
        ordered = sorted(variants.items(), key=lambda kv: (kv[0].n, kv[0].encoding))
        for form, result in ordered:
            path = outdir / f"{stem1}-{stem2}-{form.digest}.g"
            _write_graph(path, result.graph)
            sys.stdout.write(f"{path} canonical={form.digest}\n")
        sys.stdout.write(f"{len(ordered)} distinct canonical forms\n")
        return 0
    pi = _parse_pi(args.pi) if args.pi else None
    result = splice(SpliceSpec(g1, v1, g2, v2, pi))
    path = outdir / f"{stem1}-{stem2}-splice.g"
    _write_graph(path, result.graph)
    numbering = _file_numbering(result.graph)
    shore = sorted(numbering[v] for v in result.cut.shore)
    sys.stdout.write(f"{path}\n")
    sys.stdout.write(
        f"splicing cut: {len(result.cut.edges)} edges, "
        f"shore {{{','.join(map(str, shore))}}} in file numbering\n"
    )
    joined = sorted((e, f) for f, e in result.edge_map.items() if e in result.cut.edges)
    for left, right in joined:
        sys.stdout.write(f"  joined edge: {name1}#{left} with {name2}#{right}\n")
    return 0


# -- construct ---------------------------------------------------------------


def _trace_payload(trace, verification: Optional[dict]) -> dict:
    payload = {
        "schema": SCHEMA_VERSION,
        "p": trace.p,
        "q": trace.q,
        "anchor": trace.anchor,
        "files": {
            "base": "base.g",
            "g0": "g0.g",
            "blocks": [f"block{i}.g" for i in range(1, trace.q)],
            "stages": [f"stage{i}.g" for i in range(1, trace.q)],
        },
        "fEdges": list(trace.f_edges),
        "fLocal": list(trace.f_local),
        "cSets": [sorted(c) for c in trace.c_sets],
        "cPrimeLocal": [sorted(c) for c in trace.cprime_local],
        "cStar": sorted(trace.c_star),
        "aVertices": list(trace.a_vertices),
        "uVertices": list(trace.u_vertices),
        "b0": sorted(trace.b0),
        "cuts": [
            {"shore": sorted(c.shore), "edges": sorted(c.edges)} for c in trace.cuts
        ],
        "finalOrder": trace.final.n,
        "finalSize": trace.final.m,
    }
    if verification is not None:
        payload["verification"] = verification
    return payload


def cmd_construct(args) -> int:
    if args.p is None or args.q is None:
        raise DomainError("construct needs --p and --q")
    base = _load(args.brace)[0] if args.brace else None
    anchor = None if args.anchor is None else _parse_vertex(args.anchor)
    trace = build_high_kappa_epsilon(args.p, args.q, base, anchor)
    outdir = Path(args.out or f"construct-p{args.p}-q{args.q}")
    outdir.mkdir(parents=True, exist_ok=True)
    _write_graph(outdir / "base.g", trace.base)
    _write_graph(outdir / "g0.g", trace.g0)
    for i, block in enumerate(trace.blocks, start=1):
        _write_graph(outdir / f"block{i}.g", block)
    for i, stage in enumerate(trace.graphs, start=1):
        _write_graph(outdir / f"stage{i}.g", stage)
    code = 0
    verification = None
    if args.verify:
        try:
            verification = verify_trace(trace)
        except VerificationError as exc:
            verification = exc.report
            code = 2
        for name, row in verification.items():
            word = "PASS" if row["ok"] else "FAIL"
            sys.stdout.write(f"{word} {name}: {row['detail']}\n")
    (outdir / "trace.json").write_text(
        json.dumps(_trace_payload(trace, verification), indent=2) + "\n"
    )
    sys.stdout.write(f"wrote {outdir}/ (final graph: stage{trace.q - 1}.g)\n")
    return code


# -- corpus ------------------------------------------------------------------


def _suite_bounds(g: MultiGraph, seed: int) -> tuple[str, str]:
    vb = verify_bounds(g)
    applicable = [
        vb[key]
        for key in ("bipartiteBoundHolds", "nonbipartiteBoundHolds", "evenTwoCutFreeBoundHolds")
        if vb[key] is not None
    ]
    ok = all(applicable)
    detail = f"epsilon={vb['epsilon']} b={vb['b']} c4={vb['c4']}"
    return ("PASS" if ok else "FAIL"), detail


def _suite_uniqueness(g: MultiGraph, seed: int) -> tuple[str, str]:
    strategies = (
        "first",
        "reverse",
        f"random:{3 * seed + 1}",
        f"random:{3 * seed + 2}",
        f"random:{3 * seed + 3}",
    )
    multisets = []
    for strategy in strategies:
        result = tight_cut_decomposition(g, make_chooser(strategy))
        multisets.append(tuple(result.leaf_forms))
    ok = all(ms == multisets[0] for ms in multisets)
    detail = f"{len(multisets[0])} leaves x {len(strategies)} strategies"
    return ("PASS" if ok else "FAIL"), detail


def _suite_merging(g: MultiGraph, seed: int) -> tuple[str, str]:
    cut = find_nontrivial_tight_cut(g)
    if cut is None:
        return "SKIP", "no nontrivial tight cut"
    g1, g2 = contractions(g, cut)
    classes_g = set(equivalence_partition(g).classes)
    side1 = [c for c in equivalence_partition(g1).classes if not c & cut.edges]
    side2 = [c for c in equivalence_partition(g2).classes if not c & cut.edges]
    pairs = merges = 0
    for f1 in side1:
        for f2 in side2:
            predicted = check_merge(g, cut, f1, f2)
            actual = (f1 | f2) in classes_g
            if predicted != actual:
                return "FAIL", f"merge predicate disagrees on {sorted(f1)}+{sorted(f2)}"
            pairs += 1
            merges += predicted
    return "PASS", f"{pairs} pairs, {merges} merges"


# Each suite gets a matching covered graph: cmd_corpus skips the rest.
_SUITES = {
    "bounds": _suite_bounds,
    "uniqueness": _suite_uniqueness,
    "merging": _suite_merging,
}


def cmd_corpus(args) -> int:
    if args.check not in _SUITES:
        sys.stderr.write(
            f"error: unknown suite {args.check!r} (choose from {sorted(_SUITES)})\n"
        )
        return 1
    suite = _SUITES[args.check]
    directory = Path(args.dir)
    if not directory.is_dir():
        sys.stderr.write(f"error: not a directory: {args.dir}\n")
        return 1
    failures = 0
    rows = 0
    for path in sorted(directory.glob("*.g")):
        rows += 1
        try:
            g = parse_graph(_read(path))
        except ParseError as exc:
            sys.stdout.write(f"{path.name:<32} FAIL  {exc}\n")
            failures += 1
            continue
        if not is_matching_covered(g):
            status, detail = "SKIP", "not matching covered"
        else:
            try:
                status, detail = suite(g, args.seed)
            except CapabilityError as exc:
                status, detail = "SKIP", f"capability: {exc}"
        sys.stdout.write(f"{path.name:<32} {status:<5} {detail}\n")
        if status == "FAIL":
            failures += 1
    sys.stdout.write(f"{rows} files, {failures} failures\n")
    return 1 if failures else 0


# -- entry point ---------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="matchcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full report on one graph")
    p_analyze.add_argument("path", help="graph file, or a generator name like K4")
    p_analyze.add_argument("--json", action="store_true", help="emit the JSON report")
    p_analyze.add_argument(
        "--decompose", action="store_true", help="include the tight cut decomposition"
    )
    p_analyze.add_argument(
        "--oracle-check",
        action="store_true",
        help="cross-check the class partition against full enumeration",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_splice = sub.add_parser("splice", help="splice two graphs at a vertex pair")
    p_splice.add_argument("path1")
    p_splice.add_argument("v1")
    p_splice.add_argument("path2")
    p_splice.add_argument("v2")
    p_splice.add_argument("--pi", help="boundary bijection, e.g. 1:4,2:6,3:5")
    p_splice.add_argument(
        "--all-variants",
        action="store_true",
        help="one output file per distinct canonical form over all bijections",
    )
    p_splice.add_argument("--out", default=".", help="output directory")
    p_splice.set_defaults(func=cmd_splice)

    p_construct = sub.add_parser(
        "construct", help="high-connectivity / high-epsilon construction"
    )
    p_construct.add_argument("--p", type=int, help="connectivity target, >= 2")
    p_construct.add_argument("--q", type=int, help="epsilon target, >= 2")
    p_construct.add_argument("--brace", help="base brace graph file (default K_{p+1,p+1})")
    p_construct.add_argument(
        "--anchor", help="marked vertex of the base brace (default its least vertex)"
    )
    p_construct.add_argument(
        "--verify", action="store_true", help="re-derive every claim on the trace"
    )
    p_construct.add_argument("--out", help="output directory")
    p_construct.set_defaults(func=cmd_construct)

    p_corpus = sub.add_parser("corpus", help="run a property suite over *.g files")
    p_corpus.add_argument("--dir", required=True)
    p_corpus.add_argument(
        "--check", required=True, help="one of: bounds, uniqueness, merging"
    )
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, DomainError, OSError) as exc:
        # OSError: an --out path that cannot be made a directory or written to
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except CapabilityError as exc:
        sys.stderr.write(f"capability: {exc}\n")
        return 3
    except VerificationError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
