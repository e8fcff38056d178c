import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

import matchcover.cli
from matchcover.cli import main
from matchcover.generators import named_graph
from matchcover.matching import is_admissible, is_matchable, is_matching_covered
from matchcover.multigraph import MultiGraph, canonical_form, format_graph, parse_graph

from conftest import big_brace_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_named_graph(capsys):
    code, out, _ = run(capsys, "analyze", "C6")
    assert code == 0
    assert "epsilon: 3" in out
    assert "b: 0  c4: 2" in out
    assert "matching covered: True" in out


def test_analyze_json_report(capsys):
    code, out, _ = run(capsys, "analyze", "C6bar", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["epsilon"] == 2
    assert report["classification"] == "brick"
    assert report["solidBrick"] is False
    assert report["b"] == 1 and report["c4"] == 0
    assert sorted(map(sorted, report["equivalenceClasses"])) == [
        [1, 4], [2, 5], [3, 6], [7], [8], [9],
    ]


def test_analyze_file(tmp_path, capsys):
    path = tmp_path / "pet.g"
    path.write_text(format_graph(named_graph("petersen")))
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["input"]["n"] == 10
    assert report["epsilon"] == 1
    assert report["classification"] == "brick"


def test_analyze_decompose_and_oracle(capsys):
    code, out, _ = run(capsys, "analyze", "C8", "--json", "--decompose", "--oracle-check")
    assert code == 0
    report = json.loads(out)
    assert report["decomposition"]["b"] == 0
    assert report["decomposition"]["c4"] == 3
    assert len(report["decomposition"]["leaves"]) == 3
    assert report["oracleChecks"]["partitionAgrees"] is True
    assert report["oracleChecks"]["perfectMatchings"] == 2


def test_analyze_not_matching_covered(tmp_path, capsys):
    path = tmp_path / "p4.g"
    path.write_text("p 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 2
    report = json.loads(out)
    assert report["flags"]["matchingCovered"] is False
    assert report["witness"]["reason"] == "inadmissible edge"
    assert report["witness"]["edge"] == 2


def test_analyze_odd_order_witness(tmp_path, capsys):
    path = tmp_path / "p3.g"
    path.write_text("p 3 2\ne 1 2\ne 2 3\n")
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 2
    assert json.loads(out)["witness"]["reason"] == "odd order"


@pytest.mark.parametrize(
    "text, reason",
    [
        ("p 1 0\n", "order below 2"),
        ("p 4 2\ne 1 2\ne 3 4\n", "disconnected"),
        ("p 4 3\ne 1 2\ne 1 3\ne 1 4\n", "no perfect matching"),
    ],
    ids=["single-vertex", "two-edges", "star"],
)
def test_analyze_witness_names_the_first_failed_condition(tmp_path, capsys, text, reason):
    path = tmp_path / "g.g"
    path.write_text(text)
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 2
    assert json.loads(out)["witness"] == {"reason": reason, "edge": None}


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "no-such-thing")
    assert code == 1
    assert "error" in err


def test_analyze_parse_error_line_number(tmp_path, capsys):
    path = tmp_path / "bad.g"
    path.write_text("p 2 1\ne 1 5\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "line 2" in err


def _unreadable(tmp_path: Path, kind: str) -> Path:
    # A directory named like a graph file, or Latin-1 text.
    path = tmp_path / f"{kind}.g"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes("p 2 1\ne 1 2\n# caf\u00e9\n".encode("latin-1"))
    return path


@pytest.mark.parametrize("kind", ["directory", "latin-1"])
@pytest.mark.parametrize("command", ["analyze", "splice", "construct"])
def test_unreadable_graph_file_is_an_input_error(tmp_path, capsys, command, kind):
    path = str(_unreadable(tmp_path, kind))
    argv = {
        "analyze": ["analyze", path],
        "splice": ["splice", "K4", "1", path, "1", "--out", str(tmp_path / "out")],
        "construct": ["construct", "--p", "2", "--q", "2", "--brace", path,
                      "--out", str(tmp_path / "out")],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and path in err
    assert ("Is a directory" if kind == "directory" else "not UTF-8 text") in err


def test_corpus_reports_unreadable_files_and_goes_on(tmp_path, capsys):
    _unreadable(tmp_path, "directory")
    _unreadable(tmp_path, "latin-1")
    (tmp_path / "k4.g").write_text(format_graph(named_graph("K4")))
    code, out, _ = run(capsys, "corpus", "--dir", str(tmp_path), "--check", "bounds")
    assert code == 1
    rows = out.splitlines()
    assert rows[0].startswith("directory.g") and "FAIL  cannot read" in rows[0]
    assert rows[1].startswith("k4.g") and "PASS" in rows[1]
    assert rows[2].startswith("latin-1.g") and "FAIL" in rows[2]
    assert rows[3] == "3 files, 2 failures"


def test_not_matching_covered_witness_is_the_first_inadmissible_edge(capsys, tmp_path):
    # Seeded even, connected, matchable graphs with inadmissible edges:
    # the witness is the lowest edge id in no perfect matching.
    rng = random.Random(5)
    seen = 0
    while seen < 6:
        g = MultiGraph(8)
        for u, v in rng.sample(list(itertools.combinations(range(1, 9), 2)), 10):
            g = g.add_edge(u, v)[0]
        if not g.is_connected or not is_matchable(g) or is_matching_covered(g):
            continue
        seen += 1
        path = tmp_path / f"g{seen}.g"
        path.write_text(format_graph(g))
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 2
        first = min(e for e in g.edge_ids if not is_admissible(g, e))
        assert json.loads(out)["witness"] == {"reason": "inadmissible edge", "edge": first}


def test_analyze_deterministic_bytes(capsys):
    _, out1, _ = run(capsys, "analyze", "fig2b", "--json", "--decompose")
    _, out2, _ = run(capsys, "analyze", "fig2b", "--json", "--decompose")
    assert out1 == out2


def test_splice_command(tmp_path, capsys):
    code, out, _ = run(
        capsys, "splice", "K4", "v1", "K4", "v1", "--out", str(tmp_path)
    )
    assert code == 0
    written = tmp_path / "K4-K4-splice.g"
    assert written.exists()
    g = parse_graph(written.read_text())
    assert canonical_form(g) == canonical_form(named_graph("C6bar"))
    assert out == (
        f"{written}\n"
        "splicing cut: 3 edges, shore {1,2,3} in file numbering\n"
        "  joined edge: K4#1 with K4#1\n"
        "  joined edge: K4#2 with K4#2\n"
        "  joined edge: K4#3 with K4#3\n"
    )


def test_splice_written_file_round_trips(tmp_path, capsys):
    run(capsys, "splice", "W5", "hub", "W5", "hub", "--out", str(tmp_path))
    written = tmp_path / "W5-W5-splice.g"
    text = written.read_text()
    assert format_graph(parse_graph(text)) == text


def test_splice_all_variants(tmp_path, capsys):
    code, out, _ = run(
        capsys, "splice", "W5", "1", "W5", "1", "--all-variants", "--out", str(tmp_path)
    )
    assert code == 0
    files = sorted(tmp_path.glob("*.g"))
    assert len(files) >= 2
    forms = {canonical_form(parse_graph(p.read_text())) for p in files}
    assert canonical_form(named_graph("petersen")) in forms
    assert f"{len(files)} distinct canonical forms" in out


def test_splice_degree_mismatch_exit_code(capsys):
    code, _, err = run(capsys, "splice", "K4", "1", "C6", "1")
    assert code == 1
    assert "error" in err


def test_splice_custom_pi(tmp_path, capsys):
    code, out, _ = run(
        capsys, "splice", "K4", "1", "K4", "1", "--pi", "1:2,2:1,3:3", "--out", str(tmp_path)
    )
    assert code == 0
    assert out == (
        f"{tmp_path / 'K4-K4-splice.g'}\n"
        "splicing cut: 3 edges, shore {1,2,3} in file numbering\n"
        "  joined edge: K4#1 with K4#2\n"
        "  joined edge: K4#2 with K4#1\n"
        "  joined edge: K4#3 with K4#3\n"
    )


def test_construct_and_verify(tmp_path, capsys):
    out_dir = tmp_path / "c"
    code, out, _ = run(
        capsys, "construct", "--p", "2", "--q", "2", "--verify", "--out", str(out_dir)
    )
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 10
    for name in ("base.g", "g0.g", "block1.g", "stage1.g", "trace.json"):
        assert (out_dir / name).exists()
    trace = json.loads((out_dir / "trace.json").read_text())
    assert trace["p"] == 2 and trace["q"] == 2
    assert all(row["ok"] for row in trace["verification"].values())
    # written stage re-parses to the constructed graph
    stage = parse_graph((out_dir / "stage1.g").read_text())
    assert stage.n == trace["finalOrder"]


@pytest.mark.parametrize(
    "argv",
    [("splice", "K4", "1", "K4", "1"), ("construct", "--p", "2", "--q", "2")],
    ids=["splice", "construct"],
)
def test_out_naming_a_plain_file_is_an_input_error(tmp_path, capsys, argv):
    afile = tmp_path / "afile"
    afile.write_text("")
    code, out, err = run(capsys, *argv, "--out", str(afile))
    assert code == 1
    assert err.startswith("error: ") and "File exists" in err
    assert "Traceback" not in err and out == ""
    assert afile.read_text() == ""


def test_construct_reads_the_anchor_without_a_brace(tmp_path, capsys):
    # The default base K3,3 is marked at --anchor as given; trace.json
    # records it and carries no "misrouted" key.
    out_dir = tmp_path / "c"
    code, out, _ = run(
        capsys, "construct", "--p", "2", "--q", "2", "--anchor", "4", "--verify",
        "--out", str(out_dir),
    )
    assert code == 0 and "FAIL" not in out
    trace = json.loads((out_dir / "trace.json").read_text())
    assert trace["anchor"] == 4 and "misrouted" not in trace


def test_construct_refuses_an_anchor_outside_the_default_brace(tmp_path, capsys):
    out_dir = tmp_path / "c"
    code, out, err = run(
        capsys, "construct", "--p", "2", "--q", "2", "--anchor", "99", "--out", str(out_dir)
    )
    assert code == 1 and out == ""
    assert "anchor 99 is not a vertex of the base graph" in err
    assert not out_dir.exists()


def test_construct_rejects_p_below_two(capsys):
    code, _, err = run(capsys, "construct", "--p", "1", "--q", "2")
    assert code == 1
    assert "error" in err


def test_construct_requires_p_and_q(capsys):
    code, _, _ = run(capsys, "construct", "--p", "2")
    assert code == 1


def test_corpus_bounds(tmp_path, capsys):
    for name in ("C6", "K4", "C6bar"):
        (tmp_path / f"{name}.g").write_text(format_graph(named_graph(name)))
    code, out, _ = run(capsys, "corpus", "--dir", str(tmp_path), "--check", "bounds")
    assert code == 0
    assert "3 files, 0 failures" in out
    assert out.count("PASS") == 3


def test_corpus_skips_non_mc(tmp_path, capsys):
    (tmp_path / "p4.g").write_text("p 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    (tmp_path / "c6.g").write_text(format_graph(named_graph("C6")))
    code, out, _ = run(capsys, "corpus", "--dir", str(tmp_path), "--check", "uniqueness")
    assert code == 0
    assert "SKIP" in out and "PASS" in out


def test_corpus_empty_dir(tmp_path, capsys):
    code, out, _ = run(capsys, "corpus", "--dir", str(tmp_path), "--check", "bounds")
    assert code == 0
    assert "0 files, 0 failures" in out


def test_corpus_unknown_suite(tmp_path, capsys):
    code, _, err = run(capsys, "corpus", "--dir", str(tmp_path), "--check", "nonsense")
    assert code == 1
    assert "unknown suite" in err


def test_corpus_missing_dir(capsys):
    code, _, err = run(capsys, "corpus", "--dir", "/no/such/dir", "--check", "bounds")
    assert code == 1


def test_corpus_merging_seeded(tmp_path, capsys):
    from matchcover.splicing import SpliceSpec, splice

    res = splice(SpliceSpec(named_graph("K3,3"), 1, named_graph("K3,3"), 1))
    (tmp_path / "bip.g").write_text(format_graph(res.graph))
    code, out, _ = run(
        capsys, "corpus", "--dir", str(tmp_path), "--check", "merging", "--seed", "0"
    )
    assert code == 0
    assert "pairs" in out


def test_unknown_command_exits_one(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_no_arguments_exits_one(capsys):
    code, _, _ = run(capsys)
    assert code == 1


def test_main_calls_in_one_process_match_fresh_parsers(tmp_path, capsys):
    # The parser is built once per process: each call, a usage error and
    # --help among them, gives the output and exit code of a fresh parser.
    calls = [
        ("analyze", "K4"),
        ("splice", "K4", "1", "--bogus"),
        ("splice", "K4", "1", "K4", "1", "--out", str(tmp_path)),
        ("corpus", "--dir", str(tmp_path), "--check", "bounds"),
        ("analyze", "--help"),
        ("analyze", "K3,3", "--json"),
        (),
    ]
    alone = []
    for argv in calls:
        matchcover.cli._build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    matchcover.cli._build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == alone
    assert matchcover.cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in alone] == [0, 1, 0, 0, 0, 0, 1]


def test_console_script_entry_point():
    import os
    import subprocess
    import sys

    import matchcover

    # the child imports the same matchcover as this process, installed or not
    src = str(Path(matchcover.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "matchcover.cli", "analyze", "C6"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "epsilon: 3" in proc.stdout


GOLDEN_ANALYZE = json.loads((Path(__file__).parent / "golden_analyze.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_ANALYZE))
def test_analyze_decompose_report_is_unchanged(capsys, name):
    code, out, _ = run(capsys, "analyze", name, "--json", "--decompose")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ANALYZE[name]


def test_analyze_decompose_forms_a_brace_leaf_past_24_vertices(capsys, tmp_path):
    # The leaf digests need a canonical form of a 28-vertex brace; they
    # do not depend on the input's labels.
    g = big_brace_graph()
    image = list(g.vertices)
    random.Random(1).shuffle(image)
    to = dict(zip(g.vertices, image))
    relabeled = MultiGraph(g.n, [tuple(to[x] for x in g.endpoints(e)) for e in g.edge_ids])
    digests = []
    for name, h in (("g.txt", g), ("relabeled.txt", relabeled)):
        path = tmp_path / name
        path.write_text(format_graph(h))
        code, out, _ = run(capsys, "analyze", str(path), "--json", "--decompose")
        assert code == 0
        leaves = json.loads(out)["decomposition"]["leaves"]
        assert any(leaf["tag"] == "brace" and leaf["n"] > 24 for leaf in leaves)
        digests.append(sorted(leaf["canonical"] for leaf in leaves))
    assert digests[0] == digests[1]


def test_analyze_k66_needs_no_canonical_form(capsys):
    code, out, _ = run(capsys, "analyze", "K6,6", "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["b"], report["c4"], report["classification"]) == (0, 0, "brace")


def test_readme_analyze_transcript_matches_the_cli(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("$ matchcover analyze C6bar\n", 1)[1].split("```", 1)[0]
    code, out, _ = run(capsys, "analyze", "C6bar")
    assert code == 0
    assert out == block


@pytest.mark.parametrize("name, solid", [("W13", True), ("W15", None)])
def test_solidity_is_asked_only_up_to_the_solid_check_limit(capsys, name, solid):
    # W13 has 14 vertices, at cli.SOLID_CHECK_LIMIT; W15 has 16 and gets
    # null with no refusal.
    code, out, _ = run(capsys, "analyze", name, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == "brick"
    assert report["solidBrick"] is solid
