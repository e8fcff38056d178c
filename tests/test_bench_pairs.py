"""Argument parsing and the pair summary of ``tools/bench_pairs.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_SIDES = ["--parent", "p", "--change", "c", "--out", "o.json"]


def test_workloads_and_seeds_take_several_values_per_flag():
    args = bench_pairs._parser().parse_args(
        _SIDES + ["--workload", "corpus-small", "analyze-large", "--seed", "7", "8"]
    )
    assert args.workload == ["corpus-small", "analyze-large"]
    assert args.seed == [7, 8]


def test_repeated_flags_still_accumulate():
    args = bench_pairs._parser().parse_args(
        _SIDES + ["--workload", "a", "--workload", "b", "c", "--seed", "1", "--seed", "2"]
    )
    assert args.workload == ["a", "b", "c"]
    assert args.seed == [1, 2]


def test_workload_and_seed_are_required():
    with pytest.raises(SystemExit):
        bench_pairs._parser().parse_args(_SIDES + ["--seed", "7"])


_METRICS = {
    "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
    "ok_share": {"name": "ok_share", "better": "higher", "bound": 0.05},
}


def _runs(parent: dict[str, list[float]], change: dict[str, list[float]]) -> list[dict]:
    # Synthetic result lines: one run per side and pair.
    runs = []
    for side, values in (("parent", parent), ("change", change)):
        for pair in range(len(values["wall_s"])):
            metrics = {name: {"value": values[name][pair]} for name in values}
            runs.append({"side": side, "pair": pair, "metrics": metrics})
    return runs


def test_summary_marks_a_median_worse_than_its_bound():
    runs = _runs(
        {"wall_s": [1.0, 1.0, 1.0], "ok_share": [1.0, 1.0, 1.0]},
        {"wall_s": [1.3, 1.2, 1.3], "ok_share": [0.9, 0.9, 1.0]},
    )
    summary = bench_pairs._summary(runs, _METRICS)
    assert summary["wall_s"]["past_bound"] and summary["ok_share"]["past_bound"]
    assert summary["wall_s"]["change_wins"] == 0
    line = bench_pairs._summary_line("w@7", summary)
    assert line == ("w@7: wall_s 1 -> 1.3 s, change won 0/3; past bound: wall_s, ok_share; "
                    "unresolved: none; claim met: none")


def test_summary_keeps_a_change_within_its_bound_or_better():
    runs = _runs(
        {"wall_s": [1.0, 1.0, 1.0], "ok_share": [1.0, 1.0, 1.0]},
        {"wall_s": [1.2, 0.8, 1.25], "ok_share": [0.96, 1.0, 1.0]},
    )
    summary = bench_pairs._summary(runs, _METRICS)
    assert not summary["wall_s"]["past_bound"] and not summary["ok_share"]["past_bound"]
    assert summary["wall_s"]["change_wins"] == 1
    line = bench_pairs._summary_line("w@7", summary)
    assert line == ("w@7: wall_s 1 -> 1.2 s, change won 1/3; past bound: none; "
                    "unresolved: none; claim met: none")
    faster = _runs({"wall_s": [1.0], "ok_share": [0.5]}, {"wall_s": [0.1], "ok_share": [1.0]})
    summary = bench_pairs._summary(faster, _METRICS)
    assert not any(row["past_bound"] for row in summary.values())


def test_summary_marks_a_parent_spread_wider_than_the_bound_unresolved():
    # The parent's quartiles 0.9 and 1.3 lie 0.4 apart, past 0.25 x its
    # median 1.0, so a change median within the bound shows nothing.
    parent = {"wall_s": [1.0, 1.6, 0.7, 1.3, 0.9], "ok_share": [0.5, 1.0, 0.6, 0.9, 0.55]}
    runs = _runs(parent, {"wall_s": [1.0, 1.1, 0.95, 1.2, 1.0],
                          "ok_share": [0.7, 0.8, 0.6, 0.9, 0.7]})
    summary = bench_pairs._summary(runs, _METRICS)
    assert summary["wall_s"]["unresolved"] and summary["ok_share"]["unresolved"]
    assert not summary["wall_s"]["past_bound"]
    line = bench_pairs._summary_line("w@7", summary)
    assert line.endswith("past bound: none; unresolved: wall_s, ok_share; claim met: none")
    # Unless every change run beats every parent run, whichever way is better.
    runs = _runs(parent, {"wall_s": [0.6, 0.5, 0.65, 0.6, 0.62],
                          "ok_share": [1.01, 1.02, 1.05, 1.1, 1.01]})
    summary = bench_pairs._summary(runs, _METRICS)
    assert not summary["wall_s"]["unresolved"] and not summary["ok_share"]["unresolved"]
    # One change run that ties the parent's best leaves it unresolved.
    runs = _runs(parent, {"wall_s": [0.6, 0.5, 0.7, 0.6, 0.62],
                          "ok_share": [1.01, 1.02, 1.05, 1.1, 1.0]})
    summary = bench_pairs._summary(runs, _METRICS)
    assert summary["wall_s"]["unresolved"] and summary["ok_share"]["unresolved"]


def _ten_pairs(change_wall: list[float]) -> dict:
    # Parent wall_s 1.00 .. 1.09: median 1.045, quartiles 1.0225 and 1.0675.
    parent = [1.0 + i / 100 for i in range(10)]
    runs = _runs({"wall_s": parent, "ok_share": [1.0] * 10},
                 {"wall_s": change_wall, "ok_share": [1.0] * 10})
    return bench_pairs._summary(runs, _METRICS)["wall_s"]


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parent_iqr():
    # Nine wins, and the median gap 0.085 beats the parent's IQR 0.045.
    row = _ten_pairs([0.95] * 9 + [1.5])
    assert row["change_wins"] == 9 and row["claim_met"]
    # Eight wins are too few, however large the gap.
    row = _ten_pairs([0.5] * 8 + [1.5, 1.5])
    assert row["change_wins"] == 8 and not row["claim_met"]
    # Every pair won, but the medians lie closer than the parent's IQR.
    row = _ten_pairs([1.0 + i / 100 - 0.005 for i in range(10)])
    assert row["change_wins"] == 10 and row["median_gap"] < row["parent_iqr"]
    assert not row["claim_met"]
    # A tie counts for neither side.
    row = _ten_pairs([1.0] + [0.9] * 9)
    assert row["change_wins"] == 9 and row["claim_met"]
    row = _ten_pairs([1.0, 1.01] + [0.9] * 8)
    assert row["change_wins"] == 8 and not row["claim_met"]
    line = bench_pairs._summary_line("w@7", {"wall_s": _ten_pairs([0.95] * 10)})
    assert line.endswith("past bound: none; unresolved: none; claim met: wall_s")


def test_main_traces_every_workload(tmp_path, monkeypatch):
    # The traced run's metrics must not replace the end-to-end metric
    # table that the next workload's summary reads.
    for side in ("p", "c"):
        (tmp_path / side).mkdir()
    spec = {"end_to_end": list(_METRICS.values())}
    (tmp_path / "c" / "BENCHMARK.json").write_text(json.dumps(spec))

    def run(checkout, workload, seed, trace):
        names = ["wall_s", "ok_share"] + (["layer.calls"] if trace else [])
        return {"correct": True, "metrics": {name: {"value": 1.0} for name in names}}

    monkeypatch.setattr(bench_pairs, "_run", run)
    monkeypatch.setattr(bench_pairs, "_git", lambda checkout, *args: "tree")
    monkeypatch.setattr(bench_pairs, "_src_dirty", lambda checkout: False)
    monkeypatch.setattr(bench_pairs, "_src_lines", lambda checkout: 10)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
            "--out", str(out), "--workload", "a", "b", "--seed", "7",
            "--pairs", "1", "--trace"]
    assert bench_pairs.main(argv) == 0
    bench = json.loads(out.read_text())
    assert sorted(bench["summary"]) == sorted(bench["traced"]) == ["a@7", "b@7"]
    assert all(set(row) == set(_METRICS) for row in bench["summary"].values())
    assert all(t["delta"] == {"layer.calls": 0.0, "ok_share": 0.0, "wall_s": 0.0}
               for t in bench["traced"].values())
