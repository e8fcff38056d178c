"""Parent/change benchmark pairs, written to a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \
        [--workload W ...] [--seed S ...] [--pairs 10] [--trace] [--append]

DIR is a checkout holding ``perfbench/run.py`` and ``src/``; each run
benchmarks the code of its own checkout.  Per side, ``src_dirty``
records whether ``src/`` differs from the checkout's commit when the
runs start, and ``src_tree`` the git tree id of the committed ``src/``,
or null when it is dirty, since that id would then name code other than
what ran.  ``src_lines`` is the total line count of
``src/matchcover/*.py`` when the runs start (what ``wc -l`` sums), so
the file carries the size of each side next to its speed.  For every
workload and seed, ``--pairs`` pairs run one after the other, the
parent first in even pairs and the change first in odd ones, so that a
drift in the host's speed falls on both sides alike.  With ``--trace`` one traced run per side follows, and its
per-layer metrics are kept with their change-minus-parent deltas.

The output holds every run (its result line), and per workload@seed and
end-to-end metric each side's median and quartiles, the pairs the
change won, the gap between the medians, and three verdicts:

- ``past_bound``: the change's median is worse than the parent's by more
  than the metric's ``BENCHMARK.json`` bound, taken as a share of the
  parent's median;
- ``unresolved``: the parent's own runs spread wider than that bound
  (their interquartile range is above bound x median), so a median
  within the bound shows nothing, unless every change run beats every
  parent run;
- ``claim_met``: a gain may be claimed, as the change won at least nine
  tenths of the pairs (ties count for neither side) and its median is
  better than the parent's by more than the parent's interquartile range.

At the end one line per workload@seed run sums this up.
``--append`` merges into an existing file, replacing only the
workload@seed entries run again.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _run(checkout: Path, workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"error: no result line from {checkout}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    return result


def _git(checkout: Path, *args: str) -> str:
    done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip()


def _src_dirty(checkout: Path) -> bool:
    """Does the checkout's ``src/`` hold uncommitted or untracked files?"""
    return bool(_git(checkout, "status", "--porcelain", "--", "src"))


def _src_lines(checkout: Path) -> int:
    """The total line count of the checkout's ``src/matchcover/*.py``."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "matchcover").glob("*.py"))


def _spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _summary(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per end-to-end metric (name -> its ``BENCHMARK.json`` entry, with
    ``better`` and ``bound``), both sides' spread over ``runs``."""
    out = {}
    for name, spec in metrics.items():
        value = {side: [r["metrics"][name]["value"] for r in runs if r["side"] == side]
                 for side in SIDES}
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(value["parent"], value["change"]))
        row = {side: {**_spread(value[side]), "runs": value[side]} for side in SIDES}
        row["change_wins"] = wins
        row["pairs"] = len(value["change"])
        row["median_gap"] = row["parent"]["median"] - row["change"]["median"]
        row["parent_iqr"] = row["parent"]["q3"] - row["parent"]["q1"]
        worse = sign * (row["change"]["median"] - row["parent"]["median"])
        row["past_bound"] = worse > spec["bound"] * abs(row["parent"]["median"])
        separated = max(sign * c for c in value["change"]) < min(sign * p for p in value["parent"])
        row["unresolved"] = (row["parent_iqr"] > spec["bound"] * abs(row["parent"]["median"])
                             and not separated)
        row["claim_met"] = 10 * wins >= 9 * row["pairs"] and -worse > row["parent_iqr"]
        out[name] = row
    return out


def _summary_line(key: str, summary: dict) -> str:
    """wall_s's medians and wins, and the metrics past their bound,
    unresolved, and with a gain that may be claimed."""
    wall = summary["wall_s"]

    def names(verdict: str) -> str:
        return ", ".join(name for name, row in summary.items() if row[verdict]) or "none"

    return (f"{key}: wall_s {wall['parent']['median']:.4g} -> {wall['change']['median']:.4g} s, "
            f"change won {wall['change_wins']}/{wall['pairs']}; "
            f"past bound: {names('past_bound')}; unresolved: {names('unresolved')}; "
            f"claim met: {names('claim_met')}")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workload", action="extend", nargs="+", required=True)
    ap.add_argument("--seed", type=int, action="extend", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--append", action="store_true")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    dirty = {side: _src_dirty(path) for side, path in checkouts.items()}
    tree = {side: None if dirty[side] else _git(path, "rev-parse", "HEAD:src") or None
            for side, path in checkouts.items()}
    lines = {side: _src_lines(path) for side, path in checkouts.items()}

    bench = json.loads(args.out.read_text()) if args.append and args.out.exists() else {}
    bench.setdefault("runs", [])
    bench.setdefault("summary", {})
    bench.setdefault("traced", {})
    for workload in args.workload:
        for seed in args.seed:
            key = f"{workload}@{seed}"
            bench["runs"] = [r for r in bench["runs"] if r["key"] != key]
            runs = []
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = _run(checkouts[side], workload, seed, False)
                    result.update(key=key, pair=pair, side=side, first=order[0])
                    runs.append(result)
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{key} pair {pair} {side}: wall_s {wall:.4g} "
                          f"correct {result['correct']}", flush=True)
            bench["runs"] += runs
            bench["summary"][key] = _summary(runs, metrics)
            if args.trace:
                traced = {}
                for side in SIDES:
                    layers = _run(checkouts[side], workload, seed, True)["metrics"]
                    traced[side] = {k: v["value"] for k, v in layers.items()}
                traced["delta"] = {k: traced["change"][k] - traced["parent"].get(k, 0)
                                   for k in traced["change"]}
                bench["traced"][key] = traced
    bench["src_dirty"] = dirty
    bench["src_tree"] = tree
    bench["src_lines"] = lines
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    for workload in args.workload:
        for seed in args.seed:
            key = f"{workload}@{seed}"
            print(_summary_line(key, bench["summary"][key]))
    return 0 if all(r["correct"] for r in bench["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
