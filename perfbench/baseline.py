"""Reproduce the baseline rows of ROADMAP.md from traced runs.

    python3 perfbench/run.py --workload corpus-small --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload construct-verify --seed 1 --seconds 20 --trace 1
    python3 perfbench/baseline.py

reads the spans those runs wrote under .perfbench_work/ and prints one
JSON object with, per row, the figure ROADMAP.md states and the figure
measured here.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

WORK = Path(".perfbench_work")


def per_op(workload: str, op_name: str, within: str | None = None):
    """(operation seconds, {function: calls}, {function: outermost seconds})
    for one operation of a workload's traced pass; with ``within``, only
    spans nested in a span of that function count."""
    with open(WORK / workload / "spans.jsonl") as fh:
        header = json.loads(fh.readline())
        op = header["ops"].index(op_name)
        spans = [json.loads(line) for line in fh]
    names = header["names"]
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    for nid, start, end, parent, span_op, _ in spans:
        if span_op != op:
            continue
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(names[spans[p][0]])
            p = spans[p][3]
        if within is not None and within not in ancestors:
            continue
        calls[names[nid]] += 1
        if names[nid] not in ancestors:
            seconds[names[nid]] += end - start
    return header["op_seconds"][op], calls, seconds


def main() -> int:
    rows = []
    op_s, _, sec = per_op("corpus-small", "analyze --json --decompose K5,5")
    rows.append({
        "row": "analyze K5,5: share of the time in canonical_form",
        "roadmap": "98% (plain analyze)",
        "measured": f"{sec['multigraph.canonical_form'] / op_s:.1%} of {op_s:.2f} s (with --decompose)",
    })
    op_s, calls, _ = per_op("analyze-large", "analyze --json --decompose final-3-3")
    rows.append({
        "row": "(3,3) final, analyze --decompose: calls",
        "roadmap": "equivalence_partition 3x, even_2cuts 2x, ~27.7k matchable_minus",
        "measured": (f"equivalence_partition {calls['dependence.equivalence_partition']}x, "
                     f"even_2cuts {calls['structure.even_2cuts']}x, "
                     f"{calls['matching.matchable_minus']} matchable_minus, {op_s:.2f} s traced"),
    })
    for p, q, stated in ((3, 3, "0.27 / 0.59 s"), (3, 4, "0.63 / 1.62 s"), (4, 3, "0.51 / 1.26 s")):
        op = f"construct --verify p={p} q={q}"
        _, _, sec = per_op("construct-verify", op, within="generators.verify_trace")
        _, _, outer = per_op("construct-verify", op)
        vc, vt = sec["structure.vertex_connectivity"], outer["generators.verify_trace"]
        rows.append({
            "row": f"verify_trace ({p},{q}): vertex_connectivity / verify_trace",
            "roadmap": stated,
            "measured": f"{vc:.2f} / {vt:.2f} s ({vc / vt:.0%})",
        })
    json.dump(rows, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
