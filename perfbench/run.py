"""matchcover benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process drives the library's
public entry points (the CLI's ``main`` in-process, or library calls),
one operation at a time: a closed loop with a single client and no
threads.  Passes over the workload's operations repeat while another
pass still fits in ``--seconds``; at least MIN_PASSES always run.

Times are taken at the host's reference speed.  On a shared 2-vCPU
cloud VM the speed of the same Python code moves by 20-35% between
25-second windows, in phases of seconds to minutes, so raw run times of
the same code disagree by more than the changes they are meant to show.
A fixed piece of work (``_reference``) is therefore timed about every
REF_EVERY_S seconds, between operations and, from a timer signal,
inside them; its runs are taken out of the operations' times, and each
timed interval (an operation, or a set-up) is scaled by REF_NOMINAL_S
over the median of the reference times near it (``Speed.scaled``):
seconds as they would read on that VM at its usual speed.  In a 150-second trial on it that
alternated the reference with matchcover calls, the medians of six
windows spanned 34% (10 ms calls) and 29% (0.4 s calls) of their
median in raw time, 4% in scaled time; a plain integer loop as the
reference left 15% and 9%.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics (see BENCHMARK.json):

- setup_s: median scaled wall time of fresh interpreters that import
  matchcover and build the workload's inputs, SETUP_FIRST before the
  operations start and then one about every SETUP_EVERY_S seconds
  between them;
- wall_s: the time of one pass at every operation's median scaled time
  over the passes, i.e. the sum of those medians;
- op_p50_ms, op_p90_ms: over the operations' median scaled times, one
  sample per distinct operation (the count is printed above the JSON
  line);
- ok_share: operations that were neither refused nor failed, over those
  attempted (the fail share is ``failed / attempted`` in the same line);
- peak_rss_mb: peak resident memory of this process.

With ``--trace 1`` a traced pass runs between two untraced ones, and
the metrics are the per-layer counts and raw times of the traced pass
(see tracer.py), with the tracing overhead as its scaled time minus the
mean scaled time of the untraced passes; the spans are written to
``.perfbench_work/<workload>/spans.jsonl``.

Every answer is checked (workloads.py).  A refusal (CapabilityError,
exit 3) is a failed operation but not a wrong one; a wrong answer or a
crash makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer, metric_units

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
SETUP_FIRST = 3  # set-ups before the first operation
SETUP_EVERY_S = 2.5  # then one after the operation that ends this long after the last
MIN_PASSES = 2
REF_ITEMS = 24_000
REF_NOMINAL_S = 0.010  # about the reference's median time on that VM
REF_EVERY_S = 0.25
REF_WINDOW_S = 1.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    """Import matchcover from this checkout's sources, never from an
    installed copy."""
    package = SRC / "matchcover"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no matchcover sources at {package}")
    sys.path.insert(0, str(SRC))
    import matchcover

    if Path(matchcover.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported matchcover from {matchcover.__file__}")
    return matchcover


def _reference() -> int:
    """A fixed piece of dict, list and set work, like the engines' own."""
    buckets: dict[int, list[int]] = {}
    for i in range(REF_ITEMS):
        buckets.setdefault(i * 7919 % (REF_ITEMS // 3), []).append(i)
    seen = set()
    for members in buckets.values():
        for v in members:
            if v not in seen:
                seen.add(v)
    return len(seen)


class Speed:
    """Times of the reference, taken between operations and, from a
    timer signal, about every REF_EVERY_S seconds inside them; and the
    scale they give a timed interval."""

    def __init__(self):
        self.at: list[float] = []  # end of each reference run
        self.took: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())

    def sample(self) -> None:
        t0 = perf_counter()
        _reference()
        t1 = perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def due(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= REF_EVERY_S:
            self.sample()

    def timer(self, on: bool) -> None:
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S if on else 0, REF_EVERY_S if on else 0)

    def own(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] less the reference runs inside it."""
        i = bisect.bisect_right(self.at, t0)
        j = bisect.bisect_right(self.at, t1)
        return t1 - t0 - sum(self.took[i:j])

    def scaled(self, t0: float, t1: float) -> float:
        """``own(t0, t1)`` at the reference speed: scaled by the median
        of the reference times inside [t0, t1] and within REF_WINDOW_S
        of it, always with the last one before it and the first one
        after it."""
        i = bisect.bisect_left(self.at, t0 - REF_WINDOW_S)
        j = bisect.bisect_right(self.at, t1 + REF_WINDOW_S)
        i = min(i, max(bisect.bisect_left(self.at, t0) - 1, 0))
        j = max(j, bisect.bisect_right(self.at, t1) + 1)
        return self.own(t0, t1) * REF_NOMINAL_S / statistics.median(self.took[i:j])


class Setup:
    """Times fresh interpreters that import the program and build the
    workload's inputs, and keeps the input digests they report.  After
    the first few, ``due`` spreads the rest over the run, so that they
    meet the host's speed at the same moments as the operations do."""

    def __init__(self, args, speed: Speed):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.speed = speed
        self.spans: list[tuple[float, float]] = []
        self.digests: set[str] = set()
        self.last = perf_counter()

    def run(self) -> None:
        self.speed.due()
        t0 = perf_counter()
        done = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        self.last = perf_counter()
        self.spans.append((t0, self.last))
        self.speed.sample()
        if done.returncode != 0:
            raise SystemExit(f"error: set-up failed: {done.stderr.strip()}")
        self.digests.add(done.stdout.strip())

    def due(self) -> None:
        if perf_counter() - self.last >= SETUP_EVERY_S:
            self.run()


def _run_op(op, errors, speed=None) -> tuple[str, str, float, float]:
    """(status, message, start, end); only the call itself is timed.
    With ``speed`` its timer runs the reference inside the call."""
    status, message = "ok", ""
    if speed is not None:
        speed.timer(True)
    t0 = perf_counter()
    try:
        outcome = op.run()
    except errors.CapabilityError as exc:
        status, message = "refused", str(exc)
    except errors.MatchcoverError as exc:
        status, message = "wrong", f"{type(exc).__name__}: {exc}"
    except Exception:  # a crash is a failed operation, reported below
        status, message = "crash", traceback.format_exc()
    finally:
        t1 = perf_counter()
        if speed is not None:
            speed.timer(False)
    if status == "ok":
        try:
            op.check(outcome)
        except workloads.Refused as exc:
            status, message = "refused", str(exc)
        except workloads.Wrong as exc:
            status, message = "wrong", str(exc)
    return status, message, t0, t1


def _run_pass(ops, errors, outcomes, speed, setup=None, tracer=None) -> None:
    """One pass over the operations, appending (operation index, status,
    message, start, end) to ``outcomes``.  The reference runs between
    operations when due, and inside them unless traced (it would land
    in the spans); with ``setup`` the set-ups that are due run between
    operations too."""
    for i, op in enumerate(ops):
        speed.due()
        # Every operation starts from the same heap and collector counts,
        # so the collections it triggers do not depend on what ran before.
        gc.collect()
        if tracer is not None:
            tracer.op_id = i
        status, message, t0, t1 = _run_op(op, errors, speed if tracer is None else None)
        if tracer is not None:
            tracer.op_seconds.append(t1 - t0)
        outcomes.append((i, status, message, t0, t1))
        if setup is not None:
            setup.due()
    speed.sample()


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    matchcover = _import_program()
    os.chdir(ROOT)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    work = WORK / args.workload
    # Not every workload writes input files, but every run writes its
    # operation log (and, traced, its spans) here.
    work.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        print(workloads.build(args.workload, args.seed, work)[1])
        return 0

    speed = Speed()
    setup = Setup(args, speed)
    for _ in range(SETUP_FIRST):
        setup.run()
    ops, digest = workloads.build(args.workload, args.seed, work)

    errors = matchcover.errors
    outcomes: list[tuple[int, str, str, float, float]] = []
    passes = 0
    if args.trace:
        # An untraced pass on each side of the traced one, so that a
        # drift in the host's speed does not land on the overhead.
        _run_pass(ops, errors, outcomes, speed)
        tracer = Tracer()
        tracer.install()
        try:
            _run_pass(ops, errors, outcomes, speed, tracer=tracer)
        finally:
            tracer.remove()
        _run_pass(ops, errors, outcomes, speed)
        passes = 3
        before, traced, after = (
            sum(speed.scaled(t0, t1) for _, _, _, t0, t1 in outcomes[k * len(ops):(k + 1) * len(ops)])
            for k in range(3))
        values = tracer.metrics(len(ops), traced - (before + after) / 2)
        metrics = {k: {"value": values[k], "unit": u} for k, u in metric_units().items()}
        tracer.dump(work / "spans.jsonl", [op.name for op in ops])
    else:
        start = perf_counter()
        while True:
            t0 = perf_counter()
            _run_pass(ops, errors, outcomes, speed, setup)
            passes += 1
            now = perf_counter()
            # The next pass, checks, set-ups and reference loops
            # included, would take about as long as this one.
            if passes >= MIN_PASSES and now - start + (now - t0) > args.seconds:
                break

    if setup.digests != {digest}:
        raise SystemExit("error: set-up runs generated different inputs")

    attempted = len(outcomes)
    failed = sum(status != "ok" for _, status, *_ in outcomes)
    correct = all(status in ("ok", "refused") for _, status, *_ in outcomes)
    if not args.trace:
        times: list[list[float]] = [[] for _ in ops]
        for i, _, _, t0, t1 in outcomes:
            times[i].append(speed.scaled(t0, t1))
        typical = [statistics.median(ts) for ts in times]
        ms = sorted(1000 * t for t in typical)
        values = {
            "setup_s": (statistics.median(speed.scaled(*span) for span in setup.spans), "s"),
            "wall_s": (sum(typical), "s"),
            "op_p50_ms": (_quantile(ms, 50), "ms"),
            "op_p90_ms": (_quantile(ms, 90), "ms"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    per_op: dict[str, dict] = {}
    for i, status, message, t0, t1 in outcomes:
        row = per_op.setdefault(ops[i].name, {"status": status, "message": message,
                                              "seconds": [], "scaled_s": []})
        row["seconds"].append(speed.own(t0, t1))
        row["scaled_s"].append(speed.scaled(t0, t1))
        if status != "ok" and row["status"] == "ok":
            row.update(status=status, message=message)
    for name, row in per_op.items():
        if row["status"] != "ok":
            last = (row["message"].strip().splitlines() or [""])[-1]
            print(f"{row['status']}: {name}: {last}")
    (work / "operations.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "inputs_sha256": digest,
         "operations": per_op}, indent=1) + "\n")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations a pass, "
          f"{passes} passes, {attempted} timed operations, {failed} failed; "
          f"{len(ops)} latency samples (median scaled times); {len(setup.spans)} set-ups, "
          f"{len(speed.took)} reference loops (median {statistics.median(speed.took):.4f} s); "
          f"inputs sha256 {digest}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
