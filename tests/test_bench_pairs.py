"""Argument parsing of ``tools/bench_pairs.py``."""

import importlib.util
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
