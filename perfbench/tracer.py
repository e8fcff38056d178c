"""Spans around the public functions of each matchcover module.

``Tracer.install`` wraps every function named in LAYERS in each
matchcover module namespace that bound it (``from .matching import
matchable_minus`` binds at import time, so patching one module is not
enough) and the MultiGraph methods on the class; ``remove`` puts the
originals back.  Spans (name, start, end, parent span, operation) are
kept in arrays in memory and written out by ``dump`` at the end.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from array import array
from time import perf_counter
from weakref import WeakKeyDictionary

# Layer (module) -> traced public functions; the layer names are the
# module names under src/matchcover.
LAYERS = {
    "cli": ("build_analysis",),
    "generators": ("build_high_kappa_epsilon", "verify_trace"),
    "splicing": ("splice", "check_merge"),
    "cuts": (
        "find_nontrivial_tight_cut",
        "tight_cut_decomposition",
        "is_tight_cut",
        "exhaustive_nontrivial_tight_cut",
        "contractions",
        "classify",
        "verify_bounds",
        "is_solid_brick",
    ),
    "dependence": (
        "equivalence_partition",
        "is_equivalence_class",
        "removable_edges",
        "removable_classes",
    ),
    "structure": (
        "canonical_partition",
        "even_2cuts",
        "vertex_connectivity",
        "is_bicritical",
        "is_barrier",
    ),
    "matching": (
        "matchable_minus",
        "maximum_matching",
        "has_pm_containing",
        "is_matching_covered",
        "enumerate_pms",
    ),
    "multigraph": (
        "canonical_form",
        "MultiGraph.components",
        "MultiGraph.delete_edge",
        "MultiGraph.delete_edges",
        "MultiGraph.delete_vertices",
        "MultiGraph.underlying_simple",
        "parse_graph",
        "format_graph",
    ),
}

REFUSAL_COUNTED = ("multigraph.canonical_form", "matching.enumerate_pms")
PER_OP_COUNTED = (
    "dependence.equivalence_partition",
    "cuts.tight_cut_decomposition",
    "structure.even_2cuts",
    "structure.vertex_connectivity",
)
SMALL_GRAPH_LIMIT = 16  # matchable_minus uses the subset DP up to here


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for layer, functions in LAYERS.items():
        for fn in functions:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.total_s"] = "s"
            units[f"{layer}.{fn}.self_s"] = "s"
    units["matching.matchable_minus.calls_small"] = "count"
    units["matching.matchable_minus.calls_large"] = "count"
    units["matching.matchable_minus.repeat_share"] = "ratio"
    units["cuts.is_tight_cut.hit_ratio"] = "ratio"
    for name in REFUSAL_COUNTED:
        units[f"{name}.refusals"] = "count"
    for name in PER_OP_COUNTED:
        units[f"{name}.calls_per_op"] = "calls/op"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
        self.name_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 unless nested in a span of the same name
        self.op_id = -1
        self.op_seconds: list[float] = []  # timed duration of each operation
        self._stack: list[int] = []
        self._depth = [0] * len(self.names)
        self._patches: list[tuple[object, str, object]] = []
        self.refusals = {name: 0 for name in REFUSAL_COUNTED}
        self.mm_small = self.mm_large = self.mm_repeats = 0
        self._mm_seen: set = set()
        self._content: WeakKeyDictionary = WeakKeyDictionary()
        self.tight_offered = self.tight_hits = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, capability_error):
        nid = self.names.index(name)
        name_id, parent, op, start, end, outer = (
            self.name_id, self.parent, self.op, self.start, self.end, self.outer,
        )
        stack, depth = self._stack, self._depth
        count_refusals = name in self.refusals
        hook = self._on_matchable_minus if name == "matching.matchable_minus" else None
        tight = name == "cuts.is_tight_cut"

        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            outer.append(depth[nid] == 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except capability_error:
                if count_refusals:
                    self.refusals[name] += 1
                raise
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                depth[nid] -= 1
                stack.pop()
            if tight:
                self.tight_offered += 1
                self.tight_hits += bool(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_matchable_minus(self, args, kwargs):
        g = args[0]
        removed = frozenset(args[1] if len(args) > 1 else kwargs.get("removed", ()))
        if g.n <= SMALL_GRAPH_LIMIT:
            self.mm_small += 1
        else:
            self.mm_large += 1
        content = self._content.get(g)
        if content is None:
            text = repr((g.vertices, tuple(g.edge_items()))).encode()
            content = hashlib.blake2b(text, digest_size=16).digest()
            self._content[g] = content
        key = (content, removed)
        if key in self._mm_seen:
            self.mm_repeats += 1
        else:
            self._mm_seen.add(key)
        return (g, removed), {}

    def install(self) -> None:
        from matchcover.errors import CapabilityError
        from matchcover.multigraph import MultiGraph

        homes = {layer: importlib.import_module(f"matchcover.{layer}") for layer in LAYERS}
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "matchcover" or key.startswith("matchcover."))]
        for layer, functions in LAYERS.items():
            home = homes[layer]
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                if fn_name.startswith("MultiGraph."):
                    attr = fn_name.split(".", 1)[1]
                    original = MultiGraph.__dict__[attr]
                    self._patches.append((MultiGraph, attr, original))
                    setattr(MultiGraph, attr, self._wrap(name, original, CapabilityError))
                    continue
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original, CapabilityError)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        self._patches.append((module, fn_name, original))
                        setattr(module, fn_name, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.
        Spans on one thread nest, so the children never overlap."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def metrics(self, operations: int, overhead_s: float) -> dict[str, float]:
        k = len(self.names)
        calls, total, own = [0] * k, [0.0] * k, [0.0] * k
        for nid, s, e, out, st in zip(self.name_id, self.start, self.end, self.outer, self.self_times()):
            calls[nid] += 1
            own[nid] += st
            if out:
                total[nid] += e - s
        out: dict[str, float] = {}
        layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.total_s"] = total[i]
            out[f"{name}.self_s"] = own[i]
            layer_self[name.split(".", 1)[0]] += own[i]
        mm_calls = self.mm_small + self.mm_large
        out["matching.matchable_minus.calls_small"] = self.mm_small
        out["matching.matchable_minus.calls_large"] = self.mm_large
        out["matching.matchable_minus.repeat_share"] = self.mm_repeats / mm_calls if mm_calls else 0.0
        out["cuts.is_tight_cut.hit_ratio"] = (
            self.tight_hits / self.tight_offered if self.tight_offered else 0.0
        )
        for name, count in self.refusals.items():
            out[f"{name}.refusals"] = count
        for name in PER_OP_COUNTED:
            out[f"{name}.calls_per_op"] = calls[self.names.index(name)] / operations
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_s"] = seconds
        out["trace.overhead_s"] = overhead_s
        return out

    def dump(self, path, op_names: list[str]) -> None:
        """Write the spans as JSON lines: a header naming the functions
        and operations, then one span per line as
        [name index, start_s, end_s, parent span, operation index, self_s]."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "ops": op_names,
                                 "op_seconds": self.op_seconds}) + "\n")
            rows = zip(self.name_id, self.start, self.end, self.parent, self.op, self.self_times())
            fh.writelines(f"[{n},{s!r},{e!r},{p},{o},{st!r}]\n" for n, s, e, p, o, st in rows)
