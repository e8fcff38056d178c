"""The benchmark tracer's layer table names functions that exist.

``perfbench/tracer.py`` wraps every name in its ``LAYERS`` table when a
traced run starts; a name that no longer resolves crashes that run.  The
table is read from the source, so nothing of the tracer is executed.
"""

import ast
import importlib
import inspect
from pathlib import Path

from matchcover.multigraph import MultiGraph

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS table in perfbench/tracer.py")


def test_every_traced_name_resolves():
    layers = _layers()
    assert layers
    missing = []
    for layer, names in layers.items():
        module = importlib.import_module(f"matchcover.{layer}")
        for name in names:
            if name.startswith("MultiGraph."):
                found = callable(vars(MultiGraph).get(name.split(".", 1)[1]))
            else:
                found = inspect.isfunction(getattr(module, name, None))
            if not found:
                missing.append(f"{layer}.{name}")
    assert missing == []
