"""The package's modules import one another only at their top level,
and those imports form no cycle: each module's header shows every
module it reads, and the layers stack in one order."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "matchcover"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_no_import_inside_a_function_body():
    found = set()
    for name, tree in _modules().items():
        for scope in ast.walk(tree):
            if isinstance(scope, SCOPES):
                found.update(
                    f"{name}.py:{node.lineno}"
                    for node in ast.walk(scope)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert sorted(found) == []


def test_module_imports_form_no_cycle():
    modules = _modules()
    reads = {
        name: {node.module for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}
        for name, tree in modules.items()
        if name != "__init__"
    }
    done: set[str] = set()
    for start in reads:
        path, stack = [start], [iter(sorted(reads[start]))]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                done.add(path.pop())
                stack.pop()
                continue
            assert nxt not in path, " -> ".join(path + [nxt])
            if nxt not in done:
                path.append(nxt)
                stack.append(iter(sorted(reads[nxt])))
