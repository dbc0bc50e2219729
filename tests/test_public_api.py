"""The names other code relies on exist: every function bench/tracer.py
wraps, and every name a module lists in __all__. And every name in
__all__ is relied on: public API that only tests use is dead weight.

The benchmark files are read as source (the tracer's table with ast, the
rest as text), so they are neither executed nor compiled here.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import sigmaperfect

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _traced() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_name_is_a_callable_of_its_layer():
    traced = _traced()
    assert traced, "the tracer wraps nothing"
    for layer, names in traced.items():
        module = importlib.import_module(f"sigmaperfect.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"sigmaperfect.{layer}.{name}"


def test_every_name_in_all_exists():
    for info in pkgutil.iter_modules(sigmaperfect.__path__):
        module = importlib.import_module(f"sigmaperfect.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"sigmaperfect.{info.name}.{name}"


def _defines(stmt: ast.stmt, name: str) -> bool:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name == name
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _used_names(tree: ast.Module, defined: str | None = None) -> set[str]:
    """Names a module loads, reads as attributes or imports, outside the
    top-level statement defining `defined` (its __all__ entry is a string,
    so never counts)."""
    used = set()
    for stmt in tree.body:
        if defined is not None and _defines(stmt, defined):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_name_in_all_is_used_outside_the_unit_tests():
    # a name counts as used when the package itself, the benchmark or the
    # acceptance suite refers to it
    trees = {
        info.name: _parse(Path(info.module_finder.path) / f"{info.name}.py")
        for info in pkgutil.iter_modules(sigmaperfect.__path__)
    }
    used = {mod: _used_names(tree) for mod, tree in trees.items()}
    bench_text = "\n".join(p.read_text(encoding="utf-8") for p in TRACER.parent.glob("*.py"))
    acceptance = _used_names(_parse(ACCEPTANCE))
    unused = []
    for mod, tree in trees.items():
        elsewhere = set().union(*(names for m, names in used.items() if m != mod))
        for name in getattr(importlib.import_module(f"sigmaperfect.{mod}"), "__all__", ()):
            if (
                name not in elsewhere
                and name not in _used_names(tree, defined=name)
                and name not in acceptance
                and not re.search(rf"\b{re.escape(name)}\b", bench_text)
            ):
                unused.append(f"sigmaperfect.{mod}.{name}")
    assert not unused, f"public names only the unit tests use: {unused}"
