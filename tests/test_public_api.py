"""The names other code relies on exist: every function bench/tracer.py
wraps, and every name a module lists in __all__.

The tracer's table is read from its source with ast, so the benchmark
file is neither executed nor compiled here.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import sigmaperfect

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
