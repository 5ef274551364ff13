"""The benchmark's tracing hooks name attributes of this package.

``perfbench/tracing.py`` wraps package functions by module and attribute
name; a rename here would break the traced benchmark pass only when it runs.
The table is read from the source, without importing the benchmark.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> dict[str, tuple[str, str]]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_every_traced_attribute_resolves():
    traced = _traced()
    assert traced
    for name, (module_name, attr) in traced.items():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), name
