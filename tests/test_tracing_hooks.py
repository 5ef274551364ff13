"""The benchmark's tracing hooks name attributes of this package.

``perfbench/tracing.py`` wraps package functions by module and attribute
name; a rename here would break the traced benchmark pass only when it runs.
The table is read from the source, without importing the benchmark.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


# Tracing imports ``spinmtc.cli`` and then looks every traced module up in
# ``sys.modules`` and patches its attributes there; the CLI must read them
# from that same module object.
_LOOKUP = """import json, sys
import spinmtc.cli
missing = []
for name, (module_name, attr) in json.loads(sys.argv[1]).items():
    module = sys.modules.get(module_name)
    package, _, child = module_name.rpartition(".")
    if module is None or getattr(sys.modules[package], child, None) is not module:
        missing.append(name)
        continue
    owner = module
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    if not callable(owner):
        missing.append(name)
print(json.dumps(missing))
"""


def test_cli_import_leaves_every_traced_module_in_sys_modules():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", _LOOKUP, json.dumps(_traced())],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_counters_read_attributes_the_package_keeps():
    # After a pass, ``perfbench/tracing.py`` reads the s-matrix's
    # ``data.conductor`` and ``data.entries``, and each product operand's
    # ``rows``, ``cols`` and ``entries``, through every entry's ``is_zero``
    # and ``coefficients()``.  These are its reads, on the Ising s-matrix.
    from spinmtc.catalog import builtin
    from spinmtc.fusion import compute_smatrix

    s = compute_smatrix(builtin("fermion"))
    a = b = s.data
    col_nnz = [sum(1 for i in range(a.rows) if not a.entries[i][k].is_zero) for k in range(a.cols)]
    row_nnz = [sum(1 for x in b.entries[k] if not x.is_zero) for k in range(b.rows)]
    terms = [len(x.coefficients()) for row in s.data.entries for x in row if not x.is_zero]
    assert s.data.conductor == 16
    assert sum(c * r for c, r in zip(col_nnz, row_nnz)) == 22
    assert sorted(terms) == [1] * 4 + [2] * 4
