"""The benchmark's tracing hooks name attributes of this package.

``perfbench/tracing.py`` wraps package functions by module and attribute
name, and ``perfbench/workloads.py`` imports a few; a rename here would break
the benchmark only when it runs.  Both are read from the source, without
importing the benchmark.
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
WORKLOADS = ROOT / "perfbench" / "workloads.py"


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
    from spinmtc.exactnum import compute_smatrix

    s = compute_smatrix(builtin("fermion"))
    a = b = s.data
    col_nnz = [sum(1 for i in range(a.rows) if not a.entries[i][k].is_zero) for k in range(a.cols)]
    row_nnz = [sum(1 for x in b.entries[k] if not x.is_zero) for k in range(b.rows)]
    terms = [len(x.coefficients()) for row in s.data.entries for x in row if not x.is_zero]
    assert s.data.conductor == 16
    assert sum(c * r for c, r in zip(col_nnz, row_nnz)) == 22
    assert sorted(terms) == [1] * 4 + [2] * 4


def _resolved_by_perfbench() -> set[tuple[str, str]]:
    """(module, name) of each package name the benchmark reads: the traced
    attributes (a method by its class) and the workloads' imports."""
    names = {(module_name, attr.split(".")[0]) for module_name, attr in _traced().values()}
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spinmtc"):
            names |= {(node.module, alias.name) for alias in node.names}
    return names


def test_forwards_are_the_moved_names_the_benchmark_reads():
    # A module's ``_FORWARDS`` names what it no longer defines but serves from
    # its new home, for the benchmark alone: the very object, so that a span
    # patched in by identity wraps the function the CLI calls.
    forwarded = set()
    for path in sorted((ROOT / "src" / "spinmtc").glob("*.py")):
        module_name = "spinmtc" if path.stem == "__init__" else f"spinmtc.{path.stem}"
        module = importlib.import_module(module_name)
        for name, home in getattr(module, "_FORWARDS", {}).items():
            assert name not in vars(module), name
            assert getattr(module, name) is getattr(importlib.import_module(f"spinmtc.{home}"), name)
            forwarded.add((module_name, name))
    moved = {(module_name, name) for module_name, name in _resolved_by_perfbench()
             if name not in vars(importlib.import_module(module_name))}
    assert forwarded == moved == {
        ("spinmtc.fusion", "validate"),
        ("spinmtc.fusion", "load_fusion"),
        ("spinmtc.fusion", "dump_fusion"),
        ("spinmtc.fusion", "compute_smatrix"),
        ("spinmtc.fusion", "check_s_squared"),
        ("spinmtc.clifford", "verify_block_structure"),
    }


def test_forwarding_modules_import_without_their_targets():
    probe = "import sys, spinmtc.fusion, spinmtc.clifford; print(sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    loaded = set(ast.literal_eval(done.stdout))
    assert {"spinmtc.fusion", "spinmtc.clifford"} <= loaded
    assert not loaded & {"spinmtc.axioms", "spinmtc.exactnum", "spinmtc.fusionfile", "spinmtc.sparse"}
