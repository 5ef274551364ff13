"""Per-layer metrics: a traced in-process pass over the workload's operations.

Spans are recorded from this file, around calls into each module's public
functions (the program itself is not changed).  A span holds its name
(``<module>.<function>``), the index of the operation it belongs to (the
trace id), its parent span, and its start and end.  Spans stay in memory and
are written to ``.perfbench-work/`` when the run ends.

The traced pass runs the workload's operations and then ``layer_probe``: the
small tiers of all three workloads and a short scan, so every layer is
measured on every workload.  Each operation also runs with the spans off,
right next to its traced run; the two pass totals give the tracing overhead.
A few numbers come from
separate direct timings: the bare interpreter, the import of ``spinmtc.cli``,
a serial ``enumerate_labels`` loop, and the workload's small operations as
child processes.

Counters that need to look at large arguments (constraint matrices, matrix
products, s-matrices) keep a reference during the pass and are evaluated
after it, so they do not inflate the spans they sit in.
"""

from __future__ import annotations

import functools
import io
import json
import os
import statistics
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any, Callable

import harness
import oracles
import workloads
from workloads import Op

LAYERS = ("verma", "exactnum", "fusion", "clifford", "spinfunctor", "minimal", "cli")
CLI_REPEATS = 5

# span name -> (module, attribute); "Class.method" patches the class
TRACED = {
    "cli.main": ("spinmtc.cli", "main"),
    "verma.singular_vectors": ("spinmtc.verma", "singular_vectors"),
    "verma.degree_basis": ("spinmtc.verma", "degree_basis"),
    "verma.straighten": ("spinmtc.verma", "straighten"),
    "verma.nullspace": ("spinmtc.verma", "_nullspace"),
    "exactnum.matmul": ("spinmtc.exactnum", "CycMatrix.__matmul__"),
    "exactnum.rank_det": ("spinmtc.exactnum", "CycMatrix.rank_det"),
    "fusion.load_fusion": ("spinmtc.fusion", "load_fusion"),
    "fusion.validate": ("spinmtc.fusion", "validate"),
    "fusion.compute_smatrix": ("spinmtc.fusion", "compute_smatrix"),
    "fusion.check_s_squared": ("spinmtc.fusion", "check_s_squared"),
    "fusion.hom_unit_dim": ("spinmtc.fusion", "hom_unit_dim"),
    "clifford.find_vminus": ("spinmtc.clifford", "find_vminus"),
    "clifford.clifford_structure": ("spinmtc.clifford", "clifford_structure"),
    "clifford.classify_labels": ("spinmtc.clifford", "classify_labels"),
    "clifford.verify_block_structure": ("spinmtc.clifford", "verify_block_structure"),
    "spinfunctor.sphere_report": ("spinmtc.spinfunctor", "sphere_report"),
    "spinfunctor.torus_dims": ("spinmtc.spinfunctor", "torus_dims"),
    "minimal.valid_pairs": ("spinmtc.minimal", "valid_pairs"),
    "minimal.enumerate_labels": ("spinmtc.minimal", "enumerate_labels"),
}


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, trace id, parent index, start, end]
        self.trace_id = -1
        self.op_root: int | None = None
        self.kept: dict[str, list] = {}  # arguments/results kept for counting after the pass
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, keep: Callable | None) -> Callable:
        """``fn`` with a span around each call; ``keep`` may retain what a counter needs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.op_root
            record = [name, self.trace_id, parent, 0.0, 0.0]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            if parent is None:
                self.op_root = index
            stack.append(index)
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            if keep is not None:
                result = keep(self, args, result)
            return result

        return traced


# -- what counters keep during the pass


def _keep(key: str) -> Callable:
    def keep(tracer: Tracer, args: tuple, result: Any) -> Any:
        tracer.kept.setdefault(key, []).append((args, result))
        return result

    return keep


def _keep_pairs(tracer: Tracer, args: tuple, result: Any) -> Any:
    models = list(result)  # valid_pairs returns an iterator; hand back an equal one
    tracer.kept.setdefault("models", []).append(len(models))
    return iter(models)


KEEP = {
    "verma.nullspace": _keep("nullspace"),
    "exactnum.matmul": _keep("matmul"),
    "fusion.compute_smatrix": _keep("smatrix"),
    "fusion.validate": _keep("category"),
    "clifford.find_vminus": _keep("category"),
    "spinfunctor.sphere_report": _keep("sphere"),
    "minimal.valid_pairs": _keep_pairs,
}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Swap every traced function for its wrapper, wherever the package bound it."""
    undo = []
    for name, (module_name, attr) in TRACED.items():
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, tracer.wrap(name, original, KEEP.get(name)))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original, KEEP.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "spinmtc" or mod_name.startswith("spinmtc."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


# -- running operations in-process


def run_inprocess(op: Op) -> tuple[float, int, str | None]:
    """Call ``spinmtc.cli.main`` on the operation; returns wall, stdout bytes, failure."""
    cli = sys.modules["spinmtc.cli"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([*op.argv, "--format", "json"])
    except Exception as exc:  # an uncaught error is a failed operation, not a crashed run
        return time.perf_counter() - start, 0, f"uncaught {exc!r}"
    wall = time.perf_counter() - start
    failure = oracles.check(op.oracle, op.expect, code, out.getvalue(), err.getvalue())
    return wall, len(out.getvalue().encode()), failure


def run_pass(ops: list[Op], tracer: Tracer) -> tuple[dict, dict]:
    """Each operation once with spans off and once with spans on, in alternating order.

    Running the two copies back to back keeps slow changes in machine speed
    out of the tracing overhead.  Returns the untraced and the traced pass.
    """
    passes = {False: {"op_walls": [], "failures": [], "out_bytes": 0},
              True: {"op_walls": [], "failures": [], "out_bytes": 0}}
    for i, op in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            undo = install(tracer) if traced else []
            try:
                tracer.trace_id, tracer.op_root = i, None
                wall, nbytes, failure = run_inprocess(op)
            finally:
                uninstall(undo)
            side = passes[traced]
            side["op_walls"].append(wall)
            side["out_bytes"] += nbytes
            if failure:
                side["failures"].append(f"{op.label}: {failure}")
    for side in passes.values():
        side["wall_s"] = sum(side["op_walls"])
    return passes[False], passes[True]


# -- from spans to layer numbers


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _uncovered(start: float, end: float, children: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The parts of [start, end] that no child interval covers."""
    gaps, at = [], start
    for a, b in sorted(children):
        if a > at:
            gaps.append((at, a))
        at = max(at, b)
    if end > at:
        gaps.append((at, end))
    return gaps


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    children: dict[int, list[tuple[float, float]]] = {}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, _tid, parent, start, end in spans:
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    # A layer's self time is the wall time during which one of its spans runs
    # and none of that span's children does.  Spans of worker threads overlap,
    # so the parts are merged as a union, not summed.
    own: dict[str, list[tuple[float, float]]] = {layer: [] for layer in LAYERS}
    for index, (name, _tid, _parent, start, end) in enumerate(spans):
        own[name.split(".")[0]] += _uncovered(start, end, children.get(index, []))

    m = {f"{layer}.self_s": _covered(own[layer]) for layer in LAYERS}
    t = inclusive.get
    kept = tracer.kept

    # verma: the solve, its basis and straightening; the rest is linear algebra
    m["verma.solve_s"] = t("verma.singular_vectors", 0.0)
    m["verma.basis_s"] = t("verma.degree_basis", 0.0)
    m["verma.straighten_s"] = t("verma.straighten", 0.0)
    m["verma.straighten_calls"] = calls.get("verma.straighten", 0)
    m["verma.linalg_s"] = m["verma.solve_s"] - m["verma.basis_s"] - m["verma.straighten_s"]
    rows = nnz = dim = bits = 0
    for (matrix, ncols), null in kept.get("nullspace", []):
        rows += len(matrix)
        dim = max(dim, ncols)
        for vec in list(matrix) + list(null):
            for x in vec:
                if x:
                    bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
        nnz += sum(1 for row in matrix for x in row if x)
    m.update({"verma.basis_dim": dim, "verma.constraint_rows": rows,
              "verma.constraint_nnz": nnz, "verma.coeff_bits_max": bits})

    # exactnum: cyclotomic matrix products and eliminations
    mults = 0
    for (a, b), _ in kept.get("matmul", []):
        col_nnz = [sum(1 for i in range(a.rows) if not a.entries[i][k].is_zero) for k in range(a.cols)]
        row_nnz = [sum(1 for x in b.entries[k] if not x.is_zero) for k in range(b.rows)]
        mults += sum(c * r for c, r in zip(col_nnz, row_nnz))
    m["exactnum.matmul_s"] = t("exactnum.matmul", 0.0)
    m["exactnum.matmul_mults"] = mults
    m["exactnum.mults_per_s"] = mults / m["exactnum.matmul_s"] if m["exactnum.matmul_s"] else 0.0
    m["exactnum.rank_det_s"] = t("exactnum.rank_det", 0.0)
    conductor, terms, entries = 1, 0, 0
    for _, s in kept.get("smatrix", []):
        conductor = max(conductor, s.data.conductor)
        for row in s.data.entries:
            for x in row:
                if not x.is_zero:
                    terms += len(x.coefficients())
                    entries += 1
    m["exactnum.conductor"] = conductor
    m["exactnum.terms_per_entry"] = terms / entries if entries else 0.0

    # fusion
    m["fusion.validate_s"] = t("fusion.validate", 0.0)
    m["fusion.smatrix_s"] = t("fusion.compute_smatrix", 0.0)
    m["fusion.s_squared_s"] = t("fusion.check_s_squared", 0.0)
    m["fusion.hom_unit_dim_s"] = t("fusion.hom_unit_dim", 0.0)
    m["fusion.hom_unit_calls"] = calls.get("fusion.hom_unit_dim", 0)
    categories = {id(args[0]): args[0] for args, _ in kept.get("category", [])}.values()
    largest = max(categories, key=lambda d: d.rank, default=None)
    m["fusion.rank"] = largest.rank if largest else 0
    m["fusion.rules"] = sum(1 for v in largest.fusion.values() if v) if largest else 0

    # clifford, spinfunctor, minimal
    m["clifford.find_vminus_s"] = t("clifford.find_vminus", 0.0)
    m["clifford.classify_s"] = t("clifford.classify_labels", 0.0)
    m["clifford.blocks_s"] = t("clifford.verify_block_structure", 0.0)
    m["spinfunctor.sphere_s"] = t("spinfunctor.sphere_report", 0.0)
    m["spinfunctor.epsilon_rows"] = sum(len(rep.epsilon_table) for _, rep in kept.get("sphere", []))
    m["spinfunctor.torus_s"] = t("spinfunctor.torus_dims", 0.0)
    m["minimal.valid_pairs_s"] = t("minimal.valid_pairs", 0.0)
    m["minimal.models"] = sum(kept.get("models", []))
    return m


# -- direct timings


def serial_enumerate_s(max_pq: int) -> float:
    """``enumerate_labels`` over every model of a scan, one after another."""
    from spinmtc.minimal import enumerate_labels, valid_pairs

    specs = list(valid_pairs(max_pq))
    start = time.perf_counter()
    for spec in specs:
        enumerate_labels(spec)
    return time.perf_counter() - start


def median_spawn_s(program: harness.Program, args: list[str]) -> float:
    walls = []
    for _ in range(CLI_REPEATS):
        wall, _cpu, _rss, code, _out, err, _probes = program.spawn(args, 60.0)
        if code != 0:
            raise SystemExit(f"python3 {' '.join(args)} failed: {err.strip()[-200:]}")
        walls.append(wall)
    return statistics.median(walls)


def measure(
    program: harness.Program, name: str, seed: int, seconds: int, deadline: float
) -> tuple[dict, dict, int, int]:
    """The traced run: per-layer metrics, their record, and the operation counts."""
    import spinmtc.cli  # noqa: F401  (loads every module that is traced)

    workdir = program.workdir
    own = workloads.build(name, seed, workdir)
    seen = {op.argv for op in own}
    ops = own + [op for op in workloads.layer_probe(workdir) if op.argv not in seen]

    interp = median_spawn_s(program, ["-c", "pass"])
    imported = median_spawn_s(program, ["-c", "import spinmtc.cli"])
    small = [op for op in own if op.tier == "small"]
    small_cli = [program.run(op, 60.0) for op in small]

    untraced, traced, per_pass, load = [], [], [], []
    t0 = time.perf_counter()
    while True:
        before = os.getloadavg()
        tracer = Tracer()
        plain, spanned = run_pass(ops, tracer)
        untraced.append(plain)
        traced.append(spanned)
        per_pass.append(layer_metrics(tracer))
        load.append({"load_before": before, "load_after": os.getloadavg()})
        elapsed = time.perf_counter() - t0
        per_pair = elapsed / len(traced)
        if elapsed + per_pair > seconds or time.perf_counter() + per_pair > deadline:
            break

    scans = [op for op in ops if op.argv[0] == "minimal-scan"]
    scan = max(scans, key=lambda op: int(op.argv[2]))
    scan_index = ops.index(scan)
    enumerate_s = serial_enumerate_s(int(scan.argv[2]))

    samples: dict[str, list[float]] = {k: [p[k] for p in per_pass] for k in per_pass[0]}
    samples["minimal.enumerate_s"] = [enumerate_s]
    samples["cli.interp_s"] = [interp]
    samples["cli.import_s"] = [imported - interp]
    samples["cli.scan_s"] = [p["op_walls"][scan_index] for p in untraced]
    samples["cli.output_bytes"] = [p["out_bytes"] for p in untraced]
    in_process = {op.argv: statistics.median(p["op_walls"][ops.index(op)] for p in untraced) for op in small}
    samples["cli.overhead_s"] = [statistics.median(o.wall_s - in_process[o.op.argv] for o in small_cli)]
    samples["trace.traced_s"] = [p["wall_s"] for p in traced]
    samples["trace.untraced_s"] = [p["wall_s"] for p in untraced]
    samples["trace.overhead_frac"] = [
        a["wall_s"] / b["wall_s"] - 1 for a, b in zip(traced, untraced)
    ]

    spans_path = workdir / f"spans-seed{seed}.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "trace_id", "parent", "start", "end"],
        "operations": [" ".join(op.argv) for op in ops],
        "spans": tracer.spans,
    }))

    layer_map = json.loads((Path(__file__).parent / "layers.json").read_text())
    units = {entry["name"]: entry["unit"] for entry in layer_map["per_layer"]}
    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in sorted(samples.items())}
    failures = [f for p in untraced + traced for f in p["failures"]]
    failures += [f"{o.op.label}: {o.failure}" for o in small_cli if o.failure]
    attempted = len(ops) * (len(untraced) + len(traced)) + len(small_cli)
    record = {
        "stats": {k: harness.summary(v) for k, v in sorted(samples.items())},
        "failures": failures,
        "fail_frac": len(failures) / attempted,
        "spans_file": str(spans_path.relative_to(program.root)),
        "passes": load,
        "operations": [" ".join(op.argv) for op in ops],
    }
    return metrics, record, attempted, len(failures)
