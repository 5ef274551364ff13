"""Tiny self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every operation kind once at small size, as child processes and traced
in-process, and requires every answer to pass its oracle.  Then it shows
that each oracle can fail: for every operation and every expected value, a
copy with that one value corrupted must be rejected on the same output, and
a pass with one corrupted operation must report a nonzero failure fraction.
Finally it checks that the traced run's metrics match the layer map and
``BENCHMARK.json``.  Exits 1 if anything is wrong.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import time
from pathlib import Path

import harness
import oracles
import run
import tracing
import workloads as w


def tiny_ops(workdir: Path) -> list[w.Op]:
    path, data = w.write_product(workdir, w.AMBIGUOUS_PRODUCT)
    factors = w.PRODUCTS[w.AMBIGUOUS_PRODUCT]
    vminus = w.odd_generators(data)[-1]
    return [
        w.singvec_minimal(3, 5, "small"),
        w.singvec_generic(*w.generic_point(random.Random(0), 2), 2),
        w.validate_op(str(path), "large"),
        w.smatrix_op(str(path), factors, "large"),
        w.smatrix_op("fibonacci", ("fibonacci",), "small"),
        w.classify_op(str(path), vminus, data.rank, "large"),
        w.classify_ambiguous_op(str(path)),
        w.sphere_fermion_op(["sigma", "psi", "sigma", "1"], "small"),
        w.sphere_pointed_op("dirac", ["j1", "j3", "j2"], "small"),
        w.sphere_pointed_op("toric", ["e", "m", "1", "m", "e"], "small"),
        w.torus_op("fermion"),
        w.torus_op("dirac"),
        w.torus_op("toric"),
        w.minimal_op(3, 5),
        w.minimal_scan_op(60, "small"),
    ]


def main() -> int:
    if not (run.ROOT / "src" / "spinmtc" / "cli.py").is_file():
        print("error: no spinmtc sources; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    workdir = run.WORK / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    program = harness.Program(run.ROOT, workdir)
    ops = tiny_ops(workdir)
    problems = []

    # every operation answers correctly through the CLI, and its oracle can fail
    corrupted_checks = 0
    for op in ops:
        wall, _cpu, _rss, code, out, err, _probes = program.spawn(
            ["-m", "spinmtc.cli", *op.argv, "--format", "json"], 60.0
        )
        failure = oracles.check(op.oracle, op.expect, code, out, err)
        print(f"{'ok  ' if failure is None else 'FAIL'} {wall:6.3f}s  {op.label}")
        if failure:
            problems.append(f"{op.label}: {failure}")
        for key in op.expect:
            bad = dict(op.expect, **{key: oracles.corrupt(op.expect[key])})
            corrupted_checks += 1
            if oracles.check(op.oracle, bad, code, out, err) is None:
                problems.append(f"{op.label}: corrupting {key!r} went unnoticed")
    print(f"{corrupted_checks} single-value corruptions checked")

    # the pass loop counts a wrong answer and keeps going
    first = ops[0]
    key = next(k for k in first.expect if k != "exit")
    wrong = dict(first.expect, **{key: oracles.corrupt(first.expect[key])})
    broken = dataclasses.replace(first, expect=wrong)
    result = run.run_pass(program, [broken] + ops[1:], time.perf_counter() + 120)
    failed = sum(1 for o in result["outcomes"] if o.failure)
    fail_frac = failed / len(result["outcomes"])
    print(f"pass with one corrupted expectation: fail_frac = {fail_frac:.3f}")
    if failed != 1:
        problems.append(f"corrupted pass: expected exactly 1 failure, got {failed}")

    # the traced in-process pass answers correctly and yields every mapped metric
    import spinmtc.cli  # noqa: F401

    tracer = tracing.Tracer()
    plain, traced = tracing.run_pass(ops, tracer)
    problems += [f"in-process: {f}" for f in plain["failures"] + traced["failures"]]
    layer_map = json.loads((Path(__file__).parent / "layers.json").read_text())
    mapped = {m["name"] for m in layer_map["per_layer"]}
    direct = {"minimal.enumerate_s", "cli.interp_s", "cli.import_s", "cli.scan_s", "cli.output_bytes",
              "cli.overhead_s", "trace.traced_s", "trace.untraced_s", "trace.overhead_frac"}
    missing = mapped - set(tracing.layer_metrics(tracer)) - direct
    if missing:
        problems.append(f"layer map names metrics the traced pass does not produce: {sorted(missing)}")
    print(f"traced pass: {len(tracer.spans)} spans, {len(traced['failures'])} failures")

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = [{k: m[k] for k in ("name", "unit", "better")} for m in layer_map["per_layer"]]
    if bench["per_layer"] != listed:
        problems.append("BENCHMARK.json per_layer differs from perfbench/layers.json")
    if [x["name"] for x in bench["workloads"]] != list(w.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.py")

    for p in problems:
        print("problem:", p)
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
