"""The spinmtc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` times whole passes over the
workload's operations, one ``spinmtc`` child process per operation, one at a
time (a closed loop with a single client), and prints the end-to-end
metrics, in seconds at a reference CPU speed (see ``harness``).  The
harness and its children stay on one CPU.  ``--trace 1`` runs the same
operations in-process with spans around every layer and prints the
per-layer metrics (see ``tracing.py``).

Every answer is checked against ``oracles``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record (environment, load average around each pass,
per-operation costs, and count/median/quartiles of every metric) is written
under ``.perfbench-work/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import harness
import tracing
import workloads
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 5
MIN_PASSES = 2
# Extra rounds of the small tier after each pass: a small command costs
# about 0.3 s and varies by about 15% from call to call, so its median
# needs more calls than the passes give.  They count only for small_op_p50_s.
SMALL_ROUNDS = 3
OP_TIMEOUT_S = 60.0
# A run must end within 180 s; no operation may run past this point.
RUN_DEADLINE_S = 165.0

WARMUP = Op(("builtin", "fermion"), "small", "builtin", {"exit": 0})


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": harness.read_commit(ROOT),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_pass(program: harness.Program, ops: list[Op], deadline: float) -> dict:
    """One pass over the operations; failures are counted and the pass goes on.

    Speed probes run before the first operation and after each one, and
    each operation is scaled by the probes around it and those taken while
    it ran.
    """
    load_before = os.getloadavg()
    outcomes = []
    before = harness.probe_times()
    for op in ops:
        left = deadline - time.perf_counter()
        if left < 1.0:
            outcomes.append(harness.Outcome(op, 0.0, 0.0, 0, None, 0, "not run: run deadline reached"))
            continue
        outcome = program.run(op, min(OP_TIMEOUT_S, left))
        after = harness.probe_times()
        outcome.scale = harness.scale(before + after, outcome.probes)
        before = after
        outcomes.append(outcome)
    return {
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "wall_s": sum(o.wall_s * o.scale for o in outcomes),
        "cpu_s": sum(o.cpu_s * o.scale for o in outcomes),
        "raw_wall_s": sum(o.wall_s for o in outcomes),
        "raw_cpu_s": sum(o.cpu_s for o in outcomes),
        "peak_rss_mb": max(o.rss_kb for o in outcomes) / 1024,
        "outcomes": outcomes,
    }


def pass_record(p: dict) -> dict:
    """A pass as the run record stores it: totals, load average and every operation."""
    return {
        "load_before": p["load_before"],
        "load_after": p["load_after"],
        "wall_s": p["wall_s"],
        "cpu_s": p["cpu_s"],
        "raw_wall_s": p["raw_wall_s"],
        "raw_cpu_s": p["raw_cpu_s"],
        "peak_rss_mb": p["peak_rss_mb"],
        "operations": [
            {
                "op": o.op.label,
                "tier": o.op.tier,
                "wall_s": o.wall_s,
                "cpu_s": o.cpu_s,
                "scale": o.scale,
                "probes": len(o.probes),
                "rss_kb": o.rss_kb,
                "exit": o.code,
                "out_bytes": o.out_bytes,
                "failure": o.failure,
            }
            for o in p["outcomes"]
        ],
    }


def measure(
    program: harness.Program, name: str, seed: int, seconds: int, deadline: float
) -> tuple[dict, dict, int, int]:
    """Set up several times, then run passes for ``seconds``; returns metrics and record."""
    setup_times, raw_setup_times = [], []
    for _ in range(SETUP_REPEATS):
        before = harness.probe_times()
        t0 = time.perf_counter()
        ops = workloads.build(name, seed, program.workdir)
        warm = program.run(WARMUP, OP_TIMEOUT_S)
        took = time.perf_counter() - t0
        raw_setup_times.append(took)
        setup_times.append(took * harness.scale(before + harness.probe_times(), warm.probes))
        if warm.failure:
            raise SystemExit(f"warm-up call failed: {warm.failure}")

    # Another pass starts while it is expected to end at most half a pass
    # after ``seconds``, so a run lasts about ``seconds`` whatever the pass length.
    small_ops = [op for op in ops if op.tier == "small"]
    passes, rounds = [], []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(program, ops, deadline))
        rounds += [run_pass(program, small_ops, deadline) for _ in range(SMALL_ROUNDS)]
        elapsed = time.perf_counter() - t0
        per_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + per_pass > seconds + per_pass / 2:
            break
        if time.perf_counter() + per_pass > deadline:
            break

    outcomes = [o for p in passes + rounds for o in p["outcomes"]]
    small: dict[tuple[str, ...], list[float]] = {}
    raw_small: dict[tuple[str, ...], list[float]] = {}
    for o in outcomes:
        if o.op.tier == "small" and o.code is not None:
            small.setdefault(o.op.argv, []).append(o.wall_s * o.scale)
            raw_small.setdefault(o.op.argv, []).append(o.wall_s)
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "small_op_p50_s": [statistics.median(v) for v in small.values()],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": setup_times,
    }
    raw = {
        "wall_s": [p["raw_wall_s"] for p in passes],
        "cpu_s": [p["raw_cpu_s"] for p in passes],
        "small_op_p50_s": [statistics.median(v) for v in raw_small.values()],
        "setup_s": raw_setup_times,
        "scale": [o.scale for o in outcomes if o.code is not None],
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    # The small tier mixes commands of different cost, so a median pooled over
    # all of them jumps between commands; average each command's median instead.
    values["small_op_p50_s"] = statistics.fmean(samples["small_op_p50_s"])
    units = {"wall_s": "s", "cpu_s": "s", "small_op_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in samples}
    failed = sum(1 for o in outcomes if o.failure)
    record = {
        "stats": {k: harness.summary(v) for k, v in samples.items()},
        "unscaled_stats": {k: harness.summary(v) for k, v in raw.items()},
        "fail_frac": failed / len(outcomes),
        "passes": [pass_record(p) for p in passes],
        "small_rounds": [pass_record(p) for p in rounds],
    }
    return metrics, record, len(outcomes), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "spinmtc" / "cli.py").is_file():
        print(f"error: no spinmtc sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    harness.pin_one_cpu()
    workdir = WORK / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    program = harness.Program(ROOT, workdir)
    deadline = started + RUN_DEADLINE_S

    measure_run = tracing.measure if args.trace else measure
    metrics, record, attempted, failed = measure_run(
        program, args.workload, args.seed, args.seconds, deadline
    )

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": attempted,
        "failed": failed,
        **record,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for key, stats in record["stats"].items():
        print(f"{key:28s} n={stats['n']:<3d} median={stats['median']}")
    print(f"run record: {path.relative_to(ROOT)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
