"""The three seeded workloads: which ``spinmtc`` commands a pass runs, and their answers.

A seed picks the generic (c, h) points, the sphere punctures, the odd
generator passed to ``classify --vminus`` and the order of the operations.
Every operation is built here together with its expected answer from
``oracles``; the program itself only sees the generated command lines and
category files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

import oracles

WORKLOADS = ("singvec-ladder", "category-powers", "surfaces-scan")

# Deligne products written by set-up: file stem -> builtin factors.
PRODUCTS = {
    "dirac3": ("dirac", "dirac", "dirac"),  # rank 64, conductor 8, R+ nonempty
    "dirac_fermion2": ("dirac", "fermion", "fermion"),  # rank 36, conductor 16, R0 nonempty
    "fibonacci_fermion2": ("fibonacci", "fermion", "fermion"),  # rank 18, conductor 80
}
AMBIGUOUS_PRODUCT = "fibonacci_fermion2"


@dataclass(frozen=True)
class Op:
    """One CLI call: ``spinmtc <argv> --format json`` and what it must answer."""

    argv: tuple[str, ...]
    tier: str  # "small" (interactive, sub-second) or "large"
    oracle: str  # key of oracles.OBSERVERS
    expect: dict

    @property
    def label(self) -> str:
        text = " ".join(Path(a).name if Path(a).is_absolute() else a for a in self.argv)
        return text if len(text) <= 80 else text[:77] + "..."


# ---------------------------------------------------------------------------
# operation builders


def singvec_minimal(p: int, q: int, tier: str) -> Op:
    d = oracles.minimal_degree(p, q)
    expect = {
        "exit": 0,
        "c": oracles.ns_central_charge(Fraction(p, q)),
        "h": Fraction(0),
        "degree": d,
        "space_dim": 1,
        "shape_ok": True,
        "leading": oracles.leading_shape(d),
    }
    if (p, q) == (3, 5):
        expect["lambda"] = Fraction(-2, 3)
    return Op(("singvec", "--p", str(p), "--q", str(q)), tier, "singvec", expect)


def singvec_generic(c: Fraction, h: Fraction, degree: int) -> Op:
    expect = {
        "exit": 0,
        "c": c,
        "h": h,
        "degree": Fraction(degree),
        "full_space_dim": 0,
        "space_dim": 0,
    }
    argv = ("singvec", f"--c={c}", f"--h={h}", "--degree", str(degree))
    return Op(argv, "large", "singvec", expect)


def validate_op(category: str, tier: str) -> Op:
    return Op(("validate", category), tier, "validate", {"exit": 0, "valid": True, "violations": 0})


def smatrix_op(category: str, factors: tuple[str, ...], tier: str) -> Op:
    global_dim = 1.0
    rank = 1
    for key in factors:
        global_dim *= oracles.GLOBAL_DIM[key]
        rank *= oracles.RANK[key]
    expect = {"exit": 0, "squares_to_conjugation": True, "rank": rank, "global_dim": global_dim}
    return Op(("smatrix", category), tier, "smatrix", expect)


def classify_op(category: str, vminus: str | None, rank: int, tier: str) -> Op:
    argv = ("classify", category) + (() if vminus is None else ("--vminus", vminus))
    expect = {
        "exit": 0,
        "vminus": vminus,
        "all_pass": True,
        "checks": oracles.N_BLOCK_CHECKS,
        "checks_ok": oracles.N_BLOCK_CHECKS,
        "partition_size": rank,
    }
    return Op(argv, tier, "classify", expect)


def classify_ambiguous_op(category: str) -> Op:
    expect = {"exit": 1, "stderr": "several admissible odd generators"}
    return Op(("classify", category), "small", "classify", expect)


def sphere_fermion_op(labels: list[str], tier: str) -> Op:
    n = len(labels)
    k = labels.count("sigma")
    row = 2 ** (k // 2 - 1)
    expect = {
        "exit": 0,
        "total_dim": 2 ** n * row,
        "component_dim": 2 * row,
        "lambda_rank": k,
        "rows": 2 ** n,
        "row_sum": 2 ** n * row,
        "row_values": [row],
    }
    return Op(("sphere", "fermion", "--labels", ",".join(labels)), tier, "sphere", expect)


def sphere_pointed_op(key: str, labels: list[str], tier: str) -> Op:
    table = oracles.pointed_sphere_table(key, labels)
    total = sum(table.values())
    expect = {
        "exit": 0,
        "total_dim": total,
        "component_dim": total // 2 ** (len(labels) - 1),
        "lambda_rank": 0,
        "rows": len(table),
        "table": table,
    }
    return Op(("sphere", key, "--labels", ",".join(labels)), tier, "sphere", expect)


def torus_op(key: str) -> Op:
    return Op(("torus", key), "small", "torus", {"exit": 0, "dims": oracles.TORUS_DIMS[key]})


def minimal_op(p: int, q: int) -> Op:
    census = oracles.minimal_census(p, q)
    expect = {
        "exit": 0,
        "c": oracles.ns_central_charge(Fraction(p, q)),
        "ns": census["ns"],
        "r": census["r"],
        "split": [census["split"]] if census["r"] else [],
    }
    return Op(("minimal", "--p", str(p), "--q", str(q)), "small", "minimal", expect)


def minimal_scan_op(max_pq: int, tier: str) -> Op:
    pairs = oracles.minimal_pairs(max_pq)
    expect = {"exit": 0, "count": len(pairs), "pairs": pairs}
    return Op(("minimal-scan", "--max-pq", str(max_pq)), tier, "minimal-scan", expect)


# ---------------------------------------------------------------------------
# seeded inputs


def generic_point(rng: random.Random, level: int) -> tuple[Fraction, Fraction]:
    """c = c(b^2) for a seeded rational b^2, and h off every Kac zero up to ``level``.

    b^2 = u/v and h = m/n use primes from fixed ranges, so the coefficient
    sizes, and with them the cost of the solve, stay alike across seeds.
    """
    u, v = rng.sample([5, 7, 11, 13], 2)
    t = Fraction(u, v)
    zeros = {
        oracles.ns_kac_zero(t, r, s)
        for r in range(1, 2 * level + 1)
        for s in range(1, 2 * level + 1)
        if (r - s) % 2 == 0 and r * s <= 2 * level
    }
    while True:
        h = Fraction(rng.randint(1, 20), rng.choice([17, 19, 23, 29]))
        if h not in zeros:
            return oracles.ns_central_charge(t), h


def fermion_punctures(rng: random.Random, n: int) -> list[str]:
    """n labels with an even number k >= 2 of ``sigma`` and the rest ``1``/``psi``."""
    k = 2 * rng.randint(1, n // 2)
    spots = set(rng.sample(range(n), k))
    return ["sigma" if i in spots else rng.choice(["1", "psi"]) for i in range(n)]


def pointed_punctures(rng: random.Random, key: str, n: int) -> list[str]:
    """n labels whose group sum is 0 or the odd generator, so the sphere is nonzero."""
    element, odd, add = oracles.POINTED[key]
    names = sorted(element, key=element.get)
    labels = [rng.choice(names) for _ in range(n - 1)]
    total = 0
    for lab in labels:
        total = add(total, element[lab])
    target = rng.choice([0, odd])
    last = next(x for x in names if add(total, element[x]) == target)
    return labels + [last]


def odd_generators(data) -> list[str]:
    """Non-unit labels x with x (x) x = 1 and twist 1/2, read off the category data."""
    out = []
    for x in data.labels:
        if x == data.unit:
            continue
        square = {k: v for (i, j, k), v in data.fusion.items() if i == x and j == x and v}
        if square == {data.unit: 1} and data.twist[x] % 1 == Fraction(1, 2):
            out.append(x)
    return out


def write_product(workdir: Path, stem: str) -> tuple[Path, Any]:
    """Write one Deligne product under ``workdir``; returns (path, category data)."""
    from spinmtc.catalog import builtin
    from spinmtc.fusion import deligne_product, dump_fusion

    first, *rest = PRODUCTS[stem]
    data = builtin(first)
    for key in rest:
        data = deligne_product(data, builtin(key))
    path = workdir / f"{stem}.json"
    path.write_text(dump_fusion(data))
    return path, data


# ---------------------------------------------------------------------------
# workloads


def _singvec_small() -> list[Op]:
    return [singvec_minimal(3, 5, "small"), singvec_minimal(2, 12, "small"), singvec_minimal(3, 7, "small")]


def _singvec_ladder(rng: random.Random, workdir: Path) -> list[Op]:
    ops = _singvec_small() + [
        singvec_minimal(4, 6, "large"),
        singvec_minimal(2, 16, "large"),
    ]
    for _ in range(2):
        c, h = generic_point(rng, 8)
        ops.append(singvec_generic(c, h, 8))
    return ops


def _category_powers(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for stem, factors in PRODUCTS.items():
        path, data = write_product(workdir, stem)
        vminus = rng.choice(odd_generators(data))
        ops += [
            validate_op(str(path), "large"),
            smatrix_op(str(path), factors, "large"),
            classify_op(str(path), vminus, data.rank, "large"),
        ]
    return ops + _category_small(workdir)


def _category_small(workdir: Path) -> list[Op]:
    return [
        validate_op("fermion", "small"),
        smatrix_op("fibonacci", ("fibonacci",), "small"),
        classify_op("fermion", "psi", 3, "small"),
        classify_ambiguous_op(str(workdir / f"{AMBIGUOUS_PRODUCT}.json")),
    ]


def _surfaces_scan(rng: random.Random, workdir: Path) -> list[Op]:
    return [
        sphere_fermion_op(fermion_punctures(rng, 16), "large"),
        sphere_pointed_op("dirac", pointed_punctures(rng, "dirac", 12), "large"),
        sphere_pointed_op("toric", pointed_punctures(rng, "toric", 12), "large"),
        minimal_scan_op(2000, "large"),
    ] + _surfaces_small()


def _surfaces_small() -> list[Op]:
    return [
        torus_op("fermion"),
        torus_op("dirac"),
        torus_op("toric"),
        minimal_op(3, 5),
        sphere_fermion_op(["sigma", "sigma"], "small"),
    ]


_BUILDERS = {
    "singvec-ladder": _singvec_ladder,
    "category-powers": _category_powers,
    "surfaces-scan": _surfaces_scan,
}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's operations in seeded order; writes its input files to ``workdir``."""
    rng = random.Random(f"{name}/{seed}")
    ops = _BUILDERS[name](rng, workdir)
    rng.shuffle(ops)
    return ops


def layer_probe(workdir: Path) -> list[Op]:
    """Small calls that reach every layer: all three small tiers and a short scan.

    The traced run adds these to the workload's own operations, so every
    per-layer metric is measured on every workload; on a workload that does
    not use a layer, its number is this floor and is predicted not to move.
    """
    write_product(workdir, AMBIGUOUS_PRODUCT)
    return _singvec_small() + _category_small(workdir) + _surfaces_small() + [minimal_scan_op(300, "large")]
