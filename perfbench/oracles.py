"""Independent answers for every benchmark operation, and the check against them.

Nothing here imports ``spinmtc``: each expected value is derived from the
mathematics (closed forms, group arithmetic, brute-force censuses) or pinned
from the literature, so a wrong answer from the program cannot agree with
its own oracle.

An operation carries ``expect``, a dict of expected values.  Its entry in
``OBSERVERS`` turns the program's output into a dict with the same keys, and
``check`` compares the two key by key.  The self-check corrupts one expected value at
a time to show that every key is really compared.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from typing import Any, Callable

# ---------------------------------------------------------------------------
# closed forms

# Rank and global dimension sum_i d_i^2 of each builtin; Deligne products multiply both.
RANK = {"fermion": 3, "dirac": 4, "toric": 4, "fibonacci": 2}
GLOBAL_DIM = {
    "fermion": 4.0,  # 1 + 1 + (sqrt 2)^2
    "dirac": 4.0,  # four invertibles
    "toric": 4.0,
    "fibonacci": (5 + math.sqrt(5)) / 2,  # 1 + golden ratio squared
}

# Spin-torus dimensions (AA, AP, PA, PP): |NS+|, |R+|+|R0| twice, |R+|.
TORUS_DIMS = {
    "fermion": {"AA": 1, "AP": 1, "PA": 1, "PP": 0},
    "dirac": {"AA": 1, "AP": 1, "PA": 1, "PP": 1},
    "toric": {"AA": 1, "AP": 1, "PA": 1, "PP": 1},
}

# Pointed builtins as groups: label -> element, the odd generator, the addition.
POINTED = {
    "dirac": ({"j0": 0, "j1": 1, "j2": 2, "j3": 3}, 2, lambda a, b: (a + b) % 4),
    "toric": ({"1": 0, "e": 1, "m": 2, "f": 3}, 3, lambda a, b: a ^ b),
}

N_BLOCK_CHECKS = 7


def ns_central_charge(t: Fraction) -> Fraction:
    """c(b^2) for the N=1 algebra with t = b^2: 15/2 - 3 (t + 1/t)."""
    return Fraction(15, 2) - 3 * (t + 1 / t)


def ns_kac_zero(t: Fraction, r: int, s: int) -> Fraction:
    """h_{r,s} at c(t); a singular vector appears at level r s / 2 when r - s is even."""
    return ((r - s * t) ** 2 - (1 - t) ** 2) / (8 * t)


def minimal_degree(p: int, q: int) -> Fraction:
    return Fraction((p - 1) * (q - 1), 2)


def leading_shape(d: Fraction) -> str:
    """The paper's leading monomial of the degree-d vacuum singular vector."""
    if d.denominator == 1:
        return " ".join(["G[-5/2]", "G[-3/2]"] + ["L[-2]"] * ((int(d) - 4) // 2))
    return " ".join(["G[-3/2]"] + ["L[-2]"] * int((2 * d - 3) / 4))


def minimal_census(p: int, q: int) -> dict:
    """Label table of the (p, q) model by walking the whole (r, s) grid."""
    seen = set()
    ns, ram = [], []
    for r in range(1, p):
        for s in range(1, q):
            rep = min((r, s), (p - r, q - s))
            if rep in seen:
                continue
            seen.add(rep)
            a, b = rep
            h = Fraction((a * q - b * p) ** 2 - (p - q) ** 2, 8 * p * q)
            if (a - b) % 2:
                ram.append((a, b, h + Fraction(1, 16)))
            else:
                ns.append((a, b, h))
    return {"ns": sorted(ns), "r": sorted(ram), "split": (p - 1) * (q - 1) % 2 == 0}


def minimal_pairs(max_pq: int) -> list[tuple[int, int]]:
    """Every (p, q) with 2 <= p <= q, p q <= max_pq, equal parity, gcd(p, (q-p)/2) = 1."""
    pairs = [
        (p, q)
        for p in range(2, max_pq + 1)
        for q in range(p, max_pq // p + 1)
        if (q - p) % 2 == 0 and math.gcd(p, (q - p) // 2) == 1
    ]
    return sorted(pairs, key=lambda pq: (pq[0] * pq[1], pq[0]))


def pointed_sphere_table(key: str, labels: list[str]) -> dict[str, int]:
    """Epsilon table of a pointed sphere: 1 where the twisted labels sum to 0."""
    element, odd, add = POINTED[key]
    base = [element[lab] for lab in labels]
    table = {}
    for mask in range(2 ** len(base)):
        total = 0
        bits = []
        for i, g in enumerate(base):
            e = (mask >> i) & 1
            bits.append(str(e))
            total = add(total, add(g, odd) if e else g)
        table["".join(bits)] = int(total == 0)
    return table


# ---------------------------------------------------------------------------
# observation: program output -> dict of observed values


def _cyclotomic_value(obj: dict) -> complex:
    n = obj["conductor"]
    return sum(
        float(Fraction(coef)) * cmath.exp(2j * math.pi * e / n) for e, coef in obj["terms"]
    )


def _frac(text: str | None) -> Fraction | None:
    return None if text is None else Fraction(text)


def _observe_singvec(doc: dict) -> dict:
    return {
        "c": Fraction(doc["c"]),
        "h": Fraction(doc["h"]),
        "degree": Fraction(doc["degree"]),
        "full_space_dim": doc["full_space_dim"],
        "space_dim": doc["space_dim"],
        "shape_ok": doc["shape_ok"],
        "leading": doc["leading_monomial"],
        "lambda": _frac(doc["lambda"]),
    }


def _observe_validate(doc: dict) -> dict:
    return {"valid": doc["valid"], "violations": len(doc["violations"])}


def _observe_smatrix(doc: dict) -> dict:
    scalar = doc["scalar"]
    return {
        "squares_to_conjugation": doc["squares_to_conjugation"],
        "rank": len(doc["labels"]),
        "global_dim": None if scalar is None else _cyclotomic_value(scalar),
    }


def _observe_classify(doc: dict) -> dict:
    checks = doc.get("checks", {})
    return {
        "vminus": doc["vminus"],
        "all_pass": doc.get("all_pass"),
        "checks": len(checks),
        "checks_ok": sum(1 for v in checks.values() if v["ok"]),
        "partition_size": sum(len(g) for g in doc.get("classification", {}).values()),
    }


def _observe_sphere(doc: dict) -> dict:
    table = doc["epsilon_table"]
    return {
        "total_dim": doc["total_dim"],
        "component_dim": doc["component_dim"],
        "lambda_rank": doc["lambda_rank"],
        "rows": len(table),
        "row_sum": sum(table.values()),
        "row_values": sorted(set(table.values())),
        "table": table,
    }


def _observe_torus(doc: dict) -> dict:
    return {"dims": doc["dims"]}


def _observe_minimal(doc: dict) -> dict:
    return {
        "c": Fraction(doc["c"]),
        "ns": [(x["r"], x["s"], Fraction(x["h"])) for x in doc["ns"]],
        "r": [(x["r"], x["s"], Fraction(x["h"])) for x in doc["r"]],
        "split": sorted({x["split"] for x in doc["r"]}),
    }


def _observe_scan(doc: dict) -> dict:
    return {
        "count": doc["count"],
        "pairs": [(m["p"], m["q"]) for m in doc["models"]],
    }


OBSERVERS: dict[str, Callable[[dict], dict]] = {
    "singvec": _observe_singvec,
    "validate": _observe_validate,
    "smatrix": _observe_smatrix,
    "classify": _observe_classify,
    "sphere": _observe_sphere,
    "torus": _observe_torus,
    "minimal": _observe_minimal,
    "minimal-scan": _observe_scan,
}


# ---------------------------------------------------------------------------
# the check


def _same(got: Any, want: Any) -> bool:
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float, complex)):
        return abs(got - want) <= 1e-9 * max(1.0, abs(want))
    return got == want


def check(oracle: str, expect: dict, code: int, stdout: str, stderr: str) -> str | None:
    """None when the output matches every expected value, else the first mismatch."""
    if code != expect["exit"]:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {code}, expected {expect['exit']}: {tail[0][:200]}"
    if "stderr" in expect:
        if expect["stderr"] not in stderr:
            return f"stderr lacks {expect['stderr']!r}"
    keys = [k for k in expect if k not in ("exit", "stderr")]
    if not keys:
        return None
    try:
        observed = OBSERVERS[oracle](json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    for key in keys:
        if not _same(observed.get(key), expect[key]):
            return f"{key}: got {_short(observed.get(key))}, expected {_short(expect[key])}"
    return None


def _short(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def corrupt(value: Any) -> Any:
    """A value that differs from ``value``; used to show a check can fail."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float, Fraction)):
        return value + 1
    if isinstance(value, str):
        return value + "#"
    if isinstance(value, dict):
        out = dict(value)
        first = next(iter(out))
        out[first] = corrupt(out[first])
        return out
    if isinstance(value, list):
        return value[:-1] if value else [0]
    if value is None:
        return 0
    raise TypeError(f"cannot corrupt {value!r}")
