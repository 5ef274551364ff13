"""Label tables for N=1 minimal models.

A model is indexed by integers p, q >= 2 of equal parity with
gcd(p, (p-q)/2) = 1.  Labels live on the (r, s) grid, 1 <= r < p and
1 <= s < q, modulo the identification (r, s) ~ (p-r, q-s); the sector is
Neveu-Schwarz when r - s is even and Ramond when it is odd.  Central charge
and conformal weights are exact rationals throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .exactnum import _fraction_str

__all__ = [
    "MinimalModelSpec",
    "MinimalLabel",
    "validate_pq",
    "central_charge",
    "conformal_weight",
    "enumerate_labels",
    "sector_counts",
    "valid_pairs",
    "model_to_dict",
]


def validate_pq(p: int, q: int) -> str | None:
    """None when (p, q) indexes a model, else the reason it does not."""
    if not isinstance(p, int) or not isinstance(q, int):
        return "p and q must be integers"
    if p < 2 or q < 2:
        return f"p and q must be at least 2, got ({p}, {q})"
    if (p - q) % 2:
        return f"p and q must have equal parity, got ({p}, {q})"
    if math.gcd(p, (p - q) // 2) != 1:
        return f"gcd(p, (p-q)/2) must be 1, got ({p}, {q})"
    return None


@dataclass(frozen=True)
class MinimalModelSpec:
    """A validated (p, q) pair; construction rejects non-models."""

    p: int
    q: int

    def __post_init__(self) -> None:
        reason = validate_pq(self.p, self.q)
        if reason is not None:
            raise ValueError(reason)


def central_charge(spec: MinimalModelSpec) -> Fraction:
    """c = (3/2) (1 - 2 (p-q)^2 / (p q)), exactly."""
    p, q = spec.p, spec.q
    return Fraction(3, 2) * (1 - Fraction(2 * (p - q) ** 2, p * q))


def conformal_weight(spec: MinimalModelSpec, r: int, s: int) -> Fraction:
    """Weight of the (r, s) label; the Ramond sector adds 1/16.

    The sector is read off from the parity of r - s.
    """
    p, q = spec.p, spec.q
    if not (1 <= r < p and 1 <= s < q):
        raise ValueError(f"(r, s) = ({r}, {s}) outside the label grid of ({p}, {q})")
    h = Fraction((r * q - s * p) ** 2 - (p - q) ** 2, 8 * p * q)
    if (r - s) % 2:
        h += Fraction(1, 16)
    return h


@dataclass(frozen=True)
class MinimalLabel:
    """One irreducible label: sector, canonical grid position, weight.

    ``split`` is None in the NS sector; in the R sector it records whether
    the label splits into two irreducibles (true for every R label of a
    given model, or false for every one).
    """

    sector: str  # "NS" | "R"
    r: int
    s: int
    h: Fraction
    split: bool | None = None


def sector_counts(spec: MinimalModelSpec) -> tuple[int, int]:
    """(NS count, R count) from the closed-form census.

    Odd p, q: each sector has (p-1)(q-1)/4 labels.  Even p, q: each sector
    has ((p-1)(q-1)+1)/4; the identification's fixed point (p/2, q/2) is
    Ramond, because gcd(p, (p-q)/2) = 1 forces (p-q)/2 odd.
    """
    p, q = spec.p, spec.q
    g = (p - 1) * (q - 1)
    if p % 2 == 1:
        return g // 4, g // 4
    return (g + 1) // 4, (g + 1) // 4


def enumerate_labels(spec: MinimalModelSpec) -> list[MinimalLabel]:
    """All labels under the grid identification, canonical representatives.

    The representative of {(r, s), (p-r, q-s)} is the lexicographically
    smaller pair.  NS labels come first, each sector sorted by (r, s).
    R labels split iff (p-1)(q-1) is even.  The result is checked against
    the closed-form sector census.
    """
    p, q = spec.p, spec.q
    split = ((p - 1) * (q - 1)) % 2 == 0
    ns: list[MinimalLabel] = []
    ram: list[MinimalLabel] = []
    for r in range(1, p):
        for s in range(1, q):
            if (r, s) > (p - r, q - s):
                continue
            h = conformal_weight(spec, r, s)
            if (r - s) % 2 == 0:
                ns.append(MinimalLabel("NS", r, s, h))
            else:
                ram.append(MinimalLabel("R", r, s, h, split))
    ns.sort(key=lambda lab: (lab.r, lab.s))
    ram.sort(key=lambda lab: (lab.r, lab.s))
    want = sector_counts(spec)
    got = (len(ns), len(ram))
    if got != want:
        raise AssertionError(f"sector census mismatch for ({p}, {q}): got {got}, expected {want}")
    return ns + ram


def valid_pairs(max_product: int) -> Iterator[MinimalModelSpec]:
    """All models with p <= q and p*q <= max_product, ordered by (p*q, p)."""
    found = []
    for p in range(2, max_product + 1):
        for q in range(p, max_product // p + 1):
            if validate_pq(p, q) is None:
                found.append(MinimalModelSpec(p, q))
    found.sort(key=lambda m: (m.p * m.q, m.p))
    return iter(found)


def model_to_dict(spec: MinimalModelSpec) -> dict:
    labels = enumerate_labels(spec)
    return {
        "p": spec.p,
        "q": spec.q,
        "c": _fraction_str(central_charge(spec)),
        "ns": [
            {"r": lab.r, "s": lab.s, "h": _fraction_str(lab.h)}
            for lab in labels
            if lab.sector == "NS"
        ],
        "r": [
            {"r": lab.r, "s": lab.s, "h": _fraction_str(lab.h), "split": lab.split}
            for lab in labels
            if lab.sector == "R"
        ],
    }
