"""Built-in category corpus: small exactly-known fusion data sets.

These are constructed in code (not parsed), so they double as fixtures for
tests and as reference files via the CLI ``builtin`` subcommand.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import Cyclotomic, zeta
from .fusion import FormatError, FusionData

__all__ = ["BUILTIN_KEYS", "builtin"]

BUILTIN_KEYS = ("trivial", "fermion", "dirac", "toric", "fibonacci")


def _group_category(name: str, elements: list[str], add, neg, twist) -> FusionData:
    """Pointed category on an abelian group given by index arithmetic."""
    one = Cyclotomic.from_rational(1)
    labels = tuple(elements)
    fusion = {}
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            fusion[(a, b, elements[add(i, j)])] = 1
    return FusionData(
        name=name,
        labels=labels,
        unit=elements[0],
        dual={a: elements[neg(i)] for i, a in enumerate(elements)},
        fusion=fusion,
        twist={a: Fraction(twist[i]) for i, a in enumerate(elements)},
        qdim={a: one for a in elements},
    )


def _trivial() -> FusionData:
    """The trivial group: one label, its own unit and dual."""
    return _group_category("trivial", ["1"], add=lambda i, j: 0, neg=lambda i: 0, twist=[0])


def _fermion() -> FusionData:
    """Rank-3 Ising-type data: an invertible fermion psi and a spin label sigma."""
    one = Cyclotomic.from_rational(1)
    sqrt2 = zeta(8) + zeta(8) ** 7
    labels = ("1", "psi", "sigma")
    fusion = {
        ("1", "1", "1"): 1,
        ("1", "psi", "psi"): 1,
        ("psi", "1", "psi"): 1,
        ("1", "sigma", "sigma"): 1,
        ("sigma", "1", "sigma"): 1,
        ("psi", "psi", "1"): 1,
        ("psi", "sigma", "sigma"): 1,
        ("sigma", "psi", "sigma"): 1,
        ("sigma", "sigma", "1"): 1,
        ("sigma", "sigma", "psi"): 1,
    }
    return FusionData(
        name="fermion",
        labels=labels,
        unit="1",
        dual={lab: lab for lab in labels},
        fusion=fusion,
        twist={"1": Fraction(0), "psi": Fraction(1, 2), "sigma": Fraction(1, 16)},
        qdim={"1": one, "psi": one, "sigma": sqrt2},
    )


def _dirac() -> FusionData:
    """Pointed Z/4 data with quadratic twists j^2/8; duals are negation."""
    return _group_category(
        "dirac",
        ["j0", "j1", "j2", "j3"],
        add=lambda i, j: (i + j) % 4,
        neg=lambda i: (-i) % 4,
        twist=[Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(1, 8)],
    )


def _toric() -> FusionData:
    """Pointed Z/2 x Z/2 data, all labels self-dual, one label twisted by 1/2."""
    order = ["1", "e", "m", "f"]  # bit pairs 00, 01, 10, 11
    return _group_category(
        "toric",
        order,
        add=lambda i, j: i ^ j,
        neg=lambda i: i,
        twist=[Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2)],
    )


def _fibonacci() -> FusionData:
    """Rank-2 data with tau x tau = 1 + tau and golden-ratio dimension."""
    one = Cyclotomic.from_rational(1)
    golden = -(zeta(5) ** 2) - zeta(5) ** 3
    return FusionData(
        name="fibonacci",
        labels=("1", "tau"),
        unit="1",
        dual={"1": "1", "tau": "tau"},
        fusion={
            ("1", "1", "1"): 1,
            ("1", "tau", "tau"): 1,
            ("tau", "1", "tau"): 1,
            ("tau", "tau", "1"): 1,
            ("tau", "tau", "tau"): 1,
        },
        twist={"1": Fraction(0), "tau": Fraction(2, 5)},
        qdim={"1": one, "tau": golden},
    )


_BUILDERS = {
    "trivial": _trivial,
    "fermion": _fermion,
    "dirac": _dirac,
    "toric": _toric,
    "fibonacci": _fibonacci,
}


def builtin(key: str) -> FusionData:
    """One of the built-in categories, by key; raises FormatError for unknown keys."""
    try:
        maker = _BUILDERS[key]
    except KeyError:
        raise FormatError(f"unknown builtin {key!r}; available: {', '.join(BUILTIN_KEYS)}") from None
    return maker()
