"""Built-in category corpus: small exactly-known fusion data sets.

These are constructed in code (not parsed), so they double as fixtures for
tests and as reference files via the CLI ``builtin`` subcommand.  A row of
``_TABLE`` holds only a category's defining data: its labels, unit first; the
products of non-unit labels, each unordered pair once, as their results of
multiplicity 1; the twists, aligned with the labels; and the quantum
dimensions other than 1.  ``_category`` derives the unit's products, the other
order of every product and the duals; a parametrised family passes it a
products formula, as the pointed groups do through ``_group``.
``BUILTIN_KEYS`` lives in the package ``__init__``, so that the CLI reads the
keys without executing this module; it runs only where a builtin is built.
The numbers come from ``cyclotomic`` and the record from ``fusion``, which
every command that builds a category executes anyway.
"""

from __future__ import annotations

from fractions import Fraction
from operator import xor
from typing import Mapping, Sequence

from . import BUILTIN_KEYS
from .cyclotomic import Cyclotomic, zeta
from .fusion import FormatError, FusionData

__all__ = ["BUILTIN_KEYS", "builtin"]


def _group(elements: tuple[str, ...], add) -> dict:
    """Products of a pointed category on an abelian group given by index arithmetic."""
    return {(a, elements[j]): (elements[add(i, j)],) for i, a in enumerate(elements) if i
            for j in range(i, len(elements))}


_Z4, _Z2Z2 = ("j0", "j1", "j2", "j3"), ("1", "e", "m", "f")  # Z/2 x Z/2 as bit pairs 00, 01, 10, 11

# key: labels (unit first), products of non-unit pairs, twists, qdims other than 1
_TABLE = {
    "trivial": (("1",), {}, ("0",), {}),
    # Ising-type: an invertible fermion psi and a spin label sigma
    "fermion": (("1", "psi", "sigma"),
                {("psi", "psi"): ("1",), ("psi", "sigma"): ("sigma",), ("sigma", "sigma"): ("1", "psi")},
                ("0", "1/2", "1/16"), {"sigma": zeta(8) + zeta(8) ** 7}),
    # Z/4 with quadratic twists j^2/8
    "dirac": (_Z4, _group(_Z4, lambda i, j: (i + j) % 4), ("0", "1/8", "1/2", "1/8"), {}),
    "toric": (_Z2Z2, _group(_Z2Z2, xor), ("0", "0", "0", "1/2"), {}),
    # tau x tau = 1 + tau, with golden-ratio dimension
    "fibonacci": (("1", "tau"), {("tau", "tau"): ("1", "tau")}, ("0", "2/5"),
                  {"tau": -(zeta(5) ** 2) - zeta(5) ** 3}),
}


def _category(name: str, labels: tuple[str, ...], products: Mapping[tuple[str, str], tuple[str, ...]],
              twists: Sequence[str | Fraction], qdims: Mapping[str, Cyclotomic]) -> FusionData:
    """The category of ``_TABLE``'s fields; b is dual to a when the unit is in a x b."""
    unit, one = labels[0], Cyclotomic.from_rational(1)
    fusion = {}
    for a in labels:
        fusion[(unit, a, a)] = fusion[(a, unit, a)] = 1
    for (a, b), results in products.items():
        for c in results:
            fusion[(a, b, c)] = fusion[(b, a, c)] = 1
    return FusionData(name=name, labels=labels, unit=unit, fusion=fusion,
                      dual={a: b for a in labels for b in labels if (a, b, unit) in fusion},
                      twist={a: Fraction(t) for a, t in zip(labels, twists)},
                      qdim={a: qdims.get(a, one) for a in labels})


def builtin(key: str) -> FusionData:
    """One of the built-in categories, by key; raises FormatError for unknown keys."""
    if key not in _TABLE:
        raise FormatError(f"unknown builtin {key!r}; available: {', '.join(BUILTIN_KEYS)}")
    return _category(key, *_TABLE[key])
