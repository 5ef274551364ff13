"""Fixtures shared by the spin-sphere and minimal-model tests, ``replace`` and ``cyc_matrix``."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from spinmtc.clifford import involution_from_vminus
from spinmtc.cyclotomic import Cyclotomic, _integer_form
from spinmtc.exactnum import CycMatrix
from spinmtc.fusion import FusionData, hom_unit_dim
from spinmtc.verma import PBWMonomial


def replace(record, **changes):
    """A copy of a record with the named fields changed; the rest are shared."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


def cyc_matrix(grid, shape=None, conductor=1):
    """The CycMatrix of a grid of ints, Fractions or Cyclotomics at the lcm of
    ``conductor`` and theirs; ``shape`` keeps the width of a 0 x n or n x 0 grid."""
    rows, cols = shape or (len(grid), len(grid[0]) if grid else 0)
    n, den, flat = _integer_form(Cyclotomic(conductor, {}) + x for row in grid for x in row)
    ints = [flat[i * cols:(i + 1) * cols] for i in range(rows)]
    return CycMatrix(math.lcm(n, conductor), den, ints, (rows, cols))


def _brute_force_epsilon_table(data, vminus, chain):
    """One fusion chain per sign assignment: the 2^n loop the parity law replaces."""
    inv = involution_from_vminus(data, vminus)
    n = len(chain)
    table = {}
    for mask in range(2 ** n):
        eps = tuple((mask >> i) & 1 for i in range(n))
        table[eps] = hom_unit_dim(data, [inv[lab] if e else lab for lab, e in zip(chain, eps)])
    return table


@pytest.fixture
def brute_force_epsilon_table():
    return _brute_force_epsilon_table


def _c2_monomials(d: Fraction) -> list[PBWMonomial]:
    """(L_{-2})^i, then G_{-3/2} (L_{-2})^i, for each i with 2i < d: the
    monomials in L_{-2} and G_{-3/2} that the degree-d leading monomial of a
    minimal-model singular vector leaves standing."""
    below = math.ceil(d / 2)  # the i >= 0 with 2i < d
    return [PBWMonomial((), (-2,) * i) for i in range(below)] + [
        PBWMonomial((Fraction(-3, 2),), (-2,) * i) for i in range(below)
    ]


@pytest.fixture
def c2_monomials():
    return _c2_monomials


def _pointed_ring(name: str, products: dict) -> FusionData:
    """Labels 1, v, a, b with unit rules, v*v = 1, v*a = b, v*b = a, twist 1/2
    on v only and unit dimensions: v is an admissible odd generator whose
    involution 1<->v, a<->b passes every check on the sphere path."""
    labels = ("1", "v", "a", "b")
    products = {("v", "v"): "1", ("v", "a"): "b", ("v", "b"): "a", **products}
    fusion = {("1", x, x): 1 for x in labels}
    fusion.update({(x, "1", x): 1 for x in labels})
    fusion.update({(i, j, k): 1 for (i, j), k in products.items()})
    return FusionData(
        name=name,
        labels=labels,
        unit="1",
        dual={x: x for x in labels},
        fusion=fusion,
        twist={"1": Fraction(0), "v": Fraction(1, 2), "a": Fraction(0), "b": Fraction(0)},
        qdim={x: Cyclotomic.from_rational(1) for x in labels},
    )


@pytest.fixture
def skew() -> FusionData:
    """Fusion by the flipped label a -> b is not v times fusion by a:
    a*a = 1 but b*a = 1, not v.  Fusion is not even commutative (a*b = v),
    so ``validate`` rejects it; the sphere path must too."""
    return _pointed_ring("skew", {("a", "v"): "b", ("b", "v"): "a", ("a", "a"): "1",
                                  ("b", "b"): "1", ("a", "b"): "v", ("b", "a"): "1"})


@pytest.fixture
def skew_right() -> FusionData:
    """Fusion by b is v times fusion by a, but fusion by a does not commute
    with v on the right: a*v = a, not v*(a*1) = b."""
    return _pointed_ring("skew_right", {("a", "v"): "a", ("b", "v"): "b", ("a", "a"): "1",
                                        ("a", "b"): "1", ("b", "a"): "v", ("b", "b"): "v"})
