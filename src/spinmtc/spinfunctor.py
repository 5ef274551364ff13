"""State-space dimensions of spin surfaces from fermionic fusion data.

A sphere with framed punctures labelled X_1..X_n carries one vector space per
assignment of a sign epsilon_i to each puncture; flipping epsilon_i replaces
X_i by its image under tensoring with the odd generator v.  The functor's total
space is the sum over all 2^n assignments and splits into 2^{n-1} isomorphic
blocks; punctures with non-split (R0) labels contribute odd generators to a
Clifford algebra acting on the result.  Torus spaces are counted per spin
structure from the label partition alone.

Parity law: tensoring by v is an involutive permutation of the labels that
commutes with fusion by every puncture label, so a chain with m flipped
labels is v^(m mod 2) times the unflipped chain.  Each epsilon-table entry
therefore depends only on the parity of epsilon, and the whole table comes
from two fusion chains.  The commutation is checked on the input before the
law is used; the table is a mapping that answers each key by its parity.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping
from typing import NamedTuple

from . import _Record
from .clifford import _clifford_case, classify_labels
from .fusion import FormatError, FusionData, InconsistentDataError, hom_unit_dim

__all__ = [
    "EpsilonTable",
    "SpinSphereSpec",
    "SpinSphereReport",
    "sphere_epsilon_table",
    "sphere_report",
    "torus_dims",
]


class SpinSphereSpec(_Record):
    """A labelled spin sphere: category, odd generator, ordered puncture labels."""

    _fields = ("category", "vminus", "boundary_labels")

    def __init__(self, category: FusionData, vminus: str, boundary_labels: tuple[str, ...]):
        if not boundary_labels:
            raise FormatError("a sphere report needs at least one puncture")
        for lab in boundary_labels:
            if lab not in category.labels:
                raise FormatError(f"unknown puncture label {lab!r}")
        self._set(category=category, vminus=vminus, boundary_labels=boundary_labels)


class EpsilonTable(Mapping):
    """Epsilon table of n punctures: an n-tuple of 0/1 maps to ``odd`` if its
    sum is odd, else to ``even``; keys iterate sorted, and are never stored."""

    BLOCK_ROWS = 1024  # the most rows in one of ``blocks``' parts, a power of 2

    def __init__(self, n: int, even: int, odd: int):
        self.n, self.even, self.odd = n, even, odd

    def __len__(self) -> int:
        return 1 << self.n

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return itertools.product((0, 1), repeat=self.n)

    def __getitem__(self, key: object) -> int:
        if not (isinstance(key, tuple) and len(key) == self.n and all(b in (0, 1) for b in key)):
            raise KeyError(key)
        return self.odd if sum(key) % 2 else self.even

    def rows(self) -> Iterator[tuple[str, int]]:
        """(bit string, value) for every key, in sorted order."""
        n, vals = self.n, (self.even, self.odd)
        return ((format(i, f"0{n}b"), vals[i.bit_count() & 1]) for i in range(1 << n))

    def blocks(self, row: str, sep: str) -> Iterator[str]:
        """``sep.join(row.format(bits, value) for bits, value in self.rows())``,
        in parts of at most ``BLOCK_ROWS`` rows.

        The rows that share h, their bits above the last log2(``BLOCK_ROWS``),
        form one part.  Their values follow h's parity, so each part is one of
        two templates, formatted once, with h's bits put in by one replace.
        """
        n, vals = self.n, (self.even, self.odd)
        low = min(n, self.BLOCK_ROWS.bit_length() - 1)
        high = n - low
        # "\0" marks where h's bits go: no row holds one
        templates = [sep.join(row.format(f"\0{i:0{low}b}", vals[(p + i.bit_count()) & 1]) for i in range(1 << low))
                     for p in (0, 1)]
        for h in range(1 << high):
            yield templates[h.bit_count() & 1].replace("\0", format(h, f"0{high}b") if high else "")


class SpinSphereReport(NamedTuple):
    """``lambda_rank`` counts the R0 punctures, the generators of the Clifford
    algebra acting on the space; its parity is the algebra's class in the
    graded Brauer group Z/2."""

    total_dim: int
    component_dim: int
    lambda_rank: int
    epsilon_table: EpsilonTable

    def to_dict(self, table: bool = True) -> dict:
        """The report as JSON data; ``table=False`` leaves out the epsilon table."""
        n = self.lambda_rank
        out = {
            "total_dim": self.total_dim,
            "component_dim": self.component_dim,
            "lambda_rank": n,
            "lambda_class": {"generators": n, "parity": n % 2},
        }
        if table:
            out["epsilon_table"] = dict(self.epsilon_table.rows())
        return out


def sphere_epsilon_table(spec: SpinSphereSpec) -> EpsilonTable:
    """Unit multiplicity of the twisted label chain for every sign assignment.

    Key (e_1..e_n): label i is replaced by its involution image when e_i = 1.
    By the parity law, once its premise is checked, two chains give every entry.
    """
    data, labels = spec.category, spec.boundary_labels
    inv = _clifford_case(data, spec.vminus).involution
    rules = data._rules
    for x in dict.fromkeys(labels):  # (inv x) * j = x * (inv j) = inv(x * j)
        for j in data.labels:
            want = {inv[k]: v for k, v in rules.get(x, {}).get(j, {}).items()}
            if want != rules.get(inv[x], {}).get(j, {}) or want != rules.get(x, {}).get(inv[j], {}):
                raise InconsistentDataError(f"tensoring by {spec.vminus!r} does not commute "
                                            f"with fusion at puncture {x!r} and label {j!r}")
    even = hom_unit_dim(data, labels)
    odd = hom_unit_dim(data, (inv[labels[0]],) + labels[1:])
    return EpsilonTable(len(labels), even, odd)


def sphere_report(spec: SpinSphereSpec) -> SpinSphereReport:
    """Total and per-block dimensions, and the Clifford generator count of the
    R0 punctures.

    Each of the 2^{n-1} blocks holds one even and one odd assignment.
    """
    cls = classify_labels(spec.category, spec.vminus)
    table = sphere_epsilon_table(spec)
    n = len(spec.boundary_labels)
    component = table.even + table.odd
    lam = sum(1 for lab in spec.boundary_labels if lab in cls.r_zero)
    return SpinSphereReport(
        total_dim=2 ** (n - 1) * component,
        component_dim=component,
        lambda_rank=lam,
        epsilon_table=table,
    )


def torus_dims(data: FusionData, vminus: str) -> dict[str, int]:
    """State-space dimensions of the four spin tori, by boundary condition pair.

    Returns a dict keyed "AA", "AP", "PA", "PP" in that order.  AA is the
    count of even vacua |NS+|; the three others count Ramond data:
    PP = |R+| and both mixed structures = |R+| + |R0|.
    """
    cls = classify_labels(data, vminus)
    r_plus = len(cls.r_plus)
    r_zero = len(cls.r_zero)
    return {
        "AA": len(cls.ns_plus),
        "AP": r_plus + r_zero,
        "PA": r_plus + r_zero,
        "PP": r_plus,
    }
