"""Fermionic structure on a modular tensor category.

Given fusion data with a distinguished invertible label of twist 1/2 (the
"odd" object), this module builds the tensoring involution, the sign
character zeta separating Neveu-Schwarz from Ramond labels, and the
five-way label partition.  The exact block-structure checks the s-matrix
must satisfy against that partition live with the s-matrix, in
:mod:`spinmtc.exactnum`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from . import _lazy
from .fusion import FusionData, InconsistentDataError

__all__ = [
    "CliffordStructure",
    "LabelClassification",
    "find_vminus",
    "involution_from_vminus",
    "clifford_structure",
    "classify_labels",
]


# The name that the benchmark's tracing still resolves here, and the module
# that defines it now (ROADMAP 5b re-points it and drops this).
_FORWARDS = {"verify_block_structure": "exactnum"}


def __getattr__(name: str) -> object:
    if name in _FORWARDS:
        return getattr(_lazy(_FORWARDS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CliffordStructure(NamedTuple):
    """A chosen odd generator together with its derived structure maps."""

    vminus: str
    sigma_vv: int  # -1: Clifford case; +1: square-root case
    involution: Mapping[str, str]
    zeta: Mapping[str, int]

    @property
    def is_clifford(self) -> bool:
        return self.sigma_vv == -1


class LabelClassification(NamedTuple):
    """Five-way label partition.

    ``ns_minus`` and ``r_minus`` are aligned elementwise with ``ns_plus`` and
    ``r_plus``: entry k of the minus list is the involution image of entry k
    of the plus list.  ``r_zero`` holds the involution fixed points.
    """

    ns_plus: tuple[str, ...]
    ns_minus: tuple[str, ...]
    r_plus: tuple[str, ...]
    r_minus: tuple[str, ...]
    r_zero: tuple[str, ...]

    def to_dict(self) -> dict:
        return {name: list(group) for name, group in self._asdict().items()}


def find_vminus(data: FusionData) -> list[str]:
    """All non-unit labels that square to the unit alone and have twist 1/2.

    Returned in the input label order.
    """
    rules = data._rules
    return [
        lab
        for lab in data.labels
        if lab != data.unit
        and rules.get(lab, {}).get(lab) == {data.unit: 1}
        and data.twist[lab] % 1 == Fraction(1, 2)
    ]


def involution_from_vminus(data: FusionData, vminus: str) -> dict[str, str]:
    """The label involution M -> vminus x M; requires a free action."""
    left = data._rules.get(vminus, {})
    inv: dict[str, str] = {}
    for lab in data.labels:
        images = left.get(lab, {})
        if list(images.values()) != [1]:
            raise InconsistentDataError(
                f"tensoring by {vminus!r} does not permute labels freely at {lab!r}"
            )
        inv[lab] = next(iter(images))
    for lab in data.labels:
        if inv[inv[lab]] != lab:
            raise InconsistentDataError(
                f"tensoring by {vminus!r} is not an involution at {lab!r}"
            )
    return inv


def _zeta(data: FusionData, inv: Mapping[str, str]) -> dict[str, int]:
    """The sign -theta(vminus x M)/theta(M) for every label M, where inv is
    the involution M -> vminus x M of the odd generator.

    The ratio of twists is an exact root of unity; a value other than +-1
    means the input is not consistent fermionic data.
    """
    zeta: dict[str, int] = {}
    for lab in data.labels:
        delta = (data.twist[inv[lab]] - data.twist[lab]) % 1
        if delta == Fraction(1, 2):
            zeta[lab] = 1
        elif delta == 0:
            zeta[lab] = -1
        else:
            raise InconsistentDataError(
                f"twist ratio at {lab!r} is a primitive root e^(2 pi i {delta}), not a sign; "
                f"not consistent fermionic data"
            )
    return zeta


def clifford_structure(data: FusionData, vminus: str) -> CliffordStructure:
    """Bundle the involution and zeta character for a chosen odd generator.

    ``sigma_vv`` defaults to -1 (the Clifford case) when the input does not
    declare it.
    """
    if vminus not in find_vminus(data):
        raise InconsistentDataError(
            f"{vminus!r} is not an admissible odd generator for {data.name!r}"
        )
    inv = involution_from_vminus(data, vminus)
    sigma = data.sigma_vv if data.sigma_vv is not None else -1
    return CliffordStructure(vminus=vminus, sigma_vv=sigma, involution=inv, zeta=_zeta(data, inv))


def _clifford_case(data: FusionData, vminus: str) -> CliffordStructure:
    """``clifford_structure``, refused unless it is the Clifford case: the
    one refusal of the label partition and of every spin surface space."""
    st = clifford_structure(data, vminus)
    if not st.is_clifford:
        raise InconsistentDataError(
            f"{data.name!r} declares self-braiding +1 at {vminus!r}; the label "
            f"partition applies only to the Clifford case"
        )
    return st


def classify_labels(data: FusionData, vminus: str) -> LabelClassification:
    """Partition labels into NS+/NS-/R+/R-/R0 for the chosen odd generator.

    Orbit representatives ("plus" labels) are chosen by input label order.
    The zeta character is checked to be multiplicative across every nonzero
    fusion channel before it is trusted.
    """
    st = _clifford_case(data, vminus)
    zeta, inv = st.zeta, st.involution

    for (i, j, k), v in data.fusion.items():
        if v and zeta[k] != zeta[i] * zeta[j]:
            raise InconsistentDataError(
                f"zeta is not multiplicative on channel {i} x {j} -> {k}"
            )

    ns_plus: list[str] = []
    ns_minus: list[str] = []
    r_plus: list[str] = []
    r_minus: list[str] = []
    r_zero: list[str] = []
    seen: set[str] = set()
    for lab in data.labels:
        if lab in seen:
            continue
        img = inv[lab]
        if img == lab:
            # fixed points have zeta -1 automatically: the twist ratio is 1
            r_zero.append(lab)
            seen.add(lab)
        else:
            plus, minus = (ns_plus, ns_minus) if zeta[lab] == 1 else (r_plus, r_minus)
            plus.append(lab)
            minus.append(img)
            seen.add(lab)
            seen.add(img)
    return LabelClassification(
        ns_plus=tuple(ns_plus),
        ns_minus=tuple(ns_minus),
        r_plus=tuple(r_plus),
        r_minus=tuple(r_minus),
        r_zero=tuple(r_zero),
    )
