"""Fusion-ring data for modular tensor categories.

A :class:`FusionData` bundle carries the numerical shadow this library works
with: an ordered label set, fusion multiplicities, rational twist rotation
numbers, and cyclotomic quantum dimensions.  This module checks the structure
the other checks presume, folds iterated fusion products, and forms Deligne
(componentwise) products.  Everything is exact.  Every category command
executes it; the ring axioms (``validate``) live in :mod:`spinmtc.axioms`,
the s-matrix in :mod:`spinmtc.exactnum` and the category file format in
:mod:`spinmtc.fusionfile`, which only the commands that need them execute.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from . import _lazy, _Record
from .cyclotomic import Cyclotomic

__all__ = [
    "FusionData",
    "Violation",
    "FormatError",
    "InconsistentDataError",
    "structure_violations",
    "hom_unit_dim",
    "deligne_product",
]

# Names that the benchmark's tracing and workloads still resolve here, and
# the modules that define them now (ROADMAP 5b re-points those and drops this).
_FORWARDS = {
    "validate": "axioms",
    "compute_smatrix": "exactnum",
    "check_s_squared": "exactnum",
    "load_fusion": "fusionfile",
    "dump_fusion": "fusionfile",
}


def __getattr__(name: str) -> object:
    if name in _FORWARDS:
        return getattr(_lazy(_FORWARDS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class FormatError(ValueError):
    """Malformed input: bad JSON shape, unknown keys, unparseable numbers."""


class InconsistentDataError(ValueError):
    """Well-formed input whose numbers contradict the structure they claim."""

    exit_code = 1  # the CLI's exit status; malformed input (FormatError) exits 2


class Violation(NamedTuple):
    """One failed validation check, with a witness locating the failure."""

    check: str
    witness: tuple
    detail: str

    def to_dict(self) -> dict:
        return {"check": self.check, "witness": list(self.witness), "detail": self.detail}

    def __str__(self) -> str:
        return f"{self.check} at {self.witness}: {self.detail}"


class FusionData(_Record):
    """Numerical shadow of a modular tensor category.

    ``fusion`` is sparse: absent triples mean multiplicity zero.  ``sigma_vv``
    is the self-braiding sign of the distinguished square root of the unit,
    when the input declares one (-1 is the Clifford case).
    """

    _fields = ("name", "labels", "unit", "dual", "fusion", "twist", "qdim", "sigma_vv")

    def __init__(
        self,
        name: str,
        labels: tuple[str, ...],
        unit: str,
        dual: Mapping[str, str],
        fusion: Mapping[tuple[str, str, str], int],
        twist: Mapping[str, Fraction],
        qdim: Mapping[str, Cyclotomic],
        sigma_vv: int | None = None,
    ):
        self._set(name=name, labels=labels, unit=unit, dual=dual, fusion=fusion,
                  twist=twist, qdim=qdim, sigma_vv=sigma_vv)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise FormatError(f"unknown label {label!r} in category {self.name!r}") from None

    @cached_property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def _rules(self) -> dict[str, dict[str, dict[str, int]]]:
        """Nonzero multiplicities among known labels, as ``_rules[i][j][k]``."""
        idx = self._index
        rules: dict[str, dict[str, dict[str, int]]] = {}
        for (i, j, k), v in self.fusion.items():
            if v and i in idx and j in idx and k in idx:
                rules.setdefault(i, {}).setdefault(j, {})[k] = v
        return rules


# ---------------------------------------------------------------------------
# structure


def structure_violations(data: FusionData) -> list[Violation]:
    """What validate's axiom checks (``axioms.axiom_violations``) presume:
    labels, unit, map entries, ``dual`` values, fusion keys and
    multiplicities, and ``sigma_vv``."""
    out: list[Violation] = []
    labels = data.labels
    label_set = set(labels)

    if not labels:
        return [Violation("labels", (), "label set is empty")]
    for lab in labels:
        if not isinstance(lab, str) or not lab or any(ch.isspace() for ch in lab):
            out.append(Violation("labels", (lab,), "labels must be nonempty strings without whitespace"))
    if len(label_set) != len(labels):
        dup = sorted({lab for lab in labels if labels.count(lab) > 1})
        out.append(Violation("labels", tuple(dup), "duplicate labels"))
    if data.unit not in label_set:
        out.append(Violation("unit", (data.unit,), "unit label not in label set"))

    for mapping, name in ((data.dual, "dual"), (data.twist, "twist"), (data.qdim, "qdim")):
        missing = label_set - set(mapping)
        extra = set(mapping) - label_set
        if missing:
            out.append(Violation(name, tuple(sorted(missing)), f"{name} missing for these labels"))
        if extra:
            out.append(Violation(name, tuple(sorted(extra)), f"{name} defined for unknown labels"))
    unknown = sorted(lab for lab in label_set & set(data.dual) if data.dual[lab] not in label_set)
    if unknown:
        out.append(Violation("dual", tuple(unknown), "dual maps these labels to unknown labels"))

    for key, v in data.fusion.items():
        if len(key) != 3 or not label_set.issuperset(key):
            out.append(Violation("fusion", key, "fusion key mentions unknown labels"))
        elif not isinstance(v, int) or isinstance(v, bool) or v < 0:
            out.append(Violation("fusion", key, f"multiplicity must be a nonnegative integer, got {v!r}"))

    if data.sigma_vv is not None and (type(data.sigma_vv) is not int or data.sigma_vv not in (1, -1)):
        out.append(Violation("sigma_vv", (data.sigma_vv,), "sigma_vv must be +1 or -1"))
    return out


# ---------------------------------------------------------------------------
# iterated fusion


def hom_unit_dim(data: FusionData, chain: Sequence[str]) -> int:
    """Multiplicity of the unit in the ordered fusion product of ``chain``.

    The empty chain is the unit object itself, so the answer is 1.
    """
    rules = data._rules
    data.index(data.unit)
    vec = {data.unit: 1}
    for lab in chain:
        left = rules.get(lab)
        if left is None:
            data.index(lab)  # unknown labels are format errors
            left = {}
        nxt: dict[str, int] = {}
        for j, m in vec.items():
            for k, v in left.get(j, {}).items():
                nxt[k] = nxt.get(k, 0) + m * v
        vec = nxt
    return vec.get(data.unit, 0)


def deligne_product(a: FusionData, b: FusionData) -> FusionData:
    """Componentwise product category: labels pair up, twists add, dims multiply."""
    labels = tuple(f"({la},{lb})" for la in a.labels for lb in b.labels)
    pair = {(la, lb): f"({la},{lb})" for la in a.labels for lb in b.labels}
    fusion: dict[tuple[str, str, str], int] = {}
    for (i1, j1, k1), v1 in a.fusion.items():
        if not v1:
            continue
        for (i2, j2, k2), v2 in b.fusion.items():
            if v2:
                fusion[(pair[(i1, i2)], pair[(j1, j2)], pair[(k1, k2)])] = v1 * v2
    return FusionData(
        name=f"{a.name}*{b.name}",
        labels=labels,
        unit=pair[(a.unit, b.unit)],
        dual={pair[(la, lb)]: pair[(a.dual[la], b.dual[lb])] for la in a.labels for lb in b.labels},
        fusion=fusion,
        twist={pair[(la, lb)]: (a.twist[la] + b.twist[lb]) % 1 for la in a.labels for lb in b.labels},
        qdim={pair[(la, lb)]: a.qdim[la] * b.qdim[lb] for la in a.labels for lb in b.labels},
        sigma_vv=None,
    )
