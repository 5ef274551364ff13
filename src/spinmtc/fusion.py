"""Fusion-ring data for modular tensor categories.

A :class:`FusionData` bundle carries the numerical shadow this library works
with: an ordered label set, fusion multiplicities, rational twist rotation
numbers, and cyclotomic quantum dimensions.  This module validates the axioms,
computes the s-matrix from twists and fusion, folds iterated fusion products,
and forms Deligne (componentwise) products.  Everything is exact.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from . import _fraction_str, _Record, parse_fraction
from .exactnum import Cyclotomic, CycMatrix, _reduce_coeffs
from .sparse import Row, _insert_row

__all__ = [
    "FusionData",
    "SMatrix",
    "Violation",
    "FormatError",
    "InconsistentDataError",
    "structure_violations",
    "validate",
    "compute_smatrix",
    "check_s_squared",
    "hom_unit_dim",
    "deligne_product",
    "fusion_from_dict",
    "fusion_to_dict",
    "load_fusion",
    "dump_fusion",
]


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
# validation


def structure_violations(data: FusionData) -> list[Violation]:
    """What validate's other checks presume: labels, unit, map entries,
    ``dual`` values, fusion keys and multiplicities, and ``sigma_vv``."""
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


def validate(data: FusionData) -> list[Violation]:
    """All axiom violations, with witnesses; empty list means valid.

    Structural problems (unknown labels, missing maps) short-circuit the
    numeric checks, which would not be well-posed without them.
    """
    out = structure_violations(data)
    if out:
        return out
    labels = data.labels

    # dual is an involution
    for lab in labels:
        img = data.dual[lab]
        if data.dual[img] != lab:
            out.append(Violation("dual", (lab,), f"dual is not an involution at {lab}"))
    if data.dual[data.unit] != data.unit:
        out.append(Violation("dual", (data.unit,), "unit must be self-dual"))
    if out:
        return out

    rules = data._rules
    pos = data._index
    unit = data.unit
    empty: dict[str, int] = {}

    def first(witnesses: list[tuple[str, ...]]) -> tuple[str, ...]:
        # the least witness in row-major label order
        return min(witnesses, key=lambda w: tuple(pos[x] for x in w))

    def mismatches(got: Mapping[str, int], want: Mapping[str, int]) -> list[str]:
        return [] if got == want else [k for k in got.keys() | want.keys() if got.get(k, 0) != want.get(k, 0)]

    # unit constraint: fusing with the unit is the identity permutation
    bad = [(j, k) for j in labels for k in mismatches(rules.get(unit, empty).get(j, empty), {j: 1})]
    if bad:
        j, k = first(bad)
        out.append(Violation("unit_axiom", (j, k), f"N(unit,{j} -> {k}) != delta"))
    bad = [(i, k) for i in labels for k in mismatches(rules.get(i, empty).get(unit, empty), {i: 1})]
    if bad:
        i, k = first(bad)
        out.append(Violation("unit_axiom", (i, k), f"N({i},unit -> {k}) != delta"))
    unit_ok = not out

    # duality: multiplicity of the unit in i x j is delta_{j, dual(i)}
    bad = []
    for i in labels:
        got = {j: ch[unit] for j, ch in rules.get(i, empty).items() if unit in ch}
        bad += [(i, j) for j in mismatches(got, {data.dual[i]: 1})]
    if bad:
        i, j = first(bad)
        out.append(Violation("duality", (i, j), f"N({i},{j} -> unit) != delta(dual)"))

    # commutativity; a mismatch at (i, j, k) is one at (j, i, k) as well
    bad = []
    for i, row in rules.items():
        for j, ch in row.items():
            for k in mismatches(ch, rules.get(j, empty).get(i, empty)):
                bad += [(i, j, k), (j, i, k)]
    if bad:
        out.append(Violation("commutativity", first(bad), "N(i,j -> k) != N(j,i -> k)"))

    # associativity, exact over Python ints: (i x j) x k against i x (j x k).
    # With both unit axioms, i running over a generating set is a proof (see
    # _span_generators); the full loop runs otherwise and finds the least
    # witness when that check fails.
    gens = _span_generators(labels, rules, unit) if unit_ok else None
    if gens is not None and _associativity_witness(labels, rules, pos, gens) is not None:
        gens = None
    witness = None if gens is not None else _associativity_witness(labels, rules, pos)
    if witness is not None:
        out.append(Violation("associativity", witness,
                             "sum over (i x j) x k differs from i x (j x k)"))

    # quantum dimension is a one-dimensional representation of the ring.
    # d(a b) = d(a) d(b) holds for every a once it holds for a in the
    # generating set: on words by associativity and d(unit) = 1, on their
    # span by linearity.  As for associativity, a failure on the generating
    # set reruns the full loop for the least witness.
    if data.qdim[data.unit] != 1:
        out.append(Violation("qdim", (data.unit,), "quantum dimension of the unit must be 1"))
        gens = None
    if gens is not None and _dimension_witness(data.qdim, labels, rules, gens) is not None:
        gens = None
    witness = None if gens is not None else _dimension_witness(data.qdim, labels, rules)
    if witness is not None:
        i, j = witness
        out.append(Violation("dimension_equation", witness,
                             f"d({i})*d({j}) != sum of channel dimensions"))

    if data.twist[data.unit] % 1 != 0:
        out.append(Violation("twist", (data.unit,), "twist of the unit must vanish mod 1"))

    return out


_SPAN_PRIME = 2**61 - 1


def _span_generators(
    labels: Sequence[str], rules: Mapping[str, Mapping[str, Mapping[str, int]]], unit: str
) -> list[str]:
    """Labels G whose right-nested words g1 (g2 (... (gn 1))) span Q^rank.

    The word vectors are kept in echelon form mod a prime, starting from the
    empty word 1.  Labels are taken in order: one not yet in the span joins
    G, and the span is then closed under left fusion by every label of G.
    Every label ends up in the span, so the words have full rank mod p, hence
    over Q.  The word g 1 is taken to be g itself, so both unit axioms must
    hold.

    If (g b) c = g (b c) for every g in G and all labels b, c, the ring is
    associative: by induction on the word w, (w b) c = w (b c) (the base case
    w = 1 is the left unit axiom), and the associator is linear in its first
    slot.
    """
    p = _SPAN_PRIME
    col = {lab: n for n, lab in enumerate(labels)}
    echelon: dict[int, Row] = {}  # the span mod p, in reduced echelon form
    empty: dict[str, int] = {}
    gens: list[str] = []
    words: list[Row] = [{col[unit]: 1}]  # word vectors by label column; the empty word
    _insert_row(echelon, words[0], p)
    todo: list[tuple[str, Row]] = []  # (g, word) with g w still to span
    for lab in labels:
        if len(echelon) == len(labels):
            break
        if _insert_row(echelon, {col[lab]: 1}, p) is None:
            continue
        gens.append(lab)
        # lab times every nonempty word, and every generator times lab = lab 1
        todo += [(lab, w) for w in words[1:]] + [(g, {col[lab]: 1}) for g in gens]
        words.append({col[lab]: 1})
        while todo and len(echelon) < len(labels):
            g, w = todo.pop()
            left = rules.get(g, empty)
            vec: Row = {}
            for b, m in w.items():
                for k, v in left.get(labels[b], empty).items():
                    vec[col[k]] = (vec.get(col[k], 0) + m * v) % p
            vec = {k: v for k, v in vec.items() if v}
            if _insert_row(echelon, vec, p) is not None:
                words.append(vec)
                todo += [(h, vec) for h in gens]
    return gens


def _dimension_witness(
    qdim: Mapping[str, Cyclotomic],
    labels: Sequence[str],
    rules: Mapping[str, Mapping[str, Mapping[str, int]]],
    left: Sequence[str] | None = None,
) -> tuple[str, str] | None:
    """The first (i, j) in row-major label order where d(i) d(j) differs from
    the sum of N(i,j -> k) d(k); None if the dimension equation holds.

    ``left`` restricts i to those labels (all labels by default).  With qdims as
    a(x) = D d(x) in ``CycMatrix`` form, a(i) a(j) - D sum N a(k) is reduced mod Phi_n.
    """
    dims = CycMatrix([[qdim[lab] for lab in labels]])
    n, den, empty = dims.conductor, dims.den, {}
    a = dict(zip(labels, dims.ints[0]))
    for i in labels if left is None else left:
        for j in labels:
            raw: dict[int, int] = {}
            for k, m in rules.get(i, empty).get(j, empty).items():
                for e, c in a[k].items():
                    raw[e] = raw.get(e, 0) - den * m * c
            for e1, c1 in a[i].items():
                for e2, c2 in a[j].items():
                    raw[e1 + e2] = raw.get(e1 + e2, 0) + c1 * c2
            if _reduce_coeffs(n, raw):
                return (i, j)
    return None


def _associativity_witness(
    labels: Sequence[str],
    rules: Mapping[str, Mapping[str, Mapping[str, int]]],
    pos: Mapping[str, int],
    left: Sequence[str] | None = None,
) -> tuple[str, str, str, str] | None:
    """The first (i, j, k, l) in row-major label order where the multiplicity
    of l in (i x j) x k differs from that in i x (j x k); None if associative.

    ``left`` restricts i to those labels (all labels by default).  A product
    with one channel m of multiplicity 1 is read from ``rules`` as m itself.
    """
    empty: dict[str, int] = {}
    for i in labels if left is None else left:
        left_i = rules.get(i, empty)
        for j in labels:
            ij = left_i.get(j, empty)
            left_j = rules.get(j, empty)
            m_row = rules.get(*ij, empty) if len(ij) == 1 and 1 in ij.values() else None
            for k in labels:
                if m_row is not None:
                    lhs = m_row.get(k, empty)
                else:
                    lhs = {}
                    for m, a in ij.items():
                        for l, b in rules.get(m, empty).get(k, empty).items():
                            lhs[l] = lhs.get(l, 0) + a * b
                jk = left_j.get(k, empty)
                if len(jk) == 1 and 1 in jk.values():
                    rhs = left_i.get(*jk, empty)
                else:
                    rhs = {}
                    for m, a in jk.items():
                        for l, b in left_i.get(m, empty).items():
                            rhs[l] = rhs.get(l, 0) + a * b
                if lhs != rhs:
                    bad = (x for x in lhs.keys() | rhs.keys() if lhs.get(x) != rhs.get(x))
                    return i, j, k, min(bad, key=pos.__getitem__)
    return None


# ---------------------------------------------------------------------------
# s-matrix


class SMatrix(NamedTuple):
    """Exact s-matrix of a category, tagged with its source name."""

    data: CycMatrix
    source: str


def compute_smatrix(data: FusionData) -> SMatrix:
    """s_{ij} = theta_i^{-1} theta_j^{-1} sum_k N(i,j->k) theta_k d_k.

    The matrix and every entry are computed at the conductor the data
    declare: n = lcm of the twist denominators and the ``qdim`` conductors,
    the N that ``MAX_CONDUCTOR`` caps.  Each theta = e^{2 pi i t} is a root
    of unity, so an entry is sum_k N d_k e^{2 pi i (t_k - t_i - t_j)}: the
    terms of d_k shifted in exponent by n (t_k - t_i - t_j), reduced once
    per entry.

    Raises InconsistentDataError if the result is not symmetric, naming the
    first pair i < j in row-major order where it is not.  Every entry is
    kept as the matrix's integer coefficients over one denominator: each
    entry i <= j is computed once, and (j, i) shares it.
    """
    labels = data.labels
    twist = {lab: Fraction(data.twist[lab]) % 1 for lab in labels}
    n = math.lcm(*(t.denominator for t in twist.values()), *(data.qdim[lab].conductor for lab in labels))
    expo = {lab: t.numerator * (n // t.denominator) for lab, t in twist.items()}
    # theta_k d_k at conductor n: integer terms over one denominator
    qdims = CycMatrix([[data.qdim[lab].rebased(n) for lab in labels]])
    terms = {k: [((e + expo[k]) % n, c) for e, c in d.items()] for k, d in zip(labels, qdims.ints[0])}

    rules = data._rules
    empty: dict[str, int] = {}

    def entry(i: str, j: str) -> dict[int, int]:
        shift = -expo[i] - expo[j]
        raw: dict[int, int] = {}
        for k, v in rules.get(i, empty).get(j, empty).items():
            for e, c in terms[k]:
                e = (e + shift) % n
                raw[e] = raw.get(e, 0) + c * v
        return _reduce_coeffs(n, raw)

    index = range(data.rank)
    upper = {(i, j): entry(labels[i], labels[j]) for i in index for j in index if i <= j}
    # s_ji = s_ij wherever N(i,j -> k) = N(j,i -> k) for every k; the other
    # pairs compare integer coefficients, in row-major order for the witness
    for (i, j), coeffs in upper.items():
        a, b = labels[i], labels[j]
        commute = rules.get(a, empty).get(b, empty) == rules.get(b, empty).get(a, empty)
        if not commute and entry(b, a) != coeffs:
            raise InconsistentDataError(f"s-matrix is not symmetric at {(a, b)} for {data.name!r}")
    ints = [[upper[min(i, j), max(i, j)] for j in index] for i in index]
    mat = CycMatrix._from_ints(n, qdims.den, ints, (data.rank, data.rank))
    return SMatrix(data=mat, source=data.name)


def check_s_squared(s: SMatrix, data: FusionData) -> tuple[bool, Cyclotomic | None]:
    """Whether s^2 is a scalar multiple of the charge conjugation permutation.

    Returns (True, scalar) on success and (False, None) otherwise.  s^2 is
    the packed product ``s.data @ s.data``, which forms only the entries
    i <= j of a symmetric s, as ``compute_smatrix`` makes it.  Its entries
    are compared with the scalar in integers over their one denominator.
    """
    sq = s.data @ s.data
    labels, dual = data.labels, data.dual
    iu = data.index(data.unit)
    alpha = sq.ints[iu][iu]  # unit is self-dual, so this is the would-be scalar
    if not alpha or any(sq.ints[i][j] != (alpha if dual[a] == b else {})
                        for i, a in enumerate(labels) for j, b in enumerate(labels)):
        return False, None
    return True, sq.submatrix([iu], [iu])[0, 0]  # builds only this entry


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


# ---------------------------------------------------------------------------
# JSON interchange

_ALLOWED_KEYS = {"name", "labels", "unit", "dual", "fusion", "twist", "qdim", "sigma_vv"}
_REQUIRED_KEYS = {"name", "labels", "unit", "dual", "fusion", "twist", "qdim"}
# Largest conductor (lcm of twist denominators and qdim conductors) a file may
# declare: arithmetic mod Phi_N grows with N (README gives times at the cap).
MAX_CONDUCTOR = 10_000


def fusion_from_dict(obj: object) -> FusionData:
    """Strict reader for the category file format; unknown keys are errors."""
    if not isinstance(obj, dict):
        raise FormatError("category file must contain a JSON object")
    unknown = set(obj) - _ALLOWED_KEYS
    if unknown:
        raise FormatError(f"unknown keys in category file: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(obj)
    if missing:
        raise FormatError(f"missing keys in category file: {sorted(missing)}")

    name = obj["name"]
    labels = obj["labels"]
    unit = obj["unit"]
    if not isinstance(name, str):
        raise FormatError("name must be a string")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise FormatError("labels must be a list of strings")
    if not isinstance(unit, str):
        raise FormatError("unit must be a string")

    dual = obj["dual"]
    if not isinstance(dual, dict) or not all(isinstance(v, str) for v in dual.values()):
        raise FormatError("dual must map labels to labels")

    fus_raw = obj["fusion"]
    if not isinstance(fus_raw, list):
        raise FormatError("fusion must be a list of [i, j, k, n] entries")
    fusion: dict[tuple[str, str, str], int] = {}
    for item in fus_raw:
        if (
            not isinstance(item, list)
            or len(item) != 4
            or not all(isinstance(x, str) for x in item[:3])
            or not isinstance(item[3], int)
            or isinstance(item[3], bool)
        ):
            raise FormatError(f"malformed fusion entry: {item!r}")
        i, j, k, v = item
        if v < 0:
            raise FormatError(f"fusion multiplicity must be nonnegative: {item!r}")
        key = (i, j, k)
        if key in fusion:
            raise FormatError(f"duplicate fusion entry for {key}")
        if v:
            fusion[key] = v

    twist_raw = obj["twist"]
    if not isinstance(twist_raw, dict):
        raise FormatError("twist must map labels to rationals")
    try:
        twist = {lab: parse_fraction(v) for lab, v in twist_raw.items()}
    except ValueError as exc:
        raise FormatError(str(exc)) from exc

    qdim_raw = obj["qdim"]
    if not isinstance(qdim_raw, dict):
        raise FormatError("qdim must map labels to cyclotomic values")
    declared = [v.get("conductor") if isinstance(v, dict) else 1 for v in qdim_raw.values()]
    conductor = math.lcm(*(t.denominator for t in twist.values()),
                         *(c for c in declared if isinstance(c, int) and c > 0))
    if conductor > MAX_CONDUCTOR:
        raise FormatError(f"conductor {conductor} of {name!r} exceeds the limit {MAX_CONDUCTOR}")
    qdim: dict[str, Cyclotomic] = {}
    for lab, v in qdim_raw.items():
        if isinstance(v, dict):
            try:
                qdim[lab] = Cyclotomic.from_dict(v)
            except ValueError as exc:
                raise FormatError(str(exc)) from exc
        else:
            try:
                qdim[lab] = Cyclotomic.from_rational(parse_fraction(v))
            except ValueError as exc:
                raise FormatError(f"malformed qdim for {lab!r}: {v!r}") from exc

    sigma_vv = obj.get("sigma_vv")
    if sigma_vv is not None and (type(sigma_vv) is not int or sigma_vv not in (1, -1)):
        raise FormatError(f"sigma_vv must be 1 or -1, got {sigma_vv!r}")

    return FusionData(
        name=name,
        labels=tuple(labels),
        unit=unit,
        dual=dual,
        fusion=fusion,
        twist=twist,
        qdim=qdim,
        sigma_vv=sigma_vv,
    )


def fusion_to_dict(data: FusionData) -> dict:
    """Canonical (deterministically ordered) dict form of a category."""
    # entries in label order of (i, j, k), sorted by the one integer that
    # reads the three label positions as digits base len(labels)
    n = len(data.labels)
    order = {lab: pos for pos, lab in enumerate(data.labels)}
    keyed = {(order[i] * n + order[j]) * n + order[k]: [i, j, k, v]
             for (i, j, k), v in data.fusion.items() if v}
    out: dict = {
        "name": data.name,
        "labels": list(data.labels),
        "unit": data.unit,
        "dual": {lab: data.dual[lab] for lab in data.labels},
        "fusion": [keyed[key] for key in sorted(keyed)],
        "twist": {lab: _fraction_str(data.twist[lab]) for lab in data.labels},
        "qdim": {lab: data.qdim[lab].to_dict() for lab in data.labels},
    }
    if data.sigma_vv is not None:
        out["sigma_vv"] = data.sigma_vv
    return out


def load_fusion(path: str | Path) -> FusionData:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc
    return fusion_from_dict(obj)


def dump_fusion(data: FusionData) -> str:
    """``json.dumps(fusion_to_dict(data), indent=2)`` and a newline, with each
    ``fusion`` row, most of the file, written by one format string."""
    doc = fusion_to_dict(data)
    enc = {lab: json.dumps(lab) for lab in data.labels}
    rows = ",\n".join(f"    [\n      {enc[i]},\n      {enc[j]},\n      {enc[k]},\n      "
                       f"{v if type(v) is int else json.dumps(v)}\n    ]" for i, j, k, v in doc["fusion"])
    text = json.dumps({**doc, "fusion": []}, indent=2)
    return (text.replace('\n  "fusion": []', f'\n  "fusion": [\n{rows}\n  ]', 1) if rows else text) + "\n"
