"""Fermionic structure on a modular tensor category.

Given fusion data with a distinguished invertible label of twist 1/2 (the
"odd" object), this module builds the tensoring involution, the sign
character zeta separating Neveu-Schwarz from Ramond labels, the five-way
label partition, and the exact block-structure checks the s-matrix must
satisfy.  It also tracks the graded Brauer class of small Clifford algebras,
which grades under graded tensor product by generator count mod 2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, NamedTuple

from . import _Record
from .fusion import FusionData, InconsistentDataError, SMatrix

if TYPE_CHECKING:
    from .exactnum import CycMatrix

__all__ = [
    "CliffordAlgebraClass",
    "CliffordStructure",
    "LabelClassification",
    "CheckResult",
    "BlockReport",
    "find_vminus",
    "involution_from_vminus",
    "clifford_structure",
    "classify_labels",
    "verify_block_structure",
]


class CliffordAlgebraClass(_Record):
    """Complex Clifford algebra on a number of odd generators.

    Only the generator count matters here; its parity is the class in the
    graded Brauer group of the complex numbers, which is Z/2.
    """

    _fields = ("generators",)

    def __init__(self, generators: int):
        if generators < 0:
            raise ValueError("generator count must be nonnegative")
        self._set(generators=generators)

    @property
    def parity(self) -> int:
        return self.generators % 2

    def to_dict(self) -> dict:
        return {"generators": self.generators, "parity": self.parity}


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
        return {
            "ns_plus": list(self.ns_plus),
            "ns_minus": list(self.ns_minus),
            "r_plus": list(self.r_plus),
            "r_minus": list(self.r_minus),
            "r_zero": list(self.r_zero),
        }


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


class CheckResult(NamedTuple):
    ok: bool
    witness: tuple | None = None

    def to_dict(self) -> dict:
        out: dict = {"ok": self.ok}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


class BlockReport(NamedTuple):
    """Result of the s-matrix block-structure checks.

    Blocks are cut from the s-matrix after reordering rows and columns to
    (NS+, NS-, R+, R-, R0): A is the NS+ x NS+ corner, B is NS+ x R+, C is
    R+ x R+, and D is NS+ x R0.
    """

    block_a: CycMatrix
    block_b: CycMatrix
    block_c: CycMatrix
    block_d: CycMatrix
    checks: Mapping[str, CheckResult]

    @property
    def all_pass(self) -> bool:
        return all(r.ok for r in self.checks.values())

    def to_dict(self) -> dict:
        """The report for JSON; each block's ``entries`` is the ``CycMatrix``
        itself, which ``CycMatrix.json_parts`` writes."""
        blocks = zip("ABCD", (self.block_a, self.block_b, self.block_c, self.block_d))
        return {
            "blocks": {name: {"rows": m.rows, "cols": m.cols, "entries": m} for name, m in blocks},
            "checks": {name: r.to_dict() for name, r in self.checks.items()},
            "all_pass": self.all_pass,
        }


def verify_block_structure(data: FusionData, cls: LabelClassification, s: SMatrix) -> BlockReport:
    """Run the seven exact block checks of the s-matrix against a partition.

    Every check reports a witness on failure; all arithmetic is exact.
    """
    from .exactnum import _certified_rank, _max_abs, _pack  # executed only where blocks are checked

    labels = data.labels
    idx = {lab: i for i, lab in enumerate(labels)}
    mat = s.data

    inv_of = {}
    for plus, minus in ((cls.ns_plus, cls.ns_minus), (cls.r_plus, cls.r_minus)):
        for a, b in zip(plus, minus):
            inv_of[a] = b
            inv_of[b] = a
    for lab in cls.r_zero:
        inv_of[lab] = lab

    ns_labels = set(cls.ns_plus) | set(cls.ns_minus)
    checks: dict[str, CheckResult] = {}

    # Each entry as one int: its integer coefficients over one denominator,
    # packed wide enough that equal entries have equal keys and key(-x) = -key(x).
    width = _max_abs(mat.ints).bit_length() + 1
    key = [[_pack(c, width) for c in row] for row in mat.ints]

    # (1) rows transform by the zeta sign of the column under the involution
    witness = None
    for i in labels:
        for j in labels:
            sign = 1 if j in ns_labels else -1
            if key[idx[inv_of[i]]][idx[j]] != sign * key[idx[i]][idx[j]]:
                witness = (i, j)
                break
        if witness:
            break
    checks["involution_rows"] = CheckResult(witness is None, witness)

    # (2) fixed-point rows vanish against every Ramond column
    r_all = list(cls.r_plus) + list(cls.r_minus) + list(cls.r_zero)
    witness = next(((i, j) for i in cls.r_zero for j in r_all if mat.ints[idx[i]][idx[j]]), None)
    checks["nonsplit_row_vanishing"] = CheckResult(witness is None, witness)

    # block extraction in the canonical order
    groups = {
        "NS+": [idx[x] for x in cls.ns_plus],
        "NS-": [idx[x] for x in cls.ns_minus],
        "R+": [idx[x] for x in cls.r_plus],
        "R-": [idx[x] for x in cls.r_minus],
        "R0": [idx[x] for x in cls.r_zero],
    }

    def sub(g1: str, g2: str) -> CycMatrix:
        return mat.submatrix(groups[g1], groups[g2])

    block_a = sub("NS+", "NS+")
    block_b = sub("NS+", "R+")
    block_c = sub("R+", "R+")
    block_d = sub("NS+", "R0")

    # (3) the full 5x5 block pattern, by index.  Rows and columns run NS+,
    # NS-, R+, R-, R0; block (g1, g2) is the sign times s on the plus groups
    # of g1 and g2 (the block its letter names), read transposed where marked
    # t, and 0 is zero.
    order = ("NS+", "NS-", "R+", "R-", "R0")
    plus = dict(zip(order, ("NS+", "NS+", "R+", "R+", "R0")))
    pattern = [row.split() for row in (
        "A   A   B   B   D",
        "A   A  -B  -B  -D",
        "Bt -Bt  C  -C   0",
        "Bt -Bt -C   C   0",
        "Dt -Dt  0   0   0",
    )]

    def follows(g1: str, g2: str, block: str) -> bool:
        rows, cols, src_rows, src_cols = groups[g1], groups[g2], groups[plus[g1]], groups[plus[g2]]
        sign = 0 if block == "0" else -1 if block[0] == "-" else 1
        t = block.endswith("t")
        return (len(rows), len(cols)) == (len(src_rows), len(src_cols)) and all(
            key[i][j] == sign * (key[src_cols[y]][src_rows[x]] if t else key[src_rows[x]][src_cols[y]])
            for x, i in enumerate(rows)
            for y, j in enumerate(cols)
        )

    witness = next(((g1, g2) for g1, row in zip(order, pattern) for g2, block in zip(order, row)
                    if not follows(g1, g2, block)), None)
    checks["block_pattern"] = CheckResult(witness is None, witness)

    # (4) A and C are symmetric and nonsingular
    witness = None
    for name, blk, group in (("A", block_a, groups["NS+"]), ("C", block_c, groups["R+"])):
        if any(key[i][j] != key[j][i] for i in group for j in group):
            witness = (name, "not symmetric")
        elif _certified_rank(blk) < blk.rows:
            witness = (name, "singular")
        if witness:
            break
    checks["diagonal_blocks"] = CheckResult(witness is None, witness)

    # (5) [B D] has full row rank |NS+|
    rank = _certified_rank(mat.submatrix(groups["NS+"], groups["R+"] + groups["R0"]))
    ok = rank == len(cls.ns_plus)
    checks["bd_rank"] = CheckResult(ok, None if ok else ("rank", rank, "expected", len(cls.ns_plus)))

    # (6) B^T D = 0
    prod = block_b.transpose() @ block_d
    witness = next(((cls.r_plus[i], cls.r_zero[j]) for i, row in enumerate(prod.ints)
                    for j, coeffs in enumerate(row) if coeffs), None)
    checks["btd_zero"] = CheckResult(witness is None, witness)

    # (7) |R+| + |R0| = |NS+|
    lhs_count = len(cls.r_plus) + len(cls.r_zero)
    ok = lhs_count == len(cls.ns_plus)
    checks["count_identity"] = CheckResult(
        ok, None if ok else (lhs_count, len(cls.ns_plus))
    )

    return BlockReport(
        block_a=block_a, block_b=block_b, block_c=block_c, block_d=block_d, checks=checks
    )
