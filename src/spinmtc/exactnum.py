"""The s-matrix layer: exact linear algebra over Q(zeta_N), the s-matrix
of a category, its square, and the block checks against the NS/R partition.

A ``CycMatrix`` has one form, which its one constructor takes: a conductor
N, one positive denominator, and each entry's integer coefficients in the
power basis of :mod:`spinmtc.cyclotomic`.  Its ``Cyclotomic`` values are
built from that form only when read.  The linear algebra is matrix products
at one conductor by Kronecker substitution, and rank and determinant through
the sparse elimination of :mod:`spinmtc.sparse`: over Q(zeta_N) for
``CycMatrix.rank_det``, and modulo a prime above p for the rank that
certifies the block checks.  On it sit ``compute_smatrix``,
``check_s_squared`` and ``verify_block_structure``, which take their
category from :mod:`spinmtc.fusion` and their label partition from
:mod:`spinmtc.clifford`.

Only the commands that compute an s-matrix execute this module: ``smatrix``
and ``classify``.  The others need just the scalar field and the fusion
rules.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .cyclotomic import Cyclotomic, ExactNumError, _integer_form, _reduce_coeffs, phi_degree
from .fusion import FusionData, InconsistentDataError
from .sparse import _insert_row, _rref

if TYPE_CHECKING:
    from .clifford import LabelClassification

__all__ = [
    "CycMatrix",
    "SMatrix",
    "CheckResult",
    "BlockReport",
    "compute_smatrix",
    "check_s_squared",
    "verify_block_structure",
]


# ---------------------------------------------------------------------------
# packed integer products (Kronecker substitution)


def _pack(coeffs: Mapping[int, int], width: int) -> int:
    """The polynomial with these coefficients evaluated at 2^width."""
    return sum(c << (width * e) for e, c in coeffs.items())


def _unpack(value: int, width: int) -> dict[int, int]:
    """The nonzero signed base-2^width digits of value, by position.

    Exact when every digit lies strictly between -2^(width-1) and 2^(width-1).
    """
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = {}
    k = 0
    while value:
        d = value & mask
        if d >= half:
            d -= mask + 1
        if d:
            out[k] = d
        value = (value - d) >> width
        k += 1
    return out


def _max_abs(ints: Iterable[Iterable[Mapping[int, int]]]) -> int:
    """The largest |coefficient| of a grid of integer coefficients, 0 if none."""
    return max((abs(v) for row in ints for coeffs in row for v in coeffs.values()), default=0)


# ---------------------------------------------------------------------------
# rank modulo a prime above p

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # exact below 3.3e24


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n > 1 below 3.3e24."""
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_root(n: int) -> tuple[int, int]:
    """The least prime p = kn + 1 above 2^61, and a primitive n-th root w mod p:
    w = g^((p-1)/n) with w^(n/q) != 1 for each prime q of n (by trial division)."""
    p = (2**61 // n + 1) * n + 1
    while not _is_prime(p):
        p += n
    primes = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
    g = 2
    while True:
        w = pow(g, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in primes):
            return p, w
        g += 1


def _rank_mod_p(m: "CycMatrix") -> int:
    """The rank of m's image under zeta_N -> w mod p, for (p, w) = ``_prime_root(N)``.

    The entries are taken as their integer coefficients ``m.ints`` over the
    one denominator, so nothing is inverted mod p, and the map on them is
    reduction at a prime above p: a ring map of Z[zeta_N], under which a
    vanishing minor stays zero.  So the result is at most the rank of m,
    and it is the rank when it equals min(rows, cols).
    """
    n = m.conductor
    p, w = _prime_root(n)
    powers = [pow(w, e, p) for e in range(phi_degree(n))]
    images = ([sum(c * powers[e] for e, c in coeffs.items()) % p for coeffs in row] for row in m.ints)
    return len(_rref(({j: x for j, x in enumerate(row) if x} for row in images), p))


def _certified_rank(m: "CycMatrix") -> int:
    """The exact rank of m: ``_rank_mod_p`` when that is full, else from ``rank_det``."""
    rank = _rank_mod_p(m)
    return rank if rank == min(m.rows, m.cols) else m.rank_det()[0]


# ---------------------------------------------------------------------------


class CycMatrix:
    """Dense matrix over a single cyclotomic field Q(zeta_N), with exact rank and det.

    Entry (i, j) is ``ints[i][j] / den``: ``ints[i][j]`` maps each exponent
    below phi(N) to a nonzero integer power-basis coefficient, and ``den``
    is one positive denominator for the whole matrix.  Products, blocks and
    the modular rank work on this integer form.  The grid of
    :class:`Cyclotomic` values, ``entries``, is built on first read and kept.
    """

    __slots__ = ("rows", "cols", "conductor", "den", "ints", "_entries")

    def __init__(self, conductor: int, den: int, ints: Sequence[Sequence[dict[int, int]]],
                 shape: tuple[int, int]):
        """The matrix of reduced integer coefficients ``ints`` over ``den`` > 0 at ``conductor``.

        ``shape`` is (rows, cols), so that a 0 x n or n x 0 matrix keeps its width.
        """
        for name, value in zip(self.__slots__, (*shape, conductor, den, tuple(map(tuple, ints)), None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CycMatrix is immutable")

    @property
    def entries(self) -> tuple[tuple[Cyclotomic, ...], ...]:
        if self._entries is None:
            n, den, made = self.conductor, self.den, {}

            def value(coeffs: dict[int, int]) -> Cyclotomic:
                # entries that share a coefficient dict (s_ij and s_ji) share one value
                key = id(coeffs)
                if key not in made:
                    made[key] = Cyclotomic(n, {e: Fraction(c, den) for e, c in coeffs.items()}, _canonical=True)
                return made[key]

            object.__setattr__(self, "_entries", tuple(tuple(map(value, row)) for row in self.ints))
        return self._entries

    def __getitem__(self, key: tuple[int, int]) -> Cyclotomic:
        i, j = key
        return self.entries[i][j]

    def __iter__(self) -> Iterator[tuple[Cyclotomic, ...]]:
        return iter(self.entries)

    def transpose(self) -> "CycMatrix":
        ints = [[row[j] for row in self.ints] for j in range(self.cols)]
        return CycMatrix(self.conductor, self.den, ints, (self.cols, self.rows))

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        """Exact product by Kronecker substitution, at the one conductor N of both operands.

        Operands at two conductors raise ``ExactNumError``, naming both.
        Each entry's integer coefficients become one int: the polynomial
        evaluated at 2^w.  An entry of the product, before reduction and over
        the denominator ``self.den * other.den``, has coefficients bounded by
        |c| <= self.cols * phi(N) * max|a| * max|b| (at most ``self.cols``
        products of entries, each summing at most phi(N) coefficient
        products).  With w = bit_length(bound) + 1 every slot, sign bit
        included, fits its w bits, so each packed dot product unpacks exactly
        to an entry's coefficients, which are folded mod x^N - 1 and reduced
        mod Phi_N once.  The square ``m @ m`` of a symmetric m is symmetric:
        column j of m is row j, and only the entries i <= j are formed.
        """
        if self.cols != other.rows:
            raise ExactNumError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n = self.conductor
        if other.conductor != n:
            raise ExactNumError(f"conductor mismatch: {n} @ {other.conductor}")
        a, b = self.ints, other.ints
        width = (self.cols * phi_degree(n) * _max_abs(a) * _max_abs(b)).bit_length() + 1
        a_rows = [[_pack(c, width) for c in row] for row in a]
        sym = other is self and all(a_rows[i][j] == a_rows[j][i] for i in range(self.rows) for j in range(i))
        b_cols = a_rows if sym else [[_pack(row[j], width) for row in b] for j in range(other.cols)]
        out = [[{}] * other.cols for _ in range(self.rows)]
        for i, a_row in enumerate(a_rows):
            for j in range(i if sym else 0, other.cols):
                out[i][j] = _reduce_coeffs(n, _unpack(sum(map(int.__mul__, a_row, b_cols[j])), width))
                if sym:
                    out[j][i] = out[i][j]
        return CycMatrix(n, self.den * other.den, out, (self.rows, other.cols))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "CycMatrix":
        ints = [[self.ints[i][j] for j in col_idx] for i in row_idx]
        return CycMatrix(self.conductor, self.den, ints, (len(row_idx), len(col_idx)))

    def rank_det(self) -> tuple[int, Cyclotomic | None]:
        """Exact rank, and determinant for square matrices (None otherwise).

        Both come from one pass of ``_insert_row`` over the rows, which
        returns each new pivot before normalisation.  Each row is reduced
        only by earlier rows, so the determinant is unchanged, and it then
        vanishes left of its pivot and on earlier pivot columns: with the
        columns in pivot order the rows are triangular.  So the determinant
        is the sign of the permutation row -> pivot column times the product
        of those pivots.  A 0x0 matrix has rank 0 and determinant 1 (empty
        product).
        """
        pivots: dict[int, dict[int, Cyclotomic]] = {}
        raw = [_insert_row(pivots, {j: x for j, x in enumerate(row) if x}) for row in self.entries]
        rank = len(pivots)
        if self.rows != self.cols:
            return rank, None
        if rank < self.rows:
            return rank, Cyclotomic.from_rational(0)
        det = math.prod(raw, start=Cyclotomic.from_rational(1))
        cols = list(pivots)
        inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1 :])
        return rank, -det if inversions % 2 else det

    def json_parts(self, pad: str) -> Iterator[str]:
        """``json.dumps(..., indent=2)`` of the rows of the entries' ``to_dict()`` at
        indent ``pad``, an entry at a time; each distinct entry is formatted once."""
        inner = pad + "    "

        @lru_cache(maxsize=None)
        def cell(key: tuple[tuple[int, int], ...]) -> str:
            x = Cyclotomic(self.conductor, {e: Fraction(c, self.den) for e, c in key}, _canonical=True)
            return inner + json.dumps(x.to_dict(), indent=2).replace("\n", "\n" + inner)

        for i, row in enumerate(self.ints):
            yield ("," if i else "[") + f"\n{pad}  ["
            for j, coeffs in enumerate(row):
                yield ("," if j else "") + "\n" + cell(tuple(coeffs.items()))
            yield f"\n{pad}  ]" if row else "]"
        yield f"\n{pad}]" if self.rows else "[]"

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(x) for x in row) for row in self.entries)
        return f"CycMatrix({self.rows}x{self.cols}: {body})"


# ---------------------------------------------------------------------------
# s-matrix


class SMatrix(NamedTuple):
    """Exact s-matrix of a category."""

    data: CycMatrix


def compute_smatrix(data: FusionData) -> SMatrix:
    """s_{ij} = theta_i^{-1} theta_j^{-1} sum_k N(i,j->k) theta_k d_k.

    The matrix and every entry are computed at the conductor the data
    declare: n = lcm of the twist denominators and the ``qdim`` conductors,
    the N that ``fusionfile.MAX_CONDUCTOR`` caps.  Each theta = e^{2 pi i t}
    is a root of unity, so an entry is sum_k N d_k e^{2 pi i (t_k - t_i -
    t_j)}: the terms of d_k shifted in exponent by n (t_k - t_i - t_j),
    reduced once per entry.

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
    _, den, qdims = _integer_form(data.qdim[lab].rebased(n) for lab in labels)
    terms = {k: [((e + expo[k]) % n, c) for e, c in d.items()] for k, d in zip(labels, qdims)}

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
    mat = CycMatrix(n, den, ints, (data.rank, data.rank))
    return SMatrix(data=mat)


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
# block checks


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
