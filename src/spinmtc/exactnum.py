"""Exact linear algebra over cyclotomic fields Q(zeta_N): the ``CycMatrix``.

A ``CycMatrix`` has one form, which its one constructor takes: a conductor
N, one positive denominator, and each entry's integer coefficients in the
power basis of :mod:`spinmtc.cyclotomic`.  Its ``Cyclotomic`` values are
built from that form only when read.  The linear algebra is matrix products
at one conductor by Kronecker substitution, and rank and determinant through
the sparse elimination of :mod:`spinmtc.sparse`: over Q(zeta_N) for
``CycMatrix.rank_det``, and modulo a prime above p for the rank that
certifies the block checks of :mod:`spinmtc.clifford`.

Only the commands that multiply or eliminate matrices execute this module:
``smatrix`` and ``classify``.  The others need just the scalar field.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .cyclotomic import Cyclotomic, ExactNumError, _reduce_coeffs, phi_degree
from .sparse import _insert_row, _rref

__all__ = ["CycMatrix"]


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
