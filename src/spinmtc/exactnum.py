"""Exact arithmetic in cyclotomic fields Q(zeta_N), plus exact linear algebra.

Elements are kept in the power basis of Q[x]/Phi_N(x), so zero tests and
equality are exact coefficient comparisons.  Values of different conductor
are rebased to the least common multiple before they are combined.  All
objects here are immutable once constructed and safe to share freely.

Reduction modulo Phi_N folds exponents mod N (x^N = 1), then divides out the
monic Phi_N from the top exponent down, in integers over one common
denominator.  Phi_N is built prime by prime, and each conductor caches only
Phi_N and its nonzero lower terms: O(phi(N)) ints.

A ``CycMatrix`` keeps its entries as integer coefficients over one
denominator, and only this module converts between that form and
``Cyclotomic`` values.  The linear algebra is matrix products by Kronecker
substitution, and rank and determinant through the sparse elimination of
:mod:`spinmtc.sparse`: over Q(zeta_N) for ``CycMatrix.rank_det``, and modulo
a prime above p for the rank that certifies the block checks of
:mod:`spinmtc.clifford`.

Floating-point only ever appears in :func:`embed_numeric`, which is a
display/diagnostic aid and never feeds a correctness decision.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import Any, Iterable, Iterator, Mapping, Sequence, Union

from . import _fraction_str, parse_fraction
from .sparse import _rref

__all__ = [
    "Cyclotomic",
    "CycMatrix",
    "ExactNumError",
    "cyclotomic_polynomial",
    "phi_degree",
    "zeta",
    "embed_numeric",
]

Scalar = Union[int, Fraction, "Cyclotomic"]


class ExactNumError(ValueError):
    """Arithmetic misuse: bad conductor, division by zero, non-rational cast."""


# ---------------------------------------------------------------------------
# dense polynomial helpers (constant term first)


def _poly_divmod(num: Sequence[Any], den: Sequence[Any]) -> tuple[list[Any], list[Any]]:
    """Quotient and remainder of num by den, from the top exponent down.

    Only den's nonzero lower terms are subtracted.  With a monic den, int
    inputs give int outputs.
    """
    num = list(num)
    deg = len(den) - 1
    lead = den[-1]
    low = [(j, c) for j, c in enumerate(den[:deg]) if c]
    quot = [0] * max(len(num) - deg, 0)
    for k in range(len(quot) - 1, -1, -1):
        coef = num[k + deg] if lead == 1 else num[k + deg] / lead
        if coef:
            quot[k] = coef
            for j, c in low:
                num[k + j] -= coef * c
    return quot, num[:deg]


def _stretch(poly: Sequence[int], k: int) -> list[int]:
    """poly(x^k)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Built prime by prime from Phi_1 = x - 1: Phi_mp(x) = Phi_m(x^p) / Phi_m(x)
    for a prime p not dividing m, up to the product r of n's primes; then
    Phi_n(x) = Phi_r(x^(n/r)).
    """
    if n < 1:
        raise ExactNumError(f"conductor must be a positive integer, got {n}")
    poly, r = [-1, 1], 1
    for p in range(2, n + 1):
        # a divisor p of n is prime when no smaller prime of n (all in r) divides it
        if n % p == 0 and math.gcd(p, r) == 1:
            poly, rem = _poly_divmod(_stretch(poly, p), poly)
            if any(rem):
                raise ExactNumError("inexact polynomial division")
            r *= p
    return tuple(_stretch(poly, n // r))


def phi_degree(n: int) -> int:
    """Degree of Phi_n, i.e. Euler's totient of n."""
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _phi_lower_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """deg Phi_n, and the nonzero (exponent, coefficient) terms below its monic top."""
    poly = cyclotomic_polynomial(n)
    return len(poly) - 1, tuple((j, c) for j, c in enumerate(poly[:-1]) if c)


# ---------------------------------------------------------------------------


class Cyclotomic:
    """An element of Q(zeta_N) in the power basis of Q[x]/Phi_N(x).

    ``conductor`` is N; ``_coeffs`` maps exponent -> nonzero Fraction with
    exponents in [0, phi(N)).  Treated as immutable.
    """

    __slots__ = ("conductor", "_coeffs")

    def __init__(self, conductor: int, coeffs: Mapping[int, Fraction | int], *, _canonical: bool = False):
        if conductor < 1:
            raise ExactNumError(f"conductor must be positive, got {conductor}")
        object.__setattr__(self, "conductor", conductor)
        if _canonical:
            object.__setattr__(self, "_coeffs", dict(coeffs))
        else:
            # reduced in integers over one common denominator
            raw = {int(e): Fraction(c) for e, c in coeffs.items()}
            den = math.lcm(1, *(c.denominator for c in raw.values()))
            ints = {e: c.numerator * (den // c.denominator) for e, c in raw.items()}
            reduced = _reduce_coeffs(conductor, ints)
            object.__setattr__(self, "_coeffs", {e: Fraction(c, den) for e, c in reduced.items()})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "Cyclotomic":
        q = Fraction(value)
        return cls(1, {0: q} if q else {}, _canonical=True)

    # -- basic queries

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def is_rational(self) -> bool:
        return all(e == 0 for e in self._coeffs)

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ExactNumError(f"{self} is not rational")
        return self._coeffs.get(0, Fraction(0))

    def coefficients(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- conductor handling

    def rebased(self, m: int) -> "Cyclotomic":
        """The same value expressed at conductor m (m must be a multiple)."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise ExactNumError(f"cannot rebase conductor {n} to non-multiple {m}")
        k = m // n
        coeffs = {e * k: c for e, c in self._coeffs.items()}
        # already canonical when every exponent stays below phi(m)
        return Cyclotomic(m, coeffs, _canonical=max(coeffs, default=0) < phi_degree(m))

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic") -> tuple["Cyclotomic", "Cyclotomic"]:
        m = math.lcm(a.conductor, b.conductor)
        return a.rebased(m), b.rebased(m)

    # -- arithmetic

    @staticmethod
    def _coerce(value: Scalar) -> "Cyclotomic":
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, (int, Fraction)):
            return Cyclotomic.from_rational(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Scalar) -> "Cyclotomic":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._common(self, o)
        out = dict(a._coeffs)
        for e, c in b._coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Cyclotomic(a.conductor, out, _canonical=True)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, {e: -c for e, c in self._coeffs.items()}, _canonical=True)

    def __sub__(self, other: Scalar) -> "Cyclotomic":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Scalar) -> "Cyclotomic":
        return (-self) + other

    def __mul__(self, other: Scalar) -> "Cyclotomic":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_rational and o.conductor == 1:
            q = o._coeffs.get(0, Fraction(0))
            if not q:
                return Cyclotomic.from_rational(0)
            return Cyclotomic(self.conductor, {e: c * q for e, c in self._coeffs.items()}, _canonical=True)
        if self.is_rational and self.conductor == 1:
            return o * self
        a, b = self._common(self, o)
        raw: dict[int, Fraction] = {}
        n = a.conductor
        for e1, c1 in a._coeffs.items():
            for e2, c2 in b._coeffs.items():
                e = (e1 + e2) % n
                raw[e] = raw.get(e, Fraction(0)) + c1 * c2
        return Cyclotomic(n, raw)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero:
            raise ExactNumError("division by zero")
        if self.is_rational:
            return Cyclotomic.from_rational(1 / self.rational_value())
        n = self.conductor
        deg = phi_degree(n)
        a = [Fraction(0)] * deg
        for e, c in self._coeffs.items():
            a[e] = c
        b = [Fraction(c) for c in cyclotomic_polynomial(n)]
        inv = _poly_inverse_mod(a, b)
        return Cyclotomic(n, {i: c for i, c in enumerate(inv) if c}, _canonical=True)

    def __rtruediv__(self, other: Scalar) -> "Cyclotomic":
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "Cyclotomic":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclotomic.from_rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._common(self, other)
        return a._coeffs == b._coeffs

    __hash__ = None  # type: ignore[assignment]  # semantic equality crosses conductors

    # -- rendering / serialization

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for e in sorted(self._coeffs):
            c = self._coeffs[e]
            if e == 0:
                term = str(c)
            else:
                pow_txt = f"z{self.conductor}" if e == 1 else f"z{self.conductor}^{e}"
                if c == 1:
                    term = pow_txt
                elif c == -1:
                    term = f"-{pow_txt}"
                else:
                    term = f"{c}*{pow_txt}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"Cyclotomic({self.conductor}, {self!s})"

    def to_dict(self) -> dict:
        return {
            "conductor": self.conductor,
            "terms": [[e, _fraction_str(self._coeffs[e])] for e in sorted(self._coeffs)],
        }

    @classmethod
    def from_dict(cls, obj: Mapping) -> "Cyclotomic":
        try:
            conductor = obj["conductor"]
            terms = obj["terms"]
        except (KeyError, TypeError) as exc:
            raise ExactNumError(f"malformed cyclotomic value: {obj!r}") from exc
        if not isinstance(conductor, int) or isinstance(conductor, bool) or not isinstance(terms, list):
            raise ExactNumError(f"malformed cyclotomic value: {obj!r}")
        raw: dict[int, Fraction] = {}
        for item in terms:
            if (not isinstance(item, (list, tuple)) or len(item) != 2
                    or not isinstance(item[0], int) or isinstance(item[0], bool)):
                raise ExactNumError(f"malformed cyclotomic term: {item!r}")
            e, coef = item
            raw[e] = raw.get(e, Fraction(0)) + parse_fraction(coef)
        return cls(conductor, raw)


def _reduce_coeffs(n: int, raw: Mapping[int, int]) -> dict[int, int]:
    """Integer power-basis coefficients mod Phi_n.

    Exponents are folded mod n (x^n = 1), then the monic Phi_n is divided out
    from the top exponent down.
    """
    deg, low = _phi_lower_terms(n)
    dense = [0] * n
    for e, coef in raw.items():
        dense[e % n] += coef
    for k in range(n - 1, deg - 1, -1):
        coef = dense[k]
        if coef:
            base = k - deg
            for j, c in low:
                dense[base + j] -= coef * c
    return {i: c for i, c in enumerate(dense[:deg]) if c}


def _poly_inverse_mod(a: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo the (irreducible) modulus, by extended Euclid."""

    def trim(p: list[Fraction]) -> list[Fraction]:
        while p and not p[-1]:
            p.pop()
        return p

    r0, r1 = trim(modulus[:]), trim(a[:])
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = map(trim, _poly_divmod(r0, r1))
        r0, r1 = r1, r
        # s_new = s0 - q*s1
        prod = [Fraction(0)] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    prod[i + j] += qi * sj
        s_new = [Fraction(0)] * max(len(s0), len(prod))
        for i, c in enumerate(s0):
            s_new[i] += c
        for i, c in enumerate(prod):
            s_new[i] -= c
        s0, s1 = s1, trim(s_new)
    if len(r0) != 1:
        raise ExactNumError("element is a zero divisor; cyclotomic modulus not coprime")
    g = r0[0]
    return [c / g for c in s0]


def zeta(n: int, e: int = 1) -> Cyclotomic:
    """The root of unity zeta_n^e."""
    if n < 1:
        raise ExactNumError(f"conductor must be positive, got {n}")
    return Cyclotomic(n, {e % n: Fraction(1)})


def embed_numeric(value: Cyclotomic, digits: int = 15) -> complex:
    """Floating approximation at the principal embedding zeta_N = e^{2 pi i/N}.

    Diagnostic only: results are never authoritative and never feed checks.
    """
    import mpmath

    with mpmath.workdps(max(digits, 3) + 10):
        n = value.conductor
        acc = mpmath.mpc(0)
        for e, c in value.coefficients().items():
            w = mpmath.expjpi(mpmath.mpf(2 * e) / n)
            acc += w * mpmath.mpf(c.numerator) / c.denominator
        return complex(acc)


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
    return len(_rref(({j: x for j, x in enumerate(row) if x} for row in images), p)[0])


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

    def __init__(self, entries: Iterable[Iterable[Scalar]], shape: tuple[int, int] | None = None):
        grid = [[Cyclotomic._coerce(x) for x in row] for row in entries]
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        if any(len(r) != cols for r in grid):
            raise ExactNumError("ragged matrix")
        if shape is not None:
            # explicit shape lets degenerate (0 x n) matrices keep their width
            srows, scols = shape
            if rows and cols and (srows, scols) != (rows, cols):
                raise ExactNumError(f"shape {shape} contradicts entries {rows}x{cols}")
            if srows < 0 or scols < 0 or (srows and cols == 0 and scols and rows):
                raise ExactNumError(f"bad shape {shape}")
            if rows == 0 or cols == 0:
                rows, cols = srows, scols
                grid = [[] for _ in range(rows)] if cols == 0 else []
                if cols and rows:
                    raise ExactNumError(f"shape {shape} requires entries")
        conductor = 1
        for row in grid:
            for x in row:
                conductor = math.lcm(conductor, x.conductor)
        grid = [tuple(x.rebased(conductor) for x in row) for row in grid]
        den = math.lcm(1, *(c.denominator for row in grid for x in row for c in x._coeffs.values()))
        ints = tuple(
            tuple({e: c.numerator * (den // c.denominator) for e, c in x._coeffs.items()} for x in row)
            for row in grid
        )
        for name, value in zip(self.__slots__, (rows, cols, conductor, den, ints, tuple(grid))):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_ints(cls, conductor: int, den: int, ints: Sequence[Sequence[dict[int, int]]],
                   shape: tuple[int, int]) -> "CycMatrix":
        """The matrix of reduced integer coefficients ``ints`` over ``den`` > 0 at ``conductor``."""
        m = object.__new__(cls)
        for name, value in zip(cls.__slots__, (*shape, conductor, den, tuple(map(tuple, ints)), None)):
            object.__setattr__(m, name, value)
        return m

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    __hash__ = None  # type: ignore[assignment]

    def transpose(self) -> "CycMatrix":
        ints = [[row[j] for row in self.ints] for j in range(self.cols)]
        return CycMatrix._from_ints(self.conductor, self.den, ints, (self.cols, self.rows))

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        """Exact product by Kronecker substitution.

        Both operands are rebased to N = lcm of their conductors, and each
        entry's integer coefficients become one int: the polynomial evaluated
        at 2^w.  An entry of the product, before reduction and over the
        denominator ``self.den * other.den``, has coefficients bounded by
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
        n = math.lcm(self.conductor, other.conductor)

        def rebased(m: CycMatrix) -> Sequence[Sequence[dict[int, int]]]:
            k = n // m.conductor
            return m.ints if k == 1 else [
                [_reduce_coeffs(n, {e * k: c for e, c in coeffs.items()}) for coeffs in row] for row in m.ints
            ]

        a, b = rebased(self), rebased(other)
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
        return CycMatrix._from_ints(n, self.den * other.den, out, (self.rows, other.cols))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "CycMatrix":
        ints = [[self.ints[i][j] for j in col_idx] for i in row_idx]
        return CycMatrix._from_ints(self.conductor, self.den, ints, (len(row_idx), len(col_idx)))

    def rank_det(self) -> tuple[int, Cyclotomic | None]:
        """Exact rank, and determinant for square matrices (None otherwise).

        Both come from one ``_rref`` pass over the rows.  Each row is reduced
        only by earlier rows, so the determinant is unchanged, and it then
        vanishes left of its pivot and on earlier pivot columns: with the
        columns in pivot order the rows are triangular.  So the determinant
        is the sign of the permutation row -> pivot column times the product
        of the pivots before normalisation.  A 0x0 matrix has rank 0 and
        determinant 1 (empty product).
        """
        pivots, raw = _rref({j: x for j, x in enumerate(row) if x} for row in self.entries)
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

