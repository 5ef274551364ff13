"""Exact arithmetic in cyclotomic fields Q(zeta_N), plus exact linear algebra.

The library's one Gaussian elimination is the sparse RREF kernel ``_rref``
here, over Q, F_p or Q(zeta_N): ``CycMatrix.rank_det``, the rank modulo a
prime that certifies the block checks of :mod:`spinmtc.clifford`, the
singular-vector solve of :mod:`spinmtc.verma` and, one row at a time through
``_insert_row``, the generating-set search of :mod:`spinmtc.fusion` run on it.

Elements are kept in the power basis of Q[x]/Phi_N(x), so zero tests and
equality are exact coefficient comparisons.  Values of different conductor
are rebased to the least common multiple before they are combined.  All
objects here are immutable once constructed and safe to share freely.

Reduction modulo Phi_N folds exponents mod N (x^N = 1), then divides out the
monic Phi_N from the top exponent down, in integers over one common
denominator.  Phi_N is built prime by prime, and each conductor caches only
Phi_N and its nonzero lower terms: O(phi(N)) ints.

Floating-point only ever appears in :func:`embed_numeric`, which is a
display/diagnostic aid and never feeds a correctness decision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Any, Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "Cyclotomic",
    "CycMatrix",
    "ExactNumError",
    "cyclotomic_polynomial",
    "phi_degree",
    "zeta",
    "root_of_unity",
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

    def __truediv__(self, other: Scalar) -> "Cyclotomic":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

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

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugate (zeta -> zeta^{-1})."""
        n = self.conductor
        return Cyclotomic(n, {(n - e) % n: c for e, c in self._coeffs.items()})

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
        if not isinstance(conductor, int) or not isinstance(terms, list):
            raise ExactNumError(f"malformed cyclotomic value: {obj!r}")
        raw: dict[int, Fraction] = {}
        for item in terms:
            if not isinstance(item, (list, tuple)) or len(item) != 2 or not isinstance(item[0], int):
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


def _fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(text: object) -> Fraction:
    """Parse 'a/b' or 'a' (also accepts ints); rejects floats."""
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ExactNumError(f"malformed rational: {text!r}") from exc
    raise ExactNumError(f"malformed rational: {text!r}")


def zeta(n: int, e: int = 1) -> Cyclotomic:
    """The root of unity zeta_n^e."""
    if n < 1:
        raise ExactNumError(f"conductor must be positive, got {n}")
    return Cyclotomic(n, {e % n: Fraction(1)})


def root_of_unity(t: Fraction | int) -> Cyclotomic:
    """e^{2 pi i t} for rational t, as an exact cyclotomic value."""
    t = Fraction(t) % 1
    return zeta(t.denominator, t.numerator)


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


def _integer_coefficients(
    entries: Sequence[Sequence[Cyclotomic]], n: int
) -> tuple[list[list[dict[int, int]]], int, int]:
    """Entries at conductor n as sparse integer power-basis coefficients.

    Returns (coefficients, den, max_abs): every entry equals its integer
    coefficients divided by the one common denominator ``den``.
    """
    grid = [[x.rebased(n)._coeffs for x in row] for row in entries]
    den = math.lcm(1, *(c.denominator for row in grid for coeffs in row for c in coeffs.values()))
    ints = [
        [{e: c.numerator * (den // c.denominator) for e, c in coeffs.items()} for coeffs in row]
        for row in grid
    ]
    max_abs = max((abs(v) for row in ints for coeffs in row for v in coeffs.values()), default=0)
    return ints, den, max_abs


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


def _packed_operands(a: "CycMatrix", b: "CycMatrix") -> tuple[int, list[list[int]], list[list[int]], int, int]:
    """(N, a's rows, b's rows, den, w): a and b packed for Kronecker substitution.

    Both are rebased to N = lcm of their conductors and scaled by one common
    denominator each (den is their product) to integer power-basis
    coefficients, and every entry becomes one int: its coefficients evaluated
    at 2^w.  An entry of a @ b, before reduction, has coefficients bounded by
    |c| <= a.cols * phi(N) * max|a| * max|b| (at most ``a.cols`` products of
    entries, each summing at most phi(N) coefficient products).  With
    w = bit_length(bound) + 1 every slot, sign bit included, fits its w bits,
    so the packed dot product of a row of a and a column of b is exact.
    """
    n = math.lcm(a.conductor, b.conductor)
    a_ints, a_den, a_max = _integer_coefficients(a.entries, n)
    b_ints, b_den, b_max = (a_ints, a_den, a_max) if b is a else _integer_coefficients(b.entries, n)
    width = (a.cols * phi_degree(n) * a_max * b_max).bit_length() + 1
    a_rows = [[_pack(c, width) for c in row] for row in a_ints]
    b_rows = a_rows if b is a else [[_pack(c, width) for c in row] for row in b_ints]
    return n, a_rows, b_rows, a_den * b_den, width


# ---------------------------------------------------------------------------
# sparse exact linear algebra: rows are dicts {column: nonzero entry}

Row = dict[int, Any]


def _subtract(row: Row, f: Any, prow: Row, p: int | None) -> None:
    """row -= f * prow in place, over a field (p None) or mod p; drops zeros."""
    for k, x in prow.items():
        y = row.get(k, 0) - f * x
        if p:
            y %= p
        if y:
            row[k] = y
        else:
            del row[k]


def _reduce(row: Row, pivots: Mapping[int, Row], p: int | None = None) -> Row:
    """Reduce a copy of row by reduced-echelon pivot rows (keyed by pivot column).

    Pivot rows vanish on the other pivot columns, so one subtraction per
    pivot column present in the row suffices, in any order.
    """
    row = dict(row)
    for col in [k for k in row if k in pivots]:
        _subtract(row, row[col], pivots[col], p)
    return row


def _rref(rows: Iterable[Row], p: int | None = None) -> tuple[dict[int, Row], list[Any]]:
    """Sparse reduced row echelon form over Q, Q(zeta_N) or mod a prime p.

    Entries are ``Fraction`` or ``Cyclotomic`` values (p None), or ints mod
    p.  Returns the nonzero rows keyed by pivot column, in the order their
    pivots were found, and the pivot values before normalisation in that
    order.  Each row has a unit pivot, no entries left of it and none on
    other pivot columns.  The rows are the unique RREF of the row space.
    """
    pivots: dict[int, Row] = {}
    raw: list[Any] = []
    for row in rows:
        pivot = _insert_row(pivots, row, p)
        if pivot is not None:
            raw.append(pivot)
    return pivots, raw


def _insert_row(pivots: dict[int, Row], row: Row, p: int | None = None) -> Any:
    """One step of ``_rref``: add row to the reduced-echelon pivots in place.

    The row is reduced, normalised to a unit pivot and substituted back into
    the other pivot rows.  Returns its pivot value before normalisation, or
    None when the row lies in the span of the pivots (nothing is added).
    Entries of row must be nonzero.
    """
    row = _reduce(row, pivots, p)
    if not row:
        return None
    col = min(row)
    pivot = row[col]
    inv = pow(pivot, -1, p) if p else 1 / pivot
    row = {k: (x * inv) % p if p else x * inv for k, x in row.items()}
    for prow in pivots.values():
        if col in prow:
            _subtract(prow, prow[col], row, p)
    pivots[col] = row
    return pivot


# ---------------------------------------------------------------------------
# word-size primes, and rank modulo a prime above p

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

    The entries are taken as integer coefficients over one common
    denominator, so nothing is inverted mod p, and the map on them is
    reduction at a prime above p: a ring map of Z[zeta_N], under which a
    vanishing minor stays zero.  So the result is at most the rank of m,
    and it is the rank when it equals min(rows, cols).
    """
    n = m.conductor
    p, w = _prime_root(n)
    powers = [pow(w, e, p) for e in range(phi_degree(n))]
    ints, _, _ = _integer_coefficients(m.entries, n)
    images = ([sum(c * powers[e] for e, c in coeffs.items()) % p for coeffs in row] for row in ints)
    return len(_rref(({j: x for j, x in enumerate(row) if x} for row in images), p)[0])


def _certified_rank(m: "CycMatrix") -> int:
    """The exact rank of m: ``_rank_mod_p`` when that is full, else from ``rank_det``."""
    rank = _rank_mod_p(m)
    return rank if rank == min(m.rows, m.cols) else m.rank_det()[0]


# ---------------------------------------------------------------------------


class CycMatrix:
    """Dense matrix over a single cyclotomic field, with exact rank and det."""

    __slots__ = ("rows", "cols", "conductor", "entries")

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
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "entries", tuple(grid))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CycMatrix is immutable")

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
        return CycMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            shape=(self.cols, self.rows),
        )

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        """Exact product of the ``_packed_operands``: each packed dot product unpacks
        to an entry's coefficients, folded mod x^N - 1 and reduced mod Phi_N once."""
        if self.cols != other.rows:
            raise ExactNumError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n, a_rows, b_rows, den, width = _packed_operands(self, other)
        b_cols = [[row[j] for row in b_rows] for j in range(other.cols)]
        out = []
        for a_row in a_rows:
            out_row = []
            for b_col in b_cols:
                coeffs = _reduce_coeffs(n, _unpack(sum(map(int.__mul__, a_row, b_col)), width))
                out_row.append(Cyclotomic(n, {e: Fraction(c, den) for e, c in coeffs.items()}, _canonical=True))
            out.append(out_row)
        return CycMatrix(out, shape=(self.rows, other.cols))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "CycMatrix":
        return CycMatrix(
            [[self.entries[i][j] for j in col_idx] for i in row_idx],
            shape=(len(row_idx), len(col_idx)),
        )

    def is_zero(self) -> bool:
        return all(x.is_zero for row in self.entries for x in row)

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

    def to_lists(self) -> list[list[Cyclotomic]]:
        return [list(row) for row in self.entries]

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[x.to_dict() for x in row] for row in self.entries],
        }

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(x) for x in row) for row in self.entries)
        return f"CycMatrix({self.rows}x{self.cols}: {body})"

