"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are kept in the power basis of Q[x]/Phi_N(x), so zero tests and
equality are exact coefficient comparisons.  Values of different conductor
are rebased to the least common multiple before they are combined.  All
objects here are immutable once constructed and safe to share freely.

Reduction modulo Phi_N folds exponents mod N (x^N = 1), then divides out the
monic Phi_N from the top exponent down, in integers over one common
denominator.  Phi_N is built prime by prime, and each conductor caches only
Phi_N and its nonzero lower terms: O(phi(N)) ints.

Matrices over these fields live in :mod:`spinmtc.exactnum`, which only the
commands that multiply or eliminate them execute.  Floating-point only ever
appears in :func:`embed_numeric`, which is a display/diagnostic aid and never
feeds a correctness decision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Any, Iterable, Mapping, Sequence, Union

from . import _fraction_str, parse_fraction

__all__ = [
    "Cyclotomic",
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


def _integer_form(values: Iterable[Cyclotomic]) -> tuple[int, int, list[dict[int, int]]]:
    """(n, den, ints): the values at n, the lcm of their conductors, as the
    integer power-basis coefficients ``ints`` over one positive denominator."""
    values = list(values)
    n = math.lcm(1, *(x.conductor for x in values))
    values = [x.rebased(n) for x in values]
    den = math.lcm(1, *(c.denominator for x in values for c in x._coeffs.values()))
    return n, den, [{e: c.numerator * (den // c.denominator) for e, c in x._coeffs.items()} for x in values]


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
