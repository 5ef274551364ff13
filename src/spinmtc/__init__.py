"""Exact computations for fermionic modular tensor category data.

Cyclotomic s-matrices, NS/R label classification with block-structure
verification, spin surface dimensions, N=1 minimal-model label tables, and
singular vectors in Neveu-Schwarz Verma modules.  All checks run in exact
arithmetic; floats appear only in explicitly non-authoritative annotations.

The package itself loads no submodule; the cyclotomic arithmetic lives in
``spinmtc.exactnum``.  It holds the helpers that every module shares: the
rational reader and writer of the JSON fields, and the record base class.
"""

from __future__ import annotations

import re
from fractions import Fraction

__version__ = "0.1.0"

__all__ = ["__version__"]


def _fraction_str(q) -> str:
    """A rational as "a/b", the form every JSON field of the package uses."""
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(text: object) -> Fraction:
    """Parse 'a/b' or 'a' (optionally signed digits), or take an int.

    Floats, bools, decimals such as '0.5' and exponents such as '1e3' are
    ValueErrors: an exponent of a few characters can make a rational
    millions of bits long.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str) and re.fullmatch(r"\s*[-+]?\d+(/\d+)?\s*", text):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational: {text!r}") from exc
    raise ValueError(f"malformed rational: {text!r}")


class _Record:
    """Base of the records that validate or cache: equality, hash and repr
    over the attributes named in ``_fields``, which cannot be assigned.

    ``__init__`` stores the fields through ``_set``; plain assignment raises
    AttributeError.  ``functools.cached_property`` writes the instance
    ``__dict__`` directly, so it still works.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, **fields: object) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({args})"
