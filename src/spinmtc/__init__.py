"""Exact computations for fermionic modular tensor category data.

Cyclotomic s-matrices, NS/R label classification with block-structure
verification, spin surface dimensions, N=1 minimal-model label tables, and
singular vectors in Neveu-Schwarz Verma modules.  All checks run in exact
arithmetic; floats appear only in explicitly non-authoritative annotations.

The package itself loads no submodule; the cyclotomic field lives in
``spinmtc.cyclotomic``, and the s-matrix layer over it in
``spinmtc.exactnum``.  It holds the helpers that every module shares: the
rational reader and writer of the JSON fields, the record base class, the
keys of the builtin categories, the lazy submodule loader, and the output
writers of the CLI's handler modules, ``category_cli``, ``smatrix_cli``
and ``model_cli``.
They live here so that no handler module imports ``cli``: ``python -m
spinmtc.cli`` runs ``cli`` as ``__main__``, and an import of
``spinmtc.cli`` would compile and execute it a second time.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import re
import sys
from fractions import Fraction
from types import ModuleType
from typing import Iterable, Iterator, Sequence

__version__ = "0.1.0"

__all__ = ["__version__", "parse_fraction"]

BUILTIN_KEYS = ("trivial", "fermion", "dirac", "toric", "fibonacci")  # built by ``catalog``
ROWS_PER_WRITE = 4096  # the CLI writes long outputs in blocks of this many rows


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

    @classmethod
    def _unchecked(cls, *values: object):
        """An instance with these ``_fields`` values, known to be valid: made
        without ``__init__``'s checks, for generators that are valid by
        construction."""
        obj = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(obj, name, value)
        return obj

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


# ---------------------------------------------------------------------------
# the CLI's lazy submodules and output writers


def _lazy(name: str) -> ModuleType:
    """The submodule ``spinmtc.<name>``, executed on its first attribute read.

    Each command then runs only the modules it uses.  The module sits in
    ``sys.modules`` from the start, so code that looks it up there (or
    patches its attributes) sees the one object the handlers read at call
    time.
    """
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        globals()[name] = module
    return module


def _emit(obj: dict, table: str, fmt: str) -> None:
    if fmt == "json":
        _write_blocks(_json_parts(obj), "")
        sys.stdout.write("\n")
    else:
        sys.stdout.write(table if table.endswith("\n") else table + "\n")


def _json_parts(value: object, pad: str = "") -> Iterator[str]:
    """``json.dumps(value, indent=2)`` in parts, nested at indent ``pad``: dicts
    (string keys) are walked, a ``CycMatrix`` writes itself (found by its method,
    so that commands without one never execute exactnum), json does the rest."""
    if hasattr(value, "json_parts"):
        yield from value.json_parts(pad)
    elif isinstance(value, dict) and value:
        sep = "{\n"
        for key, item in value.items():
            yield f"{sep}{pad}  {json.dumps(key)}: "
            yield from _json_parts(item, pad + "  ")
            sep = ",\n"
        yield f"\n{pad}}}"
    else:
        for chunk in json.JSONEncoder(indent=2).iterencode(value):
            yield chunk.replace("\n", "\n" + pad)


def _grid_lines(rows: Iterable[Sequence[str]], widths: Sequence[int]) -> Iterator[str]:
    """Each row's cells left-justified to the column widths, two spaces apart."""
    return ("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows)


def _grid(rows: list[list[str]]) -> str:
    if not rows:
        return ""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(_grid_lines(rows, widths))


def _write_blocks(parts: Iterator[str], sep: str, rows_per_part: int = 1) -> None:
    """Write ``sep.join(parts)`` to stdout, at most ``ROWS_PER_WRITE`` rows at a
    time, for parts of at most ``rows_per_part`` rows each."""
    lead, per_write = "", max(ROWS_PER_WRITE // rows_per_part, 1)
    while block := list(itertools.islice(parts, per_write)):
        sys.stdout.write(lead + sep.join(block))
        lead = sep


def _write_json_last(obj: dict, key: str, brackets: str, items: Iterator[str], rows_per_part: int = 1) -> None:
    """Write ``json.dumps({**obj, key: value}, indent=2)`` and a newline, for a
    nonempty ``obj`` and a nonempty list or dict ``value`` (as ``brackets``
    says) given as its items, each already encoded at the value's indent;
    an item may join up to ``rows_per_part`` of them with ``",\\n"``."""
    sys.stdout.write(json.dumps(obj, indent=2)[:-2] + f',\n  "{key}": {brackets[0]}\n')
    _write_blocks(items, ",\n", rows_per_part)
    sys.stdout.write(f"\n  {brackets[1]}\n}}\n")
