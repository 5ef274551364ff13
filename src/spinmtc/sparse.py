"""Sparse exact elimination: the library's one Gaussian elimination.

Rows are dicts {column: nonzero entry}.  ``_rref(rows, p)`` brings them to
reduced row echelon form over Q (p 0, int or ``Fraction`` entries) or F_p
(p a prime, ints mod p).  Over Q it eliminates fraction-free, in integers:
each row is scaled once to integers, a reduction step cross-multiplies two
integer rows, and a reduced row is divided by its content (the gcd of its
entries).  No ``Fraction`` is made until the rows are normalised to unit
pivots on return.  The kernel serves the singular-vector solve of
:mod:`spinmtc.verma` (over Q) and the rank modulo a prime of
:mod:`spinmtc.exactnum`.  One row at a time, ``_insert_row`` also works
over a field such as Q(zeta_N) (p None, ``Cyclotomic`` entries): it serves
``CycMatrix.rank_det`` there, and the generating-set search of
:mod:`spinmtc.axioms` mod p.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Any, Iterable, Mapping

Row = dict[int, Any]


def _subtract(row: Row, f: Any, prow: Row, p: int | None) -> None:
    """row -= f * prow in place, over a field (p None), Z (p 0) or mod p; drops zeros."""
    for k, x in prow.items():
        y = row.get(k, 0) - f * x
        if p:
            y %= p
        if y:
            row[k] = y
        else:
            del row[k]


def _eliminate(row: Row, col: int, prow: Row, p: int | None) -> None:
    """Clear row's entry at col with the pivot row prow (pivot at col), in place.

    Over a field and mod p the pivot is 1: row -= row[col] * prow.  Over Z
    (p 0) the integer pivot a and b = row[col] are first divided by their
    gcd, and row = a * row - b * prow, a multiple of the row by a > 0.
    """
    f = row[col]
    if p == 0:
        g = gcd(prow[col], f)
        a, f = prow[col] // g, f // g
        if a != 1:
            for k in row:
                row[k] *= a
    _subtract(row, f, prow, p)


def _divide_content(row: Row) -> Row:
    """An integer row divided by its content, with a positive first entry."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {k: x // g for k, x in row.items()}


def _reduce(row: Row, pivots: Mapping[int, Row], p: int | None = None) -> Row:
    """Reduce a copy of row by reduced-echelon pivot rows (keyed by pivot column).

    Pivot rows vanish on the other pivot columns, so one elimination per
    pivot column present in the row suffices, in any order.  Over Z (p 0)
    the result is a positive multiple of the field reduction, divided by its
    content.
    """
    row = dict(row)
    for col in [k for k in row if k in pivots]:
        _eliminate(row, col, pivots[col], p)
    return _divide_content(row) if p == 0 and row else row


def _rref(rows: Iterable[Row], p: int) -> dict[int, Row]:
    """Sparse reduced row echelon form over Q (p 0) or F_p (p a prime).

    Entries are ints or ``Fraction`` values (p 0), or ints mod p.  Returns
    the nonzero rows keyed by pivot column, in the order their pivots were
    found.  Each row has a unit pivot, no entries left of it and none on
    other pivot columns; over Q its entries are ``Fraction`` values.  The
    rows are the unique RREF of the row space.
    """
    pivots: dict[int, Row] = {}
    for row in rows:
        if p == 0:
            den = lcm(*(x.denominator for x in row.values()))
            row = {k: x.numerator * (den // x.denominator) for k, x in row.items()}
        _insert_row(pivots, row, p)
    if p == 0:
        pivots = {col: {k: Fraction(x, prow[col]) for k, x in prow.items()} for col, prow in pivots.items()}
    return pivots


def _insert_row(pivots: dict[int, Row], row: Row, p: int | None = None) -> Any:
    """One elimination step: add row to the reduced-echelon pivots in place,
    over a field (p None), Z (p 0) or F_p.

    The row is reduced, normalised and substituted back into the other pivot
    rows.  Over a field and mod p a normalised row has a unit pivot.  Over Z
    (p 0, integer rows, as ``_rref`` makes them for Q) it is the primitive
    row with a positive pivot, and each pivot row stays primitive.
    Returns the row's pivot value before normalisation, or None when the row
    lies in the span of the pivots (nothing is added).  Entries of row must
    be nonzero.
    """
    row = _reduce(row, pivots, p)
    if not row:
        return None
    col = min(row)
    pivot = row[col]
    if p != 0:
        inv = pow(pivot, -1, p) if p else 1 / pivot
        row = {k: (x * inv) % p if p else x * inv for k, x in row.items()}
    for pcol, prow in pivots.items():
        if col in prow:
            _eliminate(prow, col, row, p)
            if p == 0:
                pivots[pcol] = _divide_content(prow)
    pivots[col] = row
    return pivot
