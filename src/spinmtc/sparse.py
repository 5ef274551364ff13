"""Sparse exact elimination: the library's one Gaussian elimination.

Rows are dicts {column: nonzero entry}.  ``_rref`` brings them to reduced
row echelon form over a field: Q (``Fraction`` entries), Q(zeta_N)
(``Cyclotomic`` entries) or F_p (ints mod a prime p).  It serves
``CycMatrix.rank_det`` and the rank modulo a prime of :mod:`spinmtc.exactnum`,
and the singular-vector solve of :mod:`spinmtc.verma`, over Q; one row at a
time, through ``_insert_row``, it serves the generating-set search of
:mod:`spinmtc.fusion`.  ``_is_prime`` picks the prime of the modular rank.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

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
