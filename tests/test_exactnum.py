"""Exact cyclotomic arithmetic and exact linear algebra."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinmtc

from spinmtc import parse_fraction
from spinmtc.cyclotomic import (
    Cyclotomic,
    ExactNumError,
    _reduce_coeffs,
    cyclotomic_polynomial,
    embed_numeric,
    phi_degree,
    zeta,
)
from spinmtc.exactnum import CycMatrix, _certified_rank, _prime_root, _rank_mod_p

ONE = Cyclotomic.from_rational(1)
ZERO = Cyclotomic.from_rational(0)


# --- polynomial layer -------------------------------------------------------


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_rem(num, den):
    # over a monic den, integer inputs stay integers
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    while len(num) >= len(den):
        lead = num[-1] if den[-1] == 1 else Fraction(num[-1]) / den[-1]
        shift = len(num) - len(den)
        for i, d in enumerate(den):
            if d:
                num[shift + i] -= lead * d
        while num and num[-1] == 0:
            num.pop()
        if not num:
            return []
    return num


def test_cyclotomic_polynomial_small_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(16) == (1, 0, 0, 0, 0, 0, 0, 0, 1)


def test_cyclotomic_polynomial_first_exotic_coefficient():
    # n = 105 is the least n whose cyclotomic polynomial has a coefficient
    # outside {-1, 0, 1}.
    assert -2 in cyclotomic_polynomial(105)
    for n in range(1, 105):
        assert set(cyclotomic_polynomial(n)) <= {-1, 0, 1}


def test_cyclotomic_product_recovers_xn_minus_1():
    for n in range(1, 301):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
        expect = [-1] + [0] * (n - 1) + [1]
        assert prod == expect, f"divisor product failed at n={n}"


def test_phi_degree_matches_polynomial_degree():
    for n in range(1, 40):
        assert phi_degree(n) == len(cyclotomic_polynomial(n)) - 1


@pytest.mark.parametrize("n, totient", [(9240, 1920), (9808, 4896)])
def test_phi_degree_is_the_totient_at_the_conductor_cap(n, totient):
    assert sum(math.gcd(k, n) == 1 for k in range(1, n + 1)) == totient
    assert phi_degree(n) == len(cyclotomic_polynomial(n)) - 1 == totient


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 24]),
    coeffs=st.lists(st.integers(-4, 4), min_size=1, max_size=12),
)
def test_reduction_sound_against_polynomial_remainder(n, coeffs):
    # The canonical form is zero exactly when Phi_n divides the polynomial.
    value = Cyclotomic(n, {e: c for e, c in enumerate(coeffs)})
    rem = _poly_rem(coeffs, list(cyclotomic_polynomial(n)))
    assert (value == ZERO) == (not rem)


@pytest.mark.parametrize("n", [105, 165, 210, 385, 1155, 2310])
def test_reduction_equals_polynomial_remainder(n):
    # Whole canonical forms, for sparse integer polynomials with exponents up
    # to 2n, so that folding by x^n = 1 is exercised as well as the division.
    rng = random.Random(n)
    deg = phi_degree(n)
    for terms in ([(deg, 1)], [(n - 1, 1)], [(n, 1)], [(2 * n, -3)]) + tuple(
        [(rng.randrange(2 * n + 1), rng.randint(-9, 9)) for _ in range(8)] for _ in range(2)
    ):
        raw: dict[int, int] = {}
        dense = [0] * (2 * n + 1)
        for e, c in terms:
            raw[e] = raw.get(e, 0) + c
            dense[e] += c
        rem = _poly_rem(dense, cyclotomic_polynomial(n))
        want = {i: c for i, c in enumerate(rem) if c}
        got = _reduce_coeffs(n, raw)
        assert got == want, (n, terms)
        # the packed matmul feeds int coefficients and relies on ints back
        assert all(type(c) is int for c in got.values())
        assert Cyclotomic(n, raw).coefficients() == want
        sixths = {e: Fraction(c, 6) for e, c in raw.items()}
        assert Cyclotomic(n, sixths).coefficients() == {i: Fraction(c, 6) for i, c in want.items()}


# --- roots of unity ----------------------------------------------------------


def test_roots_of_unity_have_exact_order():
    for n in (1, 2, 3, 4, 5, 8, 12, 16):
        z = zeta(n)
        assert z ** n == ONE
        if n > 1:
            assert z != ONE


def test_all_nth_roots_sum_to_zero():
    for n in (2, 3, 4, 6, 8, 15):
        total = ZERO
        for e in range(n):
            total = total + zeta(n, e)
        assert total == ZERO


def test_sqrt2_as_cyclotomic():
    s = zeta(8, 1) + zeta(8, 7)
    assert s * s == Cyclotomic.from_rational(2)


def test_golden_ratio_as_cyclotomic():
    g = -zeta(5, 2) - zeta(5, 3)
    assert g * g == g + ONE


def test_cross_conductor_equality():
    assert zeta(8, 2) == zeta(4, 1)
    assert zeta(12, 4) == zeta(3, 1)
    assert zeta(2, 1) == Cyclotomic.from_rational(-1)
    assert zeta(6, 1) == -zeta(3, 2)


def test_mixed_conductor_arithmetic_lands_in_lcm():
    x = zeta(3, 1) + zeta(4, 1)
    assert x.conductor == 12
    assert (x - zeta(4, 1)) == zeta(3, 1)


# --- field structure ---------------------------------------------------------


def test_inverse_of_simple_elements():
    x = ONE + zeta(3)
    assert x * x.inverse() == ONE
    assert (zeta(5) ** -3) * (zeta(5) ** 3) == ONE
    with pytest.raises(ExactNumError):
        ZERO.inverse()


def test_division_and_subtraction():
    a = zeta(8) + Cyclotomic.from_rational(Fraction(1, 2))
    b = zeta(8, 3) - Cyclotomic.from_rational(3)
    assert (a * b.inverse()) * b == a
    assert a - a == ZERO


_small_fraction = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def _cyclotomics(max_conductor=24):
    return st.builds(
        lambda n, coeffs: Cyclotomic(n, {e: c for e, c in enumerate(coeffs)}),
        st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 20, 24]),
        st.lists(_small_fraction, min_size=1, max_size=4),
    )


@settings(max_examples=120, deadline=None, derandomize=True)
@given(a=_cyclotomics(), b=_cyclotomics(), c=_cyclotomics())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if a != ZERO:
        assert a * a.inverse() == ONE


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=_cyclotomics(), b=_cyclotomics())
def test_numeric_embedding_is_a_homomorphism(a, b):
    za, zb = embed_numeric(a), embed_numeric(b)
    assert abs(embed_numeric(a + b) - (za + zb)) < 1e-9
    assert abs(embed_numeric(a * b) - za * zb) < 1e-9


def test_numeric_embedding_of_known_values():
    assert abs(embed_numeric(zeta(4)) - 1j) < 1e-12
    s = zeta(8, 1) + zeta(8, 7)
    assert abs(embed_numeric(s) - 2 ** 0.5) < 1e-12


def test_numeric_embedding_has_no_spurious_part_on_real_or_imaginary_values():
    # the golden ratio is exactly real and i times it exactly imaginary; their
    # floating sums leave a part of order 1e-17 or below, which must read 0.0
    golden = -(zeta(5) ** 2) - zeta(5) ** 3
    for digits in (6, 15):
        assert embed_numeric(golden, digits).imag == 0.0
        assert abs(embed_numeric(golden, digits).real - (1 + 5 ** 0.5) / 2) < 1e-12
    z = embed_numeric(zeta(4) * golden, 17)
    assert z.real == 0.0 and abs(z.imag - (1 + 5 ** 0.5) / 2) < 1e-12
    assert embed_numeric(ZERO) == 0j
    assert embed_numeric(zeta(5)).real != 0.0 != embed_numeric(zeta(5)).imag


# --- serialization -----------------------------------------------------------


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(zeta(8, 1) - zeta(8, 3)) == "z8 - z8^3"


def test_dict_round_trip():
    for x in (ZERO, ONE, zeta(16, 5), zeta(8) + zeta(8, 7), -zeta(5, 2) - zeta(5, 3)):
        assert Cyclotomic.from_dict(x.to_dict()) == x


def test_parse_fraction():
    assert parse_fraction("7/10") == Fraction(7, 10)
    assert parse_fraction("-3") == Fraction(-3)
    with pytest.raises(ValueError):
        parse_fraction("1/0")
    with pytest.raises(ValueError):
        parse_fraction("abc")
    for flag in (True, False, 1.5):
        with pytest.raises(ValueError, match="malformed rational"):
            parse_fraction(flag)
    # decimals and exponents are not the documented forms; "1e-3000000" would
    # otherwise be a rational with a denominator of about ten million bits
    for text in ("1e3", "0.5", "1e-3000000"):
        with pytest.raises(ValueError, match="malformed rational"):
            parse_fraction(text)
    assert parse_fraction is spinmtc.parse_fraction


# --- exact matrices ----------------------------------------------------------


def _mat(rows):
    return CycMatrix([[Cyclotomic.from_rational(Fraction(x)) for x in r] for r in rows])


def test_rank_det_frozen_cases():
    m = _mat([[1, 2], [3, 4]])
    rank, det = m.rank_det()
    assert rank == 2 and det == Cyclotomic.from_rational(-2)

    singular = _mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    rank, det = singular.rank_det()
    assert rank == 2 and det == ZERO

    vandermonde = _mat([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    rank, det = vandermonde.rank_det()
    assert rank == 3 and det == Cyclotomic.from_rational(2)


def test_matrix_with_cyclotomic_entries():
    s = zeta(8, 1) + zeta(8, 7)
    m = CycMatrix([[ONE, s], [s, -ONE]])
    rank, det = m.rank_det()
    assert rank == 2
    assert det == Cyclotomic.from_rational(-3)


def test_degenerate_shapes_survive_transpose_and_product():
    empty_row = CycMatrix([], shape=(0, 3))
    assert (empty_row.rows, empty_row.cols) == (0, 3)
    t = empty_row.transpose()
    assert (t.rows, t.cols) == (3, 0)
    tall = _mat([[1], [2], [3]])
    prod = empty_row @ tall
    assert (prod.rows, prod.cols) == (0, 1)
    rank, det = CycMatrix([], shape=(0, 0)).rank_det()
    assert rank == 0 and det == ONE


def test_matmul_against_numpy():
    a = _mat([[1, 2, 3], [4, 5, 6]])
    b = _mat([[7, 8], [9, 10], [11, 12]])
    got = (a @ b).entries
    expect = (np.arange(1, 7).reshape(2, 3) @ np.arange(7, 13).reshape(3, 2))
    for i in range(2):
        for j in range(2):
            assert got[i][j] == Cyclotomic.from_rational(int(expect[i, j]))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_exact_rank_matches_numeric_rank(data):
    rows = data.draw(st.integers(1, 5))
    cols = data.draw(st.integers(1, 5))
    entries = [
        [
            data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=3))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    if rows >= 3 and data.draw(st.booleans()):
        # plant a dependent row so rank deficiency is exercised
        entries[-1] = [x + y for x, y in zip(entries[0], entries[1])]
    m = CycMatrix([[Cyclotomic.from_rational(x) for x in row] for row in entries])
    exact_rank, _ = m.rank_det()
    arr = np.array([[float(x) for x in row] for row in entries], dtype=float)
    numeric_rank = int(np.linalg.matrix_rank(arr, tol=1e-8))
    assert exact_rank == numeric_rank


# --- packed matrix product ------------------------------------------------------


def _reference_matmul(a, b):
    """Entry by entry with Cyclotomic ops: the kernel's independent oracle."""
    return [
        [sum((a[i, k] * b[k, j] for k in range(a.cols)), ZERO) for j in range(b.cols)]
        for i in range(a.rows)
    ]


def _assert_matmul_matches_reference(a, b):
    got = a @ b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    if got.rows and got.cols:
        assert got.conductor == math.lcm(a.conductor, b.conductor)
    assert [list(row) for row in got] == _reference_matmul(a, b)
    for row in got:
        for x in row:
            assert x.conductor == got.conductor
            assert all(0 <= e < phi_degree(got.conductor) and c for e, c in x.coefficients().items())


_CONDUCTORS = (1, 3, 8, 16, 80)
_COEFFS = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.integers(-(2**200), 2**200).map(Fraction),
    st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**70)),
)


def _cyc_at(conductor):
    terms = st.dictionaries(st.integers(0, conductor - 1), _COEFFS, max_size=4)
    return st.one_of(st.just(ZERO), terms.map(lambda t: Cyclotomic(conductor, t)))


def _cyc_matrix(draw, rows, cols):
    conductor = draw(st.sampled_from(_CONDUCTORS))
    entries = [[draw(_cyc_at(conductor)) for _ in range(cols)] for _ in range(rows)]
    return CycMatrix(entries, shape=(rows, cols))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_matmul_matches_reference_loop(data):
    # Random conductors (often different on the two sides), signs,
    # 2^200-size numerators and nontrivial denominators.
    rows, inner, cols = (data.draw(st.integers(0, 4)) for _ in range(3))
    a = _cyc_matrix(data.draw, rows, inner)
    b = _cyc_matrix(data.draw, inner, cols)
    _assert_matmul_matches_reference(a, b)
    # m @ m, also for a symmetric m, whose square forms only its entries i <= j
    m = _cyc_matrix(data.draw, inner, inner)
    sym = CycMatrix([[m[min(i, j), max(i, j)] for j in range(inner)] for i in range(inner)],
                    shape=(inner, inner))
    _assert_matmul_matches_reference(m, m)
    _assert_matmul_matches_reference(sym, sym)


@pytest.mark.parametrize("n", _CONDUCTORS)
def test_packed_matmul_every_power_at_conductor(n):
    # Rows of zeta powers hit every exponent, so every reduction row is used.
    a = CycMatrix([[zeta(n, e) for e in range(n)], [zeta(n, -e) * (e - 3) for e in range(n)]])
    b = CycMatrix([[zeta(n, e * k) * Fraction(1, k + 2) for k in range(3)] for e in range(n)])
    _assert_matmul_matches_reference(a, b)


def test_packed_matmul_mixed_conductors():
    a = CycMatrix([[zeta(3), zeta(8, 3)], [Fraction(-5, 6), zeta(16, 7)]])
    b = CycMatrix([[zeta(80, 17), 2], [zeta(5, 2), zeta(3, 2) - zeta(8)]])
    assert (a.conductor, b.conductor) == (48, 240)
    _assert_matmul_matches_reference(a, b)
    _assert_matmul_matches_reference(b, a)
    _assert_matmul_matches_reference(a, a)
    sym = CycMatrix([[b[0, 0], b[0, 1]], [b[0, 1], b[1, 1]]])
    _assert_matmul_matches_reference(sym, sym)


@pytest.mark.parametrize("sign", (1, -1))
def test_packed_matmul_meets_its_slot_bound(sign):
    # Every coefficient at its maximum M makes the middle unreduced slot
    # exactly cols * phi(N) * M^2, the bound the slot width is sized for.
    n, cols, big = 16, 5, 2**200 - 1
    full = Cyclotomic(n, {e: big for e in range(phi_degree(n))})
    a = CycMatrix([[full] * cols] * 2)
    b = CycMatrix([[full * sign] * 3] * cols)
    _assert_matmul_matches_reference(a, b)
    assert (a @ b)[0, 0] == full * full * (sign * cols)


def test_packed_matmul_zero_and_empty_shapes():
    zeros = CycMatrix([[ZERO] * 3] * 2)
    full = CycMatrix([[zeta(8)] * 2] * 3)
    _assert_matmul_matches_reference(zeros, full)
    assert all(x.is_zero for row in (zeros @ full).entries for x in row)
    tall = CycMatrix([[zeta(5)], [1], [2]])
    for left, right in (
        (CycMatrix([], shape=(0, 3)), tall),  # 0x3 @ 3x1
        (tall.transpose(), CycMatrix([], shape=(3, 0))),  # 1x3 @ 3x0
        (CycMatrix([], shape=(0, 3)), CycMatrix([], shape=(3, 0))),  # 0xn @ nx0
        (CycMatrix([], shape=(4, 0)), CycMatrix([], shape=(0, 3))),  # nx0 @ 0xm
    ):
        prod = left @ right
        assert (prod.rows, prod.cols) == (left.rows, right.cols)
        assert all(x.is_zero for row in prod.entries for x in row)
    with pytest.raises(ExactNumError):
        tall @ tall


def test_submatrix_and_transpose_keep_degenerate_shapes():
    m = CycMatrix([[zeta(8), 1, 0], [Fraction(1, 3), zeta(8, 3), 2]])
    for rows, cols in (([], []), ([], [0, 2]), ([1], []), ([1, 0], [2, 0])):
        sub = m.submatrix(rows, cols)
        t = sub.transpose()
        assert (sub.rows, sub.cols, t.rows, t.cols) == (len(rows), len(cols), len(cols), len(rows))
        assert sub == CycMatrix([[m[i, j] for j in cols] for i in rows], shape=(len(rows), len(cols)))
        assert [list(row) for row in t] == [[sub[i, j] for i in range(sub.rows)] for j in range(sub.cols)]
        assert t.transpose() == sub
        for x in (sub, t):
            assert len(x.ints) == x.rows and all(len(row) == x.cols for row in x.ints)
        _assert_matmul_matches_reference(sub, t)
        _assert_matmul_matches_reference(t, sub)


def test_packed_s_squared_on_builtins_and_rank_36_product():
    from spinmtc.catalog import BUILTIN_KEYS, builtin
    from spinmtc.fusion import check_s_squared, compute_smatrix, deligne_product

    cases = [builtin(key) for key in BUILTIN_KEYS]
    prod = builtin("dirac")
    for key in ("fermion", "fermion"):
        prod = deligne_product(prod, builtin(key))
    cases.append(prod)
    assert prod.rank == 36
    for data in cases:
        s = compute_smatrix(data)
        _assert_matmul_matches_reference(s.data, s.data)
        holds, alpha = check_s_squared(s, data)
        assert holds, data.name
        assert alpha == sum((data.qdim[lab] * data.qdim[lab] for lab in data.labels), ZERO), data.name


# --- elimination kernel over Q(zeta_N) ------------------------------------------


def _dense_rank_det(m):
    """Reference: dense forward elimination with row swaps over Cyclotomic ops."""
    work = [list(row) for row in m.entries]
    rank = 0
    swaps = 0
    pivots = []
    for col in range(m.cols):
        if rank == m.rows:
            break
        prow = next((r for r in range(rank, m.rows) if not work[r][col].is_zero), None)
        if prow is None:
            continue
        if prow != rank:
            work[rank], work[prow] = work[prow], work[rank]
            swaps += 1
        piv = work[rank][col]
        pivots.append(piv)
        inv = piv.inverse()
        for r in range(rank + 1, m.rows):
            f = work[r][col]
            if not f.is_zero:
                factor = f * inv
                work[r] = [work[r][c] - factor * work[rank][c] for c in range(m.cols)]
        rank += 1
    det = None
    if m.rows == m.cols:
        if rank < m.rows:
            det = Cyclotomic.from_rational(0)
        else:
            det = Cyclotomic.from_rational(1)
            for p in pivots:
                det = det * p
            if swaps % 2:
                det = -det
    return rank, det


def _assert_rank_det_matches_reference(m):
    rank, det = m.rank_det()
    ref_rank, ref_det = _dense_rank_det(m)
    assert rank == ref_rank
    if ref_det is None:
        assert det is None
    else:
        assert det == ref_det and det.to_dict() == ref_det.to_dict()


_KERNEL_CONDUCTORS = (1, 3, 5, 8, 80)
_KERNEL_COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=7)


def _draw_kernel_matrix(data) -> CycMatrix:
    """A sparse matrix of up to 6x6 over Q(zeta_N), sometimes with a dependent row."""
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    conductor = data.draw(st.sampled_from(_KERNEL_CONDUCTORS))
    terms = st.dictionaries(st.integers(0, conductor - 1), _KERNEL_COEFFS, max_size=3)
    entry = st.one_of(st.just(ZERO), st.just(ZERO), terms.map(lambda t: Cyclotomic(conductor, t)))
    entries = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and data.draw(st.booleans()):
        # a row in the span of two others, over Q(zeta_N)
        a, b = data.draw(entry), data.draw(entry)
        entries[data.draw(st.integers(2, rows - 1))] = [
            a * x + b * y for x, y in zip(entries[0], entries[1])
        ]
    return CycMatrix(entries, shape=(rows, cols))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_rank_det_matches_dense_reference(data):
    _assert_rank_det_matches_reference(_draw_kernel_matrix(data))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_rank_mod_p_bounds_the_exact_rank(data):
    m = _draw_kernel_matrix(data)
    if m.rows and data.draw(st.booleans()):
        # a row times p vanishes mod p, not over Q(zeta_N)
        p = _prime_root(m.conductor)[0]
        k = data.draw(st.integers(0, m.rows - 1))
        m = CycMatrix([[x * p for x in row] if i == k else row for i, row in enumerate(m)],
                      shape=(m.rows, m.cols))
    rank, _ = m.rank_det()
    rank_p = _rank_mod_p(m)
    assert rank_p <= rank
    if rank_p == min(m.rows, m.cols):
        assert rank_p == rank
    assert _certified_rank(m) == rank


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 80, 8008, 9240, 10_000])
def test_prime_root_is_a_primitive_root_mod_a_prime_above_2_61(n):
    p, w = _prime_root(n)
    assert p > 2**61 and (p - 1) % n == 0
    assert all(p % q for q in range(2, 2000))
    assert pow(3, p - 1, p) == 1 and pow(5, p - 1, p) == 1
    # w is a root of Phi_n mod p: the images of the power basis respect Phi_n
    assert sum(c * pow(w, e, p) for e, c in enumerate(cyclotomic_polynomial(n))) % p == 0
    assert pow(w, n, p) == 1
    assert all(pow(w, n // q, p) != 1 for q in range(2, n + 1) if n % q == 0)


def test_rank_deficient_mod_p_falls_back_to_the_exact_rank(monkeypatch):
    p = _prime_root(1)[0]
    m = CycMatrix([[1, 1], [1, 1 + p]])  # determinant p
    assert m.rank_det() == (2, Cyclotomic.from_rational(p))
    assert _rank_mod_p(m) == 1
    calls = []
    exact = CycMatrix.rank_det
    monkeypatch.setattr(CycMatrix, "rank_det", lambda self: calls.append(self) or exact(self))
    assert _certified_rank(m) == 2 and calls == [m]
    # a full rank mod p is the answer: the exact elimination does not run
    assert _certified_rank(CycMatrix([[1, 1], [1, 2]])) == 2 and calls == [m]
    # a rank that is deficient over Q(zeta_N) too gets its exact value
    singular = CycMatrix([[zeta(8), 1], [zeta(8, 2), zeta(8)]])
    assert _rank_mod_p(singular) == _certified_rank(singular) == 1 and calls == [m, singular]


def test_rank_det_degenerate_shapes():
    for shape in ((0, 0), (0, 4), (4, 0)):
        m = CycMatrix([], shape=shape)
        _assert_rank_det_matches_reference(m)
    assert CycMatrix([], shape=(0, 4)).rank_det() == (0, None)
    assert CycMatrix([[ZERO] * 3] * 3).rank_det() == (0, ZERO)
    # the pivot columns (1, 0, 2) are one transposition from row order
    m = CycMatrix([[0, zeta(5), 1], [2, 0, 0], [0, 0, zeta(3)]])
    assert m.rank_det() == (3, -2 * zeta(5) * zeta(3))
    _assert_rank_det_matches_reference(m)


@pytest.mark.parametrize(
    "factors",
    [("dirac", "dirac", "dirac"), ("dirac", "fermion", "fermion"), ("fibonacci", "fermion", "fermion")],
    ids=["dirac3", "dirac_fermion2", "fibonacci_fermion2"],
)
def test_rank_det_on_blocks_of_benchmark_products(factors):
    from spinmtc.catalog import builtin
    from spinmtc.clifford import classify_labels, clifford_structure, find_vminus, verify_block_structure
    from spinmtc.fusion import compute_smatrix, deligne_product

    first, *rest = factors
    data = builtin(first)
    for key in rest:
        data = deligne_product(data, builtin(key))
    s = compute_smatrix(data)
    generators = [v for v in find_vminus(data) if clifford_structure(data, v).is_clifford]
    assert generators
    idx = {lab: i for i, lab in enumerate(data.labels)}
    for vminus in generators:
        cls = classify_labels(data, vminus)
        report = verify_block_structure(data, cls, s)
        bd = s.data.submatrix([idx[x] for x in cls.ns_plus], [idx[x] for x in cls.r_plus + cls.r_zero])
        for block in (report.block_a, report.block_c, bd):
            _assert_rank_det_matches_reference(block)
