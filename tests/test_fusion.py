"""Fusion data validation, exact s-matrices, and the builtin catalog."""

from __future__ import annotations

import itertools
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from spinmtc.catalog import BUILTIN_KEYS, builtin
from spinmtc.exactnum import Cyclotomic, zeta
from spinmtc.fusion import (
    FormatError,
    FusionData,
    InconsistentDataError,
    check_s_squared,
    compute_smatrix,
    deligne_product,
    dump_fusion,
    fusion_from_dict,
    fusion_to_dict,
    hom_unit_dim,
    load_fusion,
    validate,
)

ONE = Cyclotomic.from_rational(1)


# --- catalog and serialization ----------------------------------------------


def test_builtin_keys_are_stable():
    assert BUILTIN_KEYS == ("trivial", "fermion", "dirac", "toric", "fibonacci")
    with pytest.raises(FormatError):
        builtin("nope")


def test_all_builtins_validate_clean():
    for key in BUILTIN_KEYS:
        assert validate(builtin(key)) == []


def test_dump_load_round_trip(tmp_path):
    for key in BUILTIN_KEYS:
        data = builtin(key)
        path = tmp_path / f"{key}.json"
        path.write_text(dump_fusion(data))
        again = load_fusion(path)
        assert again == data
        assert dump_fusion(again) == dump_fusion(data)


def test_dict_round_trip_is_canonical():
    for key in BUILTIN_KEYS:
        d = fusion_to_dict(builtin(key))
        assert fusion_from_dict(json.loads(json.dumps(d))) == builtin(key)


def test_strict_format_rejections():
    good = fusion_to_dict(builtin("fermion"))

    extra = dict(good, extra=1)
    with pytest.raises(FormatError, match="unknown keys"):
        fusion_from_dict(extra)

    missing = {k: v for k, v in good.items() if k != "twist"}
    with pytest.raises(FormatError, match="missing keys"):
        fusion_from_dict(missing)

    dup = dict(good, fusion=good["fusion"] + [["sigma", "sigma", "psi", 1]])
    with pytest.raises(FormatError, match="duplicate fusion entry"):
        fusion_from_dict(dup)

    neg = dict(good, fusion=[["1", "1", "1", -1]] + good["fusion"][1:])
    with pytest.raises(FormatError):
        fusion_from_dict(neg)

    with pytest.raises(FormatError):
        fusion_from_dict(["not", "a", "mapping"])


# --- axiom checking -----------------------------------------------------------


def test_fermion_axioms_by_independent_brute_force():
    # Re-verify the fermion fusion ring against the validator with a direct
    # loop that shares no code with validate().
    data = builtin("fermion")
    labs = data.labels
    n = data.n
    for i, j in itertools.product(labs, repeat=2):
        assert n("1", i, j) == (1 if i == j else 0)
        assert n(i, "1", j) == (1 if i == j else 0)
        for k in labs:
            assert n(i, j, k) == n(j, i, k)
    for i, j, k, l in itertools.product(labs, repeat=4):
        lhs = sum(n(i, j, m) * n(m, k, l) for m in labs)
        rhs = sum(n(j, k, m) * n(i, m, l) for m in labs)
        assert lhs == rhs, (i, j, k, l)
    for i, j in itertools.product(labs, repeat=2):
        total = Cyclotomic.from_rational(0)
        for k in labs:
            total = total + data.qdim[k] * Cyclotomic.from_rational(n(i, j, k))
        assert total == data.qdim[i] * data.qdim[j], (i, j)


def test_validate_reports_broken_associativity():
    f = builtin("fermion")
    bad = dict(f.fusion)
    bad[("sigma", "sigma", "psi")] = 2
    vs = validate(replace(f, fusion=bad))
    assert any(v.check == "associativity" for v in vs)


def _ring_xy(big: int) -> FusionData:
    """Commutative rank-3 ring: x x = 1 + y, x y = x + big y, y y = 1 + big x.

    (x x) y and x (x y) differ by big^2 copies of y, so it is never associative.
    """
    labels = ("1", "x", "y")
    products = {("x", "x"): {"1": 1, "y": 1}, ("x", "y"): {"x": 1, "y": big}, ("y", "y"): {"1": 1, "x": big}}
    fusion = {}
    for a in labels:
        fusion[("1", a, a)] = fusion[(a, "1", a)] = 1
    for (a, b), channels in products.items():
        for k, v in channels.items():
            fusion[(a, b, k)] = fusion[(b, a, k)] = v
    return FusionData(
        name=f"xy{big}",
        labels=labels,
        unit="1",
        dual={lab: lab for lab in labels},
        fusion=fusion,
        twist={lab: Fraction(0) for lab in labels},
        qdim={lab: ONE for lab in labels},
    )


def _first_associativity_failure(data):
    labs, n = data.labels, data.n
    for i, j, k, l in itertools.product(labs, repeat=4):
        lhs = sum(n(i, j, m) * n(m, k, l) for m in labs)
        rhs = sum(n(j, k, m) * n(i, m, l) for m in labs)
        if lhs != rhs:
            return (i, j, k, l)
    return None


@pytest.mark.parametrize("big", (1, 2**32, 2**63, 2**200))
def test_validate_associativity_is_exact_for_large_multiplicities(big):
    # At 2^32 the defect big^2 is 2^64, which an int64 sum wraps to zero;
    # at 2^63 a multiplicity no longer fits an int64 at all.
    data = _ring_xy(big)
    vs = validate(data)
    assert [v.check for v in vs] == ["associativity", "dimension_equation"]
    assert vs[0].witness == _first_associativity_failure(data) == ("x", "x", "y", "y")


def test_validate_reports_wrong_qdim():
    f = builtin("fermion")
    vs = validate(replace(f, qdim={**f.qdim, "sigma": Cyclotomic.from_rational(2)}))
    assert [v.check for v in vs] == ["dimension_equation"]
    assert vs[0].witness == ("sigma", "sigma")


def test_validate_reports_unit_and_dual_breaks():
    f = builtin("fermion")
    bad = dict(f.fusion)
    del bad[("1", "psi", "psi")]
    bad[("1", "psi", "sigma")] = 1
    vs = validate(replace(f, fusion=bad))
    assert any(v.check == "unit_axiom" for v in vs)

    vs = validate(replace(f, dual={**f.dual, "psi": "sigma"}))
    assert any(v.check == "dual" for v in vs)


def test_validate_reports_unit_normalizations():
    f = builtin("fermion")
    vs = validate(replace(f, twist={**f.twist, "1": Fraction(1, 2)}))
    assert any(v.check == "twist" and v.witness == ("1",) for v in vs)
    vs = validate(replace(f, qdim={**f.qdim, "1": Cyclotomic.from_rational(-1)}))
    assert any(v.check == "qdim" for v in vs)


def _int_matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def test_fusion_matrices_commute_on_builtins():
    # Fusion matrices of a commutative associative ring commute pairwise.
    for key in BUILTIN_KEYS:
        data = builtin(key)
        mats = [data.fusion_matrix(lab) for lab in data.labels]
        for lab, a in zip(data.labels, mats):
            assert len(a) == data.rank and all(len(row) == data.rank for row in a)
            assert all(type(x) is int for row in a for x in row)
            assert a == tuple(tuple(data.n(lab, j, k) for k in data.labels) for j in data.labels)
        for a in mats:
            for b in mats:
                assert _int_matmul(a, b) == _int_matmul(b, a)


# --- s-matrix ------------------------------------------------------------------


def test_fermion_smatrix_frozen():
    data = builtin("fermion")
    s = compute_smatrix(data).data
    sqrt2 = zeta(8, 1) + zeta(8, 7)
    assert s[0, 0] == ONE
    assert s[0, 1] == ONE
    assert s[0, 2] == sqrt2
    assert s[1, 1] == ONE
    assert s[1, 2] == -sqrt2
    assert s[2, 2] == Cyclotomic.from_rational(0)
    rank, det = s.rank_det()
    assert rank == 3
    assert det == Cyclotomic.from_rational(-8)


def test_smatrix_symmetric_on_builtins():
    for key in BUILTIN_KEYS:
        s = compute_smatrix(builtin(key)).data
        assert s == s.transpose()


def test_s_squared_scalar_times_conjugation():
    expected_alpha = {
        "trivial": Cyclotomic.from_rational(1),
        "fermion": Cyclotomic.from_rational(4),
        "dirac": Cyclotomic.from_rational(4),
        "toric": Cyclotomic.from_rational(4),
        "fibonacci": Cyclotomic.from_rational(2) - zeta(5, 2) - zeta(5, 3),
    }
    for key in BUILTIN_KEYS:
        data = builtin(key)
        holds, alpha = check_s_squared(compute_smatrix(data), data)
        assert holds, key
        assert alpha == expected_alpha[key], key
        # alpha is the global dimension: sum of squared quantum dimensions
        total = Cyclotomic.from_rational(0)
        for lab in data.labels:
            total = total + data.qdim[lab] * data.qdim[lab]
        assert alpha == total, key


def test_fermion_smatrix_independent_of_sigma_twist():
    # The sigma row of the fermion s-matrix cancels the sigma twist exactly,
    # so every odd sixteenth gives the same matrix.
    f = builtin("fermion")
    base = compute_smatrix(f).data
    for num in range(1, 32, 2):
        varied = replace(f, twist={**f.twist, "sigma": Fraction(num, 16)})
        assert compute_smatrix(varied).data == base
        holds, alpha = check_s_squared(compute_smatrix(varied), varied)
        assert holds and alpha == Cyclotomic.from_rational(4)


def test_asymmetric_smatrix_is_rejected():
    nc = FusionData(
        name="noncomm",
        labels=("1", "a", "b"),
        unit="1",
        dual={"1": "1", "a": "b", "b": "a"},
        fusion={
            ("1", "1", "1"): 1,
            ("1", "a", "a"): 1,
            ("a", "1", "a"): 1,
            ("1", "b", "b"): 1,
            ("b", "1", "b"): 1,
            ("a", "b", "1"): 1,
            ("b", "a", "b"): 2,
        },
        twist={"1": Fraction(0), "a": Fraction(0), "b": Fraction(0)},
        qdim={lab: ONE for lab in ("1", "a", "b")},
    )
    with pytest.raises(InconsistentDataError):
        compute_smatrix(nc)


# --- iterated fusion -----------------------------------------------------------


def test_hom_unit_dim_frozen_values():
    f = builtin("fermion")
    assert hom_unit_dim(f, []) == 1
    assert hom_unit_dim(f, ["sigma"]) == 0
    assert hom_unit_dim(f, ["sigma", "sigma"]) == 1
    assert hom_unit_dim(f, ["sigma"] * 4) == 2
    assert hom_unit_dim(f, ["sigma"] * 6) == 4
    assert hom_unit_dim(f, ["psi", "sigma"]) == 0
    assert hom_unit_dim(f, ["psi", "psi"]) == 1


def test_hom_unit_dim_fibonacci_counts():
    # dim Hom(1, tau^n) follows the Fibonacci recursion.
    fib = builtin("fibonacci")
    dims = [hom_unit_dim(fib, ["tau"] * n) for n in range(9)]
    assert dims == [1, 0, 1, 1, 2, 3, 5, 8, 13]


def test_hom_unit_dim_cyclic_and_reversal_invariance():
    for key in BUILTIN_KEYS:
        data = builtin(key)
        chains = [
            chain
            for n in (1, 2, 3, 4)
            for chain in itertools.product(data.labels, repeat=n)
        ]
        for chain in chains:
            base = hom_unit_dim(data, chain)
            rotated = chain[1:] + chain[:1]
            assert hom_unit_dim(data, rotated) == base, (key, chain)
            reversed_dual = tuple(data.dual[x] for x in reversed(chain))
            assert hom_unit_dim(data, reversed_dual) == base, (key, chain)


# --- Deligne products ------------------------------------------------------------


def test_deligne_product_structure():
    a, b = builtin("fermion"), builtin("dirac")
    prod = deligne_product(a, b)
    assert prod.rank == a.rank * b.rank
    assert validate(prod) == []
    assert prod.unit == "(1,j0)"
    assert prod.twist["(psi,j1)"] == Fraction(1, 2) + Fraction(1, 8)
    assert prod.qdim["(sigma,j2)"] == a.qdim["sigma"] * b.qdim["j2"]


def test_deligne_product_commutes_up_to_transposition():
    a, b = builtin("fermion"), builtin("toric")
    ab, ba = deligne_product(a, b), deligne_product(b, a)

    def flip(lab: str) -> str:
        x, y = lab[1:-1].split(",")
        return f"({y},{x})"

    assert sorted(flip(lab) for lab in ab.labels) == sorted(ba.labels)
    for (i, j, k), v in ab.fusion.items():
        assert ba.fusion.get((flip(i), flip(j), flip(k)), 0) == v
    for lab in ab.labels:
        assert ba.twist[flip(lab)] == ab.twist[lab]


def test_deligne_product_smatrix_still_squares_to_conjugation():
    prod = deligne_product(builtin("fermion"), builtin("fermion"))
    holds, alpha = check_s_squared(compute_smatrix(prod), prod)
    assert holds
    assert alpha == Cyclotomic.from_rational(16)
