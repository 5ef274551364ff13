"""Label tables for the two-parameter family of superconformal models."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinmtc.cyclotomic import zeta
from spinmtc.minimal import (
    MinimalModelSpec,
    central_charge,
    conformal_weight,
    count_pairs,
    enumerate_labels,
    model_to_dict,
    sector_counts,
    valid_pairs,
    validate_pq,
)


# --- parameter validation -------------------------------------------------------


def test_validate_pq_accepts_known_good_pairs():
    for p, q in [(2, 4), (3, 5), (3, 7), (5, 7), (4, 6), (2, 8), (4, 10), (6, 8)]:
        assert validate_pq(p, q) is None, (p, q)
        MinimalModelSpec(p, q)


def test_validate_pq_rejects_with_reasons():
    assert "at least 2" in validate_pq(1, 3)
    assert "equal parity" in validate_pq(2, 3)
    assert "gcd" in validate_pq(3, 3)
    assert "gcd" in validate_pq(4, 4)
    assert "gcd" in validate_pq(4, 8)
    assert "gcd" in validate_pq(2, 6)
    with pytest.raises(ValueError):
        MinimalModelSpec(4, 8)


def test_valid_pairs_frozen_prefix():
    pairs = [(m.p, m.q) for m in valid_pairs(50)]
    assert pairs == [
        (2, 4),
        (3, 5),
        (2, 8),
        (3, 7),
        (2, 12),
        (4, 6),
        (2, 16),
        (3, 11),
        (5, 7),
        (3, 13),
        (2, 20),
        (4, 10),
        (5, 9),
        (2, 24),
        (6, 8),
    ]


def test_valid_pairs_stream_in_sorted_order():
    # the reference: every pair checked, then sorted by (p*q, p)
    def reference(cap):
        pairs = [(p, q) for p in range(2, cap + 1) for q in range(p, cap // p + 1) if validate_pq(p, q) is None]
        return sorted(pairs, key=lambda pq: (pq[0] * pq[1], pq[0]))

    for cap in [*range(4, 301), 2000]:
        want = reference(cap)
        assert [(m.p, m.q) for m in valid_pairs(cap)] == want, cap
        assert count_pairs(cap) == len(want), cap


def test_valid_pairs_census_sizes():
    assert len(list(valid_pairs(120))) == 55
    assert all(m.p * m.q <= 120 for m in valid_pairs(120))
    assert all(m.p <= m.q for m in valid_pairs(120))


# --- central charge and weights ---------------------------------------------------


def test_central_charges_frozen():
    expected = {
        (2, 4): Fraction(0),
        (3, 5): Fraction(7, 10),
        (3, 7): Fraction(-11, 14),
        (4, 6): Fraction(1),
        (5, 7): Fraction(81, 70),
        (2, 8): Fraction(-21, 4),
    }
    for (p, q), c in expected.items():
        assert central_charge(MinimalModelSpec(p, q)) == c, (p, q)


def test_tricritical_weights_frozen():
    # The (3,5) model is the classic c = 7/10 example; its four weights are
    # textbook values.
    labels = enumerate_labels(MinimalModelSpec(3, 5))
    table = {(lab.sector, lab.r, lab.s): lab.h for lab in labels}
    assert table == {
        ("NS", 1, 1): Fraction(0),
        ("NS", 1, 3): Fraction(1, 10),
        ("R", 1, 2): Fraction(3, 80),
        ("R", 1, 4): Fraction(7, 16),
    }
    assert all(lab.split is True for lab in labels if lab.sector == "R")


def test_smallest_model_frozen():
    labels = enumerate_labels(MinimalModelSpec(2, 4))
    assert [(lab.sector, lab.r, lab.s, lab.h) for lab in labels] == [
        ("NS", 1, 1, Fraction(0)),
        ("R", 1, 2, Fraction(0)),
    ]
    # c = 0 makes the Ramond ground state sit exactly at c/24 = 0.
    assert labels[1].split is False


def test_negative_charge_model_frozen():
    labels = enumerate_labels(MinimalModelSpec(2, 8))
    table = {(lab.sector, lab.r, lab.s): lab.h for lab in labels}
    assert table == {
        ("NS", 1, 1): Fraction(0),
        ("NS", 1, 3): Fraction(-1, 4),
        ("R", 1, 2): Fraction(-3, 32),
        ("R", 1, 4): Fraction(-7, 32),
    }


def test_weight_grid_symmetry_exact():
    for p, q in [(3, 5), (4, 6), (5, 7), (2, 12)]:
        spec = MinimalModelSpec(p, q)
        for r in range(1, p):
            for s in range(1, q):
                assert conformal_weight(spec, r, s) == conformal_weight(
                    spec, p - r, q - s
                ), (p, q, r, s)


def test_vacuum_weight_is_zero_everywhere():
    for spec in valid_pairs(120):
        assert conformal_weight(spec, 1, 1) == 0


def test_conformal_weight_rejects_off_grid():
    spec = MinimalModelSpec(3, 5)
    for r, s in [(0, 1), (3, 1), (1, 0), (1, 5)]:
        with pytest.raises(ValueError):
            conformal_weight(spec, r, s)


# --- enumeration -----------------------------------------------------------------


def test_counts_match_formula_census():
    for spec in valid_pairs(200):
        ns, rr = sector_counts(spec)
        g = (spec.p - 1) * (spec.q - 1)
        if spec.p % 2 == 1:
            assert ns == rr == g // 4, (spec.p, spec.q)
        else:
            assert ns == rr == (g + 1) // 4, (spec.p, spec.q)
        labels = enumerate_labels(spec)
        assert sum(1 for lab in labels if lab.sector == "NS") == ns
        assert sum(1 for lab in labels if lab.sector == "R") == rr


def test_representatives_are_canonical_and_unique():
    for spec in [MinimalModelSpec(5, 7), MinimalModelSpec(4, 10)]:
        labels = enumerate_labels(spec)
        seen = set()
        for lab in labels:
            mirror = (spec.p - lab.r, spec.q - lab.s)
            assert (lab.r, lab.s) <= mirror
            assert (lab.r, lab.s) not in seen
            seen.add((lab.r, lab.s))
            seen.add(mirror)


def test_split_flag_equals_parity_rule():
    for spec in valid_pairs(200):
        expected = ((spec.p - 1) * (spec.q - 1)) % 2 == 0
        for lab in enumerate_labels(spec):
            if lab.sector == "R":
                assert lab.split is expected, (spec.p, spec.q, lab)
            else:
                assert lab.split is None


def test_even_case_fixed_point_is_ramond():
    for spec in valid_pairs(200):
        if spec.p % 2 == 0:
            fixed = next(
                lab
                for lab in enumerate_labels(spec)
                if (lab.r, lab.s) == (spec.p // 2, spec.q // 2)
            )
            assert fixed.sector == "R"


def test_twists_are_constructible_roots_of_unity():
    for spec in valid_pairs(120):
        for lab in enumerate_labels(spec):
            t = lab.h % 1
            z = zeta(t.denominator, t.numerator)
            assert z.conductor >= 1


# --- serialization -----------------------------------------------------------------


def test_model_to_dict_shape():
    spec = MinimalModelSpec(3, 5)
    d = model_to_dict(spec, enumerate_labels(spec))
    assert d["p"] == 3 and d["q"] == 5
    assert d["c"] == "7/10"
    assert d["ns"] == [
        {"r": 1, "s": 1, "h": "0/1"},
        {"r": 1, "s": 3, "h": "1/10"},
    ]
    assert d["r"] == [
        {"r": 1, "s": 2, "h": "3/80", "split": True},
        {"r": 1, "s": 4, "h": "7/16", "split": True},
    ]


# --- randomized grid properties ------------------------------------------------------


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_weight_formula_matches_float_evaluation(data):
    specs = list(valid_pairs(200))
    spec = data.draw(st.sampled_from(specs))
    r = data.draw(st.integers(1, spec.p - 1))
    s = data.draw(st.integers(1, spec.q - 1))
    h = conformal_weight(spec, r, s)
    p, q = spec.p, spec.q
    approx = ((r * q - s * p) ** 2 - (p - q) ** 2) / (8.0 * p * q)
    if (r - s) % 2 == 1:
        approx += 1.0 / 16.0
    assert abs(float(h) - approx) < 1e-9
