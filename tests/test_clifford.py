"""Odd-generator detection, NS/R classification, and s-matrix block checks."""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from spinmtc.catalog import BUILTIN_KEYS, builtin
from spinmtc.clifford import (
    CHECK_NAMES,
    CliffordAlgebraClass,
    LabelClassification,
    classify_labels,
    clifford_structure,
    find_vminus,
    involution_from_vminus,
    morita_parity,
    verify_block_structure,
)
from spinmtc.exactnum import CycMatrix, _prime_root
from spinmtc.fusion import InconsistentDataError, SMatrix, compute_smatrix, deligne_product

CLIFFORD_BUILTINS = ("fermion", "dirac", "toric")


# --- odd generator detection --------------------------------------------------


def test_find_vminus_on_builtins():
    assert find_vminus(builtin("trivial")) == []
    assert find_vminus(builtin("fermion")) == ["psi"]
    assert find_vminus(builtin("dirac")) == ["j2"]
    assert find_vminus(builtin("toric")) == ["f"]
    assert find_vminus(builtin("fibonacci")) == []


def test_find_vminus_on_products():
    ff = deligne_product(builtin("fermion"), builtin("fermion"))
    assert find_vminus(ff) == ["(1,psi)", "(psi,1)"]
    fd = deligne_product(builtin("fermion"), builtin("dirac"))
    assert find_vminus(fd) == ["(1,j2)", "(psi,j0)"]
    ft = deligne_product(builtin("fermion"), builtin("toric"))
    assert find_vminus(ft) == ["(1,f)", "(psi,1)", "(psi,e)", "(psi,m)"]


def test_clifford_structure_rejects_non_candidates():
    with pytest.raises(InconsistentDataError):
        clifford_structure(builtin("fermion"), "sigma")
    with pytest.raises(InconsistentDataError):
        clifford_structure(builtin("fibonacci"), "tau")


# --- involution and zeta --------------------------------------------------------


def test_involution_is_multiplication_by_vminus():
    d = builtin("dirac")
    inv = involution_from_vminus(d, "j2")
    assert inv == {"j0": "j2", "j1": "j3", "j2": "j0", "j3": "j1"}
    t = builtin("toric")
    assert involution_from_vminus(t, "f") == {"1": "f", "e": "m", "m": "e", "f": "1"}


def test_zeta_values_on_builtins():
    assert clifford_structure(builtin("fermion"), "psi").zeta == {"1": 1, "psi": 1, "sigma": -1}
    assert clifford_structure(builtin("dirac"), "j2").zeta == {"j0": 1, "j1": -1, "j2": 1, "j3": -1}
    assert clifford_structure(builtin("toric"), "f").zeta == {"1": 1, "e": -1, "m": -1, "f": 1}


def test_zeta_multiplicative_on_builtins():
    for key in CLIFFORD_BUILTINS:
        data = builtin(key)
        (vminus,) = find_vminus(data)
        zeta = clifford_structure(data, vminus).zeta
        assert set(zeta.values()) <= {1, -1}
        for (i, j, k), v in data.fusion.items():
            if v:
                assert zeta[k] == zeta[i] * zeta[j]


def test_zeta_rejects_non_sign_twist_ratio():
    d = builtin("dirac")
    corrupted = replace(d, twist={**d.twist, "j1": Fraction(1, 4)})
    with pytest.raises(InconsistentDataError, match="not a sign"):
        classify_labels(corrupted, "j2")


def test_zeta_multiplicativity_failure_is_detected():
    dd = deligne_product(builtin("dirac"), builtin("dirac"))
    corrupted = replace(
        dd, twist={**dd.twist, "(j1,j1)": dd.twist["(j1,j1)"] + Fraction(1, 2)}
    )
    with pytest.raises(InconsistentDataError, match="not multiplicative"):
        classify_labels(corrupted, "(j0,j2)")


def test_declared_square_root_case_is_reported_not_classified():
    sqrt = replace(builtin("fermion"), sigma_vv=1)
    st = clifford_structure(sqrt, "psi")
    assert st.sigma_vv == 1
    assert not st.is_clifford
    with pytest.raises(InconsistentDataError, match="self-braiding"):
        classify_labels(sqrt, "psi")


# --- classification ---------------------------------------------------------------


def test_fermion_classification_frozen():
    cls = classify_labels(builtin("fermion"), "psi")
    assert cls.ns_plus == ("1",)
    assert cls.ns_minus == ("psi",)
    assert cls.r_plus == ()
    assert cls.r_minus == ()
    assert cls.r_zero == ("sigma",)


def test_dirac_and_toric_classification_frozen():
    cls = classify_labels(builtin("dirac"), "j2")
    assert cls.to_dict() == {
        "ns_plus": ["j0"],
        "ns_minus": ["j2"],
        "r_plus": ["j1"],
        "r_minus": ["j3"],
        "r_zero": [],
    }
    cls = classify_labels(builtin("toric"), "f")
    assert cls.to_dict() == {
        "ns_plus": ["1"],
        "ns_minus": ["f"],
        "r_plus": ["e"],
        "r_minus": ["m"],
        "r_zero": [],
    }


def test_minus_lists_are_involution_images_of_plus_lists():
    cases = [(builtin(k), find_vminus(builtin(k))[0]) for k in CLIFFORD_BUILTINS]
    ff = deligne_product(builtin("fermion"), builtin("fermion"))
    cases += [(ff, vm) for vm in find_vminus(ff)]
    for data, vminus in cases:
        inv = involution_from_vminus(data, vminus)
        cls = classify_labels(data, vminus)
        assert tuple(inv[x] for x in cls.ns_plus) == cls.ns_minus
        assert tuple(inv[x] for x in cls.r_plus) == cls.r_minus
        for lab in cls.r_zero:
            assert inv[lab] == lab
        all_labels = cls.ns_plus + cls.ns_minus + cls.r_plus + cls.r_minus + cls.r_zero
        assert sorted(all_labels) == sorted(data.labels)


def test_count_identity_on_all_builtin_classifications():
    for key in CLIFFORD_BUILTINS:
        data = builtin(key)
        for vminus in find_vminus(data):
            cls = classify_labels(data, vminus)
            assert len(cls.r_plus) + len(cls.r_zero) == len(cls.ns_plus), key


# --- block structure ------------------------------------------------------------


def test_block_checks_pass_on_builtins():
    for key in CLIFFORD_BUILTINS:
        data = builtin(key)
        (vminus,) = find_vminus(data)
        cls = classify_labels(data, vminus)
        report = verify_block_structure(data, cls, compute_smatrix(data))
        assert tuple(report.checks) == CHECK_NAMES
        assert report.all_pass, (key, [n for n, r in report.checks.items() if not r.ok])


def test_block_checks_pass_on_products_with_every_vminus():
    pairs = [("fermion", "fermion"), ("fermion", "dirac"), ("fermion", "toric")]
    for a, b in pairs:
        prod = deligne_product(builtin(a), builtin(b))
        s = compute_smatrix(prod)
        candidates = find_vminus(prod)
        assert candidates
        for vminus in candidates:
            cls = classify_labels(prod, vminus)
            report = verify_block_structure(prod, cls, s)
            assert report.all_pass, (a, b, vminus)


def test_product_classification_sizes_frozen():
    fd = deligne_product(builtin("fermion"), builtin("dirac"))
    sizes = {}
    for vminus in find_vminus(fd):
        cls = classify_labels(fd, vminus)
        sizes[vminus] = (
            len(cls.ns_plus),
            len(cls.r_plus),
            len(cls.r_zero),
        )
    assert sizes == {"(1,j2)": (3, 3, 0), "(psi,j0)": (4, 0, 4)}


def test_block_shapes_follow_the_classification():
    data = builtin("fermion")
    cls = classify_labels(data, "psi")
    report = verify_block_structure(data, cls, compute_smatrix(data))
    np_, rp, rz = len(cls.ns_plus), len(cls.r_plus), len(cls.r_zero)
    assert (report.block_a.rows, report.block_a.cols) == (np_, np_)
    assert (report.block_b.rows, report.block_b.cols) == (np_, rp)
    assert (report.block_c.rows, report.block_c.cols) == (rp, rp)
    assert (report.block_d.rows, report.block_d.cols) == (np_, rz)


def test_corrupted_twist_breaks_block_checks_not_the_code():
    # Shifting one dirac twist by half turns every label NS; the partition is
    # still computable but the counting checks must fail.
    d = builtin("dirac")
    corrupted = replace(d, twist={**d.twist, "j3": Fraction(5, 8)})
    cls = classify_labels(corrupted, "j2")
    assert cls.to_dict() == {
        "ns_plus": ["j0", "j1"],
        "ns_minus": ["j2", "j3"],
        "r_plus": [],
        "r_minus": [],
        "r_zero": [],
    }
    report = verify_block_structure(corrupted, cls, compute_smatrix(corrupted))
    failing = [name for name, r in report.checks.items() if not r.ok]
    assert failing == ["bd_rank", "count_identity"]
    assert not report.all_pass
    assert report.checks["count_identity"].witness is not None


def _refuse_rank_det(self):
    raise AssertionError("rank_det reached on a block of full rank")


# the builtins, their pairwise Deligne products and the benchmark's three
# products, each with every odd generator it has, and fermion with sigma's
# twist at 1/8008, whose conductor 8008 is near the cap
CERTIFIED = (
    [(key,) for key in BUILTIN_KEYS]
    + list(itertools.product(BUILTIN_KEYS, repeat=2))
    + [("dirac",) * 3, ("dirac", "fermion", "fermion"), ("fibonacci", "fermion", "fermion")]
    + [("fermion_sigma_8008",)]
)


@pytest.mark.parametrize("keys", CERTIFIED, ids="x".join)
def test_valid_blocks_are_certified_without_rank_det(monkeypatch, keys):
    if keys == ("fermion_sigma_8008",):
        f = builtin("fermion")
        data = replace(f, twist={**f.twist, "sigma": Fraction(1, 8008)})
    else:
        data = builtin(keys[0])
        for key in keys[1:]:
            data = deligne_product(data, builtin(key))
    s = compute_smatrix(data)
    monkeypatch.setattr(CycMatrix, "rank_det", _refuse_rank_det)
    for vminus in find_vminus(data):
        report = verify_block_structure(data, classify_labels(data, vminus), s)
        assert report.all_pass, (keys, vminus)


def _checks_with_entry(data, cls, label_i, label_j, value):
    """Every block check's (ok, witness) on the s-matrix with one entry replaced."""
    rows = [list(row) for row in compute_smatrix(data).data]
    rows[data.labels.index(label_i)][data.labels.index(label_j)] = value
    report = verify_block_structure(data, cls, SMatrix(CycMatrix(rows), data.name))
    return {name: (r.ok, r.witness) for name, r in report.checks.items()}


def _fermion_squared():
    return deligne_product(builtin("fermion"), builtin("fermion"))


# (category, odd generator, corrupted entry, new value, the checks that fail)
ONE_ENTRY_BREAKS = {
    "involution_rows": ("fermion", "psi", ("psi", "1"), 2, {
        "involution_rows": ("1", "1"), "block_pattern": ("NS-", "NS+")}),
    "nonsplit_row_vanishing": ("fermion", "psi", ("sigma", "sigma"), 1, {
        "involution_rows": ("sigma", "sigma"), "nonsplit_row_vanishing": ("sigma", "sigma"),
        "block_pattern": ("R0", "R0")}),
    "block_pattern": ("fermion", "psi", ("sigma", "1"), 0, {
        "block_pattern": ("R0", "NS+")}),
    "diagonal_blocks-not-symmetric": ("fermion^2", "(psi,1)", ("(1,1)", "(1,psi)"), 2, {
        "involution_rows": ("(1,1)", "(1,psi)"), "block_pattern": ("NS+", "NS-"),
        "diagonal_blocks": ("A", "not symmetric")}),
    "diagonal_blocks-singular": ("dirac", "j2", ("j1", "j1"), 0, {
        "involution_rows": ("j1", "j1"), "block_pattern": ("R+", "R-"),
        "diagonal_blocks": ("C", "singular")}),
    "bd_rank": ("fermion", "psi", ("1", "sigma"), 0, {
        "involution_rows": ("1", "sigma"), "block_pattern": ("NS-", "R0"),
        "bd_rank": ("rank", 0, "expected", 1)}),
}


@pytest.mark.parametrize("case", list(ONE_ENTRY_BREAKS))
def test_one_corrupted_entry_fails_its_block_check(case):
    key, vminus, (i, j), value, failing = ONE_ENTRY_BREAKS[case]
    data = _fermion_squared() if key == "fermion^2" else builtin(key)
    got = _checks_with_entry(data, classify_labels(data, vminus), i, j, value)
    want = {name: (name not in failing, failing.get(name)) for name in CHECK_NAMES}
    assert got == want


def test_an_entry_equal_to_the_prime_keeps_its_verdict(monkeypatch):
    # An entry equal to the prime p of the modular rank makes A = [[p]], or
    # D = [[p]], vanish mod p but not over Q(zeta_N); the exact rank_det runs
    # and the block stays nonsingular, or of full rank.
    data = builtin("fermion")
    cls = classify_labels(data, "psi")
    p = _prime_root(compute_smatrix(data).data.conductor)[0]
    calls = []
    exact = CycMatrix.rank_det
    monkeypatch.setattr(CycMatrix, "rank_det", lambda self: calls.append(self) or exact(self))
    passing = {name: (True, None) for name in CHECK_NAMES}
    assert _checks_with_entry(data, cls, "1", "1", p) == {
        **passing, "involution_rows": (False, ("1", "1")), "block_pattern": (False, ("NS+", "NS-"))}
    assert _checks_with_entry(data, cls, "1", "sigma", p) == {
        **passing, "involution_rows": (False, ("1", "sigma")), "block_pattern": (False, ("NS-", "R0"))}
    assert [(m.rows, m.cols) for m in calls] == [(1, 1), (1, 1)]


def test_one_corrupted_entry_fails_btd_zero():
    # No builtin or pairwise product has R+ and R0 labels at once, so the
    # partition is hand-built: its only NS+ row, (sigma,1), vanishes on the R0
    # column (sigma,sigma), and B^T D = 0 until that entry is made nonzero.
    data = _fermion_squared()
    cls = LabelClassification(
        ns_plus=("(sigma,1)",),
        ns_minus=("(sigma,psi)",),
        r_plus=("(1,1)", "(1,psi)", "(1,sigma)"),
        r_minus=("(psi,1)", "(psi,psi)", "(psi,sigma)"),
        r_zero=("(sigma,sigma)",),
    )
    before = _checks_with_entry(data, cls, "(sigma,1)", "(sigma,sigma)", 0)
    after = _checks_with_entry(data, cls, "(sigma,1)", "(sigma,sigma)", 1)
    assert before == {
        "involution_rows": (False, ("(1,1)", "(1,1)")),
        "nonsplit_row_vanishing": (False, ("(sigma,sigma)", "(1,1)")),
        "block_pattern": (False, ("NS+", "R-")),
        "diagonal_blocks": (False, ("A", "singular")),
        "bd_rank": (True, None),
        "btd_zero": (True, None),
        "count_identity": (False, (4, 1)),
    }
    assert after == {**before, "btd_zero": (False, ("(1,1)", "(sigma,sigma)"))}


def test_block_shapes_that_differ_from_the_pattern_fail_it():
    # Hand-built partitions whose paired lists differ in length: the block the
    # pattern names has another shape than the block it is compared with.
    data = builtin("fermion")
    s = compute_smatrix(data)
    uneven_r = LabelClassification(("1",), ("psi",), ("sigma",), (), ("sigma",))
    uneven_ns = LabelClassification(("1", "psi"), ("psi",), (), (), ("sigma",))
    checks = {name: (r.ok, r.witness) for name, r in verify_block_structure(data, uneven_r, s).checks.items()}
    assert checks == {
        "involution_rows": (True, None), "nonsplit_row_vanishing": (True, None),
        "block_pattern": (False, ("NS+", "R-")), "diagonal_blocks": (False, ("C", "singular")),
        "bd_rank": (True, None), "btd_zero": (False, ("sigma", "sigma")), "count_identity": (False, (2, 1)),
    }
    checks = {name: (r.ok, r.witness) for name, r in verify_block_structure(data, uneven_ns, s).checks.items()}
    assert checks == {
        "involution_rows": (True, None), "nonsplit_row_vanishing": (True, None),
        "block_pattern": (False, ("NS+", "NS-")), "diagonal_blocks": (False, ("A", "singular")),
        "bd_rank": (False, ("rank", 1, "expected", 2)), "btd_zero": (True, None), "count_identity": (False, (1, 2)),
    }


# --- Clifford algebra bookkeeping ------------------------------------------------


def test_clifford_algebra_class_and_parity():
    assert CliffordAlgebraClass(0).parity == 0
    assert CliffordAlgebraClass(3).parity == 1
    combined = morita_parity([CliffordAlgebraClass(3), CliffordAlgebraClass(2)])
    assert combined.generators == 5
    assert combined.parity == 1


def test_morita_parity_is_a_monoid_homomorphism():
    for xs, ys in itertools.product(
        [[], [CliffordAlgebraClass(1)], [CliffordAlgebraClass(2), CliffordAlgebraClass(3)]],
        repeat=2,
    ):
        whole = morita_parity(xs + ys)
        left, right = morita_parity(xs), morita_parity(ys)
        assert whole.parity == (left.parity + right.parity) % 2
        assert whole.generators == left.generators + right.generators
