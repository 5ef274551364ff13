"""The library's records: read-only attributes, equality and hash by field,
and the validation errors of their constructors."""

from __future__ import annotations

from fractions import Fraction

import pytest

from spinmtc.catalog import builtin
from spinmtc.exactnum import compute_smatrix
from spinmtc.fusion import FormatError
from spinmtc.minimal import MinimalLabel, MinimalModelSpec
from spinmtc.spinfunctor import SpinSphereSpec, sphere_report
from spinmtc.verma import PBWMonomial, VermaError


def test_fusion_data_attributes_cannot_be_assigned():
    data = builtin("fermion")
    with pytest.raises(AttributeError):
        data.name = "other"
    assert data.rank == 3  # a cached property still computes and caches
    with pytest.raises(AttributeError):
        data.rank = 4
    assert (data.name, data.rank) == ("fermion", 3)


@pytest.mark.parametrize("record, field", [
    (sphere_report(SpinSphereSpec(builtin("fermion"), "psi", ("sigma", "sigma"))), "lambda_rank"),
    (MinimalModelSpec(3, 5), "p"),
    (PBWMonomial(), "g_part"),
    (SpinSphereSpec(builtin("fermion"), "psi", ("sigma",)), "vminus"),
    (compute_smatrix(builtin("fermion")), "data"),
    (MinimalLabel("NS", 1, 1, Fraction(0)), "h"),
])
def test_records_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_pbw_monomial_hash_is_that_of_its_parts():
    for mon in (PBWMonomial(), PBWMonomial((Fraction(-3, 2),), (-2, -2)),
                PBWMonomial((Fraction(-5, 2), Fraction(-1, 2)), (-1, -3))):
        assert hash(mon) == hash((mon.g_part, mon.l_part))
        assert mon == PBWMonomial(mon.g_part, mon.l_part)
        assert {mon: 1}[PBWMonomial(mon.g_part, mon.l_part)] == 1


def test_records_compare_by_value():
    assert MinimalModelSpec(3, 5) == MinimalModelSpec(3, 5) != MinimalModelSpec(3, 7)
    assert hash(MinimalModelSpec(3, 5)) == hash(MinimalModelSpec(3, 5))
    assert builtin("fermion") == builtin("fermion") != builtin("dirac")
    assert MinimalModelSpec(3, 5) != (3, 5)


_F = Fraction
_REJECTED = [
    (lambda: MinimalModelSpec("3", 5), ValueError, "p and q must be integers"),
    (lambda: MinimalModelSpec(1, 5), ValueError, r"p and q must be at least 2, got \(1, 5\)"),
    (lambda: MinimalModelSpec(3, 4), ValueError, r"p and q must have equal parity, got \(3, 4\)"),
    (lambda: MinimalModelSpec(3, 9), ValueError, r"gcd\(p, \(p-q\)/2\) must be 1, got \(3, 9\)"),
    (lambda: SpinSphereSpec(builtin("fermion"), "psi", ()), FormatError,
     "a sphere report needs at least one puncture"),
    (lambda: SpinSphereSpec(builtin("fermion"), "psi", ("sigma", "zz")), FormatError,
     "unknown puncture label 'zz'"),
    (lambda: PBWMonomial((_F(-1),)), VermaError, r"bad G index Fraction\(-1, 1\) in monomial"),
    (lambda: PBWMonomial((_F(1, 2),)), VermaError, r"bad G index Fraction\(1, 2\) in monomial"),
    (lambda: PBWMonomial((_F(-3, 2), _F(-5, 2))), VermaError,
     r"G indices must strictly increase, got \(Fraction\(-3, 2\), Fraction\(-5, 2\)\)"),
    (lambda: PBWMonomial((), (0,)), VermaError, "bad L index 0 in monomial"),
    (lambda: PBWMonomial((), (-2, -1)), VermaError, r"L indices must weakly decrease, got \(-2, -1\)"),
]


@pytest.mark.parametrize("make, error, message", _REJECTED)
def test_constructors_reject_as_before(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()
