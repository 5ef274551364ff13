"""Spin surface state-space dimensions from a classified category."""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

import spinmtc.spinfunctor
from spinmtc.catalog import builtin
from spinmtc.clifford import classify_labels, find_vminus
from spinmtc.fusion import FormatError, InconsistentDataError, deligne_product, hom_unit_dim
from spinmtc.spinfunctor import (
    EpsilonTable,
    SpinSphereSpec,
    sphere_epsilon_table,
    sphere_report,
    torus_dims,
)

CLIFFORD_BUILTINS = ("fermion", "dirac", "toric")


def _vminus(key: str) -> str:
    (vm,) = find_vminus(builtin(key))
    return vm


# --- spheres -----------------------------------------------------------------


def test_fermion_two_sigma_sphere_frozen():
    rep = sphere_report(SpinSphereSpec(builtin("fermion"), "psi", ("sigma", "sigma")))
    assert rep.total_dim == 4
    assert rep.component_dim == 2
    assert rep.lambda_rank == 2
    assert rep.lambda_class.generators == 2
    assert rep.lambda_class.parity == 0
    assert all(v == 1 for v in rep.epsilon_table.values())


def test_fermion_four_sigma_sphere_frozen():
    rep = sphere_report(SpinSphereSpec(builtin("fermion"), "psi", ("sigma",) * 4))
    assert rep.total_dim == 32
    assert rep.component_dim == 4
    assert rep.lambda_class.generators == 4


def test_small_fermion_spheres_frozen():
    f = builtin("fermion")
    cases = {
        ("1",): (1, 1, 0),
        ("psi",): (1, 1, 0),
        ("sigma",): (0, 0, 1),
        ("1", "psi"): (2, 1, 0),
        ("psi", "sigma", "sigma"): (8, 2, 2),
    }
    for labels, (total, comp, lam) in cases.items():
        rep = sphere_report(SpinSphereSpec(f, "psi", labels))
        assert (rep.total_dim, rep.component_dim, rep.lambda_rank) == (
            total,
            comp,
            lam,
        ), labels


def test_epsilon_table_mixing_frozen():
    rep = sphere_report(SpinSphereSpec(builtin("fermion"), "psi", ("1", "psi")))
    assert rep.to_dict()["epsilon_table"] == {"00": 0, "01": 1, "10": 1, "11": 0}


def test_dirac_spheres_frozen():
    d = builtin("dirac")
    for labels, total in {
        ("j1", "j3"): 2,
        ("j1", "j1"): 2,
        ("j2", "j2"): 2,
        ("j1", "j1", "j1", "j1"): 8,
    }.items():
        rep = sphere_report(SpinSphereSpec(d, "j2", labels))
        assert rep.total_dim == total, labels
        assert rep.lambda_rank == 0


def test_sphere_spec_validation():
    f = builtin("fermion")
    with pytest.raises(FormatError):
        SpinSphereSpec(f, "psi", ())
    with pytest.raises(FormatError):
        SpinSphereSpec(f, "psi", ("sigma", "missing"))
    with pytest.raises(InconsistentDataError):
        sphere_report(SpinSphereSpec(f, "sigma", ("sigma",)))


def test_square_root_structure_is_refused():
    sqrt = replace(builtin("fermion"), sigma_vv=1)
    with pytest.raises(InconsistentDataError):
        sphere_report(SpinSphereSpec(sqrt, "psi", ("sigma", "sigma")))
    with pytest.raises(InconsistentDataError):
        torus_dims(sqrt, "psi")


# --- the flip and parity laws ---------------------------------------------------


def _all_chains(data, max_len):
    for n in range(1, max_len + 1):
        yield from itertools.product(data.labels, repeat=n)


def _tables_and_brute_force(brute_force):
    """(data, vminus, chain, table) for builtin chains up to length 3 and product
    chains up to length 2, every admissible odd generator, each table checked
    against the 2^n brute-force loop."""
    cases = [(builtin(key), 3) for key in CLIFFORD_BUILTINS]
    cases += [
        (deligne_product(builtin("fermion"), builtin("fermion")), 2),
        (deligne_product(builtin("dirac"), builtin("fermion")), 2),
    ]
    for data, max_len in cases:
        vminus = find_vminus(data)
        assert vminus, data.name
        for vm in vminus:
            for chain in _all_chains(data, max_len):
                table = sphere_epsilon_table(SpinSphereSpec(data, vm, chain))
                assert table == brute_force(data, vm, chain), (data.name, vm, chain)
                yield data, vm, chain, table


def test_epsilon_flip_law_all_builtin_chains(brute_force_epsilon_table):
    # Flipping two coordinates together moves one unit of the odd generator
    # across the chain and cannot change any entry.
    for data, vm, chain, table in _tables_and_brute_force(brute_force_epsilon_table):
        n = len(chain)
        for eps in table:
            for i in range(n):
                for j in range(i + 1, n):
                    flipped = list(eps)
                    flipped[i] ^= 1
                    flipped[j] ^= 1
                    assert table[tuple(flipped)] == table[eps], (data.name, vm, chain, eps)


def test_epsilon_table_fuses_two_chains_whatever_the_puncture_count(monkeypatch):
    calls = []

    def counting(data, chain):
        calls.append(tuple(chain))
        return hom_unit_dim(data, chain)

    monkeypatch.setattr(spinmtc.spinfunctor, "hom_unit_dim", counting)
    for n in range(1, 13):
        calls.clear()
        table = sphere_epsilon_table(SpinSphereSpec(builtin("fermion"), "psi", ("sigma",) * n))
        assert len(table) == 2 ** n
        assert list(table) == sorted(table)
        assert len(calls) == 2, n


def test_epsilon_table_is_a_parity_law_mapping(brute_force_epsilon_table):
    data, chain = builtin("fermion"), ("sigma", "psi", "sigma", "1")
    table = sphere_epsilon_table(SpinSphereSpec(data, "psi", chain))
    assert isinstance(table, EpsilonTable)
    assert len(table) == 16
    assert list(table) == sorted(itertools.product((0, 1), repeat=4))
    assert table == brute_force_epsilon_table(data, "psi", chain)
    assert list(table.rows()) == [("".join(map(str, k)), v) for k, v in table.items()]
    for key in [(0, 1, 0), (0, 1, 0, 1, 0), (0, 2, 0, 0), (0, -1, 0, 0), [0, 1, 0, 1], "0101", 5]:
        assert key not in table
        with pytest.raises(KeyError):
            table[key]
    odd = EpsilonTable(3, 7, 5)
    assert dict(odd) == {k: 5 if sum(k) % 2 else 7 for k in itertools.product((0, 1), repeat=3)}


def test_noncommuting_odd_generator_is_inconsistent(skew, brute_force_epsilon_table):
    # skew passes every other check on the sphere path, yet its entries are
    # not a function of the parity: two flips change 000 into 011.  The
    # premise check names the puncture and label where the law fails.
    brute = brute_force_epsilon_table(skew, "v", ("a", "b", "v"))
    assert (brute[(0, 0, 0)], brute[(0, 1, 1)]) == (0, 1)
    with pytest.raises(InconsistentDataError, match="puncture 'a' and label 'a'"):
        sphere_report(SpinSphereSpec(skew, "v", ("a", "b", "v")))
    with pytest.raises(InconsistentDataError, match="puncture 'b'"):
        sphere_epsilon_table(SpinSphereSpec(skew, "v", ("b",)))


def test_odd_generator_not_commuting_on_the_right_is_inconsistent(
    skew_right, brute_force_epsilon_table
):
    brute = brute_force_epsilon_table(skew_right, "v", ("a", "a"))
    assert (brute[(0, 1)], brute[(1, 0)]) == (0, 1)
    with pytest.raises(InconsistentDataError, match="puncture 'a' and label '1'"):
        sphere_report(SpinSphereSpec(skew_right, "v", ("a", "a")))


def test_parity_vanishing_all_builtin_chains():
    # A chain with an odd number of Ramond labels pairs to zero everywhere.
    for key in CLIFFORD_BUILTINS:
        data = builtin(key)
        vm = _vminus(key)
        cls = classify_labels(data, vm)
        ramond = set(cls.r_plus) | set(cls.r_minus) | set(cls.r_zero)
        for chain in _all_chains(data, 3):
            if sum(1 for x in chain if x in ramond) % 2 == 1:
                rep = sphere_report(SpinSphereSpec(data, vm, chain))
                assert rep.total_dim == 0, (key, chain)
                assert all(v == 0 for v in rep.epsilon_table.values())


def test_equal_split_divisibility():
    for key in CLIFFORD_BUILTINS:
        data = builtin(key)
        vm = _vminus(key)
        for chain in _all_chains(data, 3):
            rep = sphere_report(SpinSphereSpec(data, vm, chain))
            blocks = 2 ** (len(chain) - 1)
            assert rep.total_dim == rep.component_dim * blocks, (key, chain)


# --- tori ------------------------------------------------------------------------


def test_torus_dimensions_frozen():
    assert torus_dims(builtin("fermion"), "psi").dims == {
        "AA": 1,
        "AP": 1,
        "PA": 1,
        "PP": 0,
    }
    assert torus_dims(builtin("dirac"), "j2").dims == {
        "AA": 1,
        "AP": 1,
        "PA": 1,
        "PP": 1,
    }
    assert torus_dims(builtin("toric"), "f").dims == {
        "AA": 1,
        "AP": 1,
        "PA": 1,
        "PP": 1,
    }


def test_torus_modular_consistency():
    for key in CLIFFORD_BUILTINS:
        data = builtin(key)
        for vm in find_vminus(data):
            dims = torus_dims(data, vm).dims
            assert dims["AA"] == dims["AP"] == dims["PA"], key


def test_torus_counts_match_classification():
    for key in CLIFFORD_BUILTINS:
        data = builtin(key)
        vm = _vminus(key)
        cls = classify_labels(data, vm)
        dims = torus_dims(data, vm).dims
        assert dims["AA"] == len(cls.ns_plus)
        assert dims["AP"] == len(cls.r_plus) + len(cls.r_zero)
        assert dims["PP"] == len(cls.r_plus)


def test_serialized_epsilon_keys_are_bitstrings():
    rep = sphere_report(SpinSphereSpec(builtin("fermion"), "psi", ("sigma", "sigma", "sigma")))
    keys = sorted(rep.to_dict()["epsilon_table"])
    assert keys == sorted("".join(bits) for bits in itertools.product("01", repeat=3))
