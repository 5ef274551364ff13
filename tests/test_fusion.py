"""Fusion data validation, exact s-matrices, and the builtin catalog."""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest
from conftest import replace

import spinmtc.fusion
from spinmtc.catalog import BUILTIN_KEYS, builtin
from spinmtc.clifford import classify_labels, clifford_structure, find_vminus, verify_block_structure
from spinmtc.cyclotomic import Cyclotomic, zeta
from spinmtc.exactnum import CycMatrix
from spinmtc.fusion import (
    MAX_CONDUCTOR,
    FormatError,
    FusionData,
    InconsistentDataError,
    SMatrix,
    check_s_squared,
    compute_smatrix,
    deligne_product,
    dump_fusion,
    fusion_from_dict,
    fusion_to_dict,
    hom_unit_dim,
    load_fusion,
    structure_violations,
    validate,
)
from spinmtc.spinfunctor import SpinSphereSpec, sphere_report

ONE = Cyclotomic.from_rational(1)
ZERO = Cyclotomic.from_rational(0)


def _product(*keys: str) -> FusionData:
    data = builtin(keys[0])
    for key in keys[1:]:
        data = deligne_product(data, builtin(key))
    return data


# --- catalog and serialization ----------------------------------------------


def test_builtin_keys_are_stable():
    assert BUILTIN_KEYS == ("trivial", "fermion", "dirac", "toric", "fibonacci")
    with pytest.raises(FormatError):
        builtin("nope")


def test_catalog_table_rows_are_well_formed():
    # _category silently lets the later of two statements of a pair win, and
    # fills in rows for whatever labels a row names, so the hand-entered
    # rows are checked here
    from spinmtc.catalog import _TABLE

    assert tuple(_TABLE) == BUILTIN_KEYS
    for key, (labels, products, twists, qdims) in _TABLE.items():
        assert len(set(labels)) == len(labels), key
        assert len(twists) == len(labels), key
        assert Fraction(twists[0]) == 0, key  # the unit comes first
        known = set(labels[1:])
        pairs = [frozenset(pair) for pair in products]
        assert len(set(pairs)) == len(pairs), key
        for (a, b), results in products.items():
            assert {a, b} <= known and set(results) <= set(labels), (key, a, b)
            assert len(set(results)) == len(results), (key, a, b)
        assert set(qdims) <= known, key


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


def test_dump_fusion_equals_json_dumps():
    # the rows' format string against json itself, on every builtin and
    # pairwise product, no fusion rules at all, labels json must escape, and
    # a multiplicity that is not an int
    x = 'x"\\\u00e9'
    odd = FusionData(name=x, labels=("1", x), unit="1", dual={"1": "1", x: x},
                     fusion={("1", "1", "1"): 1, ("1", x, x): 1, (x, "1", x): 1, (x, x, "1"): 1},
                     twist={"1": Fraction(0), x: Fraction(1, 2)}, qdim={"1": ONE, x: ONE})
    cases = [builtin(key) for key in BUILTIN_KEYS] + [odd, replace(odd, fusion={})]
    cases += [_product(a, b) for a, b in itertools.combinations_with_replacement(BUILTIN_KEYS, 2)]
    cases.append(replace(builtin("fermion"), fusion={**builtin("fermion").fusion, ("1", "1", "1"): True}))
    for data in cases:
        assert dump_fusion(data) == json.dumps(fusion_to_dict(data), indent=2) + "\n", data.name


def test_dict_round_trip_is_canonical():
    for key in BUILTIN_KEYS:
        d = fusion_to_dict(builtin(key))
        assert fusion_from_dict(json.loads(json.dumps(d))) == builtin(key)


def test_conductor_cap():
    # the Deligne products the benchmark writes load, at conductors 8, 16 and 80
    for keys, conductor in ((("dirac",) * 3, 8), (("dirac", "fermion", "fermion"), 16),
                            (("fibonacci", "fermion", "fermion"), 80)):
        data = _product(*keys)
        assert fusion_from_dict(json.loads(dump_fusion(data))) == data
        assert compute_smatrix(data).data.conductor == conductor
    doc = fusion_to_dict(builtin("fermion"))
    doc["twist"]["sigma"] = f"1/{MAX_CONDUCTOR}"  # lcm with 16 and 8: the cap itself
    assert fusion_from_dict(doc).twist["sigma"] == Fraction(1, MAX_CONDUCTOR)
    doc["twist"]["sigma"] = f"1/{MAX_CONDUCTOR + 16}"
    with pytest.raises(FormatError, match=f"conductor {MAX_CONDUCTOR + 16} of 'fermion' exceeds"):
        fusion_from_dict(doc)
    doc["twist"]["sigma"] = "1/16"
    doc["qdim"]["psi"] = {"conductor": 3 * MAX_CONDUCTOR, "terms": [[0, "1"]]}
    with pytest.raises(FormatError, match=f"conductor {3 * MAX_CONDUCTOR} of 'fermion'"):
        fusion_from_dict(doc)


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
    n = _multiplicity(data)
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


def _multiplicity(data):
    """N_ij^k of ``data`` as a function of (i, j, k); absent triples are 0."""
    return lambda i, j, k: data.fusion.get((i, j, k), 0)


def _first_associativity_failure(data):
    labs, n = data.labels, _multiplicity(data)
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


def _validate_both_ways(data, monkeypatch):
    """validate() as it runs, and with the generator path switched off."""
    fast = validate(data)
    with monkeypatch.context() as m:
        m.setattr(spinmtc.fusion, "_span_generators", lambda *args: None)
        full = validate(data)
    return fast, full


def _mutations(rng: Random, bases, count: int):
    """Seeded single-entry mutations: a fusion multiplicity moved by one, one
    entry's channel swapped for another label, or one quantum dimension changed."""
    for n in range(count):
        data = rng.choice(bases)
        labels = data.labels
        if n % 3 == 0:
            key = tuple(rng.choice(labels) for _ in range(3))
            v = data.fusion.get(key, 0) + rng.choice((-1, 1))
            fusion = {k: m for k, m in data.fusion.items() if k != key}
            if v:
                fusion[key] = abs(v)
            yield replace(data, fusion=fusion)
        elif n % 3 == 1:
            (i, j, k), v = rng.choice(sorted(data.fusion.items()))
            fusion = {key: m for key, m in data.fusion.items() if key != (i, j, k)}
            target = (i, j, rng.choice(labels))
            fusion[target] = fusion.get(target, 0) + v
            yield replace(data, fusion=fusion)
        else:
            lab = rng.choice(labels)
            new = rng.choice([
                Cyclotomic.from_rational(rng.randint(-2, 3)),
                Cyclotomic(rng.choice((4, 5, 8, 16)), {rng.randint(0, 3): rng.randint(-2, 2)}),
                Cyclotomic(8, {}),
                data.qdim[rng.choice(labels)],
            ])
            yield replace(data, qdim={**data.qdim, lab: new})


def test_validate_generator_path_matches_full_loop(monkeypatch):
    # Associativity and the dimension equation checked on a generating set
    # must report exactly what the full loops report, witnesses included.
    calls = []
    real = spinmtc.fusion._associativity_witness

    def spy(labels, rules, pos, left=None):
        witness = real(labels, rules, pos, left)
        calls.append((left is not None, witness is None))
        return witness

    monkeypatch.setattr(spinmtc.fusion, "_associativity_witness", spy)
    products = [_product("dirac", "dirac", "dirac"), _product("dirac", "fermion", "fermion"),
                _product("fibonacci", "fermion", "fermion")]
    cases = [builtin(key) for key in BUILTIN_KEYS] + products
    cases += [_ring_xy(big) for big in (1, 2**32, 2**63, 2**200)]
    bases = [builtin(key) for key in BUILTIN_KEYS] + [
        _product("fermion", "fermion"), _product("fermion", "dirac"), products[1], products[2]]
    cases += list(_mutations(Random(20261018), bases, 240))
    outcomes = set()
    for data in cases:
        calls.clear()
        fast, full = _validate_both_ways(data, monkeypatch)
        assert fast == full, data.name
        outcomes.add(calls[0] if calls else None)
    # both generator-path verdicts, and inputs that skip it (unit axiom broken)
    assert {(True, True), (True, False), (False, True)} <= outcomes


def test_validate_broken_unit_runs_the_full_loop(monkeypatch):
    # 1 x x = x + y breaks the unit axiom and associativity; the generator
    # proof needs the unit axiom, so validate must not take that path.
    data = _ring_xy(1)
    data = replace(data, fusion={**data.fusion, ("1", "x", "y"): 1})

    def refuse(*args):
        raise AssertionError("generator path taken with a broken unit axiom")

    monkeypatch.setattr(spinmtc.fusion, "_span_generators", refuse)
    vs = validate(data)
    assert [v.check for v in vs] == ["unit_axiom", "commutativity", "associativity", "dimension_equation"]
    assert vs[2].witness == _first_associativity_failure(data) == ("1", "1", "x", "y")


def test_validate_dimension_witness_when_the_span_differs_mod_p(monkeypatch):
    # Q[a, b, c] with a a = b + P c and every other product of a, b, c zero is
    # associative, with generators a, c: modulo P = 2^61 - 1 the word a a is
    # b, so b is skipped, yet b is not in the span of 1, a, a a over Q.  With
    # d = (1, 0, P, -1), a passes the dimension equation and b and c fail;
    # the least witness is (b, b), not the first generator failure (c, b).
    big = spinmtc.fusion._SPAN_PRIME
    labels = ("1", "a", "b", "c")
    fusion = {("1", x, x): 1 for x in labels} | {(x, "1", x): 1 for x in labels}
    fusion |= {("a", "a", "b"): 1, ("a", "a", "c"): big}
    data = FusionData(
        name="span_mod_p",
        labels=labels,
        unit="1",
        dual={x: x for x in labels},
        fusion=fusion,
        twist={x: Fraction(0) for x in labels},
        qdim=dict(zip(labels, map(Cyclotomic.from_rational, (1, 0, big, -1)))),
    )
    assert spinmtc.fusion._span_generators(labels, data._rules, "1") == ["a", "c"]
    fast, full = _validate_both_ways(data, monkeypatch)
    assert fast == full
    assert [v.check for v in fast] == ["duality", "dimension_equation"]
    assert fast[1].witness == ("b", "b")


def _dimension_witness_reference(qdim, labels, rules, left=None):
    """The dimension equation pair by pair in ``Cyclotomic`` arithmetic."""
    for i in labels if left is None else left:
        for j in labels:
            rhs = ZERO
            for k, m in rules.get(i, {}).get(j, {}).items():
                rhs = rhs + qdim[k] * m
            if qdim[i] * qdim[j] != rhs:
                return (i, j)
    return None


def _associativity_witness_reference(labels, rules, pos, left=None):
    """Both sides of every triple summed into fresh dicts."""
    for i in labels if left is None else left:
        for j in labels:
            for k in labels:
                lhs, rhs = {}, {}
                for m, a in rules.get(i, {}).get(j, {}).items():
                    for l, b in rules.get(m, {}).get(k, {}).items():
                        lhs[l] = lhs.get(l, 0) + a * b
                for m, a in rules.get(j, {}).get(k, {}).items():
                    for l, b in rules.get(i, {}).get(m, {}).items():
                        rhs[l] = rhs.get(l, 0) + a * b
                if lhs != rhs:
                    return i, j, k, min((x for x in lhs.keys() | rhs.keys() if lhs.get(x) != rhs.get(x)),
                                        key=pos.__getitem__)
    return None


def _rep_a4() -> FusionData:
    """The representation ring of A4: t x t = 1 + a + b + 2 t, a multiplicity-2 channel."""
    labels = ("1", "a", "b", "t")
    fusion = {("1", x, x): 1 for x in labels} | {(x, "1", x): 1 for x in labels}
    fusion |= {("a", "a", "b"): 1, ("a", "b", "1"): 1, ("b", "a", "1"): 1, ("b", "b", "a"): 1}
    fusion |= {(x, "t", "t"): 1 for x in "ab"} | {("t", x, "t"): 1 for x in "ab"}
    fusion |= {("t", "t", x): 1 for x in "1ab"} | {("t", "t", "t"): 2}
    return FusionData(
        name="rep_a4",
        labels=labels,
        unit="1",
        dual={"1": "1", "a": "b", "b": "a", "t": "t"},
        fusion=fusion,
        twist={x: Fraction(0) for x in labels},
        qdim=dict(zip(labels, map(Cyclotomic.from_rational, (1, 1, 1, 3)))),
    )


def test_witnesses_match_the_cyclotomic_and_summing_references():
    # The integer dimension equation and the single-channel associativity
    # reads must name the references' witnesses, on every generator set and
    # on the full loops, for valid rings, one corrupted qdim and one moved
    # multiplicity.
    rng = Random(20261019)
    cases = [builtin(key) for key in BUILTIN_KEYS] + [_rep_a4(), _ring_xy(2)]
    cases += [_product(a, b) for a, b in itertools.combinations_with_replacement(BUILTIN_KEYS, 2)]
    assert validate(_rep_a4()) == []
    verdicts = set()
    for data in cases:
        lab, key = rng.choice(data.labels), rng.choice(sorted(data.fusion))
        broken = [{**data.qdim, lab: data.qdim[lab] + x} for x in (Fraction(1, 3), rng.choice((1, zeta(8))))]
        moved = replace(data, fusion={**data.fusion, key: data.fusion[key] + 1})
        for ring in (data, moved):
            rules, pos = ring._rules, ring._index
            gens = spinmtc.fusion._span_generators(ring.labels, rules, ring.unit)
            for left in (None, gens):
                got = spinmtc.fusion._associativity_witness(ring.labels, rules, pos, left)
                assert got == _associativity_witness_reference(ring.labels, rules, pos, left), ring.name
                verdicts.add(("associativity", got is None))
                for qdim in (data.qdim, *broken):
                    got = spinmtc.fusion._dimension_witness(qdim, ring.labels, rules, left)
                    assert got == _dimension_witness_reference(qdim, ring.labels, rules, left), ring.name
                    verdicts.add(("dimension_equation", got is None))
    assert len(verdicts) == 4


def test_span_generators_are_small_on_products():
    # The generating sets behind the fast path: far fewer labels than the rank.
    for keys, size in [(("dirac",) * 3, 3), (("dirac", "fermion", "fermion"), 5),
                       (("fibonacci", "fermion", "fermion"), 5), (("fermion",), 2)]:
        data = _product(*keys)
        gens = spinmtc.fusion._span_generators(data.labels, data._rules, data.unit)
        assert len(gens) == size, keys


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


def test_validate_reports_dual_value_outside_the_labels():
    # a structural violation: the involution check would look the value up
    f = builtin("fermion")
    vs = validate(replace(f, dual={**f.dual, "sigma": "zzz"}))
    assert [v.to_dict() for v in vs] == [
        {"check": "dual", "witness": ["sigma"], "detail": "dual maps these labels to unknown labels"}
    ]


def test_structure_violations_reject_booleans():
    # bool is an int subclass; neither True nor False is a multiplicity or a sign
    f = builtin("fermion")
    for flag in (True, False):
        vs = structure_violations(replace(f, fusion={**f.fusion, ("1", "1", "1"): flag}))
        assert [(v.check, v.witness) for v in vs] == [("fusion", ("1", "1", "1"))]
    # nor is a float, though 1.0 == 1 and -1.0 == -1
    for flag in (True, False, 1.0, -1.0):
        vs = structure_violations(replace(f, sigma_vv=flag))
        assert [(v.check, v.witness) for v in vs] == [("sigma_vv", (flag,))]


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
        mats = [[[data.fusion.get((lab, j, k), 0) for k in data.labels] for j in data.labels]
                for lab in data.labels]
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


def _declared_conductor(data: FusionData) -> int:
    return math.lcm(*(data.twist[lab].denominator for lab in data.labels),
                    *(data.qdim[lab].conductor for lab in data.labels))


# the Deligne products the benchmark's category workloads run
BENCH_PRODUCTS = [("dirac",) * 3, ("dirac", "fermion", "fermion"), ("fibonacci", "fermion", "fermion")]


@pytest.mark.parametrize(
    "keys",
    [(key,) for key in BUILTIN_KEYS] + list(itertools.product(BUILTIN_KEYS, repeat=2)) + BENCH_PRODUCTS,
    ids="x".join,
)
def test_smatrix_conductor_is_the_declared_conductor(keys):
    data = _product(*keys)
    conductor = _declared_conductor(data)
    s = compute_smatrix(data).data
    assert s.conductor == conductor
    assert all(x.conductor == conductor for row in s for x in row)


def test_smatrix_conductor_on_degenerate_data():
    # The s-matrix and every entry are at the conductor the data declare,
    # the lcm of the twist denominators and the qdim conductors, also on
    # data validate() would reject: a label without fusion rules or with a
    # zero qdim still adds its twist's denominator, and a qdim its conductor.
    f, t = builtin("fermion"), builtin("toric")
    no_sigma = {key: v for key, v in f.fusion.items() if "sigma" not in key[:2]}
    cases = [
        (replace(f, fusion=no_sigma, twist={**f.twist, "sigma": Fraction(1, 3)}), 24),
        (replace(f, qdim={lab: ZERO for lab in f.labels}), 16),
        (replace(f, qdim={**f.qdim, "sigma": ZERO}), 16),
        (replace(f, qdim={**f.qdim, "psi": Cyclotomic(12, {})}), 48),
        (replace(t, qdim={**t.qdim, "e": Cyclotomic(5, {1: Fraction(1, 2)})}), 10),
    ]
    for data, conductor in cases:
        s = compute_smatrix(data).data
        assert s.conductor == conductor == _declared_conductor(data)
        assert all(x.conductor == conductor for row in s for x in row)


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
    with pytest.raises(InconsistentDataError, match=r"not symmetric at \('a', 'b'\)"):
        compute_smatrix(nc)


def _s_squared_by_full_product(s: SMatrix, data: FusionData) -> tuple[bool, Cyclotomic | None]:
    """The s^2 check by its definition: the full s @ s, compared entry by entry."""
    square = s.data @ s.data
    iu = data.index(data.unit)
    alpha = square[iu, iu]
    for a, i in enumerate(data.labels):
        for b, j in enumerate(data.labels):
            if square[a, b] != (alpha if data.dual[i] == j else ZERO):
                return False, None
    return (False, None) if alpha.is_zero else (True, alpha)


def _twist_mutations() -> list[FusionData]:
    f = builtin("fermion")
    out = [replace(f, twist={**f.twist, "sigma": Fraction(k, 16)}) for k in range(16)]
    for key in ("dirac", "toric"):
        data = builtin(key)
        for lab in data.labels:
            for shift in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
                out.append(replace(data, twist={**data.twist, lab: (data.twist[lab] + shift) % 1}))
    return out


def test_s_squared_matches_the_full_product():
    keys = [(key,) for key in BUILTIN_KEYS] + list(itertools.product(BUILTIN_KEYS, repeat=2)) + BENCH_PRODUCTS
    f = builtin("fermion")
    cases = [(data, compute_smatrix(data)) for data in [_product(*k) for k in keys] + _twist_mutations()]
    # duals that are not involutions: s^2 is symmetric, the charge conjugation
    # is not; on dirac, s^2 agrees with it on and above the diagonal
    d = builtin("dirac")
    for skew in (replace(f, dual={**f.dual, "psi": "sigma"}), replace(d, dual={**d.dual, "j3": "j2"})):
        cases.append((skew, compute_smatrix(skew)))
    # hand-built s-matrices that are not symmetric, on self-dual labels
    two = FusionData(name="two", labels=("1", "a"), unit="1", dual={"1": "1", "a": "a"},
                     fusion={}, twist={"1": Fraction(0), "a": Fraction(0)}, qdim={"1": ONE, "a": ONE})
    for rows in ([[1, 0], [1, 1]], [[1, 1], [0, 1]], [[1, zeta(8)], [zeta(8, 3), -1]], [[0, 1], [-1, 0]]):
        cases.append((two, SMatrix(CycMatrix(rows), "two")))
    verdicts = []
    for data, s in cases:
        holds, alpha = check_s_squared(s, data)
        want_holds, want_alpha = _s_squared_by_full_product(s, data)
        assert holds == want_holds, data.name
        assert (alpha and alpha.to_dict()) == (want_alpha and want_alpha.to_dict()), data.name
        verdicts.append(holds)
    assert check_s_squared(cases[-1][1], two) == (True, Cyclotomic.from_rational(-1))
    assert True in verdicts and False in verdicts


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


@lru_cache(maxsize=None)
def _verlinde_dims(keys: tuple[str, ...], length: int) -> dict[tuple[str, ...], Cyclotomic]:
    """hom(1, a_1 x ... x a_n) = alpha^{-1} sum_x s_{0x}^{2-n} prod_i s_{a_i x}
    for every chain of length 1..length, from the s-matrix alone (Verlinde)."""
    data = _product(*keys)
    s = compute_smatrix(data)
    holds, alpha = check_s_squared(s, data)
    assert holds, keys
    rank, unit = data.rank, data.index(data.unit)
    s0 = [s.data[unit, x] for x in range(rank)]
    dims = {}
    level = {(): [ONE] * rank}  # chain -> prod_i s_{a_i x}, by x
    for n in range(1, length + 1):
        weight = [s0[x] ** (2 - n) * alpha.inverse() for x in range(rank)]
        nxt = {}
        for chain, prod in level.items():
            for a, row in zip(data.labels, s.data):
                nxt[chain + (a,)] = ext = [p * sx for p, sx in zip(prod, row)]
                dims[chain + (a,)] = sum((w * e for w, e in zip(weight, ext)), ZERO)
        level = nxt
    return dims


VERLINDE_CASES = [(("fermion",), 4), (("dirac",), 4), (("toric",), 4), (("fibonacci",), 4),
                  (("fermion", "dirac"), 3)]


@pytest.mark.parametrize("keys, length", VERLINDE_CASES)
def test_verlinde_formula_matches_hom_unit_dim(keys, length):
    # An oracle from the s-matrix for the fusion chains, exact in Q(zeta_N).
    data = _product(*keys)
    dims = _verlinde_dims(keys, length)
    assert len(dims) == sum(data.rank ** n for n in range(1, length + 1))
    for chain, value in dims.items():
        assert value == hom_unit_dim(data, chain), (keys, chain)


@pytest.mark.parametrize("keys, length", VERLINDE_CASES)
def test_verlinde_formula_matches_sphere_component_dim(keys, length):
    # A block of the spin sphere holds the chain and the chain with its first
    # label flipped by the odd generator.
    data = _product(*keys)
    dims = _verlinde_dims(keys, length)
    spins = [v for v in find_vminus(data) if clifford_structure(data, v).is_clifford]
    assert spins or keys == ("fibonacci",)
    for vminus in spins:
        inv = clifford_structure(data, vminus).involution
        for chain in dims:
            want = dims[chain] + dims[(inv[chain[0]],) + chain[1:]]
            assert sphere_report(SpinSphereSpec(data, vminus, chain)).component_dim == want, chain


@pytest.mark.slow
@pytest.mark.parametrize("keys", [("fermion",) * 5, ("dirac",) * 4])
def test_category_checks_at_rank_250(keys):
    # fermion^5 (rank 243) and dirac^4 (rank 256); run with -m slow.
    data = _product(*keys)
    assert validate(data) == []
    s = compute_smatrix(data)
    assert check_s_squared(s, data)[0]
    vminus = find_vminus(data)[0]
    assert clifford_structure(data, vminus).is_clifford
    assert verify_block_structure(data, classify_labels(data, vminus), s).all_pass


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
