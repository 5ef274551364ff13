"""Acceptance suite: eight timed end-to-end criteria.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` to see one
pass/fail line per criterion; each test also fails loudly on its own.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from random import Random

import numpy as np
from conftest import cyc_matrix

from spinmtc.axioms import validate
from spinmtc.catalog import BUILTIN_KEYS, builtin
from spinmtc.clifford import classify_labels, find_vminus
from spinmtc.cyclotomic import Cyclotomic, zeta
from spinmtc.exactnum import check_s_squared, compute_smatrix, verify_block_structure
from spinmtc.fusion import deligne_product, hom_unit_dim
from spinmtc.minimal import (
    MinimalModelSpec,
    central_charge,
    conformal_weight,
    enumerate_labels,
    sector_counts,
    valid_pairs,
)
from spinmtc.spinfunctor import SpinSphereSpec, sphere_epsilon_table, sphere_report, torus_dims
from spinmtc.verma import (
    G,
    L,
    PBWMonomial,
    VermaVector,
    apply_mode,
    expected_leading_shape,
    singular_vectors,
    straighten,
    verify_minimal_singular_vector,
)

CLIFFORD_BUILTINS = ("fermion", "dirac", "toric")


def _finish(number: int, name: str, problems: list[str], elapsed: float, budget: float | None):
    ok = not problems and (budget is None or elapsed < budget)
    status = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.3f}s" + (f", budget {budget:g}s" if budget is not None else "")
    print(f"[{status}] criterion {number}: {name} ({timing})", flush=True)
    assert not problems, f"criterion {number}: " + "; ".join(problems[:5])
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.3f}s, budget {budget}s"


def test_criterion_1_fermion_end_to_end():
    start = time.perf_counter()
    problems: list[str] = []

    data = builtin("fermion")
    violations = validate(data)
    if violations:
        problems.append(f"validate reported {violations}")

    s = compute_smatrix(data)
    if s.data[0, 2] != zeta(8, 1) + zeta(8, 7):
        problems.append(f"s[1,sigma] = {s.data[0, 2]}")
    holds, alpha = check_s_squared(s, data)
    if not holds or alpha != Cyclotomic.from_rational(4):
        problems.append("s^2 is not 4 times the conjugation")

    cls = classify_labels(data, "psi")
    if cls.to_dict() != {
        "ns_plus": ["1"],
        "ns_minus": ["psi"],
        "r_plus": [],
        "r_minus": [],
        "r_zero": ["sigma"],
    }:
        problems.append(f"classification {cls.to_dict()}")

    report = verify_block_structure(data, cls, s)
    if len(report.checks) != 7:
        problems.append(f"expected 7 block checks, got {len(report.checks)}")
    for check_name, res in report.checks.items():
        if not res.ok:
            problems.append(f"block check {check_name} failed at {res.witness}")

    _finish(1, "fermion end-to-end", problems, time.perf_counter() - start, 1.0)


def test_criterion_2_count_identity_across_categories():
    start = time.perf_counter()
    problems: list[str] = []

    cases = [builtin(k) for k in CLIFFORD_BUILTINS]
    cases.append(deligne_product(builtin("fermion"), builtin("fermion")))
    cases.append(deligne_product(builtin("fermion"), builtin("dirac")))
    cases.append(deligne_product(builtin("fermion"), builtin("toric")))

    tested = 0
    for data in cases:
        candidates = find_vminus(data)
        if not candidates:
            problems.append(f"{data.name}: no odd generator found")
            continue
        for vminus in candidates:
            cls = classify_labels(data, vminus)
            if len(cls.r_plus) + len(cls.r_zero) != len(cls.ns_plus):
                problems.append(
                    f"{data.name} at {vminus}: |R+|+|R0| = "
                    f"{len(cls.r_plus)}+{len(cls.r_zero)} != |NS+| = {len(cls.ns_plus)}"
                )
            tested += 1
    if tested < 9:
        problems.append(f"only {tested} (category, vminus) pairs exercised")

    _finish(2, "count identity |R+|+|R0| = |NS+|", problems, time.perf_counter() - start, 5.0)


def test_criterion_3_spin_torus_dimensions():
    start = time.perf_counter()
    problems: list[str] = []

    fermion = torus_dims(builtin("fermion"), "psi")
    if fermion != {"AA": 1, "AP": 1, "PA": 1, "PP": 0}:
        problems.append(f"fermion torus {fermion}")
    dirac = torus_dims(builtin("dirac"), "j2")
    if dirac != {"AA": 1, "AP": 1, "PA": 1, "PP": 1}:
        problems.append(f"dirac torus {dirac}")

    # the count identity makes the three even spin structures agree on every
    # spin modular input: the builtins and each pairwise product of them
    cases = [(key, builtin(key)) for key in CLIFFORD_BUILTINS]
    cases += [(f"{a}.{b}", deligne_product(builtin(a), builtin(b)))
              for a, b in itertools.combinations_with_replacement(BUILTIN_KEYS, 2)]
    tested = 0
    for key, data in cases:
        for vminus in find_vminus(data):
            dims = torus_dims(data, vminus)
            if not dims["AA"] == dims["AP"] == dims["PA"]:
                problems.append(f"{key}: AA/AP/PA differ: {dims}")
            tested += 1
    if tested != 29:
        problems.append(f"{tested} (category, vminus) pairs exercised, not 29")

    _finish(3, "spin torus dimensions", problems, time.perf_counter() - start, 1.0)


def test_criterion_4_sphere_reports():
    start = time.perf_counter()
    problems: list[str] = []

    f = builtin("fermion")
    two = sphere_report(SpinSphereSpec(f, "psi", ("sigma", "sigma")))
    if (two.total_dim, two.component_dim, two.lambda_rank) != (4, 2, 2):
        problems.append(
            f"two-puncture sphere: total {two.total_dim}, "
            f"component {two.component_dim}, C_{two.lambda_rank}"
        )
    four = sphere_report(SpinSphereSpec(f, "psi", ("sigma",) * 4))
    if (four.total_dim, four.component_dim, four.lambda_rank) != (32, 4, 4):
        problems.append(
            f"four-puncture sphere: total {four.total_dim}, "
            f"component {four.component_dim}, C_{four.lambda_rank}"
        )

    for key in CLIFFORD_BUILTINS:
        data = builtin(key)
        (vminus,) = find_vminus(data)
        cls = classify_labels(data, vminus)
        ramond = set(cls.r_plus) | set(cls.r_minus) | set(cls.r_zero)
        for n in (1, 2, 3, 4):
            for chain in itertools.product(data.labels, repeat=n):
                if sum(1 for x in chain if x in ramond) % 2 == 1:
                    rep = sphere_report(SpinSphereSpec(data, vminus, chain))
                    if rep.total_dim != 0:
                        problems.append(f"{key} {chain}: expected 0, got {rep.total_dim}")

    _finish(4, "sphere state-space reports", problems, time.perf_counter() - start, 5.0)


def test_criterion_5_minimal_model_scan():
    start = time.perf_counter()
    problems: list[str] = []

    models = list(valid_pairs(300))
    if len(models) != 170:
        problems.append(f"census: {len(models)} models with p*q <= 300")

    for spec in models:
        g = (spec.p - 1) * (spec.q - 1)
        expected = g // 4 if spec.p % 2 == 1 else (g + 1) // 4
        labels = enumerate_labels(spec)
        ns = [lab for lab in labels if lab.sector == "NS"]
        rr = [lab for lab in labels if lab.sector == "R"]
        if len(ns) != expected or len(rr) != expected:
            problems.append(f"({spec.p},{spec.q}): counts {len(ns)}/{len(rr)} != {expected}")
        if conformal_weight(spec, 1, 1) != 0:
            problems.append(f"({spec.p},{spec.q}): h(1,1) != 0")
        for r in range(1, spec.p):
            for s in range(1, spec.q):
                if conformal_weight(spec, r, s) != conformal_weight(
                    spec, spec.p - r, spec.q - s
                ):
                    problems.append(f"({spec.p},{spec.q}): h asymmetric at ({r},{s})")
                    break
        split_expected = g % 2 == 0
        for lab in rr:
            if lab.split is not split_expected:
                problems.append(f"({spec.p},{spec.q}): split flag at ({lab.r},{lab.s})")
                break

    _finish(5, "minimal-model scan to p*q = 300", problems, time.perf_counter() - start, 10.0)


def test_criterion_6_singular_vectors():
    start = time.perf_counter()
    problems: list[str] = []

    expectations = {
        (2, 4): ("G[-3/2]", False),
        (3, 5): ("G[-5/2] G[-3/2]", True),
        (3, 7): ("G[-5/2] G[-3/2] L[-2]", True),
    }
    for (p, q), (leading, has_lambda) in expectations.items():
        try:
            rep = verify_minimal_singular_vector(p, q)
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            problems.append(f"({p},{q}): {exc}")
            continue
        if rep.space_dim != 1:
            problems.append(f"({p},{q}): quotient singular space dim {rep.space_dim}")
        if rep.leading_monomial.to_text() != leading:
            problems.append(f"({p},{q}): leading {rep.leading_monomial.to_text()}")
        if not rep.shape_ok:
            problems.append(f"({p},{q}): leading shape check failed")
        if has_lambda and not rep.lambda_coeff:
            problems.append(f"({p},{q}): lambda vanished")

        twice_target = int(rep.degree * 2)
        for twice in range(2, twice_target):
            partial = singular_vectors(rep.c, rep.h, Fraction(twice, 2))
            if partial.space_dim != 0:
                problems.append(
                    f"({p},{q}): unexpected singular vector at degree {Fraction(twice, 2)}"
                )

    _finish(6, "singular vectors for the three reference models", problems,
            time.perf_counter() - start, 60.0)


def test_criterion_7_generator_counts(c2_monomials):
    start = time.perf_counter()
    problems: list[str] = []

    models = list(valid_pairs(120))
    if len(models) != 55:
        problems.append(f"census: {len(models)} models with p*q <= 120")
    # The count is taken from the degree-d leading monomial of each model's
    # singular vector, predicted for all 55; the solves confirm the
    # prediction where the budget allows.
    solved = 0
    for spec in models:
        census = sum(sector_counts(spec))
        label_count = len(enumerate_labels(spec))
        d = Fraction((spec.p - 1) * (spec.q - 1), 2)
        lead = expected_leading_shape(d)
        if lead is None or lead.degree != d:
            problems.append(f"({spec.p},{spec.q}): no leading shape at degree {d}")
            continue
        count = len(c2_monomials(lead.degree))
        if not count == census == label_count:
            problems.append(
                f"({spec.p},{spec.q}): {count} generators, census {census}, {label_count} labels"
            )
        if d > 12:  # the solves this budget allows: the first 12 models
            continue
        rep = singular_vectors(central_charge(spec), 0, d)
        solved += 1
        if rep.leading_monomial != lead:
            problems.append(f"({spec.p},{spec.q}): leading {rep.leading_monomial.to_text()}")
    if solved != 12:
        problems.append(f"solved {solved} models, expected 12")

    _finish(7, "generator count equals label count", problems, time.perf_counter() - start, 5.0)


def _random_cyclotomic(rng: Random) -> Cyclotomic:
    n = rng.choice([1, 2, 3, 4, 6, 8, 12, 16, 20, 24])
    coeffs = {
        e: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        for e in range(rng.randint(1, 4))
    }
    return Cyclotomic(n, coeffs)


def _random_mode(rng: Random):
    if rng.random() < 0.5:
        return L(rng.randint(-4, 4))
    return G(Fraction(rng.choice(range(-9, 10, 2)), 2))


def test_criterion_8_property_suites(brute_force_epsilon_table):
    start = time.perf_counter()
    problems: list[str] = []
    rng = Random(20260815)

    # field axioms, 120 cases
    zero = Cyclotomic.from_rational(0)
    one = Cyclotomic.from_rational(1)
    for i in range(120):
        a, b, c = (_random_cyclotomic(rng) for _ in range(3))
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
            problems.append(f"field axiom associativity case {i}")
        if a * (b + c) != a * b + a * c or a * b != b * a:
            problems.append(f"field axiom distributivity case {i}")
        if a != zero and a * a.inverse() != one:
            problems.append(f"field axiom inverse case {i}")

    # exact rank vs numeric rank, 120 cases
    for i in range(120):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        if rows >= 3 and rng.random() < 0.5:
            entries[-1] = [x + y for x, y in zip(entries[0], entries[1])]
        matrix = cyc_matrix(entries)
        exact_rank, _ = matrix.rank_det()
        arr = np.array([[float(x) for x in row] for row in entries], dtype=float)
        if exact_rank != int(np.linalg.matrix_rank(arr, tol=1e-8)):
            problems.append(f"rank mismatch case {i}")

    # straightening confluence, 220 words
    for i in range(220):
        word = [_random_mode(rng) for _ in range(rng.randint(1, 6))]
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        h = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        left = straighten(word, c, h)
        right = straighten(word, c, h, pick=lambda n: n - 1)
        shuffled = straighten(word, c, h, pick=lambda n: rng.randrange(n))
        if not (left == right == shuffled):
            problems.append(f"confluence case {i}: {[m for m in word]}")

    # super-Jacobi coherence, 220 triples
    for i in range(220):
        triple = [_random_mode(rng) for _ in range(3)]
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        h = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        whole = straighten(triple, c, h)
        hw = VermaVector(c, h, {PBWMonomial(): Fraction(1)})
        stepwise = apply_mode(triple[0], apply_mode(triple[1], apply_mode(triple[2], hw)))
        if whole != stepwise:
            problems.append(f"jacobi case {i}: {[m for m in triple]}")

    # epsilon tables against the 2^n loop, and the epsilon-flip law, on all
    # Clifford builtins, chains up to length 4
    for key in CLIFFORD_BUILTINS:
        data = builtin(key)
        (vminus,) = find_vminus(data)
        for n in (1, 2, 3, 4):
            for chain in itertools.product(data.labels, repeat=n):
                table = sphere_epsilon_table(SpinSphereSpec(data, vminus, chain))
                if table != brute_force_epsilon_table(data, vminus, chain):
                    problems.append(f"epsilon table {key} {chain} differs from the 2^n loop")
                for eps in table:
                    for i in range(n):
                        for j in range(i + 1, n):
                            flipped = list(eps)
                            flipped[i] ^= 1
                            flipped[j] ^= 1
                            if table[tuple(flipped)] != table[eps]:
                                problems.append(f"flip law {key} {chain} {eps}")

    # cyclic and reversal-with-dual invariance on every builtin
    for key in ("trivial", "fermion", "dirac", "toric", "fibonacci"):
        data = builtin(key)
        for n in (1, 2, 3, 4):
            for chain in itertools.product(data.labels, repeat=n):
                base = hom_unit_dim(data, chain)
                rotated = chain[1:] + chain[:1]
                if hom_unit_dim(data, rotated) != base:
                    problems.append(f"cyclic invariance {key} {chain}")
                reversed_dual = tuple(data.dual[x] for x in reversed(chain))
                if hom_unit_dim(data, reversed_dual) != base:
                    problems.append(f"reversal invariance {key} {chain}")

    _finish(8, "randomized property suites", problems, time.perf_counter() - start, None)
