"""The fusion-ring axioms: ``validate`` and the checks behind it.

``validate`` runs ``fusion.structure_violations`` and then, on data that
passes them, ``axiom_violations``: the dual involution, the unit axioms,
duality, commutativity, associativity, the dimension equation and the
unit's twist.  Associativity and the dimension equation are checked on a
generating set of labels found modulo a prime with the sparse elimination
step of :mod:`spinmtc.sparse`.  Of the CLI, only ``validate``, and
``classify``, ``sphere`` and ``torus`` on a category file, execute this
module: every builtin category is valid by construction, which the test
suite checks, so the other commands trust a builtin key.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .cyclotomic import Cyclotomic, _integer_form, _reduce_coeffs
from .fusion import FusionData, Violation, structure_violations
from .sparse import Row, _insert_row

__all__ = ["validate", "axiom_violations"]


def validate(data: FusionData) -> list[Violation]:
    """All axiom violations, with witnesses; empty list means valid.

    Structural problems (unknown labels, missing maps) short-circuit the
    checks of ``axiom_violations``, which would not be well-posed without them.
    """
    return structure_violations(data) or axiom_violations(data)


def axiom_violations(data: FusionData) -> list[Violation]:
    """The violations of validate's checks after the structural ones, for data
    with no ``structure_violations``: the dual involution, the unit, duality,
    commutativity, associativity, the dimension equation and the unit's twist."""
    out: list[Violation] = []
    labels = data.labels

    # dual is an involution
    for lab in labels:
        img = data.dual[lab]
        if data.dual[img] != lab:
            out.append(Violation("dual", (lab,), f"dual is not an involution at {lab}"))
    if data.dual[data.unit] != data.unit:
        out.append(Violation("dual", (data.unit,), "unit must be self-dual"))
    if out:
        return out

    rules = data._rules
    pos = data._index
    unit = data.unit
    empty: dict[str, int] = {}

    def first(witnesses: list[tuple[str, ...]]) -> tuple[str, ...]:
        # the least witness in row-major label order
        return min(witnesses, key=lambda w: tuple(pos[x] for x in w))

    def mismatches(got: Mapping[str, int], want: Mapping[str, int]) -> list[str]:
        return [] if got == want else [k for k in got.keys() | want.keys() if got.get(k, 0) != want.get(k, 0)]

    # unit constraint: fusing with the unit is the identity permutation
    bad = [(j, k) for j in labels for k in mismatches(rules.get(unit, empty).get(j, empty), {j: 1})]
    if bad:
        j, k = first(bad)
        out.append(Violation("unit_axiom", (j, k), f"N(unit,{j} -> {k}) != delta"))
    bad = [(i, k) for i in labels for k in mismatches(rules.get(i, empty).get(unit, empty), {i: 1})]
    if bad:
        i, k = first(bad)
        out.append(Violation("unit_axiom", (i, k), f"N({i},unit -> {k}) != delta"))
    unit_ok = not out

    # duality: multiplicity of the unit in i x j is delta_{j, dual(i)}
    bad = []
    for i in labels:
        got = {j: ch[unit] for j, ch in rules.get(i, empty).items() if unit in ch}
        bad += [(i, j) for j in mismatches(got, {data.dual[i]: 1})]
    if bad:
        i, j = first(bad)
        out.append(Violation("duality", (i, j), f"N({i},{j} -> unit) != delta(dual)"))

    # commutativity; a mismatch at (i, j, k) is one at (j, i, k) as well
    bad = []
    for i, row in rules.items():
        for j, ch in row.items():
            for k in mismatches(ch, rules.get(j, empty).get(i, empty)):
                bad += [(i, j, k), (j, i, k)]
    if bad:
        out.append(Violation("commutativity", first(bad), "N(i,j -> k) != N(j,i -> k)"))

    # associativity, exact over Python ints: (i x j) x k against i x (j x k).
    # With both unit axioms, i running over a generating set is a proof (see
    # _span_generators); the full loop runs otherwise and finds the least
    # witness when that check fails.
    gens = _span_generators(labels, rules, unit) if unit_ok else None
    if gens is not None and _associativity_witness(labels, rules, pos, gens) is not None:
        gens = None
    witness = None if gens is not None else _associativity_witness(labels, rules, pos)
    if witness is not None:
        out.append(Violation("associativity", witness,
                             "sum over (i x j) x k differs from i x (j x k)"))

    # quantum dimension is a one-dimensional representation of the ring.
    # d(a b) = d(a) d(b) holds for every a once it holds for a in the
    # generating set: on words by associativity and d(unit) = 1, on their
    # span by linearity.  As for associativity, a failure on the generating
    # set reruns the full loop for the least witness.
    if data.qdim[data.unit] != 1:
        out.append(Violation("qdim", (data.unit,), "quantum dimension of the unit must be 1"))
        gens = None
    if gens is not None and _dimension_witness(data.qdim, labels, rules, gens) is not None:
        gens = None
    witness = None if gens is not None else _dimension_witness(data.qdim, labels, rules)
    if witness is not None:
        i, j = witness
        out.append(Violation("dimension_equation", witness,
                             f"d({i})*d({j}) != sum of channel dimensions"))

    if data.twist[data.unit] % 1 != 0:
        out.append(Violation("twist", (data.unit,), "twist of the unit must vanish mod 1"))

    return out


_SPAN_PRIME = 2**61 - 1


def _span_generators(
    labels: Sequence[str], rules: Mapping[str, Mapping[str, Mapping[str, int]]], unit: str
) -> list[str]:
    """Labels G whose right-nested words g1 (g2 (... (gn 1))) span Q^rank.

    The word vectors are kept in echelon form mod a prime, starting from the
    empty word 1.  Labels are taken in order: one not yet in the span joins
    G, and the span is then closed under left fusion by every label of G.
    Every label ends up in the span, so the words have full rank mod p, hence
    over Q.  The word g 1 is taken to be g itself, so both unit axioms must
    hold.

    If (g b) c = g (b c) for every g in G and all labels b, c, the ring is
    associative: by induction on the word w, (w b) c = w (b c) (the base case
    w = 1 is the left unit axiom), and the associator is linear in its first
    slot.
    """
    p = _SPAN_PRIME
    col = {lab: n for n, lab in enumerate(labels)}
    echelon: dict[int, Row] = {}  # the span mod p, in reduced echelon form
    empty: dict[str, int] = {}
    gens: list[str] = []
    words: list[Row] = [{col[unit]: 1}]  # word vectors by label column; the empty word
    _insert_row(echelon, words[0], p)
    todo: list[tuple[str, Row]] = []  # (g, word) with g w still to span
    for lab in labels:
        if len(echelon) == len(labels):
            break
        if _insert_row(echelon, {col[lab]: 1}, p) is None:
            continue
        gens.append(lab)
        # lab times every nonempty word, and every generator times lab = lab 1
        todo += [(lab, w) for w in words[1:]] + [(g, {col[lab]: 1}) for g in gens]
        words.append({col[lab]: 1})
        while todo and len(echelon) < len(labels):
            g, w = todo.pop()
            left = rules.get(g, empty)
            vec: Row = {}
            for b, m in w.items():
                for k, v in left.get(labels[b], empty).items():
                    vec[col[k]] = (vec.get(col[k], 0) + m * v) % p
            vec = {k: v for k, v in vec.items() if v}
            if _insert_row(echelon, vec, p) is not None:
                words.append(vec)
                todo += [(h, vec) for h in gens]
    return gens


def _dimension_witness(
    qdim: Mapping[str, Cyclotomic],
    labels: Sequence[str],
    rules: Mapping[str, Mapping[str, Mapping[str, int]]],
    left: Sequence[str] | None = None,
) -> tuple[str, str] | None:
    """The first (i, j) in row-major label order where d(i) d(j) differs from
    the sum of N(i,j -> k) d(k); None if the dimension equation holds.

    ``left`` restricts i to those labels (all labels by default).  The qdims are
    rebased to their lcm conductor n and put over one denominator D, as the
    integer coefficients of a(x) = D d(x); a(i) a(j) - D sum N a(k) is reduced
    mod Phi_n.
    """
    n, den, ints = _integer_form(qdim[lab] for lab in labels)
    a, empty = dict(zip(labels, ints)), {}
    for i in labels if left is None else left:
        for j in labels:
            raw: dict[int, int] = {}
            for k, m in rules.get(i, empty).get(j, empty).items():
                for e, c in a[k].items():
                    raw[e] = raw.get(e, 0) - den * m * c
            for e1, c1 in a[i].items():
                for e2, c2 in a[j].items():
                    raw[e1 + e2] = raw.get(e1 + e2, 0) + c1 * c2
            if _reduce_coeffs(n, raw):
                return (i, j)
    return None


def _associativity_witness(
    labels: Sequence[str],
    rules: Mapping[str, Mapping[str, Mapping[str, int]]],
    pos: Mapping[str, int],
    left: Sequence[str] | None = None,
) -> tuple[str, str, str, str] | None:
    """The first (i, j, k, l) in row-major label order where the multiplicity
    of l in (i x j) x k differs from that in i x (j x k); None if associative.

    ``left`` restricts i to those labels (all labels by default).  A product
    with one channel m of multiplicity 1 is read from ``rules`` as m itself.
    """
    empty: dict[str, int] = {}
    for i in labels if left is None else left:
        left_i = rules.get(i, empty)
        for j in labels:
            ij = left_i.get(j, empty)
            left_j = rules.get(j, empty)
            m_row = rules.get(*ij, empty) if len(ij) == 1 and 1 in ij.values() else None
            for k in labels:
                if m_row is not None:
                    lhs = m_row.get(k, empty)
                else:
                    lhs = {}
                    for m, a in ij.items():
                        for l, b in rules.get(m, empty).get(k, empty).items():
                            lhs[l] = lhs.get(l, 0) + a * b
                jk = left_j.get(k, empty)
                if len(jk) == 1 and 1 in jk.values():
                    rhs = left_i.get(*jk, empty)
                else:
                    rhs = {}
                    for m, a in jk.items():
                        for l, b in left_i.get(m, empty).items():
                            rhs[l] = rhs.get(l, 0) + a * b
                if lhs != rhs:
                    bad = (x for x in lhs.keys() | rhs.keys() if lhs.get(x) != rhs.get(x))
                    return i, j, k, min(bad, key=pos.__getitem__)
    return None
