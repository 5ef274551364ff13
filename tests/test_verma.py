"""Super-Virasoro straightening and singular vectors in NS Verma modules."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from spinmtc.verma import (
    G,
    NSMode,
    L,
    PBWMonomial,
    VermaError,
    VermaVector,
    apply_mode,
    degree_basis,
    expected_leading_shape,
    filtration_key,
    parse_monomial,
    singular_vectors,
    straighten,
    verify_minimal_singular_vector,
)
from spinmtc.sparse import _rref
from spinmtc.minimal import MinimalModelSpec, central_charge, sector_counts
from spinmtc.verma import _action, _fold, _int_word, _nullspace

C, H = Fraction(7, 10), Fraction(1, 10)


def _hw(c=C, h=H) -> VermaVector:
    return VermaVector(Fraction(c), Fraction(h), {PBWMonomial(): Fraction(1)})


def _terms(vec: VermaVector) -> dict[str, Fraction]:
    return {mon.to_text(): cf for mon, cf in vec.terms.items()}


# --- modes and monomials -----------------------------------------------------


def test_mode_constructors_validate_indices():
    assert L(-2).index == Fraction(-2)
    assert G("-3/2").index == Fraction(-3, 2)
    with pytest.raises(VermaError):
        G(2)
    with pytest.raises(VermaError):
        G("1/3")
    with pytest.raises(VermaError):
        L(Fraction(1, 2))


def test_monomial_text_round_trip():
    for text in ("1", "G[-3/2]", "G[-5/2] G[-3/2] L[-2] L[-2]", "L[-4]"):
        assert parse_monomial(text).to_text() == text


def test_monomial_rejects_non_normal_words():
    with pytest.raises(VermaError):
        parse_monomial("L[-2] G[-3/2]")
    with pytest.raises(VermaError):
        parse_monomial("G[-3/2] G[-3/2]")
    with pytest.raises(VermaError):
        parse_monomial("G[-3/2] G[-5/2]")
    with pytest.raises(VermaError):
        parse_monomial("L[-4] L[-2]")
    with pytest.raises(VermaError):
        parse_monomial("L[0]")


def test_monomial_degree_and_parity():
    m = parse_monomial("G[-5/2] G[-3/2] L[-2]")
    assert m.degree == Fraction(6)
    assert m.parity == 0
    assert parse_monomial("G[-3/2]").parity == 1
    assert PBWMonomial().degree == 0


def test_vprime_membership():
    assert parse_monomial("G[-3/2] L[-2]").in_vprime
    assert not parse_monomial("G[-1/2]").in_vprime
    assert not parse_monomial("G[-3/2] L[-1]").in_vprime


# --- straightening against hand-computed commutators -------------------------


def test_two_mode_actions_match_hand_values():
    # Evaluated at c = 7/10, h = 1/10.
    cases = {
        ("G1/2 G-1/2", (G("1/2"), G("-1/2"))): {"1": Fraction(1, 5)},  # 2h
        ("G-1/2 G-1/2", (G("-1/2"), G("-1/2"))): {"L[-1]": Fraction(1)},
        ("L1 G-3/2", (L(1), G("-3/2"))): {"G[-1/2]": Fraction(2)},
        # 2h + 2c/3
        ("G3/2 G-3/2", (G("3/2"), G("-3/2"))): {"1": Fraction(2, 3)},
        # 4h + c/2
        ("L2 L-2", (L(2), L(-2))): {"1": Fraction(3, 4)},
        ("L1 L-1", (L(1), L(-1))): {"1": Fraction(1, 5)},
        ("G1/2 G-3/2", (G("1/2"), G("-3/2"))): {"L[-1]": Fraction(2)},
    }
    for (tag, word), expect in cases.items():
        assert _terms(straighten(word, C, H)) == expect, tag


def test_raising_modes_kill_the_highest_weight_vector():
    for mode in (L(1), L(2), L(5), G("1/2"), G("7/2")):
        assert apply_mode(mode, _hw()).terms == {}


def test_l0_measures_degree():
    vec = straighten([L(-2), G("-3/2")], C, H)
    measured = apply_mode(L(0), vec)
    assert measured == vec.scaled(H + Fraction(7, 2))


def test_straighten_preserves_degree_and_parity():
    rng = Random(11)
    for _ in range(60):
        word = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                word.append(L(rng.randint(-4, 4)))
            else:
                word.append(G(Fraction(rng.choice(range(-7, 9, 2)), 2)))
        deg = -sum(m.index for m in word)
        g_parity = sum(1 for m in word if m.kind == "G") % 2
        vec = straighten(word, C, H)
        for mon in vec.terms:
            assert mon.degree == deg
            assert len(mon.g_part) % 2 == g_parity


_mode = st.one_of(
    st.integers(-4, 4).map(L),
    st.sampled_from([Fraction(k, 2) for k in range(-9, 10, 2)]).map(G),
)
_charge = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    word=st.lists(_mode, min_size=1, max_size=6),
    c=_charge,
    h=_charge,
    seed=st.integers(0, 2**30),
)
def test_straightening_confluence(word, c, h, seed):
    # The rewrite result must not depend on which reducible spot is picked.
    leftmost = straighten(word, c, h)
    rightmost = straighten(word, c, h, pick=lambda n: n - 1)
    rng = Random(seed)
    randomized = straighten(word, c, h, pick=lambda n: rng.randrange(n))
    assert leftmost == rightmost == randomized


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    x=_mode,
    y=_mode,
    z=_mode,
    c=_charge,
    h=_charge,
)
def test_action_is_associative_on_triples(x, y, z, c, h):
    # Straightening the whole word agrees with acting one mode at a time,
    # which is exactly the Jacobi/super-Jacobi coherence of the three
    # bracket relations.
    whole = straighten([x, y, z], c, h)
    hw = VermaVector(Fraction(c), Fraction(h), {PBWMonomial(): Fraction(1)})
    stepwise = apply_mode(x, apply_mode(y, apply_mode(z, hw)))
    assert whole == stepwise


def test_mode_by_mode_fold_equals_straighten():
    word = [L(-1), G("-1/2"), L(2), G("-5/2")]
    vec = _hw()
    for mode in reversed(word):
        vec = apply_mode(mode, vec)
    assert vec == straighten(word, C, H)


# --- vectors -------------------------------------------------------------------


def test_vector_algebra_and_serialization():
    v = straighten([G("-3/2"), L(-2)], C, H)
    w = v + v
    assert w == v.scaled(2)
    assert (w - v) == v


def test_vector_degree_must_be_pure():
    with pytest.raises(VermaError):
        VermaVector(
            C,
            H,
            {
                parse_monomial("L[-1]"): Fraction(1),
                parse_monomial("L[-2]"): Fraction(1),
            },
        ).degree


def test_filtration_orders_report_terms():
    rep = verify_minimal_singular_vector(3, 5)
    assert [item["monomial"] for item in rep.vector.to_json_list()] == [
        "G[-5/2] G[-3/2]",
        "L[-2] L[-2]",
        "L[-4]",
    ]
    keys = [filtration_key(mon, 10) for mon, _ in rep.vector.sorted_terms()]
    assert keys == sorted(keys, reverse=True)


# --- graded bases -----------------------------------------------------------------


def _superpartition_series(max_twice: int) -> list[int]:
    # Coefficient of q^(2d) in prod(1+q^(2r), r half-odd) / prod(1-q^(2n)).
    n = max_twice + 1
    series = [0] * n
    series[0] = 1
    for twice_part in range(1, n, 2):  # distinct half-odd parts
        for i in range(n - 1, twice_part - 1, -1):
            series[i] += series[i - twice_part]
    for twice_part in range(2, n, 2):  # unrestricted integer parts
        for i in range(twice_part, n):
            series[i] += series[i - twice_part]
    return series


def test_degree_basis_dims_match_generating_function():
    series = _superpartition_series(16)
    for twice in range(0, 17):
        d = Fraction(twice, 2)
        assert len(degree_basis(d)) == series[twice], d


def test_degree_basis_frozen_dims():
    full = [len(degree_basis(Fraction(t, 2))) for t in range(0, 14)]
    assert full == [1, 1, 1, 2, 3, 4, 5, 7, 10, 13, 16, 21, 28, 35]
    restricted = [
        sum(m.in_vprime for m in degree_basis(Fraction(t, 2))) for t in range(0, 14)
    ]
    assert restricted == [1, 0, 0, 1, 1, 1, 1, 2, 3, 3, 3, 5, 7, 7]


def test_degree_basis_contents():
    assert sorted(m.to_text() for m in degree_basis(Fraction(3, 2))) == [
        "G[-1/2] L[-1]",
        "G[-3/2]",
    ]
    vprime = [m.to_text() for m in degree_basis(4) if m.in_vprime]
    assert vprime == ["G[-5/2] G[-3/2]", "L[-2] L[-2]", "L[-4]"]
    with pytest.raises(VermaError):
        degree_basis(Fraction(-1))


# --- singular vectors ----------------------------------------------------------------


def test_expected_leading_shapes():
    assert expected_leading_shape(Fraction(3, 2)).to_text() == "G[-3/2]"
    assert expected_leading_shape(Fraction(7, 2)).to_text() == "G[-3/2] L[-2]"
    assert expected_leading_shape(Fraction(4)).to_text() == "G[-5/2] G[-3/2]"
    assert expected_leading_shape(Fraction(6)).to_text() == "G[-5/2] G[-3/2] L[-2]"
    assert expected_leading_shape(Fraction(1)) is None
    assert expected_leading_shape(Fraction(2)) is None


def test_smallest_model_singular_vector_frozen():
    rep = verify_minimal_singular_vector(2, 4)
    assert rep.c == 0 and rep.h == 0 and rep.degree == Fraction(3, 2)
    assert rep.full_space_dim == 1 and rep.space_dim == 1
    assert _terms(rep.vector) == {"G[-3/2]": Fraction(1)}
    assert _terms(rep.full_vector) == {
        "G[-3/2]": Fraction(1),
        "G[-1/2] L[-1]": Fraction(-2),
    }
    assert rep.shape_ok


def test_tricritical_singular_vector_frozen():
    rep = verify_minimal_singular_vector(3, 5)
    assert rep.degree == 4
    assert _terms(rep.vector) == {
        "G[-5/2] G[-3/2]": Fraction(1),
        "L[-2] L[-2]": Fraction(-2, 3),
        "L[-4]": Fraction(-1, 5),
    }
    assert rep.lambda_coeff == Fraction(-2, 3)
    assert rep.leading_monomial.to_text() == "G[-5/2] G[-3/2]"
    assert rep.shape_ok


def test_degree_six_singular_vector_frozen():
    rep = verify_minimal_singular_vector(3, 7)
    assert rep.degree == 6
    assert _terms(rep.vector) == {
        "G[-5/2] G[-3/2] L[-2]": Fraction(1),
        "L[-2] L[-2] L[-2]": Fraction(-4, 9),
        "G[-9/2] G[-3/2]": Fraction(-11, 28),
        "L[-2] L[-4]": Fraction(11, 21),
        "G[-7/2] G[-5/2]": Fraction(55, 84),
        "L[-3] L[-3]": Fraction(-17, 84),
        "L[-6]": Fraction(-157, 147),
    }
    assert rep.lambda_coeff == Fraction(-4, 9)
    assert rep.shape_ok


def test_half_odd_degree_singular_vector_frozen():
    rep = verify_minimal_singular_vector(2, 8)
    assert rep.degree == Fraction(7, 2)
    assert _terms(rep.vector) == {
        "G[-3/2] L[-2]": Fraction(1),
        "G[-7/2]": Fraction(-1, 4),
    }
    assert rep.shape_ok


def test_full_vectors_are_annihilated_by_raising_modes():
    # Independent re-check: the preimage must be killed by the raising
    # half of the algebra and must be an exact L0 eigenvector.
    for p, q in [(2, 4), (3, 5), (3, 7)]:
        rep = verify_minimal_singular_vector(p, q)
        vec = rep.full_vector
        for mode in (G("1/2"), G("3/2"), L(1), L(2)):
            assert apply_mode(mode, vec).terms == {}, (p, q, mode)
        assert apply_mode(L(0), vec) == vec.scaled(rep.h + rep.degree)


def test_no_singular_vectors_at_intermediate_degrees():
    for p, q in [(2, 4), (3, 5)]:
        rep = verify_minimal_singular_vector(p, q)
        twice_target = int(rep.degree * 2)
        for twice in range(2, twice_target):
            partial = singular_vectors(rep.c, rep.h, Fraction(twice, 2))
            assert partial.space_dim == 0, (p, q, twice)


def test_generic_weights_have_no_singular_vectors():
    for d in (1, Fraction(3, 2), 2):
        rep = singular_vectors(Fraction(1, 2), Fraction(1, 3), d)
        assert rep.full_space_dim == 0
        assert rep.space_dim == 0
        assert rep.vector is None


def test_singular_vector_rejects_bad_degrees():
    with pytest.raises(VermaError):
        singular_vectors(C, H, Fraction(1, 3))
    with pytest.raises(VermaError):
        singular_vectors(C, H, -1)


# --- Kac determinant oracle ----------------------------------------------------------
# The Shapovalov form is built from straightening alone and its rank found by
# the dense reference elimination below, so it checks the singular-space
# dimensions independently of the sparse multimodular solver.


def _gram(c: Fraction, h: Fraction, n: Fraction) -> list[list[Fraction]]:
    """<u v, w v> = constant term of u^dagger w v, with L_n^dagger = L_-n, G_r^dagger = G_-r."""
    basis = degree_basis(n)
    words = [mon.word() for mon in basis]
    size = len(basis)
    gram = [[Fraction(0)] * size for _ in range(size)]
    for i, u in enumerate(words):
        dagger = tuple(NSMode(m.kind, -m.index) for m in reversed(u))
        for j in range(i, size):
            if basis[i].parity == basis[j].parity:
                value = straighten(dagger + words[j], c, h).coefficient(PBWMonomial())
                gram[i][j] = gram[j][i] = value
    return gram


def _kac_zeros(max_level: int) -> list[tuple[int, int, Fraction, Fraction]]:
    """(r, s, c, h_{r,s}) at b^2 = 13/11 for r - s even and rs/2 <= max_level.

    Numerator and denominator of b^2 exceed twice the largest level, so no
    two of these Kac zeros coincide and the Gram matrix at h_{r,s} has a
    single vanishing Kac factor.
    """
    t = Fraction(13, 11)
    c = Fraction(15, 2) - 3 * (t + 1 / t)
    return [
        (r, s, c, ((r - s * t) ** 2 - (1 - t) ** 2) / (8 * t))
        for r in range(1, 2 * max_level + 1)
        for s in range(1, 2 * max_level + 1)
        if (r - s) % 2 == 0 and r * s <= 2 * max_level
    ]


def test_kac_determinant_zeros_match_singular_vectors():
    max_level = 4
    for r, s, c, h in _kac_zeros(max_level):
        level = Fraction(r * s, 2)
        for n in (level - Fraction(1, 2), level, level + Fraction(1, 2)):
            if n > max_level:
                continue
            # the Verma submodule on the singular vector has P_NS(n - rs/2) states
            nullity = len(degree_basis(n - level)) if n >= level else 0
            gram = _gram(c, h, n)
            rank = len(_dense_rref([row[:] for row in gram])[1])
            assert len(gram) - rank == nullity, (r, s, n)
        assert singular_vectors(c, h, level).full_space_dim == 1, (r, s)


# --- the solver's memoized action against straightening -----------------------------


def _seeded_point(seed: int) -> tuple[Fraction, Fraction]:
    rng = Random(seed)
    return tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(2))


_ACTION_POINTS = [
    pytest.param(*_seeded_point(seed), True, id=f"seed{seed}") for seed in (5, 6)
] + [pytest.param(c, h, False, id=f"kac{r},{s}") for r, s, c, h in _kac_zeros(4)]


@pytest.mark.parametrize("c, h, shuffled", _ACTION_POINTS)
def test_action_matches_straighten_on_solver_images(c, h, shuffled):
    # Every image singular_vectors takes from the memoized action, up to
    # degree 8: G_{1/2} and G_{3/2} on each basis word, and u G_{-1/2} v
    # folded mode by mode.  The action holds ints, the straightened value
    # at word u of an image of a length-n word scaled by D^(n - len(u)).
    # At the generic points straighten also runs with a shuffled rewrite
    # order.
    scale, act = _action(c, h)
    rng = Random(17)
    picks = [None, lambda n: rng.randrange(n)] if shuffled else [None]

    def expected(word, pick):
        terms = straighten(word, c, h, pick).terms
        return {_int_word(u): cf * scale ** (len(word) - len(_int_word(u))) for u, cf in terms.items()}

    for twice in range(17):
        for mon in degree_basis(Fraction(twice, 2)):
            for op in (1, 3):
                image = act(op, _int_word(mon))
                assert all(type(cf) is int for cf in image.values()), (op, mon)
                for pick in picks:
                    assert image == expected((G(Fraction(op, 2)),) + mon.word(), pick), (op, mon)
            if twice < 16:
                image = _fold(act, _int_word(mon), {(-1,): 1})
                assert all(type(cf) is int for cf in image.values()), mon
                for pick in picks:
                    assert image == expected(mon.word() + (G("-1/2"),), pick), mon


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.integers(-9, 9), twice=st.integers(0, 10), which=st.integers(0, 2**20), c=_charge, h=_charge)
def test_action_coefficients_are_ints_for_every_mode(x, twice, which, c, h):
    # Raising modes, L_0 and lowering modes alike: act(x, w) holds ints,
    # x w v scaled by D^(len(w) + 1 - len(u)) at word u.
    basis = degree_basis(Fraction(twice, 2))
    mon = basis[which % len(basis)]
    w = _int_word(mon)
    scale, act = _action(c, h)
    image = act(x, w)
    assert all(type(cf) is int for cf in image.values())
    mode = G(Fraction(x, 2)) if x & 1 else L(x // 2)
    want = straighten((mode,) + mon.word(), c, h).terms
    assert image == {_int_word(u): cf * scale ** (len(w) + 1 - len(_int_word(u))) for u, cf in want.items()}


# --- sparse exact linear algebra ------------------------------------------------------


def _dense_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reference: dense in-place Gauss-Jordan over Fractions."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        prow = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if prow is None:
            continue
        rows[r], rows[prow] = rows[prow], rows[r]
        piv = rows[r][col]
        rows[r] = [x / piv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col]:
                f = rows[k][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
    del rows[r:]
    return rows, pivots


def _dense_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    work, pivots = _dense_rref([row[:] for row in rows if any(row)])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for prow, pcol in zip(work, pivots):
            vec[pcol] = -prow[fc]
        basis.append(vec)
    return basis


def _fractions(rows: list[list[int]]) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def test_nullspace_survives_unlucky_primes():
    # the two largest primes below 2^61, where a solve modulo a word-size
    # prime sees a lower rank or a later pivot than the exact one
    p, q = 2**61 - 1, 2**61 - 31
    # singular mod p, full rank over Q
    assert _nullspace(_fractions([[p, 0], [0, 1]]), 2) == []
    # pivot at column 1 mod p but at column 0 over Q
    assert _nullspace(_fractions([[p, 1]]), 2) == [[Fraction(-1, p), Fraction(1)]]
    assert _nullspace(_fractions([[q, 0], [0, 1]]), 2) == []
    assert _nullspace(_fractions([[q, 1]]), 2) == [[Fraction(-1, q), Fraction(1)]]


def test_nullspace_entries_need_several_primes():
    a, b, e = 2**200 + 235, 3**126 - 2, 2**199 + 17
    rows = [[Fraction(a), Fraction(b), Fraction(0)], [Fraction(0), Fraction(e), Fraction(a, 7)]]
    null = _nullspace(rows, 3)
    assert null == _dense_nullspace(rows, 3)
    # beyond what two 61-bit primes can reconstruct
    assert max(abs(x.numerator) * x.denominator for x in null[0]).bit_length() > 2 * 61


def test_nullspace_degenerate_shapes():
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert _nullspace([], 3) == identity
    assert _nullspace([[Fraction(0)] * 3] * 2, 3) == identity
    assert _nullspace([], 0) == []
    assert _nullspace([[]], 0) == []
    assert _nullspace(_fractions([[0, 2, 0]]), 3) == [[1, 0, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "c, h, d",
    [
        (central_charge(MinimalModelSpec(3, 7)), Fraction(0), Fraction(6)),
        (central_charge(MinimalModelSpec(4, 6)), Fraction(0), Fraction(15, 2)),
        (Fraction(7, 5), Fraction(1, 3), Fraction(8)),
        (C, Fraction(0), Fraction(1, 2)),  # G_{-1/2} v alone: a unit null vector
    ],
    ids=["(3,7)", "(4,6)", "generic-degree-8", "h=0-degree-1/2"],
)
def test_nullspace_of_constraint_matrices_matches_dense_reference(c, h, d, monkeypatch):
    import spinmtc.verma as verma

    seen = []

    def capture(rows, ncols):
        seen.append((rows, ncols))
        return _nullspace(rows, ncols)

    monkeypatch.setattr(verma, "_nullspace", capture)
    singular_vectors(c, h, d)
    (rows, ncols), = seen
    null = _nullspace(rows, ncols)
    assert null == _dense_nullspace(rows, ncols)
    assert all(type(x) is Fraction for vec in null for x in vec)


_entry = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
    st.integers(-(2**90), 2**90).map(Fraction),
    st.just(Fraction(2**61 - 1)),
)


@st.composite
def _sparse_matrix(draw):
    ncols = draw(st.integers(0, 6))
    return draw(st.lists(st.lists(_entry, min_size=ncols, max_size=ncols), max_size=7)), ncols


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sparse_matrix())
def test_sparse_kernel_matches_dense_reference(matrix):
    rows, ncols = matrix
    assert _nullspace(rows, ncols) == _dense_nullspace(rows, ncols)
    dense, pivots = _dense_rref([row[:] for row in rows])
    sparse, _ = _rref({j: x for j, x in enumerate(row) if x} for row in rows)
    assert sorted(sparse) == pivots
    assert [[sparse[col].get(j, 0) for j in range(ncols)] for col in pivots] == dense


# --- reach ------------------------------------------------------------------------


@pytest.mark.slow
def test_minimal_models_up_to_degree_sixteen():
    # The six models of degree 12 to 16; deselected by default, run with -m slow.
    for p, q in [(5, 7), (3, 13), (4, 10), (2, 32), (3, 17), (5, 9)]:
        d = Fraction((p - 1) * (q - 1), 2)
        rep = singular_vectors(central_charge(MinimalModelSpec(p, q)), 0, d)
        assert rep.space_dim == 1, (p, q)
        assert rep.shape_ok, (p, q)


# --- generator lists ---------------------------------------------------------------


def test_c2_generators_frozen(c2_monomials):
    # The monomials in L_{-2} and G_{-3/2} below each computed leading
    # monomial; their number is the label census of the model.
    def gens(p, q):
        out = c2_monomials(verify_minimal_singular_vector(p, q).leading_monomial.degree)
        assert len(out) == sum(sector_counts(MinimalModelSpec(p, q)))
        return [g.to_text() for g in out]

    assert gens(2, 4) == ["1", "G[-3/2]"]
    assert gens(3, 5) == ["1", "L[-2]", "G[-3/2]", "G[-3/2] L[-2]"]
    assert gens(3, 7) == [
        "1",
        "L[-2]",
        "L[-2] L[-2]",
        "G[-3/2]",
        "G[-3/2] L[-2]",
        "G[-3/2] L[-2] L[-2]",
    ]
