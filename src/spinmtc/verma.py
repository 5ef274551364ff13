"""Neveu-Schwarz Verma modules: straightening, bases, singular vectors.

The NS algebra here has even modes L_m (integer index) and odd modes G_r
(half-odd index) with brackets

    [L_m, L_n] = (m - n) L_{m+n} + (c/12)(m^3 - m) delta_{m+n,0}
    [L_m, G_r] = (m/2 - r) G_{m+r}
    {G_r, G_s} = 2 L_{r+s} + (c/3)(r^2 - 1/4) delta_{r+s,0}

acting on a highest-weight vector v with L_0 v = h v and L_n v = G_r v = 0
for n, r > 0.  Vectors are stored on the PBW basis: words
G_{g_1}..G_{g_k} L_{n_1}..L_{n_l} v with g_1 < .. < g_k <= -1/2 strictly
increasing half-odd indices and -1 >= n_1 >= .. >= n_l weakly decreasing
integers.  Everything is exact.

Straightening is a terminating rewriting system on words, in rational
arithmetic; any admissible choice of rewrite position yields the same normal
form, which tests exploit by shuffling the choice.  ``singular_vectors`` does
not straighten: it takes its images from ``_action``, a memoized action of
one mode on int-encoded normal words in integers scaled by powers of one
D, and ``straighten`` stays as that action's independent oracle.  The rows
of the eliminations stay integers: each row is scaled by its own power of
D, which leaves its span unchanged, and each elimination is one sparse
fraction-free RREF over Q; the constraint nullspace takes its columns in
reverse basis order.  ``degree_basis`` builds and sorts the basis on
doubled G indices, so that its sort keys are made of ints.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import _fraction_str, _Record
from .sparse import _reduce, _rref

__all__ = [
    "NSMode",
    "L",
    "G",
    "PBWMonomial",
    "VermaVector",
    "VermaError",
    "parse_monomial",
    "filtration_key",
    "straighten",
    "apply_mode",
    "degree_basis",
    "SingularVectorReport",
    "expected_leading_shape",
    "singular_vectors",
    "verify_minimal_singular_vector",
]


class VermaError(ValueError):
    """Bad mode indices, malformed monomials, or failed structure assertions."""

    exit_code = 1  # the CLI's exit status


class NSMode(NamedTuple):
    """One algebra mode: kind "L" with integer index or "G" with half-odd index."""

    kind: str
    index: Fraction


def L(n: int) -> NSMode:
    if not isinstance(n, int):
        raise VermaError(f"L index must be an integer, got {n!r}")
    return NSMode("L", Fraction(n))


def G(r: Fraction | str) -> NSMode:
    r = Fraction(r)
    if r.denominator != 2:
        raise VermaError(f"G index must be half an odd integer, got {r}")
    return NSMode("G", r)


# ---------------------------------------------------------------------------
# PBW monomials


class PBWMonomial(_Record):
    """Normal word acting on the highest-weight vector.

    ``g_part``: strictly increasing half-odd indices <= -1/2.
    ``l_part``: weakly decreasing integer indices <= -1.
    """

    _fields = ("g_part", "l_part")

    def __init__(self, g_part: tuple[Fraction, ...] = (), l_part: tuple[int, ...] = ()):
        for r in g_part:
            if not isinstance(r, Fraction) or r.denominator != 2 or r > Fraction(-1, 2):
                raise VermaError(f"bad G index {r!r} in monomial")
        for a, b in zip(g_part, g_part[1:]):
            if not a < b:
                raise VermaError(f"G indices must strictly increase, got {g_part}")
        for n in l_part:
            if not isinstance(n, int) or n > -1:
                raise VermaError(f"bad L index {n!r} in monomial")
        for a, b in zip(l_part, l_part[1:]):
            if not a >= b:
                raise VermaError(f"L indices must weakly decrease, got {l_part}")
        self._set(g_part=g_part, l_part=l_part)

    @property
    def degree(self) -> Fraction:
        return -(sum(self.g_part, Fraction(0)) + sum(self.l_part))

    @property
    def parity(self) -> int:
        return len(self.g_part) % 2

    @property
    def in_vprime(self) -> bool:
        """Whether the monomial misses G_{-1/2} and L_{-1} entirely."""
        return all(r <= Fraction(-3, 2) for r in self.g_part) and all(
            n <= -2 for n in self.l_part
        )

    def word(self) -> tuple[NSMode, ...]:
        return tuple(NSMode("G", r) for r in self.g_part) + tuple(
            NSMode("L", Fraction(n)) for n in self.l_part
        )

    def to_text(self) -> str:
        if not self.g_part and not self.l_part:
            return "1"
        parts = [f"G[{r}]" for r in self.g_part] + [f"L[{n}]" for n in self.l_part]
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()


_TOKEN = re.compile(r"\s*(G|L)\[(-?\d+(?:/\d+)?)\]\s*")


def parse_monomial(text: str) -> PBWMonomial:
    """Parse the factor syntax, e.g. "G[-5/2] G[-3/2] L[-2]"; "1" is empty."""
    text = text.strip()
    if text == "1" or not text:
        return PBWMonomial()
    pos = 0
    g: list[Fraction] = []
    l: list[int] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise VermaError(f"malformed monomial text at {text[pos:]!r}")
        kind, idx = m.group(1), Fraction(m.group(2))
        if kind == "G":
            if l:
                raise VermaError("G factors must precede L factors")
            g.append(idx)
        else:
            if idx.denominator != 1:
                raise VermaError(f"L index must be an integer, got {idx}")
            l.append(int(idx))
        pos = m.end()
    return PBWMonomial(tuple(g), tuple(l))


def filtration_key(mon: PBWMonomial, width: int | None = None) -> tuple[int, ...]:
    """Comparison key (alpha_0, alpha_1, ..): total count, then the number of
    factors of index -1 - i/2 for each i >= 1.

    Monomials of equal degree compare with the same default width.
    """
    if width is None:
        width = max(int(2 * mon.degree) - 2, 0)
    return _filtration_counts([-m for m in _int_word(mon)], width)


def _filtration_counts(mags: Iterable[int], width: int) -> tuple[int, ...]:
    """``filtration_key`` of a word given by the doubled magnitudes 2|index|
    of its modes: a factor of index -1 - i/2 has 2 + i."""
    counts = [0] * (width + 1)
    for m in mags:
        counts[0] += 1
        if 3 <= m <= width + 2:
            counts[m - 2] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# vectors


class VermaVector(NamedTuple):
    """Exact element of the Verma module with parameters (c, h).

    ``terms`` maps PBW monomials to nonzero rational coefficients; treat it
    as immutable.
    """

    c: Fraction
    h: Fraction
    terms: Mapping[PBWMonomial, Fraction]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[Fraction]:
        return {mon.degree for mon in self.terms}

    @property
    def degree(self) -> Fraction:
        degs = self.degrees()
        if len(degs) != 1:
            raise VermaError(f"vector is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def coefficient(self, mon: PBWMonomial) -> Fraction:
        return self.terms.get(mon, Fraction(0))

    def scaled(self, factor: Fraction) -> "VermaVector":
        factor = Fraction(factor)
        if not factor:
            return VermaVector(self.c, self.h, {})
        return VermaVector(self.c, self.h, {m: cf * factor for m, cf in self.terms.items()})

    def __add__(self, other: "VermaVector") -> "VermaVector":
        if (self.c, self.h) != (other.c, other.h):
            raise VermaError("cannot add vectors from different modules")
        out = dict(self.terms)
        for m, cf in other.terms.items():
            s = out.get(m, Fraction(0)) + cf
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return VermaVector(self.c, self.h, out)

    def __sub__(self, other: "VermaVector") -> "VermaVector":
        return self + other.scaled(Fraction(-1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VermaVector):
            return NotImplemented
        return (self.c, self.h) == (other.c, other.h) and dict(self.terms) == dict(other.terms)

    def sorted_terms(self) -> list[tuple[PBWMonomial, Fraction]]:
        """Terms ordered by descending filtration, ties broken on the parts."""
        degs = self.degrees()
        width = max((max(int(2 * d) - 2, 0) for d in degs), default=0)
        return sorted(
            self.terms.items(),
            key=lambda item: (filtration_key(item[0], width), item[0].g_part, item[0].l_part),
            reverse=True,
        )

    def to_json_list(self) -> list[dict]:
        return [
            {"monomial": mon.to_text(), "coeff": _fraction_str(cf)}
            for mon, cf in self.sorted_terms()
        ]


# ---------------------------------------------------------------------------
# straightening engine

Word = tuple[NSMode, ...]


def _mode_key(mode: NSMode) -> tuple:
    kind, idx = mode
    if idx < 0:
        if kind == "G":
            return (0, idx)
        return (1, -idx)
    # nonnegative modes drift right, smaller index first, so they die against v
    return (2, idx, 0 if kind == "L" else 1)


def _reducible_positions(word: Word) -> list[int]:
    """Positions where a rewrite applies; len(word)-1 flags the terminal rule."""
    out = []
    for i in range(len(word) - 1):
        x, y = word[i], word[i + 1]
        if x.kind == "G" and y.kind == "G" and x.index == y.index:
            out.append(i)
        elif _mode_key(x) > _mode_key(y):
            out.append(i)
    if word and word[-1].index >= 0:
        out.append(len(word) - 1)
    return out


def _rewrite_at(word: Word, i: int, c: Fraction, h: Fraction) -> list[tuple[Word, Fraction]]:
    """Expand one rewrite; every output word is strictly closer to normal."""
    if i == len(word) - 1:
        # terminal rule against the highest-weight vector
        last = word[-1]
        rest = word[:-1]
        if last.kind == "L" and last.index == 0:
            return [(rest, h)] if h else []
        return []  # positive mode annihilates v

    x, y = word[i], word[i + 1]
    head, tail = word[:i], word[i + 2 :]
    out: list[tuple[Word, Fraction]] = []
    a, b = x.index, y.index

    if x.kind == "G" and y.kind == "G":
        if a == b:
            # G_a G_a = L_{2a}; the central term needs 2a = 0, impossible
            out.append((head + (NSMode("L", 2 * a),) + tail, Fraction(1)))
        else:
            out.append((head + (y, x) + tail, Fraction(-1)))
            out.append((head + (NSMode("L", a + b),) + tail, Fraction(2)))
            if a + b == 0:
                central = (c / 3) * (a * a - Fraction(1, 4))
                if central:
                    out.append((head + tail, central))
    elif x.kind == "L" and y.kind == "L":
        out.append((head + (y, x) + tail, Fraction(1)))
        coef = a - b
        if coef:
            out.append((head + (NSMode("L", a + b),) + tail, coef))
        if a + b == 0:
            central = (c / 12) * (a ** 3 - a)
            if central:
                out.append((head + tail, central))
    elif x.kind == "L":
        # L_a G_b = G_b L_a + (a/2 - b) G_{a+b}
        out.append((head + (y, x) + tail, Fraction(1)))
        coef = a / 2 - b
        if coef:
            out.append((head + (NSMode("G", a + b),) + tail, coef))
    else:
        # G_a L_b = L_b G_a + (a - b/2) G_{a+b}
        out.append((head + (y, x) + tail, Fraction(1)))
        coef = a - b / 2
        if coef:
            out.append((head + (NSMode("G", a + b),) + tail, coef))
    return out


def _word_to_monomial(word: Word) -> PBWMonomial:
    g: list[Fraction] = []
    l: list[int] = []
    for mode in word:
        if mode.kind == "G":
            g.append(mode.index)
        else:
            l.append(int(mode.index))
    return PBWMonomial(tuple(g), tuple(l))


def straighten(
    word: Sequence[NSMode],
    c: Fraction | int,
    h: Fraction | int,
    pick: Callable[[int], int] | None = None,
) -> VermaVector:
    """Normal form of (the word applied to v) on the PBW basis.

    ``pick``, given the number of admissible rewrite positions, chooses which
    to apply; the result is independent of the choice, and the default is the
    leftmost.
    """
    c, h = Fraction(c), Fraction(h)
    for mode in word:
        if mode.kind == "L":
            if mode.index.denominator != 1:
                raise VermaError(f"L index must be integral, got {mode.index}")
        elif mode.kind == "G":
            if mode.index.denominator != 2:
                raise VermaError(f"G index must be half-odd, got {mode.index}")
        else:
            raise VermaError(f"unknown mode kind {mode.kind!r}")

    pending: dict[Word, Fraction] = {tuple(word): Fraction(1)}
    result: dict[PBWMonomial, Fraction] = {}
    while pending:
        w, coeff = pending.popitem()
        spots = _reducible_positions(w)
        if not spots:
            mon = _word_to_monomial(w)
            s = result.get(mon, Fraction(0)) + coeff
            if s:
                result[mon] = s
            else:
                result.pop(mon, None)
            continue
        i = spots[0] if pick is None else spots[pick(len(spots))]
        for w2, cf in _rewrite_at(w, i, c, h):
            s = pending.get(w2, Fraction(0)) + coeff * cf
            if s:
                pending[w2] = s
            else:
                pending.pop(w2, None)
    return VermaVector(c, h, result)


def apply_mode(mode: NSMode, vec: VermaVector) -> VermaVector:
    """The mode acting on an already-normal vector."""
    out = VermaVector(vec.c, vec.h, {})
    for mon, cf in vec.terms.items():
        out = out + straighten((mode,) + mon.word(), vec.c, vec.h).scaled(cf)
    return out


# ---------------------------------------------------------------------------
# memoized action on int-encoded words

IntWord = tuple[int, ...]


def _int_word(mon: PBWMonomial) -> IntWord:
    """The monomial's modes as ints m = 2 * index, in the same order (a G
    index is a Fraction over 2, so m is its numerator)."""
    return tuple(r.numerator for r in mon.g_part) + tuple(2 * n for n in mon.l_part)


def _add_scaled(out: dict[IntWord, int], vec: Mapping[IntWord, int], f: int) -> None:
    """out += f * vec in place, dropping zeros."""
    for w, cf in vec.items():
        s = out.get(w, 0) + f * cf
        if s:
            out[w] = s
        else:
            out.pop(w, None)


def _action(c: Fraction, h: Fraction) -> tuple[int, Callable[[int, IntWord], Mapping[IntWord, int]]]:
    """The NS action of one mode on normal words, memoized on (mode, word),
    in integers: returns (D, act), with D derived from c and h.

    A mode is the int m = 2 * index: G_{m/2} for odd m, L_{m/2} for even m.
    A normal word is a tuple of negative modes in ``_mode_key`` order: odd
    ones strictly increasing, then even ones weakly decreasing.  x w v on
    the PBW basis is {normal word u: act(x, w)[u] / D^(len(w) + 1 - len(u))},
    and every act(x, w)[u] is an int.  ``act`` prepends x where it may
    stand, folds G_a G_a into L_{2a}, and otherwise uses
    x y rest = (-1)^{|x||y|} y (x rest) + [x, y} rest, where [x, y} is the
    bracket of the module docstring (the anticommutator for two G's).

    Scaling.  Each structure constant is an integer multiple of 1/2 (the
    bracket coefficients 2, a - b/2, a/2 - b and a - b), of c/6 (the central
    terms (c/3)(a^2 - 1/4) = ((x^2 - 1)/2)(c/6) and (c/12)(a^3 - a) =
    ((x^3 - 4x)/16)(c/6)) or of h (L_0 on v).  So D = lcm(2, den(c/6),
    den(h)) clears every one, and the scale is exact by induction on w:
    prepending x keeps the value 1 at exponent 0, h lands at exponent 1,
    y (x rest) multiplies two scaled values whose exponents add up to the
    one required, and the fold G_a G_a = L_{2a}, the bracket term (one
    length lost) and the central term (two lost) each take one more factor
    D, times their constant.  Results are shared between calls: treat them
    as read-only.  The memo lives as long as the returned function.
    """
    scale = lcm(2, (c / 6).denominator, h.denominator)
    c6, hd = int(c * scale / 6), int(h * scale)
    memo: dict[tuple[int, IntWord], Mapping[IntWord, int]] = {}

    def act(x: int, w: IntWord) -> Mapping[IntWord, int]:
        out = memo.get((x, w))
        if out is not None:
            return out
        if not w:
            out = {(x,): 1} if x < 0 else {(): hd} if x == 0 and hd else {}
        else:
            y, rest = w[0], w[1:]
            # a negative x stands first when it keeps the word normal
            if x < 0 and (not y & 1 or x < y if x & 1 else not y & 1 and x >= y):
                out = {(x,) + w: 1}
            elif x == y and x & 1:
                # G_a G_a = L_{2a}; no central term at a < 0
                out = {u: scale * cf for u, cf in act(2 * x, rest).items()}
            else:
                out = {}
                sign = -1 if x & 1 and y & 1 else 1
                for w2, cf in act(x, rest).items():
                    _add_scaled(out, act(y, w2), sign * cf)
                # the bracket's mode is x + y; with a = x/2 and b = y/2 its
                # coefficient is 2, a - b/2, a/2 - b or a - b, times D
                if x & 1:
                    coef = 2 * scale if y & 1 else (2 * x - y) * scale // 4
                else:
                    coef = (x - 2 * y) * scale // 4 if y & 1 else (x - y) // 2 * scale
                if coef:
                    _add_scaled(out, act(x + y, rest), coef)
                if x + y == 0:
                    # (c/3)(a^2 - 1/4) for two G's, (c/12)(a^3 - a) for two L's, times D^2
                    central = (x * x - 1) // 2 if x & 1 else (x**3 - 4 * x) // 16
                    _add_scaled(out, {rest: central}, c6 * scale)
        memo[(x, w)] = out
        return out

    return scale, act


def _fold(
    act: Callable[[int, IntWord], Mapping[IntWord, int]],
    modes: IntWord,
    vec: Mapping[IntWord, int],
) -> Mapping[IntWord, int]:
    """modes[0] .. modes[-1] applied to vec through ``act``, rightmost first.

    The exponents of ``_action``'s scale telescope: an entry of vec at word u
    scaled by D^(k - len(u)) gives entries scaled by D^(k + len(modes) - len(u)).
    """
    for x in reversed(modes):
        out: dict[IntWord, int] = {}
        for w, cf in vec.items():
            _add_scaled(out, act(x, w), cf)
        vec = out
    return vec


# ---------------------------------------------------------------------------
# graded bases


def _g_subsets(budget: int, min_mag: int) -> Iterable[tuple[int, ...]]:
    """Strictly increasing tuples of odd ints >= min_mag with sum at most budget.

    These are the doubled magnitudes 2|r| of a G part.
    """
    yield ()
    for mag in range(min_mag, budget + 1, 2):
        for rest in _g_subsets(budget - mag, mag + 2):
            yield (mag,) + rest


def _l_partitions(total: int, min_part: int) -> Iterable[tuple[int, ...]]:
    """Weakly increasing tuples of integers >= min_part summing to total."""
    if total == 0:
        yield ()
        return
    for part in range(min_part, total + 1):
        for rest in _l_partitions(total - part, part):
            yield (part,) + rest


def degree_basis(d: Fraction | int) -> list[PBWMonomial]:
    """All PBW monomials of the given degree, sorted by descending filtration.

    The order is that of ``filtration_key`` at the degree's width, then the
    parts, computed on doubled G indices so that every key is made of ints.
    """
    d = Fraction(d)
    if d < 0 or (2 * d).denominator != 1:
        raise VermaError(f"degree must be a nonnegative half-integer, got {d}")
    twice = int(2 * d)
    width = max(twice - 2, 0)
    keyed = []
    for mags in _g_subsets(twice, 1):
        rem = twice - sum(mags)
        if rem % 2:
            continue
        g2 = tuple(-m for m in reversed(mags))
        for lparts in _l_partitions(rem // 2, 1):
            counts = _filtration_counts(mags + tuple(2 * n for n in lparts), width)
            keyed.append((counts, g2, tuple(-n for n in lparts)))
    keyed.sort(reverse=True)
    half = {m: Fraction(m, 2) for m in range(-twice, 0)}
    # normal by construction
    return [PBWMonomial._unchecked(tuple(map(half.__getitem__, g2)), l_part) for _, g2, l_part in keyed]


# ---------------------------------------------------------------------------
# nullspace


def _nullspace(rows: list[list[int | Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace, one vector per free column of the RREF.

    For the RREF in the original column order, v_f is 1 at the free column
    f, 0 on the other free columns and minus the RREF's column f on the
    pivot columns; the v_f are listed by f.  The rows are eliminated once
    over Q with the columns reversed (j as ncols - 1 - j): far less fill-in
    than the original order.  A v_f has its last nonzero entry, 1, at f and
    vanishes on the other free columns, so the v_f are the unique RREF of
    the nullspace read right to left; a second ``_rref`` of any null basis
    in reversed columns gives them.
    """
    last = ncols - 1
    sparse_rows = [r for r in ({last - j: x for j, x in enumerate(row) if x} for row in rows) if r]
    # rows whose first column lies furthest right come first, so that each
    # new pivot lies left of the earlier ones and needs little substitution
    # back into them; then sparsest first
    sparse_rows.sort(key=lambda r: (-min(r), len(r)))
    pivots, _ = _rref(sparse_rows)
    null = []
    for g in range(ncols):
        if g not in pivots:
            vec = {g: Fraction(1)}
            vec.update((pcol, -prow[g]) for pcol, prow in pivots.items() if g in prow)
            null.append(vec)
    canon, _ = _rref(null)
    basis = []
    for g in sorted(canon, reverse=True):
        vec = [Fraction(0)] * ncols
        for k, x in canon[g].items():
            vec[last - k] = x
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# singular vectors


class SingularVectorReport(NamedTuple):
    """Singular vectors of one degree slice, before and after the quotient.

    ``vector`` is the quotient representative on the restricted monomial
    basis when the space is one-dimensional, normalized to unit leading
    coefficient.  ``full_vector`` is a matching preimage in the full module,
    kept for independent re-checking; it is not part of the JSON form.
    """

    c: Fraction
    h: Fraction
    degree: Fraction
    full_space_dim: int
    space_dim: int
    vector: VermaVector | None
    full_vector: VermaVector | None
    leading_monomial: PBWMonomial | None
    lambda_coeff: Fraction | None
    shape_ok: bool | None

    def to_dict(self) -> dict:
        return {
            "c": _fraction_str(self.c),
            "h": _fraction_str(self.h),
            "degree": str(self.degree),
            "full_space_dim": self.full_space_dim,
            "space_dim": self.space_dim,
            "vector": None if self.vector is None else self.vector.to_json_list(),
            "leading_monomial": None
            if self.leading_monomial is None
            else self.leading_monomial.to_text(),
            "lambda": None if self.lambda_coeff is None else _fraction_str(self.lambda_coeff),
            "shape_ok": self.shape_ok,
        }


def expected_leading_shape(d: Fraction) -> PBWMonomial | None:
    """The predicted leading monomial of the degree-d minimal-model vector.

    Even integer degree: G_{-5/2} G_{-3/2} (L_{-2})^{(d-4)/2}; half-odd
    degree with 2d = 3 mod 4: G_{-3/2} (L_{-2})^{(2d-3)/4}.  None when the
    degree fits neither template.
    """
    d = Fraction(d)
    if d.denominator == 1 and d % 2 == 0 and d >= 4:
        k = (int(d) - 4) // 2
        return PBWMonomial((Fraction(-5, 2), Fraction(-3, 2)), (-2,) * k)
    if d.denominator == 2 and (2 * d - 3) % 4 == 0 and d >= Fraction(3, 2):
        k = int((2 * d - 3) // 4)
        return PBWMonomial((Fraction(-3, 2),), (-2,) * k)
    return None


def singular_vectors(c: Fraction | int, h: Fraction | int, d: Fraction | int) -> SingularVectorReport:
    """Degree-d vectors killed by G_{1/2} and G_{3/2}, and their quotient image.

    The quotient is by the degree-d slice of the submodule generated by
    G_{-1/2} v, spanned by u G_{-1/2} v over PBW monomials u of degree
    d - 1/2.  Reduction pivots prefer the non-restricted monomials, so
    surviving vectors are expressed on the restricted (quotient) basis.
    Every image comes from one ``_action`` memo, shared by this call only.
    """
    c, h, d = Fraction(c), Fraction(h), Fraction(d)
    if d <= 0 or (2 * d).denominator != 1:
        raise VermaError(f"degree must be a positive half-integer, got {d}")
    basis = degree_basis(d)
    words = [_int_word(mon) for mon in basis]
    ncols = len(basis)
    scale, act = _action(c, h)
    power = [scale**k for k in range(int(2 * d) + 2)]  # words are at most 2d long

    # constraint matrix: rows indexed by target words u of G_{1/2} and
    # G_{3/2}; row u is scaled by D^(lmax + 1 - len(u)), which leaves the
    # nullspace alone and makes its entry at column j act's int times
    # D^(lmax - len(w_j))
    lmax = max(map(len, words))
    col_scale = [power[lmax - len(word)] for word in words]
    rows: list[list[int]] = []
    row_of: dict[tuple[int, IntWord], int] = {}
    for op in (1, 3):
        for j, word in enumerate(words):
            for target, cf in act(op, word).items():
                key = (op, target)
                if key not in row_of:
                    row_of[key] = len(rows)
                    rows.append([0] * ncols)
                rows[row_of[key]][j] = cf * col_scale[j]
    null = _nullspace(rows, ncols)
    full_dim = len(null)

    # submodule slice, with columns ordered so that pivots prefer the
    # non-quotient monomials
    # a word lies outside V' when it holds G_{-1/2} (-1) or L_{-1} (-2)
    outside = [-1 in w or -2 in w for w in words]
    perm = [j for j, out in enumerate(outside) if out] + [j for j, out in enumerate(outside) if not out]
    n_outside = sum(outside)
    pos_of = {words[j]: pos for pos, j in enumerate(perm)}
    # u G_{-1/2} v, scaled by D^(1 + len(u) - len(w)) at word w; the row
    # times D^(1 + len(u)) is the int cf * D^len(w)
    sub_rows = []
    for u in degree_basis(d - Fraction(1, 2)):
        image = _fold(act, _int_word(u), {(-1,): 1})
        sub_rows.append({pos_of[w]: cf * power[len(w)] for w, cf in image.items()})
    sub, _ = _rref(sorted(sub_rows, key=len))

    reduced = [
        _reduce({pos_of[words[j]]: x for j, x in enumerate(w) if x}, sub) for w in null
    ]
    for v in reduced:
        bad = min(v, default=n_outside)
        if bad < n_outside:
            raise VermaError(
                "quotient reduction left support outside the restricted basis at "
                f"{basis[perm[bad]].to_text()}"
            )

    space_dim = len(_rref(sorted(reduced, key=len))[0])

    vector = full_vector = leading = lam = None
    shape_ok: bool | None = None
    if space_dim == 1:
        # pick a nullspace vector with nonzero image and normalize the pair
        w, w_red = next((w, r) for w, r in zip(null, reduced) if r)
        red_terms = {basis[perm[pos]]: cf for pos, cf in w_red.items()}
        # degree_basis lists the monomials by descending filtration
        leading = basis[min(perm[pos] for pos in w_red)]
        scale = 1 / red_terms[leading]
        vector = VermaVector(c, h, {m: cf * scale for m, cf in red_terms.items()})
        full_vector = VermaVector(
            c, h, {basis[j]: cf * scale for j, cf in enumerate(w) if cf}
        )
        expected = expected_leading_shape(d)
        if expected is not None and leading == expected:
            if d.denominator == 1:
                lam_mon = PBWMonomial((), (-2,) * (int(d) // 2))
                lam = vector.coefficient(lam_mon)
                shape_ok = bool(lam)
            else:
                shape_ok = True
        else:
            shape_ok = False

    return SingularVectorReport(
        c=c,
        h=h,
        degree=d,
        full_space_dim=full_dim,
        space_dim=space_dim,
        vector=vector,
        full_vector=full_vector,
        leading_monomial=leading,
        lambda_coeff=lam,
        shape_ok=shape_ok,
    )


def verify_minimal_singular_vector(p: int, q: int) -> SingularVectorReport:
    """Solve at (c_{p,q}, h = 0), degree (p-1)(q-1)/2, and assert the shape.

    Raises VermaError when the space is not one-dimensional or the leading
    term does not match the parity-determined template.
    """
    from .minimal import MinimalModelSpec, central_charge

    spec = MinimalModelSpec(p, q)
    d = Fraction((p - 1) * (q - 1), 2)
    report = singular_vectors(central_charge(spec), 0, d)
    if report.space_dim != 1:
        raise VermaError(
            f"expected a one-dimensional singular space at degree {d} for ({p}, {q}), "
            f"got {report.space_dim}"
        )
    if not report.shape_ok:
        raise VermaError(
            f"leading term {report.leading_monomial} does not match the expected "
            f"shape for ({p}, {q}); vector: {report.vector.to_json_list()}"
        )
    return report

