"""Pfaffian combinatorics: matchings, signs, Plücker, and Sylvester."""

from __future__ import annotations

import importlib
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_identity,
    family_from_rows,
    laplace_det,
    pf_expand,
    pf_matching_sum,
    position_matrix,
    rand_family,
)
from padetau import (
    ExactMatrix,
    OddLength,
    PairMap,
    ParityViolation,
    ShapeMismatch,
    SkewMap,
    bordered_determinant,
    det_as_pfaffian,
    det_exact,
    det_g,
    induced_skew_map,
    interleave,
    key_identity_via_pfaffian,
    perfect_matchings,
    pfaffian,
    plucker_check,
    sgn_permutation,
    sylvester_det,
    tau_determinant,
)
from padetau.sampling import random_fraction, random_pair_map, random_skew_map


def symbols_map(scale: int = 100) -> SkewMap:
    """Injective-on-pairs skew map so coincidences cannot hide sign bugs."""
    return SkewMap(lambda i, j: Fraction(scale * i + j))


# ---------------------------------------------------------------------------
# matchings and signs


def test_matchings_of_a_four_letter_word():
    ms = perfect_matchings([1, 2, 3, 4])
    assert [m.word for m in ms] == [(1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3)]
    assert [m.sign for m in ms] == [1, -1, 1]
    assert ms[0].arcs == ((1, 2), (3, 4))
    assert len(perfect_matchings([1, 2, 3, 4, 5, 6])) == 15
    with pytest.raises(OddLength):
        perfect_matchings([1, 2, 3])


def test_matching_sign_equals_crossing_parity():
    for length in (0, 2, 4, 6, 8):
        for m in perfect_matchings(list(range(1, length + 1))):
            assert m.sign == (-1) ** m.crossings


def test_sgn_permutation():
    assert sgn_permutation([1, 2, 3, 4], [1, 2, 3, 4]) == 1
    assert sgn_permutation([1, 2, 3, 4], [1, 3, 2, 4]) == -1
    assert sgn_permutation([1, 2, 3, 4], [1, 4, 2, 3]) == 1
    assert sgn_permutation([1, 1, 2, 3], [1, 1, 2, 3]) == 0
    assert sgn_permutation([1, 2], [1, 3]) == 0


def test_index_change_law_exhaustive_small():
    f = symbols_map()
    for length in (2, 4):
        base = tuple(range(1, length + 1))
        pf_base = pfaffian(f, base)
        for perm in permutations(base):
            assert pfaffian(f, perm) == sgn_permutation(base, perm) * pf_base


# ---------------------------------------------------------------------------
# the Pfaffian itself


def test_pfaffian_four_letters_formula():
    f = symbols_map()
    expected = f(1, 2) * f(3, 4) - f(1, 3) * f(2, 4) + f(1, 4) * f(2, 3)
    assert pfaffian(f, [1, 2, 3, 4]) == expected


def test_pfaffian_base_cases():
    f = symbols_map()
    assert pfaffian(f, []) == 1
    assert pfaffian(f, [3, 7]) == f(3, 7)
    assert pfaffian(f, [1, 2, 1, 3]) == 0
    with pytest.raises(OddLength):
        pfaffian(f, [1, 2, 3])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_pfaffian_matches_expansion_oracle(half, seed):
    rng = random.Random(seed)
    letters = list(range(1, 2 * half + 1))
    rng.shuffle(letters)
    f = random_skew_map(rng, range(1, 2 * half + 1))
    got = pfaffian(f, letters)
    assert got == pf_expand(f, letters) == pf_matching_sum(f, letters)


def sparse_skew_map(rng: random.Random, letters, density: float) -> SkewMap:
    """A skew map that is zero on most pairs, so pivots vanish and the
    elimination has to swap letters."""
    alphabet = sorted(letters)
    table = {
        (i, j): random_fraction(rng) if rng.random() < density else Fraction(0)
        for p, i in enumerate(alphabet)
        for j in alphabet[p + 1 :]
    }
    return SkewMap.from_table(table)


def test_pfaffian_with_a_zero_leading_pivot():
    f = SkewMap.from_table(
        {(1, 2): 0, (1, 3): 2, (1, 4): 3, (2, 3): 5, (2, 4): 7, (3, 4): 11}
    )
    # Pf = f12 f34 - f13 f24 + f14 f23 = 0 - 14 + 15
    assert pfaffian(f, [1, 2, 3, 4]) == 1
    assert pfaffian(f, [2, 1, 3, 4]) == -1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.sampled_from([0.15, 0.3, 0.5]), st.integers(0, 2**32 - 1))
def test_pfaffian_of_sparse_maps(half, density, seed):
    rng = random.Random(seed)
    f = sparse_skew_map(rng, range(1, 11), density)
    word = rng.sample(range(1, 11), 2 * half)
    assert pfaffian(f, word) == pf_matching_sum(f, word)


@pytest.mark.parametrize("half", [1, 2, 3, 4])
def test_pfaffian_with_an_all_zero_first_row(half):
    rng = random.Random(half)
    word = rng.sample(range(1, 11), 2 * half)
    dense = random_skew_map(rng, range(1, 11))
    f = SkewMap(lambda i, j: Fraction(0) if word[0] in (i, j) else dense(i, j))
    assert pfaffian(f, word) == 0 == pf_matching_sum(f, word)
    assert pfaffian(f, word[1:] + word[:1]) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_pfaffian_with_mixed_denominators(half, seed):
    rng = random.Random(seed)
    word = rng.sample(range(1, 13), 2 * half)
    table = {
        (i, j): Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 5, 7, 9, 16, 27]))
        for i in range(1, 13)
        for j in range(i + 1, 13)
    }
    f = SkewMap.from_table(table)
    assert pfaffian(f, word) == pf_matching_sum(f, word)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_pfaffian_of_induced_maps_with_zero_entries(size, seed):
    rng = random.Random(seed)
    g = PairMap.from_table(
        {
            (i, j): random_fraction(rng) if rng.random() < 0.4 else Fraction(0)
            for i in range(1, 6)
            for j in range(1, 6)
        }
    )
    rows = rng.sample(range(1, 6), size)
    cols = rng.sample(range(1, 6), size)
    word = interleave(rows, cols)
    f = induced_skew_map(g)
    assert pfaffian(f, word) == pf_matching_sum(f, word) == det_g(g, rows, cols)


@pytest.mark.parametrize(
    "word", [[1, 1], [1, 2, 1, 3], [4, 2, 3, 2], [1, 2, 3, 4, 5, 1], [5, 5, 5, 5]]
)
def test_repeated_letters_give_exact_zero(word):
    f = random_skew_map(random.Random(4), range(1, 6))
    got = pfaffian(f, word)
    assert type(got) is Fraction and got == 0
    assert pf_matching_sum(f, word) == 0


def test_pfaffian_enumerates_no_matchings(monkeypatch):
    def refuse(letters):
        raise AssertionError("pfaffian enumerated matchings")

    # padetau.pfaffian names the function; the module is reached by import.
    monkeypatch.setattr(importlib.import_module("padetau.pfaffian"), "perfect_matchings", refuse)
    f = random_skew_map(random.Random(6), range(1, 21))
    for length in (0, 2, 8, 20):
        pfaffian(f, list(range(1, length + 1)))


@pytest.mark.parametrize("length", [16, 20])
def test_pfaffian_squares_to_determinant_beyond_the_matching_sum(length):
    # 20 letters have 19!! (about 6.5e8) matchings.
    rng = random.Random(length)
    f = random_skew_map(rng, range(1, length + 1))
    word = rng.sample(range(1, length + 1), length)
    got = pfaffian(f, word)
    assert got != 0
    assert got**2 == det_exact(ExactMatrix(position_matrix(f, word)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_det_as_pfaffian_on_six_by_six_pair_maps(seed):
    rng = random.Random(seed)
    g = random_pair_map(rng, range(1, 7), range(1, 7))
    rows = rng.sample(range(1, 7), 6)
    cols = rng.sample(range(1, 7), 6)
    rep = det_as_pfaffian(g, rows, cols)
    assert_identity(rep)
    assert rep.lhs != 0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_pfaffian_squares_to_determinant(half, seed):
    rng = random.Random(seed)
    letters = list(range(1, 2 * half + 1))
    f = random_skew_map(rng, letters)
    assert pfaffian(f, letters) ** 2 == laplace_det(position_matrix(f, letters))


def test_skew_map_is_structurally_skew():
    f = SkewMap(lambda i, j: Fraction(i + 10 * j))
    assert f(2, 5) == -f(5, 2)
    assert f(4, 4) == 0


# ---------------------------------------------------------------------------
# Plücker relation and its corollaries (the corollaries are derived
# checks computed here from pfaffian and sgn_permutation alone)


def test_plucker_at_documented_words():
    rng = random.Random(5)
    f = random_skew_map(rng, range(1, 9))
    assert_identity(plucker_check(f, [1, 2, 3], [4, 5, 6], [7, 8]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_plucker_on_random_words(seed):
    rng = random.Random(seed)
    f = random_skew_map(rng, range(1, 13))
    iw = rng.sample(range(1, 13), rng.choice([1, 3, 5]))
    jw = rng.sample(range(1, 13), rng.choice([1, 3]))
    kw = rng.sample(range(1, 13), rng.choice([0, 2, 4]))
    assert_identity(plucker_check(f, iw, jw, kw))


def test_plucker_parity_guard():
    f = symbols_map()
    with pytest.raises(ParityViolation):
        plucker_check(f, [1, 2], [3], [4, 5])
    with pytest.raises(ParityViolation):
        plucker_check(f, [1], [3], [4])


def exchange_sum(f: SkewMap, iw: tuple[int, ...], kw: tuple[int, ...], j: int):
    total = Fraction(0)
    for i in iw:
        if i == j:
            continue
        rest = tuple(x for x in iw if x not in (i, j))
        total += (
            sgn_permutation(iw, rest + (i, j))
            * pfaffian(f, rest + kw)
            * pfaffian(f, (i, j) + kw)
        )
    return total


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exchange_sum_collapses_to_product(seed):
    rng = random.Random(seed)
    f = random_skew_map(rng, range(1, 11))
    iw = tuple(rng.sample(range(1, 11), rng.choice([2, 4, 6])))
    rest = [x for x in range(1, 11) if x not in iw]
    kw = tuple(rng.sample(rest, rng.choice([0, 2])))
    j = rng.choice(iw)
    assert exchange_sum(f, iw, kw, j) == pfaffian(f, iw + kw) * pfaffian(f, kw)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_pfaffian_of_induced_pair_pfaffians(half, seed):
    rng = random.Random(seed)
    f = random_skew_map(rng, range(1, 11))
    iw = tuple(rng.sample(range(1, 11), 2 * half))
    rest = [x for x in range(1, 11) if x not in iw]
    kw = tuple(rng.sample(rest, rng.choice([0, 2])))
    big = SkewMap(lambda i, j: pfaffian(f, (i, j) + kw))
    assert pfaffian(big, iw) == pfaffian(f, iw + kw) * pfaffian(f, kw) ** (half - 1)


# ---------------------------------------------------------------------------
# determinants as Pfaffians


def test_interleave_words():
    assert interleave([1, 2], [3, 4]) == (1, 6, 3, 8)
    with pytest.raises(ShapeMismatch):
        interleave([1], [2, 3])


def test_det_g_matches_laplace():
    rng = random.Random(3)
    g = random_pair_map(rng, range(1, 5), range(1, 5))
    rows, cols = [2, 4, 1], [1, 3, 2]
    assert det_g(g, rows, cols) == laplace_det([[g(i, j) for j in cols] for i in rows])
    assert det_g(g, [], []) == 1
    with pytest.raises(ShapeMismatch):
        det_g(g, [1], [1, 2])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_det_as_pfaffian_identity(size, seed):
    rng = random.Random(seed)
    g = random_pair_map(rng, range(1, 6), range(1, 6))
    rows = rng.sample(range(1, 6), size)
    cols = rng.sample(range(1, 6), size)
    assert_identity(det_as_pfaffian(g, rows, cols))
    f = induced_skew_map(g)
    assert pfaffian(f, interleave(rows, cols)) == sgn_permutation(
        sorted(interleave(rows, cols)), interleave(rows, cols)
    ) * pfaffian(f, sorted(interleave(rows, cols)))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_sylvester_identity_on_randoms(block, core, seed):
    rng = random.Random(seed)
    g = random_pair_map(rng, range(1, 9), range(1, 9))
    row_core = tuple(rng.sample(range(1, 9), core))
    col_core = tuple(rng.sample(range(1, 9), core))
    rows = tuple(rng.sample([x for x in range(1, 9) if x not in row_core], block))
    cols = tuple(rng.sample([x for x in range(1, 9) if x not in col_core], block))
    assert_identity(sylvester_det(g, rows, cols, row_core, col_core))


def test_sylvester_rejects_bad_shapes():
    g = PairMap(lambda i, j: Fraction(i * j))
    with pytest.raises(ShapeMismatch):
        sylvester_det(g, [1, 2], [1], [3], [3])
    with pytest.raises(ValueError):
        sylvester_det(g, [], [], [1], [1])


# ---------------------------------------------------------------------------
# the key identity through the specialized pair map


def test_key_identity_on_worked_family():
    fam = family_from_rows([[1, 0, 0, 0, 0], [0, 1, 2, 3, 4]])
    rep = key_identity_via_pfaffian(fam, 1)
    assert rep.holds
    assert rep.corner.lhs == tau_determinant(fam, 1) == 1
    assert rep.extended.rhs == -tau_determinant(fam, 2) == -1
    for sub in rep.bordered:
        assert sub.lhs == sub.rhs


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 3), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_key_identity_on_randoms(size, n, seed):
    rng = random.Random(seed)
    fam = rand_family(rng, size, size * (n + 1) + 1)
    rep = key_identity_via_pfaffian(fam, n)
    assert rep.holds
    assert rep.corner.lhs == tau_determinant(fam, n)
    for k in range(1, size):
        for m in range(1, size):
            sub = next(
                s for s in rep.bordered if s.name == f"bordered_minor_{k}_{m}"
            )
            sign = -1 if ((size - m) * n) % 2 else 1
            assert sub.rhs == sign * bordered_determinant(fam, n, m, k)
