"""Truncated series, polynomials, and family normalization."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import conv_window, long_div_inverse
from padetau import (
    BadNormalization,
    InsufficientOrder,
    Polynomial,
    SeriesFamily,
    TruncatedSeries,
    ZeroConstantTerm,
    normalize_family,
    rational,
)
from padetau.series import _convolve, row_times_column

fractions_st = st.fractions(
    min_value=-9, max_value=9, max_denominator=4
)
coeff_lists = st.lists(fractions_st, min_size=1, max_size=8)


def test_rational_coercions():
    assert rational(3) == Fraction(3)
    assert rational("3/4") == Fraction(3, 4)
    assert rational(Fraction(-2, 6)) == Fraction(-1, 3)
    with pytest.raises(ValueError, match="zero denominator"):
        rational("1/0")
    with pytest.raises(TypeError):
        rational(0.5)


def test_series_trust_window():
    s = TruncatedSeries([1, 2, 3])
    assert s.order == 3
    assert s.coefficient(2) == 3
    assert s.coefficient(-5) == 0
    with pytest.raises(InsufficientOrder):
        s.coefficient(3)
    with pytest.raises(InsufficientOrder):
        s.truncate(4)
    assert s.truncate(1).coeffs == (Fraction(1),)


def test_series_padding_and_truncation_on_build():
    assert TruncatedSeries([1], 3).coeffs == (Fraction(1), Fraction(0), Fraction(0))
    assert TruncatedSeries([1, 2, 3], 2).coeffs == (Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        TruncatedSeries([1], -1)


def test_series_shift_semantics():
    s = TruncatedSeries([0, 0, 5, 7])
    assert s.shift(1).coeffs == (Fraction(0),) * 3 + (Fraction(5), Fraction(7))
    assert s.shift(-2).coeffs == (Fraction(5), Fraction(7))
    with pytest.raises(ValueError):
        TruncatedSeries([1, 0]).shift(-1)
    with pytest.raises(InsufficientOrder):
        TruncatedSeries([0, 0]).shift(-3)


def test_series_valuation_and_zero():
    assert TruncatedSeries([0, 0, 1]).valuation() == 2
    assert TruncatedSeries.zero(4).valuation() is None
    assert TruncatedSeries.zero(4).is_zero()


@given(coeff_lists, coeff_lists)
def test_series_product_matches_convolution_oracle(a, b):
    win = min(len(a), len(b))
    s = TruncatedSeries(a) * TruncatedSeries(b)
    assert s.order == win
    assert list(s.coeffs) == conv_window(a, b, win)


big_fractions = st.builds(
    Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**8)
)
kernel_operands = st.one_of(
    st.lists(st.one_of(st.just(Fraction(0)), big_fractions, fractions_st), max_size=14),
    st.lists(st.just(Fraction(0)), max_size=5),
)


@settings(max_examples=300)
@given(kernel_operands, kernel_operands, st.integers(0, 32))
def test_kernel_matches_schoolbook_convolution(a, b, n):
    """Large numerators and denominators, interior zeros, all-zero and
    empty operands, n = 0 and n past len a + len b - 1."""
    got = _convolve(a, b, n)
    assert got == conv_window(a, b, n)
    assert all(type(c) is Fraction for c in got)


@pytest.mark.parametrize("size", [1, 2, 3, 7, 40])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
def test_kernel_at_the_slot_bound(size, signs):
    """Equal extreme coefficients: the middle product coefficient is
    exactly max|a| max|b| min(len a, len b), the bound the slot holds."""
    top = Fraction(2**61 - 1, 3)
    a = [signs[0] * top] * size
    b = [signs[1] * top] * (size + 2)
    n = 2 * size + 1
    got = _convolve(a, b, n)
    assert got == conv_window(a, b, n)
    assert signs[0] * signs[1] * top * top * size in got


@given(coeff_lists, coeff_lists, coeff_lists)
def test_series_ring_laws(a, b, c):
    win = min(len(a), len(b), len(c))
    sa = TruncatedSeries(a, win)
    sb = TruncatedSeries(b, win)
    sc = TruncatedSeries(c, win)
    assert sa * sb == sb * sa
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert sa + (-sa) == TruncatedSeries.zero(win)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=50), min_size=1, max_size=70
    )
)
def test_series_inverse_multiplies_back_to_one(a):
    """Orders past several Newton doublings, powers of 2 or not."""
    if a[0] == 0:
        with pytest.raises(ZeroConstantTerm):
            TruncatedSeries(a).invert()
        return
    s = TruncatedSeries(a)
    assert s * s.invert() == TruncatedSeries.constant(1, len(a))
    assert list(s.invert().coeffs) == long_div_inverse(a, len(a))


def test_polynomial_normal_form_and_degree():
    p = Polynomial([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert Polynomial.zero().degree == float("-inf")
    assert Polynomial.zero().is_zero()
    assert Polynomial.one().coeffs == (Fraction(1),)
    assert p.coefficient(17) == 0


@given(coeff_lists, coeff_lists)
def test_polynomial_product_matches_convolution_oracle(a, b):
    win = len(a) + len(b)
    p = Polynomial(a) * Polynomial(b)
    full = conv_window(a, b, win)
    assert [p.coefficient(k) for k in range(win)] == full


def test_polynomial_series_interplay():
    p = Polynomial([1, -2])
    s = TruncatedSeries([0, 1, 2, 3, 4])
    assert p.as_series(3) == TruncatedSeries([1, -2, 0], 3)
    prod = p.times_series(s)
    direct = p.as_series(s.order) * s
    assert prod.truncate(direct.order) == direct
    assert p.shift(2).coeffs == (Fraction(0), Fraction(0), Fraction(1), Fraction(-2))
    with pytest.raises(ValueError):
        p.shift(-1)


nonzero_fractions_st = fractions_st.filter(lambda c: c != 0)
# a polynomial w^v (c_0 + ... ) with v >= 1, c_0 != 0 and interior zeros
shifted_polys_st = st.tuples(
    st.integers(1, 4),
    nonzero_fractions_st,
    st.lists(st.one_of(st.just(Fraction(0)), fractions_st), max_size=6),
).map(lambda t: [Fraction(0)] * t[0] + [t[1]] + t[2])


@given(shifted_polys_st, coeff_lists)
def test_times_series_matches_convolution_on_valuation_window(p, s):
    poly = Polynomial(p)
    val = poly.valuation()
    assert val >= 1
    prod = poly.times_series(TruncatedSeries(s))
    assert prod.order == len(s) + val
    assert list(prod.coeffs) == conv_window(p, s, len(s) + val)


@given(
    st.lists(
        st.tuples(st.one_of(st.just([]), shifted_polys_st, coeff_lists), coeff_lists),
        min_size=1,
        max_size=4,
    )
)
def test_row_times_column_keeps_the_tightest_window(pairs):
    polys = [Polynomial(p) for p, _ in pairs]
    column = [TruncatedSeries(s) for _, s in pairs]
    got = row_times_column(polys, column)
    windows = [s.order + p.valuation() for p, s in zip(polys, column) if not p.is_zero()]
    win = min(windows) if windows else min(s.order for s in column)
    assert got.order == win
    want = [Fraction(0)] * win
    for p, s in pairs:
        want = [a + b for a, b in zip(want, conv_window(p, s, win))]
    assert list(got.coeffs) == want


def test_family_invariants():
    fam = SeriesFamily([TruncatedSeries([1, 0, 0]), TruncatedSeries([0, 2, 3])])
    assert fam.size == 2
    assert fam.order == 3
    assert fam.coefficient(1, 2) == 3
    assert fam.coefficient(1, -4) == 0
    with pytest.raises(InsufficientOrder):
        fam.coefficient(1, 3)
    with pytest.raises(BadNormalization):
        SeriesFamily([TruncatedSeries([2, 0]), TruncatedSeries([0, 1])])
    with pytest.raises(BadNormalization):
        SeriesFamily([TruncatedSeries([1, 5]), TruncatedSeries([0, 1])])
    with pytest.raises(BadNormalization):
        SeriesFamily([TruncatedSeries([1, 0]), TruncatedSeries([3, 1])])
    with pytest.raises(ValueError):
        SeriesFamily([TruncatedSeries([1, 0])])
    with pytest.raises(InsufficientOrder):
        SeriesFamily([TruncatedSeries([], 0), TruncatedSeries([], 0)])


def test_family_truncates_to_common_order():
    fam = SeriesFamily([TruncatedSeries([1, 0, 0, 0]), TruncatedSeries([0, 1, 1])])
    assert fam.order == 3
    assert fam.series(0).order == 3


def test_family_fingerprint_is_stable_and_sensitive():
    fam = SeriesFamily([TruncatedSeries([1, 0, 0]), TruncatedSeries([0, 1, 2])])
    twin = SeriesFamily([TruncatedSeries([1, 0, 0]), TruncatedSeries([0, 1, 2])])
    other = SeriesFamily([TruncatedSeries([1, 0, 0]), TruncatedSeries([0, 1, 3])])
    assert fam.fingerprint() == twin.fingerprint()
    assert fam.fingerprint() != other.fingerprint()
    assert len(fam.fingerprint()) == 16


@settings(max_examples=25)
@given(st.integers(2, 4), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_normalize_family_recovers_quotients(size, order, seed):
    rng = random.Random(seed)
    column = [
        TruncatedSeries(
            [1] + [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(order - 1)],
            order,
        )
    ]
    for _ in range(size - 1):
        column.append(
            TruncatedSeries(
                [0] + [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(order - 1)],
                order,
            )
        )
    fam = normalize_family(column)
    assert fam.size == size
    for i in range(1, size):
        assert fam.series(i) * column[0] == column[i]


def test_normalize_family_rejects_bad_top():
    good = TruncatedSeries([0, 1, 1])
    with pytest.raises(BadNormalization):
        normalize_family([TruncatedSeries([2, 0, 0]), good])
    with pytest.raises(BadNormalization):
        normalize_family([TruncatedSeries([1, 0, 0]), TruncatedSeries([1, 1, 1])])
    with pytest.raises(ValueError):
        normalize_family([TruncatedSeries([1, 0, 0])])
