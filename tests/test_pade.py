"""Type-I tables, the dual table, and the gauge matrix R(x)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cofactor_adjugate,
    cofactor_det,
    conv_window,
    double_q_row_1,
    family_from_rows,
    fraction_tau_forms,
    fraction_type_one_rows,
    fraction_type_one_systems,
    laplace_det,
    mixed_denominator_family,
    rand_family,
    rand_frac,
)
from padetau import (
    DegenerateFamily,
    InsufficientOrder,
    Polynomial,
    PolyMatrix,
    TruncatedSeries,
    det_exact,
    hermite_pade,
    mahler_duality_check,
    q_matrix,
    schlesinger_matrix,
    simultaneous_pade,
    tau_determinant,
)
from padetau.reports import series_file_to_family
from test_golden import DEGENERATE_LEVEL


def poly_eval(p: Polynomial, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def P(*coeffs) -> Polynomial:
    return Polynomial(list(coeffs))


# ---------------------------------------------------------------------------
# worked examples, solved by hand


def test_monomial_member_table():
    fam = family_from_rows([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])
    res = hermite_pade(fam, 1)
    assert res.q_table[0] == (P(), P(1))
    assert res.q_table[1] == (P(-1), P(1))
    assert res.remainders[0] == TruncatedSeries([0, 0, 1], 7)
    assert res.remainders[1].is_zero()
    assert res.vanishing == (1,)

    qm = q_matrix(res)
    assert qm.entries == ((P(), P(0, 1)), (P(0, -1), P(1)))
    pm = simultaneous_pade(res)
    assert pm.entries == ((P(1), P(0, 1)), (P(0, -1), P()))
    assert mahler_duality_check(qm, pm, 1)

    rm = schlesinger_matrix(res)
    assert rm.entries == ((P(), P(1)), (P(-1), P(0, 1)))
    assert rm.det() == Polynomial.one()


def test_arithmetic_member_table():
    order = 8
    fam = family_from_rows(
        [[1] + [0] * (order - 1), [0] + list(range(1, order))]
    )
    res = hermite_pade(fam, 1)
    assert res.q_table[0] == (P(), P(1))
    assert res.q_table[1] == (P(-1), P(1, -2))
    assert list(res.remainders[0].coeffs) == [0, 0] + list(range(1, order))
    assert list(res.remainders[1].coeffs[:6]) == [0, 0, 0, -1, -2, -3]
    assert res.vanishing == ()

    pm = simultaneous_pade(res)
    assert pm.entries == ((P(1, -2), P(0, 1)), (P(0, -1), P()))
    rm = schlesinger_matrix(res)
    assert rm.entries == ((P(), P(1)), (P(-1), P(-2, 1)))


# ---------------------------------------------------------------------------
# contracts


def test_order_precondition():
    fam = family_from_rows([[1, 0, 0], [0, 1, 1]])
    with pytest.raises(InsufficientOrder):
        hermite_pade(fam, 1)
    with pytest.raises(ValueError):
        hermite_pade(family_from_rows([[1, 0, 0, 0], [0, 1, 1, 1]]), 0)


def test_degenerate_family_is_named():
    fam = family_from_rows([[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    with pytest.raises(DegenerateFamily) as exc:
        hermite_pade(fam, 1)
    assert "type-I system determinant" in str(exc.value)


# ---------------------------------------------------------------------------
# the reduced elimination against the Fraction route of B and B0


def small_integer_family(rng: random.Random, size: int, order: int):
    """Coefficients in {0, 1, -1} and a few rationals: D_n = 0 is common."""
    rows = [[1] + [0] * (order - 1)]
    for _ in range(size - 1):
        rows.append([0] + [rng.choice((0, 0, 1, -1, rand_frac(rng))) for _ in range(order - 1)])
    return family_from_rows(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_type_one_table_matches_fraction_route(size, n, seed, with_zero_member):
    """Mixed denominators per member, optionally one identically zero member."""
    rng = random.Random(seed)
    zero_member = rng.randint(1, size - 1) if with_zero_member else None
    fam = mixed_denominator_family(rng, size, size * n + rng.randint(2, 4), zero_member)
    try:
        expected = fraction_type_one_rows(fam, n)
    except DegenerateFamily as exc:
        with pytest.raises(DegenerateFamily) as got:
            hermite_pade(fam, n)
        assert str(got.value) == str(exc)
        return
    assert hermite_pade(fam, n).q_table == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_degenerate_exactly_when_tau_determinant_vanishes(size, n, seed):
    fam = small_integer_family(random.Random(seed), size, size * n + 2)
    if tau_determinant(fam, n) == 0:
        with pytest.raises(DegenerateFamily, match="type-I system determinant"):
            hermite_pade(fam, n)
    else:
        hermite_pade(fam, n)


def test_degenerate_level_raises_only_at_n_2():
    """D_1 = -4, D_2 = 0, D_3 = -8 for this L = 3 family."""
    fam = series_file_to_family(DEGENERATE_LEVEL)
    assert [tau_determinant(fam, n) for n in (1, 2, 3)] == [-4, 0, -8]
    for n in (1, 3):
        assert hermite_pade(fam, n).q_table == fraction_type_one_rows(fam, n)
    with pytest.raises(DegenerateFamily, match=": type-I system determinant = 0$"):
        hermite_pade(fam, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_bordered_type_one_system_has_determinant_d_n(size, n, seed, small):
    """det B0 = det B = D_n: expand both along their f_0 columns."""
    rng = random.Random(seed)
    if small:
        fam = small_integer_family(rng, size, size * n + 2)
    else:
        fam = mixed_denominator_family(rng, size, size * n + 2)
    b, b0 = fraction_type_one_systems(fam, n)
    full, reduced = fraction_tau_forms(fam, n)
    assert det_exact(b0) == det_exact(b) == full == reduced


# ---------------------------------------------------------------------------
# structural properties on random families


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_table_structure(size, n, seed):
    rng = random.Random(seed)
    fam = rand_family(rng, size, size * n + 3)
    ln = size * n
    try:
        res = hermite_pade(fam, n)
    except DegenerateFamily:
        return

    for i in range(size):
        for j in range(size):
            bound = n - 1 + (1 if i == j else 0)
            assert res.q_table[i][j].degree <= bound
        if i >= 1:
            assert res.q_table[i][i].coefficient(0) == 1

    # remainder rho^i recomputed with the convolution oracle
    for i in range(size):
        rho = res.remainders[i]
        win = rho.order
        acc = [Fraction(0)] * win
        for j in range(size):
            coeffs = list(res.q_table[i][j].coeffs)
            weighted = coeffs if j == i else [Fraction(0)] + coeffs
            fj = [Fraction(1)] if j == 0 else list(fam.series(j).coeffs)
            term = conv_window(weighted, fj, win)
            acc = [a + t for a, t in zip(acc, term)]
        assert acc == list(rho.coeffs)

    assert res.remainders[0].coefficient(ln) == 1
    assert all(res.remainders[0].coefficient(k) == 0 for k in range(ln))
    for i in range(1, size):
        assert all(res.remainders[i].coefficient(k) == 0 for k in range(ln + 1))


def test_remainder_window_grows_with_row_0_valuation():
    # f_1 = w^2, n = 2: Q^(0) = (0, w), so rho^0 = w * w * f_1 = w^4 is
    # trusted to 7 + 1 + val(w) = 9; rho^1 keeps the family's order 7.
    fam = family_from_rows([[1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0]])
    res = hermite_pade(fam, 2)
    assert res.q_table[0] == (P(), P(0, 1))
    assert res.remainders[0] == TruncatedSeries([0, 0, 0, 0, 1], 9)
    assert res.remainders[1].order == 7


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_remainder_trust_windows(size, n, seed):
    """The windows `approx --emit remainders` prints: rows i >= 1 keep the
    family's order (Q^(i)_i(0) = 1); row 0 gains 1 + min val(Q^(0)_j)."""
    rng = random.Random(seed)
    order = size * n + rng.randint(2, 4)
    rows = [[1] + [0] * (order - 1)]
    for _ in range(size - 1):
        rows.append([0] + [rng.choice((0, 0, 1, -1, rand_frac(rng))) for _ in range(order - 1)])
    fam = family_from_rows(rows)
    try:
        res = hermite_pade(fam, n)
    except DegenerateFamily:
        return
    for i in range(1, size):
        assert res.remainders[i].order == fam.order
    vals = [p.valuation() for p in res.q_table[0][1:] if not p.is_zero()]
    assert res.remainders[0].order == fam.order + 1 + min(vals)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_duality_and_gauge_on_randoms(size, n, seed):
    rng = random.Random(seed)
    fam = rand_family(rng, size, size * n + 2)
    try:
        res = hermite_pade(fam, n)
        pm = simultaneous_pade(res)
    except DegenerateFamily:
        return
    qm = q_matrix(res)
    assert mahler_duality_check(qm, pm, n)
    assert schlesinger_matrix(res).det() == Polynomial.one()


def test_schlesinger_matrix_keeps_a_broken_normalization():
    order = 8
    fam = family_from_rows([[1] + [0] * (order - 1), [0] + list(range(1, order))])
    res = hermite_pade(fam, 1)
    rm = schlesinger_matrix(double_q_row_1(res))
    two = Polynomial([2])
    assert rm.entries[1] == tuple(e * two for e in schlesinger_matrix(res).entries[1])
    assert rm.det() == two


# ---------------------------------------------------------------------------
# polynomial matrices


def test_poly_matrix_identities():
    one = PolyMatrix.identity(3)
    mono = PolyMatrix.monomial_identity(3, 4)
    assert mono.entry(0, 0) == Polynomial([0, 0, 0, 0, 1])
    assert mono.entry(0, 1).is_zero()
    assert one * mono == mono
    assert mono.transpose() == mono


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)
def test_poly_det_matches_scalar_oracle_at_points(size, seed, x0):
    rng = random.Random(seed)
    pm = PolyMatrix(
        [
            [
                Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
                for _ in range(size)
            ]
            for _ in range(size)
        ]
    )
    lhs = poly_eval(pm.det(), x0)
    rhs = laplace_det([[poly_eval(pm.entry(i, j), x0) for j in range(size)] for i in range(size)])
    assert lhs == rhs
    prod = pm * pm.adjugate()
    det = pm.det()
    for i in range(size):
        for j in range(size):
            assert prod.entry(i, j) == (det if i == j else Polynomial.zero())


def _poly_lists(pm: PolyMatrix) -> list[list[list[Fraction]]]:
    return [[list(e.coeffs) for e in row] for row in pm.entries]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(0, 3),
    st.sampled_from(("none", "row", "column")),
    st.integers(0, 2**32 - 1),
)
def test_poly_det_and_adjugate_match_cofactor_oracle(size, max_degree, zero, seed):
    """Entry by entry against cofactor expansion: rational coefficients,
    mixed degrees up to max_degree (0: constants only), zero entries, and
    optionally a whole zero row or zero column."""
    rng = random.Random(seed)
    rows = [
        [
            [rand_frac(rng, 5, 3) for _ in range(rng.randint(0, max_degree + 1))]
            for _ in range(size)
        ]
        for _ in range(size)
    ]
    if zero == "row":
        rows[rng.randrange(size)] = [[] for _ in range(size)]
    elif zero == "column":
        c = rng.randrange(size)
        for row in rows:
            row[c] = []
    pm = PolyMatrix([[Polynomial(e) for e in row] for row in rows], var="x")
    assert list(pm.det().coeffs) == cofactor_det(_poly_lists(pm))
    adj = pm.adjugate()
    assert adj.var == "x"
    assert _poly_lists(adj) == cofactor_adjugate(_poly_lists(pm))
    # det read off the adjugate's evaluations (row-0 expansion)
    det, adj_too = pm._det_and_adjugate()
    assert list(det.coeffs) == cofactor_det(_poly_lists(pm))
    assert adj_too == adj


def test_poly_adjugate_degree_bound_with_zero_row():
    """A zero row must count degree 0 in the bound: adj keeps w^3."""
    pm = PolyMatrix([[P(0, 0, 0, 1), P(1)], [P(), P()]])
    assert pm.det() == Polynomial.zero()
    assert pm.adjugate().entries == ((P(), P(-1)), (P(), P(0, 0, 0, 1)))


def test_poly_det_and_adjugate_small_cases():
    empty = PolyMatrix([])
    assert empty.det() == Polynomial.one()
    assert empty.adjugate() == empty
    assert empty._det_and_adjugate() == (Polynomial.one(), empty)
    single = PolyMatrix([[P(Fraction(1, 2), 0, 3)]])
    assert single.det() == P(Fraction(1, 2), 0, 3)
    assert single.adjugate() == PolyMatrix([[P(1)]])
    assert PolyMatrix([[P()]]).adjugate() == PolyMatrix([[P(1)]])
