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
    poly_matrix_mul,
    rand_family,
    rand_frac,
)
from padetau import (
    DegenerateFamily,
    InsufficientOrder,
    MahlerDuality,
    Polynomial,
    PolyMatrix,
    TruncatedSeries,
    det_exact,
    hermite_pade,
    mahler_duality,
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
    assert mahler_duality(qm, pm, 1).holds

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
    assert mahler_duality(qm, pm, n).holds
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
    prod = poly_matrix_mul(_poly_lists(pm), _poly_lists(pm.adjugate()))
    det = list(pm.det().coeffs)
    for i in range(size):
        for j in range(size):
            assert prod[i][j] == (det if i == j else [])


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


# ---------------------------------------------------------------------------
# Mahler duality: the product Q P^T by evaluation


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def _monomial_identity(size: int, power: int) -> list[list[list[Fraction]]]:
    mono = [Fraction(0)] * power + [Fraction(1)]
    return [[mono if i == j else [] for j in range(size)] for i in range(size)]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(0, 3),
    st.integers(0, 4),
    st.sampled_from(("none", "a", "b")),
    st.integers(0, 2**32 - 1),
)
def test_mahler_duality_product_matches_schoolbook_oracle(size, a_degree, b_degree, zero_row, seed):
    """Entry by entry against the convolution route: each row draws its
    own denominator bound in 1..9, entries are often zero, a whole row of
    a or b may be zero, degree 0 gives constant-only matrices, and a and b
    draw their degrees independently."""
    rng = random.Random(seed)

    def rows(max_degree):
        out = []
        for _ in range(size):
            den = rng.randint(1, 9)
            row = []
            for _ in range(size):
                length = rng.randint(1, max_degree + 1) if rng.random() < 0.7 else 0
                row.append([rand_frac(rng, 9, den) for _ in range(length)])
            out.append(row)
        return out

    a, b = rows(a_degree), rows(b_degree)
    if zero_row != "none":
        (a if zero_row == "a" else b)[rng.randrange(size)] = [[] for _ in range(size)]
    qm = PolyMatrix([[Polynomial(e) for e in row] for row in a])
    pm = PolyMatrix([[Polynomial(e) for e in row] for row in b])
    n = rng.randint(0, 2)
    duality = mahler_duality(qm, pm, n)
    expected = poly_matrix_mul(_poly_lists(qm), _transpose(_poly_lists(pm)))
    assert _poly_lists(duality.product) == expected
    assert duality.product.var == "w"
    assert _poly_lists(duality.target) == _monomial_identity(size, n * size)
    assert duality.holds == (expected == _monomial_identity(size, n * size))


def test_mahler_duality_reads_false_on_a_broken_normalization():
    """Row 1 of Q doubled: the product is exact and differs from w^{nL} I
    in entry (1, 1) alone."""
    order = 8
    fam = family_from_rows([[1] + [0] * (order - 1), [0] + list(range(1, order))])
    res = hermite_pade(fam, 1)
    duality = mahler_duality(q_matrix(double_q_row_1(res)), simultaneous_pade(res), 1)
    assert not duality.holds
    assert duality.product.entries == ((P(0, 0, 1), P()), (P(), P(0, 0, 2)))
    assert duality.target.entries == ((P(0, 0, 1), P()), (P(), P(0, 0, 1)))

    rng = random.Random(5)
    for size, n in ((3, 1), (4, 2), (5, 1)):
        fam = mixed_denominator_family(rng, size, size * n + 2)
        res = hermite_pade(fam, n)
        duality = mahler_duality(q_matrix(double_q_row_1(res)), simultaneous_pade(res), n)
        expected = _monomial_identity(size, n * size)
        expected[1][1] = [2 * c for c in expected[1][1]]
        assert not duality.holds
        assert _poly_lists(duality.product) == expected


def test_mahler_duality_small_cases():
    empty = PolyMatrix([])
    assert mahler_duality(empty, empty, 3) == MahlerDuality(empty, empty, True)
    one = PolyMatrix([[P(0, 1)]])
    assert mahler_duality(one, one, 2).holds
    assert not mahler_duality(one, one, 1).holds
    with pytest.raises(ValueError):
        mahler_duality(one, PolyMatrix([[P(1), P()], [P(), P(1)]]), 1)
    with pytest.raises(ValueError):
        mahler_duality(one, PolyMatrix([[P(0, 1)]], var="x"), 2)
