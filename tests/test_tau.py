"""Block Toeplitz determinants, the exchange identity, and one-step shifts."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padetau.linalg
import padetau.tau
from helpers import (
    assert_identity,
    double_q_row_1,
    family_from_rows,
    fraction_bordered_forms,
    fraction_tau_forms,
    laplace_det,
    mixed_denominator_family,
    rand_family,
)
from padetau import (
    BadNormalization,
    ConsistencyError,
    DegenerateFamily,
    InsufficientOrder,
    MatrixSeries,
    SeriesFamily,
    TruncatedSeries,
    apply_schlesinger,
    bordered_determinant,
    characteristic_det,
    hermite_pade,
    key_identity_via_pfaffian,
    one_step_sign,
    remainder_coeff_via_det,
    schlesinger_shift_check,
    sylvester_toeplitz_check,
    tau_determinant,
    tau_quotient_table,
)
from padetau.reports import series_file_to_family
from test_golden import DEGENERATE_LEVEL, SWAP_IN_GROUP


def arithmetic_family(order: int, size: int = 2) -> SeriesFamily:
    rows = [[1] + [0] * (order - 1)]
    for i in range(1, size):
        rows.append([k**i if k else 0 for k in range(order)])
    return family_from_rows(rows)


def geometric_family(order: int) -> SeriesFamily:
    return family_from_rows([[1] + [0] * (order - 1), [0] + [1] * (order - 1)])


def full_toeplitz_oracle(fam: SeriesFamily, n: int) -> Fraction:
    """D_n straight from its definition, by Laplace expansion."""
    size = fam.size
    ln = size * n
    rows = []
    for r in range(ln):
        row = []
        for j in range(size):
            for c in range(n):
                k = r - c
                row.append(fam.coefficient(j, k) if k >= 0 else Fraction(0))
        rows.append(row)
    return laplace_det(rows)


def bordered_oracle(fam: SeriesFamily, n: int, i: int, j: int) -> Fraction:
    """E^{i,j}_n straight from its definition, by Laplace expansion."""
    size = fam.size
    ln = size * n

    def block_row(r_offset_pairs):
        row = []
        for t in range(size):
            width = n + 1 if t == i else n
            for c in range(width):
                k = r_offset_pairs[t] - c
                row.append(fam.coefficient(t, k) if k >= 0 else Fraction(0))
        return row

    rows = []
    for r in range(ln):
        offs = [r + (1 if t == i else 0) for t in range(size)]
        rows.append(block_row(offs))
    border = [ln + j - 1 + (1 if t == i else 0) for t in range(size)]
    rows.append(block_row(border))
    return laplace_det(rows)


# ---------------------------------------------------------------------------
# determinants


def test_tau_determinant_hand_values():
    fam = arithmetic_family(8)
    assert tau_determinant(fam, 0) == 1
    assert tau_determinant(fam, 1) == 1
    assert tau_determinant(fam, 2) == 1
    assert bordered_determinant(fam, 1, 1, 1) == 1
    assert bordered_determinant(fam, 1, 1, 2) == 2


def test_tau_determinant_matches_laplace_oracle():
    for size, n, seed in [(2, 1, 0), (2, 2, 1), (3, 1, 2), (2, 3, 3), (3, 2, 4)]:
        rng = random.Random(seed)
        fam = rand_family(rng, size, size * n + 1)
        assert tau_determinant(fam, n) == full_toeplitz_oracle(fam, n)


def test_bordered_determinant_matches_laplace_oracle():
    for size, n, seed in [(2, 1, 0), (2, 2, 1), (3, 1, 2)]:
        rng = random.Random(seed)
        fam = rand_family(rng, size, size * n + 4)
        for i in range(1, size):
            for j in (1, 2):
                assert bordered_determinant(fam, n, i, j) == bordered_oracle(
                    fam, n, i, j
                )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(0, 4),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_integer_route_equals_fraction_route(size, n, seed, with_zero_member):
    """D_n and E^{i,j}_n equal both forms of the Fraction-matrix route."""
    rng = random.Random(seed)
    zero_member = rng.randint(1, size - 1) if with_zero_member else None
    fam = mixed_denominator_family(rng, size, size * n + 3, zero_member)
    full, reduced = fraction_tau_forms(fam, n)
    assert tau_determinant(fam, n) == full == reduced
    if zero_member is not None and n > 0:
        assert full == 0
    for i in range(1, size):
        for j in (1, 2):
            full, reduced = fraction_bordered_forms(fam, n, i, j)
            assert bordered_determinant(fam, n, i, j) == full == reduced


def test_integer_route_on_the_geometric_family():
    fam = geometric_family(12)
    for n in range(5):
        full, reduced = fraction_tau_forms(fam, n)
        assert tau_determinant(fam, n) == full == reduced
        for j in (1, 2, 3):
            full, reduced = fraction_bordered_forms(fam, n, 1, j)
            assert bordered_determinant(fam, n, 1, j) == full == reduced
    assert tau_determinant(fam, 2) == 0


def test_determinant_preconditions():
    fam = arithmetic_family(4)
    with pytest.raises(InsufficientOrder):
        tau_determinant(fam, 3)
    with pytest.raises(InsufficientOrder):
        bordered_determinant(fam, 1, 1, 2)
    with pytest.raises(ValueError):
        bordered_determinant(fam, 1, 0, 1)
    with pytest.raises(ValueError):
        bordered_determinant(fam, 1, 2, 1)
    with pytest.raises(ValueError):
        bordered_determinant(fam, 1, 1, 0)
    with pytest.raises(ValueError):
        tau_determinant(fam, -1)


# ---------------------------------------------------------------------------
# remainder coefficients, dual route


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_remainder_coeff_det_route_equals_series_route(size, n, seed):
    rng = random.Random(seed)
    ln = size * n
    fam = rand_family(rng, size, ln + 4)
    try:
        hp = hermite_pade(fam, n)
    except DegenerateFamily:
        return
    for i in range(1, size):
        for j in (1, 2, 3):
            assert remainder_coeff_via_det(fam, n, i, j) == hp.remainders[
                i
            ].coefficient(ln + j)


def test_remainder_coeff_raises_on_degenerate():
    fam = family_from_rows([[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    with pytest.raises(DegenerateFamily):
        remainder_coeff_via_det(fam, 1, 1, 1)


# ---------------------------------------------------------------------------
# exchange identity


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_exchange_identity_on_randoms(size, n, seed):
    rng = random.Random(seed)
    fam = rand_family(rng, size, size * n + n + 3)
    rep = sylvester_toeplitz_check(fam, n)
    assert_identity(rep)
    # The table and the minor-table proof build the same report from the
    # D_n and E^{i,j}_n values they already hold.
    assert tau_quotient_table(fam, n + 1).exchange[n - 1] == rep
    assert key_identity_via_pfaffian(fam, n).exchange == rep


def test_exchange_identity_degenerate_both_sides_zero():
    fam = geometric_family(9)
    rep = sylvester_toeplitz_check(fam, 1)
    assert rep.lhs == 0 and rep.rhs == 0 and rep.holds
    table = tau_quotient_table(fam, 4)
    assert 2 in table.degenerate
    assert len(table.exchange) == 3
    for n in (1, 2, 3):
        rep = sylvester_toeplitz_check(fam, n)
        assert table.exchange[n - 1] == rep
        assert key_identity_via_pfaffian(fam, n).exchange == rep


# ---------------------------------------------------------------------------
# quotient tables


def test_quotient_table_arithmetic():
    fam = arithmetic_family(8)
    table = tau_quotient_table(fam, 2)
    assert table.dets == ((0, Fraction(1)), (1, Fraction(1)), (2, Fraction(1)))
    assert table.ratios == ((0, Fraction(1)), (1, Fraction(1)))
    assert table.degenerate == ()
    assert table.fingerprint == fam.fingerprint()
    assert table.exchange == (sylvester_toeplitz_check(fam, 1),)
    assert tau_quotient_table(fam, 1).exchange == ()


def test_quotient_table_geometric_degeneracy_is_data():
    fam = geometric_family(9)
    table = tau_quotient_table(fam, 3)
    assert table.dets[:2] == ((0, Fraction(1)), (1, Fraction(1)))
    assert table.degenerate == (2, 3)
    assert all(n not in (2, 3) for n, _ in table.ratios)


def test_quotient_table_order_precondition():
    with pytest.raises(InsufficientOrder):
        tau_quotient_table(arithmetic_family(5), 3)


# ---------------------------------------------------------------------------
# the table from one elimination per form, against the per-level route


def per_level_table(fam: SeriesFamily, n_max: int):
    """dets, ratios, degenerate and exchange, one determinant at a time."""
    dets = tuple((n, tau_determinant(fam, n)) for n in range(n_max + 1))
    ratios = tuple((n, dets[n + 1][1] / d) for n, d in dets[:-1] if d != 0)
    degenerate = tuple(n for n, d in dets if d == 0)
    exchange = tuple(sylvester_toeplitz_check(fam, n) for n in range(1, n_max))
    return dets, ratios, degenerate, exchange


def assert_table_matches_per_level_route(fam: SeriesFamily, n_max: int) -> None:
    table = tau_quotient_table(fam, n_max)
    got = (table.dets, table.ratios, table.degenerate, table.exchange)
    assert got == per_level_table(fam, n_max)
    # Each pass, read alone, gives every value it reaches exactly.
    for reduced in (False, True):
        dets, grids = padetau.tau._tau_pass(fam, n_max, reduced)
        reach = len(dets)
        assert dets == [d for _, d in table.dets[1 : reach + 1]]
        assert reach == n_max or table.dets[reach + 1][1] == 0
        assert len(grids) == min(reach, n_max - 1)
        for n, grid in enumerate(grids, start=1):
            assert grid == [
                [bordered_determinant(fam, n, i, j) for j in range(1, fam.size)]
                for i in range(1, fam.size)
            ]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from((1, 2, 9)),
    st.booleans(),
)
def test_table_equals_per_level_route(size, n_max, seed, span, with_zero_member):
    """Spans of 1 and 2 make zero D_n common, at any level."""
    rng = random.Random(seed)
    zero_member = rng.randint(1, size - 1) if with_zero_member else None
    fam = mixed_denominator_family(rng, size, size * n_max + rng.randint(0, 1), zero_member, span)
    assert_table_matches_per_level_route(fam, n_max)


# (size, n_max, seed, first zero D_n) for mixed_denominator_family at span 1
ZERO_LEVELS = [
    (2, 4, 0, 1),
    (2, 4, 14, 2),
    (2, 4, 18, 4),
    (3, 4, 0, 1),
    (3, 4, 1, 2),
    (3, 4, 1579, 4),
    (4, 4, 61, 2),
    (5, 3, 0, 1),
    (5, 3, 1050, 2),
    (5, 3, 1076, 3),
]


@pytest.mark.parametrize("size, n_max, seed, first_zero", ZERO_LEVELS)
def test_table_from_a_zero_level_on(size, n_max, seed, first_zero):
    fam = mixed_denominator_family(random.Random(seed), size, size * n_max, span=1)
    assert_table_matches_per_level_route(fam, n_max)
    assert tau_quotient_table(fam, n_max).degenerate[0] == first_zero


def test_table_at_the_degenerate_level():
    fam = series_file_to_family(DEGENERATE_LEVEL)
    assert_table_matches_per_level_route(fam, 4)
    assert tau_quotient_table(fam, 4).degenerate == (2,)


def test_row_swap_inside_a_group(monkeypatch):
    """b^1_1 = 0 with D_1 != 0: both forms swap rows inside the first group,
    so the sign at the first group boundary is -1 in each pass."""
    fam = series_file_to_family(SWAP_IN_GROUP)
    assert fam.coefficient(1, 1) == 0 and tau_determinant(fam, 1) != 0
    signs = []
    honest = padetau.linalg.bareiss

    def spy(a, n, group=None, visit=None):
        def recorded(k, sign):
            signs.append((group, k, sign))
            visit(k, sign)

        return honest(a, n, group, recorded if visit else None)

    monkeypatch.setattr(padetau.linalg, "bareiss", spy)
    assert_table_matches_per_level_route(fam, 4)
    assert (3, 3, -1) in signs and (2, 2, -1) in signs


@pytest.mark.parametrize("n_max", [1, 2, 5])
def test_table_for_two_members(n_max):
    """L = 2: the exchange grid is 1 x 1 and the reduced form swaps nothing."""
    fam = rand_family(random.Random(n_max), 2, 2 * n_max)
    assert_table_matches_per_level_route(fam, n_max)


@pytest.mark.parametrize("size, n_max", [(2, 1), (2, 4), (3, 3), (4, 2), (5, 2)])
def test_table_at_the_order_edge(size, n_max):
    """order = L n_max is enough; the full form's last column -1 entry,
    which would read b^i_{L n_max}, is never needed."""
    rng = random.Random(size * 10 + n_max)
    fam = mixed_denominator_family(rng, size, size * n_max)
    assert_table_matches_per_level_route(fam, n_max)
    short = fam.truncate(size * n_max - 1)
    with pytest.raises(InsufficientOrder) as exc:
        tau_quotient_table(short, n_max)
    assert str(exc.value) == f"need order >= {size * n_max}; have {size * n_max - 1}"


def test_pass_disagreement_names_the_value(monkeypatch):
    """A reduced-pass E that drifts names E^(i,j)_n with both values."""
    honest = padetau.tau._tau_pass

    def drifted(fam, n_max, reduced):
        dets, grids = honest(fam, n_max, reduced)
        if reduced:
            grids[1][0][1] += 1
        return dets, grids

    monkeypatch.setattr(padetau.tau, "_tau_pass", drifted)
    fam = mixed_denominator_family(random.Random(4), 3, 12)
    want = bordered_determinant(fam, 2, 1, 2)
    with pytest.raises(ConsistencyError) as exc:
        tau_quotient_table(fam, 4)
    assert str(exc.value) == f"E^(1,2)_2: full {want} != reduced {want + 1}"


# ---------------------------------------------------------------------------
# one-step sign and the transformed family


def test_one_step_sign_closed_form():
    for size in range(2, 7):
        for n in range(1, 7):
            closed = -1 if (n * size * (size - 1) // 2) % 2 else 1
            assert one_step_sign(size, n) == closed


def test_apply_schlesinger_worked_instance():
    fam = arithmetic_family(10)
    out = apply_schlesinger(fam, 1)
    assert out.order == 7
    assert out.series(1) == TruncatedSeries([0, -1], 7)
    d_new = tau_determinant(out, 1)
    s = one_step_sign(2, 1)
    assert s == -1
    assert d_new == -1
    assert d_new == s * tau_determinant(fam, 2) / tau_determinant(fam, 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_transformed_first_determinant_is_signed_quotient(size, n, seed):
    rng = random.Random(seed)
    ln = size * n
    fam = rand_family(rng, size, ln + size + 2)
    try:
        d_n = tau_determinant(fam, n)
        d_next = tau_determinant(fam, n + 1)
        out = apply_schlesinger(fam, n)
        d_new = tau_determinant(out, 1)
    except (DegenerateFamily, InsufficientOrder):
        return
    if d_n == 0:
        return
    assert d_new == one_step_sign(size, n) * d_next / d_n


# ---------------------------------------------------------------------------
# matrix series and the exponent-shift check


def unit_phi(order: int = 8) -> MatrixSeries:
    return MatrixSeries(
        [
            [TruncatedSeries([1] + [0] * (order - 1)), TruncatedSeries([0, 1], order)],
            [
                TruncatedSeries([0] + list(range(1, order)), order),
                TruncatedSeries([1] + [0] * (order - 1)),
            ],
        ]
    )


def test_matrix_series_contracts():
    phi = unit_phi()
    assert phi.size == 2
    assert phi.order == 8
    assert phi.entry(0, 1) == TruncatedSeries([0, 1], 8)
    assert len(phi.first_column()) == 2
    with pytest.raises(BadNormalization):
        MatrixSeries([[TruncatedSeries([2, 0])] * 2] * 2)
    with pytest.raises(ValueError):
        MatrixSeries([[TruncatedSeries([1, 0])]] * 2)


def test_characteristic_det_routes_agree():
    phi = unit_phi()
    assert characteristic_det(phi) == 1
    with pytest.raises(InsufficientOrder):
        characteristic_det(
            MatrixSeries(
                [
                    [TruncatedSeries([1]), TruncatedSeries([0])],
                    [TruncatedSeries([0]), TruncatedSeries([1])],
                ]
            )
        )


def test_shift_check_on_handmade_series():
    rep = schlesinger_shift_check(unit_phi(), 1)
    assert rep.holds
    assert rep.det_r_one
    assert rep.available >= 1
    assert rep.failures == ()


def test_shift_check_reports_det_r_not_one(monkeypatch):
    monkeypatch.setattr(
        padetau.tau, "hermite_pade", lambda fam, n: double_q_row_1(hermite_pade(fam, n))
    )
    rep = schlesinger_shift_check(unit_phi(), 1)
    assert not rep.det_r_one
    assert not rep.holds


def test_shift_check_needs_room_past_the_shift():
    phi = unit_phi(3)
    with pytest.raises(InsufficientOrder):
        schlesinger_shift_check(phi, 1)
