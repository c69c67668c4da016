"""Formal expansion at irregular infinity and the worked rank-3 system."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padetau.ode
from helpers import exact_matrix_a_tilde, fraction_gauge_expansion, ode_residual_oracle
from padetau import (
    ConsistencyError,
    ExactMatrix,
    FinitePole,
    GaugeExpansion,
    InfinityExponentData,
    InsufficientOrder,
    InvalidPartition,
    MatrixSeries,
    NonDiagonalizableLeading,
    RationalODE,
    ResonantExponents,
    SeriesFamily,
    TruncatedSeries,
    ZeroParameter,
    accessory_count,
    expand_at_infinity,
    expansion_residual,
    gauge_expansion,
    gauge_residual,
    normalize_family,
    ode_from_dict,
    ode_to_dict,
    pii_system,
)

small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def M(rows) -> ExactMatrix:
    return ExactMatrix(rows)


# ---------------------------------------------------------------------------
# construction contracts


def test_ode_validation():
    d = M([[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        RationalODE(size=0, poles=(), infinity=(d,))
    with pytest.raises(ValueError):
        RationalODE(size=2, poles=(), infinity=())
    with pytest.raises(ValueError):
        RationalODE(size=2, poles=(), infinity=(M([[1]]),))
    with pytest.raises(ValueError):
        FinitePole(position=1, matrices=())
    pole = FinitePole(position="1/2", matrices=(d,))
    assert pole.position == Fraction(1, 2)
    assert pole.rank == 0
    with pytest.raises(ValueError):
        RationalODE(size=2, poles=(pole, pole), infinity=(d,))
    ode = RationalODE(size=2, poles=(pole,), infinity=(d, d))
    assert ode.rank_at_infinity == 2


def test_expand_guards():
    diag = M([[2, 0], [0, -1]])
    ode = RationalODE(size=2, poles=(), infinity=(diag,))
    with pytest.raises(ValueError):
        expand_at_infinity(ode, 0)
    with pytest.raises(NonDiagonalizableLeading):
        expand_at_infinity(
            RationalODE(size=2, poles=(), infinity=(M([[0, 1], [0, 0]]),)), 3
        )
    with pytest.raises(ResonantExponents):
        expand_at_infinity(
            RationalODE(size=2, poles=(), infinity=(M([[1, 0], [0, 1]]),)), 3
        )


# ---------------------------------------------------------------------------
# exactly solvable instances


def test_diagonal_system_expands_to_identity():
    # A(x) = diag(3, -2) x + diag(5, 7): pure exponential behaviour, Phi = I.
    ode = RationalODE(
        size=2,
        poles=(),
        infinity=(M([[-5, 0], [0, -7]]), M([[-3, 0], [0, 2]])),
    )
    phi, data = expand_at_infinity(ode, 6)
    eye = MatrixSeries(
        [
            [TruncatedSeries.constant(1 if a == b else 0, 6) for b in range(2)]
            for a in range(2)
        ]
    )
    assert phi == eye
    assert data.irregular == ((Fraction(-5), Fraction(-7)), (Fraction(-3), Fraction(2)))
    assert data.exponents == (Fraction(0), Fraction(0))
    ok, window = expansion_residual(ode, phi, data)
    assert ok and window == 6
    assert ode_residual_oracle(ode, phi, data)


def test_worked_rank_three_system():
    ode = pii_system(Fraction(1, 2), 0, -1, 1, 2)
    phi, data = expand_at_infinity(ode, 10)
    assert data.irregular[2] == (Fraction(-1), Fraction(1))
    assert data.irregular[1] == (Fraction(0), Fraction(0))
    assert data.irregular[0] == (Fraction(-1), Fraction(1))
    assert data.exponents == (Fraction(1, 2), Fraction(-1, 2))

    fam = normalize_family(phi.first_column())
    assert fam.coefficient(1, 1) == 1
    assert fam.coefficient(1, 2) == Fraction(-1, 2)
    assert fam.coefficient(1, 3) == Fraction(-1, 2)

    ok, window = expansion_residual(ode, phi, data)
    assert ok and window == 10
    assert ode_residual_oracle(ode, phi, data)


@settings(max_examples=15, deadline=None)
@given(
    small_fraction,
    small_fraction,
    small_fraction,
    st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(lambda u: u != 0),
    small_fraction,
)
def test_leading_family_coefficients_in_closed_form(theta, lam, mu, u, t):
    ode = pii_system(theta, lam, mu, u, t)
    phi, data = expand_at_infinity(ode, 5)
    fam = normalize_family(phi.first_column())
    assert fam.coefficient(1, 1) == -mu / u
    assert fam.coefficient(1, 2) == -(theta + lam * mu) / u
    assert fam.coefficient(1, 3) == mu * (mu + t) / (2 * u)
    assert data.irregular[2] == (Fraction(-1), Fraction(1))
    assert data.irregular[1] == (Fraction(0), Fraction(0))
    assert data.irregular[0] == (-t / 2, t / 2)
    assert data.exponents == (theta, -theta)
    ok, _ = expansion_residual(ode, phi, data)
    assert ok
    assert ode_residual_oracle(ode, phi, data)


def test_rank_three_zero_parameter_guard():
    with pytest.raises(ZeroParameter):
        pii_system(1, 0, 1, 0, 1)


def test_finite_pole_system_residual():
    ode = RationalODE(
        size=2,
        poles=(
            FinitePole(
                position=Fraction(1, 3),
                matrices=(M([[1, 2], [0, -1]]), M([["1/2", 0], [1, 1]])),
            ),
        ),
        infinity=(M([[-2, 0], [0, 3]]),),
    )
    phi, data = expand_at_infinity(ode, 8)
    ok, window = expansion_residual(ode, phi, data)
    assert ok and window == 8
    assert ode_residual_oracle(ode, phi, data)


def test_residual_needs_two_orders():
    ode = RationalODE(size=2, poles=(), infinity=(M([[1, 0], [0, -1]]),))
    phi, data = expand_at_infinity(ode, 1)
    with pytest.raises(InsufficientOrder):
        expansion_residual(ode, phi, data)
    with pytest.raises(InsufficientOrder):
        gauge_residual(ode, gauge_expansion(ode, 1))
    with pytest.raises(ValueError):
        gauge_expansion(ode, 0)


# ---------------------------------------------------------------------------
# the gauge route (Psi, S) against the Phi route as its oracle


@st.composite
def finite_pole_systems(draw):
    """L = 2 or 3, rank 1 or 2 at infinity, one or two finite poles."""
    size = draw(st.sampled_from((2, 3)))
    r = draw(st.integers(1, 2))

    def matrix():
        return M([[draw(small_fraction) for _ in range(size)] for _ in range(size)])

    lead = draw(st.lists(small_fraction, min_size=size, max_size=size, unique=True))
    leading = M([[lead[a] if a == b else 0 for b in range(size)] for a in range(size)])
    infinity = tuple(matrix() for _ in range(r - 1)) + (leading,)
    positions = draw(st.lists(small_fraction, min_size=1, max_size=2, unique=True))
    poles = tuple(
        FinitePole(
            position=a,
            matrices=tuple(matrix() for _ in range(draw(st.integers(1, 2)))),
        )
        for a in positions
    )
    return RationalODE(size=size, poles=poles, infinity=infinity)


@st.composite
def pii_systems(draw):
    theta, lam, mu, t = (draw(small_fraction) for _ in range(4))
    u = draw(small_fraction.filter(lambda v: v != 0))
    return pii_system(theta, lam, mu, u, t)


def assert_gauge_matches_phi_route(ode, order):
    gauge = gauge_expansion(ode, order)
    phi, data = expand_at_infinity(ode, order)
    assert gauge.exponents == data
    assert gauge.psi.order == order
    assert all(s.order == ode.rank_at_infinity + order for s in gauge.s)
    assert SeriesFamily(gauge.psi.first_column()) == normalize_family(phi.first_column())
    assert gauge_residual(ode, gauge) == expansion_residual(ode, phi, data) == (True, order)
    assert ode_residual_oracle(ode, phi, data)


@settings(max_examples=15, deadline=None)
@given(pii_systems(), st.integers(2, 12))
def test_gauge_family_matches_phi_route_on_pii(ode, order):
    assert_gauge_matches_phi_route(ode, order)


@settings(max_examples=15, deadline=None)
@given(finite_pole_systems(), st.integers(2, 7))
def test_gauge_family_matches_phi_route_with_poles(ode, order):
    assert_gauge_matches_phi_route(ode, order)


def bump(series: TruncatedSeries, k: int) -> TruncatedSeries:
    coeffs = list(series.coeffs)
    coeffs[k] += 1
    return TruncatedSeries(coeffs, series.order)


def with_psi_bumped(gauge: GaugeExpansion, a: int, b: int, k: int) -> GaugeExpansion:
    size = gauge.psi.size
    entries = [
        [
            bump(gauge.psi.entry(i, j), k) if (i, j) == (a, b) else gauge.psi.entry(i, j)
            for j in range(size)
        ]
        for i in range(size)
    ]
    return GaugeExpansion(MatrixSeries(entries), gauge.s, gauge.exponents)


def with_s_bumped(gauge: GaugeExpansion, b: int, k: int) -> GaugeExpansion:
    s = tuple(bump(sb, k) if j == b else sb for j, sb in enumerate(gauge.s))
    return GaugeExpansion(gauge.psi, s, gauge.exponents)


MUTATION_SYSTEMS = [
    pii_system(Fraction(1, 2), 0, -1, 1, 2),
    RationalODE(
        size=3,
        poles=(
            FinitePole(
                position=Fraction(1, 3),
                matrices=(
                    M([[1, 2, 0], [0, -1, 1], [1, 0, 2]]),
                    M([["1/2", 0, 1], [1, 1, 0], [0, 2, 1]]),
                ),
            ),
        ),
        infinity=(M([[1, 0, 2], [0, 3, 1], [1, 1, 0]]), M([[-2, 0, 0], [0, 3, 0], [0, 0, 1]])),
    ),
]


@pytest.mark.parametrize("ode", MUTATION_SYSTEMS, ids=["pii", "L3_pole"])
def test_gauge_residual_catches_every_single_coefficient_error(ode):
    order = 6
    size = ode.size
    gauge = gauge_expansion(ode, order)
    assert gauge_residual(ode, gauge) == (True, order)
    for a in range(size):
        for b in range(size):
            if a != b:
                for k in range(1, order):
                    ok, _ = gauge_residual(ode, with_psi_bumped(gauge, a, b, k))
                    assert not ok, (a, b, k)
    for b in range(size):
        # every S coefficient inside the window: T_{-r}..T_0, then the tail
        for k in range(order):
            ok, _ = gauge_residual(ode, with_s_bumped(gauge, b, k))
            assert not ok, (b, k)


def test_phi_residuals_agree_on_a_broken_expansion():
    ode = MUTATION_SYSTEMS[1]
    phi, data = expand_at_infinity(ode, 6)
    entries = [
        [bump(phi.entry(i, j), 3) if (i, j) == (2, 0) else phi.entry(i, j) for j in range(3)]
        for i in range(3)
    ]
    broken = MatrixSeries(entries)
    assert expansion_residual(ode, broken, data) == (False, 6)
    assert not ode_residual_oracle(ode, broken, data)


# ---------------------------------------------------------------------------
# the integer recursion against the Fraction recursion as its oracle


@st.composite
def integer_scale_systems(draw):
    """L = 2 or 3, rank 1-3 at infinity, 0-2 finite poles of rank 0-2 at
    non-integer positions, entries with denominators up to 5."""
    size = draw(st.sampled_from((2, 3)))
    r = draw(st.integers(1, 3))
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=5)

    def matrix():
        return M([[draw(entry) for _ in range(size)] for _ in range(size)])

    lead = draw(st.lists(entry, min_size=size, max_size=size, unique=True))
    leading = M([[lead[a] if a == b else 0 for b in range(size)] for a in range(size)])
    infinity = tuple(matrix() for _ in range(r - 1)) + (leading,)
    positions = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(
                lambda a: a.denominator > 1
            ),
            max_size=2,
            unique=True,
        )
    )
    poles = tuple(
        FinitePole(
            position=a,
            matrices=tuple(matrix() for _ in range(draw(st.integers(1, 3)))),
        )
        for a in positions
    )
    return RationalODE(size=size, poles=poles, infinity=infinity)


def assert_integer_recursion_matches_oracle(ode, order):
    got, want = gauge_expansion(ode, order), fraction_gauge_expansion(ode, order)
    assert got.psi == want.psi
    assert got.s == want.s
    assert got.exponents == want.exponents


@settings(max_examples=25, deadline=None)
@given(pii_systems(), st.integers(1, 30))
def test_integer_recursion_matches_fraction_recursion_on_pii(ode, order):
    assert_integer_recursion_matches_oracle(ode, order)


@settings(max_examples=40, deadline=None)
@given(integer_scale_systems(), st.integers(1, 30))
def test_integer_recursion_matches_fraction_recursion_with_poles(ode, order):
    assert_integer_recursion_matches_oracle(ode, order)


@settings(max_examples=40, deadline=None)
@given(st.one_of(integer_scale_systems(), finite_pole_systems()), st.integers(0, 12))
def test_a_tilde_matches_the_matrix_sum_construction(ode, upto):
    assert padetau.ode._a_tilde(ode, upto) == exact_matrix_a_tilde(ode, upto)


@pytest.mark.parametrize("order", [1, 2, 7, 30])
def test_integer_recursion_on_the_worked_systems(order):
    for ode in MUTATION_SYSTEMS:
        assert_integer_recursion_matches_oracle(ode, order)


def test_non_integral_scaled_atil_is_a_consistency_error(monkeypatch):
    """A term of Atil with a denominator outside the spec is a library bug."""
    ode = MUTATION_SYSTEMS[1]
    a_tilde = padetau.ode._a_tilde

    def with_a_seventh(ode, upto):
        out = a_tilde(ode, upto)
        out[1] = out[1] + M([[Fraction(1, 7), 0, 0], [0, 0, 0], [0, 0, 0]])
        return out

    monkeypatch.setattr(padetau.ode, "_a_tilde", with_a_seventh)
    with pytest.raises(ConsistencyError):
        gauge_expansion(ode, 4)


# ---------------------------------------------------------------------------
# accessory parameter counts


def test_accessory_counts_documented():
    assert accessory_count(((1, 1), (1, 1), (1, 1)), 2, 2) == 0
    assert accessory_count(((1, 1), (1, 1), (1, 1), (1, 1)), 2, 3) == 2


def test_accessory_count_general_formula():
    spectral = ((3,), (1, 1, 1), (2, 1))
    assert accessory_count(spectral, 3, 2) == 2 + 9 - (9 + 3 + 5)


def test_accessory_partition_validation():
    with pytest.raises(InvalidPartition):
        accessory_count(((1, 1), (1, 1)), 2, 2)
    with pytest.raises(InvalidPartition):
        accessory_count(((1, 1), (1, 1), (2, 1)), 2, 2)
    with pytest.raises(InvalidPartition):
        accessory_count(((1, 1), (1, 1), ()), 2, 2)
    with pytest.raises(InvalidPartition):
        accessory_count(((1, 1), (1, 1), (2, 0)), 2, 2)


# ---------------------------------------------------------------------------
# serialization


def test_ode_dict_roundtrip():
    ode = RationalODE(
        size=2,
        poles=(
            FinitePole(
                position=Fraction(1, 3),
                matrices=(M([[1, 2], [0, -1]]), M([["1/2", 0], [1, 1]])),
            ),
        ),
        infinity=(M([[-2, 0], [0, 3]]), M([[1, 0], [0, -1]])),
    )
    data = ode_to_dict(ode)
    back = ode_from_dict(data)
    assert back == ode
    assert data["v"] == 1
    assert all(isinstance(x, str) for row in data["infinity"][0] for x in row)


def test_ode_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        ode_from_dict({"v": 2, "L": 2, "poles": [], "infinity": []})
    with pytest.raises(ValueError):
        ode_from_dict({"v": 1, "L": "two", "poles": [], "infinity": []})
    with pytest.raises(ValueError):
        ode_from_dict({"v": 1, "L": 2, "poles": [], "infinity": [[["1", "0"]]]})
