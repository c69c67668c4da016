"""Exact matrices, integer block Toeplitz matrices, and elimination."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cramer_solve,
    family_from_rows,
    fraction_block_det,
    fraction_block_matrix,
    laplace_det,
    mixed_denominator_family,
    pf_expand,
    pf_matching_sum,
    rand_frac,
)
from padetau import (
    ExactMatrix,
    InsufficientOrder,
    NotSquare,
    SingularMatrix,
    ToeplitzBlockSpec,
    block_toeplitz_det,
    det_exact,
    solve_exact,
)
from padetau.linalg import (
    _toeplitz_rows,
    bareiss,
    int_det,
    int_pfaffian,
    toeplitz_minors,
    toeplitz_solve,
)

fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def square_matrices(max_size: int):
    return st.integers(1, max_size).flatmap(
        lambda m: st.lists(
            st.lists(fractions_st, min_size=m, max_size=m), min_size=m, max_size=m
        )
    )


def test_matrix_construction_and_access():
    m = ExactMatrix([[1, "1/2"], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert m.at(0, 1) == Fraction(1, 2)
    assert m.row(1) == (Fraction(3), Fraction(4))
    assert m.is_square()
    empty = ExactMatrix([], cols=0)
    assert empty.rows == 0 and empty.cols == 0
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])


def test_matrix_arithmetic():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[0, 1], [1, 0]])
    assert a + b == ExactMatrix([[1, 3], [4, 4]])
    assert -a == a.scale(-1)
    with pytest.raises(ValueError):
        a + ExactMatrix([[1], [2]])


def test_toeplitz_block_entries():
    fam = family_from_rows([[1, 0, 0, 0, 0], [0, "1/2", 2, "3/4", 4]])
    spec = ToeplitzBlockSpec(series_index=1, offset=2, height=3, width=2)
    rows, scales = _toeplitz_rows(fam, [[spec]])
    assert scales == [4, 4]
    for r in range(3):
        for c in range(2):
            k = 2 + r - c
            expected = fam.coefficient(1, k) if k >= 0 else Fraction(0)
            assert Fraction(rows[r][c], scales[c]) == expected
    with pytest.raises(ValueError):
        ToeplitzBlockSpec(series_index=-1, offset=0, height=1, width=1)
    with pytest.raises(ValueError):
        ToeplitzBlockSpec(series_index=0, offset=0, height=-1, width=1)


def random_bands(rng: random.Random, size: int, order: int):
    """A square block layout: 1-3 block columns, 1-3 block rows, random
    offsets that stay inside the trusted window."""
    columns = [(rng.randrange(size), rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
    total = sum(w for _, w in columns)
    cuts = sorted(rng.randint(0, total) for _ in range(rng.randint(0, 2)))
    heights = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return [
        [
            ToeplitzBlockSpec(t, rng.randint(-3, order - h), h, w)
            for t, w in columns
        ]
        for h in heights
    ]


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_block_toeplitz_det_matches_fraction_route(size, seed, with_zero_member):
    rng = random.Random(seed)
    zero_member = rng.randint(1, size - 1) if with_zero_member else None
    fam = mixed_denominator_family(rng, size, 10, zero_member)
    bands = random_bands(rng, size, 10)
    assert block_toeplitz_det(fam, bands) == fraction_block_det(fam, bands)


def test_block_toeplitz_det_layouts():
    fam = family_from_rows([[1, 0, 0, 0, 0], [0, "1/2", "1/3", 3, 4]])
    assert block_toeplitz_det(fam, []) == 1
    # [[b_1, b_0], [b_2, b_1]] = [[1/2, 0], [1/3, 1/2]]
    assert block_toeplitz_det(fam, [[ToeplitzBlockSpec(1, 1, 2, 2)]]) == Fraction(1, 4)
    # f_0 beside f_1: [[1, b_0], [0, b_1]]
    assert block_toeplitz_det(
        fam, [[ToeplitzBlockSpec(0, 0, 2, 1), ToeplitzBlockSpec(1, 0, 2, 1)]]
    ) == Fraction(1, 2)


def test_block_toeplitz_det_reads_up_to_the_window():
    fam = family_from_rows([[1, 0, 0, 0, 0], [0, 1, 2, 3, 4]])
    last = [[ToeplitzBlockSpec(1, 3, 2, 2)]]  # reads b_4, the last trusted index
    assert block_toeplitz_det(fam, last) == fraction_block_det(fam, last) == 3 * 3 - 2 * 4
    past = [[ToeplitzBlockSpec(1, 4, 2, 2)]]  # reads b_5
    with pytest.raises(InsufficientOrder):
        fraction_block_det(fam, past)
    with pytest.raises(InsufficientOrder):
        block_toeplitz_det(fam, past)
    # a block of height 0 reads nothing, whatever its offset
    empty = [[ToeplitzBlockSpec(1, 9, 0, 1)], [ToeplitzBlockSpec(1, 0, 1, 1)]]
    assert block_toeplitz_det(fam, empty) == 0


def test_block_toeplitz_det_rejects_inconsistent_layouts():
    fam = family_from_rows([[1, 0, 0, 0, 0], [0, 1, 2, 3, 4], [0, 4, 3, 2, 1]])

    def spec(t, h, w):
        return ToeplitzBlockSpec(t, 1, h, w)

    with pytest.raises(ValueError, match="series or width"):
        block_toeplitz_det(fam, [[spec(1, 1, 1)], [spec(2, 1, 1)]])
    with pytest.raises(ValueError, match="series or width"):
        block_toeplitz_det(fam, [[spec(1, 1, 1), spec(2, 1, 1)], [spec(1, 1, 2), spec(2, 1, 0)]])
    with pytest.raises(ValueError, match="height"):
        block_toeplitz_det(fam, [[spec(1, 1, 1), spec(2, 2, 1)]])
    with pytest.raises(ValueError, match="one block per block column"):
        block_toeplitz_det(fam, [[spec(1, 1, 1), spec(2, 1, 1)], [spec(1, 0, 1)]])
    with pytest.raises(NotSquare):
        block_toeplitz_det(fam, [[spec(1, 2, 1)]])


@settings(max_examples=60)
@given(square_matrices(5))
def test_det_matches_laplace_oracle(rows):
    assert det_exact(ExactMatrix(rows)) == laplace_det(
        [[Fraction(x) for x in row] for row in rows]
    )


def test_det_edge_cases():
    assert det_exact(ExactMatrix([], cols=0)) == 1
    assert det_exact(ExactMatrix([[Fraction(-7, 3)]])) == Fraction(-7, 3)
    singular = ExactMatrix([[1, 2], [2, 4]])
    assert det_exact(singular) == 0
    with pytest.raises(NotSquare):
        det_exact(ExactMatrix([[1, 2]]))


def test_det_known_value_with_pivoting():
    m = ExactMatrix([[0, 1, 2], [1, 0, 3], [4, -3, 8]])
    assert det_exact(m) == -2


@settings(max_examples=40)
@given(square_matrices(4), st.integers(0, 2**32 - 1))
def test_solve_matches_cramer_oracle(rows, seed):
    rng = random.Random(seed)
    m = ExactMatrix(rows)
    rhs = [rand_frac(rng) for _ in range(m.rows)]
    exact_rows = [[Fraction(x) for x in row] for row in rows]
    if laplace_det(exact_rows) == 0:
        with pytest.raises(SingularMatrix):
            solve_exact(m, rhs)
        return
    sol = solve_exact(m, rhs)
    assert list(sol) == cramer_solve(exact_rows, rhs)
    for r in range(m.rows):
        assert sum(m.at(r, c) * sol[c] for c in range(m.cols)) == rhs[r]


def test_solve_rejects_singular():
    with pytest.raises(SingularMatrix):
        solve_exact(ExactMatrix([[1, 1], [2, 2]]), [1, 1])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_solve_several_right_hand_sides(size, k, seed, with_zero_member):
    """toeplitz_solve, one elimination for k right-hand-side columns: each
    solution equals solve_exact on the Fraction route's matrix."""
    rng = random.Random(seed)
    zero_member = rng.randint(1, size - 1) if with_zero_member else None
    fam = mixed_denominator_family(rng, size, 10, zero_member)
    bands = random_bands(rng, size, 10)
    series = [rng.randrange(size) for _ in range(k)]
    augmented = [
        row + [ToeplitzBlockSpec(t, rng.randint(-3, 10 - row[0].height), row[0].height, 1) for t in series]
        for row in bands
    ]
    m = fraction_block_matrix(fam, bands)
    rhs = fraction_block_matrix(fam, [row[len(bands[0]) :] for row in augmented])
    if det_exact(m) == 0:
        with pytest.raises(SingularMatrix):
            toeplitz_solve(fam, augmented)
        return
    sols = toeplitz_solve(fam, augmented)
    assert len(sols) == k
    for c, sol in enumerate(sols):
        column = [rhs.at(r, c) for r in range(m.rows)]
        assert sol == solve_exact(m, column)


def test_solve_several_edge_cases():
    fam = family_from_rows([[1, 0, 0, 0, 0], [0, 1, 2, 3, 4], [0, 4, 3, 2, 1]])
    assert toeplitz_solve(fam, []) == []
    # no rows: each right-hand-side column has the empty solution
    assert toeplitz_solve(fam, [[ToeplitzBlockSpec(1, 0, 0, 2)]]) == [(), ()]
    # f_0 read at -1..0 is e_2; [[b_1, b_0], [b_2, b_1]] x = e_2 gives x = (0, 1)
    layout = [[ToeplitzBlockSpec(1, 1, 2, 2), ToeplitzBlockSpec(0, -1, 2, 1)]]
    assert toeplitz_solve(fam, layout) == [(Fraction(0), Fraction(1))]
    with pytest.raises(SingularMatrix):
        toeplitz_solve(fam, [[ToeplitzBlockSpec(1, 0, 2, 2), ToeplitzBlockSpec(2, 1, 2, 1)]])
    with pytest.raises(NotSquare):
        toeplitz_solve(fam, [[ToeplitzBlockSpec(1, 1, 2, 1)]])
    with pytest.raises(ValueError):
        solve_exact(ExactMatrix([[1]]), [1, 2])


@settings(max_examples=60)
@given(square_matrices(5))
def test_int_det_matches_laplace_oracle(rows):
    ints = [[int(x * 12) for x in row] for row in rows]
    assert int_det([list(r) for r in ints]) == laplace_det(
        [[Fraction(x) for x in row] for row in ints]
    )
    assert int_det([]) == 1


def skew_from_upper(n: int, upper: list[int]) -> list[list[int]]:
    """The n x n skew matrix with the given upper triangle, row by row."""
    a = [[0] * n for _ in range(n)]
    values = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = next(values)
            a[j][i] = -a[i][j]
    return a


def pf_oracles(a: list[list[int]]) -> tuple[Fraction, Fraction]:
    f = lambda i, j: Fraction(a[i][j])  # noqa: E731
    word = list(range(len(a)))
    return pf_expand(f, word), pf_matching_sum(f, word)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda half: st.tuples(
            st.just(2 * half),
            st.lists(
                st.integers(-9, 9) | st.just(0),
                min_size=half * (2 * half - 1),
                max_size=half * (2 * half - 1),
            ),
        )
    )
)
def test_int_pfaffian_matches_matching_oracles(case):
    n, upper = case
    a = skew_from_upper(n, upper)
    expand, matching = pf_oracles(a)
    got = int_pfaffian([row[:] for row in a])
    assert got == expand == matching
    assert got**2 == int_det([row[:] for row in a])


def test_int_pfaffian_edge_cases():
    assert int_pfaffian([]) == 1
    assert int_pfaffian([[0, 5], [-5, 0]]) == 5
    # first row all zero
    assert int_pfaffian(skew_from_upper(4, [0, 0, 0, 2, 3, 4])) == 0
    # zero leading pivot: a swap of letters 1 and 2 flips the sign
    a = skew_from_upper(4, [0, 2, 3, 5, 7, 11])
    assert int_pfaffian([row[:] for row in a]) == 1 == pf_oracles(a)[0]
    # letters 0 and 1 pair only with each other; the trailing block's own
    # leading pivot is zero, so the swap comes at the second step
    a = skew_from_upper(6, [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 5, 7, 11])
    assert int_pfaffian([row[:] for row in a]) == 1 == pf_oracles(a)[0]
    # a pivot row that empties after the first step
    a = skew_from_upper(6, [1, 2, 3, 4, 5, 2, 3, 4, 5, 0, 0, 0, 0, 0, 0])
    assert int_pfaffian([row[:] for row in a]) == 0 == pf_oracles(a)[0]


# ---------------------------------------------------------------------------
# grouped elimination: minors at group boundaries


def test_bareiss_group_window():
    """A swap only searches the rest of the current group of rows."""
    a = [[0, 1], [1, 0]]
    assert bareiss([row[:] for row in a], 2) == -1
    assert bareiss([row[:] for row in a], 2, group=1) == 0
    b = [[0, 1, 5], [2, 3, 7], [1, 1, 2]]
    seen = []
    sign = bareiss(b, 3, group=2, visit=lambda k, s: seen.append((k, s, b[k][k])))
    # row 0 swaps with row 1, inside the first group; at the group start
    # k = 2, entry (2, 2) is sign * det b = -2
    assert sign == -1
    assert seen == [(2, -1, 2)]


def _minor(a, rows, cols):
    return laplace_det([[a[r][c] for c in cols] for r in rows])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(1, 1), (1, 4), (2, 1), (2, 3), (3, 1), (3, 2)]),
    st.integers(0, 2**32 - 1),
    st.sampled_from((1, 9)),
)
def test_toeplitz_minors_match_laplace_oracle(shape, seed, span):
    group, levels = shape
    m = group * levels
    rng = random.Random(seed)
    fam = mixed_denominator_family(rng, 3, m + 3, span=span)
    bands = [[ToeplitzBlockSpec(rng.randint(0, 2), rng.randint(-2, 3), m, 1) for _ in range(m + 1)]]
    a = fraction_block_matrix(fam, bands).entries

    def borders(n):
        k = group * n
        return [(r, c) for r in range(k, m) for c in range(k, m + 1)]

    minors, bordered = toeplitz_minors(fam, bands, group, borders)
    want = []
    for n in range(1, levels + 1):
        d = _minor(a, range(group * n), range(group * n))
        if d == 0:
            break
        want.append(d)
    assert minors == want
    assert len(bordered) == min(len(want), levels - 1)
    for n, values in enumerate(bordered, start=1):
        k = group * n
        assert values == [
            _minor(a, [*range(k), r], [*range(k), c]) for r, c in borders(n)
        ]
