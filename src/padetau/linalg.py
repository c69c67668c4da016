"""Exact dense linear algebra over the rationals.

Determinants and solves run fraction-free: a writer puts the rational
matrix into integer form, one integer core eliminates it, and the
rational answer is recovered at the end. There are two writers. The
row-scaled one (`_clear_denominators`) scales each row of an
`ExactMatrix` to integers and serves `det_exact` and `solve_exact`. The
column-scaled one (`_toeplitz_rows`) writes a block Toeplitz matrix
straight from the family: each member it reads is scaled once, which
scales whole columns, so no Fraction matrix is built; it serves
`block_toeplitz_det`, `toeplitz_solve` and `toeplitz_minors`. Both
writers clear denominators with `series.scale_to_integers`. The core is
`bareiss`: `int_det` for determinants (the polynomial determinants in
`pade` included), `_int_solve`, which back-substitutes every right-hand
side of one elimination, and `toeplitz_minors`, which confines row swaps
to groups of rows and reads the leading and bordered minors at every
group boundary of one elimination. Beside it, `int_pfaffian` runs the
skew analogue of Bareiss on an integer skew-symmetric matrix for
`pfaffian.pfaffian`. No pivoting heuristics beyond the first nonzero
entry; exactness makes stability a non-issue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Sequence

from .errors import InsufficientOrder, NotSquare, SingularMatrix
from .series import SeriesFamily, rational, scale_to_integers

__all__ = [
    "ExactMatrix",
    "ToeplitzBlockSpec",
    "block_toeplitz_det",
    "det_exact",
    "solve_exact",
]

_ZERO = Fraction(0)


class ExactMatrix:
    """Immutable rational matrix (row-major tuples)."""

    __slots__ = ("_entries", "_rows", "_cols")

    def __init__(self, entries: Sequence[Sequence[int | str | Fraction]], cols: int | None = None):
        rows = tuple(tuple(rational(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                cols = 0
            width = cols
        self._entries = rows
        self._rows = len(rows)
        self._cols = width

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._entries

    def at(self, r: int, c: int) -> Fraction:
        return self._entries[r][c]

    def row(self, r: int) -> tuple[Fraction, ...]:
        return self._entries[r]

    def is_square(self) -> bool:
        return self._rows == self._cols

    def __add__(self, other: ExactMatrix) -> ExactMatrix:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self._rows != other._rows or self._cols != other._cols:
            raise ValueError(f"{self!r} + {other!r}")
        return ExactMatrix(
            [
                [self._entries[r][c] + other._entries[r][c] for c in range(self._cols)]
                for r in range(self._rows)
            ],
            cols=self._cols,
        )

    def __neg__(self) -> ExactMatrix:
        return self.scale(-1)

    def scale(self, factor: int | str | Fraction) -> ExactMatrix:
        f = rational(factor)
        return ExactMatrix(
            [[f * x for x in row] for row in self._entries], cols=self._cols
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._cols == other._cols and self._entries == other._entries

    def __repr__(self) -> str:
        return f"ExactMatrix({self._rows}x{self._cols})"


@dataclass(frozen=True)
class ToeplitzBlockSpec:
    """A height x width window onto one family member's coefficients.

    Entry (alpha, beta), 1-based, is b^i_{offset + alpha - beta}; indices
    below zero read as exact zeros, indices at or beyond the trusted order
    raise InsufficientOrder.
    """

    series_index: int
    offset: int
    height: int
    width: int

    def __post_init__(self):
        if self.series_index < 0:
            raise ValueError("series index must be nonnegative")
        if self.height < 0 or self.width < 0:
            raise ValueError("block dimensions must be nonnegative")


def _toeplitz_rows(
    fam: SeriesFamily, bands: Sequence[Sequence[ToeplitzBlockSpec]]
) -> tuple[list[list[int]], list[int]]:
    """The block matrix with block (r, c) read through bands[r][c], as integers.

    Blocks in one block row share a height; blocks in one block column
    share a series index t and a width w_t. Any other layout raises
    ValueError. f_t is scaled once by d_t, the lcm of the denominators of
    the coefficients read from it (f_0 = 1 gives d_0 = 1), and entry
    (r, c) of a block is ints_t[offset + r - c]. Indices below zero read
    as 0; an index at or past fam.order raises InsufficientOrder. Returns
    the integer rows and the scale of each column: entry (r, c) of the
    rational matrix is rows[r][c] / scales[c].
    """
    if not bands:
        return [], []
    columns = [(spec.series_index, spec.width) for spec in bands[0]]
    reach: dict[int, tuple[int, int]] = {}  # t -> lowest, highest index read
    for row in bands:
        if not row or len(row) != len(columns):
            raise ValueError("every block row needs one block per block column")
        for spec, column in zip(row, columns):
            if (spec.series_index, spec.width) != column:
                raise ValueError("blocks in a block column differ in series or width")
            if spec.height != row[0].height:
                raise ValueError("blocks in a block row differ in height")
            if not (spec.height and spec.width):
                continue
            lo = spec.offset - spec.width + 1
            hi = spec.offset + spec.height - 1
            if hi >= fam.order:
                raise InsufficientOrder(
                    f"coefficient {hi} requested but series trusted only below order {fam.order}"
                )
            if spec.series_index in reach:
                old_lo, old_hi = reach[spec.series_index]
                lo, hi = min(lo, old_lo), max(hi, old_hi)
            reach[spec.series_index] = (lo, hi)
    # views[t] = (d_t, hi, the ints of f_t from index hi down to lo);
    # row r of a block then reads the contiguous slice from hi - offset - r.
    views: dict[int, tuple[int, int, list[int]]] = {}
    for t, (lo, hi) in reach.items():
        d, ints = scale_to_integers(fam.series(t).coeffs[: max(hi + 1, 0)])
        ints.reverse()
        views[t] = (d, hi, ints + [0] * max(0, -lo))
    rows: list[list[int]] = []
    for row in bands:
        for r in range(row[0].height):
            line: list[int] = []
            for spec in row:
                if spec.width:
                    _, hi, rev = views[spec.series_index]
                    start = hi - spec.offset - r
                    line += rev[start : start + spec.width]
            rows.append(line)
    scales = [views[t][0] if t in views else 1 for t, w in columns for _ in range(w)]
    return rows, scales


def block_toeplitz_det(
    fam: SeriesFamily, bands: Sequence[Sequence[ToeplitzBlockSpec]]
) -> Fraction:
    """Determinant of the block matrix with block (r, c) read through bands[r][c].

    The layout rules and the integer form are those of _toeplitz_rows; a
    non-square matrix raises NotSquare, and no blocks at all is the empty
    matrix, determinant 1. Scaling a column by d_t > 0 is exact and keeps
    the sign, so the determinant is int_det / prod_t d_t^{w_t}.
    """
    rows, scales = _toeplitz_rows(fam, bands)
    if len(rows) != len(scales):
        raise NotSquare(f"determinant of {len(rows)}x{len(scales)} block matrix")
    return Fraction(int_det(rows), prod(scales))


def toeplitz_solve(
    fam: SeriesFamily, bands: Sequence[Sequence[ToeplitzBlockSpec]]
) -> list[tuple[Fraction, ...]]:
    """Solve M x = b for several right-hand sides with one elimination.

    bands lays out [M | b_1 ... b_k] as in block_toeplitz_det: M is the
    square matrix made of the first m columns, m the number of rows, and
    every later column is a right-hand side. Returns the k solutions in
    order; raises SingularMatrix when det M = 0. With the column scales s
    of _toeplitz_rows, z solves the integer system for column m + c, and
    x = diag(s_0, ..., s_{m-1}) z / s_{m+c}.
    """
    rows, scales = _toeplitz_rows(fam, bands)
    m = len(rows)
    if len(scales) < m:
        raise NotSquare(f"solve with {m}x{len(scales)} block matrix")
    if m == 0:
        return [() for _ in scales]
    return [
        tuple(z * s / scales[c] for z, s in zip(sol, scales))
        for c, sol in zip(range(m, len(scales)), _int_solve(rows, m))
    ]


def toeplitz_minors(
    fam: SeriesFamily,
    bands: Sequence[Sequence[ToeplitzBlockSpec]],
    group: int,
    borders: Callable[[int], Sequence[tuple[int, int]]],
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Leading and bordered minors at every group boundary, one elimination.

    bands lays out an m x w matrix A as in block_toeplitz_det, with m a
    multiple of group and w >= m; write k_n = group * n. One bareiss pass
    with row swaps kept inside groups of `group` rows gives
    minors[n-1] = det A[:k_n, :k_n] for n = 1, 2, ..., stopping before the
    first zero one, and, for each n below m / group with a nonzero minor,
    bordered[n-1][e] = det of A on rows 0..k_n-1, r and columns 0..k_n-1, c
    for the e-th (r, c) of borders(n), r, c >= k_n. With the column scales
    s of _toeplitz_rows, an integer minor over columns C is the rational
    one times prod_{c in C} s_c.
    """
    rows, scales = _toeplitz_rows(fam, bands)
    m = len(rows)
    minors: list[Fraction] = []
    bordered: list[list[Fraction]] = []

    def visit(k: int, sign: int) -> None:
        lead = prod(scales[:k])
        minors.append(Fraction(sign * rows[k - 1][k - 1], lead))
        bordered.append(
            [Fraction(sign * rows[r][c], lead * scales[c]) for r, c in borders(k // group)]
        )

    sign = bareiss(rows, m, group, visit)
    if m and sign and rows[m - 1][m - 1]:
        minors.append(Fraction(sign * rows[m - 1][m - 1], prod(scales[:m])))
    return minors, bordered


def _clear_denominators(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Scale each row to integers; returns (int rows, product of scales)."""
    out: list[list[int]] = []
    scale = 1
    for row in rows:
        d, ints = scale_to_integers(row)
        scale *= d
        out.append(ints)
    return out, scale


def bareiss(
    a: list[list[int]],
    n: int,
    group: int | None = None,
    visit: Callable[[int, int], None] | None = None,
) -> int:
    """Fraction-free (Bareiss) elimination of the leading n columns, in place.

    a holds n integer rows of equal width >= n; columns beyond n (augmented
    right-hand sides) are carried through every step. Only exact integer
    divisions occur. On return a is upper triangular in its leading n
    columns and a[n-1][n-1] is the determinant of the leading block times
    the returned sign (the parity of the row swaps). Returns 0 when a pivot
    column is zero below the diagonal before the last step: the leading
    block is singular and a is left partially eliminated.

    With a group size g, rows fall into groups of g and a row swap at step
    k only searches the rest of k's group, so at every group boundary k the
    first k rows are a permutation of the original first k and the leading
    k x k minor is sign * a[k-1][k-1]. A failed search then means that
    the minor at the end of the group is zero. visit(k, sign), which needs
    a group size, is called at each group start k = g, 2g, ... below n,
    before step k: every entry a[r][c] with r, c >= k is then sign times
    the minor on rows 0..k-1, r and columns 0..k-1, c of the original
    matrix (Sylvester's identity).
    """
    sign = 1
    prev = 1
    width = len(a[0]) if n else 0
    for k in range(n):
        if visit is not None and k and k % group == 0:
            visit(k, sign)
        if k == n - 1:
            break
        if a[k][k] == 0:
            end = n if group is None else min(n, (k // group + 1) * group)
            for r in range(k + 1, end):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            head = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (pivot * row_i[j] - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign


def int_det(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix; a is overwritten. Empty: 1."""
    n = len(a)
    if n == 0:
        return 1
    return bareiss(a, n) * a[n - 1][n - 1]


def int_pfaffian(a: list[list[int]]) -> int:
    """Pfaffian of a skew-symmetric integer matrix of even order; a is
    overwritten. Empty: 1.

    Fraction-free skew elimination (Galbiati and Maffioli), the Pfaffian
    analogue of Bareiss: step k = 0, 2, 4, ... takes the pivot a[k][k+1],
    first swapping letter k+1 with the first letter p > k+1 for which
    a[k][p] is nonzero (rows and columns both, one sign flip), and returns
    0 when row k has no nonzero entry past k. It then updates the trailing
    block,

        a[i][j] <- (piv a[i][j] - a[k][i] a[k+1][j] + a[k][j] a[k+1][i]) // prev,

    for k+1 < i < j, with prev the previous pivot (1 at the start), and
    mirrors a[j][i] = -a[i][j]. After the step each trailing a[i][j] is
    the Pfaffian of letters 0..k+1, i, j, so every division is exact (the
    Pfaffian form of Sylvester's identity) and the last pivot, times the
    sign of the swaps, is the Pfaffian. O(n^3) integer operations.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(0, n, 2):
        row_k = a[k]
        if row_k[k + 1] == 0:
            for p in range(k + 2, n):
                if row_k[p] != 0:
                    break
            else:
                return 0
            a[k + 1], a[p] = a[p], a[k + 1]
            for r in range(k, n):
                row = a[r]
                row[k + 1], row[p] = row[p], row[k + 1]
            sign = -sign
        piv = row_k[k + 1]
        row_k1 = a[k + 1]
        for i in range(k + 2, n):
            row_i = a[i]
            u, v = row_k[i], row_k1[i]
            for j in range(i + 1, n):
                x = (piv * row_i[j] - u * row_k1[j] + row_k[j] * v) // prev
                row_i[j] = x
                a[j][i] = -x
        prev = piv
    return sign * prev


def _int_solve(a: list[list[int]], n: int) -> list[tuple[Fraction, ...]]:
    """Solutions for every column past the n-th of the n x (n + k) integer
    system a, k >= 1, from one elimination; a is overwritten."""
    if bareiss(a, n) == 0:
        raise SingularMatrix("zero pivot column")
    if a[n - 1][n - 1] == 0:
        raise SingularMatrix("zero pivot in back substitution")
    return [_back_substitute(a, n, c) for c in range(n, len(a[0]))]


def _back_substitute(a: list[list[int]], n: int, c: int) -> tuple[Fraction, ...]:
    """Solve the eliminated upper-triangular system for augmented column c."""
    x: list[Fraction] = [_ZERO] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(a[i][c])
        for j in range(i + 1, n):
            acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return tuple(x)


def det_exact(m: ExactMatrix) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination. Empty matrix: 1."""
    if not m.is_square():
        raise NotSquare(f"determinant of {m.rows}x{m.cols} matrix")
    a, scale = _clear_denominators(m.entries)
    return Fraction(int_det(a), scale)


def solve_exact(
    m: ExactMatrix, rhs: Sequence[int | str | Fraction]
) -> tuple[Fraction, ...]:
    """Unique solution of m x = rhs for square nonsingular m."""
    if not m.is_square():
        raise NotSquare(f"solve with {m.rows}x{m.cols} matrix")
    n = m.rows
    b = [rational(x) for x in rhs]
    if len(b) != n:
        raise ValueError("rhs length mismatch")
    if n == 0:
        return ()
    a, _ = _clear_denominators([m.row(r) + (b[r],) for r in range(n)])
    return _int_solve(a, n)[0]
