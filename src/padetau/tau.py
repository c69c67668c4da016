"""Block Toeplitz determinants, tau-quotients, and Schlesinger steps.

The square system matrix of the approximation problem has determinant D_n;
successive quotients of the isomonodromic tau function are proportional to
D_{n+1}/D_n. Every determinant here is evaluated along two independent
routes (a full form containing the f_0 blocks and a reduced form without
them) and the routes must agree exactly; disagreement raises
ConsistencyError because it can only mean an implementation bug. Both
forms are laid out as rows of ToeplitzBlockSpec and written as
column-scaled integer matrices. tau_determinant and bordered_determinant
eliminate one D_n or E^{i,j}_n per call (linalg.block_toeplitz_det).
tau_quotient_table eliminates each form of D_{n_max}'s matrix once, with
its columns reordered so that every D_n is a leading minor and every
E^{i,j}_n a bordered one (linalg.toeplitz_minors, see _tau_pass), and
falls back to the per-level functions from the first zero D_n on. Only
the exchange grid det(E^{i,j}_n), a general matrix, goes through
det_exact.

Conventions: D_0 = 1. The bordered determinant at (n, i, j) recovers the
remainder coefficient rho^i_j of the type-I problem via

    rho^i_j = (-1)^{(L+i)n} E^{i,j}_n / D_n,

and the exchange identity D_{n+1} D_n^{L-2} = det(E^{i,j}_n)_{1<=i,j<=L-1}
ties the two levels together.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    BadNormalization,
    ConsistencyError,
    DegenerateFamily,
    InsufficientOrder,
)
from .linalg import (
    ExactMatrix,
    ToeplitzBlockSpec,
    block_toeplitz_det,
    det_exact,
    toeplitz_minors,
)
from .pade import HermitePadeResult, PolyMatrix, hermite_pade, q_matrix, schlesinger_matrix
from .series import Polynomial, SeriesFamily, TruncatedSeries, normalize_family, row_times_column

__all__ = [
    "IdentityReport",
    "tau_determinant",
    "bordered_determinant",
    "remainder_coeff_via_det",
    "sylvester_toeplitz_check",
    "TauQuotientTable",
    "tau_quotient_table",
    "MatrixSeries",
    "characteristic_det",
    "ShiftCheckReport",
    "schlesinger_shift_check",
    "apply_schlesinger",
    "one_step_sign",
]


@dataclass(frozen=True)
class IdentityReport:
    """An exact two-sided check; both values are kept, never just a bool."""

    name: str
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def tau_determinant(fam: SeriesFamily, n: int) -> Fraction:
    """D_n, by both the full (order Ln) and reduced (order (L-1)n) forms."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    L = fam.size
    ln = L * n
    if fam.order < ln:
        raise InsufficientOrder(f"need order >= {ln}; have {fam.order}")
    full = block_toeplitz_det(fam, [[ToeplitzBlockSpec(j, 0, ln, n) for j in range(L)]])
    reduced = block_toeplitz_det(
        fam, [[ToeplitzBlockSpec(j, n, (L - 1) * n, n) for j in range(1, L)]]
    )
    if full != reduced:
        raise ConsistencyError(f"D_{n}: full {full} != reduced {reduced}")
    return full


def bordered_determinant(fam: SeriesFamily, n: int, i: int, j: int) -> Fraction:
    """E^{i,j}_n: D_n's matrix widened in block i and bordered by one row.

    Requires 1 <= i <= L-1 and j >= 1; reads coefficients up to index
    Ln + j, both in the full and in the reduced form.
    """
    L = fam.size
    if not 1 <= i <= L - 1:
        raise ValueError(f"i must be in 1..{L - 1}")
    if j < 1:
        raise ValueError("j must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    ln = L * n
    if fam.order < ln + j + 1:
        raise InsufficientOrder(f"need order >= {ln + j + 1}; have {fam.order}")

    def bands(first: int, body_offset: int, height: int) -> list[list[ToeplitzBlockSpec]]:
        # body rows of blocks first..L-1, then the border row; relative to
        # the D_n layout, block i is one column wider and one index ahead
        body = []
        border = []
        for t in range(first, L):
            bump = 1 if t == i else 0
            body.append(ToeplitzBlockSpec(t, body_offset + bump, height, n + bump))
            border.append(ToeplitzBlockSpec(t, ln + j - 1 + bump, 1, n + bump))
        return [body, border]

    full = block_toeplitz_det(fam, bands(0, 0, ln))
    reduced = block_toeplitz_det(fam, bands(1, n, (L - 1) * n))
    if full != reduced:
        raise ConsistencyError(f"E^({i},{j})_{n}: full {full} != reduced {reduced}")
    return full


def remainder_coeff_via_det(fam: SeriesFamily, n: int, i: int, j: int) -> Fraction:
    """rho^i_j from determinants alone: (-1)^{(L+i)n} E^{i,j}_n / D_n."""
    d = tau_determinant(fam, n)
    if d == 0:
        raise DegenerateFamily("type-I system determinant")
    L = fam.size
    sign = -1 if ((L + i) * n) % 2 else 1
    return sign * bordered_determinant(fam, n, i, j) / d


def _bordered_grid(fam: SeriesFamily, n: int) -> list[list[Fraction]]:
    """E^{i,j}_n for i, j = 1..L-1, row i-1 and column j-1."""
    L = fam.size
    return [
        [bordered_determinant(fam, n, i, j) for j in range(1, L)]
        for i in range(1, L)
    ]


def _exchange_report(
    d_n: Fraction, d_next: Fraction, grid: Sequence[Sequence[Fraction]]
) -> IdentityReport:
    """D_{n+1} D_n^{L-2} against det(E^{i,j}_n), from values already computed.

    grid[i-1][j-1] holds E^{i,j}_n; its size L-1 fixes L.
    """
    lhs = d_next * d_n ** (len(grid) - 1)
    return IdentityReport("toeplitz_exchange", lhs, det_exact(ExactMatrix(grid)))


def sylvester_toeplitz_check(fam: SeriesFamily, n: int) -> IdentityReport:
    """Exchange identity D_{n+1} D_n^{L-2} = det(E^{i,j}_n) over i,j = 1..L-1."""
    return _exchange_report(
        tau_determinant(fam, n), tau_determinant(fam, n + 1), _bordered_grid(fam, n)
    )


@dataclass(frozen=True)
class TauQuotientTable:
    """D_n values and successive quotients for one family.

    ratios[k] = (n, D_{n+1}/D_n), present only where D_n != 0; degenerate
    lists the n with D_n = 0. exchange[n-1] is the exchange identity at
    each interior n = 1..n_max-1, built from the D_n in dets and the
    E^{i,j}_n grid at that level; construction raises ConsistencyError if
    any of them fails.
    """

    fingerprint: str
    dets: tuple[tuple[int, Fraction], ...]
    ratios: tuple[tuple[int, Fraction], ...]
    degenerate: tuple[int, ...]
    exchange: tuple[IdentityReport, ...]


def _interleave_sign(L: int, n: int) -> int:
    """(-1)^{C(L,2) C(n,2)}: the sign of dealing n columns from each of L
    blocks into n rounds of one column per block."""
    return -1 if (L * (L - 1) // 2 * (n * (n - 1) // 2)) % 2 else 1


def _tau_pass(
    fam: SeriesFamily, n_max: int, reduced: bool
) -> tuple[list[Fraction], list[list[list[Fraction]]]]:
    """D_1, D_2, ... and the E^{i,j}_n grids from one elimination of D_{n_max}.

    Returns (dets, grids): dets[n-1] = D_n up to the first zero D_n, which
    is left out, and grids[n-1][i-1][j-1] = E^{i,j}_n for each n < n_max
    with D_n in dets. Write N = n_max, M = L - 1 and g = L (full form) or
    M (reduced form) for the rows per level.

    Full form: column (t, c), c-major, is b^t_{r-c}, so the leading Ln x Ln
    block is D_n's matrix with its blocks' columns interleaved. After them
    come the M "column -1"s b^i_{r+1}: E^{i,j}_n is D_n's matrix with
    column -1 of block i and row Ln+j-1 added. No E reads row LN-1, whose
    column -1 would need b^i_{LN}, past what order >= LN trusts; index -1
    writes a zero there instead.

    Reduced form: reversing the columns of each block (c' = n-1-c) turns
    D_n's reduced matrix into the block Hankel matrix b^t_{r+c'+1},
    t = 1..M, which no longer depends on n, so D_N's nests every D_n. E^{i,j}_n
    adds column (i, c' = n) and row Mn+j-1, both of the next level.

    In both forms D_n is the leading minor of order gn and E^{i,j}_n the
    bordered minor on its row Ln+j-1 or Mn+j-1 and its column -1 or
    (i, n). Moving the columns back to D_n's and E^{i,j}_n's own order
    gives D_n = (-1)^{C(L,2) C(n,2)} minor and
    E^{i,j}_n = (-1)^{C(L,2) C(n,2) + (L-i) n} bordered minor, in both
    forms. linalg.toeplitz_minors reads the minors off the elimination
    with row swaps kept inside each level's rows: with sigma the parity
    of the swaps so far and d_t the column scale of member t,
    minor = sigma pivot / prod_t d_t^n and
    bordered minor = sigma entry / (prod_t d_t^n d_i).
    """
    L = fam.size
    g = L - 1 if reduced else L
    m = g * n_max
    if reduced:
        bands = [[ToeplitzBlockSpec(t, c + 1, m, 1) for c in range(n_max) for t in range(1, L)]]

        def borders(n: int) -> list[tuple[int, int]]:
            return [(g * n + j - 1, g * n + i - 1) for i in range(1, L) for j in range(1, L)]

    else:
        body = [(t, -c) for c in range(n_max) for t in range(L)]
        bands = [
            [ToeplitzBlockSpec(t, off, m - 1, 1) for t, off in body]
            + [ToeplitzBlockSpec(i, 1, m - 1, 1) for i in range(1, L)],
            [ToeplitzBlockSpec(t, off + m - 1, 1, 1) for t, off in body]
            + [ToeplitzBlockSpec(i, -1, 1, 1) for i in range(1, L)],
        ]

        def borders(n: int) -> list[tuple[int, int]]:
            return [(g * n + j - 1, m + i - 1) for i in range(1, L) for j in range(1, L)]

    minors, bordered = toeplitz_minors(fam, bands, g, borders)
    dets = [_interleave_sign(L, n) * d for n, d in enumerate(minors, start=1)]
    grids = []
    for n, flat in enumerate(bordered, start=1):
        s = _interleave_sign(L, n)
        signs = [-s if (L - i) * n % 2 else s for i in range(1, L)]
        rows = [flat[k : k + L - 1] for k in range(0, len(flat), L - 1)]
        grids.append([[sign * e for e in row] for sign, row in zip(signs, rows)])
    return dets, grids


def tau_quotient_table(fam: SeriesFamily, n_max: int) -> TauQuotientTable:
    """D_0..D_{n_max}, their quotients and the exchange identity at each level.

    Each form of D_{n_max}'s matrix, full and reduced, is eliminated once
    (_tau_pass, which gives the column layouts and the signs that turn its
    pivots and entries into D_n and E^{i,j}_n); both passes read every
    D_n and E^{i,j}_n they reach, and
    the two sets must agree exactly, else ConsistencyError names the first
    D_n or E^{i,j}_n that differs with both values. A pass stops at its
    first zero D_n; from the first level where either stops, the rest of
    the table comes from tau_determinant and bordered_determinant, level
    by level. Requires order >= L n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    L = fam.size
    if fam.order < L * n_max:
        raise InsufficientOrder(f"need order >= {L * n_max}; have {fam.order}")
    full_dets, full_grids = _tau_pass(fam, n_max, reduced=False)
    red_dets, red_grids = _tau_pass(fam, n_max, reduced=True)
    for n, (a, b) in enumerate(zip(full_dets, red_dets), start=1):
        if a != b:
            raise ConsistencyError(f"D_{n}: full {a} != reduced {b}")
    for n, (full, red) in enumerate(zip(full_grids, red_grids), start=1):
        for i, (row_a, row_b) in enumerate(zip(full, red), start=1):
            for j, (a, b) in enumerate(zip(row_a, row_b), start=1):
                if a != b:
                    raise ConsistencyError(f"E^({i},{j})_{n}: full {a} != reduced {b}")
    reach = min(len(full_dets), len(red_dets))
    values = [Fraction(1), *full_dets[:reach]]
    values += [tau_determinant(fam, n) for n in range(reach + 1, n_max + 1)]
    grids = full_grids[:reach]
    grids += [_bordered_grid(fam, n) for n in range(reach + 1, n_max)]
    dets = list(enumerate(values))
    ratios = []
    degenerate = []
    for n, d in dets:
        if d == 0:
            degenerate.append(n)
        elif n < n_max:
            ratios.append((n, values[n + 1] / d))
    exchange = []
    for n in range(1, n_max):
        rep = _exchange_report(values[n], values[n + 1], grids[n - 1])
        if not rep.holds:
            raise ConsistencyError(
                f"exchange identity failed at n={n}: {rep.lhs} != {rep.rhs}"
            )
        exchange.append(rep)
    return TauQuotientTable(
        fingerprint=fam.fingerprint(),
        dets=tuple(dets),
        ratios=tuple(ratios),
        degenerate=tuple(degenerate),
        exchange=tuple(exchange),
    )


class MatrixSeries:
    """Square matrix of truncated series with constant term exactly I."""

    __slots__ = ("_entries", "_size", "_order")

    def __init__(self, entries: Sequence[Sequence[TruncatedSeries]]):
        size = len(entries)
        rows = tuple(tuple(row) for row in entries)
        for row in rows:
            if len(row) != size:
                raise ValueError("matrix series must be square")
        if size < 1:
            raise ValueError("matrix series must be nonempty")
        order = min(e.order for row in rows for e in row)
        if order < 1:
            raise InsufficientOrder("matrix series must trust at least order 1")
        rows = tuple(tuple(e.truncate(order) for e in row) for row in rows)
        for r in range(size):
            for c in range(size):
                want = 1 if r == c else 0
                if rows[r][c].coefficient(0) != want:
                    raise BadNormalization("constant term must be the identity")
        self._entries = rows
        self._size = size
        self._order = order

    @property
    def size(self) -> int:
        return self._size

    @property
    def order(self) -> int:
        return self._order

    def entry(self, i: int, j: int) -> TruncatedSeries:
        return self._entries[i][j]

    def first_column(self) -> tuple[TruncatedSeries, ...]:
        return tuple(self._entries[i][0] for i in range(self._size))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixSeries):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"MatrixSeries({self._size}x{self._size}, order={self._order})"


def characteristic_det(phi: MatrixSeries) -> Fraction:
    """det of the first-column coefficient block, rows k = 1..L-1.

    Computed both from the raw column entries a^{i,0}_k and from the
    normalized family's coefficients b^i_k; dividing the column by
    phi_00 (a unit series) cannot change this determinant.
    """
    L = phi.size
    if L < 2:
        raise ValueError("need size >= 2")
    if phi.order < L:
        raise InsufficientOrder(f"need order >= {L}; have {phi.order}")
    a_det = det_exact(
        ExactMatrix(
            [
                [phi.entry(i, 0).coefficient(k) for i in range(1, L)]
                for k in range(1, L)
            ]
        )
    )
    fam = normalize_family(phi.first_column())
    b_det = det_exact(
        ExactMatrix(
            [[fam.coefficient(i, k) for i in range(1, L)] for k in range(1, L)]
        )
    )
    if a_det != b_det:
        raise ConsistencyError(f"column det {a_det} != normalized det {b_det}")
    return a_det


@dataclass(frozen=True)
class ShiftCheckReport:
    """Outcome of the exponent-shift verification for one (phi, n).

    det_r_one records whether det R(x) = 1 for R = schlesinger_matrix of
    the type-I solution; it is computed, not assumed, so a broken
    normalization reads False here instead of raising.
    """

    size: int
    n: int
    available: int
    det_r_one: bool
    failures: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return self.det_r_one and not self.failures


def schlesinger_shift_check(phi: MatrixSeries, n: int) -> ShiftCheckReport:
    """Verify R(1/w) phi(w) diag(w^{-(L-1)n}, w^n, ..., w^n) = I + O(w).

    Equivalently, with U = Q(w) phi(w): every entry of U's column 0 is
    divisible by w^{Ln} with quotient delta_{i,0} + O(w), and the other
    columns satisfy U_{ij}(0) = delta_{ij}. All checks are exact over the
    trusted window; det R(x) = 1 is re-checked as a polynomial identity.
    """
    fam = normalize_family(phi.first_column())
    hp = hermite_pade(fam, n)
    det_r_one = schlesinger_matrix(hp).det() == Polynomial.one()
    qm = q_matrix(hp)
    L = phi.size
    ln = L * n
    failures: list[str] = []
    available = None
    for jcol in range(L):
        column = [phi.entry(k, jcol) for k in range(L)]
        for i in range(L):
            u = row_times_column([qm.entry(i, k) for k in range(L)], column)
            if jcol == 0:
                head = min(ln, u.order)
                if any(u.coefficient(m) != 0 for m in range(head)):
                    failures.append(f"U[{i},0] not divisible by w^{ln}")
                    continue
                room = u.order - ln
                available = room if available is None else min(available, room)
                if room < 1:
                    raise InsufficientOrder(
                        f"cannot see past w^{ln} in U[{i},0]; order {u.order}"
                    )
                want = 1 if i == 0 else 0
                if u.coefficient(ln) != want:
                    failures.append(f"U[{i},0]/w^{ln} has constant term != {want}")
            else:
                want = 1 if i == jcol else 0
                if u.coefficient(0) != want:
                    failures.append(f"U[{i},{jcol}](0) != {want}")
    return ShiftCheckReport(
        size=L,
        n=n,
        available=available if available is not None else 0,
        det_r_one=det_r_one,
        failures=tuple(failures),
    )


def one_step_sign(L: int, n: int) -> int:
    """prod_{i=1..L-1} (-1)^{(L+i)n}; the closed form is a test, not an input."""
    s = 1
    for i in range(1, L):
        if ((L + i) * n) % 2:
            s = -s
    return s


def apply_schlesinger(fam: SeriesFamily, n: int) -> SeriesFamily:
    """One Schlesinger step at the series level: f_i -> rho^i / rho^0.

    That is normalize_family on the column rho^i / w^{Ln}. The returned
    family's trusted order is fam.order - (Ln + 1). A member that is
    identically zero on the window (a vanishing remainder) simply stays
    zero; downstream determinants then report the degeneracy.
    """
    hp = hermite_pade(fam, n)
    ln = fam.size * n
    column = []
    for i, rho in enumerate(hp.remainders):
        try:
            column.append(rho.shift(-ln))
        except ValueError as exc:
            raise ConsistencyError(f"rho^{i} not divisible by w^{ln}: {exc}") from None
    return normalize_family(column).truncate(fam.order - (ln + 1))
