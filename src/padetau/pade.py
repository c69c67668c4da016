"""Hermite-Pade approximants and their dual simultaneous approximants.

For a normalized family f_0 = 1, f_1, ..., f_{L-1} (each f_i(0) = 0) and a
degree parameter n >= 1, the type-I table is the L x L array of polynomials
Q^(i)_j with deg Q^(i)_j <= n - 1 + delta_ij, Q^(i)_i(0) = 1 for i != 0,
and remainders

    rho^i = Q^(i)_i f_i + sum_{j != i} w Q^(i)_j f_j
          = w^{Ln} (delta_{i,0} + O(w)).

All L rows come from one exact elimination of the reduced D_n matrix,
with one right-hand side per row; the family is degenerate when D_n
vanishes. The dual table P satisfies the product identity
Q(w) P(w)^T = w^{nL} I (with the entry weights w^{1-delta_ij} folded
into both matrices) and is constructed from the adjugate of Q;
`mahler_duality` builds the product and checks it.

Polynomial matrices have one arithmetic engine, integer points: each row
is scaled to integer coefficients, the matrix is evaluated at the
integers 0..D (D a degree bound), the integer values are combined
(Bareiss determinants and cofactors from `linalg` for det and adj,
row-by-row dot products for Q P^T), and each entry is interpolated back.
No polynomial is multiplied by a polynomial. Cofactor expansion and
schoolbook products survive only as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import factorial, prod
from operator import mul
from typing import Sequence

from .errors import ConsistencyError, DegenerateFamily, InsufficientOrder, SingularMatrix
from .linalg import ToeplitzBlockSpec, int_det, toeplitz_solve
from .series import (
    Polynomial,
    SeriesFamily,
    TruncatedSeries,
    row_times_column,
    scale_to_integers,
)

__all__ = [
    "PolyMatrix",
    "HermitePadeResult",
    "hermite_pade",
    "q_matrix",
    "simultaneous_pade",
    "MahlerDuality",
    "mahler_duality",
    "schlesinger_matrix",
]


class PolyMatrix:
    """Immutable square matrix of exact polynomials in one variable."""

    __slots__ = ("_entries", "_size", "_var")

    def __init__(self, entries: Sequence[Sequence[Polynomial]], var: str = "w"):
        rows = tuple(tuple(e for e in row) for row in entries)
        size = len(rows)
        for row in rows:
            if len(row) != size:
                raise ValueError("polynomial matrix must be square")
            for e in row:
                if not isinstance(e, Polynomial):
                    raise TypeError("entries must be Polynomial")
        self._entries = rows
        self._size = size
        self._var = var

    @property
    def size(self) -> int:
        return self._size

    @property
    def var(self) -> str:
        return self._var

    @property
    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        return self._entries

    def entry(self, i: int, j: int) -> Polynomial:
        return self._entries[i][j]

    def det(self) -> Polynomial:
        """Exact determinant by evaluation, integer Bareiss and interpolation.

        With B = diag(s) A integral (see _integer_points), det B has degree
        at most D and is recovered from its values at x = 0..D; then
        det A = det B / prod(s). Polynomial-time, no Fraction arithmetic
        inside the elimination.
        """
        if self._size == 0:
            return Polynomial.one()
        points, scales = self._integer_points()
        return _from_values([int_det(m) for m in points], prod(scales))

    def adjugate(self) -> PolyMatrix:
        """adj with self * adj = det * I (classical adjugate)."""
        return self._det_and_adjugate()[1]

    def _det_and_adjugate(self) -> tuple[Polynomial, PolyMatrix]:
        """(det, adj) from one set of evaluations.

        Every signed cofactor of B = diag(s) A is found at x = 0..D by
        integer Bareiss and interpolated, the same bound D covering each
        entry; then adj(A)_{ij} = adj(B)_{ij} s_j / prod(s). At each point
        det B = sum_i B_{0i} adj(B)_{i0}, expansion along row 0, and
        det A = det B / prod(s).
        """
        n = self._size
        if n == 0:
            return Polynomial.one(), self
        points, scales = self._integer_points()
        total = prod(scales)
        values = [[[] for _ in range(n)] for _ in range(n)]
        dets = []
        for m in points:
            for i in range(n):
                for j in range(n):
                    minor = [
                        [v for c, v in enumerate(row) if c != i]
                        for r, row in enumerate(m)
                        if r != j
                    ]
                    cof = int_det(minor)
                    values[i][j].append(cof if (i + j) % 2 == 0 else -cof)
            dets.append(sum(m[0][i] * values[i][0][-1] for i in range(n)))
        adj = PolyMatrix(
            [
                [_from_values(values[i][j], total // scales[j]) for j in range(n)]
                for i in range(n)
            ],
            var=self._var,
        )
        return _from_values(dets, total), adj

    def _integer_points(
        self, bound: int | None = None
    ) -> tuple[list[list[list[int]]], list[int]]:
        """B = diag(s) A evaluated at x = 0..bound, and the row scales s.

        s_r is the lcm of the coefficient denominators in row r, so B has
        integer coefficients. bound defaults to D, the sum over rows of the
        largest entry degree, a zero row counting 0: it bounds deg det B
        and the degree of every cofactor of B, a zero row included.
        """
        if bound is None:
            bound = sum(max(0, max(len(e.coeffs) for e in row) - 1) for row in self._entries)
        scales: list[int] = []
        rows: list[list[tuple[int, ...]]] = []
        for row in self._entries:
            s, ints = scale_to_integers([c for e in row for c in e.coeffs])
            scales.append(s)
            it = iter(ints)
            rows.append([tuple(islice(it, len(e.coeffs))) for e in row])
        points = [
            [[_horner(e, x) for e in row] for row in rows] for x in range(bound + 1)
        ]
        return points, scales

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self._var == other._var and self._entries == other._entries

    def __repr__(self) -> str:
        return f"PolyMatrix({self._size}x{self._size}, var={self._var!r})"


def _horner(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _max_degree(m: PolyMatrix) -> int:
    """The largest entry degree of m, a zero matrix counting 0."""
    return max(0, max((len(e.coeffs) for row in m.entries for e in row), default=0) - 1)


def _from_values(values: Sequence[int], denom: int) -> Polynomial:
    """The polynomial p of degree < len(values) with p(x) = values[x] / denom
    at x = 0, 1, ...; values[x] must be the values of an integer polynomial."""
    return Polynomial([Fraction(c, denom) for c in _interpolate(values)])


def _interpolate(values: Sequence[int]) -> list[int]:
    """Coefficients of the integer polynomial p of degree < len(values)
    with p(x) = values[x] at x = 0, 1, ....

    Newton's forward differences put p in the falling-factorial basis,
    p(x) = sum_k Delta^k p(0) (x)_k / k!; the nested form is evaluated with
    every term scaled by d! so that the single division happens at the end.
    """
    d = len(values) - 1
    diffs: list[int] = []
    row = list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    acc = [diffs[d]]
    weight = 1  # d! / k!
    for k in range(d - 1, -1, -1):
        weight *= k + 1
        nxt = [0] + acc
        for m, c in enumerate(acc):
            nxt[m] -= k * c
        nxt[0] += diffs[k] * weight
        acc = nxt
    scale = factorial(d)
    out = []
    for c in acc:
        q, r = divmod(c, scale)
        if r:
            raise ConsistencyError("interpolated polynomial is not integral")
        out.append(q)
    return out


@dataclass(frozen=True)
class HermitePadeResult:
    """One full type-I table: row i approximates with weight on f_i.

    q_table[i][j] is Q^(i)_j; remainders[i] is rho^i carried to its tightest
    provable order; vanishing lists the i >= 1 whose remainder is
    identically zero on the trusted window (reported, not an error).
    """

    family: SeriesFamily
    n: int
    q_table: tuple[tuple[Polynomial, ...], ...]
    remainders: tuple[TruncatedSeries, ...]
    vanishing: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.family.size


def _row_remainder(fam: SeriesFamily, qrow: Sequence[Polynomial], i: int) -> TruncatedSeries:
    """rho^i = Q^(i)_i f_i + sum_{j != i} w Q^(i)_j f_j, tightest window.

    The f_0 factor is the constant 1 (exact at every order by the family
    invariant), so the j = 0 term never limits the trust window: it is
    added last, at the window of the other terms.
    """
    weighted = [p.shift(0 if j == i else 1) for j, p in enumerate(qrow)]
    acc = row_times_column(weighted[1:], fam.members[1:])
    return acc + weighted[0].as_series(acc.order)


def hermite_pade(fam: SeriesFamily, n: int) -> HermitePadeResult:
    """Solve all L type-I rows exactly, from one integer elimination.

    Row i >= 1 solves the order-Ln system of D_n (right-hand side
    -b^i_1..-b^i_{Ln}), row 0 a bordered system of order Ln + 1 (right-hand
    side the last unit vector). Because f_0 = 1, the f_0 columns of both
    hold an identity block over zeros, so each system is [[I, X], [0, M]]
    with M the reduced D_n matrix of order m = (L-1)n, and det = D_n for
    both. M is eliminated once with all L lower right-hand sides; each row
    then reads its f_0 coefficients off the top rows. Raises
    DegenerateFamily when D_n = 0 and InsufficientOrder when
    fam.order < Ln + 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    L = fam.size
    ln = L * n
    if fam.order < ln + 2:
        raise InsufficientOrder(
            f"need order >= {ln + 2} for L={L}, n={n}; have {fam.order}"
        )
    m = (L - 1) * n
    # [M | e_m | b^1 | ... | b^{L-1}]: e_m is f_0 read at 1-m..0, and
    # b^i = b^i_{n+1..Ln}, the lower part of row i's right-hand side negated
    layout = [ToeplitzBlockSpec(j, n, m, n) for j in range(1, L)]
    layout.append(ToeplitzBlockSpec(0, 1 - m, m, 1))
    layout += [ToeplitzBlockSpec(i, n + 1, m, 1) for i in range(1, L)]
    try:
        sols = toeplitz_solve(fam, [layout])
    except SingularMatrix:
        raise DegenerateFamily("type-I system determinant") from None

    rows: list[tuple[Polynomial, ...]] = []
    for i, sol in enumerate(sols):
        y = list(sol) if i == 0 else [-x for x in sol]
        chunks = [y[(j - 1) * n : j * n] for j in range(1, L)]
        # In rho^i, coefficient c of chunk j sits at w^{c+1} f_j, and Q^(i)_0
        # at w^{1-delta_i0}: the top rows make rho^i vanish through w^n.
        shift = 0 if i == 0 else 1
        q0 = []
        for k in range(shift, n + 1):
            acc = fam.coefficient(i, k) if i else Fraction(0)
            for j, chunk in enumerate(chunks, start=1):
                for c in range(k - 1):
                    acc += chunk[c] * fam.coefficient(j, k - 1 - c)
            q0.append(-acc)
        qrow = [Polynomial(q0)]
        for j, chunk in enumerate(chunks, start=1):
            qrow.append(Polynomial([1] + chunk) if j == i else Polynomial(chunk))
        rows.append(tuple(qrow))

    remainders = tuple(_row_remainder(fam, rows[i], i) for i in range(L))
    vanishing = tuple(i for i in range(1, L) if remainders[i].is_zero())
    return HermitePadeResult(
        family=fam,
        n=n,
        q_table=tuple(rows),
        remainders=remainders,
        vanishing=vanishing,
    )


def q_matrix(result: HermitePadeResult) -> PolyMatrix:
    """Q(w) with the w^{1-delta_ij} weights folded into the entries."""
    L = result.size
    return PolyMatrix(
        [
            [result.q_table[i][j].shift(0 if i == j else 1) for j in range(L)]
            for i in range(L)
        ],
        var="w",
    )


def simultaneous_pade(result: HermitePadeResult) -> PolyMatrix:
    """The dual table P(w) with Q(w) P(w)^T = w^{nL} I.

    det Q, read off the evaluations that build adj Q, must be c * w^{nL}
    with c != 0; P is adj(Q)^T / c, built entry by entry. With the row
    normalizations in force c = 1, but c is computed, not assumed.
    """
    qm = q_matrix(result)
    ln = result.n * result.size
    d, adj = qm._det_and_adjugate()
    if d.is_zero():
        raise DegenerateFamily("det(Q)")
    c = d.coefficient(ln)
    if c == 0:
        raise DegenerateFamily("det(Q)")
    if d != Polynomial.one().shift(ln) * c:
        raise ConsistencyError(f"det Q is not a degree-{ln} monomial: {d!r}")
    inv = 1 / c
    size = qm.size
    return PolyMatrix(
        [[adj.entry(j, i) * inv for j in range(size)] for i in range(size)], var=qm.var
    )


@dataclass(frozen=True)
class MahlerDuality:
    """The product Q P^T, its target w^{nL} I, and whether they agree."""

    product: PolyMatrix
    target: PolyMatrix
    holds: bool


def mahler_duality(qm: PolyMatrix, pm: PolyMatrix, n: int) -> MahlerDuality:
    """Build Q P^T once, by evaluation, and compare it exactly with w^{nL} I.

    Rows of Q and of P are scaled to integers, by s_i and t_j (see
    PolyMatrix._integer_points), and evaluated at x = 0..D, D the largest
    entry degree of Q plus that of P, which bounds every entry of the
    product. At each point s_i t_j (Q P^T)_{ij} is the integer product of
    row i of Q and row j of P; each entry is interpolated and divided by
    s_i t_j. No polynomial is multiplied.
    """
    size = qm.size
    if pm.size != size or pm.var != qm.var:
        raise ValueError("size or variable mismatch")
    bound = _max_degree(qm) + _max_degree(pm)
    q_points, s = qm._integer_points(bound)
    p_points, t = pm._integer_points(bound)
    product = PolyMatrix(
        [
            [
                _from_values(
                    [sum(map(mul, qx[i], px[j])) for qx, px in zip(q_points, p_points)],
                    s[i] * t[j],
                )
                for j in range(size)
            ]
            for i in range(size)
        ],
        var=qm.var,
    )
    mono = Polynomial.one().shift(n * size)
    zero = Polynomial.zero()
    target = PolyMatrix(
        [[mono if i == j else zero for j in range(size)] for i in range(size)], var=qm.var
    )
    return MahlerDuality(product, target, product == target)


def schlesinger_matrix(result: HermitePadeResult) -> PolyMatrix:
    """R(x) = x^n Q(1/x), a polynomial matrix in x.

    Entry (i, j) of R is x^{n-1+delta_ij} Q^(i)_j(1/x): the coefficient
    list of Q^(i)_j padded to its degree bound and reversed. A normalized
    type-I table gives det R = 1; that is the caller's check to make
    (one R.det() call), not something this constructor asserts.
    """
    L = result.size
    n = result.n
    out = []
    for i in range(L):
        row = []
        for j in range(L):
            bound = n - 1 + (1 if i == j else 0)
            cs = list(result.q_table[i][j].coeffs)
            cs.extend([Fraction(0)] * (bound + 1 - len(cs)))
            row.append(Polynomial(list(reversed(cs))))
        out.append(row)
    return PolyMatrix(out, var="x")
