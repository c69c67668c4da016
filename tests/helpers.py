"""Shared fixtures and independent oracles for the test suite.

Every dual-route assertion checks library output against a second
computation that shares no code with the library: Laplace-expansion
determinants, Cramer solves, cofactor-expansion polynomial determinants
and adjugates, schoolbook polynomial-matrix products, schoolbook convolution and long division for series,
first-letter Pfaffian expansion, and a from-scratch residual for the
expansion at irregular infinity.  The Pfaffian's defining sum over
perfect matchings, which `pfaffian` no longer takes, is kept here as a
second Pfaffian oracle; it reads the matchings and their signs from
`perfect_matchings`, which is tested on its own against hand counts and
crossing parities.  Oracles work on plain lists of
`fractions.Fraction` so a library bug cannot hide in both routes.  The
exceptions are the three Fraction routes the library no longer takes,
kept here as oracles.  Two build their block Toeplitz matrices entry by
entry from `fam.coefficient`, as `Fraction`s.  The route for block
Toeplitz determinants hands the matrix to `det_exact` and checks
`linalg.block_toeplitz_det`.  The route for the type-I table solves the
full D_n system B (rows i >= 1) and the bordered system B0 (row 0) with
`solve_exact`, one right-hand side at a time, and checks `hermite_pade`,
which eliminates only the reduced D_n matrix.  The third is the Fraction
(Psi, S) recursion at infinity, which checks the integer recursion of
`ode.gauge_expansion`.  `exact_matrix_a_tilde` keeps the `ExactMatrix`
sum that `ode._a_tilde` used to build, as its oracle.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from math import comb

from padetau import (
    DegenerateFamily,
    ExactMatrix,
    GaugeExpansion,
    HermitePadeResult,
    InfinityExponentData,
    MatrixSeries,
    NonDiagonalizableLeading,
    Polynomial,
    ResonantExponents,
    SeriesFamily,
    SingularMatrix,
    ToeplitzBlockSpec,
    TruncatedSeries,
    det_exact,
    perfect_matchings,
    solve_exact,
)
from padetau.ode import _a_tilde

# ---------------------------------------------------------------------------
# random data


def rand_frac(rng: random.Random, span: int = 9, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_family(
    rng: random.Random, size: int, order: int, span: int = 9, den: int = 4
) -> SeriesFamily:
    """f_0 = 1 exactly, each f_i = O(w) with random rational coefficients."""
    members = [TruncatedSeries.constant(1, order)]
    for _ in range(size - 1):
        members.append(
            TruncatedSeries(
                [Fraction(0)] + [rand_frac(rng, span, den) for _ in range(order - 1)],
                order,
            )
        )
    return SeriesFamily(members)


def family_from_rows(rows, order: int | None = None) -> SeriesFamily:
    return SeriesFamily([TruncatedSeries(row, order) for row in rows])


def mixed_denominator_family(
    rng: random.Random,
    size: int,
    order: int,
    zero_member: int | None = None,
    span: int = 9,
) -> SeriesFamily:
    """Like rand_family, but member i draws denominators up to its own
    bound in 1..9; member zero_member, if given, is identically zero. A
    small span makes zero determinants common."""
    members = [TruncatedSeries.constant(1, order)]
    for i in range(1, size):
        den = rng.randint(1, 9)
        coeffs = [Fraction(0)] + [rand_frac(rng, span, den) for _ in range(order - 1)]
        if i == zero_member:
            coeffs = [Fraction(0)] * order
        members.append(TruncatedSeries(coeffs, order))
    return SeriesFamily(members)


# ---------------------------------------------------------------------------
# the Fraction routes: every block Toeplitz matrix written entry by entry
# from fam.coefficient, then det_exact or solve_exact


def fraction_block_matrix(fam: SeriesFamily, bands) -> ExactMatrix:
    """The block matrix read through bands: in the block of spec bands[R][C]
    on f_t, entry (r, c), 0-based, is b^t_{offset + r - c}."""
    rows = [
        [
            fam.coefficient(spec.series_index, spec.offset + r - c)
            for spec in band
            for c in range(spec.width)
        ]
        for band in bands
        for r in range(band[0].height)
    ]
    return ExactMatrix(rows, cols=sum(spec.width for spec in bands[0]) if bands else 0)


def fraction_block_det(fam: SeriesFamily, bands) -> Fraction:
    """det of the block matrix read through bands, by det_exact."""
    return det_exact(fraction_block_matrix(fam, bands))


def fraction_type_one_systems(fam: SeriesFamily, n: int) -> tuple[ExactMatrix, ExactMatrix]:
    """B, the full D_n matrix of order Ln shared by rows i >= 1, and B0,
    the bordered matrix of order Ln + 1 for row 0."""
    size = fam.size
    ln = size * n
    b = fraction_block_matrix(fam, [[ToeplitzBlockSpec(j, 0, ln, n) for j in range(size)]])
    b0 = fraction_block_matrix(
        fam,
        [
            [ToeplitzBlockSpec(0, 0, ln + 1, n + 1)]
            + [ToeplitzBlockSpec(j, -1, ln + 1, n) for j in range(1, size)]
        ],
    )
    return b, b0


def fraction_type_one_rows(fam: SeriesFamily, n: int) -> tuple[tuple[Polynomial, ...], ...]:
    """The type-I table Q^(i)_j from B and B0, one solve_exact per row.

    Row i >= 1 solves B x = -(b^i_1 .. b^i_{Ln}), row 0 solves B0 x = e_{Ln}.
    A singular system raises DegenerateFamily naming it.
    """
    size = fam.size
    ln = size * n
    b, b0 = fraction_type_one_systems(fam, n)
    rows = []
    for i in range(1, size):
        try:
            sol = solve_exact(b, [-fam.coefficient(i, k) for k in range(1, ln + 1)])
        except SingularMatrix:
            raise DegenerateFamily("type-I system determinant") from None
        chunks = [list(sol[j * n : (j + 1) * n]) for j in range(size)]
        rows.append(
            tuple(Polynomial([1] + c) if j == i else Polynomial(c) for j, c in enumerate(chunks))
        )
    try:
        sol = solve_exact(b0, [0] * ln + [1])
    except SingularMatrix:
        raise DegenerateFamily("extended type-I system determinant") from None
    rows.insert(
        0,
        (Polynomial(sol[: n + 1]),)
        + tuple(Polynomial(sol[n + 1 + (j - 1) * n : n + 1 + j * n]) for j in range(1, size)),
    )
    return tuple(rows)


def fraction_tau_forms(fam: SeriesFamily, n: int) -> tuple[Fraction, Fraction]:
    """D_n by its full form (with the f_0 blocks) and its reduced form."""
    size = fam.size
    ln = size * n
    full = fraction_block_det(
        fam, [[ToeplitzBlockSpec(t, 0, ln, n) for t in range(size)]]
    )
    reduced = fraction_block_det(
        fam, [[ToeplitzBlockSpec(t, n, (size - 1) * n, n) for t in range(1, size)]]
    )
    return full, reduced


def fraction_bordered_forms(
    fam: SeriesFamily, n: int, i: int, j: int
) -> tuple[Fraction, Fraction]:
    """E^{i,j}_n by its full form and its reduced form."""
    size = fam.size
    ln = size * n
    forms = []
    for first, body_offset, height in ((0, 0, ln), (1, n, (size - 1) * n)):
        body = []
        border = []
        for t in range(first, size):
            bump, width = (1, n + 1) if t == i else (0, n)
            body.append(ToeplitzBlockSpec(t, body_offset + bump, height, width))
            border.append(ToeplitzBlockSpec(t, ln + j - 1 + bump, 1, width))
        forms.append(fraction_block_det(fam, [body, border]))
    return forms[0], forms[1]


# ---------------------------------------------------------------------------
# exact linear algebra oracles (Laplace and Cramer; small sizes only)


def double_q_row_1(res: HermitePadeResult) -> HermitePadeResult:
    """The same type-I result with row 1 of Q scaled by 2, so det R = 2."""
    two = Polynomial([2])
    doubled = tuple(p * two for p in res.q_table[1])
    return replace(res, q_table=(res.q_table[0], doubled) + res.q_table[2:])


def laplace_det(rows: list[list[Fraction]]) -> Fraction:
    """Cofactor expansion along the first row.  O(m!) — keep m small."""
    m = len(rows)
    if m == 0:
        return Fraction(1)
    if any(len(r) != m for r in rows):
        raise ValueError("not square")
    if m == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    sign = 1
    for c in range(m):
        if rows[0][c] != 0:
            minor = [[row[cc] for cc in range(m) if cc != c] for row in rows[1:]]
            total += sign * rows[0][c] * laplace_det(minor)
        sign = -sign
    return total


def cramer_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    d = laplace_det(rows)
    if d == 0:
        raise ZeroDivisionError("singular system")
    m = len(rows)
    out = []
    for c in range(m):
        replaced = [
            [rhs[r] if cc == c else rows[r][cc] for cc in range(m)] for r in range(m)
        ]
        out.append(laplace_det(replaced) / d)
    return out


# ---------------------------------------------------------------------------
# polynomial-matrix oracles: recursive cofactor expansion on coefficient
# lists (ascending, trailing zeros stripped).  O(m!) products — keep m small.


def _poly_strip(a: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_add(a: list[Fraction], b: list[Fraction], sign: int = 1) -> list[Fraction]:
    n = max(len(a), len(b))
    return _poly_strip(
        [
            (a[k] if k < len(a) else 0) + sign * (b[k] if k < len(b) else 0)
            for k in range(n)
        ]
    )


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    return _poly_strip(conv_window(a, b, len(a) + len(b) - 1))


def poly_matrix_mul(a: list[list[list[Fraction]]], b: list[list[list[Fraction]]]) -> list[list[list[Fraction]]]:
    """Schoolbook product of two square matrices of polynomials: entry
    (i, j) is sum_k a[i][k] * b[k][j], each product by convolution."""
    m = len(a)
    out = []
    for i in range(m):
        out_row = []
        for j in range(m):
            acc: list[Fraction] = []
            for k in range(m):
                acc = _poly_add(acc, _poly_mul(a[i][k], b[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def cofactor_det(rows: list[list[list[Fraction]]]) -> list[Fraction]:
    """Determinant of a square matrix of polynomials, by expansion along
    the first column."""
    m = len(rows)
    if m == 0:
        return [Fraction(1)]
    if m == 1:
        return _poly_strip(rows[0][0])
    acc: list[Fraction] = []
    for i in range(m):
        if not _poly_strip(rows[i][0]):
            continue
        minor = [row[1:] for r, row in enumerate(rows) if r != i]
        acc = _poly_add(acc, _poly_mul(rows[i][0], cofactor_det(minor)), 1 if i % 2 == 0 else -1)
    return acc


def cofactor_adjugate(rows: list[list[list[Fraction]]]) -> list[list[list[Fraction]]]:
    """Classical adjugate: entry (i, j) is (-1)^(i+j) times the minor that
    deletes row j and column i."""
    m = len(rows)
    out = []
    for i in range(m):
        out_row = []
        for j in range(m):
            minor = [
                [e for c, e in enumerate(row) if c != i]
                for r, row in enumerate(rows)
                if r != j
            ]
            d = cofactor_det(minor)
            out_row.append(d if (i + j) % 2 == 0 else [-c for c in d])
        out.append(out_row)
    return out


# ---------------------------------------------------------------------------
# series oracles on plain coefficient lists (window = trusted length)


def conv_window(a: list[Fraction], b: list[Fraction], win: int) -> list[Fraction]:
    """Schoolbook product of coefficient lists, truncated to length win."""
    out = [Fraction(0)] * win
    for p, ap in enumerate(a):
        if p >= win:
            break
        if ap == 0:
            continue
        for q, bq in enumerate(b):
            if p + q >= win:
                break
            out[p + q] += ap * bq
    return out


def shift_window(a: list[Fraction], k: int, win: int) -> list[Fraction]:
    """Multiply by w^k (k >= 0), truncated to length win."""
    return ([Fraction(0)] * k + list(a))[:win] + [Fraction(0)] * max(
        0, win - k - len(a)
    )


def long_div_inverse(c: list[Fraction], win: int) -> list[Fraction]:
    """Coefficients of 1/c(w) through w^(win-1) by schoolbook long division."""
    c0 = Fraction(c[0])
    if c0 == 0:
        raise ZeroDivisionError("no reciprocal: zero constant term")
    rem = [Fraction(1)] + [Fraction(0)] * (win - 1)
    out = []
    for k in range(win):
        qk = rem[k] / c0
        out.append(qk)
        for j, cj in enumerate(c):
            if k + j >= win:
                break
            rem[k + j] -= qk * Fraction(cj)
    return out


def series_window(s: TruncatedSeries) -> list[Fraction]:
    return list(s.coeffs)


# ---------------------------------------------------------------------------
# Pfaffian oracles


def pf_expand(f, word) -> Fraction:
    """First-letter expansion: Pf = sum_k (-1)^(k-1) f(w_0, w_k) Pf(rest)."""
    w = list(word)
    if len(w) % 2:
        raise ValueError("odd word")
    if not w:
        return Fraction(1)
    total = Fraction(0)
    sign = 1
    for k in range(1, len(w)):
        val = f(w[0], w[k])
        if val != 0:
            total += sign * val * pf_expand(f, w[1:k] + w[k + 1 :])
        sign = -sign
    return total


def pf_matching_sum(f, word) -> Fraction:
    """The defining sum: sgn times the arc product over every matching.

    This is the route `pfaffian` took before it moved to skew elimination;
    it costs (2n-1)!! terms, so keep words to ten letters or fewer. A
    repeated letter needs no special case: the position matrix then has
    two equal rows and the sum cancels to zero.
    """
    total = Fraction(0)
    for m in perfect_matchings(word):
        term = Fraction(m.sign)
        for a, b in m.arcs:
            term *= f(a, b)
        total += term
    return total


def position_matrix(f, word) -> list[list[Fraction]]:
    """The skew matrix f(w_p, w_q) indexed by positions of the word."""
    return [[f(a, b) for b in word] for a in word]


# ---------------------------------------------------------------------------
# residual oracle for the expansion at irregular infinity
#
# The library derives the scaled equation and the pole expansion with a
# binomial shortcut; this oracle rebuilds everything with long division
# and convolution only, so the two routes share no formulas.


def ode_residual_oracle(ode, phi, data) -> bool:
    """Check -w^(r+1) Phi' + Phi diag(w^(r-1) T'(1/w)) = Atilde(w) Phi.

    phi is the unit matrix series, data the exponent data; all entries of
    the residual must vanish through w^(N-1) where N = phi.order.
    """
    size = ode.size
    r = ode.rank_at_infinity
    win = phi.order
    pm = [[list(phi.entry(a, b).coeffs) for b in range(size)] for a in range(size)]

    atil = [[[Fraction(0)] * win for _ in range(size)] for _ in range(size)]
    for j in range(1, r + 1):
        k = r - j
        if k < win:
            mat = ode.infinity[j - 1]
            for a in range(size):
                for b in range(size):
                    atil[a][b][k] -= mat.at(a, b)
    for pole in ode.poles:
        inv = long_div_inverse([Fraction(1), -Fraction(pole.position)], win)
        base = shift_window(inv, 1, win)  # (x - a)^(-1) as a w-series
        power = base
        for mat in pole.matrices:
            contrib = shift_window(power, r - 1, win)
            for a in range(size):
                for b in range(size):
                    v = mat.at(a, b)
                    if v != 0:
                        for k in range(win):
                            if contrib[k] != 0:
                                atil[a][b][k] += v * contrib[k]
            power = conv_window(power, base, win)

    tp = []
    for b in range(size):
        col = [Fraction(0)] * (r + 1)
        for j in range(1, r + 1):
            col[r - j] = -Fraction(data.irregular[j - 1][b])
        col[r] = -Fraction(data.exponents[b])
        tp.append(col)

    for a in range(size):
        for b in range(size):
            for k in range(win):
                acc = Fraction(0)
                if k - r >= 1:
                    acc -= (k - r) * pm[a][b][k - r]
                for q in range(min(r, k) + 1):
                    acc += pm[a][b][k - q] * tp[b][q]
                for c in range(size):
                    for p in range(k + 1):
                        if atil[a][c][p] != 0:
                            acc -= atil[a][c][p] * pm[c][b][k - p]
                if acc != 0:
                    return False
    return True


# ---------------------------------------------------------------------------
# the Fraction (Psi, S) recursion at infinity
#
# gauge_expansion's recursion as it was before it ran on integers: the same
# equation, solved order by order in Fractions with a division by
# lam_b - lam_a, so it checks the integer scales of the library route.


def fraction_gauge_expansion(ode, order: int) -> GaugeExpansion:
    """Solve -w^{r+1} Psi_w + Psi S = Atil Psi order by order.

    Psi is returned to the requested order, S to order r + order; the
    exponent data is always complete (all of T_{-r}..T_{-1} and T_0).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    L, r = ode.size, ode.rank_at_infinity
    leading = ode.infinity[r - 1]
    for a in range(L):
        for b in range(L):
            if a != b and leading.at(a, b) != 0:
                raise NonDiagonalizableLeading(
                    "leading matrix at infinity must be diagonal"
                )
    lam = [-leading.at(a, a) for a in range(L)]
    if len(set(lam)) != L:
        raise ResonantExponents("leading diagonal entries must be distinct")

    kmax = r + order - 1
    # The nonzero entries (g, c) of each row of every nonzero Atil_jp,
    # jp >= 1: without poles Atil_jp vanishes for jp >= r.
    atil_terms = [
        (jp, [[(g, c) for g, c in enumerate(row) if c] for row in mat.entries])
        for jp, mat in enumerate(_a_tilde(ode, kmax))
        if jp >= 1 and any(c for row in mat.entries for c in row)
    ]
    zero = Fraction(0)
    psi: list[list[list[Fraction]]] = [
        [[Fraction(1) if a == b else zero for b in range(L)] for a in range(L)]
    ]
    stil: list[list[Fraction]] = [list(lam)]
    for k in range(1, kmax + 1):
        balance = [[zero] * L for _ in range(L)]
        for jp, rows in atil_terms:
            if jp > k:
                break
            ps = psi[k - jp]
            for row, terms in zip(balance, rows):
                for g, c in terms:
                    for b, p in enumerate(ps[g]):
                        if p:
                            row[b] += c * p
        # Psi_k has zero diagonal for k >= 1, so only a != b terms of the
        # Psi S convolution and of the (k - r) Psi_{k-r} term survive.
        for jp in range(1, k):
            ps, sd = psi[k - jp], stil[jp]
            for a in range(L):
                row, pa = balance[a], ps[a]
                for b in range(L):
                    if b != a and pa[b]:
                        row[b] -= pa[b] * sd[b]
        if k - r >= 1:
            ps = psi[k - r]
            for a in range(L):
                row, pa = balance[a], ps[a]
                for b in range(L):
                    if b != a and pa[b]:
                        row[b] += (k - r) * pa[b]
        stil.append([balance[a][a] for a in range(L)])
        psi.append(
            [
                [
                    balance[a][b] / (lam[b] - lam[a]) if a != b else zero
                    for b in range(L)
                ]
                for a in range(L)
            ]
        )

    irregular = tuple(
        tuple(-stil[r - j][a] for a in range(L)) for j in range(1, r + 1)
    )
    exponents = tuple(-stil[r][a] for a in range(L))
    psi_series = MatrixSeries(
        [
            [TruncatedSeries([psi[k][a][b] for k in range(order)], order) for b in range(L)]
            for a in range(L)
        ]
    )
    s = tuple(
        TruncatedSeries([stil[k][b] for k in range(kmax + 1)], kmax + 1)
        for b in range(L)
    )
    return GaugeExpansion(psi_series, s, InfinityExponentData(irregular, exponents))


# ---------------------------------------------------------------------------
# w^{r-1} A(1/w) summed one ExactMatrix term at a time: the oracle of
# ode._a_tilde, which sums on integers


def exact_matrix_a_tilde(ode, upto: int) -> list[ExactMatrix]:
    """w^{r-1} A(1/w) to power upto, summed one ExactMatrix term at a time."""
    L, r = ode.size, ode.rank_at_infinity
    zero = ExactMatrix([[0] * L for _ in range(L)], cols=L)
    out = [zero] * (upto + 1)
    for jp in range(min(r - 1, upto) + 1):
        out[jp] = -ode.infinity[r - 1 - jp]
    for pole in ode.poles:
        a = pole.position
        for j, mat in enumerate(pole.matrices):
            for jp in range(r + j, upto + 1):
                m = jp - r - j
                coeff = comb(m + j, j) * a**m
                if coeff:
                    out[jp] = out[jp] + mat.scale(coeff)
    return out


# ---------------------------------------------------------------------------
# report assertion


def assert_identity(report) -> None:
    assert report.lhs == report.rhs, f"{report.name}: {report.lhs} != {report.rhs}"
