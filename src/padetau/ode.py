"""Linear rational ODE systems and their formal expansion at infinity.

The system is dY/dx = A(x) Y with

    A(x) = sum_mu sum_{j=0}^{r_mu} A_{mu,-j} (x - a_mu)^{-j-1}
           - sum_{j=1}^{r} A_{inf,-j} x^{j-1},

and the normalized solution at infinity is Y ~ Phi(w) e^{T(x)}, w = 1/x,
Phi(0) = I, where T(x) = sum_{j=1}^{r} T_{-j} w^{-j}/(-j) + T_0 log w is
diagonal. Only the expansion at infinity is provided, and only when
A_{inf,-r} is diagonal with pairwise-distinct entries.

Substituting Y = Phi e^T and scaling by w^{r-1} gives

    -w^{r+1} Phi_w + Phi S(w) = Atil(w) Phi,      Atil = w^{r-1} A(1/w),

with S diagonal. Phi itself is not determined triangularly by this
equation once r >= 2 (a diagonal coefficient of Phi_{k-1} would feed the
off-diagonal part of Phi_k), so Phi is factored as Phi = Psi D with Psi
carrying unit diagonal and D diagonal: the (Psi, S) recursion closes
order by order, S's low coefficients are the exponent data T, and its
tail integrates to log D.

The family the tau-quotients need, Phi_i0 / Phi_00 = Psi_i0 D_0 / D_0,
is Psi's column 0 because D cancels, so `gauge_expansion` stops at
(Psi, S) and `gauge_residual` checks that pair against the equation
-w^{r+1} Psi_w + Psi S = Atil Psi. `expand_at_infinity` builds Phi from
the same recursion when the full solution is wanted.

The recursion runs on integers. With q the lcm of every denominator in
the spec and P the lcm of the numerators of the gaps lam_b - lam_a, it
carries (qP)^k Psi_k and (qP)^{k-1} q S_k. Every coefficient of
w^{r-1} A(1/w) at w^jp becomes an integer once scaled by (qP)^{jp-1} q
(a pole contributes at w^jp only through powers a^m with m < jp, and q
clears a's denominator), the division by a gap becomes a multiplication,
and each value becomes a Fraction only when Psi and S are returned.
`gauge_residual` is the independent route: it multiplies Psi S and
Atil Psi out as series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Sequence

from .errors import (
    ConsistencyError,
    InsufficientOrder,
    InvalidPartition,
    NonDiagonalizableLeading,
    ResonantExponents,
    ZeroParameter,
)
from .linalg import ExactMatrix
from .series import TruncatedSeries, rational, scale_to_integers
from .tau import MatrixSeries

__all__ = [
    "FinitePole",
    "RationalODE",
    "InfinityExponentData",
    "GaugeExpansion",
    "gauge_expansion",
    "expand_at_infinity",
    "expansion_residual",
    "gauge_residual",
    "pii_system",
    "accessory_count",
    "ode_from_dict",
    "ode_to_dict",
]


@dataclass(frozen=True)
class FinitePole:
    """One finite singular point: position a and matrices A_{-0..-r}."""

    position: Fraction
    matrices: tuple[ExactMatrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "position", rational(self.position))
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if not self.matrices:
            raise ValueError("a pole needs at least the residue matrix")

    @property
    def rank(self) -> int:
        return len(self.matrices) - 1


@dataclass(frozen=True)
class RationalODE:
    """Coefficient data of dY/dx = A(x) Y; infinity[j-1] is A_{inf,-j}."""

    size: int
    poles: tuple[FinitePole, ...]
    infinity: tuple[ExactMatrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "poles", tuple(self.poles))
        object.__setattr__(self, "infinity", tuple(self.infinity))
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if not self.infinity:
            raise ValueError("rank at infinity must be >= 1")
        for m in self.infinity:
            if m.rows != self.size or m.cols != self.size:
                raise ValueError("infinity matrices must be size x size")
        seen = set()
        for pole in self.poles:
            if pole.position in seen:
                raise ValueError(f"duplicate pole at {pole.position}")
            seen.add(pole.position)
            for m in pole.matrices:
                if m.rows != self.size or m.cols != self.size:
                    raise ValueError("pole matrices must be size x size")

    @property
    def rank_at_infinity(self) -> int:
        return len(self.infinity)


@dataclass(frozen=True)
class InfinityExponentData:
    """Diagonal exponent data at infinity.

    irregular[j-1] holds the diagonal of T_{-j} (j = 1..r); exponents is
    the diagonal of T_0, the characteristic exponents.
    """

    irregular: tuple[tuple[Fraction, ...], ...]
    exponents: tuple[Fraction, ...]

    @property
    def rank(self) -> int:
        return len(self.irregular)


def _a_tilde(ode: RationalODE, upto: int) -> list[ExactMatrix]:
    """Coefficients of w^{r-1} A(1/w) for powers w^0 .. w^upto.

    Each power is summed as integer entries over one denominator, and
    each entry becomes a Fraction once, when its matrix is built; powers
    no term reaches share one zero matrix.
    """
    L, r = ode.size, ode.rank_at_infinity
    num: list[list[int] | None] = [None] * (upto + 1)  # row-major entries
    den = [1] * (upto + 1)

    def add(jp: int, ints: list[int], d: int) -> None:
        if num[jp] is None:
            num[jp], den[jp] = ints, d
            return
        common = lcm(den[jp], d)
        a, b = common // den[jp], common // d
        num[jp] = [x * a + y * b for x, y in zip(num[jp], ints)]
        den[jp] = common

    for jp in range(min(r - 1, upto) + 1):
        d, ints = scale_to_integers([x for row in ode.infinity[r - 1 - jp].entries for x in row])
        add(jp, [-x for x in ints], d)
    # (x - a)^{-j-1} = w^{j+1} (1 - a w)^{-j-1}; scaled by w^{r-1} the pole
    # block contributes C(m+j, j) a^m A_{-j} to power r + j + m.
    for pole in ode.poles:
        p, q = pole.position.numerator, pole.position.denominator
        for j, mat in enumerate(pole.matrices):
            d, ints = scale_to_integers([x for row in mat.entries for x in row])
            for jp in range(r + j, upto + 1):
                m = jp - r - j
                c = comb(m + j, j) * p**m
                if c:
                    add(jp, [c * x for x in ints], q**m * d)
    zero = ExactMatrix([[0] * L for _ in range(L)], cols=L)
    return [
        zero
        if ints is None
        else ExactMatrix(
            [[Fraction(x, d) for x in ints[k : k + L]] for k in range(0, L * L, L)], cols=L
        )
        for ints, d in zip(num, den)
    ]


@dataclass(frozen=True)
class GaugeExpansion:
    """The gauge factor of Phi = Psi D and the diagonal of S.

    psi has unit diagonal (each Psi_k, k >= 1, has zero diagonal) and is
    trusted to the requested order; its column 0 is the normalized family
    Phi_i0 / Phi_00, because the diagonal factor D cancels. s[b] is S_bb,
    trusted to r + order: coefficients 0..r are the exponent data and the
    tail is S_{r+c} = -c (log D)_c.
    """

    psi: MatrixSeries
    s: tuple[TruncatedSeries, ...]
    exponents: InfinityExponentData


def gauge_expansion(ode: RationalODE, order: int) -> GaugeExpansion:
    """Solve -w^{r+1} Psi_w + Psi S = Atil Psi order by order.

    Psi is returned to the requested order, S to order r + order; the
    exponent data is always complete (all of T_{-r}..T_{-1} and T_0).

    The recursion runs on integers. q is the lcm of every denominator in
    the spec (infinity matrices, pole matrices, pole positions), P the lcm
    of the numerators p of the gaps lam_b - lam_a = p/s, and Q = qP. The
    unknowns are psi_k = Q^k Psi_k and sigma_k = Q^{k-1} q S_k (k >= 1),
    and the balance at step k is scaled by Q^{k-1} q. Every term of it is
    then a product of integers: Atil_jp Psi_{k-jp} becomes atil_jp
    psi_{k-jp} with atil_jp = Q^{jp-1} q Atil_jp, Psi_{k-jp} S_jp becomes
    psi_{k-jp} sigma_jp, and (k-r) Psi_{k-r} becomes (k-r) Q^{r-1} q
    psi_{k-r}. atil_jp is integral because a pole term of Atil_jp is an
    entry of a pole matrix times an integer times a^m with m <= jp - 1,
    and q^{jp} clears both denominators; an infinity term needs only q.
    The division by lam_b - lam_a becomes a multiplication by the integer
    (P/p)s, since Q^k / (Q^{k-1} q) = P. Each value becomes a Fraction
    once, when Psi and S are built.
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
    q, _ = scale_to_integers(
        [x for m in ode.infinity for row in m.entries for x in row]
        + [x for p in ode.poles for m in p.matrices for row in m.entries for x in row]
        + [p.position for p in ode.poles]
    )
    gaps = [[lam[b] - lam[a] for b in range(L)] for a in range(L)]
    big_p = lcm(*(g.numerator for row in gaps for g in row if g))
    qp = q * big_p
    power = [1]  # power[k] = Q^k
    for _ in range(kmax):
        power.append(power[-1] * qp)
    # psi_k[a][b] = balance[a][b] * mult[a][b]: (P/p) s for the gap p/s
    mult = [[(big_p // g.numerator) * g.denominator if g else 0 for g in row] for row in gaps]
    # The nonzero entries (g, c) of each row of every nonzero atil_jp,
    # jp >= 1: without poles Atil_jp vanishes for jp >= r.
    atil_terms = []
    for jp, mat in enumerate(_a_tilde(ode, kmax)):
        if jp == 0 or not any(c for row in mat.entries for c in row):
            continue
        scale = power[jp - 1] * q
        rows = []
        for row in mat.entries:
            terms = []
            for g, c in enumerate(row):
                if c:
                    v, rem = divmod(c.numerator * scale, c.denominator)
                    if rem:
                        raise ConsistencyError(f"Atil_{jp} is not integral at scale {scale}")
                    terms.append((g, v))
            rows.append(terms)
        atil_terms.append((jp, rows))
    lift = power[r - 1] * q
    psi: list[list[list[int]]] = [[[int(a == b) for b in range(L)] for a in range(L)]]
    sigma: list[list[int]] = [[]]
    for k in range(1, kmax + 1):
        balance = [[0] * L for _ in range(L)]
        for jp, rows in atil_terms:
            if jp > k:
                break
            ps = psi[k - jp]
            for row, terms in zip(balance, rows):
                for g, c in terms:
                    for b, p in enumerate(ps[g]):
                        if p:
                            row[b] += c * p
        # psi_k has zero diagonal for k >= 1, so only a != b terms of the
        # Psi S convolution and of the (k - r) Psi_{k-r} term survive.
        for jp in range(1, k):
            ps, sd = psi[k - jp], sigma[jp]
            for a in range(L):
                row, pa = balance[a], ps[a]
                for b in range(L):
                    if b != a and pa[b]:
                        row[b] -= pa[b] * sd[b]
        if k - r >= 1:
            ps, step = psi[k - r], (k - r) * lift
            for a in range(L):
                row, pa = balance[a], ps[a]
                for b in range(L):
                    if b != a and pa[b]:
                        row[b] += step * pa[b]
        sigma.append([balance[a][a] for a in range(L)])
        psi.append([[x * m for x, m in zip(row, ms)] for row, ms in zip(balance, mult)])

    stil = [list(lam)] + [
        [Fraction(x, power[k - 1] * q) for x in sigma[k]] for k in range(1, kmax + 1)
    ]
    irregular = tuple(
        tuple(-stil[r - j][a] for a in range(L)) for j in range(1, r + 1)
    )
    exponents = tuple(-stil[r][a] for a in range(L))
    psi_series = MatrixSeries(
        [
            [
                TruncatedSeries([Fraction(psi[k][a][b], power[k]) for k in range(order)], order)
                for b in range(L)
            ]
            for a in range(L)
        ]
    )
    s = tuple(
        TruncatedSeries([stil[k][b] for k in range(kmax + 1)], kmax + 1)
        for b in range(L)
    )
    return GaugeExpansion(psi_series, s, InfinityExponentData(irregular, exponents))


def expand_at_infinity(
    ode: RationalODE, order: int
) -> tuple[MatrixSeries, InfinityExponentData]:
    """Normalized formal solution Phi(w) = I + O(w) and its exponent data.

    Phi is returned trusted to the requested order; the exponent data is
    always complete (all of T_{-r}..T_{-1} and T_0).
    """
    gauge = gauge_expansion(ode, order)
    L, r = ode.size, ode.rank_at_infinity

    # log of the diagonal factor: (log D)_c = -S_{r+c}/c, then exponentiate
    # column by column via E_m = (1/m) sum c * (log D)_c * E_{m-c}.
    diag: list[TruncatedSeries] = []
    for b in range(L):
        sb = gauge.s[b].coeffs
        ld = [Fraction(0)] + [-sb[r + c] / c for c in range(1, order)]
        e = [Fraction(1)] + [Fraction(0)] * (order - 1)
        for m in range(1, order):
            e[m] = sum((c * ld[c] * e[m - c] for c in range(1, m + 1)), start=Fraction(0)) / m
        diag.append(TruncatedSeries(e, order))

    entries = [[gauge.psi.entry(a, b) * diag[b] for b in range(L)] for a in range(L)]
    return MatrixSeries(entries), gauge.exponents


def _residual(
    ode: RationalODE, p: MatrixSeries, d: Sequence[TruncatedSeries]
) -> tuple[bool, int]:
    """w^{r+1} P_w - P diag(d) + Atil P for a unit matrix series P.

    Returns (vanishes identically, trusted order of the residual window).
    """
    L, r = ode.size, ode.rank_at_infinity
    if p.size != L:
        raise ValueError("expansion size does not match the system")
    order = p.order
    if order < 2:
        raise InsufficientOrder("need an expansion of order >= 2")
    atil = _a_tilde(ode, order - 1)
    a_series = [
        [TruncatedSeries([atil[k].at(a, b) for k in range(order)], order) for b in range(L)]
        for a in range(L)
    ]
    all_zero = True
    window = None
    for a in range(L):
        for b in range(L):
            e = p.entry(a, b)
            de = TruncatedSeries(
                [(m + 1) * e.coefficient(m + 1) for m in range(order - 1)],
                order - 1,
            )
            res = de.shift(r + 1) - e * d[b]
            for g in range(L):
                res = res + a_series[a][g] * p.entry(g, b)
            if not res.is_zero():
                all_zero = False
            window = res.order if window is None else min(window, res.order)
    return all_zero, window


def expansion_residual(
    ode: RationalODE, phi: MatrixSeries, exponents: InfinityExponentData
) -> tuple[bool, int]:
    """Plug the expansion back into the scaled equation.

    Evaluates -w^{r+1} Phi_w + Phi (w^{r-1} T'(x)) - (w^{r-1} A(1/w)) Phi
    entry by entry and returns (vanishes identically, trusted order of the
    residual window).
    """
    r = ode.rank_at_infinity
    tprime = []
    for b in range(ode.size):
        coeffs = [Fraction(0)] * (r + 1)
        for j in range(1, r + 1):
            coeffs[r - j] -= exponents.irregular[j - 1][b]
        coeffs[r] -= exponents.exponents[b]
        tprime.append(TruncatedSeries(coeffs, phi.order))
    return _residual(ode, phi, tprime)


def gauge_residual(ode: RationalODE, gauge: GaugeExpansion) -> tuple[bool, int]:
    """Check -w^{r+1} Psi_w + Psi S = Atil Psi on the window of Psi.

    S's coefficients 0..r are the exponent data, so this covers every
    value the expansion reports. Returns (vanishes identically, window).
    """
    return _residual(ode, gauge.psi, gauge.s)


def pii_system(theta, lam, mu, u, t) -> RationalODE:
    """The 2x2 polynomial system whose deformation is Painleve II:

    A(x) = diag(1,-1) x^2 + [[0, u], [-2 mu/u, 0]] x
           + [[mu + t/2, -u lam], [-2(lam mu + theta)/u, -mu - t/2]].
    """
    theta, lam, mu, u, t = (rational(v) for v in (theta, lam, mu, u, t))
    if u == 0:
        raise ZeroParameter("u must be nonzero")
    a2 = ExactMatrix([[1, 0], [0, -1]])
    a1 = ExactMatrix([[0, u], [-2 * mu / u, 0]])
    a0 = ExactMatrix(
        [
            [mu + t / 2, -u * lam],
            [-2 * (lam * mu + theta) / u, -mu - t / 2],
        ]
    )
    return RationalODE(size=2, poles=(), infinity=(-a0, -a1, -a2))


def accessory_count(spectral: Sequence[Sequence[int]], L: int, N: int) -> int:
    """2 + (N-1) L^2 - sum of squared multiplicities over all N+1 points."""
    parts = tuple(tuple(int(m) for m in p) for p in spectral)
    if len(parts) != N + 1:
        raise InvalidPartition(f"expected {N + 1} partitions, got {len(parts)}")
    for p in parts:
        if not p or any(m < 1 for m in p):
            raise InvalidPartition(f"invalid partition {p}")
        if sum(p) != L:
            raise InvalidPartition(f"partition {p} does not sum to {L}")
    return 2 + (N - 1) * L * L - sum(m * m for p in parts for m in p)


def _matrix_from_lists(rows: Sequence[Sequence[object]], size: int) -> ExactMatrix:
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in rows
    ):
        raise ValueError("a matrix must be a list of rows")
    m = ExactMatrix([[rational(x) for x in row] for row in rows])
    if m.rows != size or m.cols != size:
        raise ValueError(f"expected {size}x{size} matrix, got {m.rows}x{m.cols}")
    return m


def ode_from_dict(data: dict) -> RationalODE:
    """Parse the JSON shape {v, L, poles: [{position, matrices}], infinity}."""
    if not isinstance(data, dict):
        raise ValueError("ODE spec must be an object")
    if type(data.get("v")) is not int or data["v"] != 1:
        raise ValueError("unsupported ODE spec version")
    size = data.get("L")
    if type(size) is not int:
        raise ValueError("L must be an integer")
    pole_list = data.get("poles", [])
    if not isinstance(pole_list, (list, tuple)):
        raise ValueError("poles must be a list")
    poles = []
    for idx, entry in enumerate(pole_list):
        if not isinstance(entry, dict):
            raise ValueError(f"poles[{idx}] must be an object")
        for key in ("position", "matrices"):
            if key not in entry:
                raise ValueError(f"poles[{idx}] has no {key}")
        if not isinstance(entry["matrices"], (list, tuple)):
            raise ValueError(f"poles[{idx}].matrices must be a list")
        poles.append(
            FinitePole(
                position=rational(entry["position"]),
                matrices=tuple(
                    _matrix_from_lists(m, size) for m in entry["matrices"]
                ),
            )
        )
    infinity_list = data.get("infinity", [])
    if not isinstance(infinity_list, (list, tuple)):
        raise ValueError("infinity must be a list")
    infinity = tuple(_matrix_from_lists(m, size) for m in infinity_list)
    return RationalODE(size=size, poles=tuple(poles), infinity=infinity)


def ode_to_dict(ode: RationalODE) -> dict:
    """Inverse of ode_from_dict; rationals as strings."""

    def dump(m: ExactMatrix) -> list[list[str]]:
        return [[str(x) for x in row] for row in m.entries]

    return {
        "v": 1,
        "L": ode.size,
        "poles": [
            {"position": str(p.position), "matrices": [dump(m) for m in p.matrices]}
            for p in ode.poles
        ],
        "infinity": [dump(m) for m in ode.infinity],
    }
