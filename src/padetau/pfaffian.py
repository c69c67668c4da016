"""Combinatorial Pfaffians over words and the determinant identities they carry.

Words are finite sequences of integer letters; duplicates are allowed and
make every Pfaffian vanish. A perfect matching on a word of length 2n is
the rearrangement j_1 j_2 ... j_{2n} with sigma(2k-1) < sigma(2k) and
sigma(1) < sigma(3) < ... ; its arcs are the pairs (j_{2k-1}, j_{2k}) and
its sign is the parity of sigma, which equals (-1)^{#arc crossings}.

    Pf_f(I) = sum over matchings of sgn * prod of f over the arcs,

with Pf_f(empty) = 1. That sum is the definition; `pfaffian` computes it
by fraction-free skew elimination (`linalg.int_pfaffian`) in O(n^3)
integer operations on a word of length 2n, and never enumerates the
(2n-1)!! matchings, which `perfect_matchings` still lists on request.
On top of the bare Pfaffian sit the Pluecker relation, the
determinant-as-Pfaffian embedding, Sylvester's determinant identity, and
the block-Toeplitz specialization that re-proves the exchange identity
for D_n and E^{i,j}_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from .errors import InsufficientOrder, OddLength, ParityViolation, ShapeMismatch
from .linalg import ExactMatrix, det_exact, int_pfaffian
from .series import SeriesFamily, rational, scale_to_integers
from .tau import IdentityReport, _bordered_grid, _exchange_report, tau_determinant

__all__ = [
    "Word",
    "SkewMap",
    "PairMap",
    "PerfectMatching",
    "sgn_permutation",
    "perfect_matchings",
    "pfaffian",
    "det_g",
    "interleave",
    "induced_skew_map",
    "plucker_check",
    "det_as_pfaffian",
    "sylvester_det",
    "KeyIdentityReport",
    "key_identity_via_pfaffian",
]

Word = tuple[int, ...]


def _word(letters: Sequence[int]) -> Word:
    return tuple(int(a) for a in letters)


def _inversion_sign(seq: Sequence[int]) -> int:
    inv = sum(
        1 for a, b in combinations(range(len(seq)), 2) if seq[a] > seq[b]
    )
    return -1 if inv % 2 else 1


def sgn_permutation(i_word: Sequence[int], j_word: Sequence[int]) -> int:
    """Sign of the permutation carrying i_word to j_word; 0 if undefined.

    Zero when i_word has a duplicate letter or j_word is not a
    rearrangement of it.
    """
    iw, jw = _word(i_word), _word(j_word)
    if len(set(iw)) != len(iw):
        return 0
    if sorted(iw) != sorted(jw):
        return 0
    pos = {letter: k for k, letter in enumerate(iw)}
    return _inversion_sign([pos[letter] for letter in jw])


class SkewMap:
    """Skew-symmetric pair function: f(j, i) = -f(i, j), so f(i, i) = 0.

    Built from a rule evaluated only on i < j, which makes the skew
    symmetry structural rather than an obligation on the caller.
    """

    __slots__ = ("_rule",)

    def __init__(self, rule: Callable[[int, int], object]):
        self._rule = rule

    @classmethod
    def from_table(cls, table: dict[tuple[int, int], object]) -> "SkewMap":
        """Dense table keyed by (i, j) with i < j."""
        return cls(lambda i, j: table[(i, j)])

    def __call__(self, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(0)
        if i < j:
            return rational(self._rule(i, j))
        return -rational(self._rule(j, i))


class PairMap:
    """Unconstrained pair function on row-alphabet x column-alphabet."""

    __slots__ = ("_rule",)

    def __init__(self, rule: Callable[[int, int], object]):
        self._rule = rule

    @classmethod
    def from_table(cls, table: dict[tuple[int, int], object]) -> "PairMap":
        return cls(lambda i, j: table[(i, j)])

    def __call__(self, i: int, j: int) -> Fraction:
        return rational(self._rule(i, j))


@dataclass(frozen=True)
class PerfectMatching:
    """One matching: the rearranged word and the positions realizing it."""

    word: Word
    positions: tuple[int, ...]

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        w = self.word
        return tuple((w[2 * k], w[2 * k + 1]) for k in range(len(w) // 2))

    @property
    def sign(self) -> int:
        """Parity of the underlying position permutation."""
        return _inversion_sign(self.positions)

    @property
    def crossings(self) -> int:
        p = self.positions
        arcs = [(p[2 * k], p[2 * k + 1]) for k in range(len(p) // 2)]
        return sum(
            1
            for (a1, b1), (a2, b2) in combinations(arcs, 2)
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1
        )


def perfect_matchings(letters: Sequence[int]) -> list[PerfectMatching]:
    """All (2n-1)!! matchings, smallest unpaired position paired first."""
    word = _word(letters)
    if len(word) % 2:
        raise OddLength(f"word length {len(word)} is odd")
    out: list[PerfectMatching] = []

    def grow(remaining: tuple[int, ...], chosen: tuple[int, ...]) -> None:
        if not remaining:
            out.append(
                PerfectMatching(tuple(word[p] for p in chosen), chosen)
            )
            return
        first, rest = remaining[0], remaining[1:]
        for k, partner in enumerate(rest):
            grow(rest[:k] + rest[k + 1 :], chosen + (first, partner))

    grow(tuple(range(len(word))), ())
    return out


def pfaffian(f: SkewMap, letters: Sequence[int]) -> Fraction:
    """Pf_f over the word: sum of signed arc-products over all matchings.

    Computed by fraction-free skew elimination, in O(n^3) integer
    operations for a word of n letters. f is evaluated once on each pair
    of positions p < q, and the whole upper triangle is scaled to
    integers by one common denominator d, which keeps the matrix skew;
    the Pfaffian of the integer matrix is then d^(n/2) times Pf_f.
    """
    word = _word(letters)
    n = len(word)
    if n % 2:
        raise OddLength(f"word length {n} is odd")
    if len(set(word)) != n:
        return Fraction(0)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    d, upper = scale_to_integers([f(word[p], word[q]) for p, q in pairs])
    rows = [[0] * n for _ in range(n)]
    for (p, q), x in zip(pairs, upper):
        rows[p][q] = x
        rows[q][p] = -x
    return Fraction(int_pfaffian(rows), d ** (n // 2))


def det_g(g: PairMap, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
    """det(g(i, j)) over the row word x column word; empty words give 1."""
    iw, jw = _word(rows), _word(cols)
    if len(iw) != len(jw):
        raise ShapeMismatch(f"row word {len(iw)} != column word {len(jw)}")
    return det_exact(ExactMatrix([[g(i, j) for j in jw] for i in iw], cols=len(jw)))


def interleave(rows: Sequence[int], cols: Sequence[int]) -> Word:
    """Row letters to odds (i -> 2i-1), column letters to evens (j -> 2j),
    interleaved one pair at a time."""
    iw, jw = _word(rows), _word(cols)
    if len(iw) != len(jw):
        raise ShapeMismatch(f"row word {len(iw)} != column word {len(jw)}")
    out: list[int] = []
    for i, j in zip(iw, jw):
        out.append(2 * i - 1)
        out.append(2 * j)
    return tuple(out)


def induced_skew_map(g: PairMap) -> SkewMap:
    """Skew map on the merged odd/even alphabet whose Pfaffian computes
    determinants of g: value g(k, l) on (2k-1, 2l), zero on equal parity."""

    def rule(i: int, j: int) -> Fraction:  # only called with i < j
        if i % 2 == 1 and j % 2 == 0:
            return g((i + 1) // 2, j // 2)
        if i % 2 == 0 and j % 2 == 1:
            return -g((j + 1) // 2, i // 2)
        return Fraction(0)

    return SkewMap(rule)


def plucker_check(
    f: SkewMap, i_word: Sequence[int], j_word: Sequence[int], k_word: Sequence[int]
) -> IdentityReport:
    """Pluecker relation for Pfaffians.

    sum_{i in I} sgn(IJ, (I\\{i}) i J) Pf((I\\{i})K) Pf(iJK)
      = sum_{j in J} sgn(IJ, I j (J\\{j})) Pf(IjK) Pf((J\\{j})K),

    with |I|, |J| odd and |K| even; sums run over occurrences.
    """
    iw, jw, kw = _word(i_word), _word(j_word), _word(k_word)
    if len(iw) % 2 == 0 or len(jw) % 2 == 0:
        raise ParityViolation("row and column words must have odd length")
    if len(kw) % 2:
        raise ParityViolation("shared word must have even length")
    both = iw + jw
    lhs = Fraction(0)
    for p in range(len(iw)):
        rest = iw[:p] + iw[p + 1 :]
        s = sgn_permutation(both, rest + (iw[p],) + jw)
        if s:
            lhs += s * pfaffian(f, rest + kw) * pfaffian(f, (iw[p],) + jw + kw)
    rhs = Fraction(0)
    for q in range(len(jw)):
        rest = jw[:q] + jw[q + 1 :]
        s = sgn_permutation(both, iw + (jw[q],) + rest)
        if s:
            rhs += s * pfaffian(f, iw + (jw[q],) + kw) * pfaffian(f, rest + kw)
    return IdentityReport("pfaffian_plucker", lhs, rhs)


def det_as_pfaffian(
    g: PairMap, rows: Sequence[int], cols: Sequence[int]
) -> IdentityReport:
    """Pf over the interleaved word against the plain determinant of g."""
    lhs = pfaffian(induced_skew_map(g), interleave(rows, cols))
    rhs = det_g(g, rows, cols)
    return IdentityReport("det_as_pfaffian", lhs, rhs)


def sylvester_det(
    g: PairMap,
    rows: Sequence[int],
    cols: Sequence[int],
    row_core: Sequence[int],
    col_core: Sequence[int],
) -> IdentityReport:
    """Sylvester's identity on bordered minors of g:

    det( det_g(iK, jM) )_{i in I, j in J} = det_g(IK, JM) det_g(K, M)^{n-1}.
    """
    iw, jw = _word(rows), _word(cols)
    kw, mw = _word(row_core), _word(col_core)
    if len(iw) != len(jw):
        raise ShapeMismatch(f"row word {len(iw)} != column word {len(jw)}")
    if len(kw) != len(mw):
        raise ShapeMismatch(f"row core {len(kw)} != column core {len(mw)}")
    n = len(iw)
    if n < 1:
        raise ValueError("need at least one border letter per side")
    lhs = det_exact(
        ExactMatrix([[det_g(g, (i,) + kw, (j,) + mw) for j in jw] for i in iw])
    )
    rhs = det_g(g, iw + kw, jw + mw) * det_g(g, kw, mw) ** (n - 1)
    return IdentityReport("sylvester_det", lhs, rhs)


@dataclass(frozen=True)
class KeyIdentityReport:
    """Both proofs of the exchange identity laid side by side.

    corner/extended/bordered pin the Toeplitz content of the minor table;
    sylvester is the identity on that table; exchange is the same identity
    computed directly from the D_n, D_{n+1} and E^{k,l}_n values that
    corner/extended/bordered compared against.
    """

    size: int
    n: int
    corner: IdentityReport
    extended: IdentityReport
    bordered: tuple[IdentityReport, ...]
    sylvester: IdentityReport
    exchange: IdentityReport

    @property
    def holds(self) -> bool:
        return (
            self.corner.holds
            and self.extended.holds
            and all(rep.holds for rep in self.bordered)
            and self.sylvester.holds
            and self.exchange.holds
        )


def key_identity_via_pfaffian(fam: SeriesFamily, n: int) -> KeyIdentityReport:
    """Prove D_{n+1} D_n^{L-2} = det(E^{k,l}_n) through the minor table.

    The pair map g(i, j) = b^s_{i-j+s(n+1)}, s = floor((j-1)/(n+1)) + 1,
    tabulates the family's coefficients so that with I_k = (L-1)n + k,
    J_k = (k-1)(n+1) + 1, K = 1..(L-1)n and M the complement of J:

        det_g(K, M)         = D_n,
        det_g(IK, JM)       = (-1)^{L(L-1)n/2} D_{n+1},
        det_g(i_k K, j_l M) = (-1)^{(L-l)n} E^{l,k}_n,

    (the border column letter j_l selects the family member, so it carries
    the first index of E),

    and Sylvester's identity on the bordered minors becomes the exchange
    identity. Each displayed equality is its own report entry.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    L = fam.size
    need = L * (n + 1)
    if fam.order < need:
        raise InsufficientOrder(f"need order >= {need}; have {fam.order}")

    def rule(i: int, j: int) -> Fraction:
        s = (j - 1) // (n + 1) + 1
        return fam.coefficient(s, i - j + s * (n + 1))

    g = PairMap(rule)
    iw = tuple((L - 1) * n + k for k in range(1, L))
    jw = tuple((k - 1) * (n + 1) + 1 for k in range(1, L))
    kw = tuple(range(1, (L - 1) * n + 1))
    mw = tuple(j for j in range(1, (L - 1) * (n + 1) + 1) if j not in jw)

    d_n = tau_determinant(fam, n)
    corner = IdentityReport("corner_minor", det_g(g, kw, mw), d_n)
    d_next = tau_determinant(fam, n + 1)
    ext_sign = -1 if (L * (L - 1) * n // 2) % 2 else 1
    extended = IdentityReport(
        "extended_minor",
        det_g(g, iw + kw, jw + mw),
        ext_sign * d_next,
    )
    e_grid = _bordered_grid(fam, n)  # e_grid[l-1][k-1] = E^{l,k}_n
    bordered = []
    for k in range(1, L):
        for l in range(1, L):
            sign = -1 if ((L - l) * n) % 2 else 1
            bordered.append(
                IdentityReport(
                    f"bordered_minor_{k}_{l}",
                    det_g(g, (iw[k - 1],) + kw, (jw[l - 1],) + mw),
                    sign * e_grid[l - 1][k - 1],
                )
            )
    sylvester = sylvester_det(g, iw, jw, kw, mw)
    exchange = _exchange_report(d_n, d_next, e_grid)
    return KeyIdentityReport(
        size=L,
        n=n,
        corner=corner,
        extended=extended,
        bordered=tuple(bordered),
        sylvester=sylvester,
        exchange=exchange,
    )
