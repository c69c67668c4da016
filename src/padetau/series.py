"""Exact truncated power series, polynomials, and normalized families.

Every coefficient is a `fractions.Fraction`; nothing here is approximate.
A truncated series carries an explicit trust window: coefficient k is
available iff 0 <= k < order, reading k >= order raises InsufficientOrder
(a programming error, never a silent zero), and k < 0 is exactly zero.
Arithmetic propagates the tightest provable trust window.

Products run on integers underneath: `_convolve` scales each operand to
integers (`scale_to_integers`) and multiplies the two by Kronecker
substitution, one big-int product for the whole coefficient list, while
the API still yields `Fraction`s. `invert` is a Newton iteration on the
same product.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import BadNormalization, InsufficientOrder, ZeroConstantTerm

__all__ = [
    "rational",
    "TruncatedSeries",
    "Polynomial",
    "row_times_column",
    "SeriesFamily",
    "normalize_family",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The only string form a rational may take: "p" or "p/q" in ASCII digits.
_RATIONAL_STRING = re.compile(r"-?\d+(?:/\d+)?", re.ASCII)


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a "p/q" string, or a Fraction to an exact rational.

    Floats and bools are rejected (TypeError): this library never rounds,
    and JSON true/false is not a number. A string must match
    -?<digits>(/<digits>)? exactly, so decimals, exponents, spaces, "+"
    and "_" are ValueErrors, as is a zero denominator. Python's limit on
    int string conversion bounds the number of digits.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _RATIONAL_STRING.fullmatch(value) is None:
            raise ValueError(f"not a rational of the form p or p/q: {value[:40]!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value[:40]!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def scale_to_integers(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, [d * x for x in values]) as ints, d the lcm of the denominators.

    d is the least positive scale that makes every value an integer; no
    values give (1, []).
    """
    d = lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


def _convolve(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> list[Fraction]:
    """Coefficients 0..n-1 of the product of coefficient lists a and b.

    The one product in this module, by Kronecker substitution. Each
    operand is scaled to integers over the lcm of its denominators and
    packed into one int, coefficient k in the k-th slot of s bits; one
    int product (Karatsuba inside CPython) then carries every coefficient
    of the integer product in its slots. A coefficient is a sum of at
    most min(len a, len b) terms, each at most max|a|·max|b| in size, so
    it lies strictly inside that bound's bit length; one more bit holds
    the sign. Unpacking reads each slot as a signed value and borrows one
    from the slot above when the value is negative.
    """
    a, b = a[:n], b[:n]
    da, ia = scale_to_integers(a)
    db, ib = scale_to_integers(b)
    bound = max(map(abs, ia), default=0) * max(map(abs, ib), default=0)
    if not bound:
        return [_ZERO] * n
    s = (bound * min(len(ia), len(ib))).bit_length() + 1
    x = y = 0
    for c in reversed(ia):
        x = (x << s) + c
    for c in reversed(ib):
        y = (y << s) + c
    z = x * y
    mask, half, d = (1 << s) - 1, 1 << (s - 1), da * db
    m = min(n, len(ia) + len(ib) - 1)
    out = []
    for _ in range(m):
        c = z & mask
        z >>= s
        if c >= half:
            c -= mask + 1
            z += 1
        out.append(Fraction(c, d) if c else _ZERO)
    out.extend([_ZERO] * (n - m))
    return out


class TruncatedSeries:
    """A power series in w known exactly for exponents 0..order-1."""

    __slots__ = ("_coeffs", "_order")

    def __init__(self, coeffs: Iterable[int | str | Fraction], order: int | None = None):
        cs = [rational(c) for c in coeffs]
        if order is None:
            order = len(cs)
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(cs) < order:
            cs.extend([_ZERO] * (order - len(cs)))
        else:
            del cs[order:]
        self._coeffs = tuple(cs)
        self._order = order

    @classmethod
    def zero(cls, order: int) -> TruncatedSeries:
        return cls([], order)

    @classmethod
    def constant(cls, value: int | str | Fraction, order: int) -> TruncatedSeries:
        return cls([rational(value)], order)

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coefficient(self, k: int) -> Fraction:
        """b_k for k < order; exactly zero for k < 0."""
        if k < 0:
            return _ZERO
        if k >= self._order:
            raise InsufficientOrder(
                f"coefficient {k} requested but series trusted only below order {self._order}"
            )
        return self._coeffs[k]

    def truncate(self, order: int) -> TruncatedSeries:
        """Shrink the trust window; extending it would fabricate trust."""
        if order > self._order:
            raise InsufficientOrder(
                f"cannot extend trusted order {self._order} to {order}"
            )
        return TruncatedSeries(self._coeffs[:order], order)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._coeffs)

    def valuation(self) -> int | None:
        """Index of the first nonzero trusted coefficient, None if all zero."""
        for k, c in enumerate(self._coeffs):
            if c != 0:
                return k
        return None

    def shift(self, k: int) -> TruncatedSeries:
        """Multiply by w^k.  For k < 0 the discarded coefficients must be zero."""
        if k >= 0:
            return TruncatedSeries((_ZERO,) * k + self._coeffs, self._order + k)
        drop = -k
        if drop > self._order:
            raise InsufficientOrder(f"cannot shift by {k}: order is {self._order}")
        if any(c != 0 for c in self._coeffs[:drop]):
            raise ValueError(f"shift by {k} would drop a nonzero coefficient")
        return TruncatedSeries(self._coeffs[drop:], self._order - drop)

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self._order, other._order)
        return TruncatedSeries(
            [self._coeffs[k] + other._coeffs[k] for k in range(order)], order
        )

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self._order, other._order)
        return TruncatedSeries(
            [self._coeffs[k] - other._coeffs[k] for k in range(order)], order
        )

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries([-c for c in self._coeffs], self._order)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            order = min(self._order, other._order)
            return TruncatedSeries(_convolve(self._coeffs, other._coeffs, order), order)
        if isinstance(other, (int, Fraction)):
            c = rational(other)
            return TruncatedSeries([c * a for a in self._coeffs], self._order)
        return NotImplemented

    __rmul__ = __mul__

    def invert(self) -> TruncatedSeries:
        """Reciprocal series to the same order.

        Needs a_0 != 0. Newton iteration from b = 1/a_0: when a·b = 1 +
        O(w^m), b·(2 - a·b) = b - b·(a·b - 1) is the reciprocal to order
        2m, so the known window doubles until it covers the order.
        """
        if self._order == 0:
            raise InsufficientOrder("cannot invert a series with empty trust window")
        a = self._coeffs
        if a[0] == 0:
            raise ZeroConstantTerm("series has zero constant term")
        b = [1 / a[0]]
        m = 1
        while m < self._order:
            m2 = min(2 * m, self._order)
            # a·b - 1 vanishes below w^m; its coefficients m..m2-1 are error
            error = _convolve(a, b, m2)[m:]
            b.extend(-c for c in _convolve(b, error, m2 - m))
            m = m2
        return TruncatedSeries(b, self._order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._coeffs, self._order))

    def __repr__(self) -> str:
        return f"TruncatedSeries({[str(c) for c in self._coeffs]}, order={self._order})"


class Polynomial:
    """Exact polynomial, ascending coefficients, trailing zeros stripped."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int | str | Fraction]):
        cs = [rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> Polynomial:
        return cls([])

    @classmethod
    def one(cls) -> Polynomial:
        return cls([1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int | float:
        """Degree, with float('-inf') for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else float("-inf")

    def is_zero(self) -> bool:
        return not self._coeffs

    def valuation(self) -> int | None:
        for k, c in enumerate(self._coeffs):
            if c != 0:
                return k
        return None

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return _ZERO

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return Polynomial(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return Polynomial(
            [self.coefficient(k) - other.coefficient(k) for k in range(n)]
        )

    def __neg__(self) -> Polynomial:
        return Polynomial([-c for c in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            size = len(self._coeffs) + len(other._coeffs) - 1
            return Polynomial(_convolve(self._coeffs, other._coeffs, size))
        if isinstance(other, (int, Fraction)):
            c = rational(other)
            return Polynomial([c * a for a in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> Polynomial:
        """Multiply by w^k, k >= 0."""
        if k < 0:
            raise ValueError("polynomial shift must be nonnegative")
        if self.is_zero():
            return self
        return Polynomial((_ZERO,) * k + self._coeffs)

    def as_series(self, order: int) -> TruncatedSeries:
        """The polynomial viewed as an exact series, trusted to any order."""
        return TruncatedSeries(self._coeffs[:order], order)

    def times_series(self, s: TruncatedSeries) -> TruncatedSeries:
        """p * s with the valuation-aware trust window s.order + val(p)."""
        order = s.order + (self.valuation() or 0)
        return TruncatedSeries(_convolve(self._coeffs, s.coeffs, order), order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self._coeffs]})"


def row_times_column(
    polys: Sequence[Polynomial], column: Sequence[TruncatedSeries]
) -> TruncatedSeries:
    """sum_k polys[k] * column[k] over the nonzero polys[k].

    Each times_series term is trusted to column[k].order + val(polys[k]),
    and + keeps the smallest window, so the sum carries the tightest
    provable one. A row of zeros gives zero at the column's common order.
    """
    terms = [p.times_series(s) for p, s in zip(polys, column) if not p.is_zero()]
    if not terms:
        return TruncatedSeries.zero(min(s.order for s in column))
    return sum(terms[1:], terms[0])


class SeriesFamily:
    """Normalized input data f_0, ..., f_{L-1} for the approximation problem.

    Invariants: f_0 is the constant 1 (exactly, by definition of the
    normalization, so it is trusted at every index), each f_i with i >= 1
    vanishes at w = 0, and all members share one trusted order.
    """

    __slots__ = ("_series", "_order")

    def __init__(self, series: Sequence[TruncatedSeries]):
        if len(series) < 2:
            raise ValueError("a family needs at least two members")
        order = min(s.order for s in series)
        if order < 1:
            raise InsufficientOrder("family members must trust at least order 1")
        members = tuple(s.truncate(order) for s in series)
        f0 = members[0]
        if f0.coefficient(0) != 1 or any(c != 0 for c in f0.coeffs[1:]):
            raise BadNormalization("f_0 must be the constant series 1")
        for i, s in enumerate(members[1:], start=1):
            if s.coefficient(0) != 0:
                raise BadNormalization(f"f_{i} must vanish at w = 0")
        self._series = members
        self._order = order

    @property
    def size(self) -> int:
        return len(self._series)

    @property
    def order(self) -> int:
        return self._order

    @property
    def members(self) -> tuple[TruncatedSeries, ...]:
        return self._series

    def series(self, i: int) -> TruncatedSeries:
        return self._series[i]

    def coefficient(self, i: int, k: int) -> Fraction:
        """b^i_k; k < 0 is exactly zero, k >= order raises InsufficientOrder."""
        return self._series[i].coefficient(k)

    def truncate(self, order: int) -> SeriesFamily:
        return SeriesFamily([s.truncate(order) for s in self._series])

    def fingerprint(self) -> str:
        """Deterministic digest of (L, order, all coefficients)."""
        parts = [str(self.size), str(self._order)]
        for s in self._series:
            parts.append(",".join(str(c) for c in s.coeffs))
        digest = hashlib.sha256(";".join(parts).encode("ascii")).hexdigest()
        return digest[:16]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesFamily):
            return NotImplemented
        return self._series == other._series

    def __repr__(self) -> str:
        return f"SeriesFamily(L={self.size}, order={self._order})"


def normalize_family(column: Sequence[TruncatedSeries]) -> SeriesFamily:
    """Divide a matrix-series first column through by its top entry.

    Given (phi_00, phi_10, ..., phi_{L-1,0}) with phi_00(0) = 1 and
    phi_i0(0) = 0, returns the family f_i = phi_i0 / phi_00 (and f_0 = 1),
    exact to the common trusted order.
    """
    if len(column) < 2:
        raise ValueError("a family needs at least two members")
    order = min(s.order for s in column)
    if order < 1:
        raise InsufficientOrder("column members must trust at least order 1")
    top = column[0].truncate(order)
    if top.coefficient(0) != 1:
        raise BadNormalization("phi_00 must have constant term 1")
    for i, s in enumerate(column[1:], start=1):
        if s.coefficient(0) != 0:
            raise BadNormalization(f"phi_{i}0 must vanish at w = 0")
    inv = top.invert()
    members = [TruncatedSeries.constant(1, order)]
    members.extend(s.truncate(order) * inv for s in column[1:])
    return SeriesFamily(members)
