"""Monic orthogonal polynomial families and their transition matrices.

Two measures drive everything here: the Marchenko-Pastur law with ratio
parameter ``c`` and the arc-sine law rescaled onto the same support.  Each
has a monic orthogonal family whose x-coefficients form a unitriangular
matrix over Z[c]; the inverses of those matrices are the combinatorial
objects the rest of the package enumerates diagrammatically.

Each family but the centered `gamma` is fixed by its three-term recurrence
(`RECURRENCES`), which grows its forward rows and, by the band recursion of
weighted Motzkin paths, its inverse rows; every size reads a prefix of the
one table.  The inverse of `gamma` comes from inverting its forward table.
All computations are exact and stay in Z[c]: no square roots appear, and
`PolyC` refuses any coefficient that is not an integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import comb

from .polyc import PolyC, PolyXC, SeriesZ

_ZERO = PolyC.zero()
_ONE = PolyC.one()
_C = PolyC.c()
_ONE_PLUS_C = PolyC.of(1, 1)

Row = tuple[PolyC, ...]


class Family(str, Enum):
    """The three polynomial families with a transition matrix."""

    GAMMA_TILDE = "gamma-tilde"
    GAMMA = "gamma"
    PI = "pi"


# ---------------------------------------------------------------------------
# three-term recurrences
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ThreeTerm:
    """The recurrence ``x*f_n = f_{n+1} + a_n f_n + b_n f_{n-1}``, f_0 = 1,
    with a_n = `a` except a_0 = `a0`, and b_n = `b` except b_1 = `b1`.

    It keeps the rows of its forward table (row n: the x-coefficients of
    f_n) and of the inverse (row n: the coefficients of x^n in f_0..f_n),
    each grown on demand from the rows before it.
    """

    a0: PolyC
    a: PolyC
    b1: PolyC
    b: PolyC
    _forward: list[Row] = field(default_factory=lambda: [(_ONE,)], init=False, repr=False)
    _inverse: list[Row] = field(default_factory=lambda: [(_ONE,)], init=False, repr=False)

    def a_at(self, n: int) -> PolyC:
        return self.a0 if n == 0 else self.a

    def b_at(self, n: int) -> PolyC:
        return self.b1 if n == 1 else self.b

    def rows(self, size: int, inverse: bool = False) -> tuple[Row, ...]:
        """Rows 0..size-1 of the forward table, or of its inverse."""
        rows, step = ((self._inverse, self._next_inverse_row) if inverse
                      else (self._forward, self._next_row))
        while len(rows) < size:
            rows.append(step(rows))
        return tuple(rows[:size])

    def _next_row(self, rows: list[Row]) -> Row:
        """f_{n+1} = (x - a_n) f_n - b_n f_{n-1}, coefficient by coefficient."""
        n = len(rows) - 1
        row, prev = rows[n], rows[n - 1] if n else ()
        a, b = self.a_at(n), self.b_at(n)
        return tuple(up - a * same - b * down for up, same, down
                     in zip((_ZERO,) + row, row + (_ZERO,), prev + (_ZERO, _ZERO)))

    def _next_inverse_row(self, rows: list[Row]) -> Row:
        """x^{n+1} = sum_k G[n,k] x f_k, with each x f_k expanded by the
        recurrence: G[n+1,k] = G[n,k-1] + a_k G[n,k] + b_{k+1} G[n,k+1]."""
        row = rows[-1]
        return tuple(left + self.a_at(k) * same + self.b_at(k + 1) * right
                     for k, (left, same, right)
                     in enumerate(zip((_ZERO,) + row, row + (_ZERO,), row[1:] + (_ZERO, _ZERO))))


# by member, keyed like `Family` where the family has a transition matrix
RECURRENCES = {
    "chebyshev-C": ThreeTerm(a0=_ZERO, a=_ZERO, b1=PolyC.const(2), b=_ONE),
    "chebyshev-S": ThreeTerm(a0=_ZERO, a=_ZERO, b1=_ONE, b=_ONE),
    Family.GAMMA_TILDE.value: ThreeTerm(a0=_ONE_PLUS_C, a=_ONE_PLUS_C, b1=2 * _C, b=_C),
    Family.PI.value: ThreeTerm(a0=_C, a=_ONE_PLUS_C, b1=_C, b=_C),
}


def _member(name: str, n: int) -> PolyXC:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return PolyXC(RECURRENCES[name].rows(n + 1)[n])


def chebyshev_C(n: int) -> PolyXC:
    """Monic first-kind Chebyshev polynomial rescaled to the interval [-2, 2].

    >>> str(chebyshev_C(2))
    '(-2) + (1)*x^2'
    """
    return _member("chebyshev-C", n)


def chebyshev_S(n: int) -> PolyXC:
    """Monic second-kind Chebyshev polynomial rescaled to [-2, 2].

    >>> str(chebyshev_S(3))
    '(-2)*x + (1)*x^3'
    """
    return _member("chebyshev-S", n)


def gamma_tilde(n: int) -> PolyXC:
    """Monic orthogonal polynomial for the shifted arc-sine law."""
    return _member(Family.GAMMA_TILDE.value, n)


def pi_poly(n: int) -> PolyXC:
    """Monic orthogonal polynomial for the Marchenko-Pastur law.

    >>> str(pi_poly(2))
    '(c^2) + (-1 - 2*c)*x + (1)*x^2'
    """
    return _member(Family.PI.value, n)


def shift_constant(n: int) -> PolyC:
    """The constant shift that recenters the arc-sine family's member n.

    ``d(0) = -1``, ``d(1) = 1`` and ``d(n) = (-1)^n (c - 1)`` afterwards,
    so consecutive shifts cancel from n = 3 on.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return PolyC.const(-1)
    if n == 1:
        return PolyC.one()
    if n % 2 == 0:
        return PolyC.of(-1, 1)
    return PolyC.of(1, -1)


def gamma(n: int) -> PolyXC:
    """Centered arc-sine-family polynomial: integrates to zero for n >= 1.

    The n = 0 member is the constant 1 (the shift convention would make it
    vanish, which would break unitriangularity).
    """
    if n == 0:
        return PolyXC.one()
    return gamma_tilde(n) + shift_constant(n)


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionMatrix:
    """Lower-triangular matrix over Z[c]; row n has entries for columns 0..n."""

    rows: tuple[tuple[PolyC, ...], ...]

    def __post_init__(self) -> None:
        for n, row in enumerate(self.rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, n: int, k: int) -> PolyC:
        """Entry (n, k) of a row 0..size-1: zero anywhere off the triangle."""
        if 0 <= k <= n < self.size:
            return self.rows[n][k]
        if 0 <= n < self.size:
            return PolyC.zero()
        raise IndexError(f"row {n} outside a size-{self.size} matrix")

    def is_unitriangular(self) -> bool:
        return all(row[-1] == PolyC.one() for row in self.rows)

    @classmethod
    def identity(cls, size: int) -> "TransitionMatrix":
        return cls(
            tuple(
                tuple(PolyC.one() if k == n else PolyC.zero() for k in range(n + 1))
                for n in range(size)
            )
        )

    def __matmul__(self, other: "TransitionMatrix") -> "TransitionMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        rows = []
        for n in range(self.size):
            row = []
            for k in range(n + 1):
                acc = PolyC.zero()
                for j in range(k, n + 1):
                    acc = acc + self.entry(n, j) * other.entry(j, k)
                row.append(acc)
            rows.append(tuple(row))
        return TransitionMatrix(tuple(rows))

    def invert(self) -> "TransitionMatrix":
        """Exact inverse of a unitriangular matrix by forward substitution."""
        if not self.is_unitriangular():
            raise ValueError("matrix must have unit diagonal")
        inv: list[list[PolyC]] = []
        for n in range(self.size):
            row = [PolyC.zero()] * (n + 1)
            row[n] = PolyC.one()
            for k in range(n - 1, -1, -1):
                acc = PolyC.zero()
                for j in range(k, n):
                    acc = acc + self.entry(n, j) * inv[j][k]
                row[k] = -acc
            inv.append(row)
        return TransitionMatrix(tuple(tuple(r) for r in inv))


def transition_matrix(family: Family, size: int) -> TransitionMatrix:
    """Rows 0..size-1 of the family's x-coefficient matrix."""
    if size < 1:
        raise ValueError("size must be positive")
    if family is Family.GAMMA:
        return TransitionMatrix(tuple(gamma(n).coeffs for n in range(size)))
    return TransitionMatrix(RECURRENCES[family.value].rows(size))


def inverse_table(family: Family, size: int) -> TransitionMatrix:
    """Rows 0..size-1 of the inverse transition matrix: row n holds the
    coefficients of x^n in the family.  Built by the band recursion, but
    for the centered `gamma` family, which inverts its forward table."""
    if family is Family.GAMMA:
        return transition_matrix(family, size).invert()
    if size < 1:
        raise ValueError("size must be positive")
    return TransitionMatrix(RECURRENCES[family.value].rows(size, inverse=True))


def predict_covariance(m: int, n: int) -> PolyC:
    """Limiting covariance of Tr(X^m) and Tr(X^n) as a polynomial in c:
    the sum over k of k c^k G[m,k] G[n,k], G the inverse arc-sine table.
    It equals the weighted count of annular non-crossing permutations."""
    g = inverse_table(Family.GAMMA_TILDE, max(m, n) + 1)
    return sum((PolyC.monomial(k, k) * g.entry(m, k) * g.entry(n, k)
                for k in range(1, min(m, n) + 1)), PolyC.zero())


# ---------------------------------------------------------------------------
# reference-measure moments and integration
# ---------------------------------------------------------------------------


def moments(count: int) -> tuple[PolyC, ...]:
    """The first ``count`` Marchenko-Pastur moments as elements of Z[c].

    The m-th moment is the constant-column entry of the inverse transition
    matrix of the second-kind family.
    """
    table = inverse_table(Family.PI, count)
    return tuple(table.entry(m, 0) for m in range(count))


def integrate_against_reference(p: PolyXC) -> PolyC:
    """Exact integral of an x-polynomial against the Marchenko-Pastur law."""
    if p.is_zero():
        return PolyC.zero()
    ms = moments(p.degree + 1)
    acc = PolyC.zero()
    for k in range(p.degree + 1):
        acc = acc + p.coeff(k) * ms[k]
    return acc


# ---------------------------------------------------------------------------
# generating-function series
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def series_P0(order: int) -> SeriesZ:
    """Moment generating series of the Marchenko-Pastur law, exactly.

    Computed by iterating the fixed-point form of its functional equation,
    Q = z*(Q^2 + (1+c)Q + c) with Q = P0 - 1, starting from Q = 0.  Each
    sweep is exact and settles one further z-order.
    """
    if order < 1:
        raise ValueError("order must be positive")
    q = SeriesZ.zero(order)
    for _ in range(order + 1):
        q = (q * q + _ONE_PLUS_C * q + _C).times_z()
    return q + 1


@lru_cache(maxsize=None)
def _ladder(order: int) -> SeriesZ:
    """(P0 - 1)/c: the series that climbs one column per multiplication."""
    return (series_P0(order) - 1).div_polyc_exact(_C)


@lru_cache(maxsize=None)
def series_P(k: int, order: int) -> SeriesZ:
    """Generating series of column k of the inverse second-kind table."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return series_P0(order) if k == 0 else _climb(series_P, k, order)


@lru_cache(maxsize=None)
def series_G0(order: int) -> SeriesZ:
    """Moment generating series of the shifted arc-sine law.

    The z^m coefficient is sum_j C(m,j)^2 c^j, assembled directly from
    binomial coefficients (independent of the matrix route).
    """
    if order < 1:
        raise ValueError("order must be positive")
    coeffs = []
    for m in range(order + 1):
        coeffs.append(PolyC.of(*[comb(m, j) ** 2 for j in range(m + 1)]))
    return SeriesZ.from_coeffs(order, coeffs)


@lru_cache(maxsize=None)
def series_G(n: int, order: int) -> SeriesZ:
    """Generating series of column n of the inverse arc-sine table."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return series_G0(order) if n == 0 else _climb(series_G, n, order)


def _climb(column, k: int, order: int) -> SeriesZ:
    """Column k of a cached column function as column k-1 times the
    ladder.  The columns below are built first, in rising order, so a cold
    call recurses one level deep at most."""
    for j in range(1, k):
        column(j, order)
    return column(k - 1, order) * _ladder(order)

