"""Monic orthogonal polynomial families and their transition matrices.

Two measures drive everything here: the Marchenko-Pastur law with ratio
parameter ``c`` and the arc-sine law rescaled onto the same support.  Each
has a monic orthogonal family whose x-coefficients form a unitriangular
matrix over Q[c]; the inverses of those matrices are the combinatorial
objects the rest of the package enumerates diagrammatically.

All computations are exact.  The families are generated by three-term
recurrences only -- no square roots ever appear, which is itself one of the
checked properties (every coefficient lands in Z[c]).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb

from .polyc import PolyC, PolyXC, SeriesZ

_C = PolyC.c()
_ONE_PLUS_C = PolyC.of(1, 1)
_X = PolyXC.x()


def _fill_below(member, first: int, n: int) -> None:
    """Cache member(first), ..., member(n - 1) in increasing order, so that
    the recurrence for member(n) finds its predecessors cached and recurses
    one level deep, whatever the recursion limit."""
    for m in range(first, n):
        member(m)


class Family(str, Enum):
    """The three polynomial families with a transition matrix."""

    GAMMA_TILDE = "gamma-tilde"
    GAMMA = "gamma"
    PI = "pi"


# ---------------------------------------------------------------------------
# rescaled Chebyshev polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def chebyshev_C(n: int) -> PolyXC:
    """Monic first-kind Chebyshev polynomial rescaled to the interval [-2, 2].

    Satisfies x*C_n = C_{n+1} + C_{n-1} for n > 1, with the n = 1 exception
    x*C_1 = C_2 + 2*C_0.

    >>> str(chebyshev_C(2))
    '(-2) + (1)*x^2'
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return PolyXC.one()
    if n == 1:
        return _X
    if n == 2:
        return _X * chebyshev_C(1) - 2 * chebyshev_C(0)
    _fill_below(chebyshev_C, 3, n)
    return _X * chebyshev_C(n - 1) - chebyshev_C(n - 2)


@lru_cache(maxsize=None)
def chebyshev_S(n: int) -> PolyXC:
    """Monic second-kind Chebyshev polynomial rescaled to [-2, 2].

    Satisfies x*S_n = S_{n+1} + S_{n-1} for every n >= 1.

    >>> str(chebyshev_S(3))
    '(-2)*x + (1)*x^3'
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return PolyXC.one()
    if n == 1:
        return _X
    _fill_below(chebyshev_S, 2, n)
    return _X * chebyshev_S(n - 1) - chebyshev_S(n - 2)


# ---------------------------------------------------------------------------
# the two shifted families
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def gamma_tilde(n: int) -> PolyXC:
    """Monic orthogonal polynomial for the shifted arc-sine law.

    Generated by the three-term recurrence
    ``x*f_n = f_{n+1} + (1+c) f_n + c f_{n-1}`` valid for n = 0, 2, 3, ...
    with the n = 1 step carrying ``2c`` instead of ``c``.  The rescaling
    constants conspire so that every coefficient lies in Z[c].
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return PolyXC.one()
    if n == 1:
        return _X - _ONE_PLUS_C
    shifted_x = _X - _ONE_PLUS_C
    if n == 2:
        return shifted_x * gamma_tilde(1) - 2 * _C * gamma_tilde(0)
    _fill_below(gamma_tilde, 3, n)
    return shifted_x * gamma_tilde(n - 1) - _C * gamma_tilde(n - 2)


@dataclass(frozen=True)
class ShiftConstants:
    """The constant shifts that recenter the arc-sine family.

    ``d(0) = -1``, ``d(1) = 1`` and ``d(n) = (-1)^n (c - 1)`` afterwards,
    so consecutive shifts cancel from n = 3 on.
    """

    @staticmethod
    def d(n: int) -> PolyC:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n == 0:
            return PolyC.const(-1)
        if n == 1:
            return PolyC.one()
        if n % 2 == 0:
            return PolyC.of(-1, 1)
        return PolyC.of(1, -1)

    def sequence(self, count: int) -> tuple[PolyC, ...]:
        return tuple(self.d(n) for n in range(count))


@lru_cache(maxsize=None)
def gamma(n: int) -> PolyXC:
    """Centered arc-sine-family polynomial: integrates to zero for n >= 1.

    The n = 0 member is the constant 1 (the shift convention would make it
    vanish, which would break unitriangularity).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return PolyXC.one()
    return gamma_tilde(n) + ShiftConstants.d(n)


@lru_cache(maxsize=None)
def pi_poly(n: int) -> PolyXC:
    """Monic orthogonal polynomial for the Marchenko-Pastur law.

    Seeded through degree 3 and extended by the same three-term recurrence
    as the arc-sine family (which for this family already holds from n = 1).

    >>> str(pi_poly(2))
    '(c^2) + (-1 - 2*c)*x + (1)*x^2'
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return PolyXC.one()
    if n == 1:
        return _X - _C
    if n == 2:
        return PolyXC.of(_C * _C, PolyC.of(-1, -2), PolyC.one())
    if n == 3:
        return PolyXC.of(
            -(_C ** 3), PolyC.of(1, 2, 3), PolyC.of(-2, -3), PolyC.one()
        )
    _fill_below(pi_poly, 4, n)
    return (_X - _ONE_PLUS_C) * pi_poly(n - 1) - _C * pi_poly(n - 2)


def family_poly(family: Family, n: int) -> PolyXC:
    if family is Family.GAMMA_TILDE:
        return gamma_tilde(n)
    if family is Family.GAMMA:
        return gamma(n)
    if family is Family.PI:
        return pi_poly(n)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionMatrix:
    """Lower-triangular matrix over Q[c]; row n has entries for columns 0..n."""

    rows: tuple[tuple[PolyC, ...], ...]

    def __post_init__(self) -> None:
        for n, row in enumerate(self.rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, n: int, k: int) -> PolyC:
        if 0 <= k <= n < self.size:
            return self.rows[n][k]
        if 0 <= n < self.size and 0 <= k < self.size:
            return PolyC.zero()
        raise IndexError(f"entry ({n}, {k}) outside a size-{self.size} matrix")

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

    def to_json(self) -> list[list[list[str]]]:
        return [[cell.as_json() for cell in row] for row in self.rows]


@lru_cache(maxsize=None)
def transition_matrix(family: Family, size: int) -> TransitionMatrix:
    """Rows 0..size-1 of the family's x-coefficient matrix."""
    if size < 1:
        raise ValueError("size must be positive")
    rows = []
    for n in range(size):
        p = family_poly(family, n)
        rows.append(tuple(p.coeff(k) for k in range(n + 1)))
    return TransitionMatrix(tuple(rows))


@lru_cache(maxsize=None)
def inverse_table(family: Family, size: int) -> TransitionMatrix:
    return transition_matrix(family, size).invert()


# the largest degree the Monte Carlo samples; the covariance limits up to
# degree d cost O(d^3) polynomial operations: `mc diagonalize --max-degree
# 30 --N 4 --samples 4` takes about 1.2 s end to end on a 2-core Xeon VM
MAX_DEGREE = 30


def predict_covariance(m: int, n: int, size: int | None = None) -> PolyC:
    """Limiting covariance of Tr(X^m) and Tr(X^n) as a polynomial in c:
    the sum over k of k c^k G[m,k] G[n,k], G the inverse arc-sine table.
    It equals the weighted count of annular non-crossing permutations.

    `size` (at least max(m, n) + 1, the default) picks the cached table to
    read; callers looping over many pairs pass their largest one."""
    g = inverse_table(Family.GAMMA_TILDE, size or max(m, n) + 1)
    return sum((PolyC.monomial(k, k) * g.entry(m, k) * g.entry(n, k)
                for k in range(1, min(m, n) + 1)), PolyC.zero())


# ---------------------------------------------------------------------------
# reference-measure moments and integration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
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
    return _ladder(order) ** k * series_P0(order)


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
    return _ladder(order) ** n * series_G0(order)

