"""Exact polynomial and series arithmetic over the integers.

Everything combinatorial in this package lives in the ring Z[c] of
polynomials in a single weight parameter ``c``.  Three small dense types
cover all of it:

* :class:`PolyC` -- a polynomial in ``c`` with ``int`` coefficients,
* :class:`PolyXC` -- a polynomial in ``x`` whose coefficients are PolyC,
* :class:`SeriesZ` -- a formal power series in ``z`` over PolyC, truncated
  at a fixed order.

All arithmetic runs on plain ``int`` and is exact; a division whose
quotient leaves Z[c] raises.  Only `PolyC.evaluate` leaves the ring: it
returns the exact rational value at a rational point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Iterable


def _trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def _check_exponent(k: int) -> None:
    if k < 0:
        raise ValueError(f"negative exponent {k} of c")


@dataclass(frozen=True)
class PolyC:
    """Dense univariate polynomial in the parameter ``c`` over Z.

    Coefficients are ``int``, stored ascending with trailing zeros trimmed;
    the zero polynomial is the empty tuple, so equal polynomials have equal
    tuples.  Anything that is not an integer is refused.

    >>> p = PolyC.of(1, 4, 1)
    >>> str(p)
    '1 + 4*c + c^2'
    >>> str(p - PolyC.of(0, 2))
    '1 + 2*c + c^2'
    >>> p == PolyC.parse("1 + 4*c + c^2")
    True
    >>> PolyC.of(0.5)
    Traceback (most recent call last):
    ...
    TypeError: 'float' object cannot be interpreted as an integer
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _trim(tuple(map(index, self.coeffs))))

    @classmethod
    def _wrap(cls, coeffs: tuple[int, ...]) -> "PolyC":
        """Wrap int coefficients that are already trimmed, unchecked."""
        p = object.__new__(cls)
        p.__dict__["coeffs"] = coeffs
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, *coeffs: int) -> "PolyC":
        return cls(coeffs)

    @classmethod
    def zero(cls) -> "PolyC":
        return cls._wrap(())

    @classmethod
    def one(cls) -> "PolyC":
        return cls._wrap((1,))

    @classmethod
    def c(cls) -> "PolyC":
        """The monomial c."""
        return cls._wrap((0, 1))

    @classmethod
    def monomial(cls, k: int, coef: int = 1) -> "PolyC":
        _check_exponent(k)
        return cls((0,) * k + (coef,))

    @classmethod
    def const(cls, value: int) -> "PolyC":
        return cls((value,))

    @classmethod
    def census(cls, exponents: Iterable[int]) -> "PolyC":
        """The weighted count of a diagram census: the sum of c^e over the
        exponents e, one per diagram, so that c^e counts the diagrams of
        exponent e.

        >>> str(PolyC.census([2, 0, 2, 1]))
        '1 + c + 2*c^2'
        >>> PolyC.census(()) == PolyC.zero()
        True
        """
        counts: list[int] = []
        for e in exponents:
            _check_exponent(e)
            if e >= len(counts):
                counts.extend([0] * (e + 1 - len(counts)))
            counts[e] += 1
        # the top count belongs to the largest exponent seen: no trim
        return cls._wrap(tuple(counts))

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value: "PolyC | int") -> "PolyC":
        if isinstance(value, PolyC):
            return value
        if isinstance(value, int):
            return PolyC.const(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "PolyC | int") -> "PolyC":
        other = PolyC._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, v in enumerate(b):
            merged[i] += v
        return PolyC._wrap(_trim(tuple(merged)))

    __radd__ = __add__

    def __neg__(self) -> "PolyC":
        return PolyC._wrap(tuple(-a for a in self.coeffs))

    def __sub__(self, other: "PolyC | int") -> "PolyC":
        other = PolyC._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "PolyC | int") -> "PolyC":
        other = PolyC._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return PolyC.zero()
        if self.coeffs == (1,):
            return other
        if other.coeffs == (1,):
            return self
        short, long = self.coeffs, other.coeffs
        if len(short) > len(long):
            short, long = long, short
        out = [0] * (len(short) + len(long) - 1)
        for i, a in enumerate(short):
            if a:
                for j, b in enumerate(long):
                    out[i + j] += a * b
        # the leading product of two nonzero ints is nonzero: no trim
        return PolyC._wrap(tuple(out))

    __rmul__ = __mul__

    def div_exact(self, divisor: "PolyC") -> "PolyC":
        """Exact division in Z[c]; raises ValueError if the remainder is
        nonzero or a quotient coefficient is not an integer.

        >>> PolyC.of(0, 2, 2).div_exact(PolyC.of(0, 2))
        PolyC(coeffs=(1, 1))
        >>> PolyC.of(1, 1).div_exact(PolyC.const(2))
        Traceback (most recent call last):
        ...
        ValueError: 1 + c is not divisible by 2 in Z[c]
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        d = divisor.coeffs
        lead = d[-1]
        q = [0] * max(len(rem) - len(d) + 1, 0)
        for i in range(len(rem) - len(d), -1, -1):
            factor, left = divmod(rem[i + len(d) - 1], lead)
            if left:
                break  # the quotient leaves Z[c]; rem stays nonzero
            q[i] = factor
            if factor:
                for j, dv in enumerate(d):
                    rem[i + j] -= factor * dv
        if any(rem):
            raise ValueError(f"{self} is not divisible by {divisor} in Z[c]")
        # an exact top quotient coefficient is nonzero: no trim
        return PolyC._wrap(tuple(q))

    def evaluate(self, value: int | Fraction) -> Fraction:
        """Horner evaluation at an exact rational point.

        >>> PolyC.of(1, 4, 1).evaluate(Fraction(1, 2))
        Fraction(13, 4)
        """
        value = Fraction(value)
        acc = Fraction(0)
        for a in reversed(self.coeffs):
            acc = acc * value + a
        return acc

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces: list[str] = []
        for k, a in enumerate(self.coeffs):
            if a == 0:
                continue
            mag = abs(a)
            if k == 0:
                body = str(mag)
            else:
                cpart = "c" if k == 1 else f"c^{k}"
                body = cpart if mag == 1 else f"{mag}*{cpart}"
            if not pieces:
                pieces.append(body if a > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if a > 0 else f"- {body}")
        return " ".join(pieces)

    @classmethod
    def parse(cls, text: str) -> "PolyC":
        """Parse the textual form produced by ``str``.

        Accepts terms in any order, an optional ``*`` and integer
        coefficients.

        >>> PolyC.parse("c^2 - 2*c") == PolyC.of(0, -2, 1)
        True
        """
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial text")
        s = s.replace("-", "+-")
        if s.startswith("+"):
            s = s[1:]
        terms: dict[int, int] = {}
        for raw in s.split("+"):
            if raw in ("", "-"):
                raise ValueError(f"malformed polynomial text: {text!r}")
            sign = 1
            if raw.startswith("-"):
                sign, raw = -1, raw[1:]
            if "c" in raw:
                head, _, tail = raw.partition("c")
                head = head.rstrip("*")
                coef = int(head) if head else 1
                if tail == "":
                    k = 1
                elif tail.startswith("^"):
                    k = int(tail[1:])
                else:
                    raise ValueError(f"malformed term {raw!r} in {text!r}")
            else:
                coef = int(raw)
                k = 0
            terms[k] = terms.get(k, 0) + sign * coef
        size = max(terms) + 1 if terms else 0
        out = [0] * size
        for k, v in terms.items():
            out[k] = v
        return cls(tuple(out))


@dataclass(frozen=True)
class PolyXC:
    """Polynomial in ``x`` whose coefficients live in Z[c].

    >>> x = PolyXC.x()
    >>> str(x * x - 2)
    '(-2) + (1)*x^2'
    """

    coeffs: tuple[PolyC, ...]

    def __post_init__(self) -> None:
        conv = tuple(a if isinstance(a, PolyC) else PolyC.const(a) for a in self.coeffs)
        end = len(conv)
        while end > 0 and conv[end - 1].is_zero():
            end -= 1
        object.__setattr__(self, "coeffs", conv[:end])

    @classmethod
    def x(cls) -> "PolyXC":
        return cls((PolyC.zero(), PolyC.one()))

    @classmethod
    def zero(cls) -> "PolyXC":
        return cls(())

    @classmethod
    def one(cls) -> "PolyXC":
        return cls((PolyC.one(),))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> PolyC:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else PolyC.zero()

    @staticmethod
    def _coerce(value: "PolyXC | PolyC | int") -> "PolyXC":
        if isinstance(value, PolyXC):
            return value
        if isinstance(value, (PolyC, int)):
            return PolyXC((PolyC._coerce(value),))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "PolyXC | PolyC | int") -> "PolyXC":
        other = PolyXC._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, v in enumerate(b):
            merged[i] = merged[i] + v
        return PolyXC(tuple(merged))

    __radd__ = __add__

    def __neg__(self) -> "PolyXC":
        return PolyXC(tuple(-a for a in self.coeffs))

    def __sub__(self, other: "PolyXC | PolyC | int") -> "PolyXC":
        other = PolyXC._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "PolyXC | PolyC | int") -> "PolyXC":
        other = PolyXC._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return PolyXC.zero()
        out = [PolyC.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return PolyXC(tuple(out))

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for k, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            if k == 0:
                pieces.append(f"({a})")
            elif k == 1:
                pieces.append(f"({a})*x")
            else:
                pieces.append(f"({a})*x^{k}")
        return " + ".join(pieces)


@dataclass(frozen=True)
class SeriesZ:
    """Power series in ``z`` over Z[c], truncated beyond ``z^order``.

    The coefficient tuple always has length ``order + 1``.

    >>> s = SeriesZ.from_coeffs(3, [1, PolyC.c()])
    >>> str(s.coeff(1))
    'c'
    >>> (s * s).coeff(1) == PolyC.of(0, 2)
    True
    """

    order: int
    coeffs: tuple[PolyC, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("series order must be >= 0")
        conv = tuple(a if isinstance(a, PolyC) else PolyC.const(a) for a in self.coeffs)
        if len(conv) > self.order + 1:
            raise ValueError("more coefficients than the truncation order allows")
        conv = conv + (PolyC.zero(),) * (self.order + 1 - len(conv))
        object.__setattr__(self, "coeffs", conv)

    @classmethod
    def from_coeffs(cls, order: int, coeffs) -> "SeriesZ":
        return cls(order, tuple(coeffs))

    @classmethod
    def zero(cls, order: int) -> "SeriesZ":
        return cls(order, ())

    @classmethod
    def one(cls, order: int) -> "SeriesZ":
        return cls(order, (PolyC.one(),))

    @classmethod
    def z(cls, order: int) -> "SeriesZ":
        return cls(order, (PolyC.zero(), PolyC.one()))

    def coeff(self, k: int) -> PolyC:
        return self.coeffs[k] if 0 <= k <= self.order else PolyC.zero()

    @staticmethod
    def _coerce(value: "SeriesZ | PolyC | int", order: int) -> "SeriesZ":
        if isinstance(value, SeriesZ):
            return value
        if isinstance(value, (PolyC, int)):
            return SeriesZ(order, (PolyC._coerce(value),))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "SeriesZ | PolyC | int") -> "SeriesZ":
        other = SeriesZ._coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.order, other.order)
        return SeriesZ(order, tuple(self.coeffs[k] + other.coeffs[k] for k in range(order + 1)))

    __radd__ = __add__

    def __neg__(self) -> "SeriesZ":
        return SeriesZ(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "SeriesZ | PolyC | int") -> "SeriesZ":
        other = SeriesZ._coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "SeriesZ | PolyC | int") -> "SeriesZ":
        other = SeriesZ._coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.order, other.order)
        out = [PolyC.zero()] * (order + 1)
        for i in range(order + 1):
            a = self.coeffs[i]
            if a.is_zero():
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return SeriesZ(order, tuple(out))

    __rmul__ = __mul__

    def times_z(self, shift: int = 1) -> "SeriesZ":
        """Multiply by z^shift (same truncation order; top terms fall off)."""
        out = (PolyC.zero(),) * shift + self.coeffs[: self.order + 1 - shift]
        return SeriesZ(self.order, out)

    def div_polyc_exact(self, divisor: PolyC) -> "SeriesZ":
        """Divide every coefficient exactly by a fixed PolyC."""
        return SeriesZ(self.order, tuple(a.div_exact(divisor) for a in self.coeffs))
