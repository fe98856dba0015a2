"""Exact combinatorial arithmetic and log-domain magnitude arithmetic.

Quantities of size p^{tau p^sigma} overflow any fixed-width float almost
immediately, so every magnitude in the kit is carried as its natural
logarithm (:class:`LogMagnitude`).  Exact integer / rational work
(factorials, multinomials, jet coefficients) uses plain ``int`` and
``fractions.Fraction``, which already guarantee exactness and lowest
terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import total_ordering

_NEG_INF = float("-inf")


@total_ordering
@dataclass(frozen=True)
class LogMagnitude:
    """A nonnegative real stored by its natural logarithm.

    ``log_value = -inf`` represents the magnitude 0.  Multiplication and
    division of magnitudes are addition and subtraction of logs; addition
    of the represented values uses log-sum-exp stabilization.  Ordering
    agrees with the ordering of the represented reals.  Subtraction of
    magnitudes is deliberately not provided.
    """

    log_value: float

    @classmethod
    def from_real(cls, x: float) -> "LogMagnitude":
        if x < 0:
            raise ValueError(f"LogMagnitude.from_real requires x >= 0, got {x!r}")
        return cls(_NEG_INF) if x == 0 else cls(math.log(x))

    @classmethod
    def zero(cls) -> "LogMagnitude":
        return cls(_NEG_INF)

    @classmethod
    def one(cls) -> "LogMagnitude":
        return cls(0.0)

    def to_real(self) -> float:
        """The represented value; overflows to ``inf`` beyond float range."""
        if self.log_value == _NEG_INF:
            return 0.0
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return float("inf")

    def is_zero(self) -> bool:
        return self.log_value == _NEG_INF

    def __mul__(self, other: "LogMagnitude") -> "LogMagnitude":
        if self.is_zero() or other.is_zero():
            return LogMagnitude(_NEG_INF)
        return LogMagnitude(self.log_value + other.log_value)

    def __truediv__(self, other: "LogMagnitude") -> "LogMagnitude":
        if other.is_zero():
            raise ZeroDivisionError("division by zero magnitude")
        if self.is_zero():
            return LogMagnitude(_NEG_INF)
        return LogMagnitude(self.log_value - other.log_value)

    def __add__(self, other: "LogMagnitude") -> "LogMagnitude":
        # log-sum-exp with the larger exponent factored out
        a, b = self.log_value, other.log_value
        if a == _NEG_INF:
            return other
        if b == _NEG_INF:
            return self
        if a < b:
            a, b = b, a
        return LogMagnitude(a + math.log1p(math.exp(b - a)))

    def __pow__(self, exponent: float) -> "LogMagnitude":
        if self.is_zero():
            if exponent == 0:
                return LogMagnitude(0.0)
            if exponent < 0:
                raise ZeroDivisionError("zero magnitude to a negative power")
            return LogMagnitude(_NEG_INF)
        return LogMagnitude(self.log_value * exponent)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogMagnitude):
            return NotImplemented
        return self.log_value == other.log_value

    def __lt__(self, other: "LogMagnitude") -> bool:
        return self.log_value < other.log_value

    def __repr__(self) -> str:
        return f"LogMagnitude({self.log_value!r})"


# ln(n!) by exact summation of ln k, cached cumulatively.  Stirling is a
# cross-check only (stirling_log_residual), never the stored value.
_LOG_FACT_CACHE: list[float] = [0.0, 0.0]


def log_factorial(n: int) -> LogMagnitude:
    """ln(n!) as a LogMagnitude, computed by exact summation of ln k."""
    if n < 0:
        raise ValueError("log_factorial requires n >= 0")
    cache = _LOG_FACT_CACHE
    k = len(cache)
    if k <= n:
        # accumulate adds left to right: the same sequential sums as a loop
        grown = itertools.accumulate(map(math.log, range(k, n + 1)), initial=cache[-1])
        next(grown)
        cache.extend(grown)
    return LogMagnitude(cache[n])


def multinomial(a: list[int] | tuple[int, ...]) -> int:
    """|a|! / (a_1! a_2! ... a_m!) as an exact integer."""
    if len(a) == 0:
        raise ValueError("multinomial requires a nonempty list")
    if any(x < 0 for x in a):
        raise ValueError("multinomial entries must be nonnegative")
    total = sum(a)
    out = math.factorial(total)
    for x in a:
        out //= math.factorial(x)
    return out


def stirling_log_residual(n: int) -> float:
    """ln n! minus the Stirling main term n ln n - n + ln(2 pi n)/2.

    The residual r satisfies 0 < r < 1/(12 n) for every n >= 1.
    """
    if n < 1:
        raise ValueError("stirling_log_residual requires n >= 1")
    main = n * math.log(n) - n + 0.5 * math.log(2.0 * math.pi * n)
    return log_factorial(n).log_value - main
