"""Exact combinatorial arithmetic and the cached ln n!.

Quantities of size p^{tau p^sigma} overflow any fixed-width float almost
immediately, so every magnitude in the kit is carried as its natural
logarithm, a plain ``float``.  Exact integer / rational work
(factorials, multinomials, jet coefficients) uses plain ``int`` and
``fractions.Fraction``, which already guarantee exactness and lowest
terms.
"""

from __future__ import annotations

import itertools
import math


# ln(n!) by exact summation of ln k, cached cumulatively.
_LOG_FACT_CACHE: list[float] = [0.0, 0.0]


def log_factorial(n: int) -> float:
    """ln(n!), computed by exact summation of ln k."""
    if n < 0:
        raise ValueError("log_factorial requires n >= 0")
    cache = _LOG_FACT_CACHE
    k = len(cache)
    if k <= n:
        # accumulate adds left to right: the same sequential sums as a loop
        grown = itertools.accumulate(map(math.log, range(k, n + 1)), initial=cache[-1])
        next(grown)
        cache.extend(grown)
    return cache[n]


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

