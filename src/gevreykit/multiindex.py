"""Multi-index arithmetic and decomposition into parts with multiplicities.

A multi-index is a plain tuple of naturals.  A decomposition of alpha is a
representation alpha = sum_k m_k * p_k into distinct nonzero parts p_k
(strictly increasing in the lexicographic order) with positive
multiplicities m_k.  For d = 1 the decompositions of (n) are exactly the
integer partitions of n.

``enumerate_decompositions`` walks the candidate parts in decreasing
lexicographic order and tests whether a part fits inline: it subtracts
the part from the remaining budget as a tuple and takes it, with
multiplicities 1, 2, ..., until the difference has a negative entry.
``Decomposition`` checks each part's length against the target's, and
its four invariants, in one pass over the parts.
The enumerator and the census read alpha as a tuple of ints
(``operator.index`` per entry), so a list or numpy integers give the
same answer and a float entry raises TypeError.

``decomposition_census`` counts decompositions without listing them: a
generating-function recurrence over the box below alpha, independent of
``enumerate_decompositions``, so each checks the other; it counts each
alpha once and answers repeats from a cache.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

from .numerics import multinomial

MultiIndex = tuple[int, ...]


def mi_order(alpha: MultiIndex) -> int:
    """|alpha| = sum of components."""
    return sum(alpha)


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def mi_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    out = tuple(x - y for x, y in zip(a, b, strict=True))
    if any(x < 0 for x in out):
        raise ValueError(f"{b} exceeds {a} componentwise")
    return out


def mi_leq(a: MultiIndex, b: MultiIndex) -> bool:
    """Componentwise partial order a <= b."""
    return all(x <= y for x, y in zip(a, b, strict=True))


def mi_factorial(alpha: MultiIndex) -> int:
    """alpha! = prod alpha_i!"""
    out = 1
    for x in alpha:
        out *= math.factorial(x)
    return out


def mi_binomial(alpha: MultiIndex, beta: MultiIndex) -> int:
    """binom(alpha, beta) = prod binom(alpha_i, beta_i); 0 unless beta <= alpha."""
    if not mi_leq(beta, alpha):
        return 0
    out = 1
    for a, b in zip(alpha, beta):
        out *= math.comb(a, b)
    return out


def check_entries(alpha: MultiIndex) -> None:
    """Reject a multi-index with a negative entry."""
    if any(a < 0 for a in alpha):
        raise ValueError(f"alpha {alpha} has a negative entry")


def mi_range(bound: MultiIndex) -> Iterator[MultiIndex]:
    """All multi-indices beta with beta <= bound componentwise, in
    increasing lexicographic order, zero first."""
    return itertools.product(*(range(b + 1) for b in bound))


def mi_of_order(d: int, n: int) -> Iterator[MultiIndex]:
    """All multi-indices in N^d with |alpha| = n, lexicographically."""
    if d == 1:
        yield (n,)
        return
    for h in range(n, -1, -1):
        for tail in mi_of_order(d - 1, n - h):
            yield (h,) + tail


def mi_derivative(table: dict, beta: MultiIndex, step):
    """table[beta], built on first use from its predecessor.

    d^beta is step(d^(beta - e_t), t), t the last axis with beta_t > 0, so
    every derivative is taken along axis 0 first.  The table holds the
    zero index, or every index of the order below beta's; the missing
    predecessors are built and kept on the way.
    """
    if beta not in table:
        t = max(i for i, b in enumerate(beta) if b)
        prev = tuple(b - (i == t) for i, b in enumerate(beta))
        table[beta] = step(mi_derivative(table, prev, step), t)
    return table[beta]


@dataclass(frozen=True)
class Decomposition:
    """alpha = sum_k multiplicities[k] * parts[k], parts strictly increasing."""

    parts: tuple[MultiIndex, ...]
    multiplicities: tuple[int, ...]
    target: MultiIndex

    def __post_init__(self) -> None:
        parts, mults, target = self.parts, self.multiplicities, self.target
        if len(parts) != len(mults):
            raise ValueError("parts and multiplicities must have equal length")
        # one pass over the parts; the messages keep the checks' order
        width = len(target)
        positive = increasing = True
        total = [0] * width
        prev = None
        for p, m in zip(parts, mults):
            if len(p) != width:
                raise ValueError(f"parts must have the length of target {target}")
            if m < 1:
                positive = False
            if prev is not None and prev >= p:
                increasing = False
            prev = p
            for i in range(width):
                total[i] += m * p[i]
        if not positive:
            raise ValueError("multiplicities must be positive")
        if not increasing:
            raise ValueError("parts must be strictly increasing lexicographically")
        if tuple(total) != target:
            raise ValueError(f"decomposition sums to {tuple(total)}, not {target}")

    @property
    def total_multiplicity(self) -> int:
        """m = m_1 + ... + m_s."""
        return sum(self.multiplicities)


def enumerate_decompositions(alpha: MultiIndex) -> Iterator[Decomposition]:
    """Stream every decomposition of alpha exactly once.

    Recursive descent over candidate parts in decreasing lexicographic
    order; each candidate is subtracted from the remaining budget as a
    tuple, and a run of multiplicities ends at the first difference with
    a negative entry.  Each emitted decomposition has its parts sorted
    increasingly, and the overall emission order is deterministic.
    """
    alpha = tuple(map(operator.index, alpha))
    check_entries(alpha)
    if mi_order(alpha) < 1:
        raise ValueError("enumerate_decompositions requires |alpha| >= 1")
    # the box below alpha without zero, in decreasing lexicographic order
    candidates = list(mi_range(alpha))[:0:-1]
    sub = operator.sub

    def descend(
        remaining: MultiIndex, start: int, parts: list[MultiIndex], mults: list[int]
    ) -> Iterator[Decomposition]:
        if not any(remaining):
            yield Decomposition(
                parts=tuple(parts[::-1]), multiplicities=tuple(mults[::-1]), target=alpha
            )
            return
        for idx in range(start, len(candidates)):
            part = candidates[idx]
            left = tuple(map(sub, remaining, part))
            mult = 1
            while min(left) >= 0:
                parts.append(part)
                mults.append(mult)
                yield from descend(left, idx + 1, parts, mults)
                parts.pop()
                mults.pop()
                left = tuple(map(sub, left, part))
                mult += 1

    yield from descend(alpha, 0, [], [])


def composition_multinomial_sum(n: int) -> int:
    """Sum of m!/(m_1! ... m_n!) over all (m_1..m_n) with sum k*m_k = n.

    Here m = m_1 + ... + m_n.  The value equals 2^(n-1) exactly; the sum
    is evaluated by exhaustive enumeration, not from the closed form.
    """
    if n < 1:
        raise ValueError("composition_multinomial_sum requires n >= 1")
    total = 0

    def descend(k: int, remaining: int, mults: list[int]) -> None:
        nonlocal total
        if k == 0:
            if remaining == 0:
                total += multinomial(mults)
            return
        for mk in range(remaining // k + 1):
            mults.append(mk)
            descend(k - 1, remaining - k * mk, mults)
            mults.pop()

    descend(n, n, [])
    return total


def decomposition_census(alpha: MultiIndex) -> tuple[int, int, bool]:
    """(count of decompositions, bound (1+|alpha|)^(d+2), count <= bound).

    The count is the coefficient of x^alpha in prod_{0 < p <= alpha}
    1/(1 - x^p), built up one part p at a time over the cells of the box
    below alpha; it never calls the enumerator.
    """
    alpha = tuple(map(operator.index, alpha))
    check_entries(alpha)
    if mi_order(alpha) < 1:
        raise ValueError("decomposition_census requires |alpha| >= 1")
    return _census(alpha)


@functools.lru_cache(maxsize=1024)
def _census(alpha: MultiIndex) -> tuple[int, int, bool]:
    """decomposition_census of a checked alpha, once per alpha."""
    cells = list(mi_range(alpha))  # lexicographic: index(q + p) = index(q) + index(p)
    index = {c: i for i, c in enumerate(cells)}
    ways = [1] + [0] * (len(cells) - 1)
    for p in cells[1:]:
        shift = index[p]
        # increasing q, so ways[q] already counts p itself: any multiplicity
        for q in mi_range(mi_sub(alpha, p)):
            i = index[q]
            ways[i + shift] += ways[i]
    count = ways[-1]
    bound = (1 + mi_order(alpha)) ** (len(alpha) + 2)
    return count, bound, count <= bound
